"""The three business scenarios and their KPI reports.

all-sm outsources every request, all-fct forces everything onto own
vehicles through a prohibitive outsourcing penalty, mixed lets the search
decide.  `compare` runs all three and writes CSV reports.
"""

from __future__ import annotations

import csv
import json
import os
import signal
from dataclasses import dataclass, replace

from .engine import AlnsConfig, RunReport, run, write_report
from .model import Instance, Solution, fmt_km, fmt_money, priced_solution, write_text
from .schedule import Simulator, simulate_trip

CSV_HEADER = (
    "scenario,total_cost,vehicle_cost,outsourced_cost,vehicles,loaded_km,"
    "empty_km,outsourced_km,pct_own,min_km,avg_km,max_km,cpu_s"
)


@dataclass(frozen=True)
class ScenarioResult:
    scenario: str  # "all-sm" | "all-fct" | "mixed"
    total_cents: int
    vehicle_cents: int
    outsourced_cents: int
    vehicles: int
    loaded_d10: int
    empty_d10: int
    outsourced_d10: int
    pct_own: float
    min_d10: int
    avg_km: float
    max_d10: int
    cpu_s: float
    residual: int = 0  # all-fct only: requests no vehicle could serve

    def csv_row(self) -> tuple[str, ...]:
        """The KPI fields of compare.csv's row, in CSV_HEADER's order."""
        return (
            self.scenario,
            fmt_money(self.total_cents),
            fmt_money(self.vehicle_cents),
            fmt_money(self.outsourced_cents),
            str(self.vehicles),
            fmt_km(self.loaded_d10),
            fmt_km(self.empty_d10),
            fmt_km(self.outsourced_d10),
            f"{self.pct_own:.1f}",
            fmt_km(self.min_d10),
            f"{self.avg_km:.1f}",
            fmt_km(self.max_d10),
            f"{self.cpu_s:.2f}",
        )


def _result(instance: Instance, scenario: str, solution: Solution, cpu_s: float) -> ScenarioResult:
    """The KPIs of a solution.  all-fct prices no outsourcing: its bank
    holds the requests no vehicle could serve, reported as `residual`."""
    fct = scenario == "all-fct"
    loaded = sum(t.loaded_d10 for t in solution.trips)
    empty = sum(t.empty_d10 for t in solution.trips)
    outsourced_km = sum(instance.direct_d10(rid) for rid in solution.bank)
    n_requests = len(instance.requests)
    pct = 100.0 * solution.planned_count / n_requests if n_requests else 0.0
    totals = [t.total_d10 for t in solution.trips]
    outsourced_cents = 0 if fct else solution.cost_outsourced
    return ScenarioResult(
        scenario=scenario,
        total_cents=solution.cost_vehicles + outsourced_cents,
        vehicle_cents=solution.cost_vehicles,
        outsourced_cents=outsourced_cents,
        vehicles=len(solution.trips),
        loaded_d10=loaded,
        empty_d10=empty,
        outsourced_d10=outsourced_km,
        pct_own=pct,
        min_d10=min(totals) if totals else 0,
        avg_km=(sum(totals) / len(totals) / 10.0) if totals else 0.0,
        max_d10=max(totals) if totals else 0,
        cpu_s=cpu_s,
        residual=len(solution.bank) if fct else 0,
    )


def scenario_all_sm(instance: Instance) -> tuple[ScenarioResult, Solution]:
    """Everything to the spot market; a sum, not a search, so its cpu_s is 0."""
    solution = priced_solution(instance, (), (r.id for r in instance.requests))
    return _result(instance, "all-sm", solution, 0.0), solution


def fct_penalty_cents(instance: Instance) -> int:
    """Outsourcing penalty that stands in for 'a huge number': ten times the
    vehicle cost of all direct distances combined, and at least 1 cent, the
    least price a request may have (all of them may be co-located pairs)."""
    total_direct = sum(instance.direct_d10(r.id) for r in instance.requests)
    return max(1, instance.cost.kappa_cents * total_direct)


def fct_instance(instance: Instance) -> Instance:
    penalty = fct_penalty_cents(instance)
    return replace(
        instance,
        requests=tuple(replace(r, sm_price_cents=penalty) for r in instance.requests),
    )


def scenario_all_fct(
    instance: Instance, config: AlnsConfig
) -> tuple[ScenarioResult, Solution, RunReport]:
    """Serve everything by own vehicles; leftovers are flagged, not priced.

    KPIs cover the trips only; requests that no vehicle could serve within
    the rules are reported in `residual`.  cpu_s is the run's `wall_s`.
    """
    best, report = run(fct_instance(instance), config)
    return _result(instance, "all-fct", best, report.wall_s), best, report


def scenario_mixed(
    instance: Instance, config: AlnsConfig
) -> tuple[ScenarioResult, Solution, RunReport]:
    """Let the search choose between own vehicles and the spot market;
    cpu_s is the run's `wall_s`."""
    best, report = run(instance, config)
    return _result(instance, "mixed", best, report.wall_s), best, report


def solution_to_dict(solution: Solution) -> dict:
    return {
        "trips": [
            {
                "requests": list(t.requests),
                "loaded_km": t.loaded_d10 / 10,
                "empty_km": t.empty_d10 / 10,
            }
            for t in solution.trips
        ],
        "bank": sorted(solution.bank),
        "cost_vehicles": fmt_money(solution.cost_vehicles),
        "cost_outsourced": fmt_money(solution.cost_outsourced),
        "cost_total": fmt_money(solution.cost_total),
    }


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_searches(instance: Instance, fct_config: AlnsConfig, mixed_config: AlnsConfig):
    """The all-fct and mixed scenario results, computed at the same time
    (all-fct in a forked child) when two cores are usable, else in turn.

    The child sends `(True, result)` or `(False, exception)` through a pipe
    with pickle and leaves by `os._exit`, so it never returns into the
    caller's stack and never flushes the parent's buffers.  An exception of
    either search is raised here.  When the mixed search raises, the child
    is killed and reaped at once; no path leaves a child behind.
    """
    pid = None
    if hasattr(os, "fork") and _usable_cores() >= 2:
        read_fd, write_fd = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(read_fd)
            os.close(write_fd)
    if pid is None:
        return scenario_all_fct(instance, fct_config), scenario_mixed(instance, mixed_config)
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            try:
                payload = (True, scenario_all_fct(instance, fct_config))
            except BaseException as exc:
                payload = (False, exc)
            # imported after the search, not at the top: it adds about 0.4 MB
            # of resident memory to every process that loads this module
            import pickle

            try:
                data = pickle.dumps(payload)
            except Exception:  # an exception that does not pickle keeps its text
                data = pickle.dumps((False, RuntimeError(f"all-fct search: {payload[1]!r}")))
            with open(write_fd, "wb") as fh:
                fh.write(data)
            status = 0
        finally:
            os._exit(status)

    os.close(write_fd)
    status = None
    try:
        mixed = scenario_mixed(instance, mixed_config)
        with open(read_fd, "rb", closefd=False) as fh:
            data = fh.read()
        status = os.waitpid(pid, 0)[1]
    finally:
        os.close(read_fd)
        if status is None:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code or not data:
        how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
        raise RuntimeError(f"the all-fct search {how} without a result")
    import pickle

    ok, payload = pickle.loads(data)
    if not ok:
        raise payload
    return payload, mixed


class _Echo:
    """A file whose write returns its text, so that csv.writer's writerow
    returns the row it wrote."""

    def write(self, text: str) -> str:
        return text


def _write_csv(path: str, header: str, rows) -> None:
    """A CSV file of a header (plain column names) and rows of fields.

    csv.writer quotes only a field that holds a comma, a quote or a line
    end; it ends each row with CRLF, so it quotes a field that holds either
    character, and that CRLF becomes the file's LF.
    """
    writer = csv.writer(_Echo())
    write_text(path, "\n".join((header, *(writer.writerow(row)[:-2] for row in rows))))


def compare(instance: Instance, config: AlnsConfig, out_dir: str) -> list[ScenarioResult]:
    """Run all three scenarios and write compare.csv plus summary.csv.

    Scenario seeds are derived from the config seed by fixed offsets
    (all-fct: +1, mixed: +2), so the three runs are independent and
    reproducible, and the all-fct and mixed searches can run at the same
    time (see `_run_searches`).
    """
    os.makedirs(out_dir, exist_ok=True)
    sm_result, sm_solution = scenario_all_sm(instance)
    (fct_result, fct_solution, fct_report), (mixed_result, mixed_solution, mixed_report) = (
        _run_searches(
            instance, replace(config, seed=config.seed + 1), replace(config, seed=config.seed + 2)
        )
    )

    rows = [sm_result, fct_result, mixed_result]
    _write_csv(os.path.join(out_dir, "compare.csv"), CSV_HEADER, [row.csv_row() for row in rows])
    # one-line overview in the nothing | everything | mixed layout
    summary = (
        instance.name or "instance",
        fmt_km(fct_result.loaded_d10 + fct_result.empty_d10),
        fmt_money(fct_result.total_cents),
        fmt_km(sm_result.outsourced_d10),
        fmt_money(sm_result.total_cents),
        f"{mixed_result.pct_own:.1f}",
        fmt_km(mixed_result.loaded_d10),
        fmt_km(mixed_result.empty_d10),
        fmt_money(mixed_result.vehicle_cents),
        fmt_km(mixed_result.outsourced_d10),
        fmt_money(mixed_result.outsourced_cents),
        fmt_money(mixed_result.total_cents),
    )
    _write_csv(
        os.path.join(out_dir, "summary.csv"),
        "instance,nothing_km,nothing_cost,everything_km,everything_cost,"
        "mixed_pct_req,mixed_loaded_km,mixed_empty_km,mixed_vehicle_cost,"
        "mixed_outsourced_km,mixed_outsourced_cost,mixed_total_cost",
        [summary],
    )

    for tag, solution, report in (
        ("all-sm", sm_solution, None),
        ("all-fct", fct_solution, fct_report),
        ("mixed", mixed_solution, mixed_report),
    ):
        path = os.path.join(out_dir, tag)
        write_text(f"{path}.solution.json", json.dumps(solution_to_dict(solution), indent=2))
        if report is not None:
            write_report(report, path)
    return rows


def dump_schedules(instance: Instance, solution: Solution) -> str:
    """CSV text of every trip's schedule (debugging aid)."""
    sim = Simulator(instance)
    lines = ["trip,node,location,arrival,service_start,departure,segments"]
    for ti, trip in enumerate(solution.trips):
        sched = simulate_trip(instance, trip.requests, simulator=sim)
        k = 0
        for ni, node in enumerate(sched.nodes):
            segs = []
            while k < len(sched.segments) and sched.segments[k].end <= node.departure:
                s = sched.segments[k]
                segs.append(f"{s.kind}:{s.start}-{s.end}")
                k += 1
            lines.append(
                f"{ti},{ni},{node.location},{node.arrival},{node.service_start},"
                f"{node.departure},{'|'.join(segs)}"
            )
    return "\n".join(lines) + "\n"
