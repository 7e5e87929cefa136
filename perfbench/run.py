#!/usr/bin/env python3
"""ftlopt benchmark: three workloads through the package's public entry points.

    python3 perfbench/run.py --workload fct-c1 --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports the package from its
`src/`.  Everything happens in this one process, with no extra threads and
`FTL_THREADS` cleared, so the default sequential path is measured.

With `--trace 0` set-ups and timed passes repeat while the next pass is
expected to end within `--seconds` (at least MIN_PASSES passes), and the
end-to-end metrics are printed: medians over set-ups and passes, with every
time rescaled to a fixed machine speed (see SpeedProbe).  With
`--trace 1` one untraced pass is followed by one traced pass whose
per-layer metrics are printed together with the tracing overhead.  Every
search is checked outside the timed window; the last line of standard
output is one JSON object.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import threading
import time
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DATA = os.path.join(ROOT, "tests", "data")
WORK = os.path.join(HERE, ".work")
OUT = os.path.join(HERE, ".out")

SETUP_REPEATS = 5  # before every pass
MIN_PASSES = 2
# 200 iterations is AlnsConfig's segment_length: each fct-c1 search reaches a
# segment end (weight refresh, trace row, cache-cap checks), and its caches
# grow as in a real run
FCT_SEARCHES, FCT_ITERATIONS = 2, 200
COMPARE_RUNS, COMPARE_ITERATIONS = 4, 25
MICRO_INSTANCES, MICRO_ITERATIONS = 60, 1000
MICRO_SIZES = (3, 4, 5, 6, 7)  # requests per micro instance
MICRO_TOLERANCE = 0.02  # acceptance criterion 2: at most 2% above the optimum

clock = time.perf_counter

# the speed probe: one sample is REF_LOOPS rounds of a fixed pure-Python loop
# (about 2 ms), taken every REF_PERIOD_S of wall time; an interval is rescaled
# by the mean sample within REF_WINDOW_S of it.  REF_NOMINAL_S is the median
# sample on the 2-core x86-64 machine the baseline was recorded on, so that a
# rescaled time reads as seconds at that machine's usual speed.
REF_LOOPS = 10_000
REF_PERIOD_S = 0.1
REF_WINDOW_S = 0.25
REF_NOMINAL_S = 0.0020


def load_package():
    """Import ftlopt from this checkout's src/, or exit 2 when it is absent."""
    os.environ.pop("FTL_THREADS", None)
    sys.path.insert(0, SRC)
    try:
        import ftlopt
        from ftlopt import cli, engine, instances, model, oracle, scenarios
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import ftlopt from {SRC}: {exc}")
    if not os.path.abspath(ftlopt.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: ftlopt was imported from {ftlopt.__file__}, not from {SRC}")
    return cli, engine, instances, model, oracle, scenarios


cli, engine, instances, model, oracle, scenarios = (None,) * 6


class Search:
    """One ALNS search of a pass, as the benchmark observed it."""

    def __init__(self, label: str, kind: str):
        self.label = label
        self.kind = kind  # "all-fct" or "mixed": which instance the search optimised
        self.iterations = 0
        self.best_cents = None
        self.solution = None
        self.problems: list[str] = []


def _reference_loop() -> int:
    """A fixed pure-Python loop: integer arithmetic and dict stores, as in ftlopt."""
    acc, table = 0, {}
    for i in range(REF_LOOPS):
        acc += i * i % 7
        table[i & 1023] = acc
    return acc


class Interval(NamedTuple):
    start: float
    end: float
    seconds: float  # end - start, less the probe's own samples inside


class SpeedProbe:
    """Samples the machine's speed while the benchmark measures.

    On a shared host the speed of a core drifts by up to a third for seconds
    to minutes at a time, so raw times of the same work spread wider than any
    useful bound.  While active, a timer signal runs `_reference_loop` in this
    thread every REF_PERIOD_S and records how long it took.  `rescale` turns
    an interval into the seconds it would have taken at the nominal speed:
    its own time, without the samples, times REF_NOMINAL_S over the mean
    sample near it.  Work that is slower because the program changed still
    reads slower: the loop does not touch ftlopt.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, seconds) per sample
        self.busy = 0.0  # total seconds spent sampling
        self._old = None

    def _tick(self, _signum, _frame) -> None:
        t0 = clock()
        _reference_loop()
        took = clock() - t0
        self.samples.append((t0, took))
        self.busy += took

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REF_PERIOD_S, REF_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def time(self, call):
        """(Interval, result) of one call; a raised exception is the result."""
        t0, busy0 = clock(), self.busy
        try:
            out = call()
        except Exception as exc:  # a raising search is a failed search
            out = exc
        t1 = clock()
        return Interval(t0, t1, t1 - t0 - (self.busy - busy0)), out

    def rescale(self, iv: Interval) -> float:
        near = [took for start, took in self.samples
                if iv.start - REF_WINDOW_S <= start <= iv.end + REF_WINDOW_S]
        if not near:  # no sample near it: the nearest one
            near = [min(self.samples, key=lambda s: abs(s[0] - iv.start))[1]]
        return iv.seconds * REF_NOMINAL_S / statistics.fmean(near)


probe = SpeedProbe()


def _timed(call):
    """(Interval, result) of one timed call.

    The heap is collected first, so every call starts from the same state,
    as a fresh `ftlopt` process would; automatic collection inside the call
    stays on.
    """
    gc.collect()
    return probe.time(call)


def _cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _read_outputs(search: Search, solution_path: str, report_path: str) -> None:
    """Fill a search from the files the CLI wrote."""
    try:
        report = _load_json(report_path)
        search.solution = _load_json(solution_path)
    except (OSError, ValueError) as exc:
        search.problems.append(f"unreadable output: {exc}")
        return
    search.iterations = report["iterations"]
    search.best_cents = report["best_cents"]


def _solution_from_doc(instance, doc):
    trips = []
    for t in doc["trips"]:
        seq = tuple(t["requests"])
        trips.append(model.Trip(seq, *model.trip_distances(instance, seq)))
    cv, co = model.cents(doc["cost_vehicles"]), model.cents(doc["cost_outsourced"])
    return model.Solution(tuple(trips), frozenset(doc["bank"]), cv, co, cv + co)


def check_search(search: Search, instance, graph) -> None:
    """Validate one search's best solution against the model and the LP rules."""
    if search.best_cents is None:
        return
    try:
        sol = search.solution
        if isinstance(sol, dict):
            if sol["cost_total"] != model.fmt_money(search.best_cents):
                search.problems.append("solution file cost differs from the report")
            sol = _solution_from_doc(instance, sol)
        search.problems += [str(v) for v in model.validate_solution(instance, sol)]
        cost = model.solution_cost(instance, sol).total
        if cost != search.best_cents:
            search.problems.append(f"recomputed cost {cost} != reported {search.best_cents}")
        search.problems += oracle.check_lp_assignment(graph, instance, sol)
    except Exception as exc:  # a solution the checks cannot even read is a failed search
        search.problems.append(f"check raised {exc!r}")


class Workload:
    name = ""

    def __init__(self, work: str, seed: int):
        self.work = work
        self.seed = seed

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self) -> list[tuple[Interval, list[Search]]]:
        """The timed calls: (interval, searches) per call."""
        raise NotImplementedError

    def check(self, searches: list[Search]) -> None:
        raise NotImplementedError


class DeskWorkload(Workload):
    """A CLI session on a bundled synthetic Gehring & Homberger file."""

    gh_file = ""
    iterations = 0

    def __init__(self, work: str, seed: int):
        super().__init__(work, seed)
        self.instance_path = os.path.join(work, "instance.json")
        self.config_path = os.path.join(work, "config.json")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump({"max_iterations": self.iterations}, fh)

    def out_dir(self) -> str:
        """An empty directory for one pass's outputs, so no file outlives its pass."""
        path = os.path.join(self.work, "out")
        shutil.rmtree(path, ignore_errors=True)
        os.mkdir(path)
        return path

    def setup(self) -> None:
        gh = os.path.join(DATA, self.gh_file)
        rc = _cli(["transform", "--gh", gh, "--out", self.instance_path])
        if rc != 0:
            raise RuntimeError(f"transform exited {rc}")

    def check(self, searches: list[Search]) -> None:
        instance = instances.read_instance(self.instance_path)
        searched = {"mixed": instance, "all-fct": scenarios.fct_instance(instance)}
        graphs = {kind: oracle.build_arc_graph(searched[kind]) for kind in {s.kind for s in searches}}
        for s in searches:
            check_search(s, searched[s.kind], graphs[s.kind])


class FctC1(DeskWorkload):
    name = "fct-c1"
    gh_file = "gh_syn_c1.txt"
    iterations = FCT_ITERATIONS

    def run_pass(self):
        units = []
        out_dir = self.out_dir()
        for k in range(FCT_SEARCHES):
            seed = self.seed * FCT_SEARCHES + k
            out = os.path.join(out_dir, f"fct-{k}.json")
            s = Search(f"solve all-fct seed {seed}", "all-fct")
            iv, rc = _timed(lambda: _cli([
                "solve", "--instance", self.instance_path, "--scenario", "all-fct",
                "--config", self.config_path, "--seed", str(seed), "--out", out]))
            if rc != 0:
                s.problems.append(f"solve returned {rc!r}")
            else:
                _read_outputs(s, out, out + ".report.json")
            units.append((iv, [s]))
        return units


def _csv_problems(out_dir: str) -> list[str]:
    """compare.csv and summary.csv must exist and parse."""
    problems = []
    for name, rows_expected in (("compare.csv", 3), ("summary.csv", 1)):
        path = os.path.join(out_dir, name)
        try:
            with open(path, "r", encoding="utf-8", newline="") as fh:
                rows = list(csv.reader(fh))
        except OSError as exc:
            problems.append(f"{name}: {exc}")
            continue
        if len(rows) != rows_expected + 1:
            problems.append(f"{name}: {len(rows) - 1} data rows, expected {rows_expected}")
            continue
        header, body = rows[0], rows[1:]
        if name == "compare.csv" and ",".join(header) != scenarios.CSV_HEADER:
            problems.append("compare.csv: unexpected header")
        for row in body:
            if len(row) != len(header):
                problems.append(f"{name}: row width {len(row)} != {len(header)}")
                continue
            try:
                [float(v) for v in row[1:]]
            except ValueError as exc:
                problems.append(f"{name}: {exc}")
        if name == "compare.csv" and [r[0] for r in body] != ["all-sm", "all-fct", "mixed"]:
            problems.append("compare.csv: unexpected scenario rows")
    return problems


class CompareMix(DeskWorkload):
    name = "compare-mix"
    gh_file = "gh_syn_mix.txt"
    iterations = COMPARE_ITERATIONS

    def run_pass(self):
        units = []
        pass_dir = self.out_dir()
        for k in range(COMPARE_RUNS):
            seed = self.seed * COMPARE_RUNS + k
            out_dir = os.path.join(pass_dir, f"compare-{k}")
            found = [Search(f"compare {kind} master seed {seed}", kind) for kind in ("all-fct", "mixed")]
            iv, rc = _timed(lambda: _cli([
                "compare", "--instance", self.instance_path, "--config", self.config_path,
                "--seed", str(seed), "--out-dir", out_dir]))
            csv_problems = _csv_problems(out_dir) if rc == 0 else [f"compare returned {rc!r}"]
            for s in found:
                s.problems += csv_problems
                if rc == 0:
                    base = os.path.join(out_dir, s.kind)
                    _read_outputs(s, base + ".solution.json", base + ".report.json")
            units.append((iv, found))
        return units


def micro_instance(seed: int):
    """Euclidean micro instance with 3-7 requests and mixed price levels.

    A frozen copy of the recipe of tests/helpers.micro_instance ("small" mu
    mode), so that the workload does not drift when the test helpers change.
    """
    rng = random.Random(seed)
    n_req = rng.randint(3, 7)
    pts = [(rng.uniform(0, 300), rng.uniform(0, 300)) for _ in range(2 * n_req)]
    n = len(pts)
    dist = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j:
                d = math.hypot(pts[i][0] - pts[j][0], pts[i][1] - pts[j][1])
                dist[i][j] = 10 * int(math.floor(d + 0.5))
    matrix = model.TravelMatrix.from_distances(dist, 70)
    cost = model.CostModel()
    days = rng.randint(5, 10)
    requests = []
    for rid in range(1, n_req + 1):
        o, d = 2 * rid - 2, 2 * rid - 1
        day = rng.randint(0, 2)
        pw = model.TimeWindow(day * 1440 + 360, day * 1440 + 1080)
        dws = tuple(model.TimeWindow(dd * 1440 + 360, dd * 1440 + 1080) for dd in range(day, days))
        level = rng.choice((0.8, 1.0, 1.3, 1.8))
        price = max(1, int(cost.sm_price(dist[o][d]) * level))
        requests.append(model.Request(rid, o, d, pw, dws, price))
    mu = rng.choice((0, min(dist[r.origin][r.destination] for r in requests) // 2))
    instance = model.Instance(
        tuple(requests), matrix, cost, model.RegParams(), mu, model.Horizon(0, days)
    )
    instance.check()
    return instance


class MicroSweep(Workload):
    name = "micro-sweep"

    def __init__(self, work: str, seed: int):
        super().__init__(work, seed)
        # stratified by request count, so that every seed gets the same mix of
        # instance sizes and the work per run hardly depends on the seed
        rng = random.Random(seed)
        per_size = MICRO_INSTANCES // len(MICRO_SIZES)
        taken = dict.fromkeys(MICRO_SIZES, 0)
        self.seeds = []
        while len(self.seeds) < per_size * len(MICRO_SIZES):
            s = rng.randrange(1 << 31)
            n_req = random.Random(s).randint(3, 7)  # the recipe's first draw
            if taken[n_req] < per_size:
                taken[n_req] += 1
                self.seeds.append(s)
        self.instances = []

    def setup(self) -> None:
        self.instances = [micro_instance(s) for s in self.seeds]

    def run_pass(self):
        units = []
        for inst, seed in zip(self.instances, self.seeds):
            s = Search(f"mixed micro instance {seed}", "mixed")
            cfg = engine.AlnsConfig(max_iterations=MICRO_ITERATIONS, seed=seed)
            iv, out = _timed(lambda: scenarios.scenario_mixed(inst, cfg))
            if isinstance(out, Exception):
                s.problems.append(f"raised {out!r}")
            else:
                _result, best, report = out
                s.iterations, s.best_cents, s.solution = report.iterations, report.best_cents, best
            units.append((iv, [s]))
        return units

    def check(self, searches: list[Search]) -> None:
        for inst, s in zip(self.instances, searches):
            check_search(s, inst, oracle.build_arc_graph(inst))
            if s.best_cents is None:
                continue
            optimum = oracle.brute_force(inst).cost_total
            if s.best_cents < optimum:
                s.problems.append(f"cost {s.best_cents} below the optimum {optimum}")
            elif s.best_cents > optimum * (1 + MICRO_TOLERANCE):
                s.problems.append(f"cost {s.best_cents} more than 2% above the optimum {optimum}")


WORKLOADS = {w.name: w for w in (FctC1, CompareMix, MicroSweep)}


# ---------------------------------------------------------------------------
# measurement


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _same_results(first: list[Search], again: list[Search]) -> None:
    """A repeated pass must reproduce the checked one exactly."""
    for a, b in zip(first, again):
        if b.best_cents != a.best_cents or b.iterations != a.iterations:
            b.problems.append(f"not reproducible: {b.best_cents} != {a.best_cents}")
        elif a.problems and not b.problems:
            b.problems = list(a.problems)  # same result, same verdict


def _cost_eur(searches: list[Search]) -> float:
    return sum(s.best_cents or 0 for s in searches) / 100.0


def _iterations(searches: list[Search]) -> int:
    return sum(s.iterations for s in searches)


def _searches(units) -> list[Search]:
    return [s for _iv, found in units for s in found]


def measure(wl: Workload, seconds: float):
    setups: list[Interval] = []
    # one list of intervals per timed call; the median of each resists bursts
    # of machine noise that a median of whole passes would let through
    calls: list[list[Interval]] = []
    passes: list[list[Search]] = []
    with probe:
        start = last = clock()
        # stop before a pass that would end past `seconds`, once MIN_PASSES ran
        while len(passes) < MIN_PASSES or 2 * clock() - last - start <= seconds:
            last = clock()
            # set-ups are spread over the run like the passes, for the same
            # reason, and each starts from a collected heap, as in a fresh process
            for _ in range(SETUP_REPEATS):
                gc.collect()
                setups.append(probe.time(wl.setup)[0])
            units = wl.run_pass()
            calls = calls or [[] for _ in units]
            for per_call, (iv, _found) in zip(calls, units):
                per_call.append(iv)
            passes.append(_searches(units))
    # read before the checks, so that it covers only the set-ups and timed calls
    peak_rss_mb = _peak_rss_mb()
    first = passes[0]
    wl.check(first)
    for again in passes[1:]:
        _same_results(first, again)
    wall_s = sum(statistics.median(map(probe.rescale, per_call)) for per_call in calls)
    metrics = {
        "setup_s": (statistics.median(map(probe.rescale, setups)), "s"),
        "wall_s": (wall_s, "s"),
        "iters_per_s": (_iterations(first) / wall_s, "1/s"),
        "best_cost_eur": (_cost_eur(first), "EUR"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    raw_wall_s = sum(statistics.median(iv.seconds for iv in per_call) for per_call in calls)
    speeds = [took for _start, took in probe.samples]
    notes = [f"{len(setups)} set-ups; {len(passes)} passes of {len(calls)} timed calls "
             f"({len(first)} searches); wall_s sums the per-call medians",
             f"raw wall_s {raw_wall_s:.3f} s, raw setup_s "
             f"{statistics.median(iv.seconds for iv in setups):.4f} s; {len(speeds)} speed "
             f"samples, ms min/median/max {1e3 * min(speeds):.3f}/"
             f"{1e3 * statistics.median(speeds):.3f}/{1e3 * max(speeds):.3f} "
             f"(nominal {1e3 * REF_NOMINAL_S:.3f})"]
    return metrics, [s for found in passes for s in found], notes


def measure_traced(wl: Workload):
    from tracer import Tracer, patched

    wl.setup()
    plain = wl.run_pass()
    tracer = Tracer()
    with patched(tracer):
        wl.setup()
        setup = tracer.cut()
        units = wl.run_pass()
        timed = tracer.cut()
        searches = _searches(units)
        wl.check(searches)
        checks = tracer.cut()
    wall_plain, wall = (sum(iv.seconds for iv, _ in u) for u in (plain, units))
    plain = _searches(plain)
    _same_results(searches, plain)
    if _cost_eur(plain) != _cost_eur(searches):
        searches[0].problems.append("traced best_cost_eur differs from the untraced run")
    metrics = layer_metrics(setup, timed, checks, _iterations(searches))
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.untraced_wall_s"] = (wall_plain, "s")
    metrics["trace.overhead_s"] = (wall - wall_plain, "s")
    spans = {"setup": setup.spans, "timed": timed.spans, "checks": checks.spans}
    notes = [f"traced best_cost_eur {_cost_eur(searches):.2f}, untraced {_cost_eur(plain):.2f}"]
    return metrics, plain + searches, notes, spans


REMOVAL_OPS = ("rrr", "srr", "shaw", "shaw_tw", "tsr", "rsr")


def layer_metrics(setup, timed, checks, iterations: int) -> dict:
    m = {}

    def put(name, value, unit):
        m[name] = (value, unit)

    for op in ("parse_gh", "transform", "write_instance"):
        put(f"instances.{op}_s", setup.agg(f"instances.{op}").total, "s")
    put("instances.read_instance_s", timed.agg("instances.read_instance").total, "s")

    bi = timed.agg("schedule.best_insertion")
    put("schedule.best_insertion.calls", bi.calls, "count")
    put("schedule.best_insertion.self_s", bi.self_time, "s")
    put("schedule.best_insertion.us_p50", 1e6 * bi.quantile(0.5), "us")
    put("schedule.best_insertion.us_p99", 1e6 * bi.quantile(0.99), "us")
    put("schedule.best_insertion.none_ratio", bi.falsy / bi.calls if bi.calls else 0.0, "ratio")
    for name in ("splice_trip", "build_trip"):
        a = timed.agg(f"schedule.{name}")
        put(f"schedule.{name}.calls", a.calls, "count")
        put(f"schedule.{name}.self_s", a.self_time, "s")
    # simulate_trip only runs when a solution is validated
    a = checks.agg("schedule.simulate_trip")
    put("schedule.simulate_trip.calls", a.calls, "count")
    put("schedule.simulate_trip.self_s", a.self_time, "s")
    put("schedule.simulator_init_s", timed.agg("schedule.simulator_init").total, "s")

    rp = timed.agg("operators.repair")
    put("operators.repair.calls", rp.calls, "count")
    put("operators.repair.self_s", rp.self_time, "s")
    put("operators.repair.ms_p50", 1e3 * rp.quantile(0.5), "ms")
    put("operators.repair.ms_p99", 1e3 * rp.quantile(0.99), "ms")
    cell = timed.agg("operators.cell")
    put("operators.cell.calls", cell.calls, "count")
    misses = bi.parents["operators.cell"]
    put("operators.cell.hit_ratio", 1 - misses / cell.calls if cell.calls else 0.0, "ratio")
    bg = timed.agg("operators.best_greedy")
    put("operators.best_greedy.calls", bg.calls, "count")
    put("operators.best_greedy.self_s", bg.self_time, "s")
    put("operators.build_initial_s", timed.agg("operators.build_initial").total, "s")
    for op in REMOVAL_OPS:
        a = timed.agg(f"operators.remove.{op}")
        put(f"operators.remove.{op}.calls", a.calls, "count")
        put(f"operators.remove.{op}.self_s", a.self_time, "s")

    put("model.request.calls", timed.counts["model.request"], "count")
    put("model.validate_solution_s", checks.agg("model.validate_solution").total, "s")
    put("model.solution_cost_s", checks.agg("model.solution_cost").total, "s")

    run = timed.agg("engine.run")
    put("engine.run.calls", run.calls, "count")
    put("engine.run.self_s", run.self_time, "s")
    repairs_in_loop = rp.parents["engine.run"]
    put("engine.repair_memo.hit_ratio", 1 - repairs_in_loop / iterations if iterations else 0.0,
        "ratio")
    acc = timed.agg("engine.accept")
    put("engine.accept.calls", acc.calls, "count")
    put("engine.accept.ratio", 1 - acc.falsy / acc.calls if acc.calls else 0.0, "ratio")

    put("scenarios.compare.self_s", timed.agg("scenarios.compare").self_time, "s")
    put("scenarios.all_fct_s", timed.agg("scenarios.all_fct").total, "s")
    put("scenarios.mixed_s", timed.agg("scenarios.mixed").total, "s")
    put("cli.main.self_s", timed.agg("cli.main").self_time, "s")

    put("oracle.brute_force_s", checks.agg("oracle.brute_force").total, "s")
    put("oracle.build_arc_graph_s", checks.agg("oracle.build_arc_graph").total, "s")
    put("oracle.check_lp_assignment_s", checks.agg("oracle.check_lp_assignment").total, "s")
    return m


# ---------------------------------------------------------------------------
# entry point


def _git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, "r", encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), "r", encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "commit": _git_commit(),
        "FTL_THREADS": os.environ.get("FTL_THREADS", "unset"),
        "threads": threading.active_count(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    global cli, engine, instances, model, oracle, scenarios
    cli, engine, instances, model, oracle, scenarios = load_package()
    for name in ("gh_syn_c1.txt", "gh_syn_mix.txt"):
        if not os.path.isfile(os.path.join(DATA, name)):
            sys.exit(f"perfbench: missing input {os.path.join(DATA, name)}")

    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        wl = WORKLOADS[args.workload](work, args.seed)
        if args.trace:
            metrics, searches, notes, spans = measure_traced(wl)
        else:
            metrics, searches, notes = measure(wl, args.seconds)
            spans = None
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment()
    failed = [s for s in searches if s.problems]
    print(f"perfbench {args.workload} seed {args.seed} trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for line in notes:
        print("  " + line)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>16.6f} {unit}")
    print(f"  {'fail_ratio':<40} {len(failed) / len(searches):>16.6f} ({len(failed)}/{len(searches)} searches)")
    for s in failed[:10]:
        print(f"  FAILED {s.label}: {'; '.join(s.problems[:3])}")
    if spans is not None:
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"spans-{args.workload}-{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"env": env, "spans": spans}, fh)
        print(f"  coarse spans -> {os.path.relpath(path, ROOT)}")
    result = {
        "correct": not failed,
        "attempted": len(searches),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
