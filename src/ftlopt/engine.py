"""Adaptive large-neighborhood search over destroy/repair operators.

Each iteration draws one removal and one insertion operator by roulette on
adaptive weights, partially destroys the current solution, repairs it, and
accepts the candidate under simulated annealing.  Weights are refreshed
every segment from the scores the operators earned, and the two roulette
wheels are rebuilt from them then and only then.

The operator scores, the reaction factor and the annealing are fixed at the
values of Ropke & Pisinger (2006), and the removal count's caps in
`operators` at the production parameter table's; the run configuration
holds only the run's controls.
"""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Optional

from .model import (
    Instance,
    SchemaError,
    Solution,
    _finite,
    _list,
    _members,
    _shown,
    _str,
    _whole,
    fmt_money,
    read_json,
    write_text,
)
from .operators import (
    REMOVAL_OPERATORS,
    InsertionEvaluator,
    Wheel,
    build_initial,
    insertion_k,
    removal_count,
    repair,
)
from .schedule import Simulator


class ConfigError(ValueError):
    pass


DEFAULT_REMOVAL_OPS = ("rrr", "srr", "shaw", "shaw_tw", "tsr", "rsr")
DEFAULT_INSERTION_OPS = ("greedy", "regret4", "regret5", "regret6")

# The bound on max_iterations.  The cooling factor is
# SA_END_FRACTION ** (1 / max_iterations), so max_iterations must stay a
# float-sized count; 10^9 iterations already take days.
MAX_ITERATIONS = 10**9
# Operator scores for a new best, an improvement of the current solution and
# an accepted worsening, and the reaction factor of the weight update, as in
# Ropke & Pisinger (2006).
SIGMA_BEST = 33
SIGMA_IMPROVE = 9
SIGMA_ACCEPT = 13
RHO = 0.1
# A worsening of SA_START_GAP times the initial cost is accepted at the start
# with probability START_ACCEPTANCE; the last temperature of a run is
# SA_END_FRACTION times the first, as in Ropke & Pisinger (2006).
SA_START_GAP = 0.05
START_ACCEPTANCE = 0.5
SA_END_FRACTION = 0.002


@dataclass(frozen=True)
class AlnsConfig:
    max_iterations: int = 25_000
    segment_length: int = 200
    seed: int = 0
    removal_ops: tuple[str, ...] = DEFAULT_REMOVAL_OPS
    insertion_ops: tuple[str, ...] = DEFAULT_INSERTION_OPS
    max_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        self.check()

    def check(self) -> None:
        """Raise ConfigError at the pointer of the first value out of bounds."""
        rules = (
            ("max_iterations", 0 <= self.max_iterations <= MAX_ITERATIONS,
             f"must be 0..{MAX_ITERATIONS}"),
            ("segment_length", self.segment_length > 0, "must be positive"),
            # random.Random(-n) is random.Random(n)
            ("seed", self.seed >= 0, "must be non-negative"),
            ("max_seconds", self.max_seconds is None or self.max_seconds >= 0,
             "must be non-negative or null"),
            ("removal_ops", len(self.removal_ops) > 0, "needs at least one operator"),
            ("insertion_ops", len(self.insertion_ops) > 0, "needs at least one operator"),
        )
        for key, ok, rule in rules:
            if not ok:
                raise ConfigError(f"/{key}: {rule}")
        for name in self.removal_ops:
            if name not in REMOVAL_OPERATORS:
                raise ConfigError(f"/removal_ops: unknown removal operator {_shown(name)}")
        for name in self.insertion_ops:
            try:
                insertion_k(name)
            except ValueError:
                raise ConfigError(
                    f"/insertion_ops: unknown insertion operator {_shown(name)}"
                    " (greedy or regret<k>, k >= 2)"
                ) from None
        # a repeated name would get one roulette share per copy
        for key, names in (("removal_ops", self.removal_ops), ("insertion_ops", self.insertion_ops)):
            for i, name in enumerate(names):
                if name in names[:i]:
                    raise ConfigError(f"/{key}: repeated operator {_shown(name)}")


# the converter of each config field, by the type of its default value
_CONVERTERS = {
    int: _whole,
    tuple: lambda x: tuple(map(_str, _list(x))),  # the operator lists
    type(None): lambda x: x if x is None else _finite(x),  # max_seconds
}
_FIELDS = {f.name: _CONVERTERS[type(f.default)] for f in fields(AlnsConfig)}


def load_config(path: str) -> AlnsConfig:
    try:
        doc = read_json(path)
    except SchemaError as exc:
        raise ConfigError(str(exc)) from None
    return config_from_dict(doc)


def config_from_dict(doc: dict) -> AlnsConfig:
    """A checked config from a JSON object; the object itself is not changed.
    Every field is optional and takes its default when absent."""
    try:
        values = _members(doc, "", _FIELDS, optional=_FIELDS)
    except SchemaError as exc:
        raise ConfigError(str(exc)) from None
    return AlnsConfig(**values)


def temperature_schedule(config: AlnsConfig, initial_cost: int) -> tuple[float, float]:
    """(T0, cooling factor): start so that a worsening of SA_START_GAP times
    the initial cost is accepted with probability START_ACCEPTANCE; cool
    geometrically to SA_END_FRACTION times T0 over max_iterations."""
    base = max(initial_cost, 1)
    t0 = (SA_START_GAP * base) / -math.log(START_ACCEPTANCE)
    m = max(config.max_iterations, 1)
    cooling = SA_END_FRACTION ** (1.0 / m)
    return t0, cooling


def accept(current_cost: int, candidate_cost: int, temperature: float, rng: random.Random) -> bool:
    """Always take improvements; take worsenings with exp(-gap/T)."""
    if candidate_cost < current_cost:
        return True
    gap = candidate_cost - current_cost
    return rng.random() < math.exp(-gap / temperature)


@dataclass
class OperatorStats:
    name: str
    weight: float = 1.0
    segment_score: int = 0
    segment_uses: int = 0
    uses: int = 0
    best_count: int = 0

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "weight": round(self.weight, 6),
            "uses": self.uses,
            "best_count": self.best_count,
        }


@dataclass(frozen=True)
class TraceRow:
    iteration: int
    current_cents: int
    best_cents: int
    temperature: float


@dataclass(frozen=True)
class RunReport:
    """What a run did, built once when it ends.  `iterations` is the last
    iteration run; `stopped_early` means the time limit left iterations."""

    iterations: int
    initial_cents: int
    best_cents: int
    trace: tuple[TraceRow, ...]
    removal_stats: tuple[OperatorStats, ...]
    insertion_stats: tuple[OperatorStats, ...]
    wall_s: float
    stopped_early: bool

    def to_dict(self) -> dict:
        return {
            "iterations": self.iterations,
            "initial_cents": self.initial_cents,
            "best_cents": self.best_cents,
            "wall_s": round(self.wall_s, 3),
            "stopped_early": self.stopped_early,
            "removal_operators": [s.as_dict() for s in self.removal_stats],
            "insertion_operators": [s.as_dict() for s in self.insertion_stats],
            "trace": [
                [r.iteration, r.current_cents, r.best_cents, round(r.temperature, 6)]
                for r in self.trace
            ],
        }


_requests = attrgetter("requests")


def run(instance: Instance, config: AlnsConfig = AlnsConfig()) -> tuple[Solution, RunReport]:
    """Search until max_iterations or max_seconds and return the best
    solution found with the run's report, built after the last iteration.
    The run's clock starts on entry, so `wall_s` and `max_seconds` cover
    the simulator's set-up as well as the search."""
    start = time.perf_counter()
    rng = random.Random(config.seed)
    ev = InsertionEvaluator(Simulator(instance))
    ks = [insertion_k(name) for name in config.insertion_ops]

    removal_stats = [OperatorStats(name) for name in config.removal_ops]
    insertion_stats = [OperatorStats(name) for name in config.insertion_ops]
    removal_wheel = Wheel([s.weight for s in removal_stats])
    insertion_wheel = Wheel([s.weight for s in insertion_stats])

    current = build_initial(ev)
    best = current
    t0, cooling = temperature_schedule(config, current.cost_total)
    temperature = t0
    # the loop's constants, read once
    removal_ops, segment_length, max_seconds = (
        config.removal_ops, config.segment_length, config.max_seconds)
    sigma_best, sigma_improve, sigma_accept, rho = SIGMA_BEST, SIGMA_IMPROVE, SIGMA_ACCEPT, RHO
    # the removal count, read once per accepted solution; a search's
    # solutions partition the requests, so the planned ones are those not
    # banked
    n_requests = len(instance.requests)
    q = removal_count(n_requests - len(current.bank))

    trace = [TraceRow(0, current.cost_total, best.cost_total, temperature)]

    it = 0
    for it in range(1, config.max_iterations + 1):
        ri = removal_wheel.spin(rng)
        ii = insertion_wheel.spin(rng)
        trips, removed = REMOVAL_OPERATORS[removal_ops[ri]](ev.sim, current, q, rng)
        # repair is a pure function of this key; revisited states are free
        unassigned = current.bank.union(removed)
        memo_key = (tuple(map(_requests, trips)), unassigned, ks[ii])
        candidate = ev.repairs.get(memo_key)
        if candidate is None:
            candidate = ev.repairs[memo_key] = repair(ev, trips, unassigned, ks[ii])
        cost = candidate.cost_total
        ok = accept(current.cost_total, cost, temperature, rng)
        score = 0
        used = (removal_stats[ri], insertion_stats[ii])
        if cost < best.cost_total:
            score = sigma_best
            for s in used:
                s.best_count += 1
            best = candidate
        elif cost < current.cost_total:
            score = sigma_improve
        elif ok:
            score = sigma_accept
        for s in used:
            s.segment_score += score
            s.segment_uses += 1
            s.uses += 1
        if ok:
            current = candidate
            q = removal_count(n_requests - len(current.bank))
        temperature *= cooling

        if it % segment_length == 0:
            for stats in (removal_stats, insertion_stats):
                for s in stats:
                    if s.segment_uses:
                        s.weight = (1 - rho) * s.weight + rho * (
                            s.segment_score / s.segment_uses
                        )
                    s.segment_score = 0
                    s.segment_uses = 0
            removal_wheel = Wheel([s.weight for s in removal_stats])
            insertion_wheel = Wheel([s.weight for s in insertion_stats])
            trace.append(TraceRow(it, current.cost_total, best.cost_total, temperature))
        if max_seconds is not None and time.perf_counter() - start > max_seconds:
            break

    if trace[-1].iteration != it:  # no segment end wrote it
        trace.append(TraceRow(it, current.cost_total, best.cost_total, temperature))
    return best, RunReport(
        iterations=it,
        initial_cents=trace[0].current_cents,
        best_cents=best.cost_total,
        trace=tuple(trace),
        removal_stats=tuple(removal_stats),
        insertion_stats=tuple(insertion_stats),
        wall_s=time.perf_counter() - start,
        stopped_early=it < config.max_iterations,
    )


def write_report(report: RunReport, stem: str) -> None:
    """Write `<stem>.report.json` and the trace as `<stem>.trace.csv`."""
    write_text(f"{stem}.report.json", json.dumps(report.to_dict(), indent=2))
    rows = (
        f"{row.iteration},{fmt_money(row.current_cents)},"
        f"{fmt_money(row.best_cents)},{row.temperature:.6f}"
        for row in report.trace
    )
    write_text(f"{stem}.trace.csv", "\n".join(("iteration,current_cost,best_cost,temperature", *rows)))
