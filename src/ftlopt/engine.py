"""Adaptive large-neighborhood search over destroy/repair operators.

Each iteration draws one removal and one insertion operator by roulette on
adaptive weights, partially destroys the current solution, repairs it, and
accepts the candidate under simulated annealing.  Weights are refreshed
every segment from the scores the operators earned.
"""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .model import Instance, Solution, read_text, validate_solution, write_text
from .operators import (
    REMOVAL_OPERATORS,
    InsertionEvaluator,
    build_initial,
    insertion_k,
    removal_count,
    repair,
    roulette,
)
from .schedule import Simulator


class ConfigError(ValueError):
    pass


DEFAULT_REMOVAL_OPS = ("rrr", "srr", "shaw", "shaw_tw", "tsr", "rsr")
DEFAULT_INSERTION_OPS = ("greedy", "regret4", "regret5", "regret6")

# Cached insertion cells, the largest cache, above which run() drops every
# cache at the next segment end; caches are pure, so results do not change.
MAX_CACHED_CELLS = 400_000


@dataclass(frozen=True)
class AlnsConfig:
    max_iterations: int = 25_000
    segment_length: int = 200
    psi: int = 100           # absolute removal cap
    xi: float = 0.35         # relative removal cap
    sigma_best: int = 33
    sigma_improve: int = 9
    sigma_accept: int = 13
    rho: float = 0.1
    sa_start_gap: float = 0.05
    sa_start_acceptance: float = 0.5
    sa_end_fraction: float = 0.002
    seed: int = 0
    removal_ops: tuple[str, ...] = DEFAULT_REMOVAL_OPS
    insertion_ops: tuple[str, ...] = DEFAULT_INSERTION_OPS
    shaw_p: int = 6
    max_seconds: Optional[float] = None
    strict_validation: bool = False

    def check(self) -> None:
        if self.max_iterations < 0:
            raise ConfigError("max_iterations must be >= 0")
        if self.segment_length <= 0:
            raise ConfigError("segment_length must be positive")
        if not 0 < self.xi <= 1:
            raise ConfigError("xi must be in (0, 1]")
        if self.psi <= 0:
            raise ConfigError("psi must be positive")
        if not 0 < self.rho <= 1:
            raise ConfigError("rho must be in (0, 1]")
        if min(self.sigma_best, self.sigma_improve, self.sigma_accept) < 0:
            raise ConfigError("scores must be non-negative")
        if not 0 < self.sa_start_acceptance < 1:
            raise ConfigError("sa_start_acceptance must be in (0, 1)")
        if not 0 < self.sa_end_fraction <= 1:
            raise ConfigError("sa_end_fraction must be in (0, 1]")
        if self.sa_start_gap <= 0:
            raise ConfigError("sa_start_gap must be positive")
        for name in self.removal_ops:
            if name not in REMOVAL_OPERATORS:
                raise ConfigError(f"unknown removal operator {name!r}")
        for name in self.insertion_ops:
            try:
                insertion_k(name)
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
        if not self.removal_ops or not self.insertion_ops:
            raise ConfigError("need at least one operator per class")


# config field -> its annotation, which names the JSON type the field takes
_CONFIG_FIELDS = {f.name: f.type for f in AlnsConfig.__dataclass_fields__.values()}


def _number(value) -> bool:
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


_JSON_TYPES = {
    "int": ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    "float": ("a finite number", _number),
    "Optional[float]": ("a finite number or null", lambda v: v is None or _number(v)),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "tuple[str, ...]": (
        "a list of strings",
        lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v),
    ),
}


def load_config(path: str) -> AlnsConfig:
    return config_from_dict(json.loads(read_text(path)))


def config_from_dict(doc: dict) -> AlnsConfig:
    """A checked config from a JSON object; the object itself is not changed."""
    if not isinstance(doc, dict):
        raise ConfigError("a run configuration must be a JSON object")
    unknown = set(doc) - set(_CONFIG_FIELDS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    values = {}
    for key, value in doc.items():
        what, fits = _JSON_TYPES[_CONFIG_FIELDS[key]]
        if not fits(value):
            raise ConfigError(f"{key} must be {what}, not {value!r}")
        values[key] = tuple(value) if isinstance(value, list) else value
    cfg = AlnsConfig(**values)
    cfg.check()
    return cfg


def temperature_schedule(config: AlnsConfig, initial_cost: int) -> tuple[float, float]:
    """(T0, cooling factor): start so a start-gap-sized worsening is accepted
    with the configured probability; cool geometrically to the end fraction."""
    base = max(initial_cost, 1)
    t0 = (config.sa_start_gap * base) / -math.log(config.sa_start_acceptance)
    m = max(config.max_iterations, 1)
    cooling = config.sa_end_fraction ** (1.0 / m)
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


@dataclass
class RunReport:
    iterations: int
    initial_cents: int
    best_cents: int
    trace: list[TraceRow] = field(default_factory=list)
    removal_stats: list[OperatorStats] = field(default_factory=list)
    insertion_stats: list[OperatorStats] = field(default_factory=list)
    wall_s: float = 0.0
    stopped_early: bool = False

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


def run(instance: Instance, config: AlnsConfig = AlnsConfig()) -> tuple[Solution, RunReport]:
    """Execute the full search and return the best solution found."""
    config.check()
    instance.check()
    rng = random.Random(config.seed)
    sim = Simulator(instance)
    ev = InsertionEvaluator(sim)

    removal_stats = [OperatorStats(name) for name in config.removal_ops]
    insertion_stats = [OperatorStats(name) for name in config.insertion_ops]

    start = time.perf_counter()
    current = build_initial(instance, sim)
    best = current
    t0, cooling = temperature_schedule(config, current.cost_total)
    temperature = t0
    xi = Fraction(str(config.xi))

    report = RunReport(config.max_iterations, current.cost_total, current.cost_total)
    report.trace.append(TraceRow(0, current.cost_total, best.cost_total, temperature))
    stopped_early = False

    repair_memo: dict = {}
    for it in range(1, config.max_iterations + 1):
        ri = roulette([s.weight for s in removal_stats], rng)
        ii = roulette([s.weight for s in insertion_stats], rng)
        q = removal_count(config.psi, xi, current.planned_count)
        name = config.removal_ops[ri]
        if name in ("shaw", "shaw_tw"):
            trips, removed = REMOVAL_OPERATORS[name](sim, current, q, rng, p=config.shaw_p)
        else:
            trips, removed = REMOVAL_OPERATORS[name](sim, current, q, rng)
        # repair is a pure function of this key; revisited states are free
        memo_key = (
            tuple(t.requests for t in trips),
            tuple(sorted(removed)),
            current.bank,
            config.insertion_ops[ii],
        )
        candidate = repair_memo.get(memo_key)
        if candidate is None:
            candidate = repair(
                sim, trips, current.bank, removed, mode=config.insertion_ops[ii], evaluator=ev
            )
            repair_memo[memo_key] = candidate
        ok = accept(current.cost_total, candidate.cost_total, temperature, rng)
        score = 0
        if candidate.cost_total < best.cost_total:
            score = config.sigma_best
            removal_stats[ri].best_count += 1
            insertion_stats[ii].best_count += 1
        elif candidate.cost_total < current.cost_total:
            score = config.sigma_improve
        elif ok:
            score = config.sigma_accept
        for stats, idx in ((removal_stats, ri), (insertion_stats, ii)):
            stats[idx].segment_score += score
            stats[idx].segment_uses += 1
            stats[idx].uses += 1
        if ok:
            if config.strict_validation:
                problems = validate_solution(instance, candidate)
                if problems:
                    raise RuntimeError(f"accepted infeasible solution: {problems[:3]}")
            current = candidate
        if candidate.cost_total < best.cost_total:
            best = candidate
        temperature *= cooling

        if it % config.segment_length == 0:
            for stats in (removal_stats, insertion_stats):
                for s in stats:
                    if s.segment_uses:
                        s.weight = (1 - config.rho) * s.weight + config.rho * (
                            s.segment_score / s.segment_uses
                        )
                    s.segment_score = 0
                    s.segment_uses = 0
            report.trace.append(TraceRow(it, current.cost_total, best.cost_total, temperature))
            if sum(map(len, ev.cells.values())) > MAX_CACHED_CELLS:
                ev.clear()
                repair_memo.clear()
        if config.max_seconds is not None and time.perf_counter() - start > config.max_seconds:
            stopped_early = True
            report.iterations = it
            break

    if report.trace[-1].iteration != report.iterations:  # no segment end wrote it
        report.trace.append(
            TraceRow(report.iterations, current.cost_total, best.cost_total, temperature)
        )
    report.best_cents = best.cost_total
    report.removal_stats = removal_stats
    report.insertion_stats = insertion_stats
    report.wall_s = time.perf_counter() - start
    report.stopped_early = stopped_early
    return best, report


def write_report(report: RunReport, json_path: str, trace_csv_path: str) -> None:
    write_text(json_path, json.dumps(report.to_dict(), indent=2))
    rows = (
        f"{row.iteration},{row.current_cents / 100:.2f},"
        f"{row.best_cents / 100:.2f},{row.temperature:.6f}"
        for row in report.trace
    )
    write_text(trace_csv_path, "\n".join(("iteration,current_cost,best_cost,temperature", *rows)))
