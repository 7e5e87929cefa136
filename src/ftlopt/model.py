"""Domain types and cost accounting shared by every other module.

Units are exact integers throughout so that totals are bit-reproducible:
time is minutes from the horizon origin (Monday 00:00 of the planning week),
distance is tenths of a kilometre (``d10``), money is euro cents.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from operator import floordiv, mul, neg
from typing import Callable, Iterable, Optional

MINUTES_PER_DAY = 1440
SUNDAY = 6  # weekday index, Monday = 0
# about ten years; longer horizons would compile a fit span per week of
# every window (at most 523 here) before any search starts
MAX_HORIZON_DAYS = 3660


# ---------------------------------------------------------------------------
# unit helpers


def cents(x) -> int:
    """Euro amount (float/str/int) to integer cents."""
    return int(round(float(x) * 100))


def d10_from_km(x) -> int:
    """Kilometres to integer tenth-km."""
    return int(round(float(x) * 10))


def fmt_money(c: int) -> str:
    """Cents to a '1234.56' string, exactly."""
    sign = "-" if c < 0 else ""
    c = abs(c)
    return f"{sign}{c // 100}.{c % 100:02d}"


def fmt_km(d10: int) -> str:
    """Tenth-km to a '123.4' string, exactly."""
    sign = "-" if d10 < 0 else ""
    d10 = abs(d10)
    return f"{sign}{d10 // 10}.{d10 % 10}"


def _minutes_at(nu_kmh: float) -> Callable[[Iterable[int]], list[int]]:
    """The travel times of d10 distances at this speed, each rounded up to
    whole minutes, as a function of a row of distances.

    The speed counts at its decimal value (32.3 km/h is exactly 323/10, not
    the nearest binary float), so one integer ceiling is exact: the time is
    ceil(d10 * num / den) = -((d10 * -num) // den).
    """
    nu = Fraction(repr(float(nu_kmh)))
    num, den = 6 * nu.denominator, nu.numerator
    return lambda row: list(map(neg, map(floordiv, map(mul, row, repeat(-num)), repeat(den))))


def travel_minutes(d10: int, nu_kmh: float) -> int:
    """Travel time for a distance, rounded up to whole minutes."""
    return _minutes_at(nu_kmh)((d10,))[0]


# ---------------------------------------------------------------------------
# file helpers: every file the package reads or writes goes through these


def read_text(path: str) -> str:
    """The text of a UTF-8 file."""
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def write_text(path: str, text: str) -> None:
    """Write text and one final newline as UTF-8 with LF line ends."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")


# ---------------------------------------------------------------------------
# JSON input: one reader, one member reader and one set of field converters
# for the instance and the run configuration


class SchemaError(ValueError):
    def __init__(self, pointer: str, message: str = ""):
        super().__init__(f"{pointer}: {message}" if message else pointer)
        self.pointer = pointer
        self.message = message

    def __reduce__(self):
        return type(self), (self.pointer, self.message)


def read_json(path: str):
    """The JSON document in a UTF-8 file; text that is not JSON raises
    SchemaError at "/"."""
    text = read_text(path)
    try:
        return json.loads(text)
    except ValueError as exc:  # also an integer past the 4,300-digit limit
        raise SchemaError("/", f"not valid JSON: {exc}") from None


def _cut(text: str) -> str:
    """text, cut short when long (a JSON integer may have 4,300 digits)."""
    return text if len(text) <= 40 else f"{text[:24]}... ({len(text)} characters)"


def _shown(value) -> str:
    """repr(value), cut short when long."""
    return _cut(repr(value))


def _conv(value, pointer: str, conv):
    """conv(value); a value that conv rejects raises SchemaError at pointer,
    with the value and conv's reason."""
    try:
        return conv(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(pointer, f"invalid value {_shown(value)}: {exc}") from None


def _members(obj, where: str, convs: dict, optional=()) -> dict:
    """The members of the JSON object obj at pointer where, in the order of
    the table convs (member name to converter), each through its converter
    (None keeps the value); a member that optional names may be absent.

    Raises SchemaError, in this order, when obj is not an object, when it
    holds a member that convs does not name (a misspelt optional member
    would otherwise read as absent), when it lacks a member, and at the
    first value that its converter rejects.
    """
    if not isinstance(obj, dict):
        raise SchemaError(where or "/", "not an object")
    if not obj.keys() <= convs.keys():
        unknown = sorted(obj.keys() - convs.keys())
        more = f" (and {len(unknown) - 1} more)" if len(unknown) > 1 else ""
        key = _cut(unknown[0].replace("~", "~0").replace("/", "~1"))
        raise SchemaError(f"{where}/{key}", "unknown key" + more)
    if len(obj) < len(convs):
        for key in convs:
            if key not in obj and key not in optional:
                raise SchemaError(f"{where}/{key}", "missing")
    return {
        key: obj[key] if conv is None else _conv(obj[key], f"{where}/{key}", conv)
        for key, conv in convs.items()
        if key in obj
    }


# The converters below give a reason without the value, because _conv
# shows the value once, cut short.


def _list(x) -> list:
    if not isinstance(x, list):
        raise TypeError("not a list")
    return x


def _str(x) -> str:
    if not isinstance(x, str):
        raise TypeError("not a string")
    return x


def _number(x):
    """x, when it is a JSON number; a string or a boolean raises."""
    if type(x) is not int and type(x) is not float:
        raise TypeError("not a number")
    return x


def _whole(x) -> int:
    """int(x) of a JSON number, except that a fractional number raises
    instead of truncating."""
    if isinstance(_number(x), float) and not x.is_integer():
        raise ValueError("not a whole number")
    return int(x)


def _finite(x) -> float:
    v = float(_number(x))
    if not math.isfinite(v):
        raise ValueError("not finite")
    return v


# ---------------------------------------------------------------------------
# domain types


class _Checked:
    """Base of the domain types: each runs its own check() when built,
    through dataclasses.replace too, so an invalid part never exists."""

    def __post_init__(self) -> None:
        self.check()


@dataclass(frozen=True)
class RegParams(_Checked):
    """Simplified driving-time regulation parameters (defaults: production set)."""

    tau_n: int = 450   # max cumulative nonstop driving, minutes
    tau_b: int = 990   # min shift-break, minutes
    tau_s: int = 1320  # min Sunday-break, minutes
    sigma: int = 120   # per (un)loading operation, minutes
    nu: float = 70.0   # average speed, km/h

    def check(self) -> None:
        if not (self.tau_s >= self.tau_b > 0):
            raise ValueError("need tau_s >= tau_b > 0")
        if self.tau_n <= 0 or self.sigma < 0 or self.nu <= 0:
            raise ValueError("need tau_n > 0, sigma >= 0, nu > 0")
        # each week must leave time to drive and room for one whole operation
        week = 7 * MINUTES_PER_DAY
        if self.tau_s >= week or self.sigma > week - self.tau_s:
            raise ValueError("need tau_s < 10080 and sigma <= 10080 - tau_s")


#: (upper bound in d10 or None for the open tier, rate in cents/km)
SmTier = tuple[Optional[int], int]

#: production spot-market rate table: <150 km 1.75, <350 km 1.40, else 1.15 EUR/km
DEFAULT_SM_TIERS: tuple[SmTier, ...] = ((1500, 175), (3500, 140), (None, 115))

DEFAULT_KAPPA_CENTS = 106  # 1.06 EUR per driven km, loaded or empty


@dataclass(frozen=True)
class CostModel(_Checked):
    """Vehicle cost rate plus tiered spot-market rates.

    A distance exactly on a tier bound belongs to the upper tier.
    """

    kappa_cents: int = DEFAULT_KAPPA_CENTS
    sm_tiers: tuple[SmTier, ...] = DEFAULT_SM_TIERS

    def check(self) -> None:
        if self.kappa_cents <= 0:
            raise ValueError("kappa must be positive")
        if not self.sm_tiers:
            raise ValueError("need at least one spot-market tier")
        bounds = [b for b, _ in self.sm_tiers[:-1]]
        if self.sm_tiers[-1][0] is not None:
            raise ValueError("final tier must be open")
        if any(b is None for b in bounds) or bounds != sorted(set(bounds)):
            raise ValueError("tier bounds must be strictly increasing")
        if any(r <= 0 for _, r in self.sm_tiers):
            raise ValueError("tier rates must be positive")

    def sm_rate(self, direct_d10: int) -> int:
        """Rate in cents/km for a direct distance."""
        for bound, rate in self.sm_tiers:
            if bound is None or direct_d10 < bound:
                return rate
        raise AssertionError("tiers are total by construction")

    def sm_price(self, direct_d10: int) -> int:
        """Spot-market price in cents for outsourcing one request."""
        # rate[c/km] * d10[0.1 km] is in tenth-cents; round half up
        return (self.sm_rate(direct_d10) * direct_d10 + 5) // 10

    def vehicle_cost(self, total_d10: int) -> int:
        """Cost in cents of driving a total distance, rounded once."""
        return (self.kappa_cents * total_d10 + 5) // 10


@dataclass(frozen=True, order=True)
class TimeWindow(_Checked):
    start: int  # minutes from horizon origin
    end: int

    def check(self) -> None:
        if self.start < 0:
            raise ValueError(f"window start {_shown(self.start)} before the horizon origin")
        if self.start > self.end:
            raise ValueError(f"window start {_shown(self.start)} after end {_shown(self.end)}")


@dataclass(frozen=True)
class Request(_Checked):
    id: int
    origin: int
    destination: int
    pickup_window: TimeWindow
    delivery_windows: tuple[TimeWindow, ...]
    sm_price_cents: int  # resolved s_r

    def check(self) -> None:
        # ids name LP variables, where a minus sign would read as an operator
        if self.id < 0:
            raise ValueError(f"request {_shown(self.id)}: id must be non-negative")
        if self.origin == self.destination:
            raise ValueError(f"request {_shown(self.id)}: origin equals destination")
        if not self.delivery_windows:
            raise ValueError(f"request {_shown(self.id)}: no delivery windows")
        if self.sm_price_cents <= 0:
            raise ValueError(f"request {_shown(self.id)}: sm price must be positive")
        prev_end = None
        for w in self.delivery_windows:
            if prev_end is not None and w.start <= prev_end:
                raise ValueError(f"request {_shown(self.id)}: delivery windows overlap or unsorted")
            prev_end = w.end


@dataclass(frozen=True)
class TravelMatrix(_Checked):
    """Distances (d10) and times (minutes) per ordered location pair."""

    n_locations: int
    distance: tuple[tuple[int, ...], ...]
    time: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_distances(dist_d10: list[list[int]], nu_kmh: float) -> "TravelMatrix":
        time = tuple(map(tuple, map(_minutes_at(nu_kmh), dist_d10)))
        return TravelMatrix(len(dist_d10), tuple(tuple(row) for row in dist_d10), time)

    def check(self) -> None:
        for grid in (self.distance, self.time):
            if len(grid) != self.n_locations:
                raise ValueError("matrix row count mismatch")
            for i, row in enumerate(grid):
                if len(row) != self.n_locations:
                    raise ValueError("matrix column count mismatch")
                if row[i] != 0:
                    raise ValueError("matrix diagonal must be zero")
                if min(row) < 0:
                    raise ValueError("matrix entries must be non-negative")

    def max_distance(self) -> int:
        return max(max(row) for row in self.distance) if self.n_locations else 0


@dataclass(frozen=True)
class Horizon(_Checked):
    origin_weekday: int  # 0 = Monday ... 6 = Sunday
    days: int

    @property
    def end_minute(self) -> int:
        return self.days * MINUTES_PER_DAY

    def check(self) -> None:
        if not 0 <= self.origin_weekday <= 6:
            raise ValueError("origin_weekday must be 0..6")
        if not 0 < self.days <= MAX_HORIZON_DAYS:
            days = _shown(self.days)
            raise ValueError(f"horizon must cover 1..{MAX_HORIZON_DAYS} days, got {days}")


@dataclass(frozen=True)
class Instance(_Checked):
    requests: tuple[Request, ...]
    matrix: TravelMatrix
    cost: CostModel
    regs: RegParams
    mu_d10: int
    horizon: Horizon
    name: str = ""
    coords: Optional[tuple[tuple[float, float], ...]] = None  # per location, when known

    def check(self) -> None:
        """What ties the parts together, each of which checked itself when it
        was built.  A fault raises SchemaError at /mu or /requests/<i>."""
        if self.mu_d10 < 0:
            raise SchemaError("/mu", "mu must be non-negative")
        n_locations = self.matrix.n_locations
        end = self.horizon.end_minute
        by_id: dict[int, Request] = {}
        for i, r in enumerate(self.requests):
            if r.id in by_id:
                raise SchemaError(f"/requests/{i}", f"duplicate request id {_shown(r.id)}")
            by_id[r.id] = r
            for loc in (r.origin, r.destination):
                if not 0 <= loc < n_locations:
                    raise SchemaError(
                        f"/requests/{i}", f"request {_shown(r.id)}: unknown location {_shown(loc)}"
                    )
            # the delivery windows are sorted, so the last one ends last
            if max(r.pickup_window.end, r.delivery_windows[-1].end) > end:
                raise SchemaError(f"/requests/{i}", f"request {_shown(r.id)}: window beyond horizon")
        object.__setattr__(self, "_by_id", by_id)

    def request(self, rid: int) -> Request:
        return self._by_id[rid]

    def direct_d10(self, rid: int) -> int:
        r = self.request(rid)
        return self.matrix.distance[r.origin][r.destination]


@dataclass(frozen=True)
class Trip:
    """An ordered request sequence served by one vehicle.

    ``frontiers`` caches the per-node driver-state sets computed by the
    schedule module; a trip object is only ever built for a feasible sequence.
    Everything derived from a trip is a pure function of ``requests``, which
    is the key of every per-trip cache.
    """

    requests: tuple[int, ...]
    loaded_d10: int
    empty_d10: int
    frontiers: tuple = field(compare=False, repr=False, default=())

    @property
    def total_d10(self) -> int:
        return self.loaded_d10 + self.empty_d10


@dataclass(frozen=True)
class Solution:
    trips: tuple[Trip, ...]
    bank: frozenset[int]
    cost_vehicles: int
    cost_outsourced: int
    cost_total: int

    @property
    def planned_count(self) -> int:
        return sum(len(t.requests) for t in self.trips)

    def planned_ids(self) -> list[int]:
        return [rid for t in self.trips for rid in t.requests]


# ---------------------------------------------------------------------------
# whole-solution accounting


class PartitionViolation(ValueError):
    """The trips and bank of a solution do not partition the request set."""


@dataclass(frozen=True)
class CostBreakdown:
    vehicles: int
    outsourced: int

    @property
    def total(self) -> int:
        return self.vehicles + self.outsourced


def trip_distances(instance: Instance, requests: tuple[int, ...]) -> tuple[int, int]:
    """Recompute (loaded_d10, empty_d10) for a request sequence."""
    dist = instance.matrix.distance
    loaded = 0
    empty = 0
    prev_dest = None
    for rid in requests:
        r = instance.request(rid)
        if prev_dest is not None:
            empty += dist[prev_dest][r.origin]
        loaded += dist[r.origin][r.destination]
        prev_dest = r.destination
    return loaded, empty


def priced_solution(instance: Instance, trips: Iterable[Trip], bank: Iterable[int]) -> Solution:
    """The solution of these trips and banked requests, with its costs: the
    vehicle cost of the summed trip distances, rounded once, plus the banked
    requests' spot-market prices.  Every search result is built here."""
    trips = tuple(trips)
    bank = frozenset(bank)
    vehicles = instance.cost.vehicle_cost(sum(t.total_d10 for t in trips))
    outsourced = sum(instance.request(rid).sm_price_cents for rid in bank)
    return Solution(trips, bank, vehicles, outsourced, vehicles + outsourced)


def _check_partition(instance: Instance, solution: Solution) -> list[str]:
    problems = []
    counts: dict[int, int] = {}
    for rid in solution.planned_ids():
        counts[rid] = counts.get(rid, 0) + 1
    for rid in solution.bank:
        counts[rid] = counts.get(rid, 0) + 1
    for r in instance.requests:
        n = counts.pop(r.id, 0)
        if n == 0:
            problems.append(f"request {r.id} missing")
        elif n > 1:
            problems.append(f"request {r.id} appears {n} times")
    for rid in sorted(counts):
        problems.append(f"unknown request {rid}")
    return problems


def solution_cost(instance: Instance, solution: Solution) -> CostBreakdown:
    """Recompute the cost decomposition from scratch.

    Raises PartitionViolation when a request is missing or duplicated.
    """
    problems = _check_partition(instance, solution)
    if problems:
        raise PartitionViolation("; ".join(problems))
    total_d10 = 0
    for t in solution.trips:
        loaded, empty = trip_distances(instance, t.requests)
        total_d10 += loaded + empty
    vehicles = instance.cost.vehicle_cost(total_d10)
    outsourced = sum(instance.request(rid).sm_price_cents for rid in sorted(solution.bank))
    return CostBreakdown(vehicles, outsourced)


@dataclass(frozen=True)
class Violation:
    kind: str      # "partition" | "min_distance" | "schedule"
    detail: str
    trip_index: Optional[int] = None


def _sequence_fault(instance: Instance, requests: tuple[int, ...]) -> str:
    """Why a trip's request sequence cannot be scheduled at all, or ""."""
    if not requests:
        return "no request"
    for i, rid in enumerate(requests):
        if rid not in instance._by_id:
            return f"unknown request {rid}"
        if rid in requests[:i]:
            return f"request {rid} repeated"
    return ""


def validate_solution(instance: Instance, solution: Solution, simulator=None) -> list[Violation]:
    """All feasibility violations of a solution; empty list means feasible.

    Checks the partition property, every trip's schedule, and the per-trip
    minimum driven distance.  Each emitted schedule also goes through the
    oracle's rule checkers, which share no code with the scheduler.  A trip
    that is empty, repeats a request or holds an unknown one is a partition
    violation, and its distance and schedule go unchecked.  `simulator`, a
    `schedule.Simulator` of this instance, saves compiling a fresh one; the
    violations are the same either way.
    """
    from . import oracle, schedule  # local import keeps module dependencies one-way

    out = [Violation("partition", p) for p in _check_partition(instance, solution)]
    sim = simulator or schedule.Simulator(instance)  # compiles every request once
    for i, trip in enumerate(solution.trips):
        fault = _sequence_fault(instance, trip.requests)
        if fault:
            out.append(Violation("partition", f"trip {i}: {fault}", i))
            continue
        loaded, empty = trip_distances(instance, trip.requests)
        if (loaded, empty) != (trip.loaded_d10, trip.empty_d10):
            out.append(Violation("partition", f"trip {i}: cached distances stale", i))
        if loaded + empty < instance.mu_d10:
            out.append(
                Violation(
                    "min_distance",
                    f"trip {i}: total {fmt_km(loaded + empty)} km < mu {fmt_km(instance.mu_d10)} km",
                    i,
                )
            )
        result = schedule.simulate_trip(instance, trip.requests, sim)
        if isinstance(result, schedule.Infeasible):
            out.append(Violation("schedule", f"trip {i}: {result.reason} at node {result.node}", i))
            continue
        problems = oracle.check_schedule_rules(instance, trip.requests, result)
        problems += oracle.check_sunday_rests(instance, result)
        out.extend(Violation("schedule", f"trip {i}: {p}", i) for p in problems)
    return out
