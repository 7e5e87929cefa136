"""Removal and insertion machinery for the search engine.

Seven removal operators (random/time/stop route removal, random/time shipment
removal, two similarity-removal variants; the run config's default list
leaves out time route removal, "trr") and the insertion procedure that
re-plans unassigned shipments: insert where profitable, open a vehicle only
when the existing fleet is well utilised, otherwise leave the shipment to
the spot market.
"""

from __future__ import annotations

import random
import re
from bisect import bisect_right
from functools import partial
from itertools import accumulate, islice
from typing import Iterable, Iterator, Optional, Sequence

from .model import Instance, Solution, Trip, priced_solution
from .schedule import Simulator


# The removal count's caps, as in the production parameter table: at most
# PSI requests and at most 35 per 100 planned ones, rounded up.  XI is that
# share as an exact ratio (numerator, denominator), so no float rounds it.
PSI = 100
XI = (7, 20)


def removal_count(planned: int) -> int:
    """q = min(PSI, ceil(XI * planned), planned)."""
    if planned <= 0:
        return 0
    num, den = XI
    return min(PSI, -((-num * planned) // den), planned)


# ---------------------------------------------------------------------------
# insertion evaluation (one evaluator holds the caches of a run)


# Cached insertion cells above which the evaluator drops every cache of the
# search at its next column; caches are pure, so results do not change.
MAX_CACHED_CELLS = 400_000


class InsertionEvaluator:
    """The caches of one search: exact insertion costs, one table per trip
    sequence holding each asked request's best feasible (delta_d10,
    position) or None, the repair memo and the simulator's caches.

    A changed trip has a new sequence and so a fresh table, and every
    uncached cell is a full sweep of `Simulator.best_insertions`; cached and
    fresh cells always agree because cells are pure, and so does a memoised
    repair.  `column` counts the cells it adds and drops every cache once
    that count passes MAX_CACHED_CELLS, so memory stays bounded.
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        # trip sequence -> {request id: best (delta_d10, pos) or None}
        self.cells: dict[tuple[int, ...], dict[int, Optional[tuple[int, int]]]] = {}
        # (trip sequences, frozenset of requests to place, k) -> repair's solution
        self.repairs: dict[tuple, Solution] = {}
        self.added = 0  # cells added since the last drop

    def clear(self) -> None:
        """Drop every cached value; later results are unchanged (bounds memory)."""
        self.cells.clear()
        self.repairs.clear()
        self.sim.clear_caches()
        self.added = 0

    def column(self, rids: Sequence[int], trip: Trip) -> list[Optional[tuple[int, int]]]:
        """Best feasible (delta_d10, position) of each request in this trip,
        or None, in the order of rids (distinct request ids); uncached cells
        are evaluated together."""
        if self.added > MAX_CACHED_CELLS:
            self.clear()
        col = self.cells.get(trip.requests)
        if col is None:
            col = self.cells[trip.requests] = {}
        fresh = [rid for rid in rids if rid not in col]
        if fresh:
            self.added += len(fresh)
            col.update(zip(fresh, self.sim.best_insertions(trip, [(rid, None) for rid in fresh])))
        return [col[rid] for rid in rids]

    def cell(self, rid: int, trip: Trip) -> Optional[tuple[int, int]]:
        """Best feasible (delta_d10, position) in this trip, or None."""
        return self.column((rid,), trip)[0]

    def best_greedy(self, rid: int, trips: Sequence[Trip]) -> Optional[tuple[int, int, int]]:
        """Cheapest feasible cell of one request over the trips as
        (delta_d10, trip_index, pos), or None: a plain scan of its row."""
        return _best_cell([self.cell(rid, trip) for trip in trips])


def _best_cell(row: Sequence[Optional[tuple[int, int]]]) -> Optional[tuple[int, int, int]]:
    """Cheapest feasible cell of a row as (delta_d10, column, pos), or None;
    ties go to the lowest column."""
    best = None
    for ti, got in enumerate(row):
        if got is not None and (best is None or got[0] < best[0]):
            best = (got[0], ti, got[1])
    return best


# ---------------------------------------------------------------------------
# removal operators


def _take_out(
    sim: Simulator, solution: Solution, removed: list[int]
) -> tuple[list[Trip], list[int]]:
    """The solution's trips without the removed requests, and every request
    taken out: `removed`, then the leftovers of trips that dissolved.

    A trip that holds no removed request passes through as it is.  A
    shortened sequence that turns out unschedulable (possible with
    non-metric matrices) dissolves entirely; its leftovers join the removal.
    """
    gone = set(removed)
    trips: list[Trip] = []
    extra: list[int] = []
    for trip in solution.trips:
        if gone.isdisjoint(trip.requests):
            trips.append(trip)
            continue
        keep = tuple(rid for rid in trip.requests if rid not in gone)
        if not keep:
            continue
        rebuilt = sim.build_trip(keep)
        if rebuilt is None:
            extra.extend(keep)
        else:
            trips.append(rebuilt)
    return trips, removed + extra


class Wheel:
    """A roulette wheel over fixed non-negative weights: built once while
    the weights hold, then spun once per draw.

    `total` is sum(weights) and `sums` holds the running sums, the same
    left-to-right additions as a scan that stops at the first running sum
    above the shot.  A spin consumes exactly one random number; the last
    index absorbs rounding.  When every weight is 0 (a weight drawn in
    thousands of segments without a score decays to 0), every index is
    alike.
    """

    __slots__ = ("total", "sums")

    def __init__(self, weights: Sequence[float]):
        self.total = sum(weights)
        self.sums = list(accumulate(weights))

    def spin(self, rng: random.Random) -> int:
        """One index drawn with probability proportional to its weight."""
        sums = self.sums
        if not self.total:
            return int(rng.random() * len(sums))
        i = bisect_right(sums, rng.random() * self.total)
        return i if i < len(sums) else len(sums) - 1


def _roulette_without_replacement(weights: list[float], rng: random.Random) -> Iterator[int]:
    """Indices drawn lazily by weight, no repeats; weights must be positive.

    Each draw spins a wheel over the weights still alive and so consumes one
    random number when the next index is requested; a caller that stops
    early leaves the rest of the stream untouched.
    """
    alive = list(range(len(weights)))
    while alive:
        yield alive.pop(Wheel([weights[i] for i in alive]).spin(rng))


def _route_travel_time(sim: Simulator, trip: Trip) -> int:
    time, origin, dest = sim.time, sim.origin, sim.dest
    seq = trip.requests
    loaded = sum(time[origin[rid]][dest[rid]] for rid in seq)
    return loaded + sum(time[dest[a]][origin[b]] for a, b in zip(seq, seq[1:]))


def _remove_routes(sim, solution, q, rng, weigher):
    trips = solution.trips
    removed: list[int] = []
    if q > 0:
        for pick in _roulette_without_replacement([weigher(t) for t in trips], rng):
            removed.extend(trips[pick].requests)
            if len(removed) >= q:
                break
    return _take_out(sim, solution, removed)


def remove_random_routes(sim: Simulator, solution: Solution, q: int, rng: random.Random):
    return _remove_routes(sim, solution, q, rng, lambda t: 1.0)


def remove_time_routes(sim: Simulator, solution: Solution, q: int, rng: random.Random):
    return _remove_routes(sim, solution, q, rng, lambda t: float(_route_travel_time(sim, t)))


def remove_stop_routes(sim: Simulator, solution: Solution, q: int, rng: random.Random):
    return _remove_routes(sim, solution, q, rng, lambda t: 1.0 / len(t.requests))


def remove_random_shipments(sim: Simulator, solution: Solution, q: int, rng: random.Random):
    planned = solution.planned_ids()
    return _take_out(sim, solution, rng.sample(planned, min(max(q, 0), len(planned))))


def remove_time_shipments(sim: Simulator, solution: Solution, q: int, rng: random.Random):
    time, origin, dest = sim.time, sim.origin, sim.dest
    weights = []
    for trip in solution.trips:
        seq = trip.requests
        for i, rid in enumerate(seq):
            w = 1  # keeps every weight positive for the roulette
            if i > 0:
                w += time[dest[seq[i - 1]]][origin[rid]]
            if i + 1 < len(seq):
                w += time[dest[rid]][origin[seq[i + 1]]]
            weights.append(float(w))
    planned = solution.planned_ids()
    picked = islice(_roulette_without_replacement(weights, rng), max(q, 0))
    return _take_out(sim, solution, [planned[i] for i in picked])


def shaw_relatedness(
    instance: Instance, d_max: int, horizon_minutes: int, a: int, b: int, variant: str
) -> float:
    ra = instance.request(a)
    rb = instance.request(b)
    tw = abs(ra.pickup_window.start - rb.pickup_window.start) / horizon_minutes
    if variant == "tw":
        return tw
    dist = instance.matrix.distance
    spatial = (dist[ra.origin][rb.origin] + dist[ra.destination][rb.destination]) / max(d_max, 1)
    return spatial + tw


def _shaw_ranks(sim: Simulator, variant: str) -> dict[int, dict[int, int]]:
    """Per reference request, every request's place in the order by
    (shaw_relatedness to the reference, id); built on first use and kept on
    the simulator, one table per variant.

    The keys are shaw_relatedness's float expression, evaluated from one
    (id, origin, destination, pickup start) tuple per request.
    """
    ranks = sim.shaw_ranks.get(variant)
    if ranks is None:
        instance = sim.instance
        dist = instance.matrix.distance
        d_max = max(instance.matrix.max_distance(), 1)
        horizon_minutes = instance.horizon.end_minute
        reqs = [(r.id, r.origin, r.destination, r.pickup_window.start) for r in instance.requests]
        ranks = sim.shaw_ranks[variant] = {}
        for ref, o, d, start in reqs:
            if variant == "tw":
                keys = [(abs(start - s) / horizon_minutes, rid) for rid, _, _, s in reqs]
            else:
                from_o, from_d = dist[o], dist[d]
                keys = [
                    ((from_o[ro] + from_d[rd]) / d_max + abs(start - s) / horizon_minutes, rid)
                    for rid, ro, rd, s in reqs
                ]
            keys.sort()
            ranks[ref] = {rid: i for i, (_, rid) in enumerate(keys)}
    return ranks


# Shaw removal's determinism: the request at rank floor(u**p * len(pool)) of
# the relatedness order is removed next, u uniform on [0, 1); Ropke &
# Pisinger (2006) use p = 6.
SHAW_P = 6


def remove_shaw(
    sim: Simulator,
    solution: Solution,
    q: int,
    rng: random.Random,
    variant: str = "distance_tw",
):
    """Remove mutually similar shipments; low relatedness value = similar."""
    removed: list[int] = []
    pool = solution.planned_ids()
    while pool and len(removed) < q:
        if removed:
            ref = removed[rng.randrange(len(removed))]
            pool.sort(key=_shaw_ranks(sim, variant)[ref].__getitem__)
            rank = min(int(rng.random() ** SHAW_P * len(pool)), len(pool) - 1)
        else:
            rank = rng.randrange(len(pool))
        removed.append(pool.pop(rank))
    return _take_out(sim, solution, removed)


REMOVAL_OPERATORS = {
    "rrr": remove_random_routes,
    "trr": remove_time_routes,
    "srr": remove_stop_routes,
    "rsr": remove_random_shipments,
    "tsr": remove_time_shipments,
    "shaw": partial(remove_shaw, variant="distance_tw"),
    "shaw_tw": partial(remove_shaw, variant="tw"),
}


# ---------------------------------------------------------------------------
# insertion procedure


def _regret_value(values: list[int], k: int, cap: int) -> int:
    """Regret-k of a shipment given its per-route insertion costs: the sum of
    the k-1 next-cheapest costs' gaps to the cheapest.

    Routes with no feasible position count at the outsourcing price cap, and
    so do the missing routes when fewer than k exist, after the sorted costs.
    """
    if not values:
        return 0
    c = sorted(values)
    return sum(c[1:k]) - (min(k, len(c)) - 1) * c[0] + max(0, k - len(c)) * (cap - c[0])


def insertion_k(mode: str) -> int:
    """k of an insertion operator name: 0 for "greedy", k for "regret<k>",
    where k >= 2 is written in ASCII digits without a leading zero.

    Raises ValueError for any other name, and for a k with more digits than
    int() converts.
    """
    if mode == "greedy":
        return 0
    digits = re.fullmatch(r"regret([2-9]|[1-9][0-9]+)", mode)
    if digits is None:
        raise ValueError(f"unknown insertion operator {mode!r}")
    return int(digits[1])


def repair(
    ev: InsertionEvaluator, trips: Sequence[Trip], unassigned: Iterable[int], k: int
) -> Solution:
    """Place every request of `unassigned` into the trips and return a
    complete solution; cells come from the run's evaluator `ev`.

    k is the insertion k of `insertion_k`: 0 for greedy, else regret-k.
    Each round picks the next shipment, inserts it when cheaper than its
    outsourcing price, otherwise opens a new trip only if all current trips
    are utilised up to the minimum distance and the new trip itself is no
    dearer than outsourcing; the fallback is the outsourcing bank.  Ties go
    to the lowest request id, then the lowest trip index.  A shipment that
    no vehicle can serve even alone goes to the bank before any round.  A
    final pass dissolves trips that ended below the minimum distance, and
    `model.priced_solution` prices what is left.
    """
    sim = ev.sim
    instance = sim.instance
    kappa = instance.cost.kappa_cents
    mu = instance.mu_d10

    trips = list(trips)
    solo = {cand: sim.build_trip((cand,)) for cand in unassigned}
    # a request that no fresh vehicle can serve alone fits no trip either:
    # the fresh vehicle's label at its pickup dominates every label a trip
    # can bring there, so it has no cell anywhere and goes to the bank
    new_bank = [cand for cand, trip in solo.items() if trip is None]
    s_in = sorted(cand for cand, trip in solo.items() if trip is not None)
    # how many trips are below the minimum distance, kept by commit; the
    # rounds read it in place of a scan over the trips
    below = sum(t.total_d10 < mu for t in trips)

    def commit(ti: int, rid: int, pos: int) -> None:
        """Splice rid into trips[ti] at pos; ti == len(trips) opens a new trip."""
        nonlocal below
        if ti == len(trips):
            trips.append(solo[rid])
        else:
            rebuilt = sim.splice_trip(trips[ti], rid, pos)
            assert rebuilt is not None
            below -= trips[ti].total_d10 < mu
            trips[ti] = rebuilt
        below += trips[ti].total_d10 < mu

    # one row of cells per candidate and one column per trip, for every mode;
    # a round re-evaluates only the changed trip's column, which matches
    # rebuilding the matrix every round because cells are pure
    rows: dict[int, list] = {cand: [] for cand in s_in}
    for trip in trips:
        for cand, got in zip(s_in, ev.column(s_in, trip)):
            rows[cand].append(got)
    # each candidate's (pick key, best cell), a pure function of its row and
    # of `spare`: dropped when a cell of its row changes or the row grows,
    # and all of them when `spare` flips
    picks: dict[int, tuple] = {}
    was_spare = None
    while s_in:
        # a spare vehicle (empty route) is one more column, at index
        # len(trips), while every used vehicle is utilised up to the minimum
        # distance; its cell is the single trip's (direct, 0)
        spare = not below
        if spare != was_spare:
            picks.clear()
            was_spare = spare
        rid = cell = best_key = None
        any_feasible = False
        for cand in s_in:
            pick = picks.get(cand)
            if pick is None:
                row = rows[cand]
                if spare:
                    row = row + [(sim.direct[cand], 0)]
                best = _best_cell(row)  # (delta_d10, trip_index, pos)
                if k:
                    # a candidate that fits nowhere can still win at regret 0
                    cap = sim.price10[cand]
                    values = [cap if got is None else kappa * got[0] for got in row]
                    key = (-_regret_value(values, k, cap), cand)
                else:
                    key = None if best is None else (best[0], cand)
                pick = picks[cand] = (key, best)
            key, best = pick
            if key is None:
                continue
            if best_key is None or key < best_key:
                best_key, rid, cell = key, cand, best
            any_feasible = any_feasible or best is not None
        if not any_feasible:
            # nothing fits anywhere, and banking changes no trip and no cell
            new_bank.extend(s_in)
            break

        # a spare column that won, or the fallback of a dear or missing cell,
        # both open a vehicle exactly when kappa * direct <= price10
        price10 = sim.price10[rid]
        if cell is not None and kappa * cell[0] < price10:
            ti = cell[1]
            commit(ti, rid, cell[2])
        elif spare and kappa * sim.direct[rid] <= price10:
            ti = len(trips)
            commit(ti, rid, 0)
        else:
            ti = None
            new_bank.append(rid)
        s_in.remove(rid)
        del rows[rid]
        if ti is not None:
            for cand, got in zip(s_in, ev.column(s_in, trips[ti])):
                row = rows[cand]
                if ti == len(row):
                    row.append(got)
                elif row[ti] == got:
                    continue
                else:
                    row[ti] = got
                picks.pop(cand, None)

    # dissolve trips that ended below the minimum driven distance
    while True:
        keep = [t for t in trips if t.total_d10 >= mu]
        drop = [t for t in trips if t.total_d10 < mu]
        if not drop:
            break
        trips = keep
        for rid in sorted(rid for t in drop for rid in t.requests):
            found = ev.best_greedy(rid, trips)
            if found is not None and kappa * found[0] < sim.price10[rid]:
                commit(found[1], rid, found[2])
            else:
                new_bank.append(rid)

    return priced_solution(instance, trips, new_bank)


def build_initial(ev: InsertionEvaluator) -> Solution:
    """Greedy construction from the everything-outsourced start, through
    the run's evaluator, whose caches the search then reuses."""
    return repair(ev, [], [r.id for r in ev.sim.instance.requests], 0)
