"""The incremental repair must match a plain per-round rescan exactly.

The reference below transcribes the insertion procedure on its own: it
spells out the regret value and the ratio rule instead of importing them,
keeps the spare-vehicle column and the open-a-vehicle fallback as separate
branches, and tallies which branch every shipment took, so the test also
shows that the random states reach each of them.
"""

import random
from collections import Counter

from ftlopt.model import Solution
from ftlopt.operators import (
    REMOVAL_OPERATORS,
    InsertionEvaluator,
    build_initial,
    insertion_k,
    repair,
)
from ftlopt.schedule import Simulator

from helpers import blackout_pickup, fleet_instance, micro_instance

# every way a shipment can leave the reference procedure
OUTCOMES = {
    "splice",
    "spare open",
    "bank with a dear cell",
    "bank with no cell",
    "spare column dearer than outsourcing",
    "dissolve splice",
    "dissolve bank",
    "ratio pick",
}


def regret(values, k, cap):
    """Sum-form regret-k: the gaps of the k-1 next-cheapest values to the
    cheapest, with missing values (fewer than k) counted at cap."""
    c = sorted(values) + [cap] * k
    return sum(ci - c[0] for ci in c[1:k])


def ratio_pick(instance, s_in):
    """The shipment with the least outsourcing price per direct distance;
    ties go to the first in s_in."""
    price, direct = instance.request, instance.direct_d10
    best = s_in[0]
    for rid in s_in[1:]:
        if price(rid).sm_price_cents * direct(best) < price(best).sm_price_cents * direct(rid):
            best = rid
    return best


def reference_repair(sim, trips, bank, removed, mode, outcomes, events=None):
    """Straight transcription of the insertion procedure: fresh cost matrix
    every round, no caching, no incremental bookkeeping.

    With `events`, it also tallies the rounds in which `spare` flipped and
    the candidates whose row changed since the last round while their best
    cell stayed the same."""
    instance = sim.instance
    ev = InsertionEvaluator(sim)  # cells are pure; a fresh evaluator per call
    kappa = instance.cost.kappa_cents
    mu = instance.mu_d10
    k = 0 if mode == "greedy" else int(mode[len("regret"):])
    trips = list(trips)
    s_in = sorted(set(bank) | set(removed))
    new_bank = []
    last = None  # (spare, rows) of the previous round, with events
    while s_in:
        ev = InsertionEvaluator(sim)
        spare = all(t.total_d10 >= mu for t in trips)
        if events is not None:
            rows = {cand: [ev.cell(cand, trip) for trip in trips] for cand in s_in}
            if last is not None:
                events["spare flip"] += spare != last[0]
                for cand, row in rows.items():
                    old = last[1][cand]
                    if len(old) == len(row) and old != row and best_of(old) == best_of(row):
                        events["changed cell, same best"] += 1
            last = (spare, rows)
        rid = None
        cell = None
        if mode == "greedy":
            best = None
            for cand in s_in:
                for ti, trip in enumerate(trips):
                    got = ev.cell(cand, trip)
                    if got is None:
                        continue
                    key = (got[0], cand, ti, got[1])
                    if best is None or key < best:
                        best = key
                if spare and sim.build_trip((cand,)) is not None:
                    key = (sim.direct[cand], cand, len(trips), 0)
                    if best is None or key < best:
                        best = key
            if best is not None:
                delta, rid, ti, pos = best
                cell = (delta, ti, pos)
        else:
            best_key = None
            any_feasible = False
            for cand in s_in:
                cap = sim.price10[cand]
                values = []
                best_cell = None
                for ti, trip in enumerate(trips):
                    got = ev.cell(cand, trip)
                    if got is None:
                        values.append(cap)
                    else:
                        values.append(kappa * got[0])
                        if best_cell is None or (got[0], ti) < (best_cell[0], best_cell[1]):
                            best_cell = (got[0], ti, got[1])
                if spare:
                    if sim.build_trip((cand,)) is not None:
                        direct = sim.direct[cand]
                        values.append(kappa * direct)
                        if best_cell is None or (direct, len(trips)) < (
                            best_cell[0],
                            best_cell[1],
                        ):
                            best_cell = (direct, len(trips), 0)
                    else:
                        values.append(cap)
                key = (-regret(values, k, cap), cand)
                if best_key is None or key < best_key:
                    best_key = key
                    rid = cand
                    cell = best_cell
                if best_cell is not None:
                    any_feasible = True
            if not any_feasible:
                rid = None
        ratio = rid is None
        if ratio:
            rid = ratio_pick(instance, s_in)
            cell = None
            outcomes["ratio pick"] += 1
        price10 = sim.price10[rid]
        if cell is not None and cell[1] == len(trips):
            if kappa * cell[0] <= price10:
                trips.append(sim.build_trip((rid,)))
                outcomes["spare open"] += 1
            else:
                new_bank.append(rid)
                outcomes["spare column dearer than outsourcing"] += 1
        elif cell is not None and kappa * cell[0] < price10:
            _delta, ti, pos = cell
            seq = trips[ti].requests[:pos] + (rid,) + trips[ti].requests[pos:]
            trips[ti] = sim.build_trip(seq)
            outcomes["splice"] += 1
        else:
            single = sim.build_trip((rid,)) if spare else None
            if single is not None and kappa * single.total_d10 <= price10:
                trips.append(single)
                outcomes["open after a dear cell"] += 1
            else:
                new_bank.append(rid)
                if cell is not None:
                    outcomes["bank with a dear cell"] += 1
                elif not ratio:
                    outcomes["bank with no cell"] += 1
        s_in.remove(rid)
    while True:
        keep = [t for t in trips if t.total_d10 >= mu]
        drop = [t for t in trips if t.total_d10 < mu]
        if not drop:
            break
        trips = keep
        ev = InsertionEvaluator(sim)
        for rid in sorted(r for t in drop for r in t.requests):
            found = None
            for ti, trip in enumerate(trips):
                got = ev.cell(rid, trip)
                if got is not None and (found is None or (got[0], ti) < found[:2]):
                    found = (got[0], ti, got[1])
            price10 = sim.price10[rid]
            if found is not None and kappa * found[0] < price10:
                _delta, ti, pos = found
                seq = trips[ti].requests[:pos] + (rid,) + trips[ti].requests[pos:]
                trips[ti] = sim.build_trip(seq)
                outcomes["dissolve splice"] += 1
            else:
                new_bank.append(rid)
                outcomes["dissolve bank"] += 1
    total = sum(t.total_d10 for t in trips)
    veh = instance.cost.vehicle_cost(total)
    out = sum(sim.price10[r] // 10 for r in new_bank)
    return Solution(tuple(trips), frozenset(new_bank), veh, out, veh + out)


def best_of(row):
    """Cheapest feasible (delta_d10, trip index, pos) of a row, or None."""
    return min(((got[0], ti, got[1]) for ti, got in enumerate(row) if got), default=None)


def test_regret_transcription_examples():
    assert regret([10, 14, 19], 3, 100) == (14 - 10) + (19 - 10)
    assert regret([10], 3, 100) == (100 - 10) * 2
    assert regret([150], 2, 100) == 100 - 150  # padding comes after the sort


# states past the first 40 price shipments below kappa per km, where a
# spare vehicle can cost more than outsourcing
CHEAP_CASES = 10


def test_repair_matches_reference_on_random_states():
    rng = random.Random(55)
    outcomes = Counter()
    for case in range(40 + CHEAP_CASES):
        levels = (0.8, 1.0, 1.3, 1.8) if case < 40 else (0.5, 0.7, 0.9, 1.3)
        instance = micro_instance(
            rng.randrange(1_000_000), mu_mode=rng.choice(("small", "large")), levels=levels
        )
        sim = Simulator(instance)
        start = build_initial(InsertionEvaluator(sim))
        op = rng.choice(list(REMOVAL_OPERATORS))
        q = rng.randint(1, max(1, start.planned_count))
        trips, removed = REMOVAL_OPERATORS[op](sim, start, q, rng)
        for mode in ("greedy", "regret2", "regret4", "regret6"):
            warm = InsertionEvaluator(sim)
            got = repair(warm, trips, {*start.bank, *removed}, insertion_k(mode))
            want = reference_repair(sim, trips, start.bank, removed, mode, outcomes)
            assert got == want, (case, op, mode)
            again = repair(warm, trips, {*start.bank, *removed}, insertion_k(mode))
            assert again == got, (case, mode, "warm cache changed the result")
    assert OUTCOMES <= set(outcomes), outcomes


def fleet_state(seed, blackout=False):
    """A repair state on a fleet_instance: trips, bank and removed requests.

    Half the states start from build_initial and a removal operator; the
    others from random bundles of one to three requests, which may leave
    trips below the minimum distance.  With `blackout`, one request's pickup
    window lies inside a Sunday blackout when the horizon holds one
    (blackout_pickup)."""
    rng = random.Random(seed)
    instance = fleet_instance(rng.randrange(1_000_000))
    if blackout:
        instance = blackout_pickup(instance, rng)[0]
    sim = Simulator(instance)
    if rng.random() < 0.5:
        start = build_initial(InsertionEvaluator(sim))
        op = rng.choice(list(REMOVAL_OPERATORS))
        q = rng.randint(1, max(1, start.planned_count))
        trips, removed = REMOVAL_OPERATORS[op](sim, start, q, rng)
        return sim, trips, sorted(start.bank), removed
    ids = [r.id for r in instance.requests]
    rng.shuffle(ids)
    removed = [rid for rid in ids if rng.random() < 0.4]
    rest = [rid for rid in ids if rid not in removed]
    trips, bank = [], []
    while rest:
        size = rng.randint(1, 3)
        group, rest = rest[:size], rest[size:]
        trip = sim.build_trip(group)
        if trip is None:
            bank.extend(group)
        else:
            trips.append(trip)
    return sim, trips, bank, removed


def test_repair_matches_reference_on_fleet_states():
    # states with several trips, some below the minimum distance, so that
    # spare vehicles come and go within one repair and a changed column
    # often leaves a candidate's best cell where it was
    outcomes, events = Counter(), Counter()
    for seed in range(150):
        sim, trips, bank, removed = fleet_state(seed)
        events["several trips"] += len(trips) > 1
        for mode in ("greedy", "regret2", "regret4", "regret6"):
            warm = InsertionEvaluator(sim)
            got = repair(warm, trips, {*bank, *removed}, insertion_k(mode))
            want = reference_repair(sim, trips, bank, removed, mode, outcomes, events)
            assert got == want, (seed, mode)
            again = repair(warm, trips, {*bank, *removed}, insertion_k(mode))
            assert again == got, (seed, mode, "warm cache changed the result")
    assert OUTCOMES <= set(outcomes), outcomes
    assert events["several trips"] >= 50 and events["spare flip"] and events[
        "changed cell, same best"], events


def test_requests_no_vehicle_serves_are_banked_without_being_asked():
    # a pickup window inside a Sunday blackout leaves a request to the spot
    # market alone: repair banks it up front and asks no cell for it, and
    # still matches the reference, which asks every cell
    outcomes = Counter()
    states = asked = 0
    for seed in range(60):
        sim, trips, bank, removed = fleet_state(seed, blackout=True)
        gone = {rid for rid in set(bank) | set(removed) if sim.build_trip((rid,)) is None}
        states += bool(gone)
        for mode in ("greedy", "regret2", "regret4", "regret6"):
            warm = InsertionEvaluator(sim)
            got = repair(warm, trips, {*bank, *removed}, insertion_k(mode))
            want = reference_repair(sim, trips, bank, removed, mode, outcomes)
            assert got == want, (seed, mode)
            assert gone <= got.bank, (seed, mode)
            assert not any(gone & col.keys() for col in warm.cells.values()), (seed, mode)
            asked += bool(gone and warm.cells)
    assert states >= 40 and asked >= 100, (states, asked)
