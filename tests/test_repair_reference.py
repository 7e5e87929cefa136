"""The incremental repair must match a plain per-round rescan exactly."""

import random

from ftlopt.model import Solution
from ftlopt.operators import (
    REMOVAL_OPERATORS,
    InsertionEvaluator,
    _ratio_pick,
    _regret_value,
    build_initial,
    repair,
)
from ftlopt.schedule import Simulator

from helpers import micro_instance


def reference_repair(sim, trips, bank, removed, mode):
    """Straight transcription of the insertion procedure: fresh cost matrix
    every round, no caching, no incremental bookkeeping."""
    instance = sim.instance
    ev = InsertionEvaluator(sim)  # cells are pure; a fresh evaluator per call
    kappa = instance.cost.kappa_cents
    mu = instance.mu_d10
    k = 0 if mode == "greedy" else int(mode[len("regret"):])
    trips = list(trips)
    s_in = sorted(set(bank) | set(removed))
    new_bank = []
    while s_in:
        ev = InsertionEvaluator(sim)
        spare = all(t.total_d10 >= mu for t in trips)
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
                if spare and sim.single_trip(cand) is not None:
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
                    if sim.single_trip(cand) is not None:
                        direct = sim.direct[cand]
                        values.append(kappa * direct)
                        if best_cell is None or (direct, len(trips)) < (
                            best_cell[0],
                            best_cell[1],
                        ):
                            best_cell = (direct, len(trips), 0)
                    else:
                        values.append(cap)
                regret = _regret_value(values, k, cap, False)
                key = (-regret, cand)
                if best_key is None or key < best_key:
                    best_key = key
                    rid = cand
                    cell = best_cell
                if best_cell is not None:
                    any_feasible = True
            if not any_feasible:
                rid = None
        if rid is None:
            rid = _ratio_pick(instance, s_in)
            cell = None
        price10 = sim.price10[rid]
        if cell is not None and cell[1] == len(trips):
            if kappa * cell[0] <= price10:
                trips.append(sim.single_trip(rid))
            else:
                new_bank.append(rid)
        elif cell is not None and kappa * cell[0] < price10:
            _delta, ti, pos = cell
            seq = trips[ti].requests[:pos] + (rid,) + trips[ti].requests[pos:]
            trips[ti] = sim.build_trip(seq)
        else:
            single = sim.single_trip(rid) if spare else None
            if single is not None and kappa * single.total_d10 <= price10:
                trips.append(single)
            else:
                new_bank.append(rid)
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
            else:
                new_bank.append(rid)
    total = sum(t.total_d10 for t in trips)
    veh = instance.cost.vehicle_cost(total)
    out = sum(sim.price10[r] // 10 for r in new_bank)
    return Solution(tuple(trips), frozenset(new_bank), veh, out, veh + out)


def test_repair_matches_reference_on_random_states():
    rng = random.Random(55)
    for case in range(40):
        instance = micro_instance(rng.randrange(1_000_000), mu_mode=rng.choice(("small", "large")))
        sim = Simulator(instance)
        start = build_initial(instance, sim)
        op = rng.choice(list(REMOVAL_OPERATORS))
        q = rng.randint(1, max(1, start.planned_count))
        trips, removed = REMOVAL_OPERATORS[op](sim, start, q, rng)
        for mode in ("greedy", "regret2", "regret4", "regret6"):
            warm = InsertionEvaluator(sim)
            got = repair(sim, trips, start.bank, removed, mode=mode, evaluator=warm)
            want = reference_repair(sim, trips, start.bank, removed, mode)
            assert got == want, (case, op, mode)
            again = repair(sim, trips, start.bank, removed, mode=mode, evaluator=warm)
            assert again == got, (case, mode, "warm cache changed the result")
