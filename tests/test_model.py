import dataclasses

import pytest
from hypothesis import given, strategies as st

from ftlopt.model import (
    CostModel,
    Horizon,
    Instance,
    PartitionViolation,
    RegParams,
    Request,
    Solution,
    TimeWindow,
    TravelMatrix,
    Trip,
    Violation,
    cents,
    fmt_km,
    fmt_money,
    solution_cost,
    travel_minutes,
    trip_distances,
    validate_solution,
)
from ftlopt import schedule
from ftlopt.schedule import Simulator

from helpers import gh_instance, micro_instance


def three_request_instance():
    # locations: o1 d1 o2 d2 o3 d3 on a line, distances in d10
    pts = [0, 100, 250, 420, 600, 900]
    n = len(pts)
    dist = [[abs(pts[i] - pts[j]) * 10 for j in range(n)] for i in range(n)]
    matrix = TravelMatrix.from_distances(dist, 70)
    cost = CostModel()
    days = 8
    reqs = []
    for rid, (o, d) in enumerate(((0, 1), (2, 3), (4, 5)), start=1):
        pw = TimeWindow(360, 1080)
        dws = tuple(TimeWindow(dd * 1440 + 360, dd * 1440 + 1080) for dd in range(days))
        reqs.append(Request(rid, o, d, pw, dws, cost.sm_price(dist[o][d])))
    inst = Instance(tuple(reqs), matrix, cost, RegParams(), 0, Horizon(0, days))
    inst.check()
    return inst


class TestRegParams:
    def test_week_bounds(self):
        # the largest blackout and operation that still leave a week schedulable
        RegParams(tau_s=10079, sigma=1).check()
        RegParams(sigma=10080 - 1320).check()
        for bad in (dict(tau_s=10080, sigma=0), dict(sigma=10080 - 1320 + 1)):
            with pytest.raises(ValueError, match="tau_s < 10080"):
                RegParams(**bad)


class TestChecksWhenBuilt:
    def test_each_type_rejects_an_invalid_value_when_built(self):
        inst = three_request_instance()
        # each type, and one field set to a value that its own check rejects
        cases = (
            (RegParams(), "tau_s", 0),
            (CostModel(), "kappa_cents", 0),
            (TimeWindow(5, 8), "end", 3),
            (inst.request(1), "sm_price_cents", 0),
            (inst.matrix, "n_locations", inst.matrix.n_locations + 1),
            (Horizon(0, 7), "days", 0),
            (inst, "mu_d10", -5),
        )
        for part, name, bad in cases:
            values = {f.name: getattr(part, f.name) for f in dataclasses.fields(part)}
            with pytest.raises(ValueError):
                type(part)(**{**values, name: bad})
            with pytest.raises(ValueError):
                dataclasses.replace(part, **{name: bad})

    def test_a_repeated_request_is_rejected_at_its_index(self):
        inst = three_request_instance()
        with pytest.raises(ValueError, match="duplicate request id 1") as err:
            dataclasses.replace(inst, requests=inst.requests + inst.requests[:1])
        assert err.value.pointer == "/requests/3"


class TestSmPrice:
    def test_tier_below_150(self):
        cost = CostModel()
        assert cost.sm_price(1000) == 17500  # 100 km at 1.75 -> 175.00

    def test_boundary_belongs_to_upper_tier(self):
        cost = CostModel()
        assert cost.sm_price(1500) == 21000  # exactly 150 km -> 1.40 rate
        assert cost.sm_price(3500) == 40250  # exactly 350 km -> 1.15 -> 402.50

    def test_zero_distance(self):
        assert CostModel().sm_price(0) == 0

    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=0, max_value=10_000))
    def test_monotone_within_tiers_piecewise_linear(self, a, b):
        cost = CostModel()
        lo, hi = sorted((a, b))
        rate_lo, rate_hi = cost.sm_rate(lo), cost.sm_rate(hi)
        if rate_lo == rate_hi:
            assert cost.sm_price(lo) <= cost.sm_price(hi)
            # linear within a tier: price is rate * distance to the cent
            assert cost.sm_price(hi) == (rate_hi * hi + 5) // 10


class TestUnits:
    def test_cents_and_formats(self):
        assert cents("1.06") == 106
        assert cents(1.75) == 175
        assert fmt_money(48300) == "483.00"
        assert fmt_km(894) == "89.4"

    def test_travel_minutes_rounds_up(self):
        assert travel_minutes(4200, 70) == 360
        assert travel_minutes(1, 70) == 1  # 0.1 km still takes a minute
        assert travel_minutes(0, 70) == 0
        assert travel_minutes(1400, 70) == 120
        assert travel_minutes(323, 32.3) == 60  # exact at the decimal speed


class TestSolutionCost:
    def test_all_banked(self):
        inst = three_request_instance()
        bank = frozenset(r.id for r in inst.requests)
        total = sum(r.sm_price_cents for r in inst.requests)
        sol = Solution((), bank, 0, total, total)
        got = solution_cost(inst, sol)
        assert (got.vehicles, got.outsourced, got.total) == (0, total, total)

    def test_single_trip_no_empty_legs(self):
        inst = three_request_instance()
        sim = Simulator(inst)
        trip = sim.build_trip((1,))
        others = sum(r.sm_price_cents for r in inst.requests if r.id != 1)
        sol = Solution(
            (trip,),
            frozenset({2, 3}),
            inst.cost.vehicle_cost(trip.total_d10),
            others,
            inst.cost.vehicle_cost(trip.total_d10) + others,
        )
        got = solution_cost(inst, sol)
        assert got.vehicles == inst.cost.vehicle_cost(inst.direct_d10(1))
        assert got.outsourced == others

    def test_matches_arc_sum_oracle(self):
        # independent oracle: walk the arc sequence and add spot prices
        inst = three_request_instance()
        sim = Simulator(inst)
        trip = sim.build_trip((1, 2))
        dist = inst.matrix.distance
        arc_d10 = dist[0][1] + dist[1][2] + dist[2][3]
        expected = inst.cost.vehicle_cost(arc_d10) + inst.requests[2].sm_price_cents
        veh = inst.cost.vehicle_cost(trip.total_d10)
        out = inst.requests[2].sm_price_cents
        sol = Solution((trip,), frozenset({3}), veh, out, veh + out)
        got = solution_cost(inst, sol)
        assert got.total == expected

    def test_partition_violation_raises(self):
        inst = three_request_instance()
        sol = Solution((), frozenset({1, 2}), 0, 0, 0)  # request 3 missing
        with pytest.raises(PartitionViolation):
            solution_cost(inst, sol)

    def test_cached_equals_recomputed(self):
        inst = micro_instance(3)
        from ftlopt.operators import InsertionEvaluator, build_initial

        sol = build_initial(InsertionEvaluator(Simulator(inst)))
        got = solution_cost(inst, sol)
        assert (got.vehicles, got.outsourced, got.total) == (
            sol.cost_vehicles,
            sol.cost_outsourced,
            sol.cost_total,
        )


class TestValidate:
    def test_feasible_solution_clean(self):
        inst = three_request_instance()
        from ftlopt.operators import InsertionEvaluator, build_initial

        sol = build_initial(InsertionEvaluator(Simulator(inst)))
        assert validate_solution(inst, sol) == []

    def test_min_distance_violation(self):
        inst = three_request_instance()
        tight = dataclasses.replace(inst, mu_d10=inst.direct_d10(1) + 10)
        sim = Simulator(tight)
        trip = sim.build_trip((1,))
        veh = tight.cost.vehicle_cost(trip.total_d10)
        out = sum(r.sm_price_cents for r in tight.requests if r.id != 1)
        sol = Solution((trip,), frozenset({2, 3}), veh, out, veh + out)
        kinds = [v.kind for v in validate_solution(tight, sol)]
        assert kinds == ["min_distance"]

    def test_schedule_that_breaks_a_rule(self, monkeypatch):
        # validate_solution runs the oracle's rule checkers on each schedule
        # it emits: one whose first service starts a minute late, so that it
        # no longer ends sigma before the departure, is a violation
        inst = three_request_instance()
        from ftlopt.operators import InsertionEvaluator, build_initial

        sol = build_initial(InsertionEvaluator(Simulator(inst)))
        assert sol.trips
        real = schedule.simulate_trip

        def late_first_service(instance, requests, simulator=None):
            sched = real(instance, requests, simulator)
            first = sched.nodes[0]
            nodes = (dataclasses.replace(first, service_start=first.service_start + 1),)
            return dataclasses.replace(sched, nodes=nodes + sched.nodes[1:])

        monkeypatch.setattr(schedule, "simulate_trip", late_first_service)
        got = validate_solution(inst, sol)
        assert [v.kind for v in got] == ["schedule"] * len(sol.trips)
        assert all("departure is not service start + sigma" in v.detail for v in got)

    def test_duplicated_request(self):
        inst = three_request_instance()
        sim = Simulator(inst)
        t1 = sim.build_trip((1,))
        t2 = sim.build_trip((1, 2))
        sol = Solution((t1, t2), frozenset({3}), 0, 0, 0)
        kinds = {v.kind for v in validate_solution(inst, sol)}
        assert "partition" in kinds

    def test_a_trip_that_cannot_be_scheduled_is_a_partition_violation(self):
        # an empty trip, an unknown request and a repeated one are reported
        # with the trip's index, and the trip's distance and schedule go
        # unchecked, where they once raised
        inst = gh_instance("gh_mini")
        ids = {r.id for r in inst.requests}
        first = min(ids)
        assert 99 not in ids
        for requests, partition, trip_fault in (
            ((), [], "no request"),
            ((99,), ["unknown request 99"], "unknown request 99"),
            ((first, first), [f"request {first} appears 2 times"], f"request {first} repeated"),
        ):
            bank = frozenset(ids - set(requests))
            sol = Solution((Trip(requests, 0, 0),), bank, 0, 0, 0)
            assert validate_solution(inst, sol) == [
                *(Violation("partition", p) for p in partition),
                Violation("partition", f"trip 0: {trip_fault}", 0),
            ], requests

    def test_a_given_simulator_finds_the_same_violations(self):
        # validate_solution compiles its own simulator unless handed one
        inst = three_request_instance()
        sim = Simulator(inst)
        tight = dataclasses.replace(inst, mu_d10=10**6)
        t1, t12 = sim.build_trip((1,)), sim.build_trip((1, 2))
        t321 = Trip((3, 2, 1), *trip_distances(inst, (3, 2, 1)))  # not schedulable
        for instance, sol in (
            (inst, Solution((t321,), frozenset(), 0, 0, 0)),
            (tight, Solution((t12,), frozenset({3}), 0, 0, 0)),
            (inst, Solution((t1, t12, Trip((), 0, 0)), frozenset({3}), 0, 0, 0)),
            (inst, Solution((dataclasses.replace(t12, empty_d10=0), t1), frozenset(), 0, 0, 0)),
        ):
            fresh = validate_solution(instance, sol)
            assert fresh, sol
            assert validate_solution(instance, sol, Simulator(instance)) == fresh


class TestTripDistances:
    def test_decomposition_matches_rewalk(self):
        inst = three_request_instance()
        seq = (1, 2, 3)
        loaded, empty = trip_distances(inst, seq)
        dist = inst.matrix.distance
        assert loaded == dist[0][1] + dist[2][3] + dist[4][5]
        assert empty == dist[1][2] + dist[3][4]

    def test_partition_property_multiset(self):
        inst = micro_instance(11)
        from ftlopt.operators import InsertionEvaluator, build_initial

        sol = build_initial(InsertionEvaluator(Simulator(inst)))
        seen = sorted(sol.planned_ids() + sorted(sol.bank))
        assert seen == sorted(r.id for r in inst.requests)
