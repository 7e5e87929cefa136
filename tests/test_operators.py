import os
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import accumulate, islice

from hypothesis import given, settings, strategies as st

from ftlopt import engine
from ftlopt.model import (
    CostModel,
    Horizon,
    Instance,
    RegParams,
    Request,
    TimeWindow,
    TravelMatrix,
    trip_distances,
)
from ftlopt.operators import (
    PSI,
    REMOVAL_OPERATORS,
    XI,
    InsertionEvaluator,
    Wheel,
    _roulette_without_replacement,
    _regret_value,
    build_initial,
    removal_count,
    remove_random_routes,
    remove_random_shipments,
    remove_shaw,
    remove_stop_routes,
    remove_time_routes,
    remove_time_shipments,
    repair,
)
from ftlopt.instances import parse_gh, transform
from ftlopt.scenarios import fct_instance
from ftlopt.schedule import Infeasible, Simulator, simulate_trip

from helpers import fleet_instance, kernel_case, micro_instance

DATA = os.path.join(os.path.dirname(__file__), "data")


def line_instance(n_req=4, gap=50, sm_level=2.0, mu=0):
    """Requests chained along a line so every consecutive pair is feasible."""
    pts = []
    x = 0
    for _ in range(n_req):
        pts.append(x)
        pts.append(x + 300)
        x += 300 + gap
    n = len(pts)
    dist = [[abs(pts[i] - pts[j]) * 10 for j in range(n)] for i in range(n)]
    matrix = TravelMatrix.from_distances(dist, 70)
    cost = CostModel()
    days = 12
    reqs = []
    for rid in range(1, n_req + 1):
        o, d = 2 * rid - 2, 2 * rid - 1
        day = rid - 1  # staggered pickup days keep long chains schedulable
        pw = TimeWindow(day * 1440 + 360, day * 1440 + 1080)
        dws = tuple(TimeWindow(dd * 1440 + 360, dd * 1440 + 1080) for dd in range(day, days))
        price = max(1, int(cost.sm_price(dist[o][d]) * sm_level))
        reqs.append(Request(rid, o, d, pw, dws, price))
    inst = Instance(tuple(reqs), matrix, cost, RegParams(), mu, Horizon(0, days))
    inst.check()
    return inst


def planned_solution(inst, groups):
    sim = Simulator(inst)
    trips = []
    for g in groups:
        t = sim.build_trip(g)
        assert t is not None, g
        trips.append(t)
    planned = {r for g in groups for r in g}
    bank = frozenset(r.id for r in inst.requests) - planned
    veh = inst.cost.vehicle_cost(sum(t.total_d10 for t in trips))
    out = sum(inst.request(r).sm_price_cents for r in bank)
    from ftlopt.model import Solution

    return Solution(tuple(trips), bank, veh, out, veh + out), sim


def roulette_scan(weights, rng):
    """The weighted draw as a scan of the running sum, transcribed from the
    loop that the wheels replaced: the reference of Wheel.spin."""
    total = sum(weights)
    if not total:
        return int(rng.random() * len(weights))
    shot = rng.random() * total
    acc = 0.0
    for i, w in enumerate(weights):
        acc += w
        if shot < acc:
            return i
    return len(weights) - 1


def scan_without_replacement(weights, rng):
    alive = list(range(len(weights)))
    while alive:
        yield alive.pop(roulette_scan([weights[i] for i in alive], rng))


class Stream:
    """A stub stream that returns one number again and again."""

    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


WEIGHTS = st.floats(min_value=1e-300, max_value=1e9)
WEIGHT_LISTS = st.one_of(
    st.lists(st.one_of(st.just(0.0), WEIGHTS), min_size=1, max_size=12),
    st.lists(st.just(0.0), min_size=1, max_size=12),
)


class TestWheel:
    @settings(max_examples=500, deadline=None)
    @given(WEIGHT_LISTS, st.integers(0, 2**64))
    def test_a_spin_is_the_scan_with_one_random_number(self, weights, seed):
        rng, ref, once = random.Random(seed), random.Random(seed), random.Random(seed)
        assert Wheel(weights).spin(rng) == roulette_scan(weights, ref)
        once.random()
        assert rng.getstate() == ref.getstate() == once.getstate()

    @settings(max_examples=200, deadline=None)
    @given(WEIGHT_LISTS)
    def test_the_top_of_the_range_draws_as_the_scan(self, weights):
        # the highest shot lands on the first running sum that reaches the
        # total; the last index absorbs a shot past the last running sum,
        # which a sum() that rounds apart from the running sums would make
        top = Stream(1 - 2**-53)  # the largest number random() returns
        assert Wheel(weights).spin(top) == roulette_scan(weights, top)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 4).map(float), min_size=1, max_size=8), st.data())
    def test_a_shot_on_a_running_sum_draws_as_the_scan(self, weights, data):
        # whole weights and a shot on one of their running sums: the draw
        # passes every index whose running sum is the shot, zeros included;
        # a shot on the last sum (a stub's 1.0) goes to the last index
        total = sum(weights)
        acc = data.draw(st.sampled_from(list(accumulate(weights))))
        shot = Stream(acc / total if total else 0.5)
        assert Wheel(weights).spin(shot) == roulette_scan(weights, shot)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(WEIGHTS, min_size=1, max_size=10), st.integers(0, 10), st.integers(0, 2**64))
    def test_draws_without_replacement_are_the_scans(self, weights, stop, seed):
        # also when the caller stops early, both leave the stream alike
        rng, ref = random.Random(seed), random.Random(seed)
        got = list(islice(_roulette_without_replacement(weights, rng), stop))
        assert got == list(islice(scan_without_replacement(weights, ref), stop))
        assert rng.getstate() == ref.getstate()
        assert len(got) == min(stop, len(weights)) and len(set(got)) == len(got)


class TestRemovalCount:
    def test_table_values(self):
        assert (PSI, Fraction(*XI)) == (100, Fraction("0.35"))
        assert removal_count(100) == 35
        assert removal_count(1000) == 100
        assert removal_count(2) == 1
        assert removal_count(0) == 0

    def test_exact_ceiling_no_float_drift(self):
        assert removal_count(20) == 7  # not 8
        for planned in range(1, 400):
            assert removal_count(planned) == min(100, -(-35 * planned // 100)), planned


class TestRouteRemoval:
    def test_single_trip_removed_whole(self):
        inst = line_instance(3)
        sol, sim = planned_solution(inst, [(1, 2, 3)])
        trips, removed = remove_random_routes(sim, sol, 2, random.Random(1))
        assert trips == []
        assert sorted(removed) == [1, 2, 3]

    def test_empty_plan_yields_empty_removal(self):
        inst = line_instance(2)
        sol, sim = planned_solution(inst, [])
        trips, removed = remove_random_routes(sim, sol, 3, random.Random(1))
        assert trips == [] and removed == []

    def test_seeded_determinism(self):
        inst = line_instance(4)
        sol, sim = planned_solution(inst, [(1, 2), (3,), (4,)])
        a = remove_random_routes(sim, sol, 2, random.Random(9))
        b = remove_random_routes(sim, sol, 2, random.Random(9))
        assert a[1] == b[1]
        assert [t.requests for t in a[0]] == [t.requests for t in b[0]]

    def test_time_weighted_frequency(self):
        # two routes with travel times ~100 and ~300 minutes: the longer one
        # is picked ~75% of the time
        inst = line_instance(2, gap=50)
        sol, sim = planned_solution(inst, [(1,), (2,)])
        t0 = sum(sim.time[sim.origin[1]][sim.dest[1]] for _ in (1,))
        rng = random.Random(5)
        from ftlopt.operators import _route_travel_time

        w = [_route_travel_time(sim, t) for t in sol.trips]
        expect = w[1] / (w[0] + w[1])
        hits = 0
        n = 4000
        for _ in range(n):
            _trips, removed = remove_time_routes(sim, sol, 1, rng)
            if removed == [2]:
                hits += 1
        assert abs(hits / n - expect) < 0.03

    def test_stop_weighted_frequency(self):
        inst = line_instance(4)
        sol, sim = planned_solution(inst, [(1,), (2, 3, 4)])
        rng = random.Random(6)
        hits = 0
        n = 4000
        for _ in range(n):
            _trips, removed = remove_stop_routes(sim, sol, 1, rng)
            if removed == [1]:
                hits += 1
        assert abs(hits / n - 0.75) < 0.03  # weights 1/1 vs 1/3


class TestShipmentRemoval:
    def test_remove_all_planned(self):
        inst = line_instance(3)
        sol, sim = planned_solution(inst, [(1, 2, 3)])
        trips, removed = remove_random_shipments(sim, sol, 3, random.Random(2))
        assert trips == [] and sorted(removed) == [1, 2, 3]

    def test_rsr_determinism(self):
        inst = line_instance(4)
        sol, sim = planned_solution(inst, [(1, 2, 3, 4)])
        a = remove_random_shipments(sim, sol, 2, random.Random(3))
        b = remove_random_shipments(sim, sol, 2, random.Random(3))
        assert a[1] == b[1]

    def test_tsr_prefers_surrounded_by_deadhead(self):
        # request 2 sits between larger deadheads than request 1
        pts = [0, 300, 800, 1100, 1150, 1450]
        n = len(pts)
        dist = [[abs(pts[i] - pts[j]) * 10 for j in range(n)] for i in range(n)]
        matrix = TravelMatrix.from_distances(dist, 70)
        cost = CostModel()
        days = 12
        reqs = []
        for rid in range(1, 4):
            o, d = 2 * rid - 2, 2 * rid - 1
            day = rid - 1
            dws = tuple(TimeWindow(dd * 1440 + 360, dd * 1440 + 1080) for dd in range(day, days))
            reqs.append(Request(rid, o, d, TimeWindow(day * 1440 + 360, day * 1440 + 1080), dws, 100_000))
        inst = Instance(tuple(reqs), matrix, cost, RegParams(), 0, Horizon(0, days))
        sol, sim = planned_solution(inst, [(1, 2, 3)])
        rng = random.Random(11)
        counts = {1: 0, 2: 0, 3: 0}
        for _ in range(3000):
            _t, removed = remove_time_shipments(sim, sol, 1, rng)
            counts[removed[0]] += 1
        assert counts[2] > counts[1] and counts[2] > counts[3]


class TestShaw:
    def test_identical_requests_removed_together(self):
        # two co-located same-window requests, one distant different-window
        pts = [(0, 0), (300, 0), (0, 1), (300, 1), (5000, 5000), (5300, 5000)]
        from helpers import euclid_d10

        dist = euclid_d10(pts)
        matrix = TravelMatrix.from_distances(dist, 70)
        cost = CostModel()
        days = 12
        dws = tuple(TimeWindow(dd * 1440 + 360, dd * 1440 + 1080) for dd in range(days))
        far_dws = tuple(TimeWindow(dd * 1440 + 360, dd * 1440 + 1080) for dd in range(3, days))
        reqs = (
            Request(1, 0, 1, TimeWindow(360, 1080), dws, 100_000),
            Request(2, 2, 3, TimeWindow(360, 1080), dws, 100_000),
            Request(3, 4, 5, TimeWindow(3 * 1440 + 360, 3 * 1440 + 1080), far_dws, 100_000),
        )
        inst = Instance(reqs, matrix, cost, RegParams(), 0, Horizon(0, days))
        sol, sim = planned_solution(inst, [(1,), (2,), (3,)])
        for seed in range(20):
            _t, removed = remove_shaw(sim, sol, 2, random.Random(seed))
            assert sorted(removed) in ([1, 2], [1, 3], [2, 3])
            if sorted(removed) != [1, 2]:
                # only possible when the seed request itself was request 3
                assert 3 in removed

    def test_tw_only_variant_ignores_geometry(self):
        from ftlopt.operators import shaw_relatedness

        inst = line_instance(2)
        d_max = inst.matrix.max_distance()
        h = inst.horizon.end_minute
        # co-located but day-apart: geometric variant sees them as closer
        # than the windows alone do
        assert shaw_relatedness(inst, d_max, h, 1, 2, "tw") == 1440 / h
        spatial = shaw_relatedness(inst, d_max, h, 1, 2, "distance_tw") - 1440 / h
        assert spatial > 0.0
        # identical-window pairs have zero tw relatedness whatever the map says
        assert shaw_relatedness(inst, d_max, h, 1, 1, "tw") == 0.0

    def test_rank_tables_follow_the_relatedness_order(self):
        from ftlopt.instances import parse_gh, transform
        from ftlopt.operators import _shaw_ranks, shaw_relatedness

        path = os.path.join(os.path.dirname(__file__), "data", "gh_syn_mix.txt")
        with open(path, "r", encoding="utf-8") as fh:
            mix = transform(parse_gh(fh.read()))
        for inst in [micro_instance(seed) for seed in range(20)] + [line_instance(4), mix]:
            sim = Simulator(inst)
            d_max = inst.matrix.max_distance()
            h = inst.horizon.end_minute
            ids = [r.id for r in inst.requests]
            for variant in ("distance_tw", "tw"):
                ranks = _shaw_ranks(sim, variant)
                for ref in ids:
                    order = sorted(
                        ids, key=lambda rid: (shaw_relatedness(inst, d_max, h, ref, rid, variant), rid)
                    )
                    assert ranks[ref] == {rid: i for i, rid in enumerate(order)}, (variant, ref)

    def test_draw_at_shaw_p_reaches_beyond_the_most_related(self):
        # the second pick is at rank floor(u**SHAW_P * 3) of the relatedness
        # order: mostly the most related request, but not always
        from ftlopt.operators import _shaw_ranks

        inst = line_instance(4)
        sol, sim = planned_solution(inst, [(1, 2, 3, 4)])
        ranks = _shaw_ranks(sim, "distance_tw")
        drawn = []
        for seed in range(200):
            _t, removed = remove_shaw(sim, sol, 2, random.Random(seed))
            first, second = removed[:2]
            pool = sorted(set(sol.planned_ids()) - {first}, key=ranks[first].__getitem__)
            drawn.append(pool.index(second))
        assert set(drawn) > {0}
        assert drawn.count(0) > len(drawn) / 2


class TestRepair:
    def test_insert_when_cheaper_than_outsourcing(self):
        inst = line_instance(2, gap=10, sm_level=2.0)
        sol, sim = planned_solution(inst, [(1,)])
        out = repair(InsertionEvaluator(sim), list(sol.trips), [2], 0)
        assert out.planned_count == 2
        assert not out.bank

    def test_bank_when_all_infeasible_and_under_mu(self):
        # second pickup window closes before any vehicle can reach it
        pts = [0, 300, 10_000, 10_300]
        dist = [[abs(a - b) * 10 for b in pts] for a in pts]
        matrix = TravelMatrix.from_distances(dist, 70)
        cost = CostModel()
        dws = tuple(TimeWindow(dd * 1440 + 360, dd * 1440 + 1080) for dd in range(12))
        reqs = (
            Request(1, 0, 1, TimeWindow(360, 1080), dws, 100_000),
            Request(2, 2, 3, TimeWindow(360, 481), (TimeWindow(360, 1080),), 100_000),
        )
        inst = Instance(reqs, matrix, cost, RegParams(), 99_000_000, Horizon(0, 12))
        sim = Simulator(inst)
        base = sim.build_trip((1,))
        out = repair(InsertionEvaluator(sim), [base], [2], 0)
        assert 2 in out.bank

    def test_regret_formula_example(self):
        assert _regret_value([10, 14, 19], k=3, cap=100) == (14 - 10) + (19 - 10)
        assert _regret_value([10], k=3, cap=100) == (100 - 10) * 2

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(-10**6, 10**6), max_size=8), st.integers(-10**6, 10**6), st.data())
    def test_regret_value_equals_the_padded_reference(self, values, cap, data):
        # the closed form counts the missing routes at cap without a list of
        # k entries, also when cap is below the cheapest cost
        from test_repair_reference import regret

        k = data.draw(st.integers(2, len(values) + 5))
        assert _regret_value(values, k, cap) == regret(values, k, cap)

    def test_never_inserts_at_delta_equal_to_price(self):
        # craft delta == s_r exactly: must go to the new-trip/bank branch
        inst = line_instance(2, gap=10)
        sim = Simulator(inst)
        base = sim.build_trip((1,))
        delta = sim.best_insertion(base, 2)[0]
        price = inst.cost.kappa_cents * delta // 10
        if (inst.cost.kappa_cents * delta) % 10 == 0:
            import dataclasses

            reqs = tuple(
                dataclasses.replace(r, sm_price_cents=price) if r.id == 2 else r
                for r in inst.requests
            )
            tight = dataclasses.replace(inst, requests=reqs)
            sim2 = Simulator(tight)
            base2 = sim2.build_trip((1,))
            out = repair(InsertionEvaluator(sim2), [base2], [2], 0)
            for t in out.trips:
                assert t.requests in ((1,), (2,))  # rode alone or banked, never together

    def test_closure_property(self):
        for seed in range(12):
            inst = micro_instance(seed)
            sol = build_initial(InsertionEvaluator(Simulator(inst)))
            sim = Simulator(inst)
            rng = random.Random(seed)
            for name in ("rrr", "rsr", "shaw", "tsr"):
                trips, removed = REMOVAL_OPERATORS[name](sim, sol, 2, rng)
                fixed = repair(InsertionEvaluator(sim), trips, {*sol.bank, *removed}, 4)
                seen = sorted(fixed.planned_ids() + sorted(fixed.bank))
                assert seen == sorted(r.id for r in inst.requests)

    def test_removal_bound_property(self):
        for seed in range(12):
            inst = micro_instance(seed, mu_mode="small")
            sol = build_initial(InsertionEvaluator(Simulator(inst)))
            if sol.planned_count == 0:
                continue
            sim = Simulator(inst)
            q = removal_count(sol.planned_count)
            assert q == min(100, -(-35 * sol.planned_count // 100))
            biggest = max(len(t.requests) for t in sol.trips)
            for name, op in REMOVAL_OPERATORS.items():
                trips, removed = op(sim, sol, q, random.Random(seed))
                assert 1 <= len(removed) <= q + biggest - 1 or len(removed) == sol.planned_count

    def test_sub_mu_trips_dissolved(self):
        inst = line_instance(3, gap=10, sm_level=2.0, mu=99_000_000)
        out = build_initial(InsertionEvaluator(Simulator(inst)))
        assert out.trips == ()
        assert len(out.bank) == 3


class TestBuildInitial:
    def test_all_banked_when_vehicles_unprofitable(self):
        inst = line_instance(3, gap=4000, sm_level=0.5)
        out = build_initial(InsertionEvaluator(Simulator(inst)))
        assert out.planned_count == 0
        assert out.cost_total == sum(r.sm_price_cents for r in inst.requests)

    def test_single_request_served_when_profitable(self):
        inst = line_instance(1, sm_level=2.0, mu=0)
        out = build_initial(InsertionEvaluator(Simulator(inst)))
        assert [t.requests for t in out.trips] == [(1,)]

    def test_never_worse_than_all_outsourced(self):
        for seed in range(20):
            inst = micro_instance(seed)
            out = build_initial(InsertionEvaluator(Simulator(inst)))
            assert out.cost_total <= sum(r.sm_price_cents for r in inst.requests)


class TestEvaluatorConsistency:
    def test_cached_equals_fresh(self):
        for seed in range(10):
            inst = micro_instance(seed)
            sim = Simulator(inst)
            warm = InsertionEvaluator(sim)
            sol = build_initial(InsertionEvaluator(Simulator(inst)))
            rng = random.Random(seed)
            trips, removed = remove_random_shipments(sim, sol, 2, rng)
            a = repair(warm, trips, {*sol.bank, *removed}, 4)
            b = repair(InsertionEvaluator(sim), trips, {*sol.bank, *removed}, 4)
            assert a == b
            c = repair(warm, trips, {*sol.bank, *removed}, 4)
            assert a == c

    def test_matrix_matches_naive_scan(self):
        # the lazily cached cells equal a brute position scan
        for seed in range(8):
            inst = micro_instance(seed)
            sim = Simulator(inst)
            ev = InsertionEvaluator(sim)
            sol = build_initial(InsertionEvaluator(Simulator(inst)))
            for trip in sol.trips:
                for r in inst.requests:
                    if r.id in trip.requests:
                        continue
                    assert ev.cell(r.id, trip) == naive_cell(sim, trip, r.id)

    def test_cell_fits_behind_a_spliced_request(self):
        # non-metric times: R (3) cannot follow A (1) directly, since A's
        # delivery to R's pickup takes 2,000 minutes, and cannot go first,
        # since A's pickup closes before R's opens; R fits only after N (2)
        # once N is spliced in behind A
        time = [[0 if i == j else 30 for j in range(6)] for i in range(6)]
        time[1][4] = 2000
        dist = [[0 if i == j else 100 for j in range(6)] for i in range(6)]
        matrix = TravelMatrix(6, tuple(map(tuple, dist)), tuple(map(tuple, time)))
        wide = (TimeWindow(0, 4000),)
        requests = (
            Request(1, 0, 1, TimeWindow(360, 480), wide, 5000),
            Request(2, 2, 3, TimeWindow(360, 1080), wide, 5000),
            Request(3, 4, 5, TimeWindow(600, 1080), wide, 5000),
        )
        inst = Instance(requests, matrix, CostModel(), RegParams(), 0, Horizon(0, 3))
        inst.check()
        sim = Simulator(inst)
        ev = InsertionEvaluator(sim)
        a = sim.build_trip((1,))
        assert ev.cell(3, a) is None
        an = sim.splice_trip(a, 2, 1)
        want = naive_cell(sim, an, 3)
        assert want is not None and want[1] == 2
        assert ev.cell(3, an) == want
        assert InsertionEvaluator(sim).column([3], an) == [want]

    def test_cell_fits_after_a_splice_shortens_the_trip(self):
        # non-metric times: A (1) ends at location 1, from which B's pickup (4)
        # and R's pickup (6) take 2,000 minutes, as does R's delivery (7) to
        # B's pickup.  R (4) fits nowhere in [A, B], but once X (3) sits
        # between them the detour A -> X -> B is far shorter than A -> B, so R
        # fits after B, away from X's two flanks.
        time = [[0 if i == j else 30 for j in range(8)] for i in range(8)]
        time[1][4] = time[1][6] = time[7][4] = 2000
        dist = [[0 if i == j else 100 for j in range(8)] for i in range(8)]
        matrix = TravelMatrix(8, tuple(map(tuple, dist)), tuple(map(tuple, time)))
        week = (TimeWindow(0, 10080),)
        requests = (
            Request(1, 0, 1, TimeWindow(360, 480), week, 5000),
            Request(2, 4, 5, TimeWindow(360, 7000), week, 5000),
            Request(3, 2, 3, TimeWindow(360, 1080), week, 5000),
            Request(4, 6, 7, TimeWindow(1200, 2000), week, 5000),
        )
        inst = Instance(requests, matrix, CostModel(), RegParams(), 0, Horizon(0, 7))
        inst.check()
        sim = Simulator(inst)
        ev = InsertionEvaluator(sim)
        ab = sim.build_trip((1, 2))
        assert ev.cell(4, ab) is None
        axb = sim.splice_trip(ab, 3, 1)
        assert sim.best_insertion(axb, 4, (1, 2)) is None
        assert naive_cell(sim, axb, 4) == (200, 3)
        assert ev.cell(4, axb) == (200, 3)
        assert InsertionEvaluator(sim).column([4], axb) == [(200, 3)]

    def test_cell_fits_after_a_splice_saves_a_rest(self):
        # R (4) fits nowhere in [A, C] (1, 3).  Splicing B (2) between them
        # replaces the leg 1 -> 4 (685 minutes) with 1 -> 2 -> 3 -> 4 (100 +
        # 90 + 275 minutes): no shorter in wall time once B's two 120-minute
        # operations count, but 220 minutes less driving.  Behind R, the
        # direct leg takes two 990-minute rests and the detour one, so R
        # fits first in [A, B, C].
        time = (
            (0, 67, 258, 356, 29, 250, 78, 271),
            (124, 0, 100, 107, 685, 233, 37, 464),
            (495, 383, 0, 90, 592, 70, 163, 89),
            (136, 288, 275, 0, 315, 146, 488, 47),
            (166, 485, 204, 33, 0, 121, 456, 75),
            (362, 173, 483, 422, 263, 0, 318, 317),
            (421, 188, 93, 326, 339, 233, 0, 208),
            (49, 50, 454, 201, 528, 331, 155, 0),
        )
        matrix = TravelMatrix(8, time, time)
        windows = ((2060, 3258, 2807, 3043), (2949, 4112, 3356, 4447),
                   (4132, 5429, 5746, 6535), (1719, 2402, 2215, 3583))
        requests = tuple(
            Request(k, 2 * k - 2, 2 * k - 1, TimeWindow(ps, pe), (TimeWindow(ds, de),), 5000)
            for k, (ps, pe, ds, de) in enumerate(windows, 1)
        )
        inst = Instance(requests, matrix, CostModel(), RegParams(), 0, Horizon(0, 6))
        inst.check()
        sim = Simulator(inst)
        ev = InsertionEvaluator(sim)
        ac = sim.build_trip((1, 3))
        assert ev.cell(4, ac) is None
        abc = sim.splice_trip(ac, 2, 1)
        assert naive_cell(sim, abc, 4) == (257, 0)
        assert ev.cell(4, abc) == (257, 0)
        assert InsertionEvaluator(sim).column([4], abc) == [(257, 0)]

    def test_lineage_cells_match_naive_scan_on_generated_splices(self):
        # every trip on a splice lineage: reachable by feasible splices from
        # the single-request trips of a kernel case (time matrices without
        # the triangle inequality)
        reached = Counter()
        naive = {}
        for seed in range(600):
            inst, _seq = kernel_case(seed)
            for sim, ev, walk in warm_and_cleared_walks(inst):
                ids = [r.id for r in inst.requests]
                for trip in walk:
                    for rid in ids:
                        if rid in trip.requests:
                            continue
                        want = cached_naive_cell(naive, sim, trip, rid)
                        assert ev.cell(rid, trip) == want, (seed, trip.requests, rid)
                        walk.splice_all(trip, rid)
                reached["head hits"] += walk.head_hits
                reached["cleared"] += walk.cleared
            naive.clear()
        assert reached["head hits"] and reached["cleared"], reached

    def test_columns_match_naive_scan_on_generated_splices(self):
        # columns over trips reachable by feasible splices, as above, each
        # asked after a random part of it was cached one cell at a time, so
        # one call mixes cached and fresh requests
        rng = random.Random(7)
        reached = Counter()
        naive = {}
        for seed in range(300):
            inst, _seq = kernel_case(seed)
            for sim, ev, walk in warm_and_cleared_walks(inst):
                ids = [r.id for r in inst.requests]
                for trip in walk:
                    rids = [rid for rid in ids if rid not in trip.requests]
                    for rid in rng.sample(rids, rng.randint(0, len(rids))):
                        ev.cell(rid, trip)
                    rng.shuffle(rids)
                    cached = ev.cells.get(trip.requests, {})
                    fresh = [rid for rid in rids if rid not in cached]
                    reached["mixed"] += 0 < len(fresh) < len(rids)
                    want = [cached_naive_cell(naive, sim, trip, rid) for rid in rids]
                    assert ev.column(rids, trip) == want, (seed, trip.requests, rids)
                    for rid in rids:
                        walk.splice_all(trip, rid)
                reached["head hits"] += walk.head_hits
                reached["cleared"] += walk.cleared
            naive.clear()
        assert reached["mixed"], reached
        assert reached["head hits"] and reached["cleared"], reached

    def test_exact_head_screen_drops_only_unschedulable_splices(self):
        # all-fct gh_syn_c1, the trips of a short search: per trip, request
        # and inner position, best_insertions runs _head and then tests the
        # next pickup's latest start from the exact delivery frontier before
        # it propagates the suffix.  Each time that test fires, the splice
        # has no schedule, and every request it fired for gets the cell of a
        # from-scratch simulation of every splice
        with open(os.path.join(DATA, "gh_syn_c1.txt"), encoding="utf-8") as fh:
            inst = fct_instance(transform(parse_gh(fh.read())))
        best, _ = engine.run(inst, engine.AlnsConfig(seed=2, max_iterations=30))
        sim = Simulator(inst)
        head, advance = sim._head, sim._advance
        log = []

        def logged_head(*args):
            got = head(*args)
            log.append(got)
            return got

        def logged_advance(*args):
            # _head propagates its two nodes with three arguments; a suffix
            # propagation passes the cached frontiers and a start as well
            if len(args) > 3:
                log.append("suffix")
            return advance(*args)

        sim._head, sim._advance = logged_head, logged_advance
        fired = Counter()
        heads = 0
        for trip in best.trips:
            n = len(trip.requests)
            for r in inst.requests:
                if r.id in trip.requests:
                    continue
                for pos in range(n):
                    log.clear()
                    got = sim.best_insertions(trip, [(r.id, (pos,))])[0]
                    if not log or log[0] is None:
                        continue
                    heads += 1
                    if len(log) == 1:
                        assert got is None, (trip.requests, r.id, pos)
                        seq = trip.requests[:pos] + (r.id,) + trip.requests[pos:]
                        assert isinstance(simulate_trip(inst, seq), Infeasible), seq
                        fired[trip, r.id] += 1
        assert sum(fired.values()) >= 20 and heads > sum(fired.values()), (heads, fired)
        for trip, rid in fired:
            assert sim.best_insertions(trip, [(rid, None)])[0] == naive_cell(sim, trip, rid)


class TestInterning:
    def test_a_search_stores_each_frontier_and_cell_once(self, monkeypatch):
        # after an all-fct search whose minimum distance forces bundles,
        # every frontier of a cached trip or head, every head key and every
        # cached cell is the simulator's table's own object, so equal values
        # are stored once, and clearing the caches empties the table
        made = []

        class Recorded(InsertionEvaluator):
            def __init__(self, sim):
                super().__init__(sim)
                made.append(self)

        monkeypatch.setattr(engine, "InsertionEvaluator", Recorded)
        for seed in range(3):
            inst = fct_instance(fleet_instance(seed))
            longest = max(inst.direct_d10(r.id) for r in inst.requests)
            inst = replace(inst, mu_d10=3 * longest)
            engine.run(inst, engine.AlnsConfig(seed=seed, max_iterations=100))
            ev = made[-1]
            sim, table = ev.sim, ev.sim._interned
            fronts = [f for t in sim._trips.values() if t is not None for f in t.frontiers]
            heads = [
                head
                for by_loc in sim._heads.values()
                for by_rid in by_loc.values()
                for head in by_rid.values()
                if head is not None
            ]
            keys = [f for f in sim._heads if f is not None]
            cells = [got for col in ev.cells.values() for got in col.values() if got is not None]
            assert len(fronts) > 500 and len(cells) > 200, (seed, len(fronts), len(cells))
            for value in fronts + heads + keys + cells:
                assert table.get(value) is value, (seed, value)
            once = {}
            for f in fronts:
                assert once.setdefault(f, f) is f, (seed, f)
            ev.clear()
            assert not table and not sim._trips and not sim._heads


class SpliceWalk:
    """The trips reachable by feasible splices from an instance's
    single-request trips, each visited once.

    Iterating pops trips depth first; with `clear_at`, the simulator's
    caches are dropped (and checked empty) once that many trips were
    popped.  `head_hits` counts the splice heads found in the simulator's
    memo.
    """

    def __init__(self, sim, clear_at=None):
        self.sim, self.clear_at = sim, clear_at
        self.popped = self.head_hits = 0
        self.cleared = False
        ids = [r.id for r in sim.instance.requests]
        self.todo = [t for t in (sim.build_trip((rid,)) for rid in ids) if t is not None]
        self.seen = set()
        head = sim._head

        def counted(frontier, prev_loc, rid):
            self.head_hits += rid in sim._heads.get(frontier, {}).get(prev_loc, {})
            return head(frontier, prev_loc, rid)

        sim._head = counted

    def __iter__(self):
        while self.todo:
            if self.popped == self.clear_at:
                self.sim.clear_caches()
                assert not self.sim._heads and not self.sim._interned
                self.cleared = True
            self.popped += 1
            yield self.todo.pop()

    def splice_all(self, trip, rid):
        for pos in range(len(trip.requests) + 1):
            new = self.sim.splice_trip(trip, rid, pos)
            if new is not None and new.requests not in self.seen:
                self.seen.add(new.requests)
                self.todo.append(new)


def warm_and_cleared_walks(inst):
    """(simulator, evaluator, walk) twice over one instance: once with the
    simulator's caches warm for the whole walk, then on a fresh simulator
    whose caches are dropped halfway through the same walk."""
    sim = Simulator(inst)
    ev = InsertionEvaluator(sim)
    walk = SpliceWalk(sim)
    yield sim, ev, walk
    sim = Simulator(inst)
    ev = InsertionEvaluator(sim)
    yield sim, ev, SpliceWalk(sim, clear_at=walk.popped // 2)


def cached_naive_cell(naive, sim, trip, rid):
    key = (trip.requests, rid)
    if key not in naive:
        naive[key] = naive_cell(sim, trip, rid)
    return naive[key]


def naive_cell(sim, trip, rid):
    """Cheapest (delta_d10, pos) over a from-scratch simulation of every splice."""
    best = None
    for pos in range(len(trip.requests) + 1):
        seq = trip.requests[:pos] + (rid,) + trip.requests[pos:]
        if not isinstance(simulate_trip(sim.instance, seq), Infeasible):
            delta = sum(trip_distances(sim.instance, seq)) - trip.total_d10
            if best is None or (delta, pos) < best:
                best = (delta, pos)
    return best
