"""Cross-validation of the scheduling kernel against the exhaustive oracle.

The oracle explores every rest placement at minute granularity, including
rests taken before the counter is full, so agreement here pins both the
optimality and the legality of the fast kernel.
"""

import random
from collections import Counter
from itertools import permutations

from ftlopt.model import (
    CostModel,
    Horizon,
    Instance,
    RegParams,
    Request,
    TimeWindow,
    TravelMatrix,
)
from ftlopt.oracle import (
    brute_force_frontiers,
    brute_force_schedule,
    check_schedule_rules,
    check_sunday_rests,
)
from ftlopt.schedule import Infeasible, Simulator, simulate_trip

from helpers import blackout_pickup, kernel_case, trip_case


def oracle_minutes(instance, seq):
    return brute_force_schedule(seq, instance)


def test_forced_break_leg_value():
    # 500 driving minutes with an open window: 450 + break + 50
    dist = [[0, 4000], [4000, 0]]  # 400 km -> 343 min... use exact: craft 500-min leg
    # largest d10 with ceil(d10*6/70) == 500
    d = 500 * 70 // 6
    while -(-d * 6 // 70) > 500:
        d -= 1
    dist = [[0, d], [d, 0]]
    matrix = TravelMatrix.from_distances(dist, 70)
    req = Request(1, 0, 1, TimeWindow(0, 10_000), (TimeWindow(0, 12_000),), 1000)
    inst = Instance((req,), matrix, CostModel(), RegParams(sigma=0), 0, Horizon(0, 9))
    sched = simulate_trip(inst, (1,))
    assert sched.nodes[-1].service_start == 450 + 990 + 50
    assert oracle_minutes(inst, (1,)) == 1490


def test_rest_early_case_matches_oracle():
    # an early rest turns a just-missed window into a well-rested arrival;
    # the kernel must find the same completion time as the oracle
    def d10_for_minutes(m):
        d = m * 70 // 6
        while -(-d * 6 // 70) > m:
            d -= 1
        return d

    D = [[0] * 4 for _ in range(4)]

    def setd(i, j, minutes):
        D[i][j] = D[j][i] = d10_for_minutes(minutes)

    setd(0, 1, 440)
    setd(1, 2, 461)
    setd(2, 3, 10)
    setd(0, 2, 100)
    setd(0, 3, 100)
    setd(1, 3, 100)
    matrix = TravelMatrix.from_distances(D, 70)
    r1 = Request(1, 0, 1, TimeWindow(0, 10_000), (TimeWindow(1549, 18_000),), 10_000)
    r2 = Request(2, 2, 3, TimeWindow(0, 18_000), (TimeWindow(0, 18_000),), 10_000)
    inst = Instance((r1, r2), matrix, CostModel(), RegParams(), 0, Horizon(0, 14))
    sched = simulate_trip(inst, (1, 2))
    want = oracle_minutes(inst, (1, 2))
    assert sched.nodes[-1].service_start == want == 3251


def test_randomized_against_oracle():
    rng = random.Random(777)
    feasible = 0
    for case in range(250):
        inst, seq = trip_case(rng.randrange(10_000_000))
        got = simulate_trip(inst, seq)
        want = oracle_minutes(inst, seq)
        got_bad = isinstance(got, Infeasible)
        want_bad = isinstance(want, Infeasible)
        assert got_bad == want_bad, (case, got, want)
        if got_bad:
            continue
        feasible += 1
        assert got.nodes[-1].service_start == want, (case, got.nodes[-1].service_start, want)
        assert check_schedule_rules(inst, seq, got) == []
        assert check_sunday_rests(inst, got) == []
    assert feasible >= 50


def test_counter_safety_on_random_trips():
    # cumulative driving between qualifying rests never exceeds tau_n
    regs = RegParams()
    checked = 0
    for seed in range(150):
        inst, seq = trip_case(seed)
        sched = simulate_trip(inst, seq)
        if isinstance(sched, Infeasible):
            continue
        checked += 1
        counter = 0
        rest = 0
        for seg in sched.segments:
            if seg.kind == "drive":
                if rest >= regs.tau_b:
                    counter = 0
                rest = 0
                counter += seg.end - seg.start
                assert counter <= regs.tau_n
            elif seg.kind == "service":
                if rest >= regs.tau_b:
                    counter = 0
                rest = 0
            else:
                rest += seg.end - seg.start
    assert checked >= 30


def test_window_safety_on_random_trips():
    checked = 0
    for seed in range(150):
        inst, seq = trip_case(seed)
        sched = simulate_trip(inst, seq)
        if isinstance(sched, Infeasible):
            continue
        checked += 1
        windows = []
        for rid in seq:
            r = inst.request(rid)
            windows.append((r.pickup_window,))
            windows.append(r.delivery_windows)
        for node, wins in zip(sched.nodes, windows):
            assert any(
                node.service_start >= w.start and node.departure <= w.end for w in wins
            )
    assert checked >= 30


def test_a_request_no_fresh_vehicle_serves_fits_no_sequence():
    # repair banks a request up front when build_trip((rid,)) is None: a
    # fresh vehicle's label at the pickup dominates any a trip brings there.
    # The oracle, which shares no code with the kernel, must then find no
    # schedule for any sequence of up to three requests that holds rid
    rng = random.Random(23)
    hits = Counter()
    for case in range(60):
        make = trip_case if case % 2 else kernel_case
        inst, _seq = make(rng.randrange(10_000_000))
        edited = None
        if case % 3 == 0:
            inst, edited = blackout_pickup(inst, rng)
        sim = Simulator(inst)
        ids = [r.id for r in inst.requests]
        for rid in ids:
            if sim.build_trip((rid,)) is not None:
                continue
            hits["unservable"] += 1
            hits["blackout"] += rid == edited
            others = [o for o in ids if o != rid]
            for n in range(3):
                for rest in permutations(others, n):
                    for i in range(n + 1):
                        seq = rest[:i] + (rid,) + rest[i:]
                        fronts = brute_force_frontiers(seq, inst)
                        assert isinstance(fronts, Infeasible), (case, seq, fronts[-1])
    assert hits["blackout"] >= 5 and hits["unservable"] > hits["blackout"], hits
