"""Differential tests of the untraced label kernel (Simulator._advance).

build_trip, splice_trip and best_insertion all run _advance, which takes a
closed form for legs that cross no blackout and stay inside the horizon and
merges multi-label frontiers inline.  Each is checked here against the
reference loop (Simulator.frontiers, which has no closed form and carries
each leg's segments), against simulate_trip, whose schedules must pass the
oracle's rule checks, and, on sequences of up to three requests, against
the minute-level oracle.  kernel_case aims its instances at the branches
that matter: frontiers of two or three labels at the splice point, legs
with one to three rests or a whole multiple of tau_n of driving,
departures on a blackout's first minute, legs across a blackout or past
the horizon, and multi-window deliveries.
"""

import random
from collections import Counter

from hypothesis import given, settings, strategies as st

from ftlopt.model import (
    MINUTES_PER_DAY,
    SUNDAY,
    CostModel,
    Horizon,
    Instance,
    RegParams,
    Request,
    TimeWindow,
    TravelMatrix,
    trip_distances,
)
from ftlopt.oracle import brute_force_schedule, check_schedule_rules, check_sunday_rests
from ftlopt.schedule import HORIZON, Infeasible, Simulator, simulate_trip

from helpers import kernel_case


def bare(fronts):
    return tuple(tuple((s, c) for s, c, _m in f) for f in fronts)


def is_blackout_start(inst, t):
    day, minute = divmod(t, MINUTES_PER_DAY)
    return minute == 0 and (inst.horizon.origin_weekday + day) % 7 == SUNDAY


def tally_legs(inst, sim, seq, fronts, seen):
    """Count the kernel branches that the reference frontiers pass through."""
    regs = inst.regs
    nodes = sim.node_sequence(seq)
    for i in range(1, len(fronts)):
        travel = inst.matrix.time[nodes[i - 1][0]][nodes[i][0]]
        for s, c, _m in fronts[i - 1]:
            dc = c + travel
            if dc > regs.tau_n and dc % regs.tau_n == 0:
                seen["whole stints"] += 1
            if is_blackout_start(inst, s + regs.sigma):
                seen["departs into blackout"] += 1
        for _s, _c, (_arrival, (_parent, segs)) in fronts[i]:
            rests = 0  # the rests after the leg's last blackout
            for kind, _start, _end in segs:
                if kind == "wait":
                    seen["blackout"] += 1
                    rests = 0
                elif kind == "break":
                    rests += 1
            if rests:
                seen[f"{min(rests, 3)} rests"] += 1


def check_case(inst, seq, extra_at, seen, oracle=False):
    """Splice seq[extra_at] into the rest of seq at every position; every
    kernel entry point must agree with the references."""
    sim = Simulator(inst)
    extra = seq[extra_at]
    base = seq[:extra_at] + seq[extra_at + 1 :]
    trip = sim.build_trip(base)
    ref = sim.frontiers(base)
    if isinstance(ref, Infeasible):
        assert trip is None
        return
    assert trip.frontiers == bare(ref)
    feasible = []
    for pos in range(len(base) + 1):
        new_seq = base[:pos] + (extra,) + base[pos:]
        ref = sim.frontiers(new_seq)
        full = simulate_trip(inst, new_seq, sim)
        fits = sim.best_insertion(trip, extra, (pos,)) is not None
        spliced = sim.splice_trip(trip, extra, pos)
        # a fresh simulator, so the build cannot hit the splice's trip cache
        built = Simulator(inst).build_trip(new_seq)
        if oracle and len(new_seq) <= 3:
            want = brute_force_schedule(new_seq, inst, granularity=1)
            assert isinstance(want, Infeasible) == isinstance(full, Infeasible), (seq, pos)
            if not isinstance(want, Infeasible):
                assert full.nodes[-1].service_start == want, (seq, pos)
        if isinstance(ref, Infeasible):
            assert isinstance(full, Infeasible)
            assert not fits and spliced is None and built is None, (seq, pos)
            seen["horizon" if ref.reason == HORIZON else "no window"] += 1
            continue
        assert not isinstance(full, Infeasible)
        assert full.nodes[-1].service_start == min(ref[-1])[0]
        assert check_schedule_rules(inst, new_seq, full) == [], (seq, pos)
        assert check_sunday_rests(inst, full) == [], (seq, pos)
        assert fits, (seq, pos)
        assert spliced.frontiers == bare(ref), (seq, pos)
        assert built.frontiers == bare(ref), (seq, pos)
        feasible.append((sum(trip_distances(inst, new_seq)) - trip.total_d10, pos))
        tally_legs(inst, sim, new_seq, ref, seen)
        k = 2 * pos
        labels = max(len(ref[k - 1]) if k else 0, len(ref[k + 1]))
        if labels > 1:
            seen[f"{min(labels, 3)} labels at splice"] += 1
        if ref[k + 1][0][0] + inst.regs.sigma > inst.request(extra).delivery_windows[0].end:
            seen["later delivery window"] += 1
    assert sim.best_insertion(trip, extra) == (min(feasible) if feasible else None)


def test_kernel_matches_references_on_generated_cases():
    rng = random.Random(6)
    seen = Counter()
    for case in range(3000):
        inst, seq = kernel_case(rng.randrange(10_000_000))
        check_case(inst, seq, rng.randrange(len(seq)), seen, oracle=case % 20 == 0)
    # the generator must reach every branch the closed form and merge touch
    for branch in (
        "2 labels at splice",
        "3 labels at splice",
        "1 rests",
        "2 rests",
        "3 rests",
        "whole stints",
        "departs into blackout",
        "blackout",
        "horizon",
        "later delivery window",
    ):
        assert seen[branch] >= 5, (branch, seen)


def test_suffix_reconverges_only_on_the_whole_frontier():
    # Splicing X between A and B delays the arrival at B's pickup, but both
    # arrivals wait there for the window with counter 300, so the frontiers
    # agree on their first label ((2700, 300)) and differ on the rested one
    # (3210 vs 3450).  At B's delivery that rested label still counts, so
    # the suffix must be propagated on.
    time = [[500] * 6 for _ in range(6)]
    for i in range(6):
        time[i][i] = 0
    for (i, j), minutes in {
        (0, 1): 60, (1, 3): 300, (1, 2): 30, (2, 5): 70, (5, 3): 200, (3, 4): 300
    }.items():
        time[i][j] = minutes
    dist = tuple(tuple(10 * t for t in row) for row in time)
    matrix = TravelMatrix(6, dist, tuple(map(tuple, time)))
    a = Request(1, 0, 1, TimeWindow(360, 1080), (TimeWindow(1800, 2600),), 1000)
    b = Request(2, 3, 4, TimeWindow(2700, 4000), (TimeWindow(3600, 9000),), 1000)
    x = Request(3, 2, 5, TimeWindow(1950, 2100), (TimeWindow(2140, 2300),), 1000)
    inst = Instance((a, b, x), matrix, CostModel(), RegParams(), 0, Horizon(0, 7))
    inst.check()
    sim = Simulator(inst)
    old, new = (bare(sim.frontiers(seq)) for seq in ((1, 2), (1, 3, 2)))
    assert (old[2], new[4]) == (((2700, 300), (3210, 0)), ((2700, 300), (3450, 0)))
    assert old[3] != new[5]
    check_case(inst, (1, 3, 2), 1, Counter(), oracle=True)


def test_departures_at_blackout_edges():
    # with sigma = 0 the vehicle leaves the pickup at its window start; the
    # minutes around the first Sunday blackout [8640, 9960) decide whether
    # the 100-minute leg drives at once, spills over the blackout or waits
    sunday = 6 * MINUTES_PER_DAY
    tau_s = RegParams().tau_s
    matrix = TravelMatrix(2, ((0, 1000), (1000, 0)), ((0, 100), (100, 0)))
    for depart, arrive in (
        (sunday - 101, sunday - 1),
        (sunday - 100, sunday),
        (sunday - 99, sunday + tau_s + 1),
        (sunday - 1, sunday + tau_s + 99),
        (sunday, sunday + tau_s + 100),
        (sunday + tau_s - 1, sunday + tau_s + 100),
        (sunday + tau_s, sunday + tau_s + 100),
    ):
        req = Request(
            1, 0, 1, TimeWindow(depart, depart), (TimeWindow(depart, 14 * MINUTES_PER_DAY),), 1000
        )
        inst = Instance(
            (req,), matrix, CostModel(), RegParams(sigma=0), 0, Horizon(0, 14)
        )
        inst.check()
        trip = Simulator(inst).build_trip((1,))
        assert trip.frontiers[1][0][0] == arrive, depart
        assert brute_force_schedule((1,), inst, granularity=1) == arrive, depart


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.integers(0, 3))
def test_kernel_matches_oracle(seed, extra_at):
    inst, seq = kernel_case(seed)
    check_case(inst, seq, extra_at % len(seq), Counter(), oracle=True)
