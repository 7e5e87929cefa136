"""Differential tests of the label kernel (Simulator._advance).

build_trip, splice_trip, best_insertion and simulate_trip all run _advance,
which takes a closed form for legs that cross no blackout and stay inside
the horizon, merges multi-label frontiers inline and fits service starts
with one bisect of a per-node fit table, as best_insertion's screen does.
The fit tables are checked minute by minute against the windows minus the
oracle's blackout intervals.  Each entry point is checked against the
others: a splice must equal a fresh build, and best_insertion must accept
exactly the splices that build.  Every frontier must be a strict Pareto
frontier, and the schedule that simulate_trip walks back from the earliest
last label must reach that label and pass the oracle's rule checks.  In
the cases run against the minute-level oracle, on sequences of up to three
requests, every frontier, and every failure with its reason and node, must
equal the oracle's.  kernel_case aims its instances at the branches that
matter: frontiers of two or three labels at the splice point, legs with
one to three rests or a whole multiple of tau_n of driving, departures on a
blackout's first minute, legs across a blackout or past the horizon,
multi-window deliveries, fits that a blackout or a window end pushes on,
arrivals one minute after the last start before a blackout, and requests
with no valid start.  Past the oracle's reach, a calendar shift (every
window some days later, the horizon as many weekdays earlier) must move
every frontier by exactly those days.
"""

import random
from collections import Counter
from dataclasses import replace

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
from ftlopt.oracle import (
    blackout_intervals,
    brute_force_frontiers,
    brute_force_schedule,
    check_schedule_rules,
    check_sunday_rests,
)
from ftlopt.schedule import (
    HORIZON,
    Calendar,
    Infeasible,
    Simulator,
    _fit,
    _fit_table,
    _leg_arrivals,
    simulate_trip,
)

from helpers import kernel_case


def is_blackout_start(inst, t):
    day, minute = divmod(t, MINUTES_PER_DAY)
    return minute == 0 and (inst.horizon.origin_weekday + day) % 7 == SUNDAY


def legs_into(inst, sim, seq, fronts, i):
    """Per label (s, c) at node i - 1 of seq: the label, the travel time to
    node i and its leg, _leg_arrivals' (arrival, counter, segments) or None
    past the horizon."""
    regs = inst.regs
    nodes = sim._fit_nodes(seq)
    travel = inst.matrix.time[nodes[i - 1][0]][nodes[i][0]]
    return [
        ((s, c), travel, _leg_arrivals(s + regs.sigma, c, travel, regs, sim.cal))
        for s, c in fronts[i - 1]
    ]


def tally_legs(inst, sim, seq, fronts, seen):
    """Count the kernel branches that the legs out of each label pass
    through."""
    regs = inst.regs
    for i in range(1, len(fronts)):
        for (s, c), travel, leg in legs_into(inst, sim, seq, fronts, i):
            dc = c + travel
            if dc > regs.tau_n and dc % regs.tau_n == 0:
                seen["whole stints"] += 1
            if is_blackout_start(inst, s + regs.sigma):
                seen["departs into blackout"] += 1
            rests = 0  # the rests after the leg's last blackout
            for kind, _start, _end in leg[2] if leg else ():
                if kind == "wait":
                    seen["blackout"] += 1
                    rests = 0
                elif kind == "break":
                    rests += 1
            if rests:
                seen[f"{min(rests, 3)} rests"] += 1


def tally_fits(inst, sim, seq, k, fronts, seen):
    """Count the fits at the pickup (node k) and delivery (k + 1) of a
    spliced request that a blackout or the end of a window pushes on from
    the arrival's window: the fits that best_insertion's screen tells
    apart from a check against the first window start and last window end.
    Also count arrivals one minute after the last start before a blackout,
    where a fit table whose spans end a minute late would accept a start."""
    sigma = inst.regs.sigma
    nodes = sim._fit_nodes(seq)
    for i in (k, k + 1):
        r = inst.request(seq[i // 2])
        windows = r.delivery_windows if i % 2 else (r.pickup_window,)
        if i:
            legs = legs_into(inst, sim, seq, fronts, i)
            arrivals = [leg[0] for _label, _travel, leg in legs if leg]
        else:
            arrivals = [r.pickup_window.start]
        _loc, firsts, lasts = nodes[i]
        for t in arrivals:
            s = _fit(firsts, lasts, t)
            if s is None:
                continue
            w = next(w for w in windows if t <= w.end)
            if s > max(t, w.start):
                seen["fit jumps a blackout" if s <= w.end else "fit skips a window"] += 1
            if sigma and is_blackout_start(inst, t + sigma - 1):
                seen["one minute past the last start"] += 1


def check_trip(inst, seq, trip, oracle):
    """trip, the kernel's trip for seq (None: unschedulable), against
    simulate_trip and, with oracle set and at most three requests, the
    minute-level oracle.  Returns simulate_trip's result."""
    full = simulate_trip(inst, seq)
    if trip is None:
        assert isinstance(full, Infeasible), seq
    else:
        for front in trip.frontiers:  # strictly later starts, fresher counters
            for (s0, c0), (s1, c1) in zip(front, front[1:]):
                assert s0 < s1 and c0 > c1, (seq, front)
        assert not isinstance(full, Infeasible), seq
        assert full.nodes[-1].service_start == trip.frontiers[-1][0][0], seq
        assert check_schedule_rules(inst, seq, full) == [], seq
        assert check_sunday_rests(inst, full) == [], seq
    if oracle and len(seq) <= 3:
        want = brute_force_frontiers(seq, inst)
        if not isinstance(want, Infeasible):
            want = tuple(map(tuple, want))
        assert (full if trip is None else trip.frontiers) == want, seq
    return full


def check_case(inst, seq, extra_at, seen, oracle=False):
    """Splice seq[extra_at] into the rest of seq at every position: each
    splice must equal a fresh build and pass check_trip, and best_insertion
    must accept exactly the positions that splice."""
    sim = Simulator(inst)
    extra = seq[extra_at]
    base = seq[:extra_at] + seq[extra_at + 1 :]
    trip = sim.build_trip(base)
    check_trip(inst, base, trip, oracle)
    if trip is None:
        return
    if not all(lasts for _loc, _firsts, lasts in sim._node_data[extra]):
        seen["no valid start"] += 1  # every splice of extra is unschedulable
    feasible = []
    for pos in range(len(base) + 1):
        new_seq = base[:pos] + (extra,) + base[pos:]
        fits = sim.best_insertion(trip, extra, (pos,)) is not None
        spliced = sim.splice_trip(trip, extra, pos)
        # a fresh simulator, so the build cannot hit the splice's trip cache
        built = Simulator(inst).build_trip(new_seq)
        full = check_trip(inst, new_seq, spliced, oracle)
        if spliced is None:
            assert not fits and built is None, (seq, pos)
            seen["horizon" if full.reason == HORIZON else "no window"] += 1
            continue
        assert fits, (seq, pos)
        assert built.frontiers == spliced.frontiers, (seq, pos)
        feasible.append((sum(trip_distances(inst, new_seq)) - trip.total_d10, pos))
        fronts = spliced.frontiers
        tally_legs(inst, sim, new_seq, fronts, seen)
        k = 2 * pos
        tally_fits(inst, sim, new_seq, k, fronts, seen)
        labels = max(len(fronts[k - 1]) if k else 0, len(fronts[k + 1]))
        if labels > 1:
            seen[f"{min(labels, 3)} labels at splice"] += 1
        if fronts[k + 1][0][0] + inst.regs.sigma > inst.request(extra).delivery_windows[0].end:
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
        "fit jumps a blackout",
        "fit skips a window",
        "one minute past the last start",
        "no valid start",
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
    old, new = (sim.build_trip(seq).frontiers for seq in ((1, 2), (1, 3, 2)))
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
        assert brute_force_schedule((1,), inst) == arrive, depart


def test_blackout_wait_of_exactly_tau_b_resets_the_counter():
    # with sigma = 0, request 1's delivery is served inside the first Sunday
    # blackout, 330 minutes into it, so the leg to request 2's pickup waits
    # exactly the blackout's last tau_b minutes.  That wait resets the
    # counter: the pickup starts at sunday + 1720 with counter 400, not 500,
    # and the leg to the delivery drives 50 minutes before its rest
    sunday = 6 * MINUTES_PER_DAY
    time = ((0, 100, 500), (100, 0, 400), (500, 400, 0))
    dist = tuple(tuple(10 * t for t in row) for row in time)
    requests = (
        Request(1, 0, 1, TimeWindow(sunday - 100, sunday - 100),
                (TimeWindow(sunday + 330, sunday + 330),), 1000),
        Request(2, 2, 0, TimeWindow(sunday + 1320, sunday + 1800),
                (TimeWindow(sunday + 1320, 14 * MINUTES_PER_DAY),), 1000),
    )
    inst = Instance(requests, TravelMatrix(3, dist, time), CostModel(), RegParams(sigma=0), 0,
                    Horizon(0, 14))
    inst.check()
    sched = simulate_trip(inst, (1, 2))
    assert not isinstance(sched, Infeasible)
    assert sched.nodes[-1].service_start == sunday + 3210
    assert brute_force_schedule((1, 2), inst) == sunday + 3210
    assert check_schedule_rules(inst, (1, 2), sched) == []


def fit_node(rng, sundays, sigma, tau_s, horizon_end):
    """Sorted, disjoint windows whose ends sit on or near the minutes where a
    fit changes: a blackout's first and last minute, sigma before a blackout
    and the horizon end."""
    marks = [horizon_end]
    for b in sundays:
        marks += [b, b - sigma, b + tau_s, b + tau_s - sigma]
    points = []
    for _ in range(2 * rng.randint(1, 4)):
        if rng.random() < 0.6:
            p = rng.choice(marks) + rng.choice((-1, 0, 0, 1))
        else:
            p = rng.randint(0, horizon_end)
        points.append(min(max(p, 0), horizon_end))
    points.sort()
    starts, ends = [], []
    for ws, we in zip(points[::2], points[1::2]):
        if not ends or ws > ends[-1]:
            starts.append(ws)
            ends.append(we)
    return starts, ends


def test_fit_tables_match_windows_minute_by_minute():
    # every minute from before the first window to past the last one, on
    # every origin weekday: the fit read from the table is the first start
    # at or after it whose operation lies inside a window and the horizon
    # and, when it takes time, misses the oracle's blackout intervals
    rng = random.Random(10)
    seen = Counter()
    for weekday in range(7):
        for sigma in (0, 1, 120, 600):
            for tau_s in (990, 1320):
                days = rng.randint(8, 11)
                horizon_end = days * 1440
                cal = Calendar(weekday, tau_s, horizon_end)
                inst = Instance(
                    (), TravelMatrix(1, ((0,),), ((0,),)), CostModel(),
                    RegParams(tau_s=tau_s, sigma=sigma), 0, Horizon(weekday, days),
                )
                blocks = blackout_intervals(inst)
                sundays = [b for b, _e in blocks]
                for _ in range(4):
                    starts, ends = fit_node(rng, sundays, sigma, tau_s, horizon_end)
                    windows = [TimeWindow(ws, we) for ws, we in zip(starts, ends)]
                    firsts, lasts = _fit_table(windows, sigma, cal)
                    lo, hi = starts[0] - 30, ends[-1] + 2
                    # blocked[m - lo]: blackout minutes before m
                    blocked = [0]
                    for m in range(lo, hi + sigma):
                        blocked.append(blocked[-1] + any(b <= m < e for b, e in blocks))
                    valid = set()
                    for ws, we in zip(starts, ends):
                        for s in range(ws, min(we, horizon_end) - sigma + 1):
                            if blocked[s + sigma - lo] == blocked[s - lo]:
                                valid.add(s)
                    want = None
                    for t in range(hi, lo - 1, -1):
                        if t in valid:
                            want = t
                        assert _fit(firsts, lasts, t) == want, (
                            weekday, sigma, tau_s, horizon_end, starts, ends, t
                        )
                    seen["empty" if not lasts else "sigma > 0" if sigma else "sigma 0"] += 1
                    for ws, we in zip(starts, ends):
                        for b in sundays:
                            seen["starts in a blackout"] += b <= ws < b + tau_s
                            seen["ends at a blackout"] += we in (b, b + sigma)
                        seen["ends at the horizon"] += we == horizon_end
    for branch in (
        "empty", "sigma 0", "sigma > 0", "starts in a blackout", "ends at a blackout",
        "ends at the horizon",
    ):
        assert seen[branch] >= 5, (branch, seen)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.integers(0, 3))
def test_kernel_matches_oracle(seed, extra_at):
    inst, seq = kernel_case(seed)
    check_case(inst, seq, extra_at % len(seq), Counter(), oracle=True)


def test_position_bounds_keep_a_splice_that_fits_to_the_minute():
    # R (2) spliced before A (1): R's delivery is A's pickup location, so A's
    # pickup can start right after it, at R's first pickup start + 2 sigma +
    # the drive, which is exactly A's last pickup start.  The sweep's bound
    # on the next latest start must keep that position; behind A, R's
    # pickup window has long closed.
    sigma = RegParams().sigma
    time = ((0, 100, 100), (100, 0, 100), (100, 100, 0))
    dist = tuple(tuple(10 * t for t in row) for row in time)
    wide = (TimeWindow(0, 4000),)
    last_a = 360 + 2 * sigma + 100
    requests = (
        Request(1, 1, 2, TimeWindow(360, last_a + sigma), wide, 5000),
        Request(2, 0, 1, TimeWindow(360, 360 + sigma), wide, 5000),
    )
    inst = Instance(requests, TravelMatrix(3, dist, time), CostModel(), RegParams(), 0,
                    Horizon(0, 3))
    inst.check()
    sim = Simulator(inst)
    trip = sim.build_trip((1,))
    assert sim._trip_tables(trip)[1][0] == last_a
    assert not isinstance(simulate_trip(inst, (2, 1)), Infeasible)
    assert isinstance(simulate_trip(inst, (1, 2)), Infeasible)
    assert sim.best_insertion(trip, 2) == (1000, 0)


def test_head_memo_tells_equal_frontiers_at_different_locations_apart():
    # With sigma = 0 and Sunday's blackout from minute 2880, A (0 -> 1) and
    # B (0 -> 2) wait for the same delivery window and leave it with the
    # same frontier ((2800, 0),).  X's pickup (3) is 30 minutes from A's
    # delivery and 90 from B's: both pass the screen, which ignores
    # blackouts, but only A's leg ends before the blackout, so X fits behind
    # A only, whichever trip the simulator's head memo saw first.
    time = [[500] * 5 for _ in range(5)]
    for i in range(5):
        time[i][i] = 0
    for (i, j), minutes in {(0, 1): 100, (0, 2): 100, (1, 3): 30, (2, 3): 90,
                            (3, 4): 100}.items():
        time[i][j] = minutes
    dist = tuple(tuple(10 * t for t in row) for row in time)
    matrix = TravelMatrix(5, dist, tuple(map(tuple, time)))
    deliver = (TimeWindow(2800, 3000),)
    requests = (
        Request(1, 0, 1, TimeWindow(360, 480), deliver, 1000),
        Request(2, 0, 2, TimeWindow(360, 480), deliver, 1000),
        Request(3, 3, 4, TimeWindow(2800, 2900), (TimeWindow(2800, 5000),), 1000),
    )
    inst = Instance(requests, matrix, CostModel(), RegParams(sigma=0), 0, Horizon(4, 4))
    inst.check()
    assert not isinstance(simulate_trip(inst, (1, 3)), Infeasible)
    assert isinstance(simulate_trip(inst, (2, 3)), Infeasible)
    for order in ((1, 2), (2, 1)):
        sim = Simulator(inst)
        trips = {rid: sim.build_trip((rid,)) for rid in order}
        front = trips[1].frontiers[1]
        assert front == trips[2].frontiers[1] == ((2800, 0),)
        got = {rid: sim.best_insertion(trips[rid], 3, (1,)) for rid in order}
        assert got[1] is not None and got[2] is None, order
        assert set(sim._heads[front]) == {1, 2}
        assert sim.splice_trip(trips[2], 3, 1) is None
        assert sim.splice_trip(trips[1], 3, 1).frontiers == Simulator(inst).build_trip(
            (1, 3)
        ).frontiers


def test_head_memo_keys_on_the_whole_frontier():
    # in kernel_case(133), trips (2, 3) and (1, 2, 3) leave request 3's
    # delivery (location 1) with frontiers that share their first label,
    # (10440, 21), but not their rested one; request 4 spliced behind
    # either must start from its own trip's frontier
    inst, _seq = kernel_case(133)
    for order in (((2, 3), (1, 2, 3)), ((1, 2, 3), (2, 3))):
        sim = Simulator(inst)
        trips = [sim.build_trip(seq) for seq in order]
        ends = [trip.frontiers[-1] for trip in trips]
        assert ends[0][0] == ends[1][0] == (10440, 21) and ends[0] != ends[1]
        for trip in trips:
            seq = trip.requests + (4,)
            spliced = sim.splice_trip(trip, 4, len(trip.requests))
            assert spliced.frontiers == Simulator(inst).build_trip(seq).frontiers, seq


def test_screen_and_position_bounds_keep_every_accepted_splice():
    # kernel cases have no triangle inequality.  Per (trip, request,
    # position), best_insertions accepts exactly the splices simulate_trip
    # accepts, and each accepted position lies inside the full sweep's two
    # bounds: the next pickup's latest start leaves room for the earliest
    # delivery end, and the previous departure is no later than the
    # pickup's last start
    rng = random.Random(14)
    seen = Counter()
    for _ in range(3000):
        inst, seq = kernel_case(rng.randrange(10_000_000))
        sim = Simulator(inst)
        sigma, tau_n, tau_b = inst.regs.sigma, inst.regs.tau_n, inst.regs.tau_b
        for extra in seq:
            base = tuple(rid for rid in seq if rid != extra)
            trip = sim.build_trip(base)
            if trip is None:
                continue
            n = len(base)
            lats = sim._trip_tables(trip)[1][0::2]
            deps = [trip.frontiers[2 * pos - 1][0][0] + sigma for pos in range(1, n + 1)]
            (o, o_firsts, o_lasts), (d, _firsts, _lasts) = sim._node_data[extra]
            t_od = inst.matrix.time[o][d]
            if t_od > tau_n:
                t_od += tau_b * ((t_od - 1) // tau_n)
            accepted = []
            for pos in range(n + 1):
                new_seq = base[:pos] + (extra,) + base[pos:]
                ok = not isinstance(simulate_trip(inst, new_seq, sim), Infeasible)
                got = sim.best_insertions(trip, [(extra, (pos,))])[0]
                assert (got is not None) == ok, (new_seq, pos)
                if not ok:
                    seen["rejected"] += 1
                    continue
                accepted.append(got)
                if pos < n:
                    room = lats[pos] - (o_firsts[0] + 2 * sigma + t_od)
                    assert room >= 0, (new_seq, pos)
                    seen["next start within a day"] += room < 1440
                if pos:
                    assert deps[pos - 1] <= o_lasts[-1], (new_seq, pos)
                    seen["departure within a day"] += o_lasts[-1] - deps[pos - 1] < 1440
            assert sim.best_insertions(trip, [(extra, None)])[0] == min(accepted, default=None)
    for what in ("rejected", "next start within a day", "departure within a day"):
        assert seen[what] >= 20, (what, seen)


def shifted(inst, days):
    """inst with every window `days` days later on a horizon that starts
    `days` weekdays earlier and is `days` days longer: every blackout stays
    on the same minutes of every window."""
    lag = days * MINUTES_PER_DAY

    def later(w):
        return TimeWindow(w.start + lag, w.end + lag)

    requests = tuple(
        replace(r, pickup_window=later(r.pickup_window),
                delivery_windows=tuple(map(later, r.delivery_windows)))
        for r in inst.requests
    )
    horizon = Horizon((inst.horizon.origin_weekday - days) % 7, inst.horizon.days + days)
    return replace(inst, requests=requests, horizon=horizon)


def test_a_calendar_shift_moves_every_frontier_by_whole_days():
    # a fresh vehicle starts at its first window, so under the shift every
    # prefix and suffix of a sequence keeps its feasibility, every frontier
    # moves by the shift with the same rest counters, and every insertion
    # keeps its cell (delta and position)
    rng = random.Random(31)
    seen = Counter()
    for _ in range(1500):
        inst, seq = kernel_case(rng.randrange(10_000_000))
        days = rng.randint(1, 14)
        lag = days * MINUTES_PER_DAY
        moved = shifted(inst, days)
        seen[f"weekday {moved.horizon.origin_weekday}"] += 1
        sim, moved_sim = Simulator(inst), Simulator(moved)
        parts = {seq[:i] for i in range(1, len(seq) + 1)} | {seq[i:] for i in range(1, len(seq))}
        for part in sorted(parts):
            trip, got = sim.build_trip(part), moved_sim.build_trip(part)
            assert (trip is None) == (got is None), (seq, days, part)
            seen["infeasible" if trip is None else "feasible"] += 1
            if trip is not None:
                want = tuple(tuple((s + lag, c) for s, c in front) for front in trip.frontiers)
                assert got.frontiers == want, (seq, days, part)
        for extra in seq:
            base = tuple(rid for rid in seq if rid != extra)
            trip = sim.build_trip(base)
            if trip is None:
                continue
            cell = sim.best_insertion(trip, extra)
            assert moved_sim.best_insertion(moved_sim.build_trip(base), extra) == cell, (
                seq, days, extra
            )
            seen["cell" if cell else "no cell"] += 1
    for what in ("feasible", "infeasible", "cell", "no cell", *(f"weekday {w}" for w in range(7))):
        assert seen[what] >= 20, (what, seen)
