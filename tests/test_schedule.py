import hashlib
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ftlopt.instances import parse_gh, transform
from ftlopt.model import (
    SUNDAY,
    CostModel,
    Horizon,
    Instance,
    RegParams,
    Request,
    TimeWindow,
    TravelMatrix,
)
from ftlopt.oracle import brute_force_frontiers, check_schedule_rules
from ftlopt.schedule import (
    HORIZON,
    NO_WINDOW,
    Calendar,
    Infeasible,
    Schedule,
    WEEK,
    Simulator,
    _fit_table,
    _leg_arrivals,
    simulate_trip,
)

from helpers import REGS, kernel_case, trip_case

WIDE = (TimeWindow(0, 10_000),)
CAL = Calendar(0, REGS.tau_s, 365 * 1440)


def propagate(counter, depart, drive, windows, cal=CAL):
    """Earliest (service start, counter) after one leg through the kernel
    (Simulator._advance), or Infeasible: HORIZON when the leg itself runs
    past the horizon, as simulate_trip tells them apart.

    The leg runs in a two-location instance on cal's weekday and horizon,
    from location 0 to the delivery of a request with the given windows."""
    if _leg_arrivals(depart, counter, drive, REGS, cal) is None:
        return Infeasible(HORIZON)
    matrix = TravelMatrix(2, ((0, 10), (10, 0)), ((0, drive), (drive, 0)))
    request = Request(1, 0, 1, windows[0], tuple(windows), 1000)
    horizon = Horizon(cal.origin_weekday, cal.horizon_end // 1440)
    sim = Simulator(Instance((request,), matrix, CostModel(), REGS, 0, horizon))
    assert sim.cal == cal
    delivery = sim._node_data[1][1]
    assert delivery == (1, *_fit_table(windows, REGS.sigma, cal))
    got = sim._advance(((depart - REGS.sigma, counter),), 0, (delivery,))
    if got is None:
        return Infeasible(NO_WINDOW)
    return got[0][0][0]


class TestPropagate:
    def test_drive_exactly_full_stint(self):
        lab = propagate(0, 0, 450, WIDE)
        assert lab == (450, 450)

    def test_forced_break_after_full_stint(self):
        lab = propagate(0, 0, 500, WIDE)
        assert lab == (450 + 990 + 50, 50)

    def test_long_wait_resets_counter(self):
        lab = propagate(0, 0, 60, (TimeWindow(2000, 3000),))
        assert lab == (2000, 0)

    def test_short_wait_keeps_counter(self):
        lab = propagate(0, 0, 60, (TimeWindow(100, 3000),))
        assert lab == (100, 60)

    def test_arrival_after_last_window(self):
        out = propagate(0, 0, 600, (TimeWindow(0, 500),))
        assert isinstance(out, Infeasible)
        assert out.reason == "no_window"

    def test_service_must_fit_entirely(self):
        # arriving at 100, window ends at 150: the 120-minute operation
        # cannot fit, so the next window is used
        out = propagate(0, 0, 100, (TimeWindow(0, 150), TimeWindow(400, 900)))
        assert out == (400, 100)

    def test_horizon_exceeded(self):
        cal = Calendar(0, REGS.tau_s, 1000)
        out = propagate(0, 0, 2000, WIDE, cal)
        assert isinstance(out, Infeasible)
        assert out.reason == "horizon_exceeded"

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2000), st.integers(0, 2000), st.integers(0, 1300))
    def test_monotone_in_departure_time(self, t1, t2, drive):
        lo, hi = sorted((t1, t2))
        a = propagate(0, lo, drive, WIDE)
        b = propagate(0, hi, drive, WIDE)
        assert not isinstance(a, Infeasible) and not isinstance(b, Infeasible)
        assert a[0] <= b[0]


class TestSundayRules:
    def test_first_sunday_matches_the_weekday_formula(self):
        # the Sunday holding minute t, from the first Sunday's minute and by
        # counting weekdays from the origin, for every origin weekday over
        # five weeks of minutes (one of them before the origin)
        week = 7 * 1440
        for weekday in range(7):
            first_sunday = Calendar(weekday, 1320, 30 * 1440).first_sunday
            assert first_sunday == (SUNDAY - weekday) % 7 * 1440
            for t in range(-week, 4 * week):
                day = t // 1440
                by_weekday = (day - (weekday - SUNDAY + day) % 7) * 1440
                assert t - (t - first_sunday) % week == by_weekday, (weekday, t)

    def test_blackout_bounds(self):
        cal = Calendar(0, 1320, 30 * 1440)
        wide = (TimeWindow(0, 40_000),)
        # a drive that reaches the first or the second Sunday 00:00 stops
        # there and resumes at 22:00
        for sunday in (6 * 1440, 13 * 1440):
            lab = propagate(0, sunday - 60, 120, wide, cal)
            assert lab == (sunday + 1320 + 60, 60)

    def test_sunday_origin_weekday(self):
        cal = Calendar(6, 1320, 30 * 1440)  # horizon starts on a Sunday
        wide = (TimeWindow(0, 40_000),)
        assert propagate(0, 0, 60, wide, cal) == (1380, 60)
        lab = propagate(0, 7 * 1440 - 60, 120, wide, cal)
        assert lab == (7 * 1440 + 1380, 60)

    def test_drive_suspended_over_sunday(self):
        cal = Calendar(0, REGS.tau_s, 30 * 1440)
        wide = (TimeWindow(0, 40_000),)
        # depart late Saturday: driving stops at Sunday 00:00, resumes 22:00
        saturday_depart = 6 * 1440 - 60
        lab = propagate(0, saturday_depart, 120, wide, cal)
        assert lab == (6 * 1440 + 1320 + 60, 60)

    def test_blackout_counts_as_break(self):
        cal = Calendar(0, REGS.tau_s, 30 * 1440)
        wide = (TimeWindow(0, 40_000),)
        # 400 driven before the blackout, counter resets during it
        depart = 6 * 1440 - 400
        lab = propagate(400, depart, 450, wide, cal)
        assert lab[1] == 400
        assert lab[0] == 6 * 1440 + 1320 + 400

    def test_stint_ending_tau_b_before_a_blackout_waits_through_it(self):
        # the first stint ends exactly tau_b before Sunday 00:00: a rest
        # would end on the blackout's first minute and gain no driving, so
        # the leg waits from the stint's end to the blackout's end at once
        cal = Calendar(0, REGS.tau_s, 30 * 1440)
        sunday = 6 * 1440
        depart = sunday - REGS.tau_b - REGS.tau_n
        stint_end = depart + REGS.tau_n
        assert _leg_arrivals(depart, 0, REGS.tau_n + 50, REGS, cal) == (
            sunday + REGS.tau_s + 50,
            50,
            (
                ("drive", depart, stint_end),
                ("wait", stint_end, sunday + REGS.tau_s),
                ("drive", sunday + REGS.tau_s, sunday + REGS.tau_s + 50),
            ),
        )


def single_request_instance():
    dist = [[0, 1400], [1400, 0]]
    matrix = TravelMatrix.from_distances(dist, 70)
    req = Request(
        1, 0, 1, TimeWindow(600, 1320), (TimeWindow(600, 1320), TimeWindow(2040, 2760)), 10_000
    )
    inst = Instance((req,), matrix, CostModel(), RegParams(), 0, Horizon(0, 3))
    inst.check()
    return inst


class TestSimulateTrip:
    def test_hand_simulated_single_request(self):
        inst = single_request_instance()
        sched = simulate_trip(inst, (1,))
        assert isinstance(sched, Schedule)
        pickup, delivery = sched.nodes
        assert (pickup.arrival, pickup.service_start, pickup.departure) == (600, 600, 720)
        assert (delivery.arrival, delivery.service_start, delivery.departure) == (840, 840, 960)

    def test_unreachable_second_pickup(self):
        dist = [[0, 1400, 50, 60], [1400, 0, 70, 80], [50, 70, 0, 90], [60, 80, 90, 0]]
        matrix = TravelMatrix.from_distances(dist, 70)
        r1 = Request(1, 0, 1, TimeWindow(600, 1320), (TimeWindow(600, 1320),), 1000)
        r2 = Request(2, 2, 3, TimeWindow(0, 700), (TimeWindow(0, 4000),), 1000)
        inst = Instance((r1, r2), matrix, CostModel(), RegParams(), 0, Horizon(0, 3))
        out = simulate_trip(inst, (1, 2))
        assert isinstance(out, Infeasible)
        assert out.reason == "no_window"
        assert out.node == 2  # the second pickup, 0-based

    def test_sunday_spanning_trip_has_quiet_block(self):
        from ftlopt.oracle import check_sunday_rests

        dist = [[0, 30000], [30000, 0]]  # 3,000 km forces a multi-day leg
        matrix = TravelMatrix.from_distances(dist, 70)
        req = Request(
            1,
            0,
            1,
            TimeWindow(5 * 1440 + 360, 5 * 1440 + 1080),
            tuple(TimeWindow(d * 1440 + 360, d * 1440 + 1080) for d in range(5, 14)),
            10_000,
        )
        inst = Instance((req,), matrix, CostModel(), RegParams(), 0, Horizon(0, 14))
        sched = simulate_trip(inst, (1,))
        assert isinstance(sched, Schedule)
        assert sched.nodes[-1].departure > 7 * 1440  # spans the Sunday
        assert check_schedule_rules(inst, (1,), sched) == []
        assert check_sunday_rests(inst, sched) == []

    @pytest.mark.parametrize("tau_s", [1320, 2000])
    def test_sunday_rest_longer_than_a_day_reaches_into_monday(self, tau_s):
        # 700 km picked up on Saturday and delivered on Monday: the rest that
        # the stint forces runs into the blackout, which at tau_s = 2000 ends
        # on Monday, so its quiet block is not inside Sunday alone
        from ftlopt.model import Solution, Trip, trip_distances, validate_solution
        from ftlopt.oracle import check_sunday_rests
        from ftlopt.schedule import Segment

        matrix = TravelMatrix.from_distances([[0, 7000], [7000, 0]], 70)
        req = Request(
            1,
            0,
            1,
            TimeWindow(5 * 1440 + 360, 5 * 1440 + 1080),
            tuple(TimeWindow(d * 1440 + 360, d * 1440 + 1080) for d in range(5, 14)),
            10_000,
        )
        regs = RegParams(tau_s=tau_s)
        inst = Instance((req,), matrix, CostModel(), regs, 0, Horizon(0, 14))
        sched = simulate_trip(inst, (1,))
        assert isinstance(sched, Schedule)
        assert sched.nodes[0].departure < 6 * 1440 and sched.nodes[-1].arrival > 7 * 1440
        assert check_schedule_rules(inst, (1,), sched) == []
        assert check_sunday_rests(inst, sched) == []
        trip = Trip((1,), *trip_distances(inst, (1,)))
        assert validate_solution(inst, Solution((trip,), frozenset(), 0, 0, 0)) == []

        # a drive inside the blackout, near its end, is still flagged
        end = 6 * 1440 + tau_s
        driven = Schedule(sched.nodes, sched.segments + (Segment("drive", end - 60, end - 30),))
        assert check_sunday_rests(inst, driven) == [
            f"Sunday starting at day 6 lacks a {tau_s}-min rest"
        ]

    def test_rejects_duplicates_and_empty(self):
        inst = single_request_instance()
        with pytest.raises(ValueError):
            simulate_trip(inst, (1, 1))
        with pytest.raises(ValueError):
            simulate_trip(inst, ())


def rested_time(regs, t):
    """t minutes of driving plus the rests they need from a fresh counter."""
    return t + regs.tau_b * ((t - 1) // regs.tau_n) if t > regs.tau_n else t


def test_compiled_records_equal_the_inline_computation():
    # Simulator.__init__ compiles the rested travel times and one ask record
    # per request; both must equal the values written out here, and a
    # request whose pickup or delivery has no valid start gets no record
    data = Path(__file__).parent / "data"
    cases = [
        transform(parse_gh((data / name).read_text(encoding="utf-8")))
        for name in ("gh_mini.txt", "gh_syn_c1.txt", "gh_syn_mix.txt")
    ]
    cases += [kernel_case(seed)[0] for seed in range(400)]
    # a pickup window too short for sigma, and one delivery window too short
    short = TimeWindow(600, 600 + REGS.sigma - 1)
    cases.append(Instance(
        (Request(1, 0, 1, short, WIDE, 1000), Request(2, 1, 0, WIDE[0], (short,), 1000)),
        TravelMatrix(2, ((0, 10), (10, 0)), ((0, 500), (500, 0))), CostModel(), REGS, 0,
        Horizon(0, 7),
    ))
    seen = {"none": 0, "record": 0, "leg": 0}
    for inst in cases:
        sim = Simulator(inst)
        regs, dist, time = inst.regs, inst.matrix.distance, inst.matrix.time
        locations = range(inst.matrix.n_locations)
        assert sim.rested == tuple(
            tuple(rested_time(regs, time[a][b]) for b in locations) for a in locations
        )
        # from a fresh counter, just after a blackout, a leg that ends before
        # the next one takes exactly its rested time
        cal = Calendar(0, regs.tau_s, 10**9)
        t0 = cal.first_sunday + regs.tau_s
        for row, rested_row in zip(time, sim.rested):
            for t, rested in zip(row, rested_row):
                arrival = _leg_arrivals(t0, 0, t, regs, cal)[0]
                if arrival <= cal.first_sunday + WEEK:
                    assert arrival - t0 == rested, (t, rested)
                    seen["leg"] += 1
        for r in inst.requests:
            o, d = r.origin, r.destination
            o_firsts, o_lasts = _fit_table((r.pickup_window,), regs.sigma, sim.cal)
            d_firsts, d_lasts = _fit_table(r.delivery_windows, regs.sigma, sim.cal)
            if not o_lasts or not d_lasts:
                assert sim._asks[r.id] is None, r
                seen["none"] += 1
                continue
            t_od = rested_time(regs, time[o][d])
            assert sim._asks[r.id] == (
                o, o_firsts, o_lasts, len(o_lasts), d, d_firsts, d_lasts, len(d_lasts),
                dist[o][d], dist[d], tuple(rested_time(regs, t) for t in time[d]), t_od,
                o_firsts[0] + 2 * regs.sigma + t_od, o_lasts[-1],
            ), r
            seen["record"] += 1
    assert sim._asks == {1: None, 2: None}
    assert seen["none"] >= 5 and seen["record"] >= 1000 and seen["leg"] >= 1000, seen


class TestCheckInsertion:
    def test_prefix_reuse_equals_full_resimulation(self):
        rng = random.Random(2024)
        checked = 0
        case = 0
        while checked < 1000:
            case += 1
            inst, seq = trip_case(rng.randrange(10_000_000))
            if len(seq) < 2:
                continue
            sim = Simulator(inst)
            base_len = rng.randint(1, len(seq) - 1)
            base_seq = seq[:base_len]
            trip = sim.build_trip(base_seq)
            if trip is None:
                continue
            extra = seq[base_len]
            pos = rng.randint(0, len(base_seq))
            new_seq = base_seq[:pos] + (extra,) + base_seq[pos:]
            # the screen plus splice simulation that the search itself runs
            fast = sim.best_insertion(trip, extra, (pos,)) is not None
            full = simulate_trip(inst, new_seq)
            assert fast == (not isinstance(full, Infeasible)), (case, base_seq, extra, pos)
            spliced = sim.splice_trip(trip, extra, pos)
            # a fresh simulator, so the build cannot hit the splice's trip cache
            built = Simulator(inst).build_trip(new_seq)
            if isinstance(full, Infeasible):
                assert spliced is None
                assert built is None
            else:
                assert spliced.frontiers == built.frontiers
                assert full.nodes[-1].service_start == built.frontiers[-1][0][0]
                assert check_schedule_rules(inst, new_seq, full) == []
            if checked % 10 == 0:  # the minute-level oracle's frontiers
                want = brute_force_frontiers(new_seq, inst)
                if isinstance(want, Infeasible):
                    assert full == want
                else:
                    assert built.frontiers == tuple(map(tuple, want))
            checked += 1

    def test_splices_into_four_and_five_request_trips_match_the_oracle(self):
        # the first 40 kernel_case sequences of four or five requests whose
        # rest, without one request, builds: that request spliced back at
        # every position is accepted by best_insertion, spliced and built
        # afresh exactly when the minute-level oracle schedules it, with the
        # oracle's frontiers
        seen = Counter()
        seed = -1
        while seen["cases"] < 40:
            seed += 1
            inst, seq = kernel_case(seed)
            if len(seq) < 4:
                continue
            k = seed % len(seq)
            rid, base = seq[k], seq[:k] + seq[k + 1 :]
            sim = Simulator(inst)
            trip = sim.build_trip(base)
            if trip is None:
                continue
            seen["cases"] += 1
            for pos in range(len(base) + 1):
                new_seq = base[:pos] + (rid,) + base[pos:]
                want = brute_force_frontiers(new_seq, inst)
                want = None if isinstance(want, Infeasible) else tuple(map(tuple, want))
                fits = sim.best_insertion(trip, rid, (pos,)) is not None
                spliced = sim.splice_trip(trip, rid, pos)
                # a fresh simulator, so the build cannot hit the splice's trip cache
                built = Simulator(inst).build_trip(new_seq)
                assert fits == (want is not None), (seed, new_seq)
                assert (spliced and spliced.frontiers) == want, (seed, new_seq)
                assert (built and built.frontiers) == want, (seed, new_seq)
                seen[len(new_seq), want is not None] += 1
        assert seen[4, True] >= 20 and seen[5, True] >= 8 and seen[5, False] >= 30, seen


class TestScheduleShape:
    def test_segments_tile_and_within_windows(self):
        count = 0
        for seed in range(300):
            inst, seq = trip_case(seed)
            sched = simulate_trip(inst, seq)
            if isinstance(sched, Infeasible):
                continue
            count += 1
            assert check_schedule_rules(inst, seq, sched) == []
        assert count >= 60  # the generator must produce enough feasible cases


# sha256 over repr(simulate_trip(instance, seq)) of kernel_case(seed) for
# seeds 0-499, then trip_case(seed) for seeds 0-499: the loop below, run at
# commit 6d455d9, before the two Pareto filters of schedule.py were merged.
# Node timings, segments and infeasibility reasons all enter the hash, so a
# change of a tie rule shows here even when every schedule stays valid.
EMISSION_DIGEST = "1d82bdf6cdf470a528a732da397e4e439a5dacd09c67ffe447eb43bb9466d065"


def test_schedule_emission_unchanged():
    digest = hashlib.sha256()
    for case in (kernel_case, trip_case):
        for seed in range(500):
            inst, seq = case(seed)
            digest.update(repr(simulate_trip(inst, seq)).encode())
    assert digest.hexdigest() == EMISSION_DIGEST
