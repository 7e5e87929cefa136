"""Shared generators for randomized tests.

Everything here is seeded and uses exact integer units (d10 for distance,
minutes for time, cents for money) like the package itself.
"""

import math
import os
import random
import signal
from contextlib import contextmanager
from dataclasses import replace

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

REGS = RegParams()
DATA = os.path.join(os.path.dirname(__file__), "data")


def euclid_d10(points):
    n = len(points)
    dist = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j:
                d = math.hypot(points[i][0] - points[j][0], points[i][1] - points[j][1])
                dist[i][j] = 10 * int(math.floor(d + 0.5))
    return dist


def gh_instance(name: str) -> Instance:
    """The native instance of the benchmark file tests/data/<name>.txt."""
    with open(os.path.join(DATA, f"{name}.txt"), "r", encoding="utf-8") as fh:
        return transform(parse_gh(fh.read()))


def micro_instance(
    seed: int, mu_mode: str = "small", levels: tuple = (0.8, 1.0, 1.3, 1.8)
) -> Instance:
    """Euclidean micro-instance with 3-7 requests and mixed price levels.

    mu_mode "small" keeps the minimum distance below the shortest request
    (every single-request trip stays admissible); "large" forces bundling.
    Each request's price is its tier price times one of `levels`.
    """
    rng = random.Random(seed)
    n_req = rng.randint(3, 7)
    n_loc = 2 * n_req
    pts = [(rng.uniform(0, 300), rng.uniform(0, 300)) for _ in range(n_loc)]
    dist = euclid_d10(pts)
    matrix = TravelMatrix.from_distances(dist, 70)
    cost = CostModel()
    days = rng.randint(5, 10)
    requests = []
    for rid in range(1, n_req + 1):
        o, d = 2 * rid - 2, 2 * rid - 1
        day = rng.randint(0, 2)
        pw = TimeWindow(day * 1440 + 360, day * 1440 + 1080)
        dws = tuple(TimeWindow(dd * 1440 + 360, dd * 1440 + 1080) for dd in range(day, days))
        level = rng.choice(levels)
        price = max(1, int(cost.sm_price(dist[o][d]) * level))
        requests.append(Request(rid, o, d, pw, dws, price))
    if mu_mode == "small":
        mu = rng.choice((0, min(dist[r.origin][r.destination] for r in requests) // 2))
    else:
        mu = rng.randint(2000, 4000)
    instance = Instance(tuple(requests), matrix, cost, REGS, mu, Horizon(0, days))
    instance.check()
    return instance


def trip_case(seed: int):
    """Instance plus request sequence (1-3 requests) for trip-level checks."""
    rng = random.Random(seed)
    style = rng.choice(("ladder", "free"))
    n_loc = rng.randint(2, 6)
    days = rng.randint(6, 14)
    horizon_end = days * 1440
    dist = [[0] * n_loc for _ in range(n_loc)]
    for i in range(n_loc):
        for j in range(n_loc):
            if i != j:
                dist[i][j] = rng.randint(1, 9000)
    matrix = TravelMatrix.from_distances(dist, 70)
    n_req = rng.randint(1, 3)
    requests = []
    for rid in range(1, n_req + 1):
        o, d = rng.sample(range(n_loc), 2)
        if style == "ladder":
            day = rng.randint(0, 3)
            pw = TimeWindow(day * 1440 + 360, day * 1440 + 1080)
            wins = tuple(
                TimeWindow(dd * 1440 + 360, dd * 1440 + 1080) for dd in range(day, days)
            )
        else:
            ps = rng.randint(0, horizon_end // 3)
            pw = TimeWindow(ps, min(ps + rng.randint(REGS.sigma, 2880), horizon_end))
            wins = []
            t = rng.randint(0, horizon_end // 2)
            for _ in range(rng.randint(1, 4)):
                ws = t + rng.randint(0, 800)
                we = ws + rng.randint(REGS.sigma, 2000)
                if we > horizon_end:
                    break
                wins.append(TimeWindow(ws, we))
                t = we + rng.randint(1, 400)
            wins = tuple(wins) if wins else (TimeWindow(0, horizon_end),)
        requests.append(Request(rid, o, d, pw, wins, 1000))
    instance = Instance(tuple(requests), matrix, CostModel(), REGS, 0, Horizon(0, days))
    instance.check()
    return instance, tuple(r.id for r in requests)


def kernel_case(seed: int, loose: bool = False):
    """Instance plus request sequence (2-5 requests) aimed at every branch of
    the label kernel.

    Leg times come from a small palette or a wide spread of short hops,
    whole multiples of tau_n (give or take a minute) and lengths up to four
    stints, with no triangle inequality; tau_b is 990 or 300 and sigma 120
    or 0.  Each request's windows follow an anchor time that grows along
    the sequence.  Half the instances use daily 06:00-18:00 windows with a
    delivery window on every later day; the others mix daily windows, wide
    windows, windows that reach the horizon end and windows that open
    sigma before a Sunday blackout, so that a departure falls on its first
    minute; some of their requests drive from the pickup's opening straight
    to a delivery one minute after its last start before a blackout.

    With loose set, windows are wider, so that more sequences of four and
    five requests reach their last node: a daily window runs from 01:00 to
    23:00 of the next day, other windows last up to five days, and a
    ladder's windows run 01:00-23:00, its pickup window over two days.
    Without it, a seed gives the same case as before the mode existed.
    """
    rng = random.Random(seed)
    opens, closes = (60, 1380) if loose else (360, 1080)  # daily windows
    widest = 7200 if loose else 2400
    regs = RegParams(
        tau_b=rng.choice((REGS.tau_b, 300)), sigma=rng.choice((REGS.sigma, REGS.sigma, 0))
    )
    tau_n, sigma = regs.tau_n, regs.sigma
    days = rng.randint(7, 14)
    weekday = rng.randint(0, 6)
    horizon_end = days * 1440
    sundays = [d * 1440 for d in range(days) if (weekday + d) % 7 == SUNDAY]
    n_req = rng.randint(2, 5)
    n_loc = rng.choice((3, rng.randint(3, 2 * n_req)))

    def leg() -> int:
        kind = rng.random()
        if kind < 0.5:
            return rng.randint(0, 150)
        if kind < 0.8:
            return rng.randint(1, 3) * tau_n + rng.randint(-1, 1)
        return rng.randint(1, 4 * tau_n)

    # a small palette makes equal counters common, and with them frontiers
    # that share a first label but differ in the others
    palette = [leg() for _ in range(rng.choice((3, 4, 100)))]
    time = [[0] * n_loc for _ in range(n_loc)]
    for i in range(n_loc):
        for j in range(n_loc):
            if i != j:
                time[i][j] = rng.choice(palette)
    dist = [[10 * t for t in row] for row in time]
    matrix = TravelMatrix(n_loc, tuple(map(tuple, dist)), tuple(map(tuple, time)))

    def window(lo: int) -> TimeWindow:
        """A window opening at or after lo, or None past the horizon."""
        near = [b - sigma for b in sundays if lo <= b - sigma <= lo + 2880]
        if near and rng.random() < 0.3:
            ws = rng.choice(near)  # service can end on a blackout's first minute
        elif rng.random() < 0.5:
            day = -(-lo // 1440)
            ws = day * 1440 + opens  # a daily window
            we = (day + loose) * 1440 + closes
            return TimeWindow(ws, we) if we <= horizon_end else None
        else:
            ws = lo + rng.randint(0, 900)
        we = ws + rng.randint(sigma, widest)
        if we > horizon_end or rng.random() < 0.1:
            we = horizon_end
        return TimeWindow(ws, we) if ws + sigma <= we else None

    def pushed(lo: int, leg: int):
        """A pickup window opening at or after lo and a first delivery window
        such that a service at the pickup's opening, driven straight to the
        delivery, arrives one minute after the delivery's last start before
        a blackout; or None when no such pair fits."""
        arrivals = [b - sigma + 1 for b in sundays if b - 2 * sigma + 1 - leg >= lo]
        if not sigma or leg > tau_n or not arrivals:
            return None
        t = arrivals[0]
        ps = t - sigma - leg
        we = t + sigma + rng.choice((0, regs.tau_s + rng.randint(0, 900)))
        return (
            TimeWindow(ps, ps + rng.randint(sigma, 900)),
            TimeWindow(t - rng.randint(0, 600), min(we, horizon_end)),
        )

    ladder = rng.random() < 0.5  # daily windows, deliveries on every later day
    requests = []
    anchor = rng.randint(0, horizon_end // 4)
    for rid in range(1, n_req + 1):
        o, d = rng.sample(range(n_loc), 2)
        anchor = min(anchor + rng.randint(600, 3600), horizon_end * 3 // 5)
        if ladder:
            day = anchor // 1440
            day += (weekday + day) % 7 == SUNDAY  # no pickup on a blackout day
            pw = TimeWindow(day * 1440 + opens, min((day + loose) * 1440 + closes, horizon_end))
            wins = tuple(TimeWindow(dd * 1440 + opens, dd * 1440 + closes) for dd in range(day, days))
        else:
            pair = pushed(anchor, time[o][d]) if rng.random() < 0.3 else None
            pw = pair[0] if pair else window(anchor) or TimeWindow(anchor, horizon_end)
            wins = [pair[1]] if pair else []
            lo = wins[-1].end + rng.randint(1, 900) if wins else pw.start + rng.randint(0, 1500)
            for _ in range(rng.randint(1, 4)):
                w = window(lo)
                if w is None:
                    break
                wins.append(w)
                lo = w.end + rng.randint(1, 900)
            wins = tuple(wins) if wins else (TimeWindow(pw.start, horizon_end),)
        requests.append(Request(rid, o, d, pw, wins, 1000))
    instance = Instance(
        tuple(requests), matrix, CostModel(), regs, 0, Horizon(weekday, days)
    )
    instance.check()
    return instance, tuple(r.id for r in requests)


def fleet_instance(seed: int) -> Instance:
    """Euclidean instance with 8-14 requests in two to four clusters, so that
    repair states hold several trips.

    Pickups open on one of the first four days, daily 06:00-18:00 or
    01:00-23:00, with a delivery window on every later day.  Prices mix
    cheap and dear levels.  The minimum distance is 0, about a median direct
    distance or about two of the longest, so that spare vehicles come and go
    while a repair runs.
    """
    rng = random.Random(seed)
    n_req = rng.randint(8, 14)
    centers = [(rng.uniform(0, 400), rng.uniform(0, 400)) for _ in range(rng.randint(2, 4))]
    pts = []
    for _ in range(2 * n_req):
        cx, cy = rng.choice(centers)
        pts.append((cx + rng.uniform(-40, 40), cy + rng.uniform(-40, 40)))
    dist = euclid_d10(pts)
    matrix = TravelMatrix.from_distances(dist, 70)
    cost = CostModel()
    days = rng.randint(6, 12)
    requests = []
    for rid in range(1, n_req + 1):
        o, d = 2 * rid - 2, 2 * rid - 1
        day = rng.randint(0, 3)
        lo, hi = (360, 1080) if rng.random() < 0.7 else (60, 1380)
        pw = TimeWindow(day * 1440 + lo, day * 1440 + hi)
        dws = tuple(TimeWindow(dd * 1440 + lo, dd * 1440 + hi) for dd in range(day, days))
        level = rng.choice((0.5, 0.8, 1.0, 1.3, 1.8))
        price = max(1, int(cost.sm_price(dist[o][d]) * level))
        requests.append(Request(rid, o, d, pw, dws, price))
    directs = sorted(dist[r.origin][r.destination] for r in requests)
    mu = rng.choice((0, directs[len(directs) // 2], 2 * directs[-1]))
    instance = Instance(tuple(requests), matrix, cost, REGS, mu, Horizon(0, days))
    instance.check()
    return instance


def blackout_pickup(instance: Instance, rng: random.Random):
    """(instance, rid): the instance with request rid, drawn at random, given
    a pickup window inside one of the horizon's Sunday blackouts, so that
    with sigma > 0 no vehicle can serve it; (instance, None) when the
    horizon holds no whole blackout."""
    regs, horizon = instance.regs, instance.horizon
    sundays = [
        d * 1440
        for d in range(horizon.days)
        if (horizon.origin_weekday + d) % 7 == SUNDAY
        and d * 1440 + regs.tau_s <= horizon.end_minute
    ]
    if not sundays:
        return instance, None
    sunday = rng.choice(sundays)
    start = sunday + rng.randint(0, regs.tau_s - 1)
    window = TimeWindow(start, rng.randint(start + 1, sunday + regs.tau_s))
    requests = list(instance.requests)
    i = rng.randrange(len(requests))
    requests[i] = replace(requests[i], pickup_window=window)
    return replace(instance, requests=tuple(requests)), requests[i].id


class TooSlow(Exception):
    """Not an OSError, so that the CLI's input-error handler lets it through."""


@contextmanager
def time_limit(seconds: float):
    def expire(_signum, _frame):
        raise TooSlow(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
