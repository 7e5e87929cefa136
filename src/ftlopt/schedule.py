"""Earliest-arrival trip scheduling under driving-time rules.

The driver state at a node is a label ``(service_start, nonstop_drive)``.
Because a later-but-more-rested state can beat an earlier-but-tired one
further down the trip, a single label is not enough: every node keeps the
full Pareto frontier of non-dominated labels, and a trip is feasible iff the
frontier at its last node is non-empty.  Frontiers stay tiny (a handful of
entries), so this is also the hot path used by insertion evaluation.

Rules realised here:
  * driving in stints of at most tau_n minutes between rests of >= tau_b;
    rests may be taken early (before the counter is full);
  * a contiguous non-drive, non-service period of >= tau_b resets the
    nonstop counter; service interrupts contiguity, waiting does not;
  * each Sunday carries a blackout [Sunday 00:00, 00:00 + tau_s) during
    which driving and service are forbidden (waiting is allowed and, being
    >= tau_b, resets the counter);
  * an (un)loading operation takes sigma minutes and must fit entirely
    inside one declared window of its node.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .model import MINUTES_PER_DAY, SUNDAY, Instance, RegParams, TimeWindow, Trip, trip_distances

NO_WINDOW = "no_window"
HORIZON = "horizon_exceeded"

WEEK = 7 * MINUTES_PER_DAY


@dataclass(frozen=True)
class Infeasible:
    reason: str
    node: int = -1


@dataclass(frozen=True)
class NodeTiming:
    location: int
    arrival: int
    service_start: int
    departure: int


@dataclass(frozen=True)
class Segment:
    kind: str  # "drive" | "break" | "wait" | "service"
    start: int
    end: int


@dataclass(frozen=True)
class Schedule:
    nodes: tuple[NodeTiming, ...]
    segments: tuple[Segment, ...]


@dataclass(frozen=True)
class Calendar:
    """Sunday-blackout arithmetic for a horizon starting on a given weekday.

    `first_sunday` is the minute at which the first Sunday at or after the
    origin starts; the Sunday that holds minute t starts at
    t - (t - first_sunday) % WEEK.
    """

    origin_weekday: int
    tau_s: int
    horizon_end: int
    first_sunday: int = field(init=False)

    def __post_init__(self):
        first = (SUNDAY - self.origin_weekday) % 7 * MINUTES_PER_DAY
        object.__setattr__(self, "first_sunday", first)


def calendar_for(instance: Instance) -> Calendar:
    return Calendar(
        instance.horizon.origin_weekday, instance.regs.tau_s, instance.horizon.end_minute
    )


# ---------------------------------------------------------------------------
# leg propagation


def _leg_arrivals(t0: int, c0: int, drive: int, regs: RegParams, cal: Calendar):
    """The state (arrival, counter, segments) after driving `drive` minutes
    from (t0, c0), or None when the arrival is past the horizon; `segments`
    holds the leg's (kind, start, end) drive, break and wait segments in
    time order.  A leg has at most one arrival state (see _advance).

    Stints of at most tau_n alternate with rests.  A leg that cannot end
    before the next blackout drives up to it, or until a full stint leaves
    no room for a rest before it, and waits through it.
    """
    tau_n, tau_b = regs.tau_n, regs.tau_b
    tau_s, first_sunday, horizon_end = cal.tau_s, cal.first_sunday, cal.horizon_end
    t, c, left = t0, c0, drive
    segs = []
    while left:
        if t > horizon_end:  # t never decreases: the arrival is past it too
            return None
        sunday_start = t - (t - first_sunday) % WEEK
        if t < sunday_start + tau_s:  # inside a blackout: wait for its end
            be = sunday_start + tau_s
            if be - t >= tau_b:
                c = 0
            segs.append(("wait", t, be))
            t = be
        nb = sunday_start + WEEK
        while True:
            stint = min(tau_n - c, left, nb - t)
            if stint > 0:
                segs.append(("drive", t, t + stint))
                t += stint
                c += stint
                left -= stint
            if left == 0 or nb - t <= tau_b:
                break
            segs.append(("break", t, t + tau_b))
            t += tau_b
            c = 0
        if left:  # rest through the next blackout
            segs.append(("wait", t, nb + tau_s))
            t = nb + tau_s
            c = 0
    return (t, c, tuple(segs)) if t <= horizon_end else None


def _pareto(states: list) -> list:
    """Keep the non-dominated (t, c, ...) states, sorted by (t, c).

    States sort as whole tuples.  Plain (t, c) pairs tie only when equal;
    simulate_trip's leg arrivals (t, c, j, segments) carry one label index
    j each, so a tie on (t, c) keeps the state from the lowest j.
    """
    states.sort()
    kept = states[:1]
    for s in states:
        if s[1] < kept[-1][1]:
            kept.append(s)
    return kept


def _fit(firsts, lasts, t: int) -> Optional[int]:
    """The earliest service start at or after t in a fit table, or None."""
    j = bisect_left(lasts, t)
    return None if j == len(lasts) else max(t, firsts[j])


def _fit_table(windows: Sequence[TimeWindow], sigma: int, cal: Calendar):
    """The valid service starts of a node with the given sorted, disjoint
    windows, compiled to two sorted tuples (firsts, lasts): s is valid
    exactly when firsts[j] <= s <= lasts[j] for some j, so the earliest fit
    at or after t is max(t, firsts[j]) for j = bisect_left(lasts, t), and
    there is none when j == len(lasts).

    A start is valid when its operation [s, s + sigma] lies inside one
    window and ends by horizon_end, and, for sigma > 0, when the operation
    overlaps no blackout: the spans [sunday + tau_s, next sunday - sigma]
    between them.  The spans are as sorted and disjoint as the windows.
    """
    tau_s = cal.tau_s
    firsts, lasts = [], []
    for w in windows:
        lo, hi = w.start, min(w.end, cal.horizon_end) - sigma
        if sigma == 0:  # an empty operation may start inside a blackout
            if lo <= hi:
                firsts.append(lo)
                lasts.append(hi)
            continue
        sunday = lo - (lo - cal.first_sunday) % WEEK
        while sunday + tau_s <= hi:
            a = max(lo, sunday + tau_s)
            b = min(hi, sunday + WEEK - sigma)
            if a <= b:
                firsts.append(a)
                lasts.append(b)
            sunday += WEEK
    return tuple(firsts), tuple(lasts)


# ---------------------------------------------------------------------------
# trip simulation


class Simulator:
    """Per-instance compiled scheduling machinery (pure, shareable)."""

    def __init__(self, instance: Instance):
        self.instance = instance
        self.regs = instance.regs
        self.cal = calendar_for(instance)
        self.dist = instance.matrix.distance
        self.time = instance.matrix.time
        sigma, tau_n, tau_b = self.regs.sigma, self.regs.tau_n, self.regs.tau_b
        # per location pair: the travel time plus its unavoidable rests, a
        # lower bound on the leg from any label (no carried counter, no
        # blackouts on the way)
        self.rested = tuple(
            tuple(t if t <= tau_n else t + tau_b * ((t - 1) // tau_n) for t in row)
            for row in self.time
        )
        # _advance's constants, unpacked once per call
        self._kernel = (
            sigma, tau_n, tau_b, self.cal.tau_s, self.cal.horizon_end, self.cal.first_sunday,
            self.time, self.regs, self.cal,
        )
        # per-request flat tables for the hot paths
        self.origin: dict[int, int] = {}
        self.dest: dict[int, int] = {}
        self.direct: dict[int, int] = {}
        self.price10: dict[int, int] = {}
        # per request: the (loc, firsts, lasts) fit tables (see _fit_table)
        # of its pickup and of its delivery
        self._node_data: dict[int, tuple] = {}
        # per request: its ask record for best_insertions, or None when its
        # pickup or its delivery has no valid start: (o, o_firsts, o_lasts,
        # len(o_lasts), d, d_firsts, d_lasts, len(d_lasts), direct, dist[d],
        # rested[d], rested t_od, the earliest delivery end from the first
        # pickup start, the pickup's last start)
        self._asks: dict[int, Optional[tuple]] = {}
        for r in instance.requests:
            o, d = r.origin, r.destination
            self.origin[r.id] = o
            self.dest[r.id] = d
            self.direct[r.id] = self.dist[o][d]
            self.price10[r.id] = r.sm_price_cents * 10
            (_, o_firsts, o_lasts), (_, d_firsts, d_lasts) = self._node_data[r.id] = tuple(
                (loc, *_fit_table(windows, sigma, self.cal))
                for loc, windows in ((o, (r.pickup_window,)), (d, r.delivery_windows))
            )
            t_od = self.rested[o][d]
            self._asks[r.id] = (
                o, o_firsts, o_lasts, len(o_lasts), d, d_firsts, d_lasts, len(d_lasts),
                self.direct[r.id], self.dist[d], self.rested[d], t_od,
                o_firsts[0] + 2 * sigma + t_od, o_lasts[-1],
            ) if o_lasts and d_lasts else None
        # per-trip caches, keyed by request sequence
        self._trips: dict[tuple[int, ...], Optional[Trip]] = {}
        self._tables: dict[tuple[int, ...], tuple] = {}
        # splice heads (see _head): predecessor frontier -> its location ->
        # {rid: frontier at rid's delivery, or None}
        self._heads: dict[Optional[tuple], dict] = {}
        # every frontier of a cached trip or head and every feasible cell of
        # best_insertions, stored once: value -> the one object kept
        self._interned: dict[tuple, tuple] = {}
        # Shaw relatedness ranks per variant, filled on first use by
        # operators.remove_shaw
        self.shaw_ranks: dict[str, dict[int, dict[int, int]]] = {}

    def clear_caches(self) -> None:
        """Drop memoised trips, per-trip tables, splice heads and the table
        that stores each frontier and cell once (bounds memory).  All of
        them are pure, so later results are unchanged."""
        self._trips.clear()
        self._tables.clear()
        self._heads.clear()
        self._interned.clear()

    def _fit_nodes(self, requests: Sequence[int]) -> tuple:
        """(loc, firsts, lasts) fit tables of a sequence's nodes, in order."""
        return tuple(node for rid in requests for node in self._node_data[rid])

    def _trip_tables(self, trip: Trip) -> tuple:
        """(nodes, latest) of a trip: its _fit_nodes, and per node the latest
        service start that can still finish the trip.

        That bound is the node's last valid start, or less when the next
        node's bound leaves less room after sigma and the rested travel
        time (see rested)."""
        tables = self._tables.get(trip.requests)
        if tables is not None:
            return tables
        sigma, rested = self.regs.sigma, self.rested
        nodes = self._fit_nodes(trip.requests)
        out = [0] * len(nodes)
        nxt = None
        for i in range(len(nodes) - 1, -1, -1):
            loc, _firsts, lasts = nodes[i]
            bound = lasts[-1]
            if nxt is not None:
                bound = min(bound, out[i + 1] - sigma - rested[loc][nxt])
            out[i] = bound
            nxt = loc
        tables = self._tables[trip.requests] = (nodes, tuple(out))
        return tables

    # -- trip construction -------------------------------------------------

    def build_trip(self, requests: Sequence[int]) -> Optional[Trip]:
        seq = tuple(requests)
        if seq in self._trips:
            return self._trips[seq]
        fronts = self._advance(None, None, self._fit_nodes(seq))
        if fronts is None:
            trip = None
        else:
            loaded, empty = trip_distances(self.instance, seq)
            intern = self._interned.setdefault
            trip = Trip(seq, loaded, empty, frontiers=tuple(intern(f, f) for f in fronts[0]))
        self._trips[seq] = trip
        return trip

    # -- insertion evaluation ----------------------------------------------

    def best_insertion(self, trip: Trip, rid: int, positions=None):
        """Cheapest schedulable splice of rid into trip: (delta_d10, pos) or None."""
        return self.best_insertions(trip, ((rid, positions),))[0]

    def best_insertions(self, trip: Trip, asks) -> list:
        """Per (rid, positions) ask, the cheapest schedulable splice of rid
        into trip among the positions (None: all) as (delta_d10, pos), or
        None.  Equal cells are returned as one object (_interned).

        Per ask, one sweep screens each position and computes the distance
        delta of the positions that pass; only those are simulated, cheapest
        delta first.  The screen fits the pickup and then the delivery to
        their fit tables (one bisect each, so window gaps and Sunday
        blackouts count) from lower bounds on their arrivals: the previous
        node's earliest label plus the rested travel time (see rested).
        Fits are monotone, so a position the screen drops has no schedule;
        the next node must then still be reachable by its latest-start bound
        (_trip_tables).  That last test is made again from the exact
        delivery frontier (_head) before the suffix is propagated.  The
        request's constants come from its compiled ask record (_asks), the
        previous delivery and the next pickup from the trip's nodes.
        """
        n = len(trip.requests)
        dist, rested, sigma = self.dist, self.rested, self.regs.sigma
        nodes, lat = self._trip_tables(trip)
        fronts = trip.frontiers
        # per position: the previous delivery's earliest departure (pos > 0)
        # and the next pickup's latest start (pos < n); neither decreases
        # along the trip
        deps = [fronts[k][0][0] + sigma for k in range(1, 2 * n, 2)]
        lats = lat[0::2]
        intern = self._interned.setdefault
        compiled = self._asks
        out = []
        for rid, positions in asks:
            ask = compiled[rid]
            if ask is None:
                out.append(None)
                continue
            (o, o_firsts, o_lasts, n_o, d, d_firsts, d_lasts, n_d,
             direct, dist_d, rested_d, t_od, end_key, start_key) = ask
            if positions is None:
                # positions the screen would drop anyway: those whose next
                # latest start comes before the earliest possible delivery
                # end, and those whose previous departure is past the
                # pickup's last start
                positions = range(bisect_left(lats, end_key), bisect_right(deps, start_key) + 1)
            cands = []
            for pos in positions:
                if pos:
                    prev_d = nodes[2 * pos - 1][0]
                    arr_o = deps[pos - 1] + rested[prev_d][o]
                else:
                    arr_o = o_firsts[0]
                j = bisect_left(o_lasts, arr_o)
                if j == n_o:
                    continue
                s_o = o_firsts[j]
                if s_o < arr_o:
                    s_o = arr_o
                arr_d = s_o + sigma + t_od
                j = bisect_left(d_lasts, arr_d)
                if j == n_d:
                    continue
                s_d = d_firsts[j]
                if s_d < arr_d:
                    s_d = arr_d
                delta = direct
                if pos < n:
                    next_o = nodes[2 * pos][0]
                    if s_d + sigma + rested_d[next_o] > lats[pos]:
                        continue
                    delta += dist_d[next_o]
                    if pos:
                        delta -= dist[prev_d][next_o]
                if pos:
                    delta += dist[prev_d][o]
                cands.append((delta, pos))
            cands.sort()
            for cell in cands:
                k = 2 * cell[1]
                prev = (fronts[k - 1], nodes[k - 1][0]) if k else (None, None)
                head = self._head(*prev, rid)
                # a request that goes last leaves no node to propagate; else
                # the screen's next-start test is made again from the exact
                # delivery frontier before the suffix is propagated
                if head is not None and (
                    k == 2 * n
                    or head[0][0] + sigma + rested_d[nodes[k][0]] <= lats[cell[1]]
                    and self._advance(head, d, nodes, fronts, k) is not None
                ):
                    out.append(intern(cell, cell))
                    break
            else:
                out.append(None)
        return out

    def _head(self, frontier, prev_loc, rid: int) -> Optional[tuple]:
        """The frontier at rid's delivery when its pickup follows the labels
        `frontier` at prev_loc (None, None: a fresh vehicle), or None when
        the two nodes cannot be served.

        Memoised in _heads: _advance reads nothing but the key and the
        instance, so an entry holds for every trip that has the same
        predecessor frontier at the same location.  Equal delivery frontiers
        reached from different keys are stored once (_interned).
        """
        by_loc = self._heads.get(frontier)
        if by_loc is None:
            by_loc = self._heads[frontier] = {}
        by_rid = by_loc.get(prev_loc)
        if by_rid is None:
            by_rid = by_loc[prev_loc] = {}
        if rid in by_rid:
            return by_rid[rid]
        got = self._advance(frontier, prev_loc, self._node_data[rid])
        head = None
        if got is not None:
            head = got[0][1]
            head = self._interned.setdefault(head, head)
        by_rid[rid] = head
        return head

    def _advance(self, frontier, prev_loc, nodes, old=None, start=0):
        """Propagate label frontiers through nodes[start:]: the one forward
        loop, behind build_trip, splice_trip, best_insertion and
        simulate_trip.

        `nodes` holds (loc, firsts, lasts) fit tables (_fit_table).
        `frontier` holds the labels at prev_loc, or None for a fresh vehicle
        that appears at the first node's window start.  `old`, when given,
        holds cached frontiers index-aligned with `nodes`; propagation stops
        at the first node whose frontier equals the cached one, because every
        later frontier then equals its cached value too.  Returns None when
        some node cannot be served, else (computed frontiers, re-converged).

        Closed-form legs (Goel 2009 places rests the same way): with
        dc = c0 + travel, a leg departing at t0 with counter c0 takes
        k = (dc - 1) // tau_n rests, none when dc <= tau_n, and arrives at
        t0 + travel + k*tau_b with counter dc - k*tau_n.  This holds when t0
        is past its week's blackout and the arrival is at or before both the
        next blackout start and the horizon end.  The result is then the
        leg's whole frontier, a single state: one more rest would leave a
        counter <= 0, and driving up to the blackout to rest through it
        finishes the leg before the blackout.  Any other leg goes through
        _leg_arrivals.  The arrivals of all labels are merged as _pareto
        merges them, two arrivals inline.
        Each arrival (t, c), in that order, yields its earliest fit s (one
        bisect of the node's fit table) with counter 0 when c == 0 or
        s - t >= tau_b, else c; while no label with counter 0 is known, a
        tired arrival also yields the rested start, its fit from t + tau_b,
        with counter 0.  Arrivals at or after the earliest known rested
        start yield only dominated labels and are skipped.
        """
        sigma, tau_n, tau_b, tau_s, horizon_end, first_sunday, time, regs, cal = self._kernel
        computed = []
        for i in range(start, len(nodes)):
            loc, firsts, lasts = nodes[i]
            n_fit = len(lasts)
            if frontier is None:  # the window start fits to firsts[0]
                arrivals = ((firsts[0], 0),) if n_fit else ()
            else:
                travel = time[prev_loc][loc]
                arrivals = []
                for s0, c0 in frontier:
                    t0 = s0 + sigma
                    dc = c0 + travel
                    arr = t0 + travel
                    if dc > tau_n:
                        k = (dc - 1) // tau_n
                        arr += k * tau_b
                        dc -= k * tau_n
                    ss = t0 - (t0 - first_sunday) % WEEK
                    if t0 >= ss + tau_s and arr <= ss + WEEK and arr <= horizon_end:
                        arrivals.append((arr, dc))
                    else:
                        leg = _leg_arrivals(t0, c0, travel, regs, cal)
                        if leg is not None:
                            arrivals.append(leg[:2])
                if len(arrivals) == 2:
                    a, b = arrivals
                    if b < a:
                        a, b = b, a
                    arrivals = (a, b) if b[1] < a[1] else (a,)
                elif len(arrivals) > 2:
                    arrivals = _pareto(arrivals)
            out = []
            zero_s = None  # earliest known fresh-counter service start
            for t, c in arrivals:
                if zero_s is not None and t >= zero_s:
                    break
                j = bisect_left(lasts, t)
                if j == n_fit:
                    continue
                s = firsts[j] if firsts[j] > t else t
                if c == 0 or s - t >= tau_b:
                    out.append((s, 0))
                    if zero_s is None or s < zero_s:
                        zero_s = s
                else:
                    out.append((s, c))
                    if zero_s is None:
                        # s < t + tau_b <= s2: the rested start is later
                        t2 = t + tau_b
                        j = bisect_left(lasts, t2, j)
                        if j < n_fit:
                            s2 = firsts[j] if firsts[j] > t2 else t2
                            out.append((s2, 0))
                            zero_s = s2
            if not out:
                return None
            # from one arrival, out is already sorted and non-dominated
            frontier = tuple(_pareto(out) if len(arrivals) > 1 else out)
            computed.append(frontier)
            if old is not None and frontier == old[i]:
                return computed, True
            prev_loc = loc
        return computed, False

    def splice_trip(self, trip: Trip, rid: int, pos: int) -> Optional[Trip]:
        """The trip with rid spliced in at pos, or None when unschedulable;
        the result equals a from-scratch build of the sequence.

        Reuses the prefix frontiers, takes the head at rid's delivery from
        _head and, once the propagated suffix re-converges with the cached
        one, reuses the remaining frontiers as well.  New frontiers are
        stored once (_interned).
        """
        seq = trip.requests
        new_seq = seq[:pos] + (rid,) + seq[pos:]
        if new_seq in self._trips:
            return self._trips[new_seq]
        nodes = self._trip_tables(trip)[0]
        old = trip.frontiers
        k = 2 * pos  # node index in the old trip of the first node after rid
        frontier, prev_loc = (old[k - 1], nodes[k - 1][0]) if k else (None, None)
        head = self._head(frontier, prev_loc, rid)
        tail = None if head is None else self._advance(head, self.dest[rid], nodes, old, k)
        if tail is None:
            out = None
        else:
            intern = self._interned.setdefault
            pickup = self._advance(frontier, prev_loc, self._node_data[rid][:1])[0][0]
            computed, converged = tail
            fronts = old[:k] + (intern(pickup, pickup), head)
            fronts += tuple(intern(f, f) for f in computed)
            if converged:
                fronts += old[k + len(computed) :]
            loaded, empty = trip_distances(self.instance, new_seq)
            out = Trip(new_seq, loaded, empty, frontiers=fronts)
        self._trips[new_seq] = out
        return out


# ---------------------------------------------------------------------------
# public operations


def simulate_trip(instance: Instance, requests: Sequence[int], simulator: Simulator = None):
    """Full earliest-completion schedule for a request sequence, or Infeasible.

    The vehicle appears at the first pickup at that window's start with a
    fresh driving counter; service and travel legs alternate from there.
    Simulator._advance propagates the frontiers a node at a time, so that a
    failure names its node: HORIZON when every leg into it ends past the
    horizon, else NO_WINDOW.  The schedule is walked back from the earliest
    label at the last node; each step rebuilds the legs into a node to find
    the label's parent and emits that leg's segments.
    """
    if not requests:
        raise ValueError("empty request sequence")
    if len(set(requests)) != len(requests):
        raise ValueError("duplicate requests in sequence")
    sim = simulator or Simulator(instance)
    regs, cal = sim.regs, sim.cal
    sigma, tau_b = regs.sigma, regs.tau_b
    nodes = sim._fit_nodes(requests)
    fronts = []

    def legs(i):
        """Node i's leg arrivals (t, c, label index j, segments) from the
        labels at node i - 1, as _advance merges them."""
        travel = sim.time[nodes[i - 1][0]][nodes[i][0]]
        out = []
        for j, (s, c) in enumerate(fronts[i - 1]):
            leg = _leg_arrivals(s + sigma, c, travel, regs, cal)
            if leg is not None:
                out.append((leg[0], leg[1], j, leg[2]))
        return _pareto(out)

    frontier = prev_loc = None
    for i, node in enumerate(nodes):
        got = sim._advance(frontier, prev_loc, (node,))
        if got is None:
            return Infeasible(HORIZON if i and not legs(i) else NO_WINDOW, i)
        frontier, prev_loc = got[0][0], node[0]
        fronts.append(frontier)

    # walk back from the earliest label at the last node.  A label's parent
    # is the first leg arrival (t, tc) that _advance turns into it: by the
    # earliest fit from t, keeping tc, or by the fit from t + tau_b, with
    # counter 0.  When the earliest fit waits tau_b or more, _advance resets
    # the counter, and that fit is also the fit from t + tau_b; no label has
    # counter tc then, as no other arrival has it
    s, c = fronts[-1][0]
    chain = []
    for i in range(len(nodes) - 1, 0, -1):
        _loc, firsts, lasts = nodes[i]
        for t, tc, j, segs in legs(i):
            if (c == tc and _fit(firsts, lasts, t) == s) or (
                c == 0 and _fit(firsts, lasts, t + tau_b) == s
            ):
                break
        else:
            raise AssertionError(f"no leg arrival gives label {(s, c)} at node {i}")
        chain.append((s, t, segs))
        s, c = fronts[i - 1][j]
    chain.append((s, instance.request(requests[0]).pickup_window.start, ()))
    chain.reverse()

    timings = []
    segments: list[Segment] = []
    for (loc, _firsts, _lasts), (s, arrival, leg) in zip(nodes, chain):
        segments.extend(Segment(*seg) for seg in leg)
        if s > arrival:
            segments.append(Segment("wait", arrival, s))
        if sigma > 0:
            segments.append(Segment("service", s, s + sigma))
        timings.append(NodeTiming(loc, arrival, s, s + sigma))
    return Schedule(tuple(timings), tuple(segments))
