"""Ground-truth machinery: exhaustive solvers and model export.

Everything here trades speed for independence: the scheduling oracle walks
minute by minute, the solution oracle enumerates partitions outright, and
the rule checker replays timelines against the raw constraint statements.
They exist to validate the fast implementations, so they deliberately share
no shortcuts with them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from .model import (
    MINUTES_PER_DAY,
    SUNDAY,
    Instance,
    Solution,
    fmt_km,
    trip_distances,
)
from .schedule import Infeasible, Schedule, Simulator


class TooLarge(ValueError):
    """The instance exceeds the enumeration guard of the exact solver."""


# ---------------------------------------------------------------------------
# calendar as plain interval lists (independent of the schedule module's math)


def blackout_intervals(instance: Instance) -> list[tuple[int, int]]:
    """All Sunday blackout intervals overlapping the horizon, sorted."""
    out = []
    tau_s = instance.regs.tau_s
    w0 = instance.horizon.origin_weekday
    for day in range(-7, instance.horizon.days + 7):
        if (w0 + day) % 7 == SUNDAY:
            start = day * MINUTES_PER_DAY
            if start + tau_s > 0 and start <= instance.horizon.end_minute:
                out.append((start, start + tau_s))
    return out


def _overlaps(a0: int, a1: int, intervals: list[tuple[int, int]]) -> bool:
    return any(a0 < e and a1 > s for s, e in intervals)


def _blocked_until(t: int, intervals: list[tuple[int, int]]) -> Optional[int]:
    for s, e in intervals:
        if s <= t < e:
            return e
    return None


# ---------------------------------------------------------------------------
# scheduling oracle: minute-granularity search over rest placements


def _prune(states: list[tuple[int, int]]) -> list[tuple[int, int]]:
    states.sort()
    kept: list[tuple[int, int]] = []
    best = None
    for t, c in states:
        if best is None or c < best:
            kept.append((t, c))
            best = c
    return kept


def brute_force_schedule(
    sequence: Sequence[int], instance: Instance, granularity: int = 1
):
    """True earliest service start at the last node of a request sequence.

    Explores every rest placement at the given time granularity, including
    rests taken before the nonstop counter is full.  Granularity 1 is exact;
    coarser values only ever miss improvements.  Returns the minute, or
    Infeasible when no legal timeline exists.
    """
    if len(sequence) > 3:
        raise TooLarge("scheduling oracle is limited to 3 requests")
    if instance.horizon.days > 14:
        raise TooLarge("scheduling oracle is limited to 14-day horizons")
    regs = instance.regs
    tau_n, tau_b, sigma = regs.tau_n, regs.tau_b, regs.sigma
    blocks = blackout_intervals(instance)
    horizon_end = instance.horizon.end_minute

    def expand(states: list[tuple[int, int]]) -> list[tuple[int, int]]:
        # closure under forced blackout waits and voluntary rests; a state
        # inside a blackout can only wait, so it gives way to its release
        # state (else, at counter 0, it would prune that state away)
        seen = set()
        queue = list(states)
        while queue:
            t, c = queue.pop()
            until = _blocked_until(t, blocks)
            if until is not None:
                t, c = until, 0 if until - t >= tau_b else c
            if (t, c) in seen or t > horizon_end:
                continue
            seen.add((t, c))
            queue.append((t + tau_b, 0))
        return _prune(list(seen))

    def drive_leg(states: list[tuple[int, int]], minutes: int) -> list[tuple[int, int]]:
        layer = _prune(list(states))
        remaining = minutes
        while remaining > 0:
            step = min(granularity, remaining)
            layer = expand(layer)
            nxt = []
            for t, c in layer:
                if c + step <= tau_n and t + step <= horizon_end:
                    if not _overlaps(t, t + step, blocks):
                        nxt.append((t + step, c + step))
            layer = _prune(nxt)
            if not layer:
                return []
            remaining -= step
        return layer

    def serve(states: list[tuple[int, int]], windows) -> list[tuple[int, int]]:
        out = []
        for t, c in states:
            for rest_first in (False, True):
                if rest_first and c == 0:
                    continue
                base = t + tau_b if rest_first else t
                for w in windows:
                    s = max(base, w.start)
                    # the operation [s, s + sigma) must miss every blackout;
                    # one of zero minutes occupies no minute at all
                    while sigma > 0:
                        until = next((be for bs, be in blocks if s < be and bs < s + sigma), None)
                        if until is None:
                            break
                        s = until
                    if s + sigma <= w.end and s + sigma <= horizon_end:
                        cc = 0 if s - t >= tau_b else c
                        out.append((s, cc))
        return _prune(out)

    first = instance.request(sequence[0])
    states = serve([(first.pickup_window.start, 0)], (first.pickup_window,))
    if not states:
        return Infeasible("no_window", 0)
    prev_loc = None
    node = 0
    for rid in sequence:
        r = instance.request(rid)
        for loc, windows in ((r.origin, (r.pickup_window,)), (r.destination, r.delivery_windows)):
            if node > 0:
                travel = instance.matrix.time[prev_loc][loc]
                states = drive_leg([(s + sigma, c) for s, c in states], travel)
                if not states:
                    return Infeasible("horizon_exceeded", node)
                states = serve(states, windows)
                if not states:
                    return Infeasible("no_window", node)
            node += 1
            prev_loc = loc
    return min(t for t, _c in states)


# ---------------------------------------------------------------------------
# rule checker for concrete timelines


def check_schedule_rules(instance: Instance, requests: Sequence[int], sched: Schedule) -> list[str]:
    """Violations of the raw constraint set by a concrete Schedule."""
    regs = instance.regs
    problems: list[str] = []
    blocks = blackout_intervals(instance)

    expected = []
    for rid in requests:
        r = instance.request(rid)
        expected.append((r.origin, (r.pickup_window,)))
        expected.append((r.destination, r.delivery_windows))
    if len(sched.nodes) != len(expected):
        return [f"expected {len(expected)} nodes, got {len(sched.nodes)}"]

    for i, (node, (loc, windows)) in enumerate(zip(sched.nodes, expected)):
        if node.location != loc:
            problems.append(f"node {i}: wrong location")
        if node.departure != node.service_start + regs.sigma:
            problems.append(f"node {i}: departure is not service start + sigma")
        if not any(
            node.service_start >= w.start and node.service_start + regs.sigma <= w.end
            for w in windows
        ):
            problems.append(f"node {i}: service does not fit any window")
        if node.service_start < node.arrival:
            problems.append(f"node {i}: service before arrival")

    first = instance.request(requests[0])
    if sched.nodes[0].arrival != first.pickup_window.start:
        problems.append("tour does not start at the first pickup window start")

    # segments tile the span
    t = sched.nodes[0].arrival
    for seg in sched.segments:
        if seg.start != t:
            problems.append(f"segment gap/overlap at {seg.start} (expected {t})")
        if seg.end < seg.start:
            problems.append(f"segment with negative length at {seg.start}")
        t = seg.end
    if t != sched.nodes[-1].departure:
        problems.append("segments do not end at the final departure")
    if sched.nodes[-1].departure > instance.horizon.end_minute:
        problems.append("schedule runs past the horizon")

    # driving totals per leg
    legs = []
    node_idx = 0
    drive_sum = 0
    for seg in sched.segments:
        if seg.kind == "service":
            if node_idx > 0:
                legs.append(drive_sum)
            drive_sum = 0
            node_idx += 1
        elif seg.kind == "drive":
            drive_sum += seg.end - seg.start
    for i, total in enumerate(legs):
        a = expected[i][0]
        b = expected[i + 1][0]
        want = instance.matrix.time[a][b]
        if total != want:
            problems.append(f"leg {i}: drove {total} min, matrix says {want}")

    # blackout and counter rules
    counter = 0
    rest_run = 0
    for seg in sched.segments:
        if seg.kind in ("drive", "service") and _overlaps(seg.start, seg.end, blocks):
            problems.append(f"{seg.kind} segment at {seg.start} overlaps a Sunday blackout")
        if seg.kind == "drive":
            if rest_run >= regs.tau_b:
                counter = 0
            rest_run = 0
            counter += seg.end - seg.start
            if counter > regs.tau_n:
                problems.append(f"nonstop driving reaches {counter} min at {seg.end}")
        elif seg.kind == "service":
            if rest_run >= regs.tau_b:
                counter = 0
            rest_run = 0
        else:
            rest_run += seg.end - seg.start
    return problems


def check_sunday_rests(instance: Instance, sched: Schedule) -> list[str]:
    """Sundays touched by the schedule must hold a tau_s-long quiet block."""
    regs = instance.regs
    problems = []
    span0 = sched.nodes[0].arrival
    span1 = sched.nodes[-1].departure
    w0 = instance.horizon.origin_weekday
    for day in range(instance.horizon.days):
        if (w0 + day) % 7 != SUNDAY:
            continue
        d0 = day * MINUTES_PER_DAY
        d1 = d0 + MINUTES_PER_DAY
        if d1 <= span0 or d0 >= span1:
            continue
        busy = sorted(
            (max(seg.start, d0), min(seg.end, d1))
            for seg in sched.segments
            if seg.kind in ("drive", "service") and seg.start < d1 and seg.end > d0
        )
        gap_start = d0
        best_gap = 0
        for s, e in busy:
            best_gap = max(best_gap, s - gap_start)
            gap_start = max(gap_start, e)
        best_gap = max(best_gap, d1 - gap_start)
        if best_gap < regs.tau_s:
            problems.append(f"Sunday starting at day {day} lacks a {regs.tau_s}-min rest")
    return problems


# ---------------------------------------------------------------------------
# exact solver for micro-instances


def _best_orderings(instance: Instance, sim: Simulator) -> dict[frozenset, tuple[int, tuple]]:
    """Per request subset: (distance, sequence) of its best feasible trip.

    DFS over sequence prefixes with feasibility pruning; a subset is absent
    when no ordering is both schedulable and long enough for the minimum
    driven distance.
    """
    ids = sorted(r.id for r in instance.requests)
    best: dict[frozenset, tuple[int, tuple]] = {}

    def visit(prefix: tuple):
        if prefix:
            if isinstance(sim.frontiers(prefix), Infeasible):
                return
            loaded, empty = trip_distances(instance, prefix)
            total = loaded + empty
            if total >= instance.mu_d10:
                key = frozenset(prefix)
                cur = best.get(key)
                cand = (total, prefix)
                if cur is None or cand < cur:
                    best[key] = cand
        for rid in ids:
            if rid not in prefix:
                visit(prefix + (rid,))

    visit(())
    return best


def _partitions(elems: tuple, usable) -> "itertools.chain":
    """All partitions of elems into usable blocks (sets), smallest-first."""
    if not elems:
        yield []
        return
    first, rest = elems[0], elems[1:]
    for size in range(len(rest) + 1):
        for combo in itertools.combinations(rest, size):
            block = frozenset((first,) + combo)
            if not usable(block):
                continue
            remainder = tuple(x for x in rest if x not in combo)
            for tail in _partitions(remainder, usable):
                yield [block] + tail


def brute_force(instance: Instance) -> Solution:
    """Minimum-cost feasible solution by full enumeration (|R| <= 8)."""
    n = len(instance.requests)
    if n > 8:
        raise TooLarge(f"{n} requests exceed the enumeration guard of 8")
    sim = Simulator(instance)
    ids = tuple(sorted(r.id for r in instance.requests))
    sm = {r.id: r.sm_price_cents for r in instance.requests}
    best_trip = _best_orderings(instance, sim)

    best_key = None
    best_plan = None
    for mask in range(1 << n):
        bank = tuple(ids[i] for i in range(n) if mask >> i & 1)
        served = tuple(x for x in ids if x not in bank)
        sm_cost = sum(sm[rid] for rid in bank)
        for blocks in _partitions(served, lambda b: b in best_trip):
            total_d10 = sum(best_trip[b][0] for b in blocks)
            cost = instance.cost.vehicle_cost(total_d10) + sm_cost
            seqs = tuple(sorted(best_trip[b][1] for b in blocks))
            key = (cost, bank, seqs)
            if best_key is None or key < best_key:
                best_key = key
                best_plan = (bank, seqs)
    bank, seqs = best_plan
    trips = tuple(sim.build_trip(seq) for seq in seqs)
    cost_vehicles = instance.cost.vehicle_cost(sum(t.total_d10 for t in trips))
    cost_out = sum(sm[rid] for rid in bank)
    return Solution(trips, frozenset(bank), cost_vehicles, cost_out, cost_vehicles + cost_out)


# ---------------------------------------------------------------------------
# arc graph and LP export of the routing / minimum-distance relaxation


@dataclass(frozen=True)
class Arc:
    src: str
    dst: str
    d10: int
    t_min: int


@dataclass(frozen=True)
class ArcGraph:
    nodes: tuple[str, ...]
    arcs: tuple[Arc, ...]

    def arcs_from(self, node: str) -> list[Arc]:
        return [a for a in self.arcs if a.src == node]

    def arcs_into(self, node: str) -> list[Arc]:
        return [a for a in self.arcs if a.dst == node]


def build_arc_graph(instance: Instance) -> ArcGraph:
    reqs = sorted(instance.requests, key=lambda r: r.id)
    dist = instance.matrix.distance
    time = instance.matrix.time
    sigma = instance.regs.sigma
    nodes = ["n0", "ninf"]
    arcs = []
    for r in reqs:
        nodes.append(f"o{r.id}")
        nodes.append(f"d{r.id}")
        arcs.append(Arc(f"o{r.id}", f"d{r.id}", dist[r.origin][r.destination],
                        time[r.origin][r.destination]))
        arcs.append(Arc("n0", f"o{r.id}", 0, 0))
        arcs.append(Arc(f"d{r.id}", "ninf", 0, 0))
    for r1 in reqs:
        for r2 in reqs:
            if r1.id == r2.id:
                continue
            # the deadhead can only be used when the second pickup window is
            # still open after the first pickup opens, both loads are worked
            # (3 service operations), and the two legs are driven:
            #   r1.start + t(o1,d1) + t(d1,o2) + 3*sigma <= r2.end
            reach = (
                r1.pickup_window.start
                + time[r1.origin][r1.destination]
                + time[r1.destination][r2.origin]
                + 3 * sigma
            )
            if reach <= r2.pickup_window.end:
                arcs.append(
                    Arc(f"d{r1.id}", f"o{r2.id}", dist[r1.destination][r2.origin],
                        time[r1.destination][r2.origin])
                )
    return ArcGraph(tuple(nodes), tuple(arcs))


def _eur3(tenth_cents: int) -> str:
    sign = "-" if tenth_cents < 0 else ""
    v = abs(tenth_cents)
    return f"{sign}{v // 1000}.{v % 1000:03d}"


def _xname(a: Arc) -> str:
    return f"x_{a.src}_{a.dst}"


def _yname(a: Arc) -> str:
    return f"y_{a.src}_{a.dst}"


def emit_lp(graph: ArcGraph, instance: Instance, path: str) -> None:
    """Write the routing + minimum-distance model in CPLEX LP format.

    Binary x_a selects arcs, continuous y_a carries the cumulative distance
    from the tour start.  Time windows and driver-hours rules are enforced
    by the schedule simulator and deliberately not emitted.
    """
    kappa = instance.cost.kappa_cents
    reqs = sorted(instance.requests, key=lambda r: r.id)
    serve = {r.id: f"x_o{r.id}_d{r.id}" for r in reqs}
    lines = [
        "\\ Routing and minimum-driven-distance relaxation.",
        "\\ Timing (windows, shift breaks, Sunday breaks) is validated by the",
        "\\ schedule simulator and is intentionally not part of this file.",
        "Minimize",
    ]
    terms = []
    const_cents = sum(r.sm_price_cents for r in reqs)
    for a in graph.arcs:
        coef = kappa * a.d10  # tenth-cents
        if a.src.startswith("o"):
            rid = int(a.src[1:])
            coef -= instance.request(rid).sm_price_cents * 10
        if coef:
            terms.append(f"{'+' if coef > 0 else '-'} {_eur3(abs(coef))} {_xname(a)}")
    terms.append(f"+ {_eur3(const_cents * 10)}")
    lines.append(" obj: " + " ".join(terms).lstrip("+ "))
    lines.append("Subject To")
    for r in reqs:
        into = [a for a in graph.arcs_into(f"o{r.id}")]
        outof = [a for a in graph.arcs_from(f"d{r.id}")]
        lines.append(
            f" k1_{r.id}: " + " + ".join(_xname(a) for a in into) + f" - {serve[r.id]} = 0"
        )
        lines.append(
            f" k2_{r.id}: " + " + ".join(_xname(a) for a in outof) + f" - {serve[r.id]} = 0"
        )
    for node in graph.nodes:
        if node in ("n0", "ninf"):
            continue
        parts = []
        for a in graph.arcs_from(node):
            parts.append(f"+ {_yname(a)}")
            if a.d10:
                parts.append(f"- {fmt_km(a.d10)} {_xname(a)}")
        for a in graph.arcs_into(node):
            parts.append(f"- {_yname(a)}")
        lines.append(f" flow_{node}: " + " ".join(parts).lstrip("+ ") + " = 0")
    for r in reqs:
        lines.append(f" y0_{r.id}: y_n0_o{r.id} = 0")
    big_m = sum(a.d10 for a in graph.arcs)
    for a in graph.arcs:
        lines.append(f" bigm_{a.src}_{a.dst}: {_yname(a)} - {fmt_km(big_m)} {_xname(a)} <= 0")
    for a in graph.arcs_into("ninf"):
        lines.append(
            f" mind_{a.src}: {_yname(a)} - {fmt_km(instance.mu_d10)} {_xname(a)} >= 0"
        )
    lines.append("Binary")
    for a in graph.arcs:
        lines.append(f" {_xname(a)}")
    lines.append("End")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def lp_assignment(graph: ArcGraph, instance: Instance, solution: Solution):
    """Map a solution to (x, y) values on the arc graph.

    y follows the cumulative-distance convention: the total distance driven
    from the tour start up to and including the arc itself, in d10.
    """
    x = {(a.src, a.dst): 0 for a in graph.arcs}
    y = {(a.src, a.dst): 0 for a in graph.arcs}
    missing = []

    def use(src: str, dst: str, cum: int) -> int:
        if (src, dst) not in x:
            missing.append(f"{src}->{dst}")
            return cum
        x[(src, dst)] = 1
        y[(src, dst)] = cum
        return cum

    dist = instance.matrix.distance
    for trip in solution.trips:
        cum = 0
        use("n0", f"o{trip.requests[0]}", 0)
        prev = None
        for rid in trip.requests:
            r = instance.request(rid)
            if prev is not None:
                cum += dist[prev.destination][r.origin]
                use(f"d{prev.id}", f"o{rid}", cum)
            cum += dist[r.origin][r.destination]
            use(f"o{rid}", f"d{rid}", cum)
            prev = r
        use(f"d{trip.requests[-1]}", "ninf", cum)
    return x, y, missing


def check_lp_assignment(graph: ArcGraph, instance: Instance, solution: Solution) -> list[str]:
    """Violated model constraints for a solution, by direct evaluation."""
    x, y, missing = lp_assignment(graph, instance, solution)
    problems = [f"no arc for used leg {m}" for m in missing]
    serve_val = {}
    for r in instance.requests:
        serve_val[r.id] = x.get((f"o{r.id}", f"d{r.id}"), 0)
        if (r.id in solution.bank) == bool(serve_val[r.id]):
            problems.append(f"request {r.id}: serve arc inconsistent with the bank")
    for r in instance.requests:
        into = sum(x[(a.src, a.dst)] for a in graph.arcs_into(f"o{r.id}"))
        outof = sum(x[(a.src, a.dst)] for a in graph.arcs_from(f"d{r.id}"))
        if into != serve_val[r.id]:
            problems.append(f"kirchhoff1 violated at request {r.id}")
        if outof != serve_val[r.id]:
            problems.append(f"kirchhoff2 violated at request {r.id}")
    for node in graph.nodes:
        if node in ("n0", "ninf"):
            continue
        lhs = sum(y[(a.src, a.dst)] for a in graph.arcs_from(node))
        rhs = sum(a.d10 * x[(a.src, a.dst)] for a in graph.arcs_from(node)) + sum(
            y[(a.src, a.dst)] for a in graph.arcs_into(node)
        )
        if lhs != rhs:
            problems.append(f"distance update violated at {node}")
    for r in instance.requests:
        if y.get(("n0", f"o{r.id}"), 0) != 0:
            problems.append(f"start arc of request {r.id} carries distance")
    big_m = sum(a.d10 for a in graph.arcs)
    for a in graph.arcs:
        if y[(a.src, a.dst)] > big_m * x[(a.src, a.dst)]:
            problems.append(f"big-M violated on {a.src}->{a.dst}")
        if y[(a.src, a.dst)] < 0:
            problems.append(f"negative distance on {a.src}->{a.dst}")
    for a in graph.arcs_into("ninf"):
        if y[(a.src, a.dst)] < instance.mu_d10 * x[(a.src, a.dst)]:
            problems.append(f"minimum distance violated on {a.src}->ninf")
    return problems


def lp_objective_cents(graph: ArcGraph, instance: Instance, solution: Solution) -> float:
    """Objective value of the mapped assignment, in cents (exact to 0.1)."""
    x, _y, _missing = lp_assignment(graph, instance, solution)
    tenth_cents = sum(
        instance.cost.kappa_cents * a.d10 * x[(a.src, a.dst)] for a in graph.arcs
    )
    for r in instance.requests:
        tenth_cents += r.sm_price_cents * 10 * (1 - x.get((f"o{r.id}", f"d{r.id}"), 0))
    return tenth_cents / 10
