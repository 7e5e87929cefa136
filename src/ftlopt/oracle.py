"""Ground-truth machinery: exhaustive solvers and model export.

Everything here trades speed for independence: the scheduling oracle walks
minute by minute, the solution oracle enumerates partitions outright, and
the rule checker replays timelines against the raw constraint statements.
They exist to validate the fast implementations, so they deliberately share
no shortcuts with them.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .model import (
    MINUTES_PER_DAY,
    SUNDAY,
    Instance,
    Solution,
    fmt_km,
    priced_solution,
    trip_distances,
    write_text,
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


def brute_force_schedule(sequence: Sequence[int], instance: Instance):
    """True earliest service start at the last node of a request sequence:
    the minute, or Infeasible when no legal timeline exists (see
    brute_force_frontiers)."""
    fronts = brute_force_frontiers(sequence, instance)
    return fronts if isinstance(fronts, Infeasible) else fronts[-1][0][0]


def brute_force_frontiers(sequence: Sequence[int], instance: Instance):
    """Per node of a request sequence, the Pareto frontier of (service
    start, nonstop counter) states, sorted; or Infeasible with the first
    node that no legal timeline reaches or serves.

    Drives one minute at a time and explores every rest placement between
    those minutes, including rests taken before the nonstop counter is full,
    so the frontiers are exact.
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
        for _minute in range(minutes):
            layer = expand(layer)
            nxt = []
            for t, c in layer:
                if c < tau_n and t < horizon_end and not _overlaps(t, t + 1, blocks):
                    nxt.append((t + 1, c + 1))
            layer = _prune(nxt)
            if not layer:
                return []
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
    fronts = [states]
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
                fronts.append(states)
            node += 1
            prev_loc = loc
    return fronts


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
    """Sundays touched by the schedule must hold a tau_s-long quiet block.

    The block is looked for from Sunday 00:00 over one day, or over tau_s
    when that is longer: a blackout of more than a day reaches into Monday.
    """
    regs = instance.regs
    problems = []
    span0 = sched.nodes[0].arrival
    span1 = sched.nodes[-1].departure
    w0 = instance.horizon.origin_weekday
    for day in range(instance.horizon.days):
        if (w0 + day) % 7 != SUNDAY:
            continue
        d0 = day * MINUTES_PER_DAY
        d1 = d0 + max(MINUTES_PER_DAY, regs.tau_s)
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
            if sim._advance(None, None, sim._fit_nodes(prefix)) is None:
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
    """Minimum-cost feasible solution by full enumeration (|R| <= 8),
    priced by `model.priced_solution` like every search result."""
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
    return priced_solution(instance, (sim.build_trip(seq) for seq in seqs), bank)


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


def _xname(a: Arc) -> str:
    return f"x_{a.src}_{a.dst}"


def _yname(a: Arc) -> str:
    return f"y_{a.src}_{a.dst}"


_SENSES = {"=": operator.eq, "<=": operator.le, ">=": operator.ge}

# what a violated row means, by the prefix of its name
_ROW_MEANING = {"k1": "kirchhoff1", "k2": "kirchhoff2", "flow": "distance update",
                "y0": "zero start distance", "bigm": "big-M", "mind": "minimum distance"}


@dataclass(frozen=True)
class LpRow:
    """The row `sum(coef * var) sense 0`, with exact integer coefficients.

    `unit` writes the magnitude of an x coefficient: tenth-cents as EUR in
    the objective, d10 as km in the distance rows; None marks a row whose
    coefficients are all +-1.  A y variable carries the distance itself, so
    it has coefficient +-1 in every row, and the file states it in km.
    """

    name: str
    terms: tuple[tuple[int, str], ...]
    sense: str = "="
    unit: Optional[Callable[[int], str]] = None

    def value(self, values: dict[str, int]) -> int:
        return sum(coef * values[var] for coef, var in self.terms)


@dataclass(frozen=True)
class LpModel:
    """Minimise objective + constant (tenth-cents) subject to rows.  Every
    variable has the LP format's default bounds [0, +inf); the binaries
    are further restricted to {0, 1}."""

    objective: LpRow
    constant: int
    rows: tuple[LpRow, ...]
    binaries: tuple[str, ...]


def lp_model(graph: ArcGraph, instance: Instance) -> LpModel:
    """The routing + minimum-distance model on the arc graph: the one
    statement that emit_lp writes and check_lp_assignment evaluates.

    Binary x_a selects arc a; continuous y_a carries the cumulative distance
    (d10) from the tour start up to and including arc a.
    """
    kappa = instance.cost.kappa_cents
    ids = sorted(r.id for r in instance.requests)
    sm = {r.id: 10 * r.sm_price_cents for r in instance.requests}  # tenth-cents
    out_of = {node: [] for node in graph.nodes}
    into = {node: [] for node in graph.nodes}
    for a in graph.arcs:
        out_of[a.src].append(a)
        into[a.dst].append(a)

    objective = []
    for a in graph.arcs:
        coef = kappa * a.d10
        if a.src[0] == "o":  # serving a request saves its spot-market price
            coef -= sm[int(a.src[1:])]
        if coef:
            objective.append((coef, _xname(a)))
    rows = []
    for rid in ids:
        serve = (-1, f"x_o{rid}_d{rid}")
        rows.append(LpRow(f"k1_{rid}", tuple((1, _xname(a)) for a in into[f"o{rid}"]) + (serve,)))
        rows.append(LpRow(f"k2_{rid}", tuple((1, _xname(a)) for a in out_of[f"d{rid}"]) + (serve,)))
    for node in graph.nodes:
        if node in ("n0", "ninf"):
            continue
        terms = []
        for a in out_of[node]:
            terms.append((1, _yname(a)))
            if a.d10:
                terms.append((-a.d10, _xname(a)))
        terms += [(-1, _yname(a)) for a in into[node]]
        rows.append(LpRow(f"flow_{node}", tuple(terms), unit=fmt_km))
    rows += [LpRow(f"y0_{rid}", ((1, f"y_n0_o{rid}"),)) for rid in ids]
    big_m = sum(a.d10 for a in graph.arcs)
    for a in graph.arcs:
        rows.append(LpRow(f"bigm_{a.src}_{a.dst}", ((1, _yname(a)), (-big_m, _xname(a))),
                          "<=", fmt_km))
    for a in into["ninf"]:
        rows.append(LpRow(f"mind_{a.src}", ((1, _yname(a)), (-instance.mu_d10, _xname(a))),
                          ">=", fmt_km))
    binaries = tuple(_xname(a) for a in graph.arcs)
    return LpModel(LpRow("obj", tuple(objective), unit=_eur3), sum(sm.values()), tuple(rows),
                   binaries)


def _eur3(tenth_cents: int) -> str:
    return f"{tenth_cents // 1000}.{tenth_cents % 1000:03d}"


def _lp_terms(row: LpRow) -> str:
    parts = []
    for coef, var in row.terms:
        size = "" if row.unit is None or var[0] == "y" else row.unit(abs(coef)) + " "
        # a zero bound coefficient is written "- 0.0"
        parts.append(f"{'+' if coef > 0 else '-'} {size}{var}")
    return " ".join(parts)


def emit_lp(graph: ArcGraph, instance: Instance, path: str) -> None:
    """Write lp_model in CPLEX LP format.

    Time windows and driver-hours rules are enforced by the schedule
    simulator and deliberately not emitted.
    """
    model = lp_model(graph, instance)
    objective = f"{_lp_terms(model.objective)} + {_eur3(model.constant)}"
    lines = [
        "\\ Routing and minimum-driven-distance relaxation.",
        "\\ Timing (windows, shift breaks, Sunday breaks) is validated by the",
        "\\ schedule simulator and is intentionally not part of this file.",
        "Minimize",
        " obj: " + objective.lstrip("+ "),
        "Subject To",
    ]
    lines += [f" {row.name}: {_lp_terms(row).lstrip('+ ')} {row.sense} 0" for row in model.rows]
    lines.append("Binary")
    lines += [f" {var}" for var in model.binaries]
    lines.append("End")
    write_text(path, "\n".join(lines))


def lp_assignment(graph: ArcGraph, instance: Instance, solution: Solution):
    """Map a solution to (values, missing): the value of every x and y
    variable by name, and the legs it drives that have no arc.

    y follows the cumulative-distance convention: the total distance driven
    from the tour start up to and including the arc itself, in d10.
    """
    values = {name(a): 0 for a in graph.arcs for name in (_xname, _yname)}
    missing = []

    def use(src: str, dst: str, cum: int) -> None:
        if f"x_{src}_{dst}" not in values:
            missing.append(f"{src}->{dst}")
            return
        values[f"x_{src}_{dst}"] = 1
        values[f"y_{src}_{dst}"] = cum

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
    return values, missing


def check_lp_assignment(graph: ArcGraph, instance: Instance, solution: Solution) -> list[str]:
    """Violated rows, binaries and bounds of lp_model for a solution."""
    values, missing = lp_assignment(graph, instance, solution)
    problems = [f"no arc for used leg {m}" for m in missing]
    for r in instance.requests:
        if (r.id in solution.bank) == bool(values.get(f"x_o{r.id}_d{r.id}", 0)):
            problems.append(f"request {r.id}: serve arc inconsistent with the bank")
    model = lp_model(graph, instance)
    for row in model.rows:
        lhs = row.value(values)
        if not _SENSES[row.sense](lhs, 0):
            meaning = _ROW_MEANING[row.name.split("_", 1)[0]]
            problems.append(f"{meaning} violated: {row.name} reads {lhs} {row.sense} 0")
    problems += [f"binary {v} is {values[v]}" for v in model.binaries if values[v] not in (0, 1)]
    problems += [f"{var} is {n}, below its bound 0" for var, n in values.items() if n < 0]
    return problems


def lp_objective_cents(graph: ArcGraph, instance: Instance, solution: Solution) -> float:
    """Objective value of the mapped assignment, in cents (exact to 0.1)."""
    model = lp_model(graph, instance)
    values, _missing = lp_assignment(graph, instance, solution)
    return (model.objective.value(values) + model.constant) / 10
