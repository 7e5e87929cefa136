import dataclasses
import itertools
import operator
import os
import random
from fractions import Fraction

import pytest

from ftlopt.engine import AlnsConfig, run
from ftlopt.instances import parse_gh, transform
from ftlopt.model import (
    CostModel,
    Horizon,
    Instance,
    RegParams,
    Request,
    Solution,
    TimeWindow,
    TravelMatrix,
    solution_cost,
)
from ftlopt.operators import InsertionEvaluator, build_initial
from ftlopt.oracle import (
    TooLarge,
    brute_force,
    build_arc_graph,
    check_lp_assignment,
    emit_lp,
    lp_assignment,
    lp_objective_cents,
)
from ftlopt.schedule import Infeasible, Simulator, simulate_trip

from helpers import micro_instance


def tiny_instance(mu=0, sm_level=1.0):
    pts = [0, 120, 200, 340]
    dist = [[abs(a - b) * 10 for b in pts] for a in pts]
    matrix = TravelMatrix.from_distances(dist, 70)
    cost = CostModel()
    days = 10
    reqs = []
    for rid, (o, d) in enumerate(((0, 1), (2, 3)), start=1):
        day = rid - 1
        dws = tuple(TimeWindow(dd * 1440 + 360, dd * 1440 + 1080) for dd in range(day, days))
        price = max(1, int(cost.sm_price(dist[o][d]) * sm_level))
        reqs.append(Request(rid, o, d, TimeWindow(day * 1440 + 360, day * 1440 + 1080), dws, price))
    inst = Instance(tuple(reqs), matrix, cost, RegParams(), mu, Horizon(0, days))
    inst.check()
    return inst


class TestBruteForce:
    def test_outsourcing_only_option(self):
        # s_r below vehicle cost and mu above any trip: outsourcing wins
        inst = tiny_instance(mu=100_000, sm_level=0.5)
        best = brute_force(inst)
        assert best.trips == ()
        assert best.cost_total == sum(r.sm_price_cents for r in inst.requests)

    def test_pairing_beats_outsourcing_when_cheap(self):
        # expensive outsourcing and a cheap deadhead: one trip of both
        inst = tiny_instance(mu=0, sm_level=2.0)
        best = brute_force(inst)
        assert [t.requests for t in best.trips] == [(1,), (2,)] or len(best.trips) >= 1
        # hand enumeration over this 2-request instance
        cost = inst.cost
        singles = cost.vehicle_cost(inst.direct_d10(1) + inst.direct_d10(2))
        assert best.cost_total == min(
            singles,
            sum(r.sm_price_cents for r in inst.requests),
        )

    def test_bundling_beats_both_alternatives(self):
        # two requests whose pair trip is cheaper than outsourcing either,
        # while singles are ruled out by the minimum distance
        pts = [0, 400, 410, 810]
        dist = [[abs(a - b) * 10 for b in pts] for a in pts]
        matrix = TravelMatrix.from_distances(dist, 70)
        days = 10
        dws1 = tuple(TimeWindow(d * 1440 + 360, d * 1440 + 1080) for d in range(days))
        dws2 = tuple(TimeWindow(d * 1440 + 360, d * 1440 + 1080) for d in range(1, days))
        reqs = (
            Request(1, 0, 1, TimeWindow(360, 1080), dws1, 50_000),
            Request(2, 2, 3, TimeWindow(1440 + 360, 1440 + 1080), dws2, 50_000),
        )
        inst = Instance(reqs, matrix, CostModel(), RegParams(), 8000, Horizon(0, days))
        inst.check()
        best = brute_force(inst)
        # pair: 400 + 10 + 400 = 810 km >= mu 800; vehicle cost 858.60
        assert [t.requests for t in best.trips] == [(1, 2)]
        assert best.cost_total == inst.cost.vehicle_cost(8100) == 85_860
        assert best.cost_total < 100_000  # outsourcing both costs 1000.00

    def test_empty_instance(self):
        inst = dataclasses.replace(tiny_instance(), requests=())
        best = brute_force(inst)
        assert best == Solution((), frozenset(), 0, 0, 0)

    def test_guard(self):
        inst = micro_instance(0)
        many = dataclasses.replace(
            inst,
            requests=tuple(
                dataclasses.replace(inst.requests[i % len(inst.requests)], id=i + 1)
                for i in range(9)
            ),
        )
        with pytest.raises(TooLarge):
            brute_force(many)

    def test_oracle_at_least_as_good_as_any_enumerated_plan(self):
        # independent spot check: the oracle's value is a lower bound over a
        # plain enumeration of single-and-pair plans
        inst = micro_instance(5)
        best = brute_force(inst)
        sim = Simulator(inst)
        ids = [r.id for r in inst.requests]
        candidates = [sum(r.sm_price_cents for r in inst.requests)]
        for rid in ids:
            trip = sim.build_trip((rid,))
            if trip is None or trip.total_d10 < inst.mu_d10:
                continue
            rest = sum(r.sm_price_cents for r in inst.requests if r.id != rid)
            candidates.append(inst.cost.vehicle_cost(trip.total_d10) + rest)
        for a, b in itertools.permutations(ids, 2):
            trip = sim.build_trip((a, b))
            if trip is None or trip.total_d10 < inst.mu_d10:
                continue
            rest = sum(r.sm_price_cents for r in inst.requests if r.id not in (a, b))
            candidates.append(inst.cost.vehicle_cost(trip.total_d10) + rest)
        assert best.cost_total <= min(candidates)


class TestArcGraph:
    def test_single_request_graph(self):
        inst = dataclasses.replace(tiny_instance(), requests=tiny_instance().requests[:1])
        graph = build_arc_graph(inst)
        assert sorted((a.src, a.dst) for a in graph.arcs) == [
            ("d1", "ninf"),
            ("n0", "o1"),
            ("o1", "d1"),
        ]

    def test_deadhead_filter(self):
        inst = tiny_instance()
        pairs = {(a.src, a.dst) for a in build_arc_graph(inst).arcs}
        assert ("d1", "o2") in pairs  # 360 + 103 + 69 + 3*120 = 892 <= 2520
        # close the second pickup before the chain can reach it
        tight = dataclasses.replace(
            inst,
            requests=(
                inst.requests[0],
                dataclasses.replace(
                    inst.requests[1], pickup_window=TimeWindow(360, 891)
                ),
            ),
        )
        tight_pairs = {(a.src, a.dst) for a in build_arc_graph(tight).arcs}
        assert ("d1", "o2") not in tight_pairs

    def test_filter_keeps_every_schedulable_deadhead(self):
        # schedule feasibility of (r1, r2) implies the arc passes the filter
        for seed in range(40):
            inst = micro_instance(seed)
            graph = build_arc_graph(inst)
            pairs = {(a.src, a.dst) for a in graph.arcs}
            for a, b in itertools.permutations([r.id for r in inst.requests], 2):
                if not isinstance(simulate_trip(inst, (a, b)), Infeasible):
                    assert (f"d{a}", f"o{b}") in pairs


class TestLp:
    def test_emitted_file_structure(self, tmp_path):
        inst = tiny_instance()
        graph = build_arc_graph(inst)
        path = tmp_path / "m.lp"
        emit_lp(graph, inst, str(path))
        text = path.read_text()
        assert text.startswith("\\")
        for section in ("Minimize", "Subject To", "Binary", "End"):
            assert section in text
        assert "y_n0_o1 = 0" in text
        assert f"mind_d1:" in text
        # objective carries the outsourcing constant
        total_sm = sum(r.sm_price_cents for r in inst.requests)
        assert f"+ {total_sm // 100}.{total_sm % 100:02d}0" in text

    def test_all_outsourced_assignment_clean(self):
        inst = tiny_instance()
        graph = build_arc_graph(inst)
        bank = frozenset(r.id for r in inst.requests)
        total = sum(r.sm_price_cents for r in inst.requests)
        sol = Solution((), bank, 0, total, total)
        assert check_lp_assignment(graph, inst, sol) == []
        assert abs(lp_objective_cents(graph, inst, sol) - total) < 1e-9

    def test_sub_mu_trip_flagged(self):
        inst = tiny_instance(mu=0)
        sim = Simulator(inst)
        trip = sim.build_trip((1,))
        deep = dataclasses.replace(inst, mu_d10=trip.total_d10 + 10)
        graph = build_arc_graph(deep)
        veh = deep.cost.vehicle_cost(trip.total_d10)
        out = deep.requests[1].sm_price_cents
        sol = Solution((trip,), frozenset({2}), veh, out, veh + out)
        problems = check_lp_assignment(graph, deep, sol)
        assert any("minimum distance" in p for p in problems)

    def test_random_feasible_solutions_zero_violations(self):
        rng = random.Random(12)
        checked = 0
        while checked < 60:
            inst = micro_instance(rng.randrange(1_000_000))
            sol = build_initial(InsertionEvaluator(Simulator(inst)))
            graph = build_arc_graph(inst)
            assert check_lp_assignment(graph, inst, sol) == []
            got = lp_objective_cents(graph, inst, sol)
            want = solution_cost(inst, sol).total
            assert abs(got - want) <= 1.0  # within a cent
            checked += 1


def parse_lp(text):
    """(objective, rows, binaries) read back from an emitted LP file.

    The objective is (terms, constant); each row is (name, terms, sense,
    rhs); terms are (coefficient, variable) with Fraction coefficients.
    """

    def linear(tokens):
        terms, sign, coef = [], 1, None
        for tok in tokens:
            if tok in ("+", "-"):
                sign = 1 if tok == "+" else -1
            elif tok[0].isdigit():
                coef = Fraction(tok)
            else:
                terms.append((sign * (1 if coef is None else coef), tok))
                sign, coef = 1, None
        return terms, 0 if coef is None else sign * coef

    section, objective, rows, binaries = None, None, [], []
    for line in text.splitlines():
        if line.startswith("\\"):
            continue
        if not line.startswith(" "):
            section = line
            continue
        if section == "Binary":
            binaries.append(line.strip())
            continue
        name, expr = line.strip().split(": ", 1)
        if section == "Minimize":
            objective = linear(expr.split())
        else:
            assert section == "Subject To", line
            *tokens, sense, rhs = expr.split()
            terms, const = linear(tokens)
            assert const == 0, line
            rows.append((name, terms, sense, Fraction(rhs)))
    assert section == "End"
    return objective, rows, binaries


class TestLpFile:
    """The emitted file itself holds every mapped feasible solution."""

    SENSES = {"=": operator.eq, "<=": operator.le, ">=": operator.ge}

    def check_file(self, inst, sol, tmp_path):
        graph = build_arc_graph(inst)
        path = tmp_path / "m.lp"
        emit_lp(graph, inst, str(path))
        (obj_terms, obj_const), rows, binaries = parse_lp(path.read_text())
        values, missing = lp_assignment(graph, inst, sol)
        assert missing == []
        # the file states the y distances in km, the assignment in d10
        value = {v: Fraction(n, 10) if v.startswith("y_") else n for v, n in values.items()}
        for name, terms, sense, rhs in rows:
            lhs = sum(c * value[v] for c, v in terms)
            assert self.SENSES[sense](lhs, rhs), (name, lhs, sense, rhs)
        assert binaries and all(value[v] in (0, 1) for v in binaries)
        assert all(n >= 0 for n in value.values())
        eur = sum(c * value[v] for c, v in obj_terms) + obj_const
        assert abs(100 * eur - sol.cost_total) <= 1  # one cent
        return len(rows)

    def test_micro_solutions_satisfy_the_file(self, tmp_path):
        for seed in range(20):
            inst = micro_instance(seed, mu_mode="large" if seed % 4 == 3 else "small")
            self.check_file(inst, build_initial(InsertionEvaluator(Simulator(inst))), tmp_path)
            searched, _rep = run(inst, AlnsConfig(max_iterations=40, seed=seed))
            self.check_file(inst, searched, tmp_path)

    def test_desk_instance_solutions_satisfy_the_file(self, tmp_path):
        data = os.path.join(os.path.dirname(__file__), "data", "gh_syn_mix.txt")
        with open(data, "r", encoding="utf-8") as fh:
            inst = transform(parse_gh(fh.read()))
        searched, _rep = run(inst, AlnsConfig(max_iterations=30, seed=1))
        assert searched.trips
        for sol in (build_initial(InsertionEvaluator(Simulator(inst))), searched):
            assert self.check_file(inst, sol, tmp_path) > len(inst.requests)
