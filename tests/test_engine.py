import json
import math
import os
import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ftlopt import engine, operators
from ftlopt.engine import (
    MAX_ITERATIONS,
    AlnsConfig,
    ConfigError,
    RunReport,
    TraceRow,
    accept,
    config_from_dict,
    load_config,
    run,
    temperature_schedule,
    write_report,
)
from ftlopt.instances import read_instance
from ftlopt.model import solution_cost, validate_solution
from ftlopt.operators import InsertionEvaluator, build_initial
from ftlopt.oracle import build_arc_graph, check_lp_assignment
from ftlopt.scenarios import fct_instance
from ftlopt.schedule import Simulator

from helpers import fleet_instance, gh_instance, micro_instance, time_limit


class TestConfig:
    def test_defaults_match_production_tables(self):
        cfg = AlnsConfig()
        assert cfg.max_iterations == 25_000
        assert operators.PSI == 100
        assert operators.XI == (7, 20) and Fraction(*operators.XI) == Fraction("0.35")
        assert cfg.segment_length == 200
        assert (engine.SIGMA_BEST, engine.SIGMA_IMPROVE, engine.SIGMA_ACCEPT, engine.RHO) == (
            33, 9, 13, 0.1)
        assert (engine.SA_START_GAP, engine.START_ACCEPTANCE, engine.SA_END_FRACTION) == (
            0.05, 0.5, 0.002)

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigError):
            AlnsConfig(segment_length=0).check()
        with pytest.raises(ConfigError):
            AlnsConfig(max_iterations=MAX_ITERATIONS + 1).check()
        with pytest.raises(ConfigError):
            AlnsConfig(removal_ops=("nope",)).check()
        with pytest.raises(ConfigError):
            AlnsConfig(insertion_ops=("regret1",)).check()
        with pytest.raises(ConfigError):
            config_from_dict({"unknown_key": 1})
        # values of the wrong JSON type are named, never passed through
        for doc in (
            {"max_iterations": "abc"},
            {"max_iterations": 1.5},
            {"segment_length": True},
            {"seed": "x"},
            {"segment_length": 0.5},
            {"segment_length": "200"},
            {"max_seconds": math.nan},
            {"max_seconds": math.inf},
            {"removal_ops": 5},
            {"removal_ops": ["rrr", 3]},
            {"insertion_ops": "greedy"},
            {"max_seconds": "10"},
        ):
            with pytest.raises(ConfigError, match=next(iter(doc))):
                config_from_dict(doc)
        with pytest.raises(ConfigError):
            config_from_dict(["max_iterations"])
        doc = {"removal_ops": ["nope"]}
        with pytest.raises(ConfigError):
            config_from_dict(doc)
        assert doc == {"removal_ops": ["nope"]}
        # a repeated name would take one roulette share per copy
        for doc, message in (
            ({"removal_ops": ["rrr", "rrr", "shaw"]}, "/removal_ops: repeated operator 'rrr'"),
            ({"insertion_ops": ["greedy", "greedy"]}, "/insertion_ops: repeated operator 'greedy'"),
        ):
            with pytest.raises(ConfigError, match=f"^{message}$"):
                config_from_dict(doc)

    def test_seed_and_time_limit_are_non_negative(self):
        # random.Random(-7) draws as random.Random(7)
        for key, bad in (("seed", -7), ("max_seconds", -1)):
            with pytest.raises(ConfigError, match=f"^/{key}: "):
                config_from_dict({key: bad})
        assert config_from_dict({"seed": 0, "max_seconds": 0.0}).max_seconds == 0.0
        assert config_from_dict({"max_seconds": None}).max_seconds is None

    def test_readme_example_is_the_default_config(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        example = readme.split("Run configuration is a JSON file", 1)[1]
        example = example.split("```json", 1)[1].split("```", 1)[0]
        doc = json.loads(example)
        assert config_from_dict(doc) == AlnsConfig()
        # the sample names every field
        assert sorted(doc) == sorted(AlnsConfig.__dataclass_fields__)

    def test_config_file_round_trip(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"max_iterations": 50, "seed": 3, "insertion_ops": ["greedy"]}))
        cfg = load_config(str(p))
        assert cfg.max_iterations == 50
        assert cfg.seed == 3
        assert cfg.insertion_ops == ("greedy",)


# one config field set to one hostile JSON value
HOSTILE_CONFIG_FIELDS = sorted(AlnsConfig.__dataclass_fields__)
HOSTILE_CONFIG_VALUES = (
    math.nan, math.inf, -math.inf, -1, 0, 0.5, 5e-324, 10**307, 10**400, 1e308, -1e308,
    "1", True, None, [], {}, "x" * 100_000,
)
GOLDEN_MINI = read_instance(os.path.join(os.path.dirname(__file__), "data", "golden_mini.json"))


class TestHostileConfig:
    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from(HOSTILE_CONFIG_FIELDS), st.sampled_from(HOSTILE_CONFIG_VALUES))
    def test_one_hostile_value_is_named_or_harmless(self, key, value):
        # either the config names the key briefly, or a short run finishes
        # and its report is valid JSON (no NaN or infinite temperature)
        try:
            cfg = config_from_dict({"max_iterations": 5, "seed": 1, key: value})
        except ConfigError as err:
            assert str(err).startswith(f"/{key}: ") and len(str(err)) < 200, str(err)
            return
        with time_limit(10):
            _best, report = run(GOLDEN_MINI, cfg)
        json.dumps(report.to_dict(), allow_nan=False)

    def test_a_config_checks_itself_when_built(self):
        # replace() (the seed offsets, --seed) builds through the same check
        with pytest.raises(ConfigError, match="^/segment_length: "):
            replace(AlnsConfig(), segment_length=0)


class TestAccept:
    def test_improvement_always_accepted(self):
        assert accept(100, 99, 5.0, random.Random(1))

    def test_equal_cost_accepted_with_probability_one(self):
        rng = random.Random(2)
        assert all(accept(100, 100, 5.0, rng) for _ in range(200))

    def test_gap_t_ln2_accepted_about_half(self):
        rng = random.Random(3)
        temperature = 1000.0
        gap = int(temperature * math.log(2))
        hits = sum(accept(10_000, 10_000 + gap, temperature, rng) for _ in range(10_000))
        assert abs(hits / 10_000 - 0.5) < 0.02


class TestTemperature:
    def test_start_value_formula(self, monkeypatch):
        # a worsening of SA_START_GAP times the initial cost is accepted with
        # probability 1/2: t0 is gap * cost / ln 2 to the bit, since
        # -ln(0.5) == ln(2) exactly
        assert -math.log(0.5) == math.log(2)
        for cost in (0, 1, 1000, 3_324_357, 885_755_822, 10**14):
            t0, _c = temperature_schedule(AlnsConfig(), cost)
            assert t0 == 0.05 * max(cost, 1) / math.log(2), cost
        # the schedule reads the gap when called, so the formula holds for
        # any gap
        monkeypatch.setattr(engine, "SA_START_GAP", 0.2)
        t0, _c = temperature_schedule(AlnsConfig(), 1000)
        assert t0 == 200 / math.log(2)
        assert math.exp(-0.2 * 1000 / t0) == pytest.approx(0.5, abs=1e-15)

    def test_cooling_telescopes_to_end_fraction(self):
        assert engine.SA_END_FRACTION == 0.002
        t0, c = temperature_schedule(AlnsConfig(max_iterations=25_000), 1000)
        assert abs(c - 0.002 ** (1 / 25_000)) < 1e-15
        assert abs(t0 * c**25_000 / t0 - 0.002) < 1e-9


class TestRun:
    def test_zero_iterations_returns_initial(self):
        inst = micro_instance(1)
        best, report = run(inst, AlnsConfig(max_iterations=0, seed=1))
        assert best == build_initial(InsertionEvaluator(Simulator(inst)))
        assert report.best_cents == best.cost_total

    def test_fixed_seed_reproducible(self):
        inst = micro_instance(2)
        cfg = AlnsConfig(max_iterations=400, seed=11)
        a, ra = run(inst, cfg)
        b, rb = run(inst, cfg)
        assert a == b
        assert [(t.iteration, t.current_cents, t.best_cents) for t in ra.trace] == [
            (t.iteration, t.current_cents, t.best_cents) for t in rb.trace
        ]

    def test_best_cost_trace_monotone(self):
        inst = micro_instance(4)
        _best, report = run(inst, AlnsConfig(max_iterations=600, seed=5))
        bests = [t.best_cents for t in report.trace]
        assert all(a >= b for a, b in zip(bests, bests[1:]))

    def test_mixed_never_worse_than_all_outsourced(self):
        for seed in range(6):
            inst = micro_instance(seed)
            best, _ = run(inst, AlnsConfig(max_iterations=300, seed=seed))
            assert best.cost_total <= sum(r.sm_price_cents for r in inst.requests)

    def test_every_solution_of_a_search_is_feasible_and_exactly_priced(self, monkeypatch):
        # engine.run looks repair and build_initial up as module globals on
        # each call, so wrapping them there sees every fresh solution of a
        # search: the initial one and each repair result.  Every accepted
        # solution is one of them, fresh or handed back by the repair memo.
        produced = []

        def recorded(fn):
            def wrapper(*args):
                solution = fn(*args)
                produced.append(solution)
                return solution
            return wrapper

        monkeypatch.setattr(engine, "repair", recorded(engine.repair))
        monkeypatch.setattr(engine, "build_initial", recorded(engine.build_initial))
        cases = []  # (instance, seeds, iterations)
        for name in ("gh_syn_c1", "gh_syn_mix"):
            desk = gh_instance(name)
            cases += [(fct_instance(desk), (1, 2, 3), 100), (desk, (1, 2, 3), 100)]
        cases += [(micro_instance(i), (i,), 300) for i in range(10)]
        every = 20  # the cost and LP checks read every 20th distinct solution
        for inst, seeds, iterations in cases:
            graph, sim = build_arc_graph(inst), Simulator(inst)
            for seed in seeds:
                produced.clear()
                best, _ = run(inst, AlnsConfig(max_iterations=iterations, seed=seed))
                assert any(solution is best for solution in produced), (inst.name, seed)
                # equal solutions check alike, so each is checked once
                for i, solution in enumerate(dict.fromkeys(produced)):
                    assert validate_solution(inst, solution, sim) == [], (inst.name, seed, i)
                    if i % every:
                        continue
                    cost = solution_cost(inst, solution)
                    assert (cost.vehicles, cost.outsourced, cost.total) == (
                        solution.cost_vehicles, solution.cost_outsourced, solution.cost_total
                    ), (inst.name, seed, i)
                    assert check_lp_assignment(graph, inst, solution) == [], (inst.name, seed, i)

    def test_weights_positive_and_stats_consistent(self):
        inst = micro_instance(7)
        cfg = AlnsConfig(max_iterations=450, segment_length=100, seed=7)
        _best, report = run(inst, cfg)
        for stats in (report.removal_stats, report.insertion_stats):
            assert all(s.weight > 0 for s in stats)
            total = sum(s.weight for s in stats)
            probs = [s.weight / total for s in stats]
            assert abs(sum(probs) - 1.0) < 1e-12
        assert sum(s.uses for s in report.removal_stats) == 450
        assert sum(s.uses for s in report.insertion_stats) == 450

    def test_operators_whose_weights_all_fell_to_zero_are_drawn_alike(self, monkeypatch):
        # scores of 0 with RHO 1 zero each weight after the first segment
        # that uses its operator; the roulette then draws every operator
        # alike, where it once gave every draw to the last one.  A long run
        # gets there too: a weight drawn in thousands of segments without a
        # score decays to 0.
        for name, value in (("SIGMA_BEST", 0), ("SIGMA_IMPROVE", 0), ("SIGMA_ACCEPT", 0),
                            ("RHO", 1)):
            monkeypatch.setattr(engine, name, value)
        cfg = AlnsConfig(max_iterations=300, segment_length=1, seed=1)
        _best, report = run(GOLDEN_MINI, cfg)
        for stats in (report.removal_stats, report.insertion_stats):
            assert all(s.weight == 0 for s in stats)
            fair = 300 / len(stats)
            assert all(fair / 2 < s.uses < 2 * fair for s in stats), [s.uses for s in stats]
        assert operators.Wheel([0.0, 0.0, 0.0]).spin(random.Random(5)) == int(
            random.Random(5).random() * 3
        )

    def test_report_files(self, tmp_path):
        inst = micro_instance(10)
        _best, report = run(inst, AlnsConfig(max_iterations=120, segment_length=40, seed=10))
        write_report(report, str(tmp_path / "r"))
        jp = tmp_path / "r.report.json"
        cp = tmp_path / "r.trace.csv"
        doc = json.loads(jp.read_text())
        assert doc["iterations"] == 120
        lines = cp.read_text().splitlines()
        assert lines[0] == "iteration,current_cost,best_cost,temperature"
        assert len(lines) == 1 + len(report.trace)

    def test_trace_money_is_exact(self, tmp_path):
        # the float cents / 100 prints ...83.94 for this sum, within the
        # bounds of 100 requests at up to 10^12 EUR each
        cents = 7_599_752_540_538_393
        row = TraceRow(1, cents, cents, 1.0)
        report = RunReport(1, cents, cents, (row,), (), (), 0.0, False)
        write_report(report, str(tmp_path / "r"))
        text = (tmp_path / "r.trace.csv").read_text()
        assert text.splitlines()[1] == "1,75997525405383.93,75997525405383.93,1.000000"

    def test_empty_instance_runs(self):
        import dataclasses

        inst = dataclasses.replace(micro_instance(12), requests=())
        best, report = run(inst, AlnsConfig(max_iterations=50, seed=12))
        assert best.cost_total == 0 and best.trips == () and not best.bank
        assert report.best_cents == 0

    def test_a_run_that_did_every_iteration_did_not_stop_early(self):
        # the time limit passes during the last iteration, which leaves none
        cfg = AlnsConfig(max_iterations=1, max_seconds=0.0, seed=1)
        _best, report = run(micro_instance(3), cfg)
        assert report.iterations == 1 and report.stopped_early is False
        assert [row.iteration for row in report.trace] == [0, 1]

    def test_wall_clock_stop(self):
        inst = micro_instance(11)
        _best, report = run(inst, AlnsConfig(max_iterations=100_000, seed=11, max_seconds=0.3))
        assert report.stopped_early

    def test_caches_stay_bounded_without_segment_ends(self, monkeypatch):
        # no segment end falls inside these runs; the evaluator still drops
        # every cache once it has added more cells than the bound, and since
        # caches are pure the search is the one whose caches never drop
        inst = fleet_instance(0)
        cfg = AlnsConfig(max_iterations=300, segment_length=10**9, seed=0)
        drops, held = [], []
        clear, column = InsertionEvaluator.clear, InsertionEvaluator.column

        def counted_column(ev, rids, trip):
            out = column(ev, rids, trip)
            held.append(sum(map(len, ev.cells.values())))
            return out

        monkeypatch.setattr(InsertionEvaluator, "clear", lambda ev: drops.append(clear(ev)))
        monkeypatch.setattr(InsertionEvaluator, "column", counted_column)

        def search():
            best, report = run(inst, cfg)
            return best, [(r.iteration, r.current_cents, r.best_cents, r.temperature)
                          for r in report.trace]

        unbounded = search()
        assert not drops and max(held) > 100
        monkeypatch.setattr(operators, "MAX_CACHED_CELLS", 20)
        held.clear()
        assert search() == unbounded
        assert drops
        # one column adds at most one cell per request
        assert max(held) <= 20 + len(inst.requests)

    def test_stop_on_a_segment_end_writes_one_row(self):
        # the stop comes after iteration 1, which is also a segment end
        cfg = AlnsConfig(max_iterations=50, segment_length=1, max_seconds=0.0, seed=1)
        _best, report = run(micro_instance(3), cfg)
        assert report.stopped_early and report.iterations == 1
        assert [row.iteration for row in report.trace] == [0, 1]
