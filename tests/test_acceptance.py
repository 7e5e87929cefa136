"""Acceptance criteria, one test per criterion, each printing a PASS line.

Criterion 5 exercises three named public benchmark instances; the files are
not redistributable inside this repository snapshot and must be placed in
tests/data/gh/ first (see README, section Benchmarks).  Everything else is
self-contained.
"""

import inspect
import json
import math
import os
import random
import time
from fractions import Fraction

import pytest

from ftlopt.engine import AlnsConfig, run
from ftlopt.instances import (
    MU_PER_DAY_KM,
    instance_to_dict,
    parse_gh,
    read_instance,
    transform,
    write_instance,
)
from ftlopt.model import DEFAULT_SM_TIERS, RegParams, fmt_money, solution_cost, validate_solution
from ftlopt.operators import (
    PSI,
    REMOVAL_OPERATORS,
    XI,
    InsertionEvaluator,
    build_initial,
    removal_count,
    repair,
)
from ftlopt.oracle import (
    brute_force,
    brute_force_schedule,
    build_arc_graph,
    check_lp_assignment,
    check_schedule_rules,
    check_sunday_rests,
    lp_objective_cents,
)
from ftlopt.scenarios import compare, scenario_all_fct, scenario_all_sm, scenario_mixed
from ftlopt.schedule import Infeasible, Simulator, simulate_trip

from helpers import micro_instance, trip_case

DATA = os.path.join(os.path.dirname(__file__), "data")
GH_DIR = os.path.join(DATA, "gh")
GH_NAMES = ("C1_2_1", "R1_2_1", "RC1_2_1")


def _report(line: str) -> None:
    print(line)


def test_criterion_1_parameter_fidelity():
    regs = RegParams()
    assert (regs.tau_n, regs.tau_b, regs.tau_s, regs.sigma, regs.nu) == (450, 990, 1320, 120, 70)
    cfg = AlnsConfig()
    assert (cfg.max_iterations, PSI, XI, cfg.segment_length) == (25_000, 100, (7, 20), 200)
    # the relative cap is 35 per 100 planned requests, exactly
    assert Fraction(*XI) == Fraction("0.35")
    # the transformation's rules, as the transformed instance carries them
    with open(os.path.join(DATA, "gh_mini.txt"), "r", encoding="utf-8") as fh:
        instance = transform(parse_gh(fh.read()))
    assert instance.cost.kappa_cents == 106
    assert instance.cost.sm_tiers == DEFAULT_SM_TIERS == ((1500, 175), (3500, 140), (None, 115))
    assert instance.regs == regs
    assert MU_PER_DAY_KM == 250
    assert instance.mu_d10 == 2500 * len({r.pickup_window.start // 1440 for r in instance.requests})
    assert inspect.signature(transform).parameters["factor"].default == 6
    _report("PASS criterion 1: defaults match the production parameter tables")


def test_criterion_2_search_oracle_equivalence():
    started = time.perf_counter()
    exact = 0
    worst_gap = 0.0
    for seed in range(100):
        instance = micro_instance(seed)
        optimum = brute_force(instance)
        best, _rep = run(instance, AlnsConfig(max_iterations=2_000, seed=seed))
        assert best.cost_total >= optimum.cost_total, seed
        gap = best.cost_total / optimum.cost_total - 1.0
        worst_gap = max(worst_gap, gap)
        assert gap <= 0.02, (seed, gap)
        if best.cost_total == optimum.cost_total:
            exact += 1
    elapsed = time.perf_counter() - started
    assert exact >= 95, exact
    assert elapsed < 60.0, elapsed
    _report(
        f"PASS criterion 2: engine == exact optimum on {exact}/100, "
        f"worst gap {100 * worst_gap:.2f}%, {elapsed:.1f}s"
    )


def test_criterion_3_schedule_oracle_equivalence():
    rng = random.Random(123_456)
    feasible = 0
    cases = 0
    while cases < 500:
        instance, seq = trip_case(rng.randrange(100_000_000))
        cases += 1
        got = simulate_trip(instance, seq)
        want = brute_force_schedule(seq, instance)
        got_bad = isinstance(got, Infeasible)
        want_bad = isinstance(want, Infeasible)
        assert got_bad == want_bad, (cases, got, want)
        if got_bad:
            continue
        feasible += 1
        assert got.nodes[-1].service_start == want, cases
        assert check_schedule_rules(instance, seq, got) == [], cases
        assert check_sunday_rests(instance, got) == [], cases
    assert feasible >= 100
    _report(
        f"PASS criterion 3: 500 randomized trips, {feasible} feasible, "
        "kernel == minute-level oracle with zero rule violations"
    )


def test_criterion_4_lp_soundness():
    rng = random.Random(9_000)
    checked = 0
    while checked < 200:
        instance = micro_instance(rng.randrange(1_000_000))
        if checked % 2:
            solution = build_initial(InsertionEvaluator(Simulator(instance)))
        else:
            solution, _rep = run(instance, AlnsConfig(max_iterations=60, seed=checked))
        graph = build_arc_graph(instance)
        assert check_lp_assignment(graph, instance, solution) == []
        objective = lp_objective_cents(graph, instance, solution)
        assert abs(objective - solution.cost_total) <= 1.0  # one cent
        checked += 1
    _report("PASS criterion 4: 200 feasible solutions satisfy the exported model exactly")


def _gh_paths():
    return {name: os.path.join(GH_DIR, f"{name}.txt") for name in GH_NAMES}


def test_criterion_5_benchmark_desk_scale(tmp_path):
    paths = _gh_paths()
    missing = [n for n, p in paths.items() if not os.path.exists(p)]
    if missing:
        pytest.fail(
            "criterion 5 needs the public 200-customer benchmark files "
            f"{', '.join(missing)} in tests/data/gh/ (not redistributable in "
            "this snapshot and not fetchable from the build sandbox; see "
            "README section Benchmarks). The same pipeline is exercised on "
            "bundled synthetic data by test_desk_scale_synthetic_pipeline."
        )
    budget_s = 600.0
    savings = {}
    for name, path in paths.items():
        instance = transform(parse_gh(open(path).read()))
        sm_result, _ = scenario_all_sm(instance)
        for seed in (1, 2, 3):
            t0 = time.perf_counter()
            mixed, _sol, _rep = scenario_mixed(instance, AlnsConfig(seed=seed))
            assert time.perf_counter() - t0 <= budget_s
            t0 = time.perf_counter()
            fct, _sol2, _rep2 = scenario_all_fct(instance, AlnsConfig(seed=seed + 100))
            assert time.perf_counter() - t0 <= budget_s
            assert mixed.total_cents <= sm_result.total_cents, (name, seed)
            if fct.total_cents < sm_result.total_cents or fct.residual:
                _report(
                    f"NOTE criterion 5: {name} seed {seed}: all-fct "
                    f"{fmt_money(fct.total_cents)} vs all-sm {fmt_money(sm_result.total_cents)}"
                    f" (residual {fct.residual})"
                )
            pct = 100.0 * (sm_result.total_cents - mixed.total_cents) / sm_result.total_cents
            savings.setdefault(name, []).append(pct)
    for pct in savings["C1_2_1"]:
        assert 0.0 <= pct <= 2.0, savings["C1_2_1"]
    _report(f"PASS criterion 5: desk-scale runs ok; savings {savings}")


def test_criterion_6_compare_determinism(tmp_path):
    path = _gh_paths()["C1_2_1"]
    if os.path.exists(path):
        instance = transform(parse_gh(open(path).read()))
        cfg = AlnsConfig(seed=42)
        note = "C1_2_1"
    else:
        instance = transform(parse_gh(open(os.path.join(DATA, "gh_syn_c1.txt")).read()))
        cfg = AlnsConfig(max_iterations=1_500, seed=42)
        note = "bundled synthetic stand-in (benchmark file not present)"
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    compare(instance, cfg, str(a_dir))
    compare(instance, cfg, str(b_dir))

    def rows_without_cpu(path):
        lines = path.read_text().splitlines()
        return [",".join(line.split(",")[:-1]) for line in lines]

    assert rows_without_cpu(a_dir / "compare.csv") == rows_without_cpu(b_dir / "compare.csv")
    assert (a_dir / "summary.csv").read_bytes() == (b_dir / "summary.csv").read_bytes()
    _report(f"PASS criterion 6: byte-identical compare reports on {note}")


def test_criterion_7_transformation_golden():
    # fixture arithmetic, by hand:
    #   node pairs (1,3) and (2,4); factor 6
    #   r1: (0,0)->(40,30): euclid 50 -> 300 km, tier 1.40 -> 420.00 EUR,
    #       tw_start 0 -> ready day 0 -> pickup [360, 1080]
    #   r2: (0,70)->(30,40): euclid 42.43 -> 254.56 -> 255 km, tier 1.40
    #       -> 357.00 EUR, tw_start 250*6=1500 -> day 1 -> [1800, 2520]
    #   pickup days {0, 1} -> mu = 2 * 250 km
    #   horizon = day 1 + 1 + 7 slack = 9 days
    with open(os.path.join(DATA, "gh_mini.txt"), "r", encoding="utf-8") as fh:
        instance = transform(parse_gh(fh.read()))
    assert instance.direct_d10(1) == 3000
    assert instance.request(1).sm_price_cents == 42_000
    assert instance.direct_d10(2) == 2550
    assert instance.request(2).sm_price_cents == 35_700
    assert instance.mu_d10 == 5_000
    assert instance.horizon.days == 9
    assert instance.request(2).pickup_window.start == 1800
    golden = os.path.join(DATA, "golden_mini.json")
    # the golden's content, apart from its layout: the document and the
    # instance it reads back as
    with open(golden, "r", encoding="utf-8") as fh:
        assert json.load(fh) == instance_to_dict(instance)
    assert read_instance(golden) == instance
    out = os.path.join(DATA, "golden_check.json")
    try:
        write_instance(instance, out)
        with open(out, "rb") as fh_a, open(golden, "rb") as fh_b:
            assert fh_a.read() == fh_b.read()
    finally:
        os.unlink(out)
    _report("PASS criterion 7: transformation reproduces the golden instance byte-for-byte")


def test_criterion_8_property_suites():
    # compact re-run of the core invariants; the full suites live in the
    # per-module test files and run under the same single pytest command
    rng = random.Random(31)
    regs = RegParams()
    for case in range(40):
        instance, seq = trip_case(rng.randrange(10_000_000))
        sched = simulate_trip(instance, seq)
        if isinstance(sched, Infeasible):
            continue
        assert check_schedule_rules(instance, seq, sched) == []
        assert check_sunday_rests(instance, sched) == []

    for seed in range(8):
        instance = micro_instance(seed)
        sim = Simulator(instance)
        solution = build_initial(InsertionEvaluator(Simulator(instance)))
        all_ids = sorted(r.id for r in instance.requests)
        if solution.planned_count:
            q = removal_count(solution.planned_count)
            assert q == min(100, math.ceil(Fraction(35, 100) * solution.planned_count))
            biggest = max(len(t.requests) for t in solution.trips)
            for name, op in REMOVAL_OPERATORS.items():
                trips, removed = op(sim, solution, q, random.Random(seed))
                assert 1 <= len(removed) <= q + biggest - 1 or len(removed) == len(all_ids)
                fixed = repair(InsertionEvaluator(sim), trips, {*solution.bank, *removed}, 4)
                assert sorted(fixed.planned_ids() + sorted(fixed.bank)) == all_ids
                assert validate_solution(instance, fixed) == []

        best, report = run(instance, AlnsConfig(max_iterations=300, seed=seed))
        bests = [t.best_cents for t in report.trace]
        assert all(a >= b for a, b in zip(bests, bests[1:]))
        assert best.cost_total <= sum(r.sm_price_cents for r in instance.requests)
        for stats in (report.removal_stats, report.insertion_stats):
            assert all(s.weight > 0 for s in stats)
        got = solution_cost(instance, best)
        assert (got.vehicles, got.outsourced, got.total) == (
            best.cost_vehicles,
            best.cost_outsourced,
            best.cost_total,
        )
    _report("PASS criterion 8: property suites green (schedule, repair, removal, engine)")


def test_desk_scale_synthetic_pipeline(tmp_path):
    """Full pipeline on the bundled synthetic 100-request instance.

    Not a substitute for criterion 5's named benchmarks: it checks the hard
    invariants (mixed <= all-sm, reports written, determinism handled in
    criterion 6) at desk scale with a reduced iteration budget.
    """
    native = os.path.join(str(tmp_path), "gh_syn_c1.json")
    write_instance(transform(parse_gh(open(os.path.join(DATA, "gh_syn_c1.txt")).read())), native)
    instance = read_instance(native)
    assert len(instance.requests) == 100
    cfg = AlnsConfig(max_iterations=1_000, seed=7)
    rows = compare(instance, cfg, str(tmp_path))
    by_tag = {r.scenario: r for r in rows}
    assert by_tag["mixed"].total_cents <= by_tag["all-sm"].total_cents
    assert by_tag["all-fct"].vehicles > 0
    if by_tag["all-fct"].residual == 0:
        assert by_tag["all-sm"].total_cents <= by_tag["all-fct"].total_cents
    _report(
        "PASS synthetic desk scale: "
        f"all-sm {fmt_money(by_tag['all-sm'].total_cents)}, "
        f"all-fct {fmt_money(by_tag['all-fct'].total_cents)}, "
        f"mixed {fmt_money(by_tag['mixed'].total_cents)}"
    )


def test_desk_scale_mixed_strictly_beats_outsourcing():
    """Corridor-style synthetic whose geography admits profitable chains:
    the mixed scenario must genuinely beat outsourcing everything."""
    instance = transform(parse_gh(open(os.path.join(DATA, "gh_syn_mix.txt")).read()))
    sm_result, _ = scenario_all_sm(instance)
    mixed, solution, _rep = scenario_mixed(instance, AlnsConfig(max_iterations=1_000, seed=3))
    assert mixed.total_cents < sm_result.total_cents
    assert mixed.vehicles >= 1
    assert all(t.total_d10 >= instance.mu_d10 for t in solution.trips)
    assert validate_solution(instance, solution) == []
    pct = 100.0 * (sm_result.total_cents - mixed.total_cents) / sm_result.total_cents
    _report(
        f"PASS mixed-beats-outsourcing: {fmt_money(sm_result.total_cents)} -> "
        f"{fmt_money(mixed.total_cents)} ({pct:.2f}% saved, "
        f"{mixed.vehicles} vehicles, {solution.planned_count} requests on own fleet)"
    )
