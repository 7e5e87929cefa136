import csv
import json
import math
import os
import re
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

from ftlopt import cli, scenarios
from ftlopt.engine import AlnsConfig, ConfigError
from ftlopt.instances import parse_gh, transform, write_instance
from ftlopt.model import Solution, cents
from ftlopt.scenarios import (
    CSV_HEADER,
    compare,
    dump_schedules,
    fct_penalty_cents,
    scenario_all_fct,
    scenario_all_sm,
    scenario_mixed,
)

from helpers import micro_instance

DATA = os.path.join(os.path.dirname(__file__), "data")


def mini_instance():
    with open(os.path.join(DATA, "gh_mini.txt"), "r", encoding="utf-8") as fh:
        return transform(parse_gh(fh.read()))


class TestAllSm:
    def test_tier_sum_example(self):
        # direct distances 100, 200, 400 km -> 175 + 280 + 460 = 915 EUR
        import dataclasses

        from ftlopt.model import (
            CostModel,
            Horizon,
            Instance,
            RegParams,
            Request,
            TimeWindow,
            TravelMatrix,
        )

        pts = [0, 100, 1000, 1200, 2000, 2400]
        dist = [[abs(a - b) * 10 for b in pts] for a in pts]
        matrix = TravelMatrix.from_distances(dist, 70)
        cost = CostModel()
        days = 9
        reqs = []
        for rid, (o, d) in enumerate(((0, 1), (2, 3), (4, 5)), start=1):
            dws = tuple(TimeWindow(dd * 1440 + 360, dd * 1440 + 1080) for dd in range(days))
            reqs.append(
                Request(rid, o, d, TimeWindow(360, 1080), dws, cost.sm_price(dist[o][d]))
            )
        inst = Instance(tuple(reqs), matrix, cost, RegParams(), 0, Horizon(0, days))
        result, solution = scenario_all_sm(inst)
        assert result.total_cents == cents("915.00")
        assert result.vehicles == 0
        assert result.outsourced_d10 == sum(dist[o][d] for o, d in ((0, 1), (2, 3), (4, 5)))

    def test_empty_instance(self):
        import dataclasses

        inst = dataclasses.replace(mini_instance(), requests=())
        result, _sol = scenario_all_sm(inst)
        assert result.total_cents == 0

    def test_upper_bounds_initial_solution(self):
        from ftlopt.operators import InsertionEvaluator, build_initial
        from ftlopt.schedule import Simulator

        inst = micro_instance(14)
        result, _sol = scenario_all_sm(inst)
        assert build_initial(InsertionEvaluator(Simulator(inst))).cost_total <= result.total_cents


class TestAllFct:
    def test_penalty_is_finite_and_scaled(self):
        inst = mini_instance()
        pen = fct_penalty_cents(inst)
        total_direct = sum(inst.direct_d10(r.id) for r in inst.requests)
        assert pen == inst.cost.kappa_cents * total_direct
        assert pen > max(r.sm_price_cents for r in inst.requests)

    def test_compatible_pair_one_vehicle(self):
        # two requests chained tightly: one vehicle serves both
        import dataclasses

        from ftlopt.model import (
            CostModel,
            Horizon,
            Instance,
            RegParams,
            Request,
            TimeWindow,
            TravelMatrix,
        )

        pts = [0, 300, 300, 600]  # delivery of r1 co-located with pickup of r2
        dist = [[abs(a - b) * 10 for b in pts] for a in pts]
        matrix = TravelMatrix.from_distances(dist, 70)
        cost = CostModel()
        days = 10
        reqs = (
            Request(1, 0, 1, TimeWindow(360, 1080),
                    tuple(TimeWindow(dd * 1440 + 360, dd * 1440 + 1080) for dd in range(days)),
                    cost.sm_price(3000)),
            Request(2, 2, 3, TimeWindow(1440 + 360, 1440 + 1080),
                    tuple(TimeWindow(dd * 1440 + 360, dd * 1440 + 1080) for dd in range(1, days)),
                    cost.sm_price(3000)),
        )
        inst = Instance(reqs, matrix, cost, RegParams(), 0, Horizon(0, days))
        result, solution, _rep = scenario_all_fct(inst, AlnsConfig(max_iterations=200, seed=1))
        assert result.vehicles == 1
        assert result.residual == 0
        assert result.empty_d10 == 0
        assert result.outsourced_cents == 0

    def test_unreachable_request_flagged(self):
        import dataclasses

        from ftlopt.model import TimeWindow

        inst = mini_instance()
        # pickup window too short for the loading operation itself
        broken = dataclasses.replace(
            inst,
            requests=(
                inst.requests[0],
                dataclasses.replace(
                    inst.requests[1],
                    pickup_window=TimeWindow(1800, 1860),
                ),
            ),
        )
        result, _sol, _rep = scenario_all_fct(broken, AlnsConfig(max_iterations=60, seed=2))
        assert result.residual >= 1


def test_a_search_reports_its_run_time_and_all_sm_none():
    # one clock: a search's cpu_s is the wall_s of its run, set-up included
    inst = micro_instance(21)
    for scenario in (scenario_all_fct, scenario_mixed):
        result, _sol, report = scenario(inst, AlnsConfig(max_iterations=30, seed=1))
        assert result.cpu_s == report.wall_s > 0
    assert scenario_all_sm(inst)[0].cpu_s == 0.0


class TestCompare:
    def test_report_layout_and_invariants(self, tmp_path):
        inst = micro_instance(21)
        cfg = AlnsConfig(max_iterations=150, seed=5)
        rows = compare(inst, cfg, str(tmp_path))
        text = (tmp_path / "compare.csv").read_text().splitlines()
        assert text[0] == CSV_HEADER
        assert len(text) == 4
        assert text[1].startswith("all-sm,")
        assert text[1].split(",")[4] == "0"  # vehicles
        by_tag = {r.scenario: r for r in rows}
        assert by_tag["mixed"].total_cents <= by_tag["all-sm"].total_cents
        assert (tmp_path / "summary.csv").exists()
        assert (tmp_path / "mixed.report.json").exists()
        assert (tmp_path / "mixed.trace.csv").exists()
        assert (tmp_path / "all-fct.solution.json").exists()

    def test_deterministic_reports(self, tmp_path):
        inst = micro_instance(22)
        cfg = AlnsConfig(max_iterations=150, seed=9)
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        compare(inst, cfg, str(a_dir))
        compare(inst, cfg, str(b_dir))

        def strip_cpu(path):
            rows = path.read_text().splitlines()
            return [",".join(r.split(",")[:-1]) for r in rows]

        assert strip_cpu(a_dir / "compare.csv") == strip_cpu(b_dir / "compare.csv")
        assert (a_dir / "summary.csv").read_bytes() == (b_dir / "summary.csv").read_bytes()

    def test_summary_quotes_the_instance_name(self, tmp_path):
        # a comma, a quote and line ends in the name stay inside one field
        name = 'C1,2\n"1"\r'
        compare(replace(micro_instance(21), name=name), AlnsConfig(max_iterations=20), str(tmp_path))
        with open(tmp_path / "summary.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert [len(row) for row in rows] == [12, 12]
        assert rows[0][0] == "instance" and rows[1][0] == name


def cores(monkeypatch, n):
    """Make compare see n usable cores; a list that counts its forks."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: set(range(n)))
    forks = []
    real_fork = os.fork

    def counted_fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    return forks


def outputs(out_dir):
    """The nine compare files without their timing fields: the cpu_s column
    of compare.csv and the reports' wall_s."""
    names = sorted(os.listdir(out_dir))
    assert len(names) == 9, names
    out = {}
    for name in names:
        text = (out_dir / name).read_text()
        if name == "compare.csv":
            text = "\n".join(line.rsplit(",", 1)[0] for line in text.splitlines())
        elif name.endswith(".report.json"):
            doc = json.loads(text)
            del doc["wall_s"]
            text = json.dumps(doc)
        out[name] = text
    return out


class TestParallelCompare:
    """compare runs all-fct in a forked child and mixed in the parent when
    two cores are usable, else both in turn; the outputs are the same."""

    @pytest.mark.parametrize("case", ["micro", "gh_syn_mix"])
    def test_parallel_equals_sequential(self, tmp_path, monkeypatch, case):
        if case == "micro":
            inst, cfg = micro_instance(24), AlnsConfig(max_iterations=150, seed=3)
        else:
            with open(os.path.join(DATA, "gh_syn_mix.txt"), "r", encoding="utf-8") as fh:
                inst = transform(parse_gh(fh.read()))
            cfg = AlnsConfig(max_iterations=25, seed=4)
        forks = cores(monkeypatch, 2)
        par = compare(inst, cfg, str(tmp_path / "par"))
        assert forks == [1]
        forks = cores(monkeypatch, 1)
        seq = compare(inst, cfg, str(tmp_path / "seq"))
        assert forks == []
        assert [replace(r, cpu_s=0) for r in par] == [replace(r, cpu_s=0) for r in seq]
        assert outputs(tmp_path / "par") == outputs(tmp_path / "seq")

    @pytest.mark.parametrize("n_cores", [1, 2])
    def test_all_fct_error_keeps_its_exit_code(self, tmp_path, monkeypatch, n_cores):
        def bad_config(_instance, _config):
            raise ConfigError("all-fct refused")

        path = str(tmp_path / "micro.json")
        write_instance(micro_instance(25), path)
        (tmp_path / "cfg.json").write_text(json.dumps({"max_iterations": 50}))
        forks = cores(monkeypatch, n_cores)
        monkeypatch.setattr(scenarios, "scenario_all_fct", bad_config)  # the fork copies it
        argv = ["compare", "--instance", path, "--config", str(tmp_path / "cfg.json"),
                "--out-dir", str(tmp_path / "o")]
        assert cli.main(argv) == 3
        assert len(forks) == n_cores - 1

    def test_mixed_error_kills_the_child(self, tmp_path, monkeypatch):
        def mixed_fails(_instance, _config):
            raise ValueError("mixed failed")

        forks = cores(monkeypatch, 2)
        monkeypatch.setattr(scenarios, "scenario_all_fct", lambda *_a: time.sleep(60))
        monkeypatch.setattr(scenarios, "scenario_mixed", mixed_fails)
        started = time.perf_counter()
        with pytest.raises(ValueError, match="mixed failed"):
            compare(micro_instance(26), AlnsConfig(max_iterations=10), str(tmp_path))
        assert forks == [1]
        assert time.perf_counter() - started < 30  # killed, not waited for
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_child_killed_by_a_signal(self, tmp_path, monkeypatch):
        parent = os.getpid()

        def killed(_instance, _config):
            assert os.getpid() != parent, "all-fct ran in the test process"
            os.kill(os.getpid(), signal.SIGKILL)

        forks = cores(monkeypatch, 2)
        monkeypatch.setattr(scenarios, "scenario_all_fct", killed)
        with pytest.raises(RuntimeError, match="all-fct search was killed by signal"):
            compare(micro_instance(27), AlnsConfig(max_iterations=10), str(tmp_path))
        assert forks == [1]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestKpiClosure:
    def test_costs_tie_to_kilometres_and_bank(self):
        inst = micro_instance(31)
        result, solution, _rep = scenario_all_fct(inst, AlnsConfig(max_iterations=150, seed=2))
        assert result.vehicle_cents == inst.cost.vehicle_cost(
            result.loaded_d10 + result.empty_d10
        )
        mixed, msol, _r = scenario_mixed(inst, AlnsConfig(max_iterations=150, seed=2))
        assert mixed.outsourced_cents == sum(
            inst.request(rid).sm_price_cents for rid in msol.bank
        )
        assert mixed.vehicle_cents == inst.cost.vehicle_cost(mixed.loaded_d10 + mixed.empty_d10)
        assert mixed.pct_own == 100.0 * msol.planned_count / len(inst.requests)


class TestDumpSchedules:
    def test_csv_shape(self):
        from ftlopt.operators import InsertionEvaluator, build_initial
        from ftlopt.schedule import Simulator

        inst = micro_instance(23)
        sol = build_initial(InsertionEvaluator(Simulator(inst)))
        text = dump_schedules(inst, sol)
        lines = text.splitlines()
        assert lines[0] == "trip,node,location,arrival,service_start,departure,segments"
        assert len(lines) == 1 + 2 * sol.planned_count


class TestCli:
    def run_cli(self, *args, timeout=None, module="ftlopt.cli"):
        # the child needs the checkout's src on its path, as the pytest process has
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        return subprocess.run(
            [sys.executable, "-m", module, *args],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
            timeout=timeout,
        )

    def test_transform_solve_compare(self, tmp_path):
        native = tmp_path / "mini.json"
        r = self.run_cli(
            "transform", "--gh", os.path.join(DATA, "gh_mini.txt"), "--out", str(native)
        )
        assert r.returncode == 0, r.stderr
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_iterations": 80, "seed": 4}))
        out = tmp_path / "sol.json"
        r = self.run_cli(
            "solve", "--instance", str(native), "--scenario", "mixed",
            "--config", str(cfg), "--out", str(out), "--dump-schedule",
        )
        assert r.returncode == 0, r.stderr
        doc = json.loads(out.read_text())
        assert doc["scenario"] == "mixed"
        r = self.run_cli(
            "compare", "--instance", str(native), "--config", str(cfg),
            "--out-dir", str(tmp_path / "cmp"),
        )
        assert r.returncode == 0, r.stderr
        assert (tmp_path / "cmp" / "compare.csv").exists()

    def test_exit_codes(self, tmp_path):
        r = self.run_cli("solve", "--instance", "/nonexistent.json",
                         "--scenario", "mixed", "--out", str(tmp_path / "x.json"))
        assert r.returncode == 2
        native = tmp_path / "mini.json"
        self.run_cli("transform", "--gh", os.path.join(DATA, "gh_mini.txt"), "--out", str(native))
        bad_cfg = tmp_path / "bad.json"
        bad_cfg.write_text(json.dumps({"segment_length": 0}))
        r = self.run_cli(
            "solve", "--instance", str(native), "--scenario", "mixed",
            "--config", str(bad_cfg), "--out", str(tmp_path / "y.json"),
        )
        assert r.returncode == 3
        assert r.stderr.startswith("config error: /segment_length: must be positive"), r.stderr
        bad_cfg.write_text(json.dumps({"max_iterations": "abc"}))
        r = self.run_cli(
            "solve", "--instance", str(native), "--scenario", "mixed",
            "--config", str(bad_cfg), "--out", str(tmp_path / "y.json"),
        )
        assert r.returncode == 3
        assert "max_iterations" in r.stderr and "Traceback" not in r.stderr
        doc = json.loads(native.read_text())
        doc["requests"][0]["sm_price"] = math.nan
        bad_native = tmp_path / "bad_native.json"
        bad_native.write_text(json.dumps(doc))
        r = self.run_cli("solve", "--instance", str(bad_native), "--scenario", "mixed",
                         "--out", str(tmp_path / "z.json"))
        assert r.returncode == 2
        assert "/requests/0/sm_price" in r.stderr
        doc["requests"][0]["sm_price"] = 10
        doc["matrix"]["distance"][0][1] = "x"
        bad_native.write_text(json.dumps(doc))
        r = self.run_cli("solve", "--instance", str(bad_native), "--scenario", "mixed",
                         "--out", str(tmp_path / "w.json"))
        assert r.returncode == 2
        assert "/matrix/distance/0/1" in r.stderr
        doc["matrix"]["distance"][0][1] = "12.5"  # a number in a string is no number
        bad_native.write_text(json.dumps(doc))
        r = self.run_cli("solve", "--instance", str(bad_native), "--scenario", "mixed",
                         "--out", str(tmp_path / "w.json"))
        assert r.returncode == 2
        assert "/matrix/distance/0/1" in r.stderr
        # non-finite numbers in a benchmark file name their line
        with open(os.path.join(DATA, "gh_mini.txt"), "r", encoding="utf-8") as fh:
            gh_lines = fh.read().splitlines()
        row = next(i for i, line in enumerate(gh_lines) if line.split()[:1] == ["1"])
        bad_gh = tmp_path / "bad_gh.txt"
        for col, value in ((4, "inf"), (4, "1e400"), (1, "inf"), (1, "nan")):
            tokens = gh_lines[row].split()
            tokens[col] = value
            bad_gh.write_text("\n".join(gh_lines[:row] + ["  ".join(tokens)] + gh_lines[row + 1 :]))
            r = self.run_cli("transform", "--gh", str(bad_gh), "--out", str(tmp_path / "g.json"))
            assert r.returncode == 2, (col, value, r.stderr)
            assert f"line {row + 1}" in r.stderr
        # a file with only its depot row has no request to make
        bad_gh.write_text("\n".join(gh_lines[:row]))
        r = self.run_cli("transform", "--gh", str(bad_gh), "--out", str(tmp_path / "g.json"))
        assert r.returncode == 2, r.stderr
        assert "no customer nodes" in r.stderr and "Traceback" not in r.stderr
        assert not (tmp_path / "g.json").exists()

    def test_config_faults_exit_3_briefly(self, tmp_path):
        # numbers that once crashed a run (an overflow) or break a bound, the
        # keys of the tuning table that is now fixed, and text that is not
        # JSON end in one short line
        native = tmp_path / "mix.json"
        self.run_cli("transform", "--gh", os.path.join(DATA, "gh_syn_mix.txt"), "--out", str(native))
        short = {"max_iterations": 50, "segment_length": 1}
        retired = ("psi", "xi", "sigma_best", "sigma_improve", "sigma_accept", "rho",
                   "sa_start_gap", "sa_end_fraction")
        cases = [
            (json.dumps({"max_iterations": 10**400}), "/max_iterations: "),
            (json.dumps({"max_iterations": 10**9 + 1}), "/max_iterations: must be 0..1000000000"),
            (json.dumps({**short, "segment_length": 0}), "/segment_length: must be positive"),
            (json.dumps({**short, "max_seconds": -1}), "/max_seconds: must be non-negative"),
            (json.dumps({**short, "max_seconds": math.inf}), "/max_seconds: invalid value inf"),
            *((json.dumps({**short, key: 1}), f"/{key}: unknown key") for key in retired),
            ('{"seed": ' + "9" * 5000 + "}", "/: not valid JSON: "),
            ("{", "/: not valid JSON: "),
            (json.dumps(["seed", 1]), "/: not an object"),
        ]
        cfg = tmp_path / "cfg.json"
        for text, named in cases:
            cfg.write_text(text)
            r = self.run_cli("solve", "--instance", str(native), "--scenario", "mixed",
                             "--config", str(cfg), "--out", str(tmp_path / "s.json"), timeout=30)
            assert r.returncode == 3, (named, r.stderr)
            assert r.stderr.startswith("config error: " + named), r.stderr
            assert len(r.stderr) < 300 and "Traceback" not in r.stderr, r.stderr

    def test_unknown_config_keys_exit_3_with_their_pointer(self, tmp_path):
        # a config key is named as an instance key is: escaped, cut short
        # when long, the first in sorted order with a count of the others
        native = tmp_path / "mini.json"
        self.run_cli("transform", "--gh", os.path.join(DATA, "gh_mini.txt"), "--out", str(native))
        cases = {
            "/" + "k" * 24 + "... (100000 characters)": {"k" * 100_000: 1},
            "/a~1b~0c": {"a/b~c": 1},
            "/strict_validation": {"strict_validation": True},
            "/sa_start_acceptance": {"sa_start_acceptance": 0.5},
            "/literal_regret": {"shaw_p": 6, "literal_regret": True, "zeta": 0, "seed": 1},
        }
        cfg = tmp_path / "cfg.json"
        for pointer, doc in cases.items():
            cfg.write_text(json.dumps(doc))
            r = self.run_cli("solve", "--instance", str(native), "--scenario", "mixed",
                             "--config", str(cfg), "--out", str(tmp_path / "s.json"), timeout=30)
            assert r.returncode == 3, (pointer, r.stderr)
            assert r.stderr.startswith(f"config error: {pointer}: unknown key"), r.stderr
            assert len(r.stderr) < 200 and "Traceback" not in r.stderr, r.stderr
        assert "(and 2 more)" in r.stderr, r.stderr

    def test_a_negative_seed_exits_3(self, tmp_path):
        # random.Random(-7) draws as random.Random(7), so -7 is no new search
        native = tmp_path / "mini.json"
        self.run_cli("transform", "--gh", os.path.join(DATA, "gh_mini.txt"), "--out", str(native))
        r = self.run_cli("solve", "--instance", str(native), "--scenario", "mixed",
                         "--seed", "-7", "--out", str(tmp_path / "s.json"), timeout=30)
        assert r.returncode == 3, r.stderr
        assert r.stderr.startswith("config error: /seed: "), r.stderr

    def test_all_fct_with_only_co_located_pairs_lists_each_as_residual(self, tmp_path):
        # every direct distance is 0, so the all-fct penalty is its floor of
        # 1 cent, and a trip of 0 km never reaches mu
        with open(os.path.join(DATA, "gh_mini.txt"), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        rows = {line.split()[0]: i for i, line in enumerate(lines) if len(line.split()) == 7}
        for pickup, delivery in (("1", "3"), ("2", "4")):
            tokens = lines[rows[delivery]].split()
            tokens[1:3] = lines[rows[pickup]].split()[1:3]
            lines[rows[delivery]] = "  ".join(tokens)
        gh, native = tmp_path / "gh.txt", tmp_path / "colo.json"
        gh.write_text("\n".join(lines) + "\n", encoding="utf-8")
        r = self.run_cli("transform", "--gh", str(gh), "--out", str(native))
        assert r.returncode == 0, r.stderr
        cfg, out = tmp_path / "cfg.json", tmp_path / "s.json"
        cfg.write_text(json.dumps({"max_iterations": 20}))
        r = self.run_cli("solve", "--instance", str(native), "--scenario", "all-fct",
                         "--config", str(cfg), "--out", str(out), timeout=30)
        assert r.returncode == 0, r.stderr
        doc = json.loads(out.read_text())
        assert doc["trips"] == [] and doc["bank"] == [1, 2] and doc["residual"] == 2
        # the console line names them as the JSON does, not as outsourced
        assert ", 0 vehicles, 2 residual -> " in r.stdout, r.stdout

    def test_solution_doc_names_exactly_the_written_keys(self, tmp_path):
        # the initial all-fct solution of gh_syn_c1 has trips and a
        # residual, so solve writes every key the format can hold
        text = (Path(__file__).parents[1] / "docs" / "formats.md").read_text(encoding="utf-8")
        example = text.split("## Solution (JSON)", 1)[1].split("```json", 1)[1].split("```", 1)[0]
        keys = re.findall(r'"(\w+)":', example)
        native, cfg, out = tmp_path / "c1.json", tmp_path / "cfg.json", tmp_path / "s.json"
        r = self.run_cli("transform", "--gh", os.path.join(DATA, "gh_syn_c1.txt"), "--out", str(native))
        assert r.returncode == 0, r.stderr
        cfg.write_text(json.dumps({"max_iterations": 0}))
        r = self.run_cli("solve", "--instance", str(native), "--scenario", "all-fct",
                         "--config", str(cfg), "--out", str(out), timeout=30)
        assert r.returncode == 0, r.stderr
        doc = json.loads(out.read_text())
        assert doc["trips"] and doc["residual"] > 0
        written = {*doc, *(key for trip in doc["trips"] for key in trip)}
        assert set(keys) == written, sorted(set(keys) ^ written)
        assert [key for key in keys if key in doc] == list(doc)
        # compare's solution files hold the first five keys only
        empty = scenarios.solution_to_dict(Solution((), frozenset(), 0, 0, 0))
        assert list(empty) == list(doc)[:5]
        assert doc["kpis"].count(",") == CSV_HEADER.count(",")

    def test_regret_with_a_huge_k_runs_in_time(self, tmp_path):
        # regret-k pads the missing routes in closed form, not with k entries
        native = tmp_path / "mini.json"
        self.run_cli("transform", "--gh", os.path.join(DATA, "gh_mini.txt"), "--out", str(native))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_iterations": 20, "insertion_ops": ["regret1000000000"]}))
        started = time.perf_counter()
        r = self.run_cli("solve", "--instance", str(native), "--scenario", "mixed",
                         "--config", str(cfg), "--out", str(tmp_path / "s.json"), timeout=30)
        assert r.returncode == 0, r.stderr
        assert time.perf_counter() - started < 2

    def test_regret_names_take_plain_ascii_digits(self, tmp_path):
        native = tmp_path / "mini.json"
        self.run_cli("transform", "--gh", os.path.join(DATA, "gh_mini.txt"), "--out", str(native))
        cfg = tmp_path / "cfg.json"
        for name in ("regret 4", "regret+4", "regret04", "regret\u0664", "regret4_0"):
            cfg.write_text(json.dumps({"insertion_ops": [name]}))
            r = self.run_cli("solve", "--instance", str(native), "--scenario", "mixed",
                             "--config", str(cfg), "--out", str(tmp_path / "s.json"))
            assert r.returncode == 3, (name, r.stderr)
            assert "unknown insertion operator" in r.stderr, name

    def test_regs_that_would_hang_the_scheduler_exit_2(self, tmp_path):
        # a blackout covering the whole week, and an operation that fits in
        # no gap between two blackouts
        native = tmp_path / "mini.json"
        self.run_cli("transform", "--gh", os.path.join(DATA, "gh_mini.txt"), "--out", str(native))
        doc = json.loads(native.read_text())
        for regs in ({"tau_s": 10080, "sigma": 0}, {"sigma": 9000}):
            bad = tmp_path / "bad_regs.json"
            bad.write_text(json.dumps({**doc, "regs": {**doc["regs"], **regs}}))
            r = self.run_cli("solve", "--instance", str(bad), "--scenario", "mixed",
                             "--out", str(tmp_path / "r.json"), timeout=10)
            assert r.returncode == 2, (regs, r.stderr)
            assert "/regs" in r.stderr and "Traceback" not in r.stderr, regs

    def test_legs_far_past_the_horizon_end_at_once(self, tmp_path):
        # a travel time of 10**7 minutes is about a thousand weeks of stints,
        # and a speed of 1e-300 km/h gives legs of more minutes than any
        # horizon holds: each leg is dropped once it passes the horizon end
        native = tmp_path / "mini.json"
        self.run_cli("transform", "--gh", os.path.join(DATA, "gh_mini.txt"), "--out", str(native))
        long_leg = json.loads(native.read_text())
        long_leg["matrix"]["time"][0][2] = 10**7
        crawl = json.loads(native.read_text())
        del crawl["matrix"]["time"]
        crawl["regs"]["nu"] = 1e-300
        for name, doc in (("long_leg", long_leg), ("crawl", crawl)):
            bad = tmp_path / f"{name}.json"
            bad.write_text(json.dumps(doc))
            started = time.perf_counter()
            r = self.run_cli("solve", "--instance", str(bad), "--scenario", "mixed",
                             "--out", str(tmp_path / "r.json"), timeout=30)
            assert time.perf_counter() - started < 2, name
            assert r.returncode == 0, (name, r.stderr)

    def test_horizons_and_times_outside_the_model_exit_2(self, tmp_path):
        # a horizon too long to compile into fit tables, a window that starts
        # before the horizon origin, and the transform factors that make them
        gh = os.path.join(DATA, "gh_mini.txt")
        native = tmp_path / "mini.json"
        self.run_cli("transform", "--gh", gh, "--out", str(native))
        long_doc = json.loads(native.read_text())
        long_doc["horizon"]["days"] = 10**9
        long_doc["requests"][0]["pickup_window"] = {"start": 0, "end": 10**12}
        early_doc = json.loads(native.read_text())
        early_doc["requests"][1]["pickup_window"]["start"] = -1080
        for doc, where in ((long_doc, "/horizon"), (early_doc, "/requests/1")):
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps(doc))
            r = self.run_cli("solve", "--instance", str(bad), "--scenario", "mixed",
                             "--out", str(tmp_path / "r.json"), timeout=10)
            assert r.returncode == 2, (where, r.stderr)
            assert where in r.stderr and "Traceback" not in r.stderr, where
        for factor in ("100000", "-1"):
            r = self.run_cli("transform", "--gh", gh, "--factor", factor,
                             "--out", str(tmp_path / "t.json"), timeout=10)
            assert r.returncode == 2, (factor, r.stderr)
            assert f"factor {factor}" in r.stderr and "Traceback" not in r.stderr, factor

    def test_request_faults_against_the_instance_name_the_request(self, tmp_path):
        # an unknown location, a window past the horizon and a repeated id
        # are found against the whole instance, but belong to one request
        native = tmp_path / "mini.json"
        self.run_cli("transform", "--gh", os.path.join(DATA, "gh_mini.txt"), "--out", str(native))
        base = json.loads(native.read_text())
        faults = {
            "unknown location 99": lambda r: r.update(origin=99),
            "window beyond horizon": lambda r: r["delivery_windows"][-1].update(end=10**7),
            "duplicate request id": lambda r: r.update(id=base["requests"][0]["id"]),
        }
        for message, spoil in faults.items():
            doc = json.loads(json.dumps(base))
            spoil(doc["requests"][1])
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps(doc))
            r = self.run_cli("solve", "--instance", str(bad), "--scenario", "mixed",
                             "--out", str(tmp_path / "r.json"), timeout=10)
            assert r.returncode == 2, (message, r.stderr)
            assert "/requests/1: " in r.stderr and message in r.stderr, r.stderr
            assert "Traceback" not in r.stderr, message

    def test_unknown_instance_keys_exit_2(self, tmp_path):
        # every object of the instance takes only its own keys, so that a
        # misspelt optional field, such as matrix.times, is not read as absent
        native = tmp_path / "mini.json"
        self.run_cli("transform", "--gh", os.path.join(DATA, "gh_mini.txt"), "--out", str(native))
        base = json.loads(native.read_text())
        assert self.run_cli("solve", "--instance", str(native), "--scenario", "all-sm",
                            "--out", str(tmp_path / "ok.json")).returncode == 0
        spoils = {
            "/names": lambda doc: doc.update(names="x"),
            "/matrix/times": lambda doc: doc["matrix"].update(times=doc["matrix"].pop("time")),
            "/cost/currency": lambda doc: doc["cost"].update(currency="EUR"),
            "/regs/tau_x": lambda doc: doc["regs"].update(tau_x=1),
            "/horizon/start": lambda doc: doc["horizon"].update(start=0),
            "/locations/1/z": lambda doc: doc["locations"][1].update(z=0.0),
            "/requests/1/price": lambda doc: doc["requests"][1].update(price=1),
            "/requests/0/pickup_window/stop":
                lambda doc: doc["requests"][0]["pickup_window"].update(stop=1),
            "/requests/0/delivery_windows/2/open":
                lambda doc: doc["requests"][0]["delivery_windows"][2].update(open=1),
            # a key's "/" and "~" are escaped in its pointer, and a long key
            # is cut short
            "/requests/1/a~1b~0": lambda doc: doc["requests"][1].update({"a/b~": 1}),
            "/regs/" + "k" * 24 + "... (5000 characters)":
                lambda doc: doc["regs"].update({"k" * 5000: 1}),
        }
        for pointer, spoil in spoils.items():
            doc = json.loads(json.dumps(base))
            spoil(doc)
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps(doc))
            r = self.run_cli("solve", "--instance", str(bad), "--scenario", "all-sm",
                             "--out", str(tmp_path / "r.json"), timeout=10)
            assert r.returncode == 2, (pointer, r.stderr)
            assert f"{pointer}: unknown key" in r.stderr, r.stderr
            assert len(r.stderr) < 200 and "Traceback" not in r.stderr, pointer

    def test_unreadable_inputs_exit_2(self, tmp_path):
        # a directory where a file is expected, and files that are not UTF-8
        latin1 = tmp_path / "latin1.txt"
        latin1.write_bytes("Gr\u00fc\u00dfe 1 2 3\n".encode("latin-1"))
        native = tmp_path / "mini.json"
        self.run_cli("transform", "--gh", os.path.join(DATA, "gh_mini.txt"), "--out", str(native))
        for args in (
            ("solve", "--instance", str(tmp_path), "--scenario", "mixed",
             "--out", str(tmp_path / "r.json")),
            ("transform", "--gh", str(latin1), "--out", str(tmp_path / "t.json")),
            ("oracle", "--instance", str(latin1)),
            ("solve", "--instance", str(native), "--scenario", "mixed",
             "--config", str(latin1), "--out", str(tmp_path / "r.json")),
            ("compare", "--instance", str(native), "--config", str(tmp_path),
             "--out-dir", str(tmp_path / "cmp")),
        ):
            r = self.run_cli(*args, timeout=10)
            assert r.returncode == 2, (args, r.stderr)
            assert r.stderr.startswith("input error: ") and "Traceback" not in r.stderr, args

    def test_unwritable_out_exits_2_before_any_work(self, tmp_path):
        # a search that would run for minutes, outputs in a missing
        # directory, onto a directory or to an empty path, and an output
        # directory that is a file, lies under one or is empty, fail at
        # once; the compare cases name an instance that does not exist, so
        # their output check comes first
        gh = os.path.join(DATA, "gh_syn_c1.txt")
        native = tmp_path / "c1.json"
        self.run_cli("transform", "--gh", gh, "--out", str(native))
        cfg = tmp_path / "long.json"
        cfg.write_text(json.dumps({"max_iterations": 1_000_000}))
        missing = str(tmp_path / "missing" / "x.json")
        afile = tmp_path / "afile"
        afile.write_text("kept")
        for args in (
            ("compare", "--instance", missing, "--out-dir", str(afile)),
            ("compare", "--instance", missing, "--out-dir", str(afile / "sub")),
            ("compare", "--instance", missing, "--out-dir", ""),
            ("solve", "--instance", str(native), "--scenario", "all-fct",
             "--config", str(cfg), "--out", missing),
            ("solve", "--instance", str(native), "--scenario", "mixed",
             "--config", str(cfg), "--out", str(tmp_path)),
            ("solve", "--instance", str(native), "--scenario", "all-fct",
             "--config", str(cfg), "--out", ""),
            ("transform", "--gh", gh, "--out", missing),
            ("emit-lp", "--instance", str(native), "--out", missing),
        ):
            started = time.perf_counter()
            r = self.run_cli(*args, timeout=30)
            assert time.perf_counter() - started < 5, args
            assert r.returncode == 2, (args, r.stderr)
            assert r.stderr.startswith(f"output error: {args[-1]} "), r.stderr
        assert not (tmp_path / "missing").exists() and afile.read_text() == "kept"

    def test_package_runs_as_a_module(self):
        r = self.run_cli("--help", module="ftlopt", timeout=10)
        assert r.returncode == 0, r.stderr
        assert "transform" in r.stdout and "compare" in r.stdout

    def test_oracle_and_lp(self, tmp_path):
        native = tmp_path / "mini.json"
        self.run_cli("transform", "--gh", os.path.join(DATA, "gh_mini.txt"), "--out", str(native))
        r = self.run_cli("oracle", "--instance", str(native))
        assert r.returncode == 0 and "optimal total" in r.stdout
        lp = tmp_path / "m.lp"
        r = self.run_cli("emit-lp", "--instance", str(native), "--out", str(lp))
        assert r.returncode == 0
        assert lp.read_text().startswith("\\")
        # an LP reader would take the minus sign of x_o-1_d-1 for an operator
        doc = json.loads(native.read_text())
        doc["requests"][1]["id"] = -1
        native.write_text(json.dumps(doc))
        r = self.run_cli("emit-lp", "--instance", str(native), "--out", str(tmp_path / "n.lp"))
        assert r.returncode == 2, r.stderr
        assert r.stderr.startswith("input error: /requests/1: ") and "non-negative" in r.stderr
        assert not (tmp_path / "n.lp").exists()
