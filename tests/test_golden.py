"""Fixed-seed search results pinned to a recorded golden.

`tests/data/golden_search.json` holds, per run, the best solution's trip
sequences and bank, its cost and every trace row, recorded with the default
cache bound.  The `/segment5` runs end a segment every five iterations;
they are checked with the cache bound at zero, so that the evaluator drops
every cache of the search, inside repairs too, at nearly every column it is
asked.  Regenerate the file only for a change that is meant to alter
fixed-seed results, with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import os
from dataclasses import replace

from ftlopt import engine, operators
from ftlopt.engine import AlnsConfig
from ftlopt.instances import parse_gh, transform
from ftlopt.operators import InsertionEvaluator
from ftlopt.scenarios import scenario_all_fct, scenario_mixed

from helpers import micro_instance

DATA = os.path.join(os.path.dirname(__file__), "data")
GOLDEN = os.path.join(DATA, "golden_search.json")

# name -> (instance file, scenario, config)
DEFAULT_RUNS = {
    "all-fct/gh_syn_c1": ("gh_syn_c1.txt", scenario_all_fct, AlnsConfig(seed=3, max_iterations=60)),
    "mixed/gh_syn_mix": ("gh_syn_mix.txt", scenario_mixed, AlnsConfig(seed=3, max_iterations=150)),
}
SEGMENT5_RUNS = {
    f"{name}/segment5": (filename, scenario, replace(config, segment_length=5))
    for name, (filename, scenario, config) in DEFAULT_RUNS.items()
}
RUNS = {**DEFAULT_RUNS, **SEGMENT5_RUNS}


def load_golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def search_record(best, report) -> dict:
    return {
        "trips": [list(t.requests) for t in best.trips],
        "bank": sorted(best.bank),
        "cost_total": best.cost_total,
        "trace": [[r.iteration, r.current_cents, r.best_cents, r.temperature] for r in report.trace],
    }


def run_record(name: str) -> dict:
    filename, scenario, config = RUNS[name]
    with open(os.path.join(DATA, filename), encoding="utf-8") as fh:
        instance = transform(parse_gh(fh.read()))
    _result, best, report = scenario(instance, config)
    return search_record(best, report)


def test_fixed_seed_results_match_golden():
    golden = load_golden()
    assert sorted(golden) == sorted(RUNS)
    for name in DEFAULT_RUNS:
        assert run_record(name) == golden[name], name


def micro_records() -> list:
    out = []
    for seed in range(30):
        instance = micro_instance(seed, "large" if seed % 2 else "small")
        config = AlnsConfig(seed=seed, max_iterations=300, segment_length=5)
        out.append(search_record(*engine.run(instance, config)))
    return out


def test_dropping_caches_at_every_segment_end_keeps_results(monkeypatch):
    golden = load_golden()
    micro = micro_records()
    clears = []
    clear = InsertionEvaluator.clear
    monkeypatch.setattr(operators, "MAX_CACHED_CELLS", 0)
    monkeypatch.setattr(InsertionEvaluator, "clear", lambda ev: clears.append(clear(ev)))
    assert micro_records() == micro
    for name in SEGMENT5_RUNS:
        assert run_record(name) == golden[name], name
    # with the bound at zero, every column after one that added a cell
    # drops every cache first, segment ends or not
    assert len(clears) == 46_329


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8", newline="\n") as fh:
        json.dump({name: run_record(name) for name in RUNS}, fh, indent=1)
        fh.write("\n")
