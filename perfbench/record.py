#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/record.py [--out perfbench/baseline.json]

Runs perfbench/run.py on every workload of BENCHMARK.json at seeds 1-10, one
run at a time and each for BENCHMARK.json's run_seconds, and prints per
metric the median, the quartiles and the quartile spread as a share of the
median (statistics.quantiles(values, n=4)).  It then makes one traced run
per workload at seed 1.  With --out it writes everything, raw values
included, as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)
TRACE_SEED = 1


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return {"seed": seed, "env": env, **result}


def summarise(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "median": med,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
            "values": values,
        }
    return out


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out")
    args = parser.parse_args()
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    doc = {"seeds": list(SEEDS), "seconds": seconds, "workloads": {}}
    for wl in (w["name"] for w in bench["workloads"]):
        runs = [run_once(wl, seed, seconds, 0) for seed in SEEDS]
        entry = {
            "env": runs[0]["env"],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": summarise(runs),
        }
        print(f"{wl}:")
        for name, s in entry["end_to_end"].items():
            flag = "" if s["spread"] < bounds[name] / 3 else "  <-- over a third of the bound"
            print(f"  {name:<16} median {s['median']:>16.4f} {s['unit']:<4} "
                  f"spread {s['spread']:.4f} (bound {bounds[name]}){flag}")
        print(f"  {'fail_ratio':<16} {entry['failed'] / entry['attempted']:>23.4f}      "
              f"({entry['failed']} of {entry['attempted']} searches)")
        traced = run_once(wl, TRACE_SEED, seconds, 1)
        entry["per_layer"] = {"seed": TRACE_SEED, "failed": traced["failed"],
                              "metrics": traced["metrics"]}
        ov = traced["metrics"]["trace.overhead_s"]["value"]
        print(f"  traced run seed {TRACE_SEED}: overhead {ov:.3f} s, {traced['failed']} failed")
        doc["workloads"][wl] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
