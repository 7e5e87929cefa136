"""Command-line interface.

Commands: transform, solve, compare, oracle, emit-lp.  Exit codes:
0 success, 2 input error or an --out or --out-dir that cannot be written,
3 configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import engine, instances, oracle, scenarios
from .model import fmt_money, read_text, write_text


def _load_config(args) -> engine.AlnsConfig:
    cfg = engine.load_config(args.config) if args.config else engine.AlnsConfig()
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    return cfg


def cmd_transform(args) -> int:
    gh = instances.parse_gh(read_text(args.gh))
    instance = instances.transform(gh, args.factor)
    instances.write_instance(instance, args.out)
    print(f"{instance.name or 'instance'}: {len(instance.requests)} requests, "
          f"mu {instance.mu_d10 / 10:.0f} km, horizon {instance.horizon.days} days -> {args.out}")
    return 0


def cmd_solve(args) -> int:
    instance = instances.read_instance(args.instance)
    cfg = _load_config(args)
    if args.scenario == "all-sm":
        result, solution = scenarios.scenario_all_sm(instance)
        report = None
    elif args.scenario == "all-fct":
        result, solution, report = scenarios.scenario_all_fct(instance, cfg)
    else:
        result, solution, report = scenarios.scenario_mixed(instance, cfg)
    doc = scenarios.solution_to_dict(solution)
    doc["scenario"] = result.scenario
    doc["kpis"] = ",".join(result.csv_row())
    if result.residual:
        doc["residual"] = result.residual
    write_text(args.out, json.dumps(doc, indent=2))
    if report is not None:
        engine.write_report(report, args.out)
    if args.dump_schedule:
        sys.stdout.write(scenarios.dump_schedules(instance, solution))
    banked = "residual" if result.scenario == "all-fct" else "outsourced"
    print(f"{result.scenario}: total {fmt_money(result.total_cents)} EUR, "
          f"{result.vehicles} vehicles, {len(solution.bank)} {banked} -> {args.out}")
    return 0


def cmd_compare(args) -> int:
    instance = instances.read_instance(args.instance)
    cfg = _load_config(args)
    rows = scenarios.compare(instance, cfg, args.out_dir)
    for row in rows:
        print(",".join(row.csv_row()))
    return 0


def cmd_oracle(args) -> int:
    instance = instances.read_instance(args.instance)
    best = oracle.brute_force(instance)
    print(f"optimal total {fmt_money(best.cost_total)} EUR")
    for t in best.trips:
        print(f"  trip {list(t.requests)}: {t.total_d10 / 10:.1f} km")
    print(f"  outsourced: {sorted(best.bank)}")
    return 0


def cmd_emit_lp(args) -> int:
    instance = instances.read_instance(args.instance)
    graph = oracle.build_arc_graph(instance)
    oracle.emit_lp(graph, instance, args.out)
    print(f"{len(graph.arcs)} arcs -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ftlopt", description="Full-truck-load fleet vs. spot-market planning"
    )
    command = parser.add_subparsers(dest="command", required=True).add_parser
    # the options that several commands share, each declared once
    inst = argparse.ArgumentParser(add_help=False)
    inst.add_argument("--instance", required=True)
    search = argparse.ArgumentParser(add_help=False)
    search.add_argument("--config", help="JSON run configuration")
    search.add_argument("--seed", type=int, help="overrides the config seed")

    p = command("transform", help="turn a benchmark file into a native instance")
    p.add_argument("--gh", required=True, help="benchmark file in the whitespace-column layout")
    p.add_argument("--factor", type=int, default=6, help="distance/time stretch factor")
    p.add_argument("--out", required=True, help="native instance JSON to write")
    p.set_defaults(func=cmd_transform)

    p = command("solve", help="solve one scenario", parents=[inst, search])
    p.add_argument("--scenario", choices=("all-sm", "all-fct", "mixed"), required=True)
    p.add_argument("--out", required=True, help="solution JSON to write")
    p.add_argument("--dump-schedule", action="store_true", help="print trip schedules as CSV")
    p.set_defaults(func=cmd_solve)

    p = command("compare", help="run all three scenarios and write reports", parents=[inst, search])
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_compare)

    p = command("oracle", help="exact optimum by enumeration (micro instances)", parents=[inst])
    p.set_defaults(func=cmd_oracle)

    p = command(
        "emit-lp", help="write the routing/min-distance model as an LP file", parents=[inst]
    )
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_emit_lp)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # an output that cannot be written fails before any input is read; an
    # empty path would name the working directory
    out = getattr(args, "out", None)
    if out is not None and (
        not out or os.path.isdir(out) or not os.path.isdir(os.path.dirname(out) or ".")
    ):
        print(f"output error: {out} is not a file in an existing directory", file=sys.stderr)
        return 2
    # and so does an --out-dir whose nearest existing path is not a directory
    out_dir = getattr(args, "out_dir", None)
    head = os.path.abspath(out_dir or ".")
    while not os.path.lexists(head):
        head = os.path.dirname(head)
    if out_dir == "" or not os.path.isdir(head):
        print(f"output error: {out_dir} is not a directory and cannot be one", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except engine.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except (
        instances.ParseError,
        instances.SchemaError,
        instances.TransformError,
        oracle.TooLarge,
        OSError,
        UnicodeDecodeError,
    ) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
