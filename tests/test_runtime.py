import ast
import sys
from pathlib import Path

SRC = Path(__file__).parents[1] / "src" / "ftlopt"


def test_package_imports_only_the_standard_library():
    # every import statement of the package, function-local ones included;
    # relative imports stay inside the package
    seen = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                assert top in sys.stdlib_module_names, (path.name, node.lineno, name)
                seen.add(top)
    # the walk reached the function-local import in scenarios.py
    assert "pickle" in seen, seen


def nodes(match):
    """(file, enclosing function, node) of every syntax node of the package
    that match accepts."""

    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            if match(child):
                yield owner, child
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner
            yield from walk(child, inner)

    return [
        (path.name, owner, node)
        for path in sorted(SRC.glob("*.py"))
        for owner, node in walk(ast.parse(path.read_text(encoding="utf-8"), str(path)), "")
    ]


def calls(match, arg=0):
    """(file, enclosing function, argument at index arg, or "" when there is
    none) of every call in the package whose callee, as source text, match
    accepts."""
    found = nodes(lambda node: isinstance(node, ast.Call) and match(ast.unparse(node.func)))
    return sorted(
        (name, owner, ast.unparse(call.args[arg]) if len(call.args) > arg else "")
        for name, owner, call in found
    )


def test_every_file_is_opened_by_the_model_file_helpers():
    # one reader and one writer (model.read_text, model.write_text) open
    # every file; the only other opens are the two ends of compare's pipe
    found = calls(lambda callee: callee.rpartition(".")[2] in ("open", "fdopen"))
    assert found == [
        ("model.py", "read_text", "path"),
        ("model.py", "write_text", "path"),
        ("scenarios.py", "_run_searches", "read_fd"),
        ("scenarios.py", "_run_searches", "write_fd"),
    ]


def test_json_is_parsed_only_by_the_model_reader():
    # one reader (model.read_json) parses the instance and the run
    # configuration, so both report text that is not JSON the same way
    found = calls(lambda callee: callee in ("json.loads", "json.load"))
    assert found == [("model.py", "read_json", "text")]


def test_each_type_checks_itself_only_when_built():
    # the run configuration and the model types (through their base class)
    # run their own check in __post_init__, so no reader, converter or
    # search checks a part by hand
    found = calls(lambda callee: callee.rpartition(".")[2] == "check")
    assert found == [("engine.py", "__post_init__", ""), ("model.py", "__post_init__", "")]


def test_the_evaluator_alone_drops_the_caches_of_a_search():
    # InsertionEvaluator.clear is the one call that drops the simulator's
    # caches, and the engine holds no cache that it would have to drop
    found = calls(lambda callee: callee.rpartition(".")[2] == "clear_caches")
    assert found == [("operators.py", "clear", "")]
    found = calls(lambda callee: callee.rpartition(".")[2] == "clear")
    assert [call for call in found if call[0] == "engine.py"] == []


def test_every_search_result_is_priced_by_one_function():
    # repair, the enumeration oracle and the all-sm scenario all return
    # through model.priced_solution, so every scenario is priced alike;
    # model.solution_cost recomputes a cost on its own
    found = calls(lambda callee: callee.rpartition(".")[2] == "Solution")
    assert found == [("model.py", "priced_solution", "trips")]
    found = calls(lambda callee: callee.rpartition(".")[2] == "priced_solution")
    assert "solution_cost" not in [owner for _file, owner, _arg in found]


def test_a_run_report_is_built_once_when_the_run_ends():
    found = calls(lambda callee: callee.rpartition(".")[2] == "RunReport")
    assert found == [("engine.py", "run", "")]


def test_the_scheduler_writes_the_rest_rule_once():
    # a floor division by tau_n counts the rests of a leg: Simulator.__init__
    # compiles the rested travel times from it, and _advance's closed-form
    # leg carries the label's counter; every other reader takes
    # Simulator.rested, so no inline copy of the rule can drift from it
    found = nodes(
        lambda node: isinstance(node, ast.BinOp) and isinstance(node.op, ast.FloorDiv)
        and ast.unparse(node.right).rpartition(".")[2] == "tau_n"
    )
    assert [(name, owner) for name, owner, _node in found if name == "schedule.py"] == [
        ("schedule.py", "__init__"),
        ("schedule.py", "_advance"),
    ]


def test_the_oracle_reads_no_private_member_of_the_kernel():
    # the enumeration solver schedules its orderings through
    # Simulator.build_trip, so the oracle checks the kernel's public calls
    # and shares none of its internals
    found = nodes(lambda node: isinstance(node, ast.Attribute) and node.attr.startswith("_"))
    assert [(owner, ast.unparse(node)) for name, owner, node in found if name == "oracle.py"] == []


def test_the_lp_relaxation_is_built_once_per_instance():
    # build_arc_graph alone states the relaxation's rows and its model,
    # through the one helper it calls; emit_lp, check_lp_assignment and
    # lp_objective_cents read the model they are given, and only the emit-lp
    # command builds one
    for built in ("LpRow", "LpModel"):
        found = calls(lambda callee: callee == built)
        assert {(name, owner) for name, owner, _arg in found} == {("oracle.py", "_lp_model")}, built
    for callee_name, caller in (("_lp_model", ("oracle.py", "build_arc_graph")),
                                ("build_arc_graph", ("cli.py", "cmd_emit_lp"))):
        found = calls(lambda callee: callee.rpartition(".")[2] == callee_name)
        assert [(name, owner) for name, owner, _arg in found] == [caller], callee_name


def test_the_run_configuration_holds_only_run_controls():
    # the search's tuning (the removal caps, the operator scores, the
    # reaction factor and the annealing) is fixed in module constants, so a
    # new configuration field takes a deliberate edit of this list
    tree = ast.parse((SRC / "engine.py").read_text(encoding="utf-8"))
    config = next(node for node in tree.body
                  if isinstance(node, ast.ClassDef) and node.name == "AlnsConfig")
    assert [ast.unparse(node.target) for node in config.body if isinstance(node, ast.AnnAssign)] == [
        "max_iterations", "segment_length", "seed", "removal_ops", "insertion_ops", "max_seconds",
    ]


def test_one_reader_checks_the_members_of_every_json_object():
    # model._members alone rejects a value that is not an object, an
    # unknown member and a missing one, so the instance and the run
    # configuration name each fault with a pointer in one way
    found = calls(lambda callee: callee.rpartition(".")[2] == "SchemaError", arg=1)
    faults = [
        (name, owner) for name, owner, message in found
        if any(word in message for word in ("unknown key", "missing", "not an object"))
    ]
    assert faults == [("model.py", "_members")] * 3, faults
    # and neither reader compares key sets by hand
    set_methods = ("keys", "difference", "symmetric_difference", "issubset", "issuperset")
    found = nodes(
        lambda node: isinstance(node, ast.Call)
        and ast.unparse(node.func).rpartition(".")[2] in set_methods
        or isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Sub, ast.BitAnd, ast.BitXor))
        and any(isinstance(side, ast.Call) and ast.unparse(side.func) in ("set", "frozenset")
                for side in (node.left, node.right))
    )
    assert [(name, owner) for name, owner, _node in found
            if name in ("instances.py", "engine.py")] == []


def test_engine_run_alone_reads_the_clock():
    # a search scenario's cpu_s is its report's wall_s, and max_seconds
    # counts on the same clock, from the entry of engine.run
    found = calls(lambda callee: callee.rpartition(".")[2] == "perf_counter")
    assert {(name, owner) for name, owner, _arg in found} == {("engine.py", "run")}


def test_each_shared_cli_option_is_declared_once():
    found = calls(lambda callee: callee.rpartition(".")[2] == "add_argument")
    declared = [option for name, _owner, option in found if name == "cli.py"]
    for option in ("--instance", "--config", "--seed"):
        assert declared.count(repr(option)) == 1, (option, declared)


def test_the_cli_catches_no_error_that_its_commands_cannot_raise():
    # only model.solution_cost raises PartitionViolation, and the package
    # never calls it
    assert calls(lambda callee: callee.rpartition(".")[2] == "solution_cost") == []
    assert "PartitionViolation" not in (SRC / "cli.py").read_text(encoding="utf-8")


def test_the_search_never_reaches_the_rule_checkers():
    # the test suite validates what searches produce; no module of the
    # package calls validate_solution, and only it runs the oracle's rule
    # checkers, so a search cannot grow a validation branch unseen
    assert calls(lambda callee: callee.rpartition(".")[2] == "validate_solution") == []
    checkers = ("check_schedule_rules", "check_sunday_rests")
    found = calls(lambda callee: callee.rpartition(".")[2] in checkers)
    assert {(name, owner) for name, owner, _arg in found} == {("model.py", "validate_solution")}


def test_one_function_spins_wheels():
    # Wheel.spin is the package's one weighted draw: it alone reads a random
    # number against the running sums of a Wheel, which alone accumulates
    # weights; the engine's operator draws and the draws without
    # replacement of the removal operators spin wheels
    found = calls(lambda callee: callee.rpartition(".")[2] == "spin")
    assert {(name, owner) for name, owner, _arg in found} == {
        ("engine.py", "run"),
        ("operators.py", "_roulette_without_replacement"),
    }
    found = calls(lambda callee: callee == "accumulate")
    assert [(name, owner) for name, owner, _arg in found] == [("operators.py", "__init__")]
    found = calls(lambda callee: callee == "rng.random")
    assert {owner for name, owner, _arg in found if name == "operators.py"} == {"spin", "remove_shaw"}


def run_loop():
    """engine.run, its iteration loop and the loop's segment-end block."""
    tree = ast.parse((SRC / "engine.py").read_text(encoding="utf-8"))
    run = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "run")
    loop = next(node for node in run.body if isinstance(node, ast.For))
    segment_end = next(
        node for node in loop.body
        if isinstance(node, ast.If) and "segment_length" in ast.unparse(node.test)
    )
    return run, loop, segment_end


def test_engine_run_builds_its_wheels_before_its_loop_and_at_segment_ends():
    # the weights change only at a segment end, so the wheels are built
    # before the first iteration and rebuilt there, and nowhere else
    run, loop, segment_end = run_loop()

    def builds(statements):
        return sum(
            isinstance(node, ast.Call) and ast.unparse(node.func) == "Wheel"
            for statement in statements for node in ast.walk(statement)
        )

    assert builds(run.body[: run.body.index(loop)]) == 2
    assert builds([segment_end]) == 2
    assert builds(run.body) == 4


def test_engine_run_walks_no_operator_stats_per_iteration():
    # outside its segment-end block, an iteration reads the two operators it
    # drew and builds no weight list and no tuple of tuples
    _run, loop, segment_end = run_loop()
    body = [node for statement in loop.body if statement is not segment_end
            for node in ast.walk(statement)]
    comprehensions = [
        ast.unparse(node) for node in body
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp))
        and any("stats" in ast.unparse(gen.iter) for gen in node.generators)
    ]
    assert comprehensions == []
    nested = [
        ast.unparse(node) for node in body
        if isinstance(node, ast.Tuple) and any(isinstance(elt, ast.Tuple) for elt in node.elts)
    ]
    assert nested == []
