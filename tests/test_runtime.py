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


def test_every_file_is_opened_by_the_model_file_helpers():
    # one reader and one writer (model.read_text, model.write_text) open
    # every file; the only other opens are the two ends of compare's pipe
    def opens(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
                if name in ("open", "fdopen"):
                    yield owner, ast.unparse(child.args[0]) if child.args else ""
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner
            yield from opens(child, inner)

    found = sorted(
        (path.name, owner, target)
        for path in SRC.glob("*.py")
        for owner, target in opens(ast.parse(path.read_text(encoding="utf-8"), str(path)), "")
    )
    assert found == [
        ("model.py", "read_text", "path"),
        ("model.py", "write_text", "path"),
        ("scenarios.py", "_run_searches", "read_fd"),
        ("scenarios.py", "_run_searches", "write_fd"),
    ]
