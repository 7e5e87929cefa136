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
