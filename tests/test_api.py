"""The files kept as they are across API removals import only names that exist.

`perfbench/*.py` and `tests/test_acceptance.py` are parsed with `ast`; every
name they import from `rte2d` or one of its modules must resolve there.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CLIENTS = [*sorted((ROOT / "perfbench").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]


def rte2d_imports(path):
    """(module, name) of each `from rte2d[.module] import name`, and (module,
    None) of each `import rte2d[.module]`, anywhere in the file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            if (node.module or "").split(".")[0] == "rte2d":
                found += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [(a.name, None) for a in node.names if a.name.split(".")[0] == "rte2d"]
    return found


def test_client_imports_from_rte2d_resolve():
    imports = {(path.relative_to(ROOT), m, n) for path in CLIENTS for m, n in rte2d_imports(path)}
    assert {str(p) for p, _, _ in imports} >= {"perfbench/spans.py", "tests/test_acceptance.py"}
    missing = [
        f"{path}: {module}.{name}"
        for path, module, name in sorted(imports, key=str)
        if name == "*" or not (name is None or hasattr(importlib.import_module(module), name))
    ]
    assert not missing, missing
