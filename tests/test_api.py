"""The exported API is the documented one, and the files kept as they are
across API removals import only names that exist.

`perfbench/*.py` and `tests/test_acceptance.py` are parsed with `ast`; every
name they import from `rte2d` or one of its modules must resolve there.
README's Library example is parsed the same way, not run.
"""

import ast
import importlib
import re
from collections import Counter
from pathlib import Path

import rte2d

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
CLIENTS = [*sorted((ROOT / "perfbench").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]


def rte2d_imports(source, filename="<source>"):
    """(module, name) of each `from rte2d[.module] import name`, and (module,
    None) of each `import rte2d[.module]`, anywhere in the source."""
    found = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            if (node.module or "").split(".")[0] == "rte2d":
                found += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [(a.name, None) for a in node.names if a.name.split(".")[0] == "rte2d"]
    return found


def unresolved(imports):
    """The `module.name` of each import that does not resolve."""
    return [
        f"{module}.{name}"
        for module, name in imports
        if name == "*" or not (name is None or hasattr(importlib.import_module(module), name))
    ]


def test_client_imports_from_rte2d_resolve():
    imports = {(path.relative_to(ROOT), m, n) for path in CLIENTS
               for m, n in rte2d_imports(path.read_text(), str(path))}
    assert {str(p) for p, _, _ in imports} >= {"perfbench/spans.py", "tests/test_acceptance.py"}
    missing = [
        f"{path}: {bad}"
        for path, module, name in sorted(imports, key=str)
        for bad in unresolved([(module, name)])
    ]
    assert not missing, missing


def test_all_names_resolve_once():
    repeated = [name for name, n in Counter(rte2d.__all__).items() if n > 1]
    assert not repeated, repeated
    missing = [name for name in rte2d.__all__ if not hasattr(rte2d, name)]
    assert not missing, missing


def test_all_names_are_documented_or_used_by_a_kept_client():
    # identifiers in README's code: fenced blocks and `inline` spans
    code = re.findall(r"```.*?```|`[^`\n]+`", README.read_text(), re.S)
    documented = set(re.findall(r"[A-Za-z_]\w*", " ".join(code)))
    imported = {n for path in CLIENTS for _, n in rte2d_imports(path.read_text(), str(path))}
    extra = [name for name in rte2d.__all__ if name not in documented | imported]
    assert not extra, f"exported but neither in README nor imported by a kept client: {extra}"


def test_readme_library_example_imports_resolve():
    library = README.read_text().split("## Library", 1)[1]
    block = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    imports = rte2d_imports(block, "README.md")
    assert imports, "the Library example imports nothing from rte2d"
    missing = unresolved(imports)
    assert not missing, missing
