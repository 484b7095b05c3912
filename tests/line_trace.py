"""Statements of src/rte2d that no workload, replay, CLI run or acceptance test executes.

Traces the package's files with sys.settrace while it runs four sources:
- every solve of the three benchmark workloads (perfbench/workloads.py) at
  seed 7, with its error norms and checks; the two ladders run levels 0-2;
- perfbench's replay_solve of each of those solves at level 0 or 1;
- rte2d.cli.main on every run that tests/cli_runs.py lists, checked as
  it lists them;
- tests/test_acceptance.py, run in-process by pytest.

Then it prints each statement that never ran, as path:line: first line,
and their count. It leaves out docstrings, the statements inside a
statement that never ran, and every block that ends in a raise: the raise
and the statements before it that build its message. Not a pytest module; run it in its own
process from the repo root:

    PYTHONPATH=src python tests/line_trace.py
"""

import ast
import contextlib
import io
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rte2d"


class LineTrace:
    """A sys.settrace hook that records the executed lines of the package's files."""

    def __init__(self):
        self.hit = {}  # real path -> set of executed line numbers
        self._inside = {}  # co_filename -> its real path in the package, or None

    def __call__(self, frame, event, arg):
        name = frame.f_code.co_filename
        path = self._inside.get(name, False)
        if path is False:
            full = os.path.realpath(name)
            path = self._inside[name] = full if full.startswith(f"{PACKAGE}{os.sep}") else None
        if path is None:
            return None
        lines = self.hit.setdefault(path, set())

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        lines.add(frame.f_lineno)
        return local


def run_workloads():
    import workloads
    from rte2d import error_norms, solve
    from spans import NullTracer, replay_mismatch, replay_solve

    workloads.LADDER_LEVELS = 3
    for workload in workloads.WORKLOADS.values():
        specs, rows = workload.setup(7, NullTracer()), []
        for spec in specs:
            sol, report = solve(spec.problem, spec.mesh, spec.config)
            if spec.level <= 1:
                coeffs, _ = replay_solve(spec.problem, spec.mesh, spec.config, NullTracer())
                replay_mismatch(sol.coeffs, coeffs)
            rows.append(error_norms(sol, spec.case, spec.mesh, spec.problem.quad,
                                    level=spec.level, iterations=report.iterations))
        workload.check(specs, rows)
        workloads.finest_dodsd_eh(specs, rows)


def run_acceptance():
    import pytest

    pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests" / "test_acceptance.py")])


def _docstring(node):
    return isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
        and isinstance(node.value.value, str)


def never_ran(path, lines):
    """(line, first source line) of each statement of the file with no executed line in
    its span: not a docstring, not in a block that ends in a raise, and not inside a
    statement that never ran."""
    source = path.read_text()
    text, found = source.splitlines(), []

    def walk(body):
        if body and isinstance(body[-1], ast.Raise):
            return
        for node in body:
            if isinstance(node, (ast.Global, ast.Nonlocal)) or _docstring(node):
                continue
            if lines.isdisjoint(range(node.lineno, node.end_lineno + 1)):
                found.append((node.lineno, text[node.lineno - 1].strip()))
                continue
            for field in ("body", "orelse", "finalbody"):
                walk(getattr(node, field, []))
            for handler in getattr(node, "handlers", []):
                walk(handler.body)
            for case in getattr(node, "cases", []):
                walk(case.body)

    walk(ast.parse(source, str(path)).body)
    return found


def main():
    os.chdir(ROOT)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]
    trace = LineTrace()
    sys.settrace(trace)
    try:
        from cli_runs import check_all, in_process  # imports rte2d, whose module lines count

        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            run_workloads()
            check_all(in_process)
            run_acceptance()
    finally:
        sys.settrace(None)
    count = 0
    for path in sorted(PACKAGE.glob("*.py")):
        for line, first in never_ran(path, trace.hit.get(str(path), set())):
            print(f"{path.relative_to(ROOT)}:{line}: {first}")
            count += 1
    print(f"{count} statements of src/rte2d never ran (blocks that end in a raise left out)")


if __name__ == "__main__":
    main()
