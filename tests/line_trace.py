"""Statements of src/rte2d that no workload, replay, CLI run or acceptance test executes.

Traces the package's files with sys.settrace while it runs four sources:
- every solve of the three benchmark workloads (perfbench/workloads.py) at
  seed 7, with its error norms and checks; the two ladders run levels 0-2;
- perfbench's replay_solve of each of those solves at level 0 or 1;
- rte2d.cli.main on the command lines of the CI's console-script step, the
  config-file and mesh-file runs included;
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
import math
import os
import sys
import tempfile
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


def _turned(v, angle, scale, shift):
    c, s = math.cos(angle), math.sin(angle)
    return (v @ [[c, s], [-s, c]]) * scale + shift


def run_cli():
    from helpers import hanging_node_cells, write_mesh_text
    from rte2d import build_structured_unit_square
    from rte2d.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        (d / "bad.cfg").write_text("phase = foo\n")
        (d / "good.cfg").write_text("n0 = 2\nn-dirs = 4\nlevels = 1\n")
        (d / "tri.mesh").write_text("3 1\n0 0\n1 0\n0 1\n0 1 2\n")
        (d / "accent.mesh").write_bytes("3 1\n0 0\n1 0\n0 1\n0 1 2 é\n".encode())
        (d / "accent.cfg").write_bytes("n0 = 2 # café\n".encode())
        v, t = hanging_node_cells()
        write_mesh_text(d / "hanging.mesh", v, t)
        write_mesh_text(d / "hanging-far.mesh", v * 1e-3 + 1e6, t)
        write_mesh_text(d / "hanging-turned.mesh", _turned(v, 2.0, 1e-2, 1e5), t)
        grid = build_structured_unit_square(6)
        write_mesh_text(d / "grid-turned.mesh",
                        _turned(grid.vertices, 2.1476, 0.015, 2370.0), grid.triangles)
        runs = [
            "compare --case 1 --levels 2 --n0 4 --n-dirs 8 --out {d}/cli",
            "quad-check --config {d}/bad.cfg --out {d}/cli-bad",
            "convergence --case 1 --config {d}/good.cfg --out {d}/cli-good",
            "solve --case 1 --mesh {d}/tri.mesh --n0 7 --out {d}/cli-tri-n0",
            "solve --case 1 --mesh {d}/tri.mesh --out {d}/cli-tri",
            "solve --case 1 --mesh {d}/accent.mesh --out {d}/cli-accent",
            "solve --case 1 --config {d}/accent.cfg --out {d}/cli-accent",
            *(f"solve --case 1 --n-dirs 4 --mesh {{d}}/{m}.mesh --out {{d}}/cli-{m}"
              for m in ("hanging", "hanging-far", "hanging-turned", "grid-turned")),
            *(f"solve --case 1 --n-dirs 8 --dump-schedule {l} --mesh {{d}}/grid-turned.mesh"
              f" --out {{d}}/cli-dump-{l}" for l in (0, 4)),
        ]
        for run in runs:
            main(run.format(d=d).split())


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
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            run_workloads()
            run_cli()
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
