"""The one table of rte2d command-line runs, each with the answer it must get.

A row gives the argv, whose {d}/NAME tokens are the INPUTS it reads; the exit
code; what stderr starts with (nothing: stderr stays empty); and the files it
must write into its --out directory d/NAME, which a failed run leaves absent.
Not a pytest module. From the repo root, name the console command to check,
rte2d or, with PYTHONPATH=src and no install, "python -m rte2d.cli":

    python tests/cli_runs.py rte2d
"""

import contextlib
import io
import math
import shlex
import subprocess
import sys
import tempfile
from collections import namedtuple
from pathlib import Path

from helpers import hanging_node_cells, write_mesh_text
from rte2d import build_structured_unit_square, cli

HANGING, GRID = hanging_node_cells(), build_structured_unit_square(6)
# a file's text, or a mesh's vertices and triangles and the turn, scale and shift of its vertices
INPUTS = {
    "good.cfg": "n0 = 2\nn-dirs = 4\nlevels = 1\n",
    "bad.cfg": "phase = foo\n",
    "bad-key.cfg": "n0 = 4\nwibble = 3\n",
    "bad-value.cfg": "n0 = lots\n",
    "accent.cfg": "n0 = 2 # café\n",
    "tri.mesh": "3 1\n0 0\n1 0\n0 1\n0 1 2\n",
    "accent.mesh": "3 1\n0 0\n1 0\n0 1\n0 1 2  # coin supérieur\n",
    "empty.mesh": "3 0\n0 0\n1 0\n0 1\n",
    "zero.mesh": "3 1\n0 0\n1 0\nzero 1\n0 1 2\n",
    "negative.mesh": "-1 2\n0 1 2 3\n",
    "hanging.mesh": (*HANGING, 0.0, 1.0, 0.0),
    "hanging-far.mesh": (*HANGING, 0.0, 1e-3, 1e6),
    "hanging-turned.mesh": (*HANGING, 2.0, 1e-2, 1e5),
    "grid-turned.mesh": (GRID.vertices, GRID.triangles, 2.1476, 0.015, 2370.0),
}


def write_input(path):
    if isinstance(INPUTS[path.name], str):
        return path.write_bytes(INPUTS[path.name].encode())
    v, t, angle, scale, shift = INPUTS[path.name]
    c, s = math.cos(angle), math.sin(angle)
    write_mesh_text(path, (v @ [[c, s], [-s, c]]) * scale + shift, t)


Run = namedtuple("Run", "name argv code err writes", defaults=(0, "", ()))
SOLVE, SOLVE4 = "solve --case 1", "solve --case 1 --n-dirs 4"
CONFIG, MESH, ASCII = "error[config]: ", "error[mesh]: ", ": 'ascii' codec can't decode byte 0xc3"
CSVS = tuple(f"{t}_{m}.csv" for m in ("dodsd", "dodg") for t in ("table", "rates"))
RUNS = [
    Run("compare", "compare --case 1 --levels 2 --n0 4 --n-dirs 8", writes=(*CSVS, "delta_effect.csv")),
    Run("config-file", "convergence --case 1 --config {d}/good.cfg", writes=("table.csv", "rates.csv")),
    Run("config-phase-foo", "quad-check --config {d}/bad.cfg", 2,
        CONFIG + "{d}/bad.cfg: argument --phase: invalid choice: 'foo'"),
    Run("config-bad-key", "convergence --case 1 --config {d}/bad-key.cfg", 2,
        CONFIG + "{d}/bad-key.cfg: unrecognized arguments: --wibble=3"),
    Run("config-bad-value", "convergence --case 1 --config {d}/bad-value.cfg", 2,
        CONFIG + "{d}/bad-value.cfg: argument --n0: invalid int value: 'lots'"),
    Run("config-non-ascii-byte", f"{SOLVE} --config {{d}}/accent.cfg", 2, CONFIG + "{d}/accent.cfg" + ASCII),
    Run("tol-inf", f"{SOLVE4} --n0 2 --tol inf", 2, CONFIG + "tol must be positive and finite"),
    Run("eta-nan", f"{SOLVE4} --n0 2 --eta nan", 2, CONFIG + "anisotropy factor"),
    Run("nonconvergence", f"{SOLVE4} --n0 2 --max-iter 1", 3, "error[nonconvergence]: "),
    Run("mesh-and-n0", f"{SOLVE} --mesh {{d}}/tri.mesh --n0 7", 2,
        CONFIG + "argument --n0: not allowed with argument --mesh"),
    Run("one-triangle", f"{SOLVE} --mesh {{d}}/tri.mesh", writes=("field.csv",)),
    Run("mesh-non-ascii-byte", f"{SOLVE4} --mesh {{d}}/accent.mesh", 7, MESH + "{d}/accent.mesh" + ASCII),
    Run("mesh-without-triangles", f"{SOLVE4} --mesh {{d}}/empty.mesh", 7, MESH + "mesh has no triangles"),
    Run("mesh-token-not-a-number", f"{SOLVE4} --mesh {{d}}/zero.mesh", 7,
        MESH + "{d}/zero.mesh: could not convert string to float: 'zero'"),
    Run("mesh-negative-count", f"{SOLVE4} --mesh {{d}}/negative.mesh", 7,
        MESH + "{d}/negative.mesh: negative count in the header: -1 vertices, 2 triangles"),
    *(Run(m, f"{SOLVE4} --mesh {{d}}/{m}.mesh", 7, MESH + "nonconforming mesh: vertex")
      for m in ("hanging", "hanging-far", "hanging-turned")),
    Run("grid-turned", f"{SOLVE4} --mesh {{d}}/grid-turned.mesh", writes=("field.csv",)),
    *(Run(f"dump-{l}", f"{SOLVE} --n-dirs 8 --dump-schedule {l} --mesh {{d}}/grid-turned.mesh",
          writes=("schedule.txt", "field.csv")) for l in (0, 4)),
]


def check(run, d, call):
    """Write run's inputs into d, run it through call(argv) -> a CompletedProcess, and
    return its first mismatch with the row, or None."""
    tokens, out, want = run.argv.split(), d / run.name, run.err.format(d=d)
    for name in (a[4:] for a in tokens if a.startswith("{d}/")):
        write_input(d / name)
    proc = call([a.format(d=d) for a in tokens] + ["--out", str(out)])
    code, err = proc.returncode, proc.stderr
    if code != run.code or not err.startswith(want) or (err and not want):
        return f"{run.name}: exit {code}, stderr {err!r}; expected {run.code}, {want!r}"
    if run.code and out.exists():
        return f"{run.name}: failed but made {out}"
    missing = [f for f in run.writes if not (out / f).is_file() or not (out / f).stat().st_size]
    return f"{run.name}: wrote no {missing}" if missing else None


def check_all(call):
    """Every row in one scratch directory, then direction 4 of 8 on the turned grid must dump
    direction 0's layers reversed; SystemExit names the first mismatch."""
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        for problem in filter(None, (check(run, d, call) for run in RUNS)):
            raise SystemExit(problem)
        dump0, dump4 = ((d / f"dump-{l}/schedule.txt").read_text().splitlines() for l in (0, 4))
    if dump4 != dump0[::-1]:
        raise SystemExit("dump-4's layers are not dump-0's reversed")


def in_process(argv):
    """rte2d.cli.main(argv) as a CompletedProcess, stdout dropped."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        return subprocess.CompletedProcess(argv, cli.main(argv), None, err.getvalue())


def main(command):
    check_all(lambda argv: subprocess.run(shlex.split(command) + argv, capture_output=True, text=True))


if __name__ == "__main__":
    main(sys.argv[1])
