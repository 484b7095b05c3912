"""The one table of rte2d command-line runs, each with the answer it must get.

A row gives the argv, whose {d}/NAME tokens are the INPUTS it reads; the exit
code; the one line that stderr starts with (nothing: stderr stays empty); and
the files it must write into its --out directory d/NAME, which a failed run
leaves absent. Not a pytest module. From the repo root, name the console
command to check, rte2d or, with PYTHONPATH=src and no install, "python -m rte2d.cli":

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

from helpers import hanging_node_cells, perturbed_mesh, write_mesh_text
from rte2d import build_structured_unit_square, cli

HANGING, GRID, M2, P5 = (hanging_node_cells(), build_structured_unit_square(6),
                         build_structured_unit_square(2), perturbed_mesh(5, seed=31))
DIRECTORY = object()  # an INPUTS value: an empty directory
# a file's text, whose {d} is its directory; a mesh's vertices and triangles and the turn,
# scale and shift of its vertices; DIRECTORY; or None, an absent path
INPUTS = {
    "good.cfg": "n0 = 2\nn-dirs = 4\nlevels = 1\n",
    "override.cfg": "# experiment defaults\nn0 = 4\nlevels = 2\nn-dirs = 16\n\nmax-iter = 500\n",
    "bad.cfg": "phase = foo\n",
    "bad-key.cfg": "n0 = 4\nwibble = 3\n",
    "bad-value.cfg": "n0 = lots\n",
    "accent.cfg": "n0 = 2 # café\n",
    "no-equals.cfg": "n0 = 4\nlevels 2\n",
    "level.cfg": "level = 1\n",
    "dump.cfg": "dump_schedule = 3\n",
    "mesh.cfg": "mesh = {d}/m2.mesh\n",
    "mesh-n0.cfg": "mesh = {d}/m2.mesh\nn0 = 10\n",
    "nowhere.cfg": None,
    "tri.mesh": "3 1\n0 0\n1 0\n0 1\n0 1 2\n",
    "accent.mesh": "3 1\n0 0\n1 0\n0 1\n0 1 2  # coin supérieur\n",
    "empty.mesh": "3 0\n0 0\n1 0\n0 1\n",
    "zero.mesh": "3 1\n0 0\n1 0\nzero 1\n0 1 2\n",
    "negative.mesh": "-1 2\n0 1 2 3\n",
    "nowhere.mesh": None,
    "folder.mesh": DIRECTORY,
    "m2.mesh": (M2.vertices, M2.triangles, 0.0, 1.0, 0.0),
    "perturbed.mesh": (P5.vertices, P5.triangles, 0.0, 1.0, 0.0),
    "hanging.mesh": (*HANGING, 0.0, 1.0, 0.0),
    "hanging-far.mesh": (*HANGING, 0.0, 1e-3, 1e6),
    "hanging-turned.mesh": (*HANGING, 2.0, 1e-2, 1e5),
    "grid-turned.mesh": (GRID.vertices, GRID.triangles, 2.1476, 0.015, 2370.0),
}


def input_names(text):
    """The NAME of each {d}/NAME token of text, then those of the file texts it names."""
    names = [token[4:] for token in text.split() if token.startswith("{d}/")]
    return names + [n for name in names if isinstance(INPUTS.get(name), str)
                    for n in input_names(INPUTS[name])]


def write_input(path):
    value = INPUTS[path.name]
    if value is DIRECTORY:
        path.mkdir(exist_ok=True)
    elif isinstance(value, str):
        path.write_bytes(value.format(d=path.parent).encode())
    elif value is not None:
        v, t, angle, scale, shift = value
        c, s = math.cos(angle), math.sin(angle)
        write_mesh_text(path, (v @ [[c, s], [-s, c]]) * scale + shift, t)


Run = namedtuple("Run", "name argv code err writes", defaults=(0, "", ()))
Answer = namedtuple("Answer", "proc problem")  # a run's CompletedProcess, its first mismatch or None
SOLVE, SOLVE4, SMALL = "solve --case 1", "solve --case 1 --n-dirs 4", "--case 1 --levels 1 --n0 2 --n-dirs 4"
CONFIG, MESH, ASCII = "error[config]: ", "error[mesh]: ", ": 'ascii' codec can't decode byte 0xc3"
UNKNOWN, EXCLUSIVE = "unrecognized arguments: ", "argument --n0: not allowed with argument --mesh"
TABLE = ("table.csv", "rates.csv")
CSVS = tuple(f"{t}_{m}.csv" for m in ("dodsd", "dodg") for t in ("table", "rates"))
RUNS = [
    Run("quad-check-hg", "quad-check --n-dirs 16", writes=("quad_check.csv",)),
    Run("quad-check-linear", "quad-check --phase linear --n-dirs 12", writes=("quad_check.csv",)),
    Run("convergence", "convergence --case 1 --levels 2 --n0 4 --n-dirs 8", writes=TABLE),
    Run("compare", "compare --case 1 --levels 2 --n0 4 --n-dirs 8", writes=(*CSVS, "delta_effect.csv")),
    Run("solve-dump", f"{SOLVE} --n0 3 --n-dirs 4 --dump-schedule 0", writes=("schedule.txt", "field.csv")),
    Run("mesh-level", f"{SOLVE4} --mesh {{d}}/m2.mesh --level 1", writes=("field.csv",)),
    Run("config-file", "convergence --case 1 --config {d}/good.cfg", writes=TABLE),
    Run("config-override", "convergence --case 1 --config {d}/override.cfg --n-dirs 8", writes=TABLE),
    Run("config-phase-foo", "quad-check --config {d}/bad.cfg", 2,
        CONFIG + "{d}/bad.cfg: argument --phase: invalid choice: 'foo'"),
    Run("config-bad-key", "convergence --case 1 --config {d}/bad-key.cfg", 2,
        CONFIG + "{d}/bad-key.cfg: " + UNKNOWN + "--wibble=3"),
    Run("config-bad-value", "convergence --case 1 --config {d}/bad-value.cfg", 2,
        CONFIG + "{d}/bad-value.cfg: argument --n0: invalid int value: 'lots'"),
    Run("config-non-ascii-byte", f"{SOLVE} --config {{d}}/accent.cfg", 2, CONFIG + "{d}/accent.cfg" + ASCII),
    Run("config-no-equals-sign", "convergence --case 1 --config {d}/no-equals.cfg", 2,
        CONFIG + "{d}/no-equals.cfg:2: expected key=value, got 'levels 2'"),
    Run("config-level", f"convergence {SMALL} --config {{d}}/level.cfg", 2,
        CONFIG + "{d}/level.cfg: " + UNKNOWN + "--level=1"),
    Run("config-dump-schedule", f"convergence {SMALL} --config {{d}}/dump.cfg", 2,
        CONFIG + "{d}/dump.cfg: " + UNKNOWN + "--dump-schedule=3"),
    Run("compare-method", f"compare {SMALL} --method dodg", 2, CONFIG + UNKNOWN + "--method dodg"),
    Run("quad-check-tol", "quad-check --tol 1e-3", 2, CONFIG + UNKNOWN + "--tol 1e-3"),
    Run("abbreviated-flag", "convergence --case 1 --lev 1 --n0 2 --n-dirs 4", 2,
        CONFIG + UNKNOWN + "--lev 1"),
    Run("linear-phase-eta", "quad-check --phase linear --eta 0.7", 2,
        CONFIG + "linear-anisotropic kernel takes no eta, got 0.7"),
    Run("missing-config", f"{SOLVE4} --n0 2 --config {{d}}/nowhere.cfg", 2,
        CONFIG + "[Errno 2] No such file or directory: '{d}/nowhere.cfg'"),
    Run("tol-inf", f"{SOLVE4} --n0 2 --tol inf", 2, CONFIG + "tol must be positive and finite"),
    Run("eta-nan", f"{SOLVE4} --n0 2 --eta nan", 2, CONFIG + "anisotropy factor"),
    Run("nonconvergence", f"{SOLVE4} --n0 2 --max-iter 1", 3, "error[nonconvergence]: "),
    Run("c-bar-overflow", f"{SOLVE4} --n0 2 --c-bar 1e300", 4,
        "error[stability]: near-singular local system at element 0, direction 0 (|det| nan"),
    Run("mesh-and-n0", f"{SOLVE} --mesh {{d}}/tri.mesh --n0 7", 2, CONFIG + EXCLUSIVE),
    Run("config-mesh-and-n0", f"{SOLVE4} --config {{d}}/mesh-n0.cfg", 2,
        CONFIG + "{d}/mesh-n0.cfg: " + EXCLUSIVE),
    Run("config-mesh-flag-n0", f"convergence {SMALL} --config {{d}}/mesh.cfg", 2,
        CONFIG + "{d}/mesh.cfg: " + EXCLUSIVE),
    Run("missing-mesh", f"{SOLVE4} --mesh {{d}}/nowhere.mesh", 2,
        CONFIG + "[Errno 2] No such file or directory: '{d}/nowhere.mesh'"),
    Run("mesh-is-a-directory", f"{SOLVE4} --mesh {{d}}/folder.mesh", 2,
        CONFIG + "[Errno 21] Is a directory: '{d}/folder.mesh'"),
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
    *(Run(f"{m}-{l}", f"{SOLVE} --n-dirs 8 --dump-schedule {l} --mesh {{d}}/{mesh}.mesh",
          writes=("schedule.txt", "field.csv"))
      for m, mesh in (("dump", "grid-turned"), ("perturbed-dump", "perturbed")) for l in (0, 4)),
]


def check(run, d, call):
    """Write run's inputs into d, run it through call(argv) -> a CompletedProcess, and
    return its Answer."""
    out, want = d / run.name, run.err.format(d=d)
    for name in input_names(run.argv):
        write_input(d / name)
    proc = call([a.format(d=d) for a in run.argv.split()] + ["--out", str(out)])
    code, err = proc.returncode, proc.stderr
    if code != run.code or not err.startswith(want) or len(err.splitlines()) != bool(want):
        return Answer(proc, f"{run.name}: exit {code}, stderr {err!r}; expected {run.code}, {want!r}")
    if run.code and out.exists():
        return Answer(proc, f"{run.name}: failed but made {out}")
    missing = [f for f in run.writes if not (out / f).is_file() or not (out / f).stat().st_size]
    return Answer(proc, f"{run.name}: wrote no {missing}" if missing else None)


def run_all(d, call):
    """Every row, in d: {row name: its Answer}."""
    return {run.name: check(run, d, call) for run in RUNS}


def dumps_reversed(d):
    """Whether direction 4 of 8 on the turned grid dumped direction 0's layers reversed."""
    dump0, dump4 = ((d / f"dump-{l}/schedule.txt").read_text().splitlines() for l in (0, 4))
    return dump4 == dump0[::-1]


def check_all(call):
    """Every row in one scratch directory, then dumps_reversed; SystemExit names each mismatch."""
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        problems = [a.problem for a in run_all(d, call).values() if a.problem]
        if not problems and not dumps_reversed(d):
            problems = ["dump-4's layers are not dump-0's reversed"]
    if problems:
        raise SystemExit("\n".join(problems))


def in_process(argv):
    """rte2d.cli.main(argv) as a CompletedProcess."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return subprocess.CompletedProcess(argv, code, out.getvalue(), err.getvalue())


def main(command):
    check_all(lambda argv: subprocess.run(shlex.split(command) + argv, capture_output=True, text=True))


if __name__ == "__main__":
    main(sys.argv[1])
