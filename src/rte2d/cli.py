"""Command line front end: experiment drivers and CSV emission.

Subcommands:
  solve        one solve on a single mesh; dumps per-direction element means
  convergence  nested-refinement error table for one manufactured case
  compare      stabilized vs plain method on identical meshes
  quad-check   angular quadrature and scattering-matrix diagnostics

Each subcommand takes only the flags it reads, by their full names. Its
--config file's `key = value` lines (key: a flag name, with - or _) are
parsed as `--key=value` ahead of the command line, whose flags win.

Floats are written with repr(), which round-trips exactly through float().
Exit status is 0 only when every requested run converged; solver failures
map to distinct nonzero codes (see ERROR_CODES), and a bad configuration
(any flag or config-file parse error), an unreadable input path or an
unwritable output path to 2.
"""

import argparse
import csv
import os
import sys

import numpy as np

from .analysis import (
    _N0,
    NORM_NAMES,
    case_problem,
    case_quadrature,
    compare_methods,
    convergence_study,
    make_case,
)
from .angular import PhaseFunction, m_bound, scatter_matrix, trapezoid_circle
from .errors import (
    AssumptionError,
    MeshError,
    NonConvergenceError,
    StabilityError,
    SweepCycleError,
)
from .mesh import build_structured_unit_square, load_mesh, refine_regular
from .solver import SolverConfig, solve
from .sweep import SweepSchedule, build_schedules

ERROR_CODES = (
    (NonConvergenceError, "nonconvergence", 3),
    (StabilityError, "stability", 4),
    (SweepCycleError, "cycle", 5),
    (AssumptionError, "assumption", 6),
    (MeshError, "mesh", 7),
)


class _Parser(argparse.ArgumentParser):
    """Parse errors raise ValueError: main() prints error[config], exit 2, no usage."""

    def error(self, message):
        raise ValueError(message)


def _subcommand(sub, name, help):
    p = sub.add_parser(name, help=help, allow_abbrev=False)
    p.add_argument("--config", help="file of key = value lines; command-line flags win")
    p.add_argument("--out", default=".", help="output directory (default: .)")
    return p


def _add_case(p):
    p.add_argument("--case", type=int, choices=(1, 2, 3, 4), required=True)
    p.add_argument("--n-dirs", type=int, default=None, help="override case h_theta")
    p.add_argument("--eta", type=float, default=None, help="override case anisotropy")
    p.add_argument("--c-bar", type=float, default=1.0)
    grid = p.add_mutually_exclusive_group()  # no defaults, or argparse misses --n0 10 --mesh
    grid.add_argument("--n0", type=int, help=f"initial structured grid size (default: {_N0})")
    grid.add_argument("--mesh", help="initial mesh file instead of --n0")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iter", type=int, default=1000)


def build_parser():
    parser = _Parser(
        prog="rte2d", description="2D discrete-ordinates transport experiments", allow_abbrev=False
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _subcommand(sub, "solve", "single solve with a field dump")
    _add_case(p)
    p.add_argument("--method", choices=("dodsd", "dodg"), default="dodsd")
    p.add_argument("--level", type=int, default=0, help="refinements of the base mesh")
    p.add_argument(
        "--dump-schedule",
        type=int,
        default=None,
        metavar="L",
        help="also write the sweep layers of direction index L, as solve sweeps them",
    )

    p = _subcommand(sub, "convergence", "error table over nested refinements")
    _add_case(p)
    p.add_argument("--method", choices=("dodsd", "dodg"), default="dodsd")
    p.add_argument("--levels", type=int, default=4)

    p = _subcommand(sub, "compare", "stabilized vs plain method")
    _add_case(p)
    p.add_argument("--levels", type=int, default=4)

    p = _subcommand(sub, "quad-check", "angular quadrature diagnostics")
    p.add_argument("--n-dirs", type=int, default=20)
    p.add_argument("--eta", type=float, default=0.0)
    p.add_argument("--phase", choices=("hg", "linear"), default="hg")
    return parser


def _config_tokens(path):
    """The --config file as flags: each `key = value` line is `--key=value`."""
    tokens = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, _, val = line.partition("=")
            tokens.append(f"--{key.strip().replace('_', '-')}={val.strip()}")
    return tokens


def _parse_args(argv):
    """Parse argv; a --config file's flags go before argv's, so argv's win."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config is None:
        return args
    try:
        tokens = _config_tokens(args.config)
    except UnicodeDecodeError as err:  # a ValueError without the file's path
        raise ValueError(f"{args.config}: {err}") from err
    try:
        return parser.parse_args([args.command, *tokens, *argv[1:]])
    except ValueError as err:
        raise ValueError(f"{args.config}: {err}") from err


def _write_csv(path, header, rows):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="ascii", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([repr(float(v)) if isinstance(v, float) else str(v) for v in row])


def write_table(table, out_dir, suffix=""):
    """table{suffix}.csv, one row per level, and rates{suffix}.csv, one per pair of levels."""
    rows = table.rows
    _write_csv(os.path.join(out_dir, f"table{suffix}.csv"),
               ("level", "h", "n_elems", "n_dirs", *NORM_NAMES, "iters"),
               [(r.level, r.h, r.n_elems, table.n_dirs, *(getattr(r, e) for e in NORM_NAMES),
                 r.iterations) for r in rows])
    _write_csv(os.path.join(out_dir, f"rates{suffix}.csv"), ("from_level", "to_level", *NORM_NAMES),
               [(a.level, b.level, *(table.rates[e][i] for e in NORM_NAMES))
                for i, (a, b) in enumerate(zip(rows, rows[1:]))])


def _config(args):
    method = getattr(args, "method", SolverConfig.method)  # compare has no --method
    return SolverConfig(method=method, c_bar=args.c_bar, tol=args.tol, max_iter=args.max_iter)


def _mesh0(args):
    """The --mesh file's mesh, or the structured --n0 grid."""
    if args.mesh is not None:
        return load_mesh(args.mesh)
    return build_structured_unit_square(_N0 if args.n0 is None else args.n0)


def _cmd_solve(args):
    if args.level < 0:
        raise ValueError(f"level must be nonnegative, got {args.level}")
    case = make_case(args.case, eta=args.eta)
    quad = case_quadrature(case, args.n_dirs)
    l = args.dump_schedule
    if l is not None and not 0 <= l < quad.n_directions:
        raise ValueError(f"--dump-schedule index {l} outside 0..{quad.n_directions - 1}")
    problem = case_problem(case, quad)
    mesh = _mesh0(args)
    for _ in range(args.level):
        mesh = refine_regular(mesh)
    sol, report = solve(problem, mesh, _config(args))

    if l is not None:  # direction l's slice of the stacked peel that solve sweeps
        stack = build_schedules(mesh, quad.directions)
        sched = SweepSchedule(stack.omega[l], stack.layer_of[l], stack.inflow[l])
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "schedule.txt"), "w", encoding="ascii") as fh:
            for layer in sched.layers:
                fh.write(" ".join(str(int(k)) for k in layer) + "\n")

    centroids = mesh.vertices[mesh.triangles].mean(axis=1)
    means = sol.coeffs.mean(axis=2)  # P1 mean over a triangle = coefficient mean
    rows = (
        (l, k, centroids[k, 0], centroids[k, 1], means[l, k])
        for l in range(quad.n_directions)
        for k in range(mesh.n_triangles)
    )
    _write_csv(
        os.path.join(args.out, "field.csv"),
        ("l", "K", "centroid_x", "centroid_y", "u_mean"),
        rows,
    )
    print(
        f"solved case {case.id}: {mesh.n_triangles} elements, "
        f"{quad.n_directions} directions, {report.iterations} iterations, "
        f"delta={report.delta_used!r}"
    )
    return 0


def _cmd_convergence(args):
    case = make_case(args.case, eta=args.eta)
    table = convergence_study(
        case, args.levels, _config(args), n_dirs=args.n_dirs, mesh0=_mesh0(args)
    )
    write_table(table, args.out)
    last = table.rows[-1]
    print(
        f"case {case.id} {table.method}: {len(table.rows)} levels, "
        f"final eh={last.eh:.4e}"
        + (
            f", finest-pair rate(eh)={table.rates['eh'][-1]:.3f}"
            if table.rates["eh"]
            else ""
        )
    )
    return 0


def _cmd_compare(args):
    case = make_case(args.case, eta=args.eta)
    cmp = compare_methods(
        case, args.levels, _config(args), n_dirs=args.n_dirs, mesh0=_mesh0(args)
    )
    write_table(cmp.dodsd, args.out, suffix="_dodsd")
    write_table(cmp.dodg, args.out, suffix="_dodg")
    _write_csv(
        os.path.join(args.out, "delta_effect.csv"),
        ("level", "h", "eh_dodsd", "eh_dodg", "ratio"),
        (
            (a.level, a.h, a.eh, b.eh, r)
            for a, b, r in zip(cmp.dodsd.rows, cmp.dodg.rows, cmp.eh_ratio)
        ),
    )
    worst = max(cmp.eh_ratio)
    print(f"case {case.id}: eh ratio (stabilized/plain) per level {cmp.eh_ratio}, max {worst:.3f}")
    return 0


def _cmd_quad_check(args):
    quad = trapezoid_circle(args.n_dirs)
    G = scatter_matrix(PhaseFunction(args.phase, args.eta), quad)
    row_sums = G.sum(axis=1)
    m = m_bound(G)
    weight_sum = float(quad.weights.sum())
    max_dev = float(np.abs(row_sums - 1.0).max())
    print(
        f"phase={args.phase} eta={args.eta!r} n_dirs={args.n_dirs} "
        f"weight_sum={weight_sum!r} m={m!r} max_row_dev={max_dev!r}"
    )
    _write_csv(
        os.path.join(args.out, "quad_check.csv"),
        ("phase", "eta", "n_dirs", "weight_sum", "m", "max_row_dev"),
        [(args.phase, args.eta, args.n_dirs, weight_sum, m, max_dev)],
    )
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "convergence": _cmd_convergence,
    "compare": _cmd_compare,
    "quad-check": _cmd_quad_check,
}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse_args(argv)
        return _COMMANDS[args.command](args)
    except tuple(exc for exc, _, _ in ERROR_CODES) as err:
        for exc, name, code in ERROR_CODES:
            if isinstance(err, exc):
                print(f"error[{name}]: {err}", file=sys.stderr)
                return code
    except (ValueError, OSError) as err:
        print(f"error[config]: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
