"""Bit-identity digest of the benchmark's workload solves.

Runs every solve of the three workloads in perfbench/workloads.py at one
seed (default 7) and prints, per solve, its label, iteration count and the
sha1 of its coefficients and residual history, then one sha1 over all
solves. A change that must keep every solve bit-identical keeps every
line. Not a pytest module; run from the repo root:

    PYTHONPATH=src python tests/workload_digest.py [--seed 7]
"""

import argparse
import contextlib
import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from rte2d import solve  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class _NoSpans:
    """The workloads' tracer, timing nothing."""

    @staticmethod
    def span(name):
        return contextlib.nullcontext()


def solve_digest(sol, report) -> str:
    """sha1 of the coefficients' bytes and the residual history's float64 bytes."""
    h = hashlib.sha1(np.ascontiguousarray(sol.coeffs).tobytes())
    h.update(np.asarray(report.residual_history, dtype=np.float64).tobytes())
    return h.hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    total, n = hashlib.sha1(), 0
    for name, workload in WORKLOADS.items():
        for spec in workload.setup(args.seed, _NoSpans()):
            sol, report = solve(spec.problem, spec.mesh, spec.config)
            digest = solve_digest(sol, report)
            total.update(digest.encode())
            n += 1
            print(f"{name:18s} {spec.label:9s} {report.iterations:4d} it  {digest}")
    print(f"total over {n} solves (seed {args.seed}): {total.hexdigest()}")


if __name__ == "__main__":
    main()
