"""Smoke test of the benchmark's traced replay against `solve`.

`perfbench/spans.py` re-runs a solve through the package's public pieces
(space tables, one schedule and one kernel per direction, `volume_rhs`,
`run`, `weighted_norm`); this keeps that API working, and keeps working
the case that `perfbench/workloads.py` derives from `make_case`.
"""

import importlib.util
import math
from pathlib import Path

import pytest

from rte2d import (
    SolverConfig,
    build_structured_unit_square,
    case_problem,
    case_quadrature,
    error_norms,
    make_case,
    solve,
)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("case_id, method", [(1, "dodsd"), (4, "dodg")])
def test_replay_matches_solve(case_id, method):
    spans = load("spans")
    case = make_case(case_id)
    problem = case_problem(case, case_quadrature(case))
    mesh = build_structured_unit_square(4)
    config = SolverConfig(method=method)
    sol, report = solve(problem, mesh, config)
    coeffs, counts = spans.replay_solve(problem, mesh, config, spans.NullTracer())
    assert spans.replay_mismatch(sol.coeffs, coeffs) <= spans.REPLAY_RTOL
    assert counts.iterations == report.iterations


def test_replay_matches_solve_on_the_scattering_dominated_case():
    # scatter_case builds its case with dataclasses.replace and the exact callables
    spans = load("spans")
    case = load("workloads").scatter_case()
    quad = case_quadrature(case)
    problem = case_problem(case, quad)
    mesh = build_structured_unit_square(4)
    config = SolverConfig(tol=1e-8)
    sol, report = solve(problem, mesh, config)
    rep = error_norms(sol, case, mesh, quad, iterations=report.iterations)
    assert math.isfinite(rep.eh) and rep.eh > 0.0
    coeffs, counts = spans.replay_solve(problem, mesh, config, spans.NullTracer())
    assert spans.replay_mismatch(sol.coeffs, coeffs) <= spans.REPLAY_RTOL
    assert counts.iterations == report.iterations
