"""Smoke test of the benchmark's traced replay against `solve`.

`perfbench/spans.py` re-runs a solve through the package's public pieces
(space tables, one schedule and one kernel per direction, `volume_rhs`,
`run`, `weighted_norm`); this keeps that API working.
"""

import importlib.util
from pathlib import Path

import pytest

from rte2d import (
    SolverConfig,
    build_structured_unit_square,
    case_problem,
    case_quadrature,
    make_case,
    solve,
)

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("case_id, method", [(1, "dodsd"), (4, "dodg")])
def test_replay_matches_solve(case_id, method):
    spans = load_spans()
    case = make_case(case_id)
    problem = case_problem(case, case_quadrature(case))
    mesh = build_structured_unit_square(4)
    config = SolverConfig(method=method)
    sol, report = solve(problem, mesh, config)
    coeffs, counts = spans.replay_solve(problem, mesh, config, spans.NullTracer())
    assert spans.replay_mismatch(sol.coeffs, coeffs) <= spans.REPLAY_RTOL
    assert counts.iterations == report.iterations
