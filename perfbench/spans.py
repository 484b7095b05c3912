"""In-memory spans, and a replay of `solve` through rte2d's public pieces.

`replay_solve` repeats what `rte2d.solve` does, step for step and in the same
order, with a span around each call into a layer. The traced run checks that
the replay reproduces `solve`'s coefficients and iteration count, so the
per-layer split describes the program the end-to-end run measures.
"""

import contextlib
import dataclasses
import time

import numpy as np

from rte2d import (
    build_kernel,
    build_schedule,
    delta_value,
    element_basis,
    scatter_matrix,
    space_tables,
    weighted_norm,
)

# Replay and solve must agree to this relative max-norm difference.
REPLAY_RTOL = 1e-12


class NullTracer:
    """Tracer used by the end-to-end run: spans cost one no-op context."""

    _null = contextlib.nullcontext()

    def span(self, name):
        return self._null


class Tracer:
    """Records (name, start, end, parent, solve_id, pass_id) spans in memory."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.solve_id = -1
        self.pass_id = -1

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        rec = [name, time.perf_counter(), 0.0, parent, self.solve_id, self.pass_id]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def self_times(self, pass_id, scale):
        """Per-name sums of span time minus the time of direct children.

        scale(seconds, t0, t1) maps each span's duration, as SpeedProbe.scaled does.
        """
        child = {}
        for name, t0, t1, parent, _sid, pid in self.spans:
            if pid == pass_id and parent >= 0:
                child[parent] = child.get(parent, 0.0) + scale(t1 - t0, t0, t1)
        out = {}
        for idx, (name, t0, t1, _parent, _sid, pid) in enumerate(self.spans):
            if pid == pass_id:
                out[name] = out.get(name, 0.0) + scale(t1 - t0, t0, t1) - child.get(idx, 0.0)
        return out

    def totals(self, pass_id, scale):
        """Per-name sums of whole span durations, each mapped by scale."""
        out = {}
        for name, t0, t1, _parent, _sid, pid in self.spans:
            if pid == pass_id:
                out[name] = out.get(name, 0.0) + scale(t1 - t0, t0, t1)
        return out


@dataclasses.dataclass
class SweepCounts:
    """Work counts of one replayed solve; they repeat exactly for fixed inputs."""

    iterations: int = 0
    contraction: float = float("nan")
    run_calls: int = 0
    layers_swept: int = 0
    directions: int = 0
    layers_total: int = 0
    max_layer_width: int = 0
    distinct_graphs: int = 0
    bytes_swept: int = 0
    flops_swept: int = 0


# Computed cost of one DirectionKernel.run per element, from the shapes of the
# arrays it touches (float64/int64): inv_a (3x3), coup (3x3x3), nbr_pad (3),
# fixed and scattering rhs (3 each), rhs sum written (3), neighbor gather
# (3x3), coefficients written (3). Flops: coupling einsum 2*27, inverse
# apply 2*9, two rhs additions 3+3.
RUN_BYTES_PER_ELEM = 8 * (9 + 27 + 3 + 3 + 3 + 3 + 9 + 3)
RUN_FLOPS_PER_ELEM = 2 * 27 + 2 * 9 + 3 + 3


def _contraction(history):
    """Geometric-mean ratio of successive residuals."""
    h = [r for r in history if np.isfinite(r)]
    if len(h) < 2:
        return float("nan")
    return float((h[-1] / h[0]) ** (1.0 / (len(h) - 1)))


def replay_solve(problem, mesh, config, tracer):
    """Re-run `rte2d.solve`'s source iteration; returns (coeffs, counts)."""
    quad = problem.quad
    nl = quad.n_directions
    nt = mesh.n_triangles
    counts = SweepCounts(directions=nl)
    with tracer.span("dg_core.element_basis"):
        basis = element_basis(mesh)
    with tracer.span("sweep.space_tables"):
        tables = space_tables(mesh, problem.sigma_t, basis=basis)
    pts = tables.points
    ss = np.asarray(problem.sigma_s(pts[..., 0], pts[..., 1]), dtype=float)
    ss = np.broadcast_to(ss, pts.shape[:2])

    delta = delta_value(config, mesh)
    kernels = []
    graphs = set()
    for l in range(nl):
        with tracer.span("sweep.schedule"):
            sched = build_schedule(mesh, quad.directions[l])
        graphs.add(sched.inflow.tobytes())
        counts.layers_total += sched.n_layers
        counts.max_layer_width = max(counts.max_layer_width, max(len(x) for x in sched.layers))
        fv = np.asarray(problem.f(pts[..., 0], pts[..., 1], l), dtype=float)
        fv = np.broadcast_to(fv, pts.shape[:2])
        if problem.inflow is None:
            inflow_l = None
        else:
            inflow_l = (lambda ll: lambda x, y: problem.inflow(x, y, ll))(l)
        with tracer.span("sweep.kernel_build"):
            kernels.append(build_kernel(tables, sched, delta, f_vals=fv, inflow_data=inflow_l))
    counts.distinct_graphs = len(graphs)

    def run(kern, rhs):
        with tracer.span("sweep.run"):
            out = kern.run(rhs)
        counts.run_calls += 1
        counts.layers_swept += kern.schedule.n_layers
        counts.bytes_swept += RUN_BYTES_PER_ELEM * nt
        counts.flops_swept += RUN_FLOPS_PER_ELEM * nt
        return out

    coeffs = np.zeros((nl, nt, 3))
    if not ss.any():
        for l in range(nl):
            coeffs[l] = run(kernels[l], None)
        counts.iterations = 1
        return coeffs, counts

    with tracer.span("angular.scatter_matrix"):
        G = scatter_matrix(problem.phase, quad)
    wss = tables.areaw * ss
    bary = tables.rule.points
    history = []
    for j in range(1, config.max_iter + 1):
        with tracer.span("solver.scatter"):
            u_pts = np.einsum("lkj,qj->lkq", coeffs, bary)
            s_pts = (G @ u_pts.reshape(nl, -1)).reshape(nl, nt, -1)
        new = np.empty_like(coeffs)
        for l in range(nl):
            kern = kernels[l]
            with tracer.span("sweep.volume_rhs"):
                rhs = kern.volume_rhs(wss * s_pts[l])
            new[l] = run(kern, rhs)
        with tracer.span("solver.norm"):
            num = weighted_norm(new - coeffs, quad.weights, mesh.tri_area)
            den = weighted_norm(new, quad.weights, mesh.tri_area)
        coeffs = new
        counts.iterations = j
        if den == 0.0:
            if num == 0.0:
                break
            history.append(np.inf)
            continue
        r = num / den
        if r == 0.0:
            break
        history.append(r)
        if r <= config.tol:
            break
    counts.contraction = _contraction(history)
    return coeffs, counts


def replay_mismatch(ref, coeffs):
    """Relative max-norm difference between solve's and the replay's coefficients."""
    scale = float(np.abs(ref).max())
    diff = float(np.abs(coeffs - ref).max())
    return diff / scale if scale > 0 else diff
