"""One benchmark run of one workload, measured inside this process.

run.py starts this script in a fresh process with the BLAS/OpenMP thread
variables set to 1. The run is a closed loop: one thread runs one pass of
the workload after another, and stops when the next pass would overrun
--seconds. A second, mostly sleeping thread samples the host's speed
(speed.py), and every reported time is scaled to a fixed reference speed; the
end-to-end run also prints and saves the unscaled seconds. It prints every
metric by name and unit; the last stdout line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics. --trace 1 also replays every solve
through rte2d's public pieces under spans and reports the per-layer split.
Per-pass samples, checks, the environment and (traced) every span are
written to perfbench/out/.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_DIR = HERE / "out"

if not (SRC / "rte2d" / "__init__.py").is_file():
    sys.exit(f"rte2d sources not found under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from rte2d import (  # noqa: E402
    AssumptionError,
    MeshError,
    NonConvergenceError,
    StabilityError,
    SweepCycleError,
    error_norms,
    solve,
)
from spans import REPLAY_RTOL, NullTracer, Tracer, replay_mismatch, replay_solve  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from workloads import WORKLOADS, finest_dodsd_eh  # noqa: E402

SOLVE_ERRORS = (
    AssumptionError,
    MeshError,
    NonConvergenceError,
    StabilityError,
    SweepCycleError,
    ValueError,
)

# Before each untraced pass, set-up is repeated for this long (at least
# once), so setup_s is a median of many samples spread over the whole run
# rather than taken in one burst that a moment of machine load can skew.
SETUP_SECONDS_PER_PASS = 0.25

UNITS = {
    "peak_rss_mb": "MB",
    "eh_finest": "1",
    "pass_frac": "1",
    "sweep.us_per_layer": "us",
    "sweep.bytes_per_sweep": "B",
    "sweep.flops_per_sweep": "flop",
    "solver.contraction": "1",
    "trace.overhead_frac": "1",
}

# Per-layer values that are counts: each must repeat exactly from pass to pass.
COUNT_KEYS = (
    "mesh.n_elems",
    "sweep.run_calls",
    "sweep.layers_swept",
    "sweep.layers_per_dir",
    "sweep.max_layer_width",
    "sweep.distinct_graphs",
    "sweep.bytes_per_sweep",
    "sweep.flops_per_sweep",
    "solver.iterations",
    "solver.contraction",
)


def unit_of(name):
    return UNITS.get(name, "s" if name.endswith("_s") else "count")


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    thread_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "RTE_THREADS")
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": nproc,
        "machine": platform.machine(),
        "threads": {v: os.environ.get(v) for v in thread_vars},
    }


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    q = statistics.quantiles(values, n=4)
    return [q[0], statistics.median(values), q[2]]


class Run:
    """One run of one workload: its tracer, its passes and its check tally."""

    def __init__(self, workload, seed, traced):
        self.workload = workload
        self.seed = seed
        self.traced = traced
        self.tracer = Tracer() if traced else NullTracer()
        self.attempted = 0
        self.failures = []
        self.last_checks = []

    def record(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")

    def setup(self):
        t0 = time.perf_counter()
        with self.tracer.span("setup"):
            specs = self.workload.setup(self.seed, self.tracer)
        return specs, (t0, time.perf_counter())

    def one_pass(self, pass_id):
        tr = self.tracer
        tr.pass_id = pass_id
        tr.solve_id = -1
        t0 = time.perf_counter()
        specs, setup_span = self.setup()
        rows, counts, solve_spans, norm_times = [], [], [], []
        for sid, spec in enumerate(specs):
            tr.solve_id = sid
            label = f"solve {spec.label}"
            try:
                ts = time.perf_counter()
                with tr.span("solve"):
                    sol, rep = solve(spec.problem, spec.mesh, spec.config)
                solve_spans.append((ts, time.perf_counter()))
            except SOLVE_ERRORS as err:
                self.record(label, False, f"{type(err).__name__}: {err}")
                rows.append(None)
                continue
            self.record(label, True)
            if self.traced:
                with tr.span("replay"):
                    coeffs, cnt = replay_solve(spec.problem, spec.mesh, spec.config, tr)
                counts.append(cnt)
                mis = replay_mismatch(sol.coeffs, coeffs)
                self.record(
                    f"replay {spec.label}",
                    mis <= REPLAY_RTOL and cnt.iterations == rep.iterations,
                    f"rel diff {mis:.3e}, iterations {cnt.iterations} vs {rep.iterations}",
                )
                del coeffs
            tn = time.perf_counter()
            with tr.span("analysis.error_norms"):
                rows.append(
                    error_norms(
                        sol, spec.case, spec.mesh, spec.problem.quad,
                        level=spec.level, iterations=rep.iterations,
                    )
                )
            norm_times.append(time.perf_counter() - tn)
            del sol
        tr.solve_id = -1
        self.last_checks = self.workload.check(specs, rows)
        for name, ok, detail in self.last_checks:
            self.record(name, ok, detail)
        return {
            "span": (t0, time.perf_counter()),
            "setup_span": setup_span,
            "solve_spans": solve_spans,
            "norm_times": norm_times,
            "eh_finest": finest_dodsd_eh(specs, rows),
            "n_elems": sum(m.n_triangles for m in {id(s.mesh): s.mesh for s in specs}.values()),
            "counts": counts,
        }


def layer_sample(tracer, pass_id, p, scale):
    """Per-layer values of one traced pass, each span's time mapped by scale."""
    self_t = tracer.self_times(pass_id, scale)
    total = tracer.totals(pass_id, scale)
    c = p["counts"]
    run_calls = sum(x.run_calls for x in c)
    layers = sum(x.layers_swept for x in c)
    run_s = self_t.get("sweep.run", 0.0)
    solve_total = total.get("solve", 0.0)
    nan = float("nan")
    return {
        "mesh.build_s": self_t.get("mesh.build", 0.0),
        "mesh.refine_s": self_t.get("mesh.refine", 0.0),
        "mesh.n_elems": p["n_elems"],
        "dg_core.element_basis_s": self_t.get("dg_core.element_basis", 0.0),
        "angular.scatter_matrix_s": self_t.get("angular.scatter_matrix", 0.0),
        "sweep.space_tables_s": self_t.get("sweep.space_tables", 0.0),
        "sweep.schedule_s": self_t.get("sweep.schedule", 0.0),
        "sweep.kernel_build_s": self_t.get("sweep.kernel_build", 0.0),
        "sweep.volume_rhs_s": self_t.get("sweep.volume_rhs", 0.0),
        "sweep.run_s": run_s,
        "sweep.us_per_layer": 1e6 * run_s / layers if layers else nan,
        "sweep.run_calls": run_calls,
        "sweep.layers_swept": layers,
        "sweep.layers_per_dir": sum(x.layers_total for x in c) / max(sum(x.directions for x in c), 1),
        "sweep.max_layer_width": max((x.max_layer_width for x in c), default=0),
        "sweep.distinct_graphs": sum(x.distinct_graphs for x in c) / max(len(c), 1),
        "sweep.bytes_per_sweep": sum(x.bytes_swept for x in c) / max(run_calls, 1),
        "sweep.flops_per_sweep": sum(x.flops_swept for x in c) / max(run_calls, 1),
        "solver.scatter_s": self_t.get("solver.scatter", 0.0),
        "solver.norm_s": self_t.get("solver.norm", 0.0),
        "solver.iterations": sum(x.iterations for x in c),
        "solver.contraction": max((x.contraction for x in c), default=nan),
        # replay's own time: solve work outside the named stages, such as
        # sampling the source and the loop itself
        "solver.unexplained_s": self_t.get("replay", 0.0),
        "analysis.error_norms_s": self_t.get("analysis.error_norms", 0.0),
        # the traced replay against the untraced solve of the same inputs
        "trace.overhead_frac": (total.get("replay", 0.0) - solve_total) / solve_total
        if solve_total
        else nan,
    }


def timing_samples(setup_spans, passes, scale):
    """wall_s, setup_s and solve_s samples; scale(seconds, t0, t1) maps each one."""

    def timed(span):
        t0, t1 = span
        return scale(t1 - t0, t0, t1)

    return {
        "wall_s": [timed(p["span"]) for p in passes],
        "setup_s": [timed(s) for s in setup_spans + [p["setup_span"] for p in passes]],
        "solve_s": [sum(timed(s) for s in p["solve_spans"]) for p in passes],
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload]
    run = Run(workload, args.seed, bool(args.trace))
    env = environment()
    # The run is single-threaded; keeping it and the speed probe on one core
    # makes the probe sample the core that does the work.
    if hasattr(os, "sched_setaffinity"):
        env["pinned_cpu"] = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {env["pinned_cpu"]})
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    probe = SpeedProbe().start()
    setup_spans, passes = [], []
    t_start = time.perf_counter()
    try:
        while True:
            t0 = time.perf_counter()
            if not run.traced:
                setup_spans.append(run.setup()[1])
                while time.perf_counter() - t0 < SETUP_SECONDS_PER_PASS:
                    setup_spans.append(run.setup()[1])
            passes.append(run.one_pass(len(passes)))
            now = time.perf_counter()
            if now - t_start + (now - t0) > args.seconds:
                break
    finally:
        probe.stop()
    eh = [p["eh_finest"] for p in passes]
    run.record("eh_finest repeats across passes", len(set(eh)) == 1, repr(eh))

    if run.traced:
        layer = [layer_sample(run.tracer, i, p, probe.scaled) for i, p in enumerate(passes)]
        samples = {k: [s[k] for s in layer] for k in layer[0]}
        for key in COUNT_KEYS:
            run.record(f"{key} repeats across passes", len(set(samples[key])) == 1, repr(samples[key]))
    else:
        raw = timing_samples(setup_spans, passes, lambda d, t0, t1: d)
        samples = timing_samples(setup_spans, passes, probe.scaled)

    failed = len(run.failures)
    metrics = {name: statistics.median(vals) for name, vals in samples.items()}
    if not run.traced:
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["eh_finest"] = eh[-1]
        metrics["pass_frac"] = 1.0 - failed / run.attempted
    metrics = {k: {"value": float(v), "unit": unit_of(k)} for k, v in metrics.items()}

    for name, ok, detail in run.last_checks:
        print(f"check {'PASS' if ok else 'FAIL'} {name}: {detail}")
    for msg in run.failures:
        print(f"failure {msg}")
    print(f"passes {len(passes)}")

    record = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "passes": len(passes),
        "samples": samples,
        "quartiles": {k: quartiles(v) for k, v in samples.items()},
        "solve_spans": [p["solve_spans"] for p in passes],
        "norm_times": [p["norm_times"] for p in passes],
        "checks": [list(c) for c in run.last_checks],
        "failures": run.failures,
        "metrics": metrics,
    }
    record["probe_samples"] = probe.samples
    if not run.traced:
        record["raw_samples"] = raw
        record["raw_medians"] = {k: statistics.median(v) for k, v in raw.items()}
        print("raw medians (unscaled seconds) " + json.dumps(record["raw_medians"]))
    if run.traced:
        record["span_fields"] = ["name", "start", "end", "parent", "solve_id", "pass_id"]
        record["spans"] = run.tracer.spans
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record))

    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
