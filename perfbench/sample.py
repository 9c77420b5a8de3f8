"""One benchmark sample, run as a fresh process by run.py.

    python3 perfbench/sample.py '<spec json>'

The sample imports mhbounds from the checkout's `src/`, times the
mode-independent set-up of every grid the workload uses (if `time_setup`),
then times the workload's entry call (`bench.run` or
`bench.grid_sweep`) and prints one JSON line with the table rows, the
timings, the stats of every MinRes solve and the peak RSS.

With `"trace": true` the same entry call runs with each layer's public
functions wrapped in spans (see TRACED_CALLS); the spans are kept in memory
and printed with the result at exit.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from mhbounds import bench  # noqa: E402
from mhbounds import mesh as meshmod  # noqa: E402
from mhbounds.cases import CaseBind, make_case  # noqa: E402
from mhbounds.femcore import FemContext  # noqa: E402
from mhbounds.systems import build_matrices  # noqa: E402

from workloads import VALUE_COLUMNS  # noqa: E402

# (owner, attribute, span name).  Module functions are patched where
# bench.py looks them up, classes on the class, so calls made by the fine
# reference are traced too.  The reference spans are the "bench" layer's;
# their children still count towards their own layers.
TRACED_CALLS = [
    (meshmod, "build", "mesh.build"),
    (FemContext, "__init__", "femcore.FemContext"),
    (bench, "build_matrices", "systems.build_matrices"),
    (CaseBind, "__init__", "cases.CaseBind"),
    (CaseBind, "rhs", "cases.rhs"),
    (CaseBind, "mode_data", "cases.mode_data"),
    (bench, "build_mode_system", "systems.build_mode_system"),
    (bench, "build_precond_I", "saddlesolve.build_precond"),
    (bench, "build_precond_II", "saddlesolve.build_precond"),
    (bench, "minres", "saddlesolve.minres"),
    (bench, "evaluate_mode", "bounds.evaluate_mode"),
    (CaseBind, "reference_cost", "bench.reference"),
    (CaseBind, "error_norms", "bench.reference"),
    (bench, "fine_grid_reference", "bench.reference"),
    (bench, "_fine_error_norms", "bench.reference"),
    (bench, "_overall_reference", "bench.reference"),
]


class Tracer:
    """Spans (name, start, end, parent, run id) kept in memory."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        span = {
            "id": len(self.spans), "name": name, "run": self.run_id,
            "parent": self._stack[-1] if self._stack else None,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
        if name == "systems.build_mode_system":
            span["nnz"] = int(result.matrix.nnz)
        return result

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced


def _patch(owner, attr: str, make_wrapper, undo: list) -> None:
    """Replace owner.attr by a wrapper; `undo` collects what to restore."""
    fn = getattr(owner, attr, None)
    if fn is not None:
        undo.append((owner, attr, fn))
        setattr(owner, attr, make_wrapper(fn))


def probe_solves(solves: list, undo: list) -> None:
    """Record the stats of every MinRes solve bench makes (a few per run)."""

    def make_wrapper(fn):
        @functools.wraps(fn)
        def probed(system, *args, **kwargs):
            sol, stats = fn(system, *args, **kwargs)
            solves.append({
                "k": int(system.k), "n_interior": int(system.mats.M.shape[0]),
                "iterations": int(stats.iterations),
                "relres": float(stats.relative_residual),
                "converged": bool(stats.converged), "breakdown": bool(stats.breakdown),
            })
            return sol, stats

        return probed

    _patch(bench, "minres", make_wrapper, undo)


def time_setup(spec: dict) -> float:
    """Wall time of mesh -> FemContext -> matrices -> CaseBind for every grid."""
    cfg = spec["config"]
    case = make_case(cfg["example"], lam=cfg.get("lam"), omega=cfg.get("omega"))
    start = time.perf_counter()
    for n in spec["setup_grids"]:
        ctx = FemContext(meshmod.build(n))
        build_matrices(ctx, case.sigma, case.nu)
        CaseBind(case, ctx)
        del ctx
    return time.perf_counter() - start


def _row_dict(row) -> dict:
    out = {"label": row.label, "t_sec": float(row.t_sec)}
    out.update({c: float(getattr(row, c)) for c in VALUE_COLUMNS})
    return out


def run_entry(spec: dict, config: bench.ExperimentConfig) -> list:
    if spec["entry"] == "sweep":
        return bench.grid_sweep(config, spec["grids"], mode=config.modes[0])
    return bench.run(config).all_rows


def run_sample(spec: dict) -> dict:
    """Set-up timings, then one timed (optionally traced) entry call."""
    cfg = dict(spec["config"])
    for key in ("modes", "overall"):
        if key in cfg:
            cfg[key] = tuple(cfg[key])
    config = bench.ExperimentConfig(**cfg)

    out = {
        "versions": {
            "python": sys.version.split()[0], "numpy": np.__version__, "scipy": scipy.__version__,
        },
    }
    if spec.get("time_setup"):
        out["setup_s"] = time_setup(spec)
    solves: list = []
    undo: list = []
    probe_solves(solves, undo)
    tracer = None
    if spec.get("trace"):
        tracer = Tracer(run_id=f"{spec['workload']}:{spec['seed']}:{time.time_ns()}")
        for owner, attr, name in TRACED_CALLS:
            _patch(owner, attr, lambda fn, name=name: tracer.wrap(fn, name), undo)
    try:
        start = time.perf_counter()
        if tracer is None:
            rows = run_entry(spec, config)
        else:
            rows = tracer.call("bench.entry", run_entry, spec, config)
        out["run_s"] = time.perf_counter() - start
        out["rows"] = [_row_dict(r) for r in rows]
    except Exception:  # the sample's rows all count as failed
        out["error"] = traceback.format_exc()
    finally:
        for owner, attr, fn in reversed(undo):
            setattr(owner, attr, fn)
    out["solves"] = solves
    out["spans"] = tracer.spans if tracer is not None else []
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def main() -> int:
    result = run_sample(json.loads(sys.argv[1]))
    print(json.dumps(result))
    return 1 if "error" in result else 0


if __name__ == "__main__":
    raise SystemExit(main())
