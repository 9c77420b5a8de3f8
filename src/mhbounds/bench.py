"""Benchmark runner: configure a case, solve its modes, evaluate the
two-sided bounds and efficiency indices, and emit tables.

Output tables carry one row per Fourier mode (mode sweep) or one row per
grid (grid sweep), plus optional "overall (N=...)" aggregation rows, in the
column layout  label,t_sec,minorant,ieff_minorant,majorant,ieff_majorant,
ieff_ratio,ieff_m1.  Runs are deterministic for a fixed configuration with
one worker.
"""

from __future__ import annotations

import argparse
import csv
import sys
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import mesh as meshmod
from .bounds import (
    BoundParams,
    ModeBounds,
    aggregate,
    combined_norm_weights,
    efficiency_indices,
    evaluate_mode,
    m1_index,
    mode_cost,
)
from .cases import CaseBind, ExampleCase, make_case
from .femcore import FemContext, Scratch, prolong
from .saddlesolve import SolveStats, build_precond_I, build_precond_II, minres
from .systems import ModeSolution, build_matrices, build_mode_system, mode_parts

COLUMNS = [
    "label",
    "t_sec",
    "minorant",
    "ieff_minorant",
    "majorant",
    "ieff_majorant",
    "ieff_ratio",
    "ieff_m1",
]


@dataclass
class ExperimentConfig:
    """Everything a run needs; defaults follow the benchmark definitions."""

    example: int
    grid: int = 64
    modes: tuple = (0,)
    overall: tuple = ()
    lam: float | None = None
    omega: float | None = None
    tol: float = 1e-10
    maxiter: int = 300
    paper_mode: bool = False
    precond_family: int = 0
    nref: int | None = None
    reference: str = "auto"  # auto | analytic | fine | none
    workers: int = 1

    def validate(self) -> list[str]:
        errors = []
        if self.example not in range(1, 7):
            errors.append(f"example must be 1..6, got {self.example}")
        if self.grid < 2:
            errors.append(f"grid must be at least 2, got {self.grid}: a smaller grid has no interior node")
        if self.example in (3, 6) and self.grid % 2:
            errors.append("examples 3 and 6 need an even grid")
        if self.example in (3, 6) and self.nref is not None and self.nref % 2:
            errors.append("examples 3 and 6 need an even reference grid")
        if not self.modes:
            errors.append("modes must not be empty")
        if any(k < 0 for k in self.modes):
            errors.append("modes must be nonnegative")
        for name in ("lam", "omega"):
            value = getattr(self, name)
            if value is not None and not (np.isfinite(value) and value > 0):
                errors.append(f"{name} must be positive and finite, got {value}")
        if not (np.isfinite(self.tol) and self.tol > 0):
            errors.append(f"tol must be positive and finite, got {self.tol}")
        if self.maxiter < 1:
            errors.append(f"maxiter must be at least 1, got {self.maxiter}")
        if self.workers < 1:
            errors.append("workers must be at least 1")
        if self.reference not in ("auto", "analytic", "fine", "none"):
            errors.append(f"unknown reference mode {self.reference!r}")
        if (self.reference == "analytic" and self.example in range(1, 7)
                and not make_case(self.example).has_analytic_reference):
            errors.append(f"example {self.example} has no analytic reference")
        if self.reference == "fine" and self.nref is None:
            errors.append("reference='fine' needs --nref")
        if self.nref is not None and self.nref < self.grid:
            errors.append("nref must not be below the grid")
        if self.precond_family not in (0, 1):
            errors.append("precond family must be 0 or 1")
        elif self.precond_family == 1 and not self.paper_mode:
            errors.append("precond family 1 needs paper mode (it picks among the paper's preconditioners)")
        return errors


@dataclass
class ModeReport:
    """The numbers a run keeps of one mode; the mode's fields die with its pass."""

    k: int
    t_sec: float
    bounds: ModeBounds
    stats: SolveStats
    reference: float = np.nan
    err_l2: float = np.nan
    err_h1: float = np.nan

    def combined_err2(self, problem: str, params: BoundParams) -> float:
        w_l2, w_h1 = combined_norm_weights(problem, params, self.k)
        return w_l2 * self.err_l2 + w_h1 * self.err_h1


@dataclass
class TableRow:
    label: str
    t_sec: float
    minorant: float
    ieff_minorant: float
    majorant: float
    ieff_majorant: float
    ieff_ratio: float
    ieff_m1: float

    def as_list(self):
        return [getattr(self, c) for c in COLUMNS]


@dataclass
class BoundsReport:
    config: ExperimentConfig
    problem: str
    params: BoundParams
    mode_reports: dict
    rows: list = field(default_factory=list)
    overall_rows: list = field(default_factory=list)
    reference_kind: str = "none"

    @property
    def all_rows(self):
        return self.rows + self.overall_rows


class _Solver:
    """Assemble-and-solve helper shared by runs and the fine reference.

    Each thread that solves modes gets its own `Scratch`, which its Krylov
    solves and bound evaluations borrow their work buffers from, mode after
    mode; it is dropped with the solver, or when `scratches` is replaced.
    """

    def __init__(self, case: ExampleCase, n: int, config: ExperimentConfig):
        self.case = case
        self.config = config
        self.mesh = meshmod.build(n)
        self.ctx = FemContext(self.mesh)
        self.mats = build_matrices(self.ctx, case.sigma, case.nu)
        self.bind = CaseBind(case, self.ctx)
        self.params = BoundParams(lam=case.lam, omega=case.omega, sigma=case.sigma, nu=case.nu)
        self.scratches = threading.local()

    def _scratch(self) -> Scratch:
        """The calling thread's scratch."""
        scratch = getattr(self.scratches, "scratch", None)
        if scratch is None:
            scratch = self.scratches.scratch = Scratch()
        return scratch

    def solve_mode(self, k: int):
        """Solve mode k: to the tolerance by GMRES with A~_k^{-1}, or in paper
        mode by exactly 8 MinRes steps with the paper's block-diagonal
        preconditioner."""
        case, config = self.case, self.config
        system = build_mode_system(case.problem, self.mats, k, case.lam, case.omega, self.bind.rhs(k))
        converge = not config.paper_mode
        if case.problem == "I":
            precond = build_precond_I(self.mats, k, case.lam, case.omega, surrogate_inverse=converge)
        else:
            precond = build_precond_II(
                self.mats, k, case.lam, case.omega, family=config.precond_family,
                surrogate_inverse=converge,
            )
        fixed = None if converge else 8
        return minres(system, precond, tol=config.tol, maxiter=config.maxiter, fixed_iters=fixed,
                      scratch=self._scratch())

    def run_mode(self, k: int) -> tuple[ModeReport, ModeSolution]:
        """Mode k's report, timed over its solve and bounds, and its solution."""
        start = time.perf_counter()
        sol, stats = self.solve_mode(k)
        bounds = evaluate_mode(
            self.case.problem, self.ctx, self.mats, self.params, sol,
            self.bind.mode_data(k), scratch=self._scratch(),
        )
        elapsed = time.perf_counter() - start
        return ModeReport(k=k, t_sec=elapsed, bounds=bounds, stats=stats), sol


def _sine_modes_first(modes) -> list:
    """The modes k > 0 in increasing order, then mode 0: a mode 0 solve has
    half the unknowns of the others, so it works in scratch pages they have
    already touched."""
    return sorted(modes, key=lambda k: (k == 0, k))


def fine_grid_reference(case: ExampleCase, nref: int, coarse_ctx: FemContext, states: dict,
                        config: ExperimentConfig):
    """Reference costs and error norms from a finer-grid solve.

    `states` maps each mode k to the stacked parts (P, m * m) of the coarse
    state on `coarse_ctx`.  Returns (costs, norms): costs[k] is the per-mode
    cost of the fine solution, norms[k] the (||e||^2, ||grad e||^2) of the
    coarse state against it, taken right after mode k's fine solve, so no
    fine field outlives its mode.  The coarse state is evaluated at the fine
    nodes; both fields vanish on the boundary, so the norms of their
    difference e are the quadratic forms of the fine interior mass and
    stiffness stencils.
    """
    fine = _Solver(case, nref, config)
    costs, norms = {}, {}
    for k in _sine_modes_first(states):
        fine_sol, _ = fine.solve_mode(k)
        scratch = fine._scratch()
        costs[k] = mode_cost(case.problem, fine.ctx, fine.mats, fine.params, fine_sol,
                             fine.bind.mode_data(k), scratch=scratch)
        coarse = prolong(coarse_ctx.node_grid(states[k]), nref)[:, 1:-1, 1:-1]
        e = fine_sol.y - coarse.reshape(len(coarse), -1)
        with scratch.lend(e.shape) as (product,):
            norms[k] = tuple(float(np.vdot(e, op(e, out=product, scratch=scratch)))
                             for op in (fine.ctx.M, fine.ctx.K))
    return costs, norms


def run(config: ExperimentConfig) -> BoundsReport:
    """Execute one experiment; see ExperimentConfig for the knobs.

    Each mode's analytic reference cost and error norms are taken in the
    pass that solves the mode, after its timing, so no mode's fields
    outlive its pass and a run holds one mode's fields per worker.  A fine
    reference solves its modes after all coarse ones, from their states
    alone.
    """
    errors = config.validate()
    if errors:
        raise ValueError("; ".join(errors))
    case = make_case(config.example, lam=config.lam, omega=config.omega)
    kind = config.reference
    if kind == "auto":
        if case.has_analytic_reference:
            kind = "analytic"
        elif config.nref is not None:
            kind = "fine"
        else:
            kind = "none"
    needed = sorted(set(config.modes) | set(range(max(config.overall) + 1)) if config.overall
                    else set(config.modes))
    solver = _Solver(case, config.grid, config)
    params = solver.params

    def one_mode(k: int):
        """Mode k's report, and its state if a fine reference reads it."""
        rep, sol = solver.run_mode(k)
        if kind == "analytic":
            rep.reference = case.reference_cost(k)
            rep.err_l2, rep.err_h1 = solver.bind.error_norms(k, sol, scratch=solver._scratch())
        # a copy of the state alone, so the adjoint dies with the solution
        return rep, sol.y.copy() if kind == "fine" else None

    order = _sine_modes_first(needed)
    if config.workers > 1:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            done = dict(zip(order, pool.map(one_mode, order)))
    else:
        done = {k: one_mode(k) for k in order}
    reports = {k: done[k][0] for k in needed}
    # a fine reference solves on its own grid, in a scratch of its own
    solver.scratches = threading.local()
    for k, rep in reports.items():
        if not rep.stats.converged:
            outcome = "broke down" if rep.stats.breakdown else "did not converge"
            warnings.warn(
                f"example {config.example}, grid {config.grid}, mode k={k}: the solve {outcome} "
                f"(relative residual {rep.stats.relative_residual:.3e})",
                RuntimeWarning, stacklevel=2,
            )

    report = BoundsReport(
        config=config, problem=case.problem, params=params, mode_reports=reports,
        reference_kind=kind if kind in ("none", "analytic") else f"fine-grid {config.nref}",
    )
    if kind == "fine":
        states = {k: y for k, (_, y) in done.items()}
        costs, norms = fine_grid_reference(case, config.nref, solver.ctx, states, config)
        for k, rep in reports.items():
            rep.reference = costs[k]
            rep.err_l2, rep.err_h1 = norms[k]

    for k in sorted(config.modes):
        rep = reports[k]
        report.rows.append(_mode_row(case, params, rep))

    for n_trunc in config.overall:
        report.overall_rows.append(
            _overall_row(case, params, reports, n_trunc, kind)
        )
    return report


def _row(label, t_sec, minorant, majorant, m1_extra, reference, err2) -> TableRow:
    """A table row with its efficiency indices; `reference` (the cost) and
    `err2` (the weighted squared error) are None where there is none."""
    idx = efficiency_indices(minorant, majorant, reference)
    return TableRow(
        label=label,
        t_sec=t_sec,
        minorant=minorant,
        ieff_minorant=idx["ieff_minorant"],
        majorant=majorant,
        ieff_majorant=idx["ieff_majorant"],
        ieff_ratio=idx["ieff_ratio"],
        ieff_m1=m1_index(m1_extra, err2),
    )


def _mode_row(case, params, rep: ModeReport) -> TableRow:
    b = rep.bounds
    reference = rep.reference if np.isfinite(rep.reference) else None
    err2 = rep.combined_err2(case.problem, params) if np.isfinite(rep.err_l2) else None
    return _row(f"k={rep.k}", rep.t_sec, b.minorant, b.majorant, b.m1_extra, reference, err2)


def _overall_row(case, params, reports, n_trunc, ref_kind) -> TableRow:
    used = [reports[k] for k in range(n_trunc + 1)]
    total = aggregate([rep.bounds for rep in used], params, case.remainder(n_trunc))
    reference = case.overall_reference() if ref_kind == "analytic" else None
    err2 = None
    if all(np.isfinite(rep.err_l2) for rep in used):
        err2 = sum(params.period / mode_parts(rep.k) * rep.combined_err2(case.problem, params)
                   for rep in used)
    return _row(f"overall (N={n_trunc})", sum(rep.t_sec for rep in used), total.minorant,
                total.majorant, total.m1_extra, reference, err2)


def _sweep_configs(config: ExperimentConfig, grids, mode: int) -> list[ExperimentConfig]:
    return [replace(config, grid=n, modes=(mode,), overall=()) for n in grids]


def _errors(configs) -> list[str]:
    """Validation errors of all configurations, each message once."""
    return list(dict.fromkeys(err for c in configs for err in c.validate()))


def _sweep_errors(config: ExperimentConfig, grids, mode: int) -> list[str]:
    """Validation errors of a grid sweep: those of every swept grid, and
    overall rows, which a sweep has none of."""
    errors = _errors(_sweep_configs(config, grids, mode))
    if config.overall:
        errors.append("--overall does not apply to a grid sweep, which has one row per grid")
    return errors


def grid_sweep(config: ExperimentConfig, grids, mode: int) -> list[TableRow]:
    """One row per grid for a fixed mode, labelled like '64x64'.

    Raises:
        ValueError: before any solve, if the configuration of any grid is
            invalid or asks for overall rows.
    """
    errors = _sweep_errors(config, grids, mode)
    if errors:
        raise ValueError("; ".join(errors))
    rows = []
    for cfg in _sweep_configs(config, grids, mode):
        row = run(cfg).rows[0]
        row.label = f"{cfg.grid}x{cfg.grid}"
        rows.append(row)
    return rows


# -- table I/O ---------------------------------------------------------------


def write_csv(report_or_rows, path) -> None:
    rows = report_or_rows.all_rows if isinstance(report_or_rows, BoundsReport) else report_or_rows
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(COLUMNS)
        for row in rows:
            writer.writerow([row.label] + [repr(float(v)) for v in row.as_list()[1:]])


def write_markdown(report: BoundsReport, path) -> None:
    lines = [
        f"# example {report.config.example} (problem {report.problem}), "
        f"grid {report.config.grid}x{report.config.grid}",
        "",
        f"reference: {report.reference_kind}",
        "",
        "| " + " | ".join(COLUMNS) + " |",
        "|" + "|".join(["---"] * len(COLUMNS)) + "|",
    ]
    for row in report.all_rows:
        vals = row.as_list()
        cells = [row.label, f"{row.t_sec:.2f}"] + [
            "n/a" if not np.isfinite(v) else f"{v:.3e}" if abs(v) > 1e3 or (v != 0 and abs(v) < 1e-2) else f"{v:.4g}"
            for v in vals[2:]
        ]
        lines.append("| " + " | ".join(cells) + " |")
    Path(path).write_text("\n".join(lines) + "\n")


# -- command line ------------------------------------------------------------


def _parse_int_list(text: str) -> tuple:
    out = []
    for part in text.split(","):
        part = part.strip()
        if "-" in part:
            a, b = part.split("-")
            out.extend(range(int(a), int(b) + 1))
        elif part:
            out.append(int(part))
    return tuple(out)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="mhbounds",
        description="two-sided cost bounds for the time-periodic benchmark problems",
    )
    p.add_argument("--example", type=int, required=True, help="case id 1..6")
    p.add_argument("--grid", type=int, default=64, help="cells per side")
    p.add_argument("--modes", type=_parse_int_list, default=(0,),
                   help="Fourier modes, e.g. '0-8' or '0,1,3'")
    p.add_argument("--overall", type=_parse_int_list, default=(),
                   help="truncation indices for overall rows, e.g. '3,8'")
    p.add_argument("--sweep", type=_parse_int_list, default=None,
                   help="grid sweep over these sizes (uses the first mode)")
    p.add_argument("--problem", choices=["I", "II"], default=None,
                   help="sanity check: expected problem tag of the example")
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--omega", type=float, default=None)
    p.add_argument("--tol", type=float, default=1e-10,
                   help="stop each mode's solve when ||b - A x|| <= tol ||b|| "
                        "(not read with --paper-mode)")
    p.add_argument("--paper-mode", action="store_true",
                   help="run exactly 8 MinRes steps instead of a tolerance")
    p.add_argument("--family", type=int, default=0, choices=[0, 1],
                   help="Schur preconditioner family of the paper's problem II "
                        "runs; needs --paper-mode")
    p.add_argument("--nref", type=int, default=None, help="fine reference grid")
    p.add_argument("--reference", default="auto",
                   choices=["auto", "analytic", "fine", "none"])
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", default=None, help="output directory for tables")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    config = ExperimentConfig(
        example=args.example,
        grid=args.grid,
        modes=args.modes,
        overall=args.overall,
        lam=args.lam,
        omega=args.omega,
        tol=args.tol,
        paper_mode=args.paper_mode,
        precond_family=args.family,
        nref=args.nref,
        reference=args.reference,
        workers=args.workers,
    )
    # a sweep replaces the grid, so every swept grid is checked instead
    if args.sweep and config.modes:
        errors = _sweep_errors(config, args.sweep, config.modes[0])
    else:
        errors = _errors([config])
    if args.problem is not None:
        expected = "I" if args.example <= 3 else "II"
        if args.problem != expected:
            errors.append(f"example {args.example} is problem {expected}")
    out = Path(args.out) if args.out else None
    if out and any(p.is_file() for p in (out, *out.parents)):
        errors.append(f"--out {out} is a file or lies under one, not a directory")
    if errors:
        for err in errors:
            print(f"error: {err}", file=sys.stderr)
        return 2
    if out:
        out.mkdir(parents=True, exist_ok=True)
    try:
        if args.sweep:
            rows = grid_sweep(config, args.sweep, mode=config.modes[0])
            if out:
                write_csv(rows, out / f"example{args.example}_sweep.csv")
            for row in rows:
                print(row.label, f"min={row.minorant:.4e}", f"maj={row.majorant:.4e}",
                      f"ratio={row.ieff_ratio:.3f}")
        else:
            report = run(config)
            if out:
                stem = f"example{args.example}_n{args.grid}"
                write_csv(report, out / f"{stem}.csv")
                write_markdown(report, out / f"{stem}.md")
            for row in report.all_rows:
                print(row.label, f"min={row.minorant:.4e}", f"maj={row.majorant:.4e}",
                      f"ratio={row.ieff_ratio:.3f}",
                      f"ieff-={row.ieff_minorant:.3f}" if np.isfinite(row.ieff_minorant) else "ieff-=n/a")
    except (ValueError, RuntimeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
