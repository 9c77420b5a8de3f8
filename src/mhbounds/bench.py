"""Benchmark runner: configure a case, solve its modes, evaluate the
two-sided bounds and efficiency indices, and emit tables.

Output tables carry one row per Fourier mode (mode sweep) or one row per
grid (grid sweep), plus optional "overall (N=...)" aggregation rows, in the
column layout  label,t_sec,minorant,ieff_minorant,majorant,ieff_majorant,
ieff_ratio,ieff_m1.  A run's table values are the same, bit for bit, for
any number of workers: the seed modes are solved one after the other, and
every later mode reads only them.
"""

from __future__ import annotations

import sys
import threading
import time
import warnings
from contextlib import ExitStack
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import mesh as meshmod
from .bounds import (
    ModeBounds,
    aggregate,
    combined_norm_weights,
    efficiency_indices,
    evaluate_mode,
    m1_index,
    mode_bounds,
)
from .cases import CaseBind, ExampleCase, make_case
from .femcore import FemContext, Scratch, prolong
from .saddlesolve import SeedStart, SolveStats, build_precond_I, build_precond_II, minres
from .systems import ModeSolution, ProblemParams, build_matrices, build_mode_system, mode_parts

if TYPE_CHECKING:
    import argparse

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
    nref: int | None = None  # a fine reference grid; without one, the analytic reference if any
    workers: int = 1

    def validate(self) -> list[str]:
        errors = []
        case = None
        if self.example not in range(1, 7):
            errors.append(f"example must be 1..6, got {self.example}")
        else:
            try:  # lambda and omega, and the data's norm over the period they give
                case = make_case(self.example, lam=self.lam, omega=self.omega)
            except ValueError as exc:
                errors.append(str(exc))
        if self.grid < 2:
            errors.append(f"grid must be at least 2, got {self.grid}: a smaller grid has no interior node")
        if case is not None and not case.has_analytic_reference:
            # indicator data jump on the middle mesh lines
            if self.grid % 2:
                errors.append("examples 3 and 6 need an even grid")
            if self.nref is not None and self.nref % 2:
                errors.append("examples 3 and 6 need an even reference grid")
        if not self.modes:
            errors.append("modes must not be empty")
        if any(k < 0 for k in self.modes):
            errors.append("modes must be nonnegative")
        if len(set(self.modes)) < len(self.modes):
            errors.append("modes must not repeat")
        if any(n < 0 for n in self.overall):
            errors.append("overall truncation indices must be nonnegative")
        if len(set(self.overall)) < len(self.overall):
            errors.append("overall truncation indices must not repeat")
        if not (np.isfinite(self.tol) and self.tol > 0):
            errors.append(f"tol must be positive and finite, got {self.tol}")
        if self.maxiter < 1:
            errors.append(f"maxiter must be at least 1, got {self.maxiter}")
        if self.workers < 1:
            errors.append("workers must be at least 1")
        if self.nref is not None and self.nref < self.grid:
            errors.append("nref must not be below the grid")
        if self.precond_family not in (0, 1):
            errors.append("precond family must be 0 or 1")
        elif self.precond_family == 1 and case is not None and case.problem == "I":
            errors.append(f"precond family 1 is one of problem II's preconditioners, and example "
                          f"{self.example} is problem I")
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

    def combined_err2(self, params: ProblemParams, mu1: float) -> float:
        w_l2, w_h1 = combined_norm_weights(params, mu1, self.k)
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
    params: ProblemParams
    mode_reports: dict
    reference_kind: str
    rows: list = field(default_factory=list)
    overall_rows: list = field(default_factory=list)

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
        self.params = case.params
        self.scratches = threading.local()

    def _scratch(self) -> Scratch:
        """The calling thread's scratch."""
        scratch = getattr(self.scratches, "scratch", None)
        if scratch is None:
            scratch = self.scratches.scratch = Scratch()
        return scratch

    def solve_mode(self, k: int, start):
        """Solve mode k: to the tolerance by GMRES with A~_k^{-1}, from the
        iterate start(k, the data's time coefficients) where `start` (a
        `SeedStart`) is given and gives one, else from zero; or in paper
        mode by exactly 8 MinRes steps with the paper's block-diagonal
        preconditioner."""
        params, config = self.params, self.config
        system = build_mode_system(params, self.mats, k, self.bind.rhs(k))
        converge = not config.paper_mode
        if params.problem == "I":
            precond = build_precond_I(params, self.mats, k, surrogate_inverse=converge)
        else:
            precond = build_precond_II(params, self.mats, k, family=config.precond_family,
                                       surrogate_inverse=converge)
        fixed = None if converge else 8
        x0 = start(k, self.bind.mode_coefs(k)) if start is not None else None
        return minres(system, precond, tol=config.tol, maxiter=config.maxiter, fixed_iters=fixed,
                      scratch=self._scratch(), start=x0)

    def run_mode(self, k: int, start) -> tuple[ModeReport, ModeSolution]:
        """Mode k's report, timed over its solve and bounds, and its solution."""
        start_time = time.perf_counter()
        sol, stats = self.solve_mode(k, start)
        terms = evaluate_mode(self.params, self.mats, self.ctx, sol, self.bind.mode_data(k),
                              scratch=self._scratch())
        bounds = mode_bounds(terms, self.params, self.mats.mu1)
        elapsed = time.perf_counter() - start_time
        return ModeReport(k=k, t_sec=elapsed, bounds=bounds, stats=stats), sol

    def solve_modes(self, modes, one_mode, workers: int = 1) -> tuple[dict, dict]:
        """one_mode(k, start) for each of `modes`, as {k: the first of the
        (result, solution) pair it returns}, and {k: the seconds taken to
        build a start from seed k}.

        The modes run in `_sine_modes_first` order.  With more than two modes
        and a tolerance to meet, the first two are the seeds: the first is
        solved from zero, the second from the `SeedStart` of the first, and
        every later mode from that of both, unless it cannot start the first
        later mode with data.  As a seed's pass ends, its fields are copied
        into rows lent from this thread's scratch, after the rows the start
        kept of the seed before.  A started seed takes fewer GMRES steps, and
        so fewer lent vectors, which leaves room for the first seed's rows.
        The seeds are solved by this thread and a later mode reads only
        them, so no row depends on `workers`.
        """
        order = _sine_modes_first(modes)
        recycle = len(order) > 2 and not self.config.paper_mode
        seeds, later = (order[:2], order[2:]) if recycle else ([], order)
        results, built = {}, {}
        with ExitStack() as held:
            start, scratch = None, self._scratch()
            for k in seeds:
                results[k], sol = one_mode(k, start)
                if start is None:
                    # room for every seed's parts of each field, in pages the
                    # first pass touched
                    shape = (sum(mode_parts(seed) for seed in seeds), sol.y.shape[1])
                    rows = held.enter_context(scratch.lend(shape, shape))
                    ranks = [0, 0]
                fields = [field[: rank + len(sol.y)] for field, rank in zip(rows, ranks)]
                fields[0][ranks[0] :], fields[1][ranks[1] :] = sol.y, sol.p
                del sol
                began = time.perf_counter()
                start = SeedStart(self.params, self.mats, self.bind.load, fields, scratch)
                ranks = [len(basis) for basis in start.bases]
                if k == seeds[-1]:
                    # seeds that cannot start the first later mode with data
                    # are too far from the later modes (as for indicator
                    # data), which then start from zero without a fit each
                    probe = next((m for m in later if np.any(self.bind.mode_coefs(m))), None)
                    if probe is None or start.fit(probe) is None:
                        start = None
                built[k] = time.perf_counter() - began
            if workers > 1:
                # imported here: a one-worker run does without it and what it loads
                from concurrent.futures import ThreadPoolExecutor

                pool = held.enter_context(ThreadPoolExecutor(max_workers=workers))
                results.update(zip(later, pool.map(lambda k: one_mode(k, start)[0], later)))
            else:
                results.update((k, one_mode(k, start)[0]) for k in later)
        return results, built


def _sine_modes_first(modes) -> list:
    """The modes k > 0 in increasing order, then mode 0: a mode 0 solve has
    half the unknowns of the others, so it works in scratch pages they have
    already touched."""
    return sorted(modes, key=lambda k: (k == 0, k))


def fine_grid_reference(case: ExampleCase, nref: int, coarse_ctx: FemContext, states: dict,
                        config: ExperimentConfig):
    """Reference costs and error norms from a finer-grid solve.

    `states` maps each mode k to the stacked parts (P, m * m) of the coarse
    state on `coarse_ctx`.  Returns (costs, norms): costs[k] is the cost of
    the fine discrete optimum (`CaseBind.optimal_cost`), norms[k] the
    (||e||^2, ||grad e||^2) of the coarse state against it, taken right
    after mode k's fine solve, so no fine field but the seeds' outlives its
    mode (the fine modes are solved by `_Solver.solve_modes`, as a run's
    are).  The cost holds at the optimum only, so the fine modes are solved
    to the tolerance also in paper mode, and a fine solve that stops short
    warns.  The coarse state is evaluated at the fine nodes; both fields
    vanish on the boundary, so the norms of their difference e are the
    quadratic forms of the fine interior mass and stiffness stencils.
    """
    fine = _Solver(case, nref, replace(config, paper_mode=False))

    def one_mode(k, start):
        fine_sol, stats = fine.solve_mode(k, start)
        scratch = fine._scratch()
        coarse = prolong(coarse_ctx.node_grid(states[k]), nref)[:, 1:-1, 1:-1]
        e = fine_sol.y - coarse.reshape(len(coarse), -1)
        with scratch.lend((2,) + e.shape) as (products,):
            ke, me = fine.ctx.KM(e, out=products, scratch=scratch)
            norms = float(np.vdot(e, me)), float(np.vdot(e, ke))
        return (fine.bind.optimal_cost(k, fine_sol.y), norms, stats), fine_sol

    done, _ = fine.solve_modes(states, one_mode)
    for k, (_, _, stats) in sorted(done.items()):
        # the warning points at the caller of `run`, as a coarse mode's does
        _warn_stopped_short(f"example {config.example}, reference grid {nref}, mode k={k}", stats,
                            stacklevel=4)
    return {k: cost for k, (cost, _, _) in done.items()}, {k: norms for k, (_, norms, _) in done.items()}


def _warn_stopped_short(where: str, stats: SolveStats, stacklevel: int = 3) -> None:
    """One RuntimeWarning, '<where>: the solve did not converge' or 'broke
    down' with the relative residual, for a solve that stopped short; by
    default it points at the caller's caller."""
    if not stats.converged:
        outcome = "broke down" if stats.breakdown else "did not converge"
        warnings.warn(f"{where}: the solve {outcome} (relative residual {stats.relative_residual:.3e})",
                      RuntimeWarning, stacklevel=stacklevel)


def run(config: ExperimentConfig) -> BoundsReport:
    """Execute one experiment; see ExperimentConfig for the knobs.

    Each mode's analytic reference cost and error norms are taken in the
    pass that solves the mode, after its timing, so no mode's fields but
    the two seeds' (see `_Solver.solve_modes`) outlive its pass, and a run
    holds one mode's fields per worker plus the seeds' in the scratch.  The
    seeds' times include building the starts from them.  A fine reference
    solves its modes after all coarse ones, from their states alone.
    """
    errors = config.validate()
    if errors:
        raise ValueError("; ".join(errors))
    case = make_case(config.example, lam=config.lam, omega=config.omega)
    kind = ("fine" if config.nref is not None else "analytic" if case.has_analytic_reference
            else "none")
    needed = sorted(set(config.modes) | set(range(max(config.overall) + 1)) if config.overall
                    else set(config.modes))
    solver = _Solver(case, config.grid, config)
    params, mu1 = solver.params, solver.mats.mu1

    def one_mode(k: int, start):
        """Mode k's report, with its state if a fine reference reads it, and
        its solution."""
        rep, sol = solver.run_mode(k, start)
        if kind == "analytic":
            rep.reference = case.reference_cost(k)
            rep.err_l2, rep.err_h1 = solver.bind.error_norms(k, sol, scratch=solver._scratch())
        # a copy of the state alone, so the adjoint dies with the solution
        return (rep, sol.y.copy() if kind == "fine" else None), sol

    done, built = solver.solve_modes(needed, one_mode, config.workers)
    reports = {k: done[k][0] for k in needed}
    for k, seconds in built.items():
        reports[k].t_sec += seconds
    # a fine reference solves on its own grid, in a scratch of its own
    solver.scratches = threading.local()
    for k, rep in reports.items():
        _warn_stopped_short(f"example {config.example}, grid {config.grid}, mode k={k}", rep.stats)

    report = BoundsReport(
        config=config, params=params, mode_reports=reports,
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
        report.rows.append(_mode_row(params, mu1, rep))

    # the exact total cost, taken once for all overall rows
    exact_total = case.overall_reference() if config.overall and kind == "analytic" else None
    for n_trunc in config.overall:
        report.overall_rows.append(_overall_row(case, mu1, reports, n_trunc, exact_total))
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


def _mode_row(params, mu1, rep: ModeReport) -> TableRow:
    b = rep.bounds
    reference = rep.reference if np.isfinite(rep.reference) else None
    err2 = rep.combined_err2(params, mu1) if np.isfinite(rep.err_l2) else None
    return _row(f"k={rep.k}", rep.t_sec, b.minorant, b.majorant, b.m1_extra, reference, err2)


def _overall_row(case, mu1, reports, n_trunc, reference) -> TableRow:
    """The overall row of modes 0..n_trunc; `reference` is the exact total
    cost, or None."""
    params = case.params
    used = [reports[k] for k in range(n_trunc + 1)]
    total = aggregate([rep.bounds for rep in used], params, case.remainder(n_trunc))
    err2 = None
    if all(np.isfinite(rep.err_l2) for rep in used):
        err2 = sum(params.period / mode_parts(rep.k) * rep.combined_err2(params, mu1) for rep in used)
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
    if len(set(grids)) < len(grids):
        errors.append("sweep grids must not repeat")
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
    import csv

    rows = report_or_rows.all_rows if isinstance(report_or_rows, BoundsReport) else report_or_rows
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(COLUMNS)
        for row in rows:
            writer.writerow([row.label] + [repr(float(v)) for v in row.as_list()[1:]])


def write_markdown(report: BoundsReport, path) -> None:
    lines = [
        f"# example {report.config.example} (problem {report.params.problem}), "
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
    import argparse

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
                        "(with --paper-mode, read by the --nref fine solves alone)")
    p.add_argument("--paper-mode", action="store_true",
                   help="run exactly 8 MinRes steps instead of a tolerance")
    p.add_argument("--family", type=int, default=0, choices=[0, 1],
                   help="Schur preconditioner family of the paper's problem II "
                        "runs; needs --paper-mode")
    p.add_argument("--nref", type=int, default=None,
                   help="fine reference grid; without it examples 1, 2, 4 and 5 take the exact "
                        "reference and examples 3 and 6 none")
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
        workers=args.workers,
    )
    # a sweep replaces the grid, so every swept grid is checked instead
    if args.sweep and config.modes:
        errors = _sweep_errors(config, args.sweep, config.modes[0])
    else:
        errors = _errors([config])
    if args.sweep == ():
        errors.append("--sweep names no grid")
    if args.problem is not None and not errors:
        expected = make_case(args.example).problem
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
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            print(f"error: --out {out} cannot be created: {exc.strerror or exc}", file=sys.stderr)
            return 2
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
    except (ValueError, RuntimeError, MemoryError, OSError) as exc:  # OSError: a table write
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
