#!/usr/bin/env python3
"""Iteration counts of the preconditioned MinRes solver across grids,
modes, and cost parameters, for both problem families, with the solver's
preconditioner |A~_k|^{-1} ("abs") and the paper's block-diagonal one
("paper", family 0 for problem II)."""

import argparse
import csv
import sys

from mhbounds import mesh as meshmod
from mhbounds.cases import CaseBind, make_case
from mhbounds.femcore import FemContext
from mhbounds.saddlesolve import build_precond_I, build_precond_II, minres
from mhbounds.systems import build_matrices, build_mode_system


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--grids", type=lambda s: [int(x) for x in s.split(",")],
                    default=[16, 32, 64, 128])
    ap.add_argument("--modes", type=lambda s: [int(x) for x in s.split(",")],
                    default=[0, 1, 4, 8])
    ap.add_argument("--lambdas", type=lambda s: [float(x) for x in s.split(",")],
                    default=[1e-2, 1e-1])
    ap.add_argument("--tol", type=float, default=1e-8)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    writer = csv.writer(open(args.out, "w", newline="") if args.out else sys.stdout)
    writer.writerow(["problem", "grid", "k", "lambda", "precond", "iterations", "relres", "seconds"])
    for ident, problem in ((1, "I"), (4, "II")):
        case = make_case(ident)
        for n in args.grids:
            ctx = FemContext(meshmod.build(n))
            mats = build_matrices(ctx)
            bind = CaseBind(case, ctx)
            for k in args.modes:
                rhs = bind.rhs(k)
                for lam in args.lambdas:
                    system = build_mode_system(problem, mats, k, lam, case.omega, rhs)
                    build = build_precond_I if problem == "I" else build_precond_II
                    for name, absolute in (("abs", True), ("paper", False)):
                        precond = build(mats, k, lam, case.omega, absolute=absolute)
                        _, stats = minres(system, precond, tol=args.tol, maxiter=300)
                        writer.writerow([
                            problem, n, k, lam, name, stats.iterations,
                            f"{stats.relative_residual:.2e}", f"{stats.wall_time:.3f}",
                        ])


if __name__ == "__main__":
    main()
