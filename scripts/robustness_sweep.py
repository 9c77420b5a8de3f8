#!/usr/bin/env python3
"""Iteration counts of the mode solvers across grids, modes, and cost
parameters, for both problem families: GMRES preconditioned by the surrogate
inverse A~_k^{-1} ("surrogate", the solver of converged runs) and MinRes
preconditioned by the paper's block-diagonal preconditioner ("paper",
family 0 for problem II).  `relres` is the ratio each solver stops on,
`true_relres` the Euclidean ||b - A x|| / ||b|| of the solution."""

import argparse
import csv
import sys

import numpy as np

from mhbounds import mesh as meshmod
from mhbounds.cases import CaseBind, make_case
from mhbounds.femcore import FemContext, Scratch
from mhbounds.saddlesolve import build_precond_I, build_precond_II, minres
from mhbounds.systems import ProblemParams, build_matrices, build_mode_system


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
    writer.writerow(["problem", "grid", "k", "lambda", "precond", "iterations", "relres", "true_relres",
                     "seconds"])
    scratch = Scratch()
    for ident in (1, 4):
        case = make_case(ident)
        problem = case.problem
        for n in args.grids:
            ctx = FemContext(meshmod.build(n))
            mats = build_matrices(ctx)
            bind = CaseBind(case, ctx)
            for k in args.modes:
                rhs = bind.rhs(k)
                for lam in args.lambdas:
                    params = ProblemParams(problem, lam, case.omega)
                    system = build_mode_system(params, mats, k, rhs)
                    build = build_precond_I if problem == "I" else build_precond_II
                    for name, surrogate in (("surrogate", True), ("paper", False)):
                        precond = build(params, mats, k, surrogate_inverse=surrogate)
                        sol, stats = minres(system, precond, tol=args.tol, maxiter=300, scratch=scratch)
                        x = np.concatenate([sol.y, sol.p]).ravel()
                        residual = system.rhs - system.matrix(x, out=np.empty(x.shape), scratch=scratch)
                        true_relres = np.linalg.norm(residual) / np.linalg.norm(system.rhs)
                        writer.writerow([
                            problem, n, k, lam, name, stats.iterations,
                            f"{stats.relative_residual:.2e}", f"{true_relres:.2e}",
                            f"{stats.wall_time:.3f}",
                        ])


if __name__ == "__main__":
    main()
