#!/usr/bin/env python3
"""Regenerate the benchmark tables.

Desk scale (default) runs the grid sweeps up to 64x64 and the mode sweeps
on a 64x64 grid; --scale full uses the published grids (256x256 sweeps and
the 512x512 reference for the indicator-data cases), which needs a few GB
of memory and some patience.
"""

import argparse
from pathlib import Path

from mhbounds.bench import ExperimentConfig, grid_sweep, run, write_csv, write_markdown


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--scale", choices=["desk", "full"], default="desk")
    ap.add_argument("--out", default="out/tables")
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    full = args.scale == "full"
    grids = (16, 32, 64, 128, 256) if full else (16, 32, 64)
    big = 256 if full else 64

    # grid sweeps for the first two modes of the state-tracking and
    # gradient-tracking smooth cases
    for example, mode in ((1, 0), (1, 1), (4, 0), (4, 1)):
        rows = grid_sweep(ExperimentConfig(example=example, modes=(mode,)), grids, mode)
        write_csv(rows, out / f"example{example}_mode{mode}_sweep.csv")
        print(f"example {example} mode {mode}: sweep over {grids} done")

    # mode sweeps with overall aggregation
    sweeps = {
        1: (tuple(range(9)), (3, 8)),
        2: (tuple(range(11)), (6, 10)),
        4: (tuple(range(9)), (6, 8)),
        5: (tuple(range(11)), (6, 10)),
    }
    for example, (modes, overall) in sweeps.items():
        rep = run(ExperimentConfig(example=example, grid=big, modes=modes, overall=overall))
        write_csv(rep, out / f"example{example}_modes_n{big}.csv")
        write_markdown(rep, out / f"example{example}_modes_n{big}.md")
        print(f"example {example}: mode sweep at {big}x{big} done")

    # indicator-data cases with a finer-grid reference
    nref = 512 if full else 128
    for example in (3, 6):
        rep = run(ExperimentConfig(
            example=example, grid=big, modes=(0, 1, 3, 5), nref=nref,
        ))
        write_csv(rep, out / f"example{example}_modes_n{big}.csv")
        write_markdown(rep, out / f"example{example}_modes_n{big}.md")
        print(f"example {example}: mode sweep at {big}x{big} (reference {nref}) done")


if __name__ == "__main__":
    main()
