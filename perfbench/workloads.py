"""Workload definitions and the row checks behind the benchmark's correctness gate.

A workload is one fixed call of a public entry point of `mhbounds.bench`
(`run` or `grid_sweep`).  The seed only picks the non-zero Fourier modes of
the workloads that have a mode pool; each mode in a pool costs about the
same, so the seed changes which rows are checked, not how much work a run
does.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden.json"

# Relative tolerance of a table value against its golden value.  Solves run
# to tol 1e-10; a different solver path may move the values by a few orders
# more than that, a wrong bound moves them by far more.
GOLDEN_RTOL = 1e-6

VALUE_COLUMNS = ("minorant", "ieff_minorant", "majorant", "ieff_majorant", "ieff_ratio", "ieff_m1")

# name -> definition per scale ("full" is benchmarked, "smoke" is for the
# tests).  "pool" and "draw" give the seeded modes.  Why each workload is
# there: BENCHMARK.json and README.md.
WORKLOADS = {
    "ex1-modes": {
        "analytic": True,
        "full": dict(entry="run", config=dict(example=1, grid=128, modes=list(range(9)), overall=[3, 8])),
        "smoke": dict(entry="run", config=dict(example=1, grid=8, modes=list(range(9)), overall=[3, 8])),
    },
    "ex4-modes": {
        "analytic": True,
        "pool": list(range(1, 9)),
        "draw": 3,
        "full": dict(entry="run", config=dict(example=4, grid=128)),
        "smoke": dict(entry="run", config=dict(example=4, grid=8)),
    },
    "ex1-sweep": {
        "analytic": True,
        "full": dict(entry="sweep", grids=[32, 64, 128, 256], config=dict(example=1, modes=[0])),
        "smoke": dict(entry="sweep", grids=[4, 8], config=dict(example=1, modes=[0])),
    },
    "ex3-fineref": {
        "analytic": False,
        # even k >= 2 have vanishing data and cost no iterations; MinRes needs
        # 22, 24, 26, 28 iterations at k = 1, 3, 5, 7, so only k = 1, 3 cost
        # about the same
        "pool": [1, 3],
        "draw": 1,
        "full": dict(entry="run", config=dict(example=3, grid=64, nref=128)),
        "smoke": dict(entry="run", config=dict(example=3, grid=8, nref=16)),
    },
}


def draw_modes(name: str, seed: int) -> list[int]:
    """Mode 0 plus the seeded draw from the workload's pool (if it has one)."""
    wl = WORKLOADS[name]
    if "pool" not in wl:
        return []
    rng = random.Random(f"{name}:{seed}")
    return [0] + sorted(rng.sample(wl["pool"], wl["draw"]))


def make_spec(name: str, seed: int, scale: str = "full") -> dict:
    """The input of one sample process: entry point, config and grids."""
    wl = WORKLOADS[name]
    base = wl[scale]
    config = dict(base["config"], workers=1)
    modes = draw_modes(name, seed)
    if modes:
        config["modes"] = modes
    # every grid the entry call sets up: a fine reference builds its own
    if base["entry"] == "sweep":
        setup_grids = list(base["grids"])
    else:
        setup_grids = [config["grid"]] + ([config["nref"]] if config.get("nref") else [])
    return dict(
        workload=name, seed=seed, scale=scale, entry=base["entry"],
        grids=base.get("grids"), config=config, setup_grids=setup_grids,
        analytic=wl["analytic"], seeded_labels=[f"k={k}" for k in modes[1:]],
    )


def load_golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def golden_key(spec: dict) -> str:
    return f"{spec['workload']}@{spec['scale']}"


def _row_solves(label: str, spec: dict, solves: list) -> list:
    """The MinRes solves a table row depends on.

    Mode rows depend on every solve of their mode (the fine reference
    included), overall rows on the modes they sum, sweep rows on the
    solves on their grid.
    """
    if spec["entry"] == "sweep":
        n = int(label.split("x")[0])
        return [s for s in solves if s["n_interior"] == (n - 1) ** 2]
    if label.startswith("overall"):
        top = int(label.split("N=")[1].rstrip(")"))
        return [s for s in solves if s["k"] <= top]
    k = int(label.split("=")[1])
    return [s for s in solves if s["k"] == k]


def _close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return math.isclose(a, b, rel_tol=GOLDEN_RTOL, abs_tol=0.0)


def check_rows(rows: list, solves: list, spec: dict, golden: dict) -> list[list[str]]:
    """Failure reasons for each row of one sample (an empty list passes).

    `rows` are dicts with a label and the VALUE_COLUMNS; `solves` the
    (k, n_interior, converged, breakdown, relres) records of every MinRes
    call the sample made; `golden` maps label -> golden row.
    """
    out = []
    for row in rows:
        reasons = []
        label = row["label"]
        for s in _row_solves(label, spec, solves):
            if s["breakdown"]:
                reasons.append(f"MinRes breakdown (k={s['k']})")
            elif not s["converged"]:
                reasons.append(f"MinRes unconverged (k={s['k']}, relres={s['relres']:.2e})")
        if not row["minorant"] <= row["majorant"]:
            reasons.append("minorant > majorant")
        if spec["analytic"] and not row["ieff_minorant"] <= 1.0 <= row["ieff_majorant"]:
            reasons.append("analytic reference outside [minorant, majorant]")
        gold = golden.get(label)
        if gold is None:
            reasons.append("no golden row")
        else:
            bad = [c for c in VALUE_COLUMNS if not _close(row[c], gold[c])]
            if bad:
                reasons.append("off golden: " + ", ".join(bad))
        out.append(reasons)
    return out
