"""Tests of the benchmark itself, on the tiny-grid smoke setting.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from workloads import load_golden, make_spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", ["ex1-modes", "ex1-sweep", "ex4-modes", "ex3-fineref"])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_named_metric_is_printed(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    e2e, layers = run.metric_units()
    units = layers if trace == "1" else e2e
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {n: m["unit"] for n, m in result["metrics"].items()} == units
    table = [line.split() for line in lines[:-1]]
    for name, unit in units.items():
        assert any(cells[:1] == [name] and cells[-1] == unit for cells in table), name


def test_corrupted_golden_row_raises_fail_frac(monkeypatch):
    golden = copy.deepcopy(load_golden())
    golden["ex1-modes@smoke"]["k=3"]["majorant"] *= 1.001
    monkeypatch.setattr(run, "load_golden", lambda: golden)
    res = run.bench_workload("ex1-modes", 1, 0, False, "smoke")
    samples = res["record"]["samples"]
    assert not res["correct"]
    assert res["failed"] == samples  # the k=3 row of every sample
    assert res["metrics"]["pass_frac"] == pytest.approx(1 - samples / res["attempted"])
    assert res["record"]["row_failures"] == ["off golden: majorant"]


def test_unconverged_solve_is_counted():
    spec = make_spec("ex4-modes", 1, "smoke")
    spec["config"]["maxiter"] = 1
    sample = run.run_child(spec, trace=True, time_setup=False)
    reasons = run.judge(sample, spec, load_golden()["ex4-modes@smoke"])
    assert all(any(r.startswith("MinRes unconverged") for r in rr) for rr in reasons)
    layers = run.layer_metrics(sample)
    assert layers["saddlesolve.unconverged"] == len(sample["solves"]) == 4
    assert layers["saddlesolve.minres_iters"] == 4


def test_self_times_add_up_to_the_traced_call():
    spec = make_spec("ex3-fineref", 2, "smoke")
    sample = run.run_child(spec, trace=True, time_setup=False)
    layers = run.layer_metrics(sample)
    self_sum = sum(layers[m] for m in set(run.SELF_TIME_METRIC.values()))
    assert self_sum == pytest.approx(layers["trace.total_s"], rel=1e-9)
    assert 0 < layers["bench.reference_s"] < layers["trace.total_s"]
    names = {s["name"] for s in sample["spans"]}
    assert names == set(run.SELF_TIME_METRIC)  # every layer is reached


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "ex1-modes", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
