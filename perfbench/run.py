"""mhbounds benchmark: end-to-end run metrics and traced per-layer timings.

    python3 perfbench/run.py --workload ex1-modes --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30      # every metric, every workload

Run it from the root of a checkout.  Each sample is a fresh single-threaded
process (sample.py); samples run one after another while a typical sample
still ends within `--seconds` (at least one), and every metric is the
median over the samples.  With `--trace 0` the result carries the
end-to-end metrics of BENCHMARK.json, with `--trace 1` the per-layer ones:
traced and untraced samples then alternate, and the tracing overhead is the
difference between them.  Every sample's table rows are checked
(workloads.check_rows); the last line of standard output is the result as
JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, check_rows, golden_key, load_golden, make_spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 120
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# Span name -> per-layer metric holding its self time.  The "bench" spans are
# the entry call and the reference; together the self times add up to the
# traced entry call.
SELF_TIME_METRIC = {
    "mesh.build": "mesh.build_s",
    "femcore.FemContext": "femcore.context_s",
    "cases.CaseBind": "cases.bind_s",
    "cases.rhs": "cases.data_s",
    "cases.mode_data": "cases.data_s",
    "systems.build_matrices": "systems.matrices_s",
    "systems.build_mode_system": "systems.mode_system_s",
    "saddlesolve.build_precond": "saddlesolve.precond_s",
    "saddlesolve.minres": "saddlesolve.minres_s",
    "bounds.evaluate_mode": "bounds.evaluate_s",
    "bench.entry": "bench.self_s",
    "bench.reference": "bench.self_s",
}


def metric_units() -> tuple[dict, dict]:
    """name -> unit of the end-to-end and per-layer metrics in BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def run_child(spec: dict, trace: bool, time_setup: bool) -> dict:
    """One sample in a fresh process; adds the parent-measured process_s."""
    arg = json.dumps(dict(spec, trace=trace, time_setup=time_setup))
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "sample.py"), arg], cwd=ROOT, env=child_env(),
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"sample timed out after {CHILD_TIMEOUT_S} s", "timed_out": True}
    process_s = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": f"sample exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    result["process_s"] = process_s
    return result


def expected_labels(spec: dict) -> list[str]:
    if spec["entry"] == "sweep":
        return [f"{n}x{n}" for n in spec["grids"]]
    cfg = spec["config"]
    return [f"k={k}" for k in sorted(cfg["modes"])] + [
        f"overall (N={n})" for n in cfg.get("overall", [])
    ]


def judge(sample: dict, spec: dict, golden: dict) -> list[list[str]]:
    """Failure reasons per expected row; a sample that raised fails them all."""
    labels = expected_labels(spec)
    if "error" in sample:
        return [["run raised"] for _ in labels]
    if [r["label"] for r in sample["rows"]] != labels:
        return [["unexpected table labels"] for _ in labels]
    return check_rows(sample["rows"], sample["solves"], spec, golden)


def self_times(spans: list) -> dict:
    """Per-layer self time: span duration minus the time its children cover."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    out = dict.fromkeys(SELF_TIME_METRIC.values(), 0.0)
    for s, inner in zip(spans, child_time):
        out[SELF_TIME_METRIC[s["name"]]] += s["end"] - s["start"] - inner
    return out


def layer_metrics(sample: dict) -> dict:
    """Per-layer metrics of one traced sample (overhead is added later)."""
    spans = sample["spans"]
    out = self_times(spans)
    solves = sample["solves"]
    iters = sum(s["iterations"] for s in solves)
    out["systems.nnz"] = sum(s.get("nnz", 0) for s in spans)
    out["saddlesolve.minres_iters"] = iters
    out["saddlesolve.s_per_iter"] = out["saddlesolve.minres_s"] / max(iters, 1)
    out["saddlesolve.relres_max"] = max((s["relres"] for s in solves), default=0.0)
    out["saddlesolve.unconverged"] = sum(not s["converged"] or s["breakdown"] for s in solves)
    out["bench.reference_s"] = sum(s["end"] - s["start"] for s in spans if s["name"] == "bench.reference")
    out["trace.total_s"] = next(s["end"] - s["start"] for s in spans if s["parent"] is None)
    return out


def end_to_end_metrics(samples: list, spec: dict) -> dict:
    def med(key):
        return statistics.median(s[key] for s in samples)

    return {
        "run_s": med("run_s"),
        "solve_s": statistics.median(
            sum(r["t_sec"] for r in s["rows"] if not r["label"].startswith("overall"))
            for s in samples
        ),
        "setup_s": med("setup_s"),
        "process_s": med("process_s"),
        "peak_rss_mb": med("peak_rss_mb"),
        # over the rows every seed has: the seeded modes' ratios differ by far
        # more than any bound (up to 10 at k=8 on ex4-modes)
        "bound_ratio": statistics.median(
            max(r["ieff_ratio"] for r in s["rows"] if r["label"] not in spec["seeded_labels"])
            for s in samples
        ),
    }


def _source_digest() -> str:
    """sha256 over src/mhbounds, to name the code when there is no git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "mhbounds").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def bench_workload(name: str, seed: int, seconds: float, trace: bool, scale: str) -> dict:
    """Samples for `seconds`, then checks and metrics of one workload."""
    spec = make_spec(name, seed, scale)
    golden = load_golden()[golden_key(spec)]
    plain, traced = [], []
    start = time.monotonic()
    while True:
        is_traced = trace and len(traced) < len(plain)
        group = traced if is_traced else plain
        # after one sample of each kind, start another only if one as long
        # as the typical one still ends within `seconds`
        if plain and (traced or not trace):
            typical = statistics.median(s.get("process_s", 0.0) for s in group)
            if time.monotonic() - start + typical > seconds:
                break
        # only untraced runs report setup_s
        sample = run_child(spec, is_traced, time_setup=not trace)
        (traced if is_traced else plain).append(sample)
        if sample.get("timed_out"):
            break
    samples = plain + traced
    verdicts = [judge(s, spec, golden) for s in samples]
    failed = sum(bool(reasons) for v in verdicts for reasons in v)
    attempted = sum(len(v) for v in verdicts)
    ok_plain = [s for s in plain if "error" not in s]
    ok_traced = [s for s in traced if "error" not in s]

    notes = sorted({r for v in verdicts for reasons in v for r in reasons})
    identical = True
    if trace and ok_plain and ok_traced:
        # the traced entry call must give the untraced rows bit for bit
        def values(sample):
            return [{k: v for k, v in r.items() if k != "t_sec"} for r in sample["rows"]]

        identical = all(values(t) == values(ok_plain[0]) for t in ok_traced + ok_plain)
        if not identical:
            notes.append("traced rows differ from untraced rows")

    metrics = {}
    if ok_plain and not trace:
        metrics.update(end_to_end_metrics(ok_plain, spec))
        metrics["pass_frac"] = 1.0 - failed / attempted
    if ok_plain and ok_traced:
        per = [layer_metrics(s) for s in ok_traced]
        metrics.update({k: statistics.median(p[k] for p in per) for k in per[0]})
        run_s = statistics.median(s["run_s"] for s in ok_plain)
        metrics["trace.overhead_frac"] = (metrics["trace.total_s"] - run_s) / run_s

    first = (ok_plain or ok_traced or [{}])[0]
    record = {
        "workload": name, "seed": seed, "scale": scale, "seconds": seconds, "trace": trace,
        "modes": spec["config"].get("modes"), "grids": spec["grids"] or spec["setup_grids"],
        "samples": len(plain), "traced_samples": len(traced),
        "git_sha": _git_sha(), "src_sha256": _source_digest(),
        "versions": first.get("versions"), "nproc": os.cpu_count(),
        "threads": {var: "1" for var in THREAD_VARS}, "workers": 1,
        "errors": [s["error"] for s in samples if "error" in s][:3],
        "row_failures": notes,
    }
    return {
        "correct": failed == 0 and identical and bool(ok_plain) and (not trace or bool(ok_traced)),
        "attempted": attempted, "failed": failed, "metrics": metrics, "record": record,
    }


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_table(title: str, metrics: dict, units: dict) -> None:
    print(title)
    for name, unit in units.items():
        print(f"  {name:<28} {_fmt(metrics.get(name, float('nan'))):>14}  {unit}")


def result_line(res: dict, units: dict) -> str:
    return json.dumps({
        "correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
        "metrics": {n: {"value": res["metrics"][n], "unit": u} for n, u in units.items()},
    })


def run_all(args, e2e_units: dict, layer_units: dict) -> int:
    """Every end-to-end metric per workload, then the per-layer table."""
    layers, total, ok = {}, {"attempted": 0, "failed": 0}, True
    for name in WORKLOADS:
        for trace in (False, True):
            res = bench_workload(name, args.seed, args.seconds, trace, args.scale)
            ok &= res["correct"]
            total["attempted"] += res["attempted"]
            total["failed"] += res["failed"]
            if trace:
                layers[name] = res["metrics"]
            else:
                r = res["record"]
                print_table(f"{name}  (seed {args.seed}, modes {r['modes']}, {r['samples']} samples, "
                            f"{res['failed']}/{res['attempted']} rows failed)", res["metrics"], e2e_units)
            for note in res["record"]["row_failures"]:
                print(f"  ! {note}")
    print("\nper-layer (traced; times are self times, medians over traced samples)")
    print(f"  {'metric':<28}" + "".join(f"{n:>14}" for n in layers) + "  unit")
    for metric, unit in layer_units.items():
        print(f"  {metric:<28}" + "".join(f"{_fmt(layers[n].get(metric, float('nan'))):>14}" for n in layers)
              + f"  {unit}")
    print(json.dumps({"correct": ok, **total}))
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", dest="scale", action="store_const", const="smoke", default="full",
                    help="tiny grids, for the benchmark's own tests")
    args = ap.parse_args(argv)
    # a terminated run raises in subprocess.run, which kills and reaps the sample
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "mhbounds" / "__init__.py").is_file():
        print(f"error: no mhbounds sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    e2e_units, layer_units = metric_units()
    if args.workload == "all":
        return run_all(args, e2e_units, layer_units)

    res = bench_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    units = layer_units if args.trace else e2e_units
    rec = res["record"]
    n = rec["traced_samples"] if args.trace else rec["samples"]
    print_table(f"{args.workload}: {'per-layer (traced)' if args.trace else 'end to end'}, "
                f"median of {n} samples", res["metrics"], units)
    for note in rec["row_failures"]:
        print(f"  ! {note}")
    print(json.dumps({"record": rec}))
    missing = set(units) - set(res["metrics"])
    if missing:
        print(f"error: no sample finished; not measured: {sorted(missing)}", file=sys.stderr)
        return 1
    print(result_line(res, units))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
