"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/sweep.py --workloads ex1-modes,ex3-fineref --seeds 1-10 --trace 0
    python3 perfbench/sweep.py --seeds 1-10 --out perfbench/trajectory/<sha>_trace0.json

For every workload and metric it prints the median over the runs, the
quartiles (statistics.quantiles, n=4) and the spread (q3 - q1) / median
against the metric's bound in BENCHMARK.json.  A benchmark is steady when
every spread but setup_s's stays below a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    a, _, b = text.partition("-")
    return list(range(int(a), int(b or a) + 1))


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(q2) if q2 else 0.0, "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out", help="write the summary as JSON here")
    args = ap.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    seconds = str(bench["run_seconds"])
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    summary, ok = {}, True
    for name in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", seconds, "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
                return 1
            res = json.loads(lines[-1])
            record = json.loads(lines[-2])["record"]
            ok &= res["correct"]
            runs.append(res)
            print(f"{name} seed {seed}: correct={res['correct']} failed={res['failed']}/{res['attempted']}",
                  flush=True)
        metrics = {m: summarize([r["metrics"][m]["value"] for r in runs]) for m in runs[0]["metrics"]}
        summary[name] = {
            "seeds": args.seeds, "run_seconds": int(seconds), "correct": all(r["correct"] for r in runs),
            "environment": {k: record[k] for k in ("git_sha", "src_sha256", "versions", "nproc", "threads")},
            "metrics": metrics,
        }
        print(f"\n{name}: {len(runs)} runs")
        print(f"  {'metric':<28}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>7}")
        for m, s in metrics.items():
            b = bounds.get(m)
            print(f"  {m:<28}{s['median']:>12.5g}{s['q1']:>12.5g}{s['q3']:>12.5g}{s['spread']:>9.4f}"
                  + (f"{b:>7}" if b is not None else ""))
        print(flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
