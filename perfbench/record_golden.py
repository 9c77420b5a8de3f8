"""Record golden.json: the table rows of every workload, for every mode in its pool.

    python3 perfbench/record_golden.py

Runs each workload once per scale in this process, with all pool modes at
once (a mode's row does not depend on which other modes run), checks the
rows against the analytic reference and the solver stats, and writes the
value columns keyed by workload@scale and row label.  Re-record only when a
change is meant to move the bound tables.
"""

from __future__ import annotations

import json
import os
import sys

from run import THREAD_VARS
from workloads import GOLDEN_PATH, VALUE_COLUMNS, WORKLOADS, check_rows, golden_key, make_spec


def main() -> int:
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))  # before numpy loads
    from sample import run_sample

    golden = {}
    for name, wl in WORKLOADS.items():
        for scale in ("full", "smoke"):
            spec = make_spec(name, 0, scale)
            if "pool" in wl:
                spec["config"]["modes"] = [0] + wl["pool"]
            result = run_sample(spec)
            if "error" in result:
                print(result["error"], file=sys.stderr)
                return 1
            rows = {r["label"]: {c: r[c] for c in VALUE_COLUMNS} for r in result["rows"]}
            # every check but the golden one must already pass
            reasons = check_rows(result["rows"], result["solves"], spec, rows)
            if any(reasons):
                print(f"{name}@{scale}: {reasons}", file=sys.stderr)
                return 1
            golden[golden_key(spec)] = rows
            print(f"{golden_key(spec)}: {len(rows)} rows")
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
