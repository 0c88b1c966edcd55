#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload waterfall --seeds 1-10

Untraced runs only.  For every end-to-end metric: the median, the
quartiles (``statistics.quantiles(n=4)``) and the quartile distance as a
share of the median, next to the metric's bound in BENCHMARK.json.  A
spread above a third of its bound is flagged.  Runs are sequential; each
run's last line and its exit code are kept in
``perfbench/out/spread-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = bench["end_to_end"]
    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            bench["command"] + [
                "--workload", args.workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        last = proc.stdout.strip().splitlines()[-1:] or ["null"]
        result = json.loads(last[0]) if proc.returncode == 0 else None
        runs.append({"seed": seed, "returncode": proc.returncode, "result": result})
        if result is None:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            continue
        shown = " ".join(
            f"{m['name']}={result['metrics'][m['name']]['value']:.5g}"
            for m in declared if m["name"] in result["metrics"]
        )
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} {shown}", flush=True)
    (HERE / "out").mkdir(exist_ok=True)
    out = HERE / "out" / f"spread-{args.workload}.json"
    out.write_text(json.dumps(runs, indent=1), encoding="utf-8")
    ok = [r["result"] for r in runs if r["result"] is not None]
    if len(ok) < 2:
        return 1
    for m in declared:
        values = [r["metrics"][m["name"]]["value"] for r in ok if m["name"] in r["metrics"]]
        if len(values) < 2:
            print(f"{m['name']}: absent")
            continue
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        bound = m["bound"]
        flag = "  <-- above a third of the bound" if spread > bound / 3 else ""
        print(f"{m['name']}: median {median:.6g} {m['unit']}, quartiles "
              f"[{q1:.6g}, {q3:.6g}], spread {spread:.3%} (bound {bound:.0%})"
              + flag)
    return 0 if all(r["correct"] for r in ok) and len(ok) == len(runs) else 1


if __name__ == "__main__":
    sys.exit(main())
