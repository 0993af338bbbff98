"""Steadiness check: runs one workload repeatedly, with seeds 1, 2, ... and
BENCHMARK.json's run_seconds, and prints each end-to-end metric's spread
against its bound there.

    python3 perfbench/steady.py --workload dense-512 --runs 10

The spread is the distance between the first and third quartile of the
runs' values (``statistics.quantiles(values, n=4)``) as a share of their
median.  A metric passes when its spread is within its bound; the bound
is comfortable when the spread is below a third of it.  The share of
failed operations must be the same in every run.  Raw results go to
.perfbench/steady-<workload>.json.  Exits 1 when a check fails.
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


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()

    results = []
    for seed in range(1, args.runs + 1):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: run failed with code {proc.returncode}\n{proc.stderr}")
            return 1
        result = json.loads(lines[-1])
        result["seed"] = seed
        results.append(result)
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']} "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
              flush=True)

    out = ROOT / ".perfbench" / f"steady-{args.workload}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(results, indent=1), encoding="utf-8")

    ok = all(r["correct"] for r in results)
    shares = {r["failed"] / r["attempted"] for r in results}
    if len(shares) != 1:
        print(f"failed share differs between runs: {sorted(shares)}")
        ok = False
    print(f"\n{'metric':14s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound':>6s}  verdict")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        if spread > bound:
            verdict, ok = "OVER BOUND", False
        else:
            verdict = "ok" if spread < bound / 3 else "ok, above a third of the bound"
        print(f"{name:14s} {median:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:8.4f} {bound:6.3f}  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
