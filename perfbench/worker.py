"""Child process of the benchmark: runs a workload's operations in rounds.
run.py starts it after set-up; it is not meant to be run by hand.

    worker.py WORKLOAD INPUTS WORK SECONDS TRACE RESULT

It runs apart from set-up so that its peak resident memory excludes
set-up.  It writes its rounds, timings and peak memory to the JSON file
RESULT, and the spans of its traced rounds to WORK/run_spans.json.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import lidar_anchor  # noqa: E402

if Path(lidar_anchor.__file__).resolve().parent != ROOT / "src" / "lidar_anchor":
    sys.exit(f"lidar_anchor imported from {lidar_anchor.__file__}, not from {ROOT / 'src'}")

import tracing  # noqa: E402
import workloads  # noqa: E402


def _attempt(op: workloads.Operation, tracer: tracing.Tracer | None) -> dict:
    if tracer:
        tracer.install()
    start = time.perf_counter()
    try:
        op.call()
        error = None
    except Exception as exc:  # a failed operation is counted, not fatal
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    if tracer:
        tracer.uninstall()
    if error:
        print(f"operation {op.name} failed: {error}", file=sys.stderr)
    return {"name": op.name, "stage": op.stage, "seconds": seconds, "error": error}


def ops(name: str, inputs: str, work: str, seconds: str, trace: str, result: str) -> None:
    """Run whole rounds of the workload's operations until ``seconds`` have
    passed.  With trace on, the first round only warms the process up, so
    that first-call costs do not read as tracing overhead; then rounds
    alternate untraced and traced, at least one of each.  The operation kept
    out of the timings is kept out of the trace too."""
    w = workloads.WORKLOADS[name]
    tracer = tracing.Tracer(tracing.RUN_POINTS) if trace == "1" else None
    rounds, spans = [], []
    start = time.perf_counter()
    while True:
        i = len(rounds)
        traced = tracer is not None and i > 0 and i % 2 == 0
        run_dir = Path(work) / f"round{i}" / "run"
        edge_dir = Path(work) / f"round{i}" / "edge"
        records = [_attempt(op, tracer if traced and op.stage else None)
                   for op in workloads.operations(w, Path(inputs), run_dir, edge_dir)]
        if traced:
            spans.append(tracer.take())
        rounds.append({"traced": traced, "warm_up": tracer is not None and i == 0,
                       "run_dir": str(run_dir), "ops": records})
        if time.perf_counter() - start >= float(seconds) and (tracer is None or i >= 2):
            break
    doc = {"rounds": rounds,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer:
        tracing.write_spans(spans, Path(work) / "run_spans.json")
        doc["installed"] = sorted(tracer.installed)
    with open(result, "w", encoding="utf-8") as f:
        json.dump(doc, f)


if __name__ == "__main__":
    ops(*sys.argv[1:])
