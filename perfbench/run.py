"""Stage-and-layer benchmark of the lidar-anchor pipeline.

    python3 perfbench/run.py --workload train-512 --seed 1 --seconds 12 --trace 0

Makes the workload's inputs with ``synth`` (several times, to time set-up),
then calls the ``pipeline.stage_*`` functions in the order ``run_pipeline``
uses, in whole rounds, until ``--seconds`` have passed.  Every stage call is
one operation.  It checks the outputs, and prints as its last line one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train-512", "dense-512", "granule-2048")
# set-up runs at least this many times, and until this much time has passed
SETUP_REPEATS = 3
SETUP_MIN_S = 4.0

# Stage times are per-layer metrics, read from the untraced rounds of a
# traced run: some stages run on one workload only, and the 512 px
# preprocess and evaluate calls are too short to time steadily here.
STAGES = ("preprocess_s", "fit_scale_s", "train_s", "correct_s", "evaluate_s")


def _set_up(make_inputs, inputs: Path, tracer) -> list[float]:
    """Make the inputs, timing each set-up.  Untraced, set up at least
    ``SETUP_REPEATS`` times and until ``SETUP_MIN_S`` have passed; traced,
    once under the tracer."""
    times: list[float] = []
    while not times or (tracer is None and (
            len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_S)):
        shutil.rmtree(inputs, ignore_errors=True)
        if tracer:
            tracer.install()
        try:
            start = time.perf_counter()
            make_inputs()
            times.append(time.perf_counter() - start)
        finally:
            if tracer:
                tracer.uninstall()
    return times


def _round_times(record: dict) -> dict[str, float]:
    """Seconds per stage metric for one round; the operation kept out of
    every timing (stage None) adds to none of them."""
    times: dict[str, float] = {"run_s": 0.0}
    for op in record["ops"]:
        if op["stage"] is not None:
            times[op["stage"]] = times.get(op["stage"], 0.0) + op["seconds"]
            times["run_s"] += op["seconds"]
    return times


def _median_by_key(rows: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def _check(workload, footprint: float, inputs: Path, rounds: list[dict]) -> list[str]:
    problems = []
    digests = [checks.digest_tree(Path(r["run_dir"])) for r in rounds]
    if any(d != digests[0] for d in digests[1:]):
        problems.append("rounds wrote different artifacts (traced or untraced)")
    run_dir = Path(rounds[-1]["run_dir"])
    truth = inputs / "truth"
    try:
        problems += checks.check_preprocess(
            run_dir, truth, heights_exact=workload.tracks.noise_sigma == 0.0)
        if workload.relative:
            problems += checks.check_affine(run_dir, inputs / "pred", footprint)
            problems += checks.check_metrics(run_dir, run_dir / "pred_abs",
                                             "metrics_baseline", truth)
        else:
            problems += checks.check_correction(run_dir, inputs / "pred")
            problems += checks.check_metrics(run_dir, inputs / "pred", "metrics_baseline", truth)
            problems += checks.check_metrics(run_dir, run_dir / "corrected", "metrics", truth)
    except (OSError, KeyError, ValueError) as exc:
        problems.append(f"outputs unreadable: {type(exc).__name__}: {exc}")
    return problems


def run(name: str, seed: int, seconds: int, trace: bool, work: Path) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import lidar_anchor

    if Path(lidar_anchor.__file__).resolve().parent != ROOT / "src" / "lidar_anchor":
        raise ImportError(f"lidar_anchor imported from {lidar_anchor.__file__}")
    import workloads
    import tracing

    w = workloads.WORKLOADS[name]
    inputs = work / "inputs"
    setup_tracer = tracing.Tracer(tracing.SETUP_POINTS) if trace else None
    setup_times = _set_up(lambda: workloads.make_inputs(w, seed, inputs), inputs,
                          setup_tracer)
    print("set-up: " + " ".join(f"{t:.4f}s" for t in setup_times), file=sys.stderr)
    # The operations run in a child process, so that their peak memory
    # excludes set-up.  No time limit: a slow run still reports its figures.
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), name, str(inputs),
                           str(work / "rounds"), str(seconds), "1" if trace else "0",
                           str(work / "ops.json")], cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"operations process exited with code {proc.returncode}")
    ops = json.loads((work / "ops.json").read_text())
    rounds = ops["rounds"]

    for i, r in enumerate(rounds):
        kind = " traced" if r["traced"] else " warm-up" if r["warm_up"] else ""
        print(f"round {i}{kind}: " + " ".join(
            f"{op['name']}={op['seconds']:.4f}s" for op in r["ops"]), file=sys.stderr)
    problems = _check(w, workloads.FOOTPRINT_M, inputs, rounds)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    attempted = sum(len(r["ops"]) for r in rounds)
    failed = sum(op["error"] is not None for r in rounds for op in r["ops"])

    plain = _median_by_key([_round_times(r) for r in rounds
                            if not (r["traced"] or r["warm_up"])])
    final = "metrics_baseline.json" if w.relative else "metrics.json"
    metrics: dict[str, float] = {}
    if not trace:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "run_s": plain["run_s"],
            "peak_rss_mb": ops["peak_rss_mb"],
            "mae_m": json.loads((Path(rounds[-1]["run_dir"]) / final).read_text())["mae"],
        }
    else:
        metrics.update(tracing.layer_metrics(setup_tracer.take(), setup_tracer.installed,
                                             tracing.SETUP_POINTS))
        per_round = [tracing.layer_metrics(spans, ops["installed"], tracing.RUN_POINTS)
                     for spans in tracing.read_spans(work / "rounds" / "run_spans.json")]
        metrics.update(_median_by_key(per_round))
        for stage in STAGES:
            metrics[f"pipeline.{stage}"] = plain.get(stage, 0.0)
        model = Path(rounds[-1]["run_dir"]) / "model.json"
        metrics["forest.model_bytes"] = model.stat().st_size if model.exists() else 0
        traced = _median_by_key([_round_times(r) for r in rounds if r["traced"]])
        metrics["trace.overhead_s"] = traced["run_s"] - plain["run_s"]
        shutil.copyfile(work / "rounds" / "run_spans.json", work.parent / f"trace-{name}.json")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main() -> int:
    # exit through finally: subprocess.run kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "lidar_anchor" / "__init__.py").is_file():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
