"""The benchmark's tracer finds every function it times.

``perfbench/tracing.py`` wraps each traced function in the module its caller
looks it up in, and skips a function it cannot find there, so a function
that is renamed, moved or imported under another name silently drops its
layer, and the benchmark's traced result then lacks metrics that
BENCHMARK.json declares.  These tests resolve every trace point the way
``Tracer.install`` does.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402
import tracing  # noqa: E402
from lidar_anchor import correction, pipeline, scaling, synth  # noqa: E402

from conftest import make_height, make_landcover, make_optical  # noqa: E402

# per-layer metrics that run.py reports itself rather than from trace points
RUN_METRICS = {f"pipeline.{stage}" for stage in run.STAGES} | {
    "forest.model_bytes",
    "trace.overhead_s",
}


def _installed(points) -> set[str]:
    tracer = tracing.Tracer(points)
    tracer.install()
    try:
        return set(tracer.installed)
    finally:
        tracer.uninstall()


@pytest.mark.parametrize("points", ["SETUP_POINTS", "RUN_POINTS"])
def test_every_trace_point_resolves(points):
    missing = []
    for layer, module, path, _, _ in getattr(tracing, points):
        *outer, attr = path.split(".")
        owner = module
        for part in outer:
            owner = getattr(owner, part, None)
        if owner is None or not callable(vars(owner).get(attr)):
            missing.append(f"{layer}: {module.__name__}.{path}")
    assert missing == []


def test_installed_layers_cover_benchmark_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    per_layer = {m["name"] for m in spec["per_layer"]}
    produced = set()
    for points in (tracing.SETUP_POINTS, tracing.RUN_POINTS):
        produced |= set(tracing.layer_metrics([], _installed(points), points))
    assert sorted(per_layer - RUN_METRICS - produced) == []
    assert produced <= per_layer


def test_footprint_mean_is_one_call_per_stage_call():
    n = 64
    rng = np.random.default_rng(3)
    pred = make_height(rng.uniform(0.0, 1.0, (n, n)))
    optical = make_optical(rng.integers(0, 256, (n, n, 3), dtype=np.uint8))
    lc = make_landcover(rng.integers(0, 8, (n, n), dtype=np.uint8))
    clean = np.zeros(20, dtype=[("x", "<f8"), ("y", "<f8"), ("h_ag", "<f8")])
    clean["x"] = np.linspace(5.0, 59.0, 20)
    clean["y"] = np.linspace(8.0, 56.0, 20)
    clean["h_ag"] = rng.uniform(0.0, 10.0, 20)

    tracer = tracing.Tracer(tracing.RUN_POINTS)
    tracer.install()
    try:
        scaling.fit_affine(pred, clean, footprint=3.0)
        correction.build_training_set(pred, optical, lc, clean, patch=16, footprint=3.0)
    finally:
        tracer.uninstall()
    counts = tracing.layer_metrics(tracer.take(), tracer.installed, tracing.RUN_POINTS)
    assert counts["raster.footprint_mean_calls"] == 2
    assert counts["scaling.fit_points"] == 20
    assert counts["correction.training_samples"] == 20


def test_hrf_calls_count_training_rows():
    # one hrf_features call per chunk of windows: the rows build_training_set
    # returns, in chunks of _FEATURE_CHUNK_PIXELS; 11 rows are one chunk at
    # patch 16 (128 windows a chunk) and two at patch 64 (8 windows a chunk)
    n = 48
    rng = np.random.default_rng(4)
    pred = make_height(rng.uniform(0.0, 1.0, (n, n)))
    optical = make_optical(rng.integers(0, 256, (n, n, 3), dtype=np.uint8))
    lc = make_landcover(rng.integers(0, 8, (n, n), dtype=np.uint8))
    clean = np.zeros(12, dtype=[("x", "<f8"), ("y", "<f8"), ("h_ag", "<f8")])
    # the last photon lies past the raster and is skipped
    clean["x"] = np.append(np.linspace(1.0, 47.0, 11), 60.0)
    clean["y"] = np.append(np.linspace(46.0, 2.0, 11), 20.0)

    for patch, chunks in ((16, 1), (64, 2)):
        tracer = tracing.Tracer(tracing.RUN_POINTS)
        tracer.install()
        try:
            X, _, skipped = correction.build_training_set(pred, optical, lc, clean, patch=patch)
        finally:
            tracer.uninstall()
        counts = tracing.layer_metrics(tracer.take(), tracer.installed, tracing.RUN_POINTS)
        assert skipped["outside_raster"] == 1
        assert len(X) == 11
        per_chunk = correction._FEATURE_CHUNK_PIXELS // patch**2
        assert counts["features.hrf_calls"] == -(-len(X) // per_chunk) == chunks


def test_photon_layers_count_what_the_preprocess_report_counts(tmp_path):
    scene, run_dir = tmp_path / "scene", tmp_path / "run"
    pipeline.run_synth(synth.SceneConfig(size=128, seed=3), synth.TrackConfig(n_tracks=4, seed=3),
                       synth.CorruptionConfig(alpha=0.05, beta=2.0), scene)
    cfg = pipeline.PipelineConfig(
        mode="relative", pred=str(scene / "pred"), landcover=str(scene / "landcover"),
        dtm=str(scene / "dtm"), photons=str(scene / "photons.csv"), out=str(run_dir),
        footprint=1.0,
    )
    run_dir.mkdir()

    tracer = tracing.Tracer(tracing.RUN_POINTS)
    tracer.install()
    try:
        pipeline.stage_preprocess(cfg, run_dir)
        pipeline.stage_fit_scale(cfg, run_dir)
    finally:
        tracer.uninstall()
    spans = tracer.take()
    counts = tracing.layer_metrics(spans, tracer.installed, tracing.RUN_POINTS)
    report = json.loads((run_dir / "preprocess_report.json").read_text(encoding="utf-8"))
    assert counts["photons.loaded"] == report["counts"]["loaded"] > 0
    assert counts["photons.clean"] == report["counts"]["clean"] > 0
    clustering = report["clustering"]
    assert counts["photons.dbscan_points"] == clustering["clustered"] + clustering["noise"]
    assert counts["photons.dbscan_clusters"] == clustering["clusters"]

    photon_layers = {layer for layer, *_ in tracing.RUN_POINTS if layer.startswith("photons.")}
    assert "photons.read_clean_csv" in photon_layers
    assert sorted(photon_layers - {s.layer for s in spans}) == []
