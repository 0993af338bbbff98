import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lidar_anchor import forest, photons, pipeline
from lidar_anchor.features import HRF_DIM, SCHEMA_HRF
from lidar_anchor.raster import LC_BUILDING, save_raster
from lidar_anchor.synth import CorruptionConfig, SceneConfig, TrackConfig

from conftest import make_height, make_landcover, make_optical, photon_table
from oracles import window_origins_direct


def _pinned_run(tmp_path, corruption, mode, names):
    """SHA-256 of the named artifacts of a small hrf run on a 256 px scene."""
    scene = tmp_path / "scene"
    pipeline.run_synth(SceneConfig(size=256, seed=42), TrackConfig(seed=42), corruption, scene)
    run = tmp_path / "run"
    pipeline.run_pipeline(pipeline.PipelineConfig(
        mode=mode, features="hrf",
        pred=str(scene / "pred"), optical=str(scene / "optical"),
        landcover=str(scene / "landcover"), dtm=str(scene / "dtm"),
        photons=str(scene / "photons.csv"), reference=str(scene / "truth"),
        out=str(run), trees=10, stride=16, seed=42,
    ))
    return {name: hashlib.sha256((run / name).read_bytes()).hexdigest() for name in names}


def test_run_artifacts_are_pinned(tmp_path):
    # SHA-256 of small hrf runs' artifacts, as the pipeline has always made
    # them: a metric-mode run, and the same scene as relative depth
    # (0.05 * height + 2), where photon cleaning, the affine fit and its
    # calibrated raster feed the rest of the run; metrics.json moved at the
    # last bits of ssim when SSIM became separable, and the relative run's
    # at the last bit of rmse when scoring went strip by strip; model.json
    # moved when it became JSON lines (format version 2), with the same trees;
    # the forest and all that follows it moved with format version 3, whose
    # trees draw their feature subsets in breadth-first order, and
    # train_report.json also gained the skip reasons and the forest's shape;
    # model.json moved alone with format version 4 (base64 node arrays, no
    # stored child links), with the same trees
    metric = {
        "model.json":
            "b96b22df8c1fe2ea21d25a35a17da3d46ed415fd8a5468793dab3f0bc33dd85c",
        "importance.csv":
            "e893becab092eda35d32a794e73218121b7f26b823af762e1d853abd466d568f",
        "train_report.json":
            "7b4a8a8d6c18e5d27b52aae94d9122473acc7dddad9b8ae33e4de3cb8cd084a5",
        "residual.bin":
            "698387067bfb6523e1efcd4e838ee2fbb6d5cec6e112d82cc5d4eaf8a9ac7741",
        "corrected.bin":
            "61e36c67c8e4c51b2ee31105377735bc2d360e0152fb4b0aa998fe3b65a6b757",
        "clean_photons.csv":
            "fb0a7e4b70d93b06b2f7b8d5e4cbe679b41e0a95542365008a2243e096a5f2cb",
        "metrics.json":
            "b5b5bf6fceca90f6003634325379a48c13858eb585ed70443f20e2b5399882bc",
    }
    relative = {
        "affine.json":
            "ae1bfc66d720c67c0de29de56c49edb0a1616dade4a23ea5e32c2cc16814b453",
        "pred_abs.bin":
            "a2d4fd713f431ef49c3a02a8789bdc8018709cbd614556761c206f709e522347",
        "clean_photons.csv":
            "fb0a7e4b70d93b06b2f7b8d5e4cbe679b41e0a95542365008a2243e096a5f2cb",
        "corrected.bin":
            "ee236ba0a3ef915047a9e50d6b1fd82080fd9e3c37c224ede1f7719a6a32ede9",
        "metrics.json":
            "50c7563f7197c9bb7222debce2ca36755ac2f7c06cf6f1a6e601272fac35e311",
    }
    runs = [
        ("metric", CorruptionConfig(class_bias={4: 5.0, 7: -4.0}, noise_sigma=1.0, seed=42),
         metric),
        ("relative", CorruptionConfig(alpha=0.05, beta=2.0, noise_sigma=0.02, seed=42),
         relative),
    ]
    for mode, corruption, want in runs:
        assert _pinned_run(tmp_path / mode, corruption, mode, want) == want


def test_dense_clean_photons_are_pinned(tmp_path):
    # SHA-256 of clean_photons.csv from noise-free tracks at 0.2 m spacing:
    # dense enough that IDW ground truncates at k_max neighbours and object
    # photons form multi-member clusters
    scene = tmp_path / "scene"
    pipeline.run_synth(SceneConfig(size=512, seed=42),
                       TrackConfig(along_spacing=0.2, noise_sigma=0.0), None, scene)
    run = tmp_path / "run"
    report = pipeline.stage_preprocess(pipeline.PipelineConfig(
        landcover=str(scene / "landcover"), dtm=str(scene / "dtm"),
        photons=str(scene / "photons.csv"), out=str(run)), run)
    counts, clustering = report["counts"], report["clustering"]
    assert counts["clean"] < counts["landcover"]
    # every object photon has one ground source; the clustering splits the
    # object photons that passed the land-cover filter, and clusters thin
    # to at most one clean photon each
    assert set(report["ground_sources"]) == {"idw", "dtm_fallback", "dtm_override", "none"}
    assert sum(report["ground_sources"].values()) >= clustering["clustered"] + clustering["noise"]
    assert clustering["clustered"] > clustering["clusters"] > 0
    assert json.loads((run / "preprocess_report.json").read_text()) == report
    digest = hashlib.sha256((run / "clean_photons.csv").read_bytes()).hexdigest()
    assert digest == "a20ec07a1e9c38c97641ea5fe09f980ba51edac3ee6371481254ddc1ba9669c1"


def test_photons_with_no_ground_source_are_dropped_and_counted(tmp_path):
    # a 20 x 20 DTM with a 4 x 4 NaN patch under building land cover, and
    # ten top-of-canopy photons with no ground photon: IDW has no answer,
    # the DTM answers for the four off the patch, and the six over it have
    # no ground source and leave the run, which goes on without them
    dtm = np.full((20, 20), 50.0)
    dtm[8:12, 8:12] = np.nan
    save_raster(make_height(dtm), tmp_path / "dtm")
    save_raster(make_landcover(np.full((20, 20), LC_BUILDING)), tmp_path / "landcover")
    over = [(9.0 + 0.4 * i, 11.0) for i in range(6)]
    off = [(3.0 + i, 3.0) for i in range(4)]
    photons.write_photons_csv(photon_table([
        (i, x, y, 60.0, 4, photons.CLASS_TOP_OF_CANOPY, 0, 0.0)
        for i, (x, y) in enumerate(over + off)
    ]), tmp_path / "photons.csv")
    run = tmp_path / "run"
    report = pipeline.stage_preprocess(pipeline.PipelineConfig(
        landcover=str(tmp_path / "landcover"), dtm=str(tmp_path / "dtm"),
        photons=str(tmp_path / "photons.csv"), out=str(run)), run)
    assert report["ground_sources"] == {"idw": 0, "dtm_fallback": 4, "dtm_override": 0, "none": 6}
    assert report["counts"]["normalized"] == 4
    assert json.loads((run / "preprocess_report.json").read_text()) == report
    clean = photons.read_clean_csv(run / "clean_photons.csv")
    assert clean.tolist() == [(4.5, 3.0, 10.0, "object", LC_BUILDING, 4)]


def test_evaluate_writes_null_ssim_when_undefined(tmp_path):
    # an 8 px pair is smaller than the SSIM window: the stage still scores
    # it and reports ssim as null
    rng = np.random.default_rng(14)
    truth = np.abs(rng.normal(4.0, 3.0, (8, 8)))
    save_raster(make_height(truth), tmp_path / "truth")
    save_raster(make_height(truth + 0.5), tmp_path / "pred")
    cfg = pipeline.PipelineConfig(reference=str(tmp_path / "truth"), out=str(tmp_path))
    pipeline.stage_evaluate(cfg, tmp_path / "pred", tmp_path, "metrics")
    doc = json.loads((tmp_path / "metrics.json").read_text())
    assert doc["ssim"] is None and doc["flags"] == ["ssim_undefined"]
    assert doc["n_valid"] == 64 and abs(doc["mae"] - 0.5) < 1e-6


def test_evaluate_writes_nothing_when_landcover_is_off_grid(tmp_path):
    # the land-cover raster is checked before metrics.json is written, so
    # a failing stage leaves neither metrics.json nor metrics_per_class.csv
    rng = np.random.default_rng(15)
    truth = np.abs(rng.normal(4.0, 3.0, (16, 16)))
    save_raster(make_height(truth), tmp_path / "truth")
    save_raster(make_height(truth + 0.5), tmp_path / "pred")
    save_raster(make_landcover(np.zeros((8, 8))), tmp_path / "landcover")
    out = tmp_path / "out"
    out.mkdir()
    cfg = pipeline.PipelineConfig(reference=str(tmp_path / "truth"),
                                  landcover=str(tmp_path / "landcover"), out=str(out))
    with pytest.raises(ValueError, match="land-cover raster is on a different grid"):
        pipeline.stage_evaluate(cfg, tmp_path / "pred", out, "metrics")
    assert sorted(out.iterdir()) == []


def test_config_rejects_bad_window_forest_and_footprint_values(tmp_path):
    # each would otherwise pass preprocess and fit-scale, write their
    # artifacts, and fail only in train or correct, or with a TypeError
    for key, value in (("patch", 0), ("stride", 0), ("stride", -8), ("trees", 0),
                       ("footprint", 0.0), ("footprint", -17.0), ("footprint", float("nan")),
                       ("seed", 1.5), ("seed", "x"), ("trees", 2.5), ("patch", True),
                       ("patch", "16"), ("stride", 8.0), ("threads", True),
                       ("footprint", float("inf")), ("footprint", True), ("footprint", "17")):
        with pytest.raises(ValueError, match=key):
            pipeline.PipelineConfig(**{key: value})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({key: value}))
        with pytest.raises(ValueError, match=key):
            pipeline.load_config(path)
    pipeline.PipelineConfig(patch=1, stride=1, trees=1, footprint=0.5)


def test_config_rejects_stride_above_patch(tmp_path):
    # such windows leave pixels between them uncovered, which the correct
    # stage would find only after training
    with pytest.raises(ValueError, match=r"stride must be <= patch \(8\), got 20"):
        pipeline.PipelineConfig(patch=8, stride=20)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"patch": 8, "stride": 20}))
    with pytest.raises(ValueError, match="stride"):
        pipeline.load_config(path)
    pipeline.PipelineConfig(patch=8, stride=8)


def test_correct_report_counts_coverage(tmp_path):
    # nodata stripes of rows and columns wide enough to leave whole windows
    # without a valid pixel, and one NaN pixel: the report's counts equal a
    # direct count over the window grid
    rng = np.random.default_rng(26)
    n, patch, stride = 90, 16, 8
    values = rng.uniform(0.0, 20.0, (n, n))
    values[20:60] = -9999.0
    values[:, 60:] = -9999.0
    values[5, 5] = np.nan
    save_raster(make_height(values, nodata=-9999.0), tmp_path / "pred")
    save_raster(make_optical(rng.integers(0, 256, (n, n, 3), dtype=np.uint8)), tmp_path / "optical")
    save_raster(make_landcover(rng.integers(0, 8, (n, n), dtype=np.uint8)), tmp_path / "landcover")
    X = rng.normal(10.0, 1.0, (40, HRF_DIM))
    model = forest.train_forest(X, X[:, 0] - 10.0, SCHEMA_HRF, forest.ForestParams(n_trees=1))
    forest.save_model(model, tmp_path / "model.json")
    cfg = pipeline.PipelineConfig(features="hrf", optical=str(tmp_path / "optical"),
                                  landcover=str(tmp_path / "landcover"), out=str(tmp_path),
                                  patch=patch, stride=stride)
    report = pipeline.stage_correct(cfg, tmp_path / "pred", tmp_path)

    valid = np.isfinite(values) & (values != -9999.0)
    covered = np.zeros((n, n), dtype=bool)
    scored = dropped = 0
    for r0 in window_origins_direct(n, patch, stride):
        for c0 in window_origins_direct(n, patch, stride):
            if valid[r0 : r0 + patch, c0 : c0 + patch].any():
                scored += 1
                covered[r0 : r0 + patch, c0 : c0 + patch] = True
            else:
                dropped += 1
    uncovered = int(np.count_nonzero(~covered))
    assert dropped > 0 and uncovered > 0 and not (valid & ~covered).any()
    assert report == {"windows_scored": scored, "windows_dropped": dropped,
                      "pixels_uncovered": uncovered}
    assert json.loads((tmp_path / "correct_report.json").read_text()) == report


def _leaves_scipy_out(tmp_path, code):
    """Run ``code`` in a fresh interpreter on this package and assert that
    no scipy module was imported by the end of it."""
    src = Path(pipeline.__file__).resolve().parents[1]
    check = code + (
        "\nimport sys\n"
        "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "assert not loaded, loaded\n"
    )
    proc = subprocess.run([sys.executable, "-c", check], cwd=tmp_path, capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0, proc.stderr


class TestWithoutScipy:
    """The stages run on numpy alone; only synth's correlated noise loads
    scipy."""

    def test_cli_import(self, tmp_path):
        _leaves_scipy_out(tmp_path, "import lidar_anchor.cli")

    @pytest.mark.parametrize("mode, corruption", [
        ("metric", CorruptionConfig(class_bias={4: 5.0, 7: -4.0})),
        ("relative", CorruptionConfig(alpha=0.05, beta=2.0)),
    ])
    def test_pipeline_run(self, tmp_path, mode, corruption):
        # a noise-free scene, so that making it loads no scipy either
        scene = tmp_path / "scene"
        pipeline.run_synth(SceneConfig(size=128, seed=7), TrackConfig(seed=7), corruption, scene)
        inputs = {name: str(scene / name)
                  for name in ("pred", "optical", "landcover", "dtm", "truth")}
        _leaves_scipy_out(tmp_path, (
            "from lidar_anchor import pipeline\n"
            "pipeline.run_pipeline(pipeline.PipelineConfig(\n"
            f"    mode={mode!r}, pred={inputs['pred']!r}, optical={inputs['optical']!r},\n"
            f"    landcover={inputs['landcover']!r}, dtm={inputs['dtm']!r},\n"
            f"    photons={str(scene / 'photons.csv')!r}, reference={inputs['truth']!r},\n"
            f"    out={str(tmp_path / 'run')!r}, trees=3, patch=32))\n"
        ))
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        # every stage ran, SSIM included
        assert summary["affine"] is None if mode == "metric" else summary["affine"]
        assert summary["corrected_metrics"]["ssim"] is not None
