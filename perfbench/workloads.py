"""The benchmark's workloads: how their inputs are made and which stage
calls a round of each workload makes.

Every workload is one scene recipe plus one pipeline configuration.  The
scene and the corrupted prediction are fixed per workload; ``--seed`` is the
photon-track seed, so each seed gives other photon draws over the same
scene.  The corruption stays fixed: its seed alone moved the 100-tree
forest from about 43,000 to 82,000 nodes, and with it the train stage by
half, which would make the spread across seeds a property of the seeds.
Seed 42 on the 512 px workloads is the README quick-start scene.

The granule workload keeps one operation that fails on purpose: photon
cleaning of a whole granule against the north-west quarter of its terrain
and land-cover tiles.  Its photons are always drawn with the fixed seed
``EDGE_TRACK_SEED``, so that operation sees the same inputs on every seed.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from lidar_anchor import photons, pipeline, synth
from lidar_anchor.raster import HeightRaster, LandCoverRaster, save_raster

EDGE_TRACK_SEED = 42
PIPELINE_SEED = 42  # forest seed; a program setting, not an input
FOOTPRINT_M = 1.0  # one pixel: synthetic photons sample a single pixel


@dataclass(frozen=True)
class Workload:
    name: str
    scene: synth.SceneConfig
    tracks: synth.TrackConfig
    corruption: synth.CorruptionConfig
    config: dict = field(default_factory=dict)
    edge_case: bool = False  # granule only: add the edge-tile preprocess

    @property
    def relative(self) -> bool:
        return self.config.get("mode") == "relative"


_QUICKSTART_BIAS = synth.CorruptionConfig(
    class_bias={4: 5.0, 7: -4.0}, noise_sigma=1.0, noise_corr=30.0, seed=42
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="train-512",
            scene=synth.SceneConfig(size=512, seed=42),
            tracks=synth.TrackConfig(n_tracks=6),
            corruption=_QUICKSTART_BIAS,
            config=dict(mode="metric", trees=100, patch=64, stride=None, threads=2),
        ),
        Workload(
            name="dense-512",
            scene=synth.SceneConfig(size=512, seed=42),
            tracks=synth.TrackConfig(n_tracks=6),
            corruption=_QUICKSTART_BIAS,
            config=dict(mode="metric", trees=20, patch=64, stride=8, threads=1),
        ),
        Workload(
            name="granule-2048",
            scene=synth.SceneConfig(size=2048, seed=42),
            tracks=synth.TrackConfig(
                n_tracks=24, cross_spacing=40.0, along_spacing=0.2, noise_sigma=0.0
            ),
            corruption=synth.CorruptionConfig(alpha=0.05, beta=2.0),
            config=dict(mode="relative", threads=1),
            edge_case=True,
        ),
    )
}


def make_inputs(w: Workload, seed: int, out: Path) -> None:
    """Generate and write every input file of one workload."""
    out.mkdir(parents=True, exist_ok=True)
    truth, optical, lc, dtm = synth.generate_scene(w.scene)
    tracks = synth.simulate_tracks(truth, dtm, lc, dataclasses.replace(w.tracks, seed=seed))
    pred = synth.corrupt_prediction(truth, lc, w.corruption)
    for name, raster in (("truth", truth), ("optical", optical), ("landcover", lc),
                         ("dtm", dtm), ("pred", pred)):
        save_raster(raster, out / name)
    photons.write_photons_csv(tracks, out / "photons.csv")
    if w.edge_case:
        edge = synth.simulate_tracks(
            truth, dtm, lc, dataclasses.replace(w.tracks, seed=EDGE_TRACK_SEED)
        )
        photons.write_photons_csv(edge, out / "edge_photons.csv")
        half = w.scene.size // 2
        nw = dataclasses.replace(dtm.header, width=half, height=half)
        save_raster(HeightRaster(nw, dtm.values[:half, :half]), out / "edge_dtm")
        nw_lc = dataclasses.replace(lc.header, width=half, height=half)
        save_raster(LandCoverRaster(nw_lc, lc.values[:half, :half]), out / "edge_landcover")


def pipeline_config(w: Workload, inputs: Path, run_dir: Path) -> pipeline.PipelineConfig:
    return pipeline.PipelineConfig(
        features="hrf",
        pred=str(inputs / "pred"),
        optical=str(inputs / "optical"),
        landcover=str(inputs / "landcover"),
        dtm=str(inputs / "dtm"),
        photons=str(inputs / "photons.csv"),
        reference=str(inputs / "truth"),
        out=str(run_dir),
        seed=PIPELINE_SEED,
        footprint=FOOTPRINT_M,
        **w.config,
    )


@dataclass(frozen=True)
class Operation:
    """One stage call.  ``stage`` names the stage time it adds to, as does
    ``run_s``; ``None`` keeps it out of every timing."""

    name: str
    stage: str | None
    call: Callable[[], object]


def operations(w: Workload, inputs: Path, run_dir: Path, edge_dir: Path) -> list[Operation]:
    """The stage calls of one round, in the order ``run_pipeline`` makes them."""
    cfg = pipeline_config(w, inputs, run_dir)
    ops = [Operation("preprocess", "preprocess_s",
                     lambda: pipeline.stage_preprocess(cfg, run_dir))]
    if w.relative:
        pred_path = run_dir / "pred_abs"
        ops.append(Operation("fit-scale", "fit_scale_s",
                             lambda: pipeline.stage_fit_scale(cfg, run_dir)))
        ops.append(Operation("evaluate-calibrated", "evaluate_s",
                             lambda: pipeline.stage_evaluate(
                                 cfg, pred_path, run_dir, "metrics_baseline")))
    else:
        pred_path = Path(cfg.pred)
        ops += [
            Operation("train", "train_s",
                      lambda: pipeline.stage_train(cfg, pred_path, run_dir)),
            Operation("correct", "correct_s",
                      lambda: pipeline.stage_correct(cfg, pred_path, run_dir)),
            Operation("evaluate-baseline", "evaluate_s",
                      lambda: pipeline.stage_evaluate(
                          cfg, pred_path, run_dir, "metrics_baseline")),
            Operation("evaluate-corrected", "evaluate_s",
                      lambda: pipeline.stage_evaluate(
                          cfg, run_dir / "corrected", run_dir, "metrics")),
        ]
    if w.edge_case:
        edge_cfg = dataclasses.replace(
            cfg,
            photons=str(inputs / "edge_photons.csv"),
            dtm=str(inputs / "edge_dtm"),
            landcover=str(inputs / "edge_landcover"),
            out=str(edge_dir),
        )
        ops.append(Operation("preprocess-edge-tile", None,
                             lambda: pipeline.stage_preprocess(edge_cfg, edge_dir)))
    return ops
