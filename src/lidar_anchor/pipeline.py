"""End-to-end orchestration: configuration, stages, and the full pipeline.

Each stage reads and writes files, so any stage can be re-run by hand from
the artifacts of the previous one, and a pipeline run is just the stages in
order.  All reports are JSON with sorted keys; identical configuration and
seed produce byte-identical outputs.  ``threads`` caps the worker processes
that grow the forest's trees; no output depends on it.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

import numpy as np

from . import correction, forest, metrics, photons, scaling, synth
from .features import SCHEMA_HRF, SCHEMA_NRF, feature_groups, feature_names
from .photons import ClusterParams, PreprocessParams
from .raster import (
    EmbeddingGrid,
    HeightRaster,
    LC_BUILDING,
    LC_TREE,
    LandCoverRaster,
    OpticalRaster,
    Raster,
    load_raster,
    save_raster,
)

logger = logging.getLogger(__name__)

MODE_METRIC = "metric_height"
MODE_RELATIVE = "relative_depth"
_MODE_ALIASES = {
    "metric": MODE_METRIC,
    "relative": MODE_RELATIVE,
    MODE_METRIC: MODE_METRIC,
    MODE_RELATIVE: MODE_RELATIVE,
}
_FEATURE_ALIASES = {"hrf": SCHEMA_HRF, "nrf": SCHEMA_NRF, SCHEMA_HRF: SCHEMA_HRF, SCHEMA_NRF: SCHEMA_NRF}


class PipelineError(RuntimeError):
    """A stage failed; the message names the stage."""


@dataclass
class PipelineConfig:
    """Every tunable of the correction pipeline, with documented defaults.

    Resolution order for values: command-line flags beat the config file,
    which beats these defaults.
    """

    mode: str = MODE_METRIC
    features: str = "hrf"
    pred: Optional[str] = None
    optical: Optional[str] = None
    landcover: Optional[str] = None
    dtm: Optional[str] = None
    photons: Optional[str] = None
    reference: Optional[str] = None
    embeddings: Optional[str] = None
    out: str = "out"
    seed: int = 42
    threads: int = 1
    patch: int = 64
    stride: Optional[int] = None
    trees: int = 100
    max_depth: Optional[int] = None
    min_samples_leaf: int = 2
    max_features: Optional[int] = None
    footprint: float = 17.0
    idw_power: float = 2.0
    idw_radius: float = 100.0
    idw_k_max: int = 16
    dtm_tau: float = 10.0
    tree_bounds: tuple[float, float] = (1.0, 90.0)
    building_bounds: tuple[float, float] = (1.0, 300.0)
    cluster_eps: float = 3.0
    cluster_min_pts: int = 3
    cluster_height_weight: float = 1.0
    cell: float = 10.0
    f1_threshold: float = 1.0
    f1_eta: float = 1.25
    huber: bool = False

    def __post_init__(self) -> None:
        if self.mode not in _MODE_ALIASES:
            raise ValueError(
                f"unknown mode {self.mode!r}, expected one of {sorted(set(_MODE_ALIASES))}"
            )
        self.mode = _MODE_ALIASES[self.mode]
        if self.features not in _FEATURE_ALIASES:
            raise ValueError(f"unknown feature mode {self.features!r}, expected hrf or nrf")
        self.features = _FEATURE_ALIASES[self.features]
        if self.seed is None:
            raise ValueError("a seed is required; every randomized stage records it")
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")
        if isinstance(self.tree_bounds, list):
            self.tree_bounds = tuple(self.tree_bounds)
        if isinstance(self.building_bounds, list):
            self.building_bounds = tuple(self.building_bounds)

    def preprocess_params(self) -> PreprocessParams:
        return PreprocessParams(
            idw_power=self.idw_power,
            idw_radius=self.idw_radius,
            idw_k_max=self.idw_k_max,
            dtm_tau=self.dtm_tau,
            class_bounds={
                LC_TREE: tuple(self.tree_bounds),
                LC_BUILDING: tuple(self.building_bounds),
            },
            cluster=ClusterParams(
                eps=self.cluster_eps,
                min_pts=self.cluster_min_pts,
                height_weight=self.cluster_height_weight,
            ),
            cell=self.cell,
        )

    def forest_params(self) -> forest.ForestParams:
        return forest.ForestParams(
            n_trees=self.trees,
            max_depth=self.max_depth,
            min_samples_leaf=self.min_samples_leaf,
            max_features=self.max_features,
            seed=self.seed,
        )


def load_config(path: Path | str) -> PipelineConfig:
    """Read a JSON config file into a PipelineConfig."""
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    return config_from_dict(doc, source=str(path))


def config_from_dict(doc: dict, source: str = "config") -> PipelineConfig:
    known = {f.name for f in dataclasses.fields(PipelineConfig)}
    extra = set(doc) - known
    if extra:
        raise ValueError(f"{source}: unknown config keys {sorted(extra)}")
    return PipelineConfig(**doc)


def merge_overrides(cfg: PipelineConfig, overrides: dict[str, Any]) -> PipelineConfig:
    """Apply non-None override values on top of a config."""
    merged = dataclasses.asdict(cfg)
    for key, value in overrides.items():
        if value is None:
            continue
        if key not in merged:
            raise ValueError(f"unknown config override {key!r}")
        merged[key] = value
    return PipelineConfig(**merged)


def _require(cfg: PipelineConfig, *names: str) -> None:
    missing = [n for n in names if getattr(cfg, n) is None]
    if missing:
        raise ValueError(
            f"mode {cfg.mode!r} with {cfg.features!r} features requires: {', '.join(missing)}"
        )


def validate_inputs(cfg: PipelineConfig) -> None:
    """Check that every input the configured run needs is present.

    Runs before any compute so misconfiguration fails fast; in particular,
    relative-depth mode insists on a DTM and photons for calibration.
    """
    _require(cfg, "pred", "photons", "dtm", "landcover")
    if cfg.features == SCHEMA_HRF:
        _require(cfg, "optical")
    else:
        _require(cfg, "embeddings")


def _write_json(doc: dict, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def _metrics_doc(report: metrics.MetricsReport, seed: int) -> dict:
    return {
        "mae": report.mae,
        "rmse": report.rmse,
        "ssim": report.ssim,
        "precision": report.precision,
        "recall": report.recall,
        "f1_he": report.f1_he,
        "n_valid": report.n_valid,
        "params": report.params,
        "flags": list(report.flags),
        "seed": seed,
    }


# ===== Stages =====


def stage_preprocess(cfg: PipelineConfig, out_dir: Path) -> dict:
    """Photon cleaning: raw CSV -> clean_photons.csv + preprocess_report.json."""
    raw = photons.load_photons(cfg.photons)
    dtm = _load(cfg.dtm, HeightRaster, "dtm")
    lc = _load(cfg.landcover, LandCoverRaster, "land-cover")
    clean, counts = photons.preprocess_photons(raw, dtm, lc, cfg.preprocess_params())
    if not clean:
        raise ValueError("preprocessing removed every photon")
    photons.write_clean_csv(clean, out_dir / "clean_photons.csv")
    report = {"counts": counts, "seed": cfg.seed}
    _write_json(report, out_dir / "preprocess_report.json")
    return report


def stage_fit_scale(cfg: PipelineConfig, out_dir: Path) -> scaling.AffineFit:
    """Affine calibration of a relative depth raster against clean photons.

    Writes affine.json and the calibrated raster pred_abs.bin/.json.
    """
    depth = _load(cfg.pred, HeightRaster, "pred")
    clean = photons.read_clean_csv(out_dir / "clean_photons.csv")
    fit = scaling.fit_affine(depth, clean, footprint=cfg.footprint, huber=cfg.huber)
    _write_json(
        {"a": fit.a, "b": fit.b, "n_points": fit.n_points, "rmse": fit.rmse, "seed": cfg.seed},
        out_dir / "affine.json",
    )
    calibrated = scaling.apply_affine(depth, fit)
    save_raster(calibrated, out_dir / "pred_abs")
    return fit


def stage_train(cfg: PipelineConfig, pred_path: Path | str, out_dir: Path) -> dict:
    """Residual training: clean photons + rasters -> model.json + report."""
    pred = _load(pred_path, HeightRaster, "pred")
    optical, lc, embeddings = _feature_inputs(cfg)
    clean = photons.read_clean_csv(out_dir / "clean_photons.csv")

    X, y, skipped = correction.build_training_set(
        pred,
        optical,
        lc,
        clean,
        patch=cfg.patch,
        footprint=cfg.footprint,
        feature_mode=cfg.features,
        embeddings=embeddings,
    )
    model = forest.train_forest(X, y, cfg.features, cfg.forest_params(), threads=cfg.threads)
    forest.save_model(model, out_dir / "model.json")

    importance = forest.feature_importance(model)
    names = feature_names(model.schema_id, model.n_features)
    groups = feature_groups(model.schema_id, model.n_features)
    with open(out_dir / "importance.csv", "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["feature", "weight", "group"])
        for name, weight, group in zip(names, importance, groups):
            writer.writerow([name, repr(float(weight)), group])

    report = {
        "n_samples": len(y),
        "skipped": skipped,
        "oob_mae": model.oob_mae,
        "seed": cfg.seed,
    }
    _write_json(report, out_dir / "train_report.json")
    return report


def stage_correct(cfg: PipelineConfig, pred_path: Path | str, out_dir: Path) -> None:
    """Apply a trained model: corrected.bin/.json + residual.bin/.json."""
    pred = _load(pred_path, HeightRaster, "pred")
    optical, lc, embeddings = _feature_inputs(cfg)
    model = forest.load_model(out_dir / "model.json")

    field = correction.infer_residual_field(
        pred,
        optical,
        lc,
        model,
        patch=cfg.patch,
        stride=cfg.stride,
        feature_mode=cfg.features,
        embeddings=embeddings,
    )
    corrected = correction.apply_correction(pred, field)
    save_raster(field.values, out_dir / "residual")
    save_raster(corrected, out_dir / "corrected")


def stage_evaluate(
    cfg: PipelineConfig,
    eval_path: Path | str,
    out_dir: Path,
    name: str = "metrics",
) -> metrics.MetricsReport:
    """Compare a height raster against the reference; writes <name>.json."""
    pred = _load(eval_path, HeightRaster, "raster under evaluation")
    ref = _load(cfg.reference, HeightRaster, "reference")
    report = metrics.evaluate(pred, ref, threshold=cfg.f1_threshold, eta=cfg.f1_eta)
    _write_json(_metrics_doc(report, cfg.seed), out_dir / f"{name}.json")

    if cfg.landcover is not None:
        lc = _load(cfg.landcover, LandCoverRaster, "land-cover")
        rows = metrics.per_class_breakdown(pred, ref, lc)
        with open(out_dir / f"{name}_per_class.csv", "w", encoding="utf-8", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["class_code", "class_name", "n_pixels", "mae", "rmse", "bias"])
            for row in rows:
                writer.writerow(
                    [
                        row["class_code"],
                        row["class_name"],
                        row["n_pixels"],
                        repr(row["mae"]),
                        repr(row["rmse"]),
                        repr(row["bias"]),
                    ]
                )
    return report


def run_pipeline(cfg: PipelineConfig) -> dict:
    """Run preprocess -> (fit-scale) -> train -> correct -> (evaluate).

    Persists every stage's outputs under cfg.out and returns the summary
    that is also written to summary.json.
    """
    validate_inputs(cfg)
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    # thread count is deliberately not recorded: outputs do not depend on it
    summary: dict[str, Any] = {
        "mode": cfg.mode,
        "features": cfg.features,
        "seed": cfg.seed,
    }

    def run_stage(name: str, fn, *args):
        try:
            return fn(*args)
        except Exception as exc:
            raise PipelineError(f"stage '{name}' failed: {exc}") from exc

    summary["preprocess"] = run_stage("preprocess", stage_preprocess, cfg, out_dir)["counts"]

    if cfg.mode == MODE_RELATIVE:
        fit = run_stage("fit-scale", stage_fit_scale, cfg, out_dir)
        summary["affine"] = {
            "a": fit.a,
            "b": fit.b,
            "n_points": fit.n_points,
            "rmse": fit.rmse,
        }
        pred_path = out_dir / "pred_abs"
    else:
        summary["affine"] = None
        pred_path = Path(cfg.pred)

    summary["train"] = run_stage("train", stage_train, cfg, pred_path, out_dir)
    run_stage("correct", stage_correct, cfg, pred_path, out_dir)

    if cfg.reference is not None:
        baseline = run_stage(
            "evaluate", stage_evaluate, cfg, pred_path, out_dir, "metrics_baseline"
        )
        corrected = run_stage(
            "evaluate", stage_evaluate, cfg, out_dir / "corrected", out_dir, "metrics"
        )
        summary["baseline_metrics"] = _metrics_doc(baseline, cfg.seed)
        summary["corrected_metrics"] = _metrics_doc(corrected, cfg.seed)
    else:
        summary["baseline_metrics"] = None
        summary["corrected_metrics"] = None

    _write_json(summary, out_dir / "summary.json")
    return summary


# ===== Synthetic benchmark stage =====


def run_synth(
    scene_cfg: synth.SceneConfig,
    track_cfg: synth.TrackConfig,
    corruption_cfg: Optional[synth.CorruptionConfig],
    out: Path | str,
) -> dict:
    """Generate a benchmark scene into a directory, with a manifest.

    Writes truth, optical, landcover, dtm (and pred when a corruption is
    configured) as raster pairs plus photons.csv and scene_manifest.json.
    """
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)

    truth, optical, lc, dtm = synth.generate_scene(scene_cfg)
    tracks = synth.simulate_tracks(truth, dtm, lc, track_cfg)
    save_raster(truth, out_dir / "truth")
    save_raster(optical, out_dir / "optical")
    save_raster(lc, out_dir / "landcover")
    save_raster(dtm, out_dir / "dtm")
    photons.write_photons_csv(tracks, out_dir / "photons.csv")

    manifest: dict[str, Any] = {
        "scene": dataclasses.asdict(scene_cfg),
        "tracks": dataclasses.asdict(track_cfg),
        "corruption": None,
        "n_photons": len(tracks),
    }
    if corruption_cfg is not None:
        pred = synth.corrupt_prediction(truth, lc, corruption_cfg)
        save_raster(pred, out_dir / "pred")
        doc = dataclasses.asdict(corruption_cfg)
        doc["class_bias"] = {str(k): v for k, v in corruption_cfg.class_bias.items()}
        manifest["corruption"] = doc

    _write_json(manifest, out_dir / "scene_manifest.json")
    return manifest


# ===== Typed raster loading =====


def _load(path, cls: type[Raster], what: str) -> Raster:
    raster = load_raster(path)
    if not isinstance(raster, cls):
        raise ValueError(
            f"{what} raster at {path} loads as {type(raster).__name__}, expected {cls.__name__}"
        )
    return raster


def _feature_inputs(
    cfg: PipelineConfig,
) -> tuple[Optional[OpticalRaster], Optional[LandCoverRaster], Optional[EmbeddingGrid]]:
    """The optical and land-cover rasters for hrf, or the embedding grid for nrf."""
    if cfg.features == SCHEMA_HRF:
        return (
            _load(cfg.optical, OpticalRaster, "optical"),
            _load(cfg.landcover, LandCoverRaster, "land-cover"),
            None,
        )
    return None, None, _load(cfg.embeddings, EmbeddingGrid, "embedding")
