"""End-to-end orchestration: configuration, stages, and the full pipeline.

Each stage reads and writes files, so any stage can be re-run by hand from
the artifacts of the previous one, and a pipeline run is just the stages in
order.  All reports are JSON with sorted keys; identical configuration and
seed produce byte-identical outputs.  ``threads`` caps the worker processes
that compute the training features and grow the forest's trees; no output
depends on it.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

from . import correction, forest, metrics, photons, scaling, synth
from .features import SCHEMA_HRF, SCHEMA_NRF, feature_groups, feature_names
from .raster import (
    DEFAULT_FOOTPRINT,
    EmbeddingGrid,
    HeightRaster,
    LandCoverRaster,
    OpticalRaster,
    Raster,
    check_fields,
    load_raster,
    record_from_json,
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
    """What a run reads, where it writes, and the few settings a caller
    chooses: window geometry, forest size and the supervision footprint.

    Each field is also a flag of every stage command, typed as declared; a
    flag that is set beats the config file, which beats these defaults.  The
    photon cleaning settings, the forest's other hyperparameters and the
    scoring thresholds are fixed library defaults (``PreprocessParams``,
    ``ForestParams`` and the ``metrics`` constants).
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
    patch: int = correction.DEFAULT_PATCH
    stride: Optional[int] = None
    trees: int = forest.ForestParams.n_trees
    footprint: float = DEFAULT_FOOTPRINT

    def __post_init__(self) -> None:
        check_fields(self, {"threads": ">= 1", "patch": ">= 1", "stride": ">= 1", "trees": ">= 1",
                            "footprint": "> 0"})
        if self.mode not in _MODE_ALIASES:
            raise ValueError(
                f"unknown mode {self.mode!r}, expected one of {sorted(set(_MODE_ALIASES))}"
            )
        self.mode = _MODE_ALIASES[self.mode]
        if self.features not in _FEATURE_ALIASES:
            raise ValueError(f"unknown feature mode {self.features!r}, expected hrf or nrf")
        self.features = _FEATURE_ALIASES[self.features]
        if self.stride is not None and self.stride > self.patch:
            # windows that far apart would leave pixels between them uncovered
            raise ValueError(f"stride must be <= patch ({self.patch}), got {self.stride}")


def load_config(path: Path | str) -> PipelineConfig:
    """Read a JSON config file into a PipelineConfig."""
    with open(path, "r", encoding="utf-8") as f:
        return record_from_json(PipelineConfig, json.load(f), f"config {path}")


def validate_inputs(cfg: PipelineConfig, command: str = "pipeline") -> None:
    """Check that every input the configured run, or one stage command of
    it, reads is set, so that misconfiguration fails before any compute."""
    features = ("optical", "landcover") if cfg.features == SCHEMA_HRF else ("embeddings",)
    # train and correct read pred only where residual_input hands it to them
    residual = ("pred",) if residual_input(cfg, Path(cfg.out)) is cfg.pred else ()
    needs = {
        "preprocess": ("photons", "dtm", "landcover"),
        "fit-scale": ("pred",),
        "train": (*residual, *features),
        "correct": (*residual, *features),
        "evaluate": ("pred", "reference"),
        "pipeline": ("pred", "photons", "dtm", "landcover", *features),
    }[command]
    missing = [n for n in dict.fromkeys(needs) if getattr(cfg, n) is None]
    if missing:
        raise ValueError(
            f"mode {cfg.mode!r} with {cfg.features!r} features requires: {', '.join(missing)}"
        )


def _write_json(doc: dict, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def _metrics_doc(report: metrics.MetricsReport, seed: int) -> dict:
    return {**dataclasses.asdict(report), "flags": list(report.flags), "seed": seed}


# ===== Stages =====


def stage_preprocess(cfg: PipelineConfig, out_dir: Path) -> dict:
    """Clean the photons: raw CSV -> clean_photons.csv + preprocess_report.json."""
    raw = photons.load_photons(cfg.photons)
    dtm = _load(cfg.dtm, HeightRaster, "dtm")
    lc = _load(cfg.landcover, LandCoverRaster, "land-cover")
    clean, report = photons.clean_photon_table(raw, dtm, lc)
    if len(clean) == 0:
        raise ValueError("preprocessing removed every photon")
    photons.write_clean_csv(clean, out_dir / "clean_photons.csv")
    report["seed"] = cfg.seed
    _write_json(report, out_dir / "preprocess_report.json")
    return report


def stage_fit_scale(cfg: PipelineConfig, out_dir: Path) -> scaling.AffineFit:
    """Affine calibration of a relative depth raster against clean photons.

    Writes affine.json and the calibrated raster pred_abs.bin/.json.
    """
    depth = _load(cfg.pred, HeightRaster, "pred")
    clean = photons.read_clean_csv(out_dir / "clean_photons.csv")
    fit = scaling.fit_affine(depth, clean, footprint=cfg.footprint)
    _write_json({**dataclasses.asdict(fit), "seed": cfg.seed}, out_dir / "affine.json")
    calibrated = scaling.apply_affine(depth, fit)
    save_raster(calibrated, out_dir / "pred_abs")
    return fit


def residual_input(cfg: PipelineConfig, out_dir: Path) -> Optional[Path | str]:
    """The height raster the train and correct stages read: in relative mode
    the calibrated pred_abs that fit-scale writes to ``out_dir``, otherwise
    ``pred`` itself (None while it is unset)."""
    return out_dir / "pred_abs" if cfg.mode == MODE_RELATIVE else cfg.pred


def stage_train(cfg: PipelineConfig, pred_path: Path | str, out_dir: Path) -> dict:
    """Residual training: clean photons + rasters -> model.json + report.

    train_report.json gives the training rows, the photons skipped (in all
    and by reason), the forest's shape and its out-of-bag MAE."""
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
        threads=cfg.threads,
    )
    params = forest.ForestParams(n_trees=cfg.trees, seed=cfg.seed)
    model = forest.train_forest(X, y, cfg.features, params, threads=cfg.threads)
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
        "skipped": sum(skipped.values()),
        **{f"skipped_{reason}": count for reason, count in skipped.items()},
        "forest": forest.forest_shape(model),
        "oob_mae": model.oob_mae,
        "seed": cfg.seed,
    }
    _write_json(report, out_dir / "train_report.json")
    return report


def stage_correct(cfg: PipelineConfig, pred_path: Path | str, out_dir: Path) -> dict:
    """Apply a trained model: corrected.bin/.json + residual.bin/.json and
    correct_report.json, the residual field's coverage: the windows scored,
    those dropped for holding no valid prediction pixel, and the invalid
    pixels that no scored window covers, left at residual 0."""
    pred = _load(pred_path, HeightRaster, "pred")
    optical, lc, embeddings = _feature_inputs(cfg)
    model = forest.load_model(out_dir / "model.json")

    residual, report = correction.infer_residual_field(
        pred,
        optical,
        lc,
        model,
        patch=cfg.patch,
        stride=cfg.stride,
        feature_mode=cfg.features,
        embeddings=embeddings,
    )
    corrected = correction.apply_correction(pred, residual)
    save_raster(residual, out_dir / "residual")
    save_raster(corrected, out_dir / "corrected")
    _write_json(report, out_dir / "correct_report.json")
    return report


def stage_evaluate(
    cfg: PipelineConfig,
    eval_path: Path | str,
    out_dir: Path,
    name: str = "metrics",
) -> tuple[metrics.MetricsReport, Optional[list[dict]]]:
    """Compare a height raster against the reference; writes <name>.json
    and, when a land-cover raster is configured, <name>_per_class.csv.

    Every input is loaded and scored before either file is written, so a
    stage that fails leaves neither.  Returns the report and the per-class
    rows (None without a land-cover raster).
    """
    pred = _load(eval_path, HeightRaster, "raster under evaluation")
    ref = _load(cfg.reference, HeightRaster, "reference")
    lc = None if cfg.landcover is None else _load(cfg.landcover, LandCoverRaster, "land-cover")
    report = metrics.evaluate(pred, ref)
    rows = None if lc is None else metrics.per_class_breakdown(pred, ref, lc)

    _write_json(_metrics_doc(report, cfg.seed), out_dir / f"{name}.json")
    if rows is not None:
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
    return report, rows


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

    summary["affine"] = None
    if cfg.mode == MODE_RELATIVE:
        fit = run_stage("fit-scale", stage_fit_scale, cfg, out_dir)
        summary["affine"] = dataclasses.asdict(fit)
    pred_path = residual_input(cfg, out_dir)

    summary["train"] = run_stage("train", stage_train, cfg, pred_path, out_dir)
    summary["correct"] = run_stage("correct", stage_correct, cfg, pred_path, out_dir)

    for key, path, name in (
        ("baseline", pred_path, "metrics_baseline"),
        ("corrected", out_dir / "corrected", "metrics"),
    ):
        if cfg.reference is None:
            summary[f"{key}_metrics"] = summary[f"{key}_per_class"] = None
            continue
        report, rows = run_stage("evaluate", stage_evaluate, cfg, path, out_dir, name)
        summary[f"{key}_metrics"] = _metrics_doc(report, cfg.seed)
        # land cover is a required input of a pipeline run, so rows are present
        summary[f"{key}_per_class"] = {
            row["class_name"]: {"mae": row["mae"], "bias": row["bias"]} for row in rows
        }

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
        doc["class_bias"] = {str(k): float(v) for k, v in corruption_cfg.class_bias.items()}
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
