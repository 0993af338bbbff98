"""Command-line interface.

One subcommand per pipeline stage plus `synth` for benchmark scenes and
`pipeline` for the whole run.  Flags beat config-file values, which beat
built-in defaults.  Verbosity comes from the LIDAR_ANCHOR_LOG environment
variable (error, warn, info, debug).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import pipeline, synth

logger = logging.getLogger(__name__)

_LOG_LEVELS = {
    "error": logging.ERROR,
    "warn": logging.WARNING,
    "info": logging.INFO,
    "debug": logging.DEBUG,
}


def _setup_logging() -> None:
    name = os.environ.get("LIDAR_ANCHOR_LOG", "warn").strip().lower()
    if name not in _LOG_LEVELS:
        print(
            f"warning: LIDAR_ANCHOR_LOG={name!r} not recognized, "
            f"expected one of {sorted(_LOG_LEVELS)}; using 'warn'",
            file=sys.stderr,
        )
        name = "warn"
    logging.basicConfig(level=_LOG_LEVELS[name], format="%(levelname)s %(name)s: %(message)s")


def _add_io_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--pred", help="predicted height or relative depth raster (stem or .bin/.json)")
    p.add_argument("--optical", help="RGB optical raster")
    p.add_argument("--landcover", help="land-cover class raster")
    p.add_argument("--dtm", help="terrain elevation raster")
    p.add_argument("--photons", help="raw photon CSV")
    p.add_argument("--reference", help="reference height raster for evaluation")
    p.add_argument("--embeddings", help="embedding grid for nrf features")
    p.add_argument("--out", help="output directory")


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mode", choices=["metric", "relative"], help="input height semantics")
    p.add_argument("--features", choices=["hrf", "nrf"], help="feature extraction mode")
    p.add_argument("--patch", type=int, help="window size in pixels")
    p.add_argument("--stride", type=int, help="window stride in pixels (default patch // 2)")
    p.add_argument("--trees", type=int, help="number of trees in the forest")
    p.add_argument("--seed", type=int, help="RNG seed recorded in all outputs (default 42)")
    p.add_argument(
        "--threads",
        type=int,
        help="processes that compute the training features and grow the forest; "
        "results do not depend on this",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lidar-anchor",
        description="Correct dense monocular height rasters with sparse LiDAR photons.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in [
        ("preprocess", "clean and normalize raw photons"),
        ("fit-scale", "fit the affine depth-to-height calibration"),
        ("train", "train the residual forest from clean photons"),
        ("correct", "apply a trained model to the full raster"),
        ("evaluate", "score a height raster against the reference"),
        ("pipeline", "run every stage in order"),
    ]:
        p = sub.add_parser(name, help=help_text)
        _add_io_flags(p)
        _add_run_flags(p)

    p = sub.add_parser("synth", help="generate a synthetic benchmark scene")
    p.add_argument("--config", help="JSON with scene / tracks / corruption sections")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, help="override the seed of every section")
    return parser


def _pipeline_config(args: argparse.Namespace) -> pipeline.PipelineConfig:
    if args.config:
        cfg = pipeline.load_config(args.config)
    else:
        cfg = pipeline.PipelineConfig()
    overrides = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    cfg = pipeline.merge_overrides(cfg, overrides)
    pipeline.validate_inputs(cfg, args.command)
    return cfg


def _out_dir(cfg: pipeline.PipelineConfig) -> Path:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_preprocess(args: argparse.Namespace) -> int:
    cfg = _pipeline_config(args)
    report = pipeline.stage_preprocess(cfg, _out_dir(cfg))
    print(json.dumps(report["counts"], sort_keys=True))
    return 0


def _cmd_fit_scale(args: argparse.Namespace) -> int:
    cfg = _pipeline_config(args)
    fit = pipeline.stage_fit_scale(cfg, _out_dir(cfg))
    print(f"a={fit.a!r} b={fit.b!r} n={fit.n_points} rmse={fit.rmse!r}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    cfg = _pipeline_config(args)
    out = _out_dir(cfg)
    report = pipeline.stage_train(cfg, pipeline.residual_input(cfg, out), out)
    print(json.dumps(report, sort_keys=True))
    return 0


def _cmd_correct(args: argparse.Namespace) -> int:
    cfg = _pipeline_config(args)
    out = _out_dir(cfg)
    pipeline.stage_correct(cfg, pipeline.residual_input(cfg, out), out)
    print(f"wrote {out / 'corrected.bin'} and {out / 'residual.bin'}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    cfg = _pipeline_config(args)
    report, _ = pipeline.stage_evaluate(cfg, cfg.pred, _out_dir(cfg))
    doc = pipeline._metrics_doc(report, cfg.seed)
    print(json.dumps(doc, sort_keys=True))
    return 0


def _cmd_pipeline(args: argparse.Namespace) -> int:
    cfg = _pipeline_config(args)
    summary = pipeline.run_pipeline(cfg)
    corrected = summary.get("corrected_metrics")
    if corrected is not None:
        ssim = "null" if corrected["ssim"] is None else f"{corrected['ssim']:.4f}"
        print(
            "corrected: mae={mae:.4f} rmse={rmse:.4f} ssim={ssim} f1={f1_he:.4f}".format(
                **{**corrected, "ssim": ssim}
            )
        )
    else:
        print(f"done; outputs in {cfg.out}")
    return 0


def _section(doc: dict, key: str, cls, seed_override: Optional[int]):
    section = doc.get(key)
    if not isinstance(section, (dict, type(None))):
        raise ValueError(f"synth config section {key!r} must be a JSON object, got {section!r}")
    section = dict(section or {})
    known = {f.name for f in dataclasses.fields(cls)}
    extra = set(section) - known
    if extra:
        raise ValueError(f"synth config section {key!r}: unknown keys {sorted(extra)}")
    if seed_override is not None:
        section["seed"] = seed_override
    bias = section.get("class_bias")
    if key == "corruption" and isinstance(bias, dict):
        # codes that are not decimal text stay strings, and CorruptionConfig
        # rejects them as it rejects a class_bias that is not an object
        section["class_bias"] = {int(k) if k.isdecimal() else k: v for k, v in bias.items()}
    return cls(**section)


def _cmd_synth(args: argparse.Namespace) -> int:
    doc = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as f:
            doc = json.load(f)
        if not isinstance(doc, dict):
            raise ValueError(f"synth config must be a JSON object, got {doc!r}")
        extra = set(doc) - {"scene", "tracks", "corruption"}
        if extra:
            raise ValueError(f"synth config: unknown sections {sorted(extra)}")
    scene_cfg = _section(doc, "scene", synth.SceneConfig, args.seed)
    track_cfg = _section(doc, "tracks", synth.TrackConfig, args.seed)
    corruption_cfg = None
    if doc.get("corruption") is not None:
        corruption_cfg = _section(doc, "corruption", synth.CorruptionConfig, args.seed)
    manifest = pipeline.run_synth(scene_cfg, track_cfg, corruption_cfg, args.out)
    print(f"wrote scene with {manifest['n_photons']} photons to {args.out}")
    return 0


_COMMANDS = {
    "preprocess": _cmd_preprocess,
    "fit-scale": _cmd_fit_scale,
    "train": _cmd_train,
    "correct": _cmd_correct,
    "evaluate": _cmd_evaluate,
    "pipeline": _cmd_pipeline,
    "synth": _cmd_synth,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    _setup_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except pipeline.PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
