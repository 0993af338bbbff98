"""Command-line interface.

One subcommand per pipeline stage plus `synth` for benchmark scenes and
`pipeline` for the whole run.  Every `PipelineConfig` field is a flag of
each stage command; a flag that is set beats the config-file value, which
beats the built-in default.  Verbosity comes from the LIDAR_ANCHOR_LOG
environment variable (error, warn, info, debug).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
import typing
from pathlib import Path
from typing import Optional, Sequence

from . import pipeline, synth
from .raster import record_from_json

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


_HELP = {
    "mode": "input height semantics: metric or relative",
    "features": "feature extraction mode: hrf or nrf",
    "pred": "predicted height or relative depth raster (stem or .bin/.json)",
    "optical": "RGB optical raster",
    "landcover": "land-cover class raster",
    "dtm": "terrain elevation raster",
    "photons": "raw photon CSV",
    "reference": "reference height raster for evaluation",
    "embeddings": "embedding grid for nrf features",
    "out": "output directory",
    "seed": "RNG seed recorded in all outputs (default 42)",
    "threads": "processes that compute the training features and grow the forest; "
    "results do not depend on this",
    "patch": "window size in pixels",
    "stride": "window stride in pixels (default patch // 2)",
    "trees": "number of trees in the forest",
    "footprint": "supervision footprint diameter in meters",
}


def _pipeline_line(summary: dict, cfg: pipeline.PipelineConfig) -> str:
    corrected = summary["corrected_metrics"]
    if corrected is None:
        return f"done; outputs in {cfg.out}"
    ssim = "null" if corrected["ssim"] is None else f"{corrected['ssim']:.4f}"
    return "corrected: mae={mae:.4f} rmse={rmse:.4f} ssim={ssim} f1={f1_he:.4f}".format(
        **{**corrected, "ssim": ssim}
    )


# Each stage command's help text, and the call that runs it on the checked
# config and the run directory and returns the line it prints.
_STAGES = {
    "preprocess": (
        "clean and normalize raw photons",
        lambda cfg, out: json.dumps(pipeline.stage_preprocess(cfg, out)["counts"], sort_keys=True),
    ),
    "fit-scale": (
        "fit the affine depth-to-height calibration",
        lambda cfg, out: "a={a!r} b={b!r} n={n_points} rmse={rmse!r}".format_map(
            vars(pipeline.stage_fit_scale(cfg, out))
        ),
    ),
    "train": (
        "train the residual forest from clean photons",
        lambda cfg, out: json.dumps(
            pipeline.stage_train(cfg, pipeline.residual_input(cfg, out), out), sort_keys=True
        ),
    ),
    "correct": (
        "apply a trained model to the full raster",
        # the pair runs the stage, then names what it wrote
        lambda cfg, out: (
            pipeline.stage_correct(cfg, pipeline.residual_input(cfg, out), out),
            f"wrote {out / 'corrected.bin'} and {out / 'residual.bin'}",
        )[1],
    ),
    "evaluate": (
        "score a height raster against the reference",
        lambda cfg, out: json.dumps(
            pipeline._metrics_doc(pipeline.stage_evaluate(cfg, cfg.pred, out)[0], cfg.seed),
            sort_keys=True,
        ),
    ),
    "pipeline": (
        "run every stage in order",
        lambda cfg, out: _pipeline_line(pipeline.run_pipeline(cfg), cfg),
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lidar-anchor",
        description="Correct dense monocular height rasters with sparse LiDAR photons.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    types = typing.get_type_hints(pipeline.PipelineConfig)
    for name, (help_text, _) in _STAGES.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file; flags override its values")
        for field in dataclasses.fields(pipeline.PipelineConfig):
            tp = types[field.name]
            # a flag of an Optional[X] field takes an X
            tp = next((t for t in typing.get_args(tp) if t is not type(None)), tp)
            p.add_argument(f"--{field.name}", type=tp, help=_HELP[field.name])

    p = sub.add_parser("synth", help="generate a synthetic benchmark scene")
    p.add_argument("--config", help="JSON with scene / tracks / corruption sections")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, help="override the seed of every section")
    return parser


def _pipeline_config(args: argparse.Namespace) -> pipeline.PipelineConfig:
    """The config file, or the defaults, with every flag that is set applied
    and checked as a config-file value is."""
    cfg = pipeline.load_config(args.config) if args.config else pipeline.PipelineConfig()
    flags = {f.name: getattr(args, f.name) for f in dataclasses.fields(cfg)}
    cfg = dataclasses.replace(cfg, **{k: v for k, v in flags.items() if v is not None})
    pipeline.validate_inputs(cfg, args.command)
    return cfg


def _section(doc: dict, key: str, cls, seed_override: Optional[int]):
    section = {} if doc.get(key) is None else doc[key]
    if isinstance(section, dict):
        section = dict(section)
        if seed_override is not None:
            section["seed"] = seed_override
        bias = section.get("class_bias")
        if isinstance(bias, dict):
            # codes that are not decimal text stay strings, and CorruptionConfig
            # rejects them as it rejects a class_bias that is not an object
            section["class_bias"] = {int(k) if k.isdecimal() else k: v for k, v in bias.items()}
    return record_from_json(cls, section, f"synth config section {key!r}")


def _synth(args: argparse.Namespace) -> str:
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
    return f"wrote scene with {manifest['n_photons']} photons to {args.out}"


def main(argv: Optional[Sequence[str]] = None) -> int:
    _setup_logging()
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "synth":
            line = _synth(args)
        else:
            cfg = _pipeline_config(args)
            out = Path(cfg.out)
            out.mkdir(parents=True, exist_ok=True)
            line = _STAGES[args.command][1](cfg, out)
    except pipeline.PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {args.command}: {exc}", file=sys.stderr)
        return 1
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
