"""Residual learning against photons and its application to the prediction.

Training pairs come from clean photons: the target is the footprint-averaged
prediction minus the photon height, the features describe the patch around
the photon's pixel.  At correction time the raster is tiled with windows at a
fixed stride (the last row and column of windows clamp to the raster edge),
each window gets one scalar residual from the forest, and every pixel takes
the mean of all windows covering it.  Subtracting that field from the
prediction and clamping at zero yields the corrected raster.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .features import (
    SCHEMA_HRF,
    SCHEMA_NRF,
    FeatureVector,
    hrf_features,
    nrf_features,
)
from .forest import RandomForest, predict_batch
from .photons import CleanPhoton
from .raster import (
    EmbeddingGrid,
    HeightRaster,
    LandCoverRaster,
    OpticalRaster,
    extract_window,
    footprint_mean,
    height_like,
)

logger = logging.getLogger(__name__)

DEFAULT_PATCH = 64
DEFAULT_FOOTPRINT = 17.0


@dataclass(frozen=True)
class TrainingSample:
    """One (features, residual target) pair with its photon location."""

    features: FeatureVector
    target: float
    x: float
    y: float


@dataclass
class ResidualField:
    """Dense per-pixel residual plus how many windows informed each pixel."""

    values: HeightRaster
    weights: np.ndarray


def _check_grids(
    pred: HeightRaster,
    optical: Optional[OpticalRaster],
    lc: Optional[LandCoverRaster],
) -> None:
    if optical is not None and not pred.header.same_grid(optical.header):
        raise ValueError("optical raster is on a different grid than the prediction")
    if lc is not None and not pred.header.same_grid(lc.header):
        raise ValueError("land-cover raster is on a different grid than the prediction")


def _feature_at(
    col: int,
    row: int,
    pred: HeightRaster,
    optical: Optional[OpticalRaster],
    lc: Optional[LandCoverRaster],
    embeddings: Optional[EmbeddingGrid],
    feature_mode: str,
    patch: int,
) -> FeatureVector:
    if feature_mode == SCHEMA_NRF:
        assert embeddings is not None
        return nrf_features(embeddings, col, row)
    assert optical is not None and lc is not None
    return hrf_features(
        extract_window(pred, col, row, patch),
        extract_window(optical, col, row, patch),
        extract_window(lc, col, row, patch),
        pred_nodata=pred.header.nodata,
        lc_nodata=lc.header.nodata,
    )


def _patch_from(raster, r0: int, c0: int, patch: int) -> np.ndarray:
    """Patch by top-left offset with edge replication past the borders.

    Matches extract_window at center (c0 + patch // 2, r0 + patch // 2)
    whenever that center lies inside the raster.
    """
    h = raster.header
    rows = np.clip(np.arange(r0, r0 + patch), 0, h.height - 1)
    cols = np.clip(np.arange(c0, c0 + patch), 0, h.width - 1)
    return raster.values[np.ix_(rows, cols)]


def _require_inputs(
    feature_mode: str,
    optical: Optional[OpticalRaster],
    lc: Optional[LandCoverRaster],
    embeddings: Optional[EmbeddingGrid],
) -> None:
    if feature_mode == SCHEMA_HRF:
        if optical is None or lc is None:
            raise ValueError("handcrafted features need optical and land-cover rasters")
    elif feature_mode == SCHEMA_NRF:
        if embeddings is None:
            raise ValueError("embedding features need an embedding grid")
    else:
        raise ValueError(f"unknown feature mode {feature_mode!r}")


def build_training_set(
    pred: HeightRaster,
    optical: Optional[OpticalRaster],
    lc: Optional[LandCoverRaster],
    photons: Sequence[CleanPhoton],
    patch: int = DEFAULT_PATCH,
    footprint: float = DEFAULT_FOOTPRINT,
    feature_mode: str = SCHEMA_HRF,
    embeddings: Optional[EmbeddingGrid] = None,
    threads: int = 1,
) -> tuple[list[TrainingSample], int]:
    """One training sample per clean photon that lands on usable pixels.

    Photons outside the raster or over nodata are skipped; the second
    return value counts them.  Raises when no photon is usable at all.
    ``threads`` is accepted and ignored: features are extracted serially.
    """
    _check_grids(pred, optical, lc)
    _require_inputs(feature_mode, optical, lc, embeddings)

    usable: list[tuple[CleanPhoton, int, int, float]] = []
    skipped = 0
    for p in photons:
        if not pred.header.contains_point(p.x, p.y):
            skipped += 1
            continue
        col, row = pred.header.pixel_of(p.x, p.y)
        if (
            pred.header.nodata is not None
            and float(pred.values[row, col]) == pred.header.nodata
        ):
            skipped += 1
            continue
        sampled = footprint_mean(pred, p.x, p.y, footprint)
        if sampled is None:
            skipped += 1
            continue
        usable.append((p, col, row, sampled - p.h_ag))

    if not usable:
        raise ValueError(
            f"zero usable photons to train on ({skipped} skipped); "
            "check raster coverage and nodata"
        )
    if skipped:
        logger.info("training set: %d photons skipped (outside raster or nodata)", skipped)

    samples = [
        TrainingSample(
            features=_feature_at(col, row, pred, optical, lc, embeddings, feature_mode, patch),
            target=target,
            x=p.x,
            y=p.y,
        )
        for p, col, row, target in usable
    ]
    return samples, skipped


def _window_origins(extent: int, patch: int, stride: int) -> list[int]:
    """Window start offsets along one axis, last one clamped to the edge."""
    last = max(extent - patch, 0)
    origins = list(range(0, last + 1, stride))
    if origins[-1] != last:
        origins.append(last)
    return origins


def infer_residual_field(
    pred: HeightRaster,
    optical: Optional[OpticalRaster],
    lc: Optional[LandCoverRaster],
    forest: RandomForest,
    patch: int = DEFAULT_PATCH,
    stride: Optional[int] = None,
    feature_mode: str = SCHEMA_HRF,
    embeddings: Optional[EmbeddingGrid] = None,
    threads: int = 1,
) -> ResidualField:
    """Predict a dense residual raster from the trained forest.

    Windows of ``patch`` pixels tile the raster at ``stride`` (default
    patch // 2); each contributes one scalar and each pixel averages the
    windows covering it.  Scalars are accumulated in row-major window
    order.  ``threads`` is accepted and ignored: windows are evaluated
    serially.
    """
    _check_grids(pred, optical, lc)
    _require_inputs(feature_mode, optical, lc, embeddings)
    if patch < 1:
        raise ValueError(f"patch must be >= 1, got {patch}")
    if stride is None:
        stride = max(patch // 2, 1)
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")

    h = pred.header
    rows0 = _window_origins(h.height, patch, stride)
    cols0 = _window_origins(h.width, patch, stride)
    windows = [(r0, c0) for r0 in rows0 for c0 in cols0]

    dim = forest.n_features
    matrix = np.empty((len(windows), dim), dtype=np.float64)

    for i, (r0, c0) in enumerate(windows):
        if feature_mode == SCHEMA_NRF:
            assert embeddings is not None
            center_col = min(c0 + patch // 2, h.width - 1)
            center_row = min(r0 + patch // 2, h.height - 1)
            fv = nrf_features(embeddings, center_col, center_row)
        else:
            assert optical is not None and lc is not None
            fv = hrf_features(
                _patch_from(pred, r0, c0, patch),
                _patch_from(optical, r0, c0, patch),
                _patch_from(lc, r0, c0, patch),
                pred_nodata=pred.header.nodata,
                lc_nodata=lc.header.nodata,
            )
        if fv.schema_id != forest.schema_id:
            raise ValueError(
                f"feature schema {fv.schema_id!r} does not match model schema "
                f"{forest.schema_id!r}"
            )
        if fv.values.size != dim:
            raise ValueError(
                f"feature vector has {fv.values.size} dims, model expects {dim}"
            )
        matrix[i] = fv.values

    scalars = predict_batch(forest, matrix)

    acc = np.zeros((h.height, h.width), dtype=np.float64)
    cover = np.zeros((h.height, h.width), dtype=np.int32)
    for i, (r0, c0) in enumerate(windows):
        r1 = min(r0 + patch, h.height)
        c1 = min(c0 + patch, h.width)
        acc[r0:r1, c0:c1] += scalars[i]
        cover[r0:r1, c0:c1] += 1

    if (cover == 0).any():
        raise AssertionError("window tiling left pixels uncovered")
    values = (acc / cover).astype(np.float32)
    return ResidualField(values=height_like(h, values), weights=cover)


def apply_correction(pred: HeightRaster, field: ResidualField) -> HeightRaster:
    """Subtract the residual field from the prediction, clamped at >= 0 m.

    Nodata pixels pass through untouched.
    """
    if not pred.header.same_grid(field.values.header):
        raise ValueError("residual field is on a different grid than the prediction")
    corrected = pred.values.astype(np.float64) - field.values.values.astype(np.float64)
    np.maximum(corrected, 0.0, out=corrected)
    nodata = pred.header.nodata
    if nodata is not None:
        mask = pred.values == nodata
        corrected[mask] = nodata
    return height_like(pred.header, corrected.astype(np.float32), nodata=nodata)
