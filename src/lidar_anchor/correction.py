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
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .features import SCHEMA_HRF, SCHEMA_NRF, hrf_features, nrf_features
from .forest import RandomForest, predict_batch
from .photons import CleanPhoton
from .raster import (
    EmbeddingGrid,
    HeightRaster,
    LandCoverRaster,
    OpticalRaster,
    footprint_mean,
    height_like,
    window,
)

logger = logging.getLogger(__name__)

DEFAULT_PATCH = 64
DEFAULT_FOOTPRINT = 17.0


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


def _feature_matrix(
    origins: Sequence[tuple[int, int]],
    pred: HeightRaster,
    optical: Optional[OpticalRaster],
    lc: Optional[LandCoverRaster],
    embeddings: Optional[EmbeddingGrid],
    feature_mode: str,
    patch: int,
) -> np.ndarray:
    """One feature row per ``patch``-pixel window, given by its top-left
    (row0, col0).

    Windows may reach past the raster: hrf patches replicate its edge
    pixels, and nrf takes the embedding cell under the window center,
    clamped to the last row and column.
    """
    h = pred.header
    rows = []
    for r0, c0 in origins:
        if feature_mode == SCHEMA_NRF:
            fv = nrf_features(
                embeddings,
                min(c0 + patch // 2, h.width - 1),
                min(r0 + patch // 2, h.height - 1),
            )
        else:
            fv = hrf_features(
                window(pred, r0, c0, patch),
                window(optical, r0, c0, patch),
                window(lc, r0, c0, patch),
                pred_nodata=h.nodata,
                lc_nodata=lc.header.nodata,
            )
        rows.append(fv.values)
    return np.array(rows)


def build_training_set(
    pred: HeightRaster,
    optical: Optional[OpticalRaster],
    lc: Optional[LandCoverRaster],
    photons: Sequence[CleanPhoton],
    patch: int = DEFAULT_PATCH,
    footprint: float = DEFAULT_FOOTPRINT,
    feature_mode: str = SCHEMA_HRF,
    embeddings: Optional[EmbeddingGrid] = None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Feature matrix X, targets y and a skip count from the clean photons.

    Each photon on a valid pixel gives one row: the features of the window
    centered on its pixel, and the footprint-mean prediction minus the
    photon height as target.  Photons outside the raster or over invalid
    pixels are skipped and counted.  Raises when no photon is usable.
    """
    _check_grids(pred, optical, lc)
    _require_inputs(feature_mode, optical, lc, embeddings)

    h = pred.header
    origins: list[tuple[int, int]] = []
    targets: list[float] = []
    skipped = 0
    for p in photons:
        if not h.contains_point(p.x, p.y):
            skipped += 1
            continue
        col, row = h.pixel_of(p.x, p.y)
        v = float(pred.values[row, col])
        if not math.isfinite(v) or v == h.nodata:
            skipped += 1
            continue
        sampled = footprint_mean(pred, p.x, p.y, footprint)
        if sampled is None:
            skipped += 1
            continue
        origins.append((row - patch // 2, col - patch // 2))
        targets.append(sampled - p.h_ag)

    if not origins:
        raise ValueError(
            f"zero usable photons to train on ({skipped} skipped); "
            "check raster coverage and nodata"
        )
    if skipped:
        logger.info("training set: %d photons skipped (outside raster or nodata)", skipped)

    X = _feature_matrix(origins, pred, optical, lc, embeddings, feature_mode, patch)
    return X, np.array(targets), skipped


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
) -> ResidualField:
    """Predict a dense residual raster from the trained forest.

    Windows of ``patch`` pixels tile the raster at ``stride`` (default
    patch // 2); each contributes one scalar and each pixel averages the
    windows covering it.  Scalars are accumulated in row-major window
    order.
    """
    _check_grids(pred, optical, lc)
    _require_inputs(feature_mode, optical, lc, embeddings)
    if feature_mode != forest.schema_id:
        raise ValueError(
            f"feature schema {feature_mode!r} does not match model schema "
            f"{forest.schema_id!r}"
        )
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

    matrix = _feature_matrix(windows, pred, optical, lc, embeddings, feature_mode, patch)
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
