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

from .features import HRF_DIM, SCHEMA_HRF, SCHEMA_NRF, hrf_features
from .forest import RandomForest, predict_batch
from .raster import (
    DEFAULT_FOOTPRINT,
    EmbeddingGrid,
    HeightRaster,
    LandCoverRaster,
    OpticalRaster,
    footprint_mean,
    height_like,
    row_strips,
    valid_mask,
    window,
)

logger = logging.getLogger(__name__)

DEFAULT_PATCH = 64

# Pixels of the windows whose hrf features are computed at once, to bound
# memory: 8 windows at patch 64, 128 at patch 16.
_FEATURE_CHUNK_PIXELS = 1 << 15


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
    clamped to the last row and column.  A center past the image the grid
    covers raises ValueError.  hrf rows are computed a chunk of
    ``_FEATURE_CHUNK_PIXELS`` window pixels at a time.
    """
    h = pred.header
    row0, col0 = np.array(origins, dtype=np.int64).reshape(-1, 2).T
    if feature_mode == SCHEMA_NRF:
        g = embeddings.header
        rows = np.minimum(row0 + patch // 2, h.height - 1)
        cols = np.minimum(col0 + patch // 2, h.width - 1)
        outside = (cols >= g.width * g.cell_px) | (rows >= g.height * g.cell_px)
        if outside.any():
            i = int(np.argmax(outside))
            raise ValueError(
                f"pixel ({cols[i]}, {rows[i]}) outside the image covered by the grid "
                f"({g.width * g.cell_px} x {g.height * g.cell_px} px)"
            )
        cells = embeddings.values.reshape(g.height, g.width, g.bands)
        return cells[rows // g.cell_px, cols // g.cell_px].astype(np.float64)
    out = np.empty((len(row0), HRF_DIM), dtype=np.float64)
    chunk = max(_FEATURE_CHUNK_PIXELS // (patch * patch), 1)
    for s in range(0, len(row0), chunk):
        part = slice(s, s + chunk)
        out[part] = hrf_features(
            window(pred, row0[part], col0[part], patch),
            window(optical, row0[part], col0[part], patch),
            window(lc, row0[part], col0[part], patch),
            pred_nodata=h.nodata,
            lc_nodata=lc.header.nodata,
        )
    return out


def build_training_set(
    pred: HeightRaster,
    optical: Optional[OpticalRaster],
    lc: Optional[LandCoverRaster],
    clean: np.ndarray,
    patch: int = DEFAULT_PATCH,
    footprint: float = DEFAULT_FOOTPRINT,
    feature_mode: str = SCHEMA_HRF,
    embeddings: Optional[EmbeddingGrid] = None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Feature matrix X, targets y and a skip count from a clean-photon
    table (``photons.CLEAN_DTYPE``; only ``x``, ``y`` and ``h_ag`` are read).

    Each photon on a valid pixel gives one row, in table order: the
    features of the window centered on its pixel, and the footprint-mean
    prediction minus the photon height as target.  Photons outside the
    raster or over invalid pixels are skipped and counted.  Raises when no
    photon is usable.
    """
    _check_grids(pred, optical, lc)
    _require_inputs(feature_mode, optical, lc, embeddings)

    h = pred.header
    x, y = clean["x"], clean["y"]
    on_pixel = np.nonzero(h.contains_point(x, y))[0]
    col, row = h.pixels_of(x[on_pixel], y[on_pixel])
    value = pred.values[row, col]
    valid = np.isfinite(value)
    if h.nodata is not None:
        valid &= value.astype(np.float64) != h.nodata
    on_pixel, col, row = on_pixel[valid], col[valid], row[valid]
    sampled = footprint_mean(pred, x[on_pixel], y[on_pixel], footprint)
    keep = ~np.isnan(sampled)
    origins = list(zip((row[keep] - patch // 2).tolist(), (col[keep] - patch // 2).tolist()))
    targets = sampled[keep] - clean["h_ag"][on_pixel[keep]]
    skipped = len(clean) - len(origins)

    if not origins:
        raise ValueError(
            f"zero usable photons to train on ({skipped} skipped); "
            "check raster coverage and nodata"
        )
    if skipped:
        logger.info("training set: %d photons skipped (outside raster or nodata)", skipped)

    X = _feature_matrix(origins, pred, optical, lc, embeddings, feature_mode, patch)
    return X, targets, skipped


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
    patch // 2; a stride above the patch would leave pixels between the
    windows and raises ValueError); each window that covers a valid
    prediction pixel contributes one scalar and each pixel averages the
    windows covering it.  Scalars are accumulated in row-major window
    order.  Pixels under no contributing window are invalid and get
    residual 0.
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
    if stride > patch:
        raise ValueError(f"stride must be <= patch ({patch}), got {stride}")

    h = pred.header
    rows0 = np.array(_window_origins(h.height, patch, stride))
    cols0 = np.array(_window_origins(h.width, patch, stride))
    valid = valid_mask(pred)
    # valid pixels per window, from a summed-area table of the mask
    sat = np.zeros((h.height + 1, h.width + 1), dtype=np.int64)
    np.cumsum(np.cumsum(valid, axis=0), axis=1, out=sat[1:, 1:])
    top, left = rows0[:, None], cols0[None, :]
    bottom = np.minimum(top + patch, h.height)
    right = np.minimum(left + patch, h.width)
    counts = sat[bottom, right] - sat[top, right] - sat[bottom, left] + sat[top, left]
    hit_r, hit_c = np.nonzero(counts)
    windows = list(zip(rows0[hit_r].tolist(), cols0[hit_c].tolist()))
    if not windows:
        raise ValueError("no window covers a valid prediction pixel")

    matrix = _feature_matrix(windows, pred, optical, lc, embeddings, feature_mode, patch)
    scalars = predict_batch(forest, matrix)

    acc = np.zeros((h.height, h.width), dtype=np.float64)
    cover = np.zeros((h.height, h.width), dtype=np.int32)
    for i, (r0, c0) in enumerate(windows):
        r1 = min(r0 + patch, h.height)
        c1 = min(c0 + patch, h.width)
        acc[r0:r1, c0:c1] += scalars[i]
        cover[r0:r1, c0:c1] += 1

    if (valid & (cover == 0)).any():
        raise AssertionError("window tiling left valid pixels uncovered")
    values = np.divide(acc, cover, out=np.zeros_like(acc), where=cover > 0).astype(np.float32)
    return ResidualField(values=height_like(h, values), weights=cover)


def apply_correction(pred: HeightRaster, field: ResidualField) -> HeightRaster:
    """Subtract the residual field from the prediction, clamped at >= 0 m.

    Invalid pixels (nodata or non-finite) pass through unchanged.
    """
    if not pred.header.same_grid(field.values.header):
        raise ValueError("residual field is on a different grid than the prediction")
    out = np.empty_like(pred.values)
    for rows in row_strips(pred.header.height):
        values = pred.values[rows].astype(np.float64)
        corrected = np.maximum(values - field.values.values[rows].astype(np.float64), 0.0)
        out[rows] = np.where(valid_mask(pred, rows), corrected, values)
    return height_like(pred.header, out, nodata=pred.header.nodata)
