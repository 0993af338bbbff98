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
from typing import Optional, Sequence

import numpy as np

from .features import HRF_DIM, SCHEMA_HRF, SCHEMA_NRF, hrf_features
from .forest import RandomForest, _build_forked, predict_batch
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
    valid_values,
    window,
    window_box,
)

logger = logging.getLogger(__name__)

DEFAULT_PATCH = 64

# Pixels of the windows whose hrf features are computed at once, to bound
# memory: 8 windows at patch 64, 128 at patch 16.
_FEATURE_CHUNK_PIXELS = 1 << 15

# Width in pixels of the column bands in whose top-to-bottom order hrf
# windows are chunked.
_CHUNK_BAND_PX = 64


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
    threads: int = 1,
) -> np.ndarray:
    """One feature row per ``patch``-pixel window, given by its top-left
    (row0, col0).

    Windows may reach past the raster: hrf patches replicate its edge
    pixels, and nrf takes the embedding cell under the window center,
    clamped to the last row and column.  A center past the image the grid
    covers raises ValueError.  hrf rows are computed a chunk of
    ``_FEATURE_CHUNK_PIXELS`` window pixels at a time, from the bounding
    box of the chunk's windows, or from its windows laid side by side when
    that box holds more pixels than they do.  With ``threads`` > 1 the
    chunks are shared out to forked worker processes
    (``forest._build_forked``); each row equals its window computed alone,
    so the matrix does not depend on ``threads``.
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
    chunk = max(_FEATURE_CHUNK_PIXELS // (patch * patch), 1)
    rasters = (pred, optical, lc)
    # chunks follow column bands top to bottom, so that their windows lie
    # close together; rows go back to the caller's order
    order = np.lexsort((col0, row0, col0 // _CHUNK_BAND_PX))
    parts = [order[s : s + chunk] for s in range(0, len(order), chunk)]

    def chunk_rows(part: np.ndarray) -> np.ndarray:
        r, c = row0[part], col0[part]
        if (np.ptp(r) + patch) * (np.ptp(c) + patch) <= len(part) * patch * patch:
            boxes = [window_box(x, r, c, patch)[0] for x in rasters]
            rows, cols = r - r.min(), c - c.min()
        else:
            # a box larger than its windows: each window is a box, side by side
            boxes = [np.concatenate(window(x, r, c, patch), axis=1) for x in rasters]
            rows, cols = np.zeros_like(r), np.arange(len(part)) * patch
        return hrf_features(
            *boxes, rows, cols, patch, pred_nodata=h.nodata, lc_nodata=lc.header.nodata
        )

    chunks = _build_forked(
        lambda items: (chunk_rows(parts[i]) for i in items), list(range(len(parts))), threads
    )
    out = np.empty((len(row0), HRF_DIM), dtype=np.float64)
    for part, rows in zip(parts, chunks):
        out[part] = rows
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
    threads: int = 1,
) -> tuple[np.ndarray, np.ndarray, dict[str, int]]:
    """Feature matrix X, targets y and the skipped photons by reason, from a
    clean-photon table (``photons.CLEAN_DTYPE``; only ``x``, ``y`` and
    ``h_ag`` are read).

    Each photon on a valid pixel gives one row, in table order: the
    features of the window centered on its pixel (computed once per
    distinct pixel), and the footprint-mean prediction minus the photon
    height as target.  The other photons are skipped and counted under
    ``outside_raster``, ``invalid_pixel`` (nodata or non-finite under the
    photon) and ``empty_footprint`` (no valid pixel to average).  Raises
    when no photon is usable.  ``threads`` caps the worker processes that
    compute hrf features; the result does not depend on it.
    """
    _check_grids(pred, optical, lc)
    _require_inputs(feature_mode, optical, lc, embeddings)

    h = pred.header
    x, y = clean["x"], clean["y"]
    on_pixel = np.nonzero(h.contains_point(x, y))[0]
    col, row = h.pixels_of(x[on_pixel], y[on_pixel])
    valid = valid_values(pred.values[row, col], h.nodata)
    skipped = {"outside_raster": len(clean) - len(on_pixel), "invalid_pixel": int((~valid).sum())}
    on_pixel, col, row = on_pixel[valid], col[valid], row[valid]
    sampled = footprint_mean(pred, x[on_pixel], y[on_pixel], footprint)
    keep = ~np.isnan(sampled)
    skipped["empty_footprint"] = int((~keep).sum())
    targets = sampled[keep] - clean["h_ag"][on_pixel[keep]]

    if not len(targets):
        raise ValueError(
            f"zero usable photons to train on ({len(clean)} skipped); "
            "check raster coverage and nodata"
        )
    if len(targets) < len(clean):
        logger.info("training set: photons skipped %s", skipped)

    # one feature row per distinct pixel, copied to every photon on it
    row, col = row[keep], col[keep]
    _, first, photon_pixel = np.unique(row * h.width + col, return_index=True, return_inverse=True)
    origins = np.stack([row[first], col[first]], axis=1) - patch // 2
    X = _feature_matrix(origins, pred, optical, lc, embeddings, feature_mode, patch, threads)
    return X[photon_pixel.reshape(-1)], targets, skipped


def _window_origins(extent: int, patch: int, stride: int) -> np.ndarray:
    """Window start offsets along one axis, last one clamped to the edge."""
    last = max(extent - patch, 0)
    return np.union1d(np.arange(0, last + 1, stride), last)


def infer_residual_field(
    pred: HeightRaster,
    optical: Optional[OpticalRaster],
    lc: Optional[LandCoverRaster],
    forest: RandomForest,
    patch: int = DEFAULT_PATCH,
    stride: Optional[int] = None,
    feature_mode: str = SCHEMA_HRF,
    embeddings: Optional[EmbeddingGrid] = None,
) -> tuple[HeightRaster, dict[str, int]]:
    """Predict a dense residual raster from the trained forest, and its
    coverage: ``windows_scored``, ``windows_dropped`` (no valid prediction
    pixel) and ``pixels_uncovered`` (under no scored window).

    Windows of ``patch`` pixels tile the raster at ``stride`` (default
    patch // 2; a stride above the patch would leave pixels between the
    windows and raises ValueError); each window that covers a valid
    prediction pixel contributes one scalar and each pixel averages the
    windows covering it.  The window edges cut the raster into blocks that
    one set of windows covers: scalars are summed per block in row-major
    window order, and the float32 block means repeated out to the pixels.
    Pixels under no scored window are invalid and get residual 0.
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
    rows0 = _window_origins(h.height, patch, stride)
    cols0 = _window_origins(h.width, patch, stride)
    right = np.minimum(cols0 + patch, h.width)
    # each window row's windows that hold a valid pixel, from the column
    # sums of the valid mask under that row
    hits = []
    for r0 in rows0:
        valid_left = np.zeros(h.width + 1, dtype=np.int64)
        np.cumsum(valid_mask(pred, slice(r0, r0 + patch)).sum(axis=0), out=valid_left[1:])
        hits.append(cols0[valid_left[right] > valid_left[cols0]])
    origins = np.concatenate(
        [np.stack([np.full(len(c0), r0), c0], axis=1) for r0, c0 in zip(rows0, hits)]
    )
    if not len(origins):
        raise ValueError("no window covers a valid prediction pixel")

    matrix = _feature_matrix(origins, pred, optical, lc, embeddings, feature_mode, patch)
    scalars = predict_batch(forest, matrix)

    # block edges on each axis: the window starts and clipped ends; blocks
    # sum in row-major window order, as each pixel's own sum would
    row_edges = np.union1d(rows0, np.minimum(rows0 + patch, h.height))
    col_edges = np.union1d(cols0, right)
    ends = np.minimum(origins + patch, [h.height, h.width])
    top, bottom = np.searchsorted(row_edges, [origins[:, 0], ends[:, 0]])
    left, stop = np.searchsorted(col_edges, [origins[:, 1], ends[:, 1]])
    # the blocks each window covers, window by window: np.add.at adds in
    # this order, so each block sums its windows in row-major window order
    shape = (len(row_edges) - 1, len(col_edges) - 1)
    across = stop - left
    covered = (bottom - top) * across
    window = np.repeat(np.arange(len(origins)), covered)
    k = np.arange(int(covered.sum())) - np.repeat(np.cumsum(covered) - covered, covered)
    block = (top[window] + k // across[window]) * shape[1] + left[window] + k % across[window]
    sums = np.zeros(shape, dtype=np.float64)
    np.add.at(sums.ravel(), block, scalars[window])
    counts = np.bincount(block, minlength=sums.size).reshape(shape)
    empty = counts == 0
    for r, c in zip(*np.nonzero(empty)):
        rows = slice(row_edges[r], row_edges[r + 1])
        if valid_mask(pred, rows)[:, col_edges[c] : col_edges[c + 1]].any():
            raise AssertionError("window tiling left valid pixels uncovered")
    means = np.divide(sums, counts, out=np.zeros_like(sums), where=counts > 0)
    heights, widths = np.diff(row_edges), np.diff(col_edges)
    values = np.repeat(np.repeat(means.astype(np.float32), heights, axis=0), widths, axis=1)
    return height_like(h, values), {
        "windows_scored": len(origins),
        "windows_dropped": len(rows0) * len(cols0) - len(origins),
        "pixels_uncovered": int(np.outer(heights, widths)[empty].sum()),
    }


def apply_correction(pred: HeightRaster, residual: HeightRaster) -> HeightRaster:
    """Subtract the residual raster from the prediction, clamped at >= 0 m.

    Invalid pixels (nodata or non-finite) pass through unchanged.
    """
    if not pred.header.same_grid(residual.header):
        raise ValueError("residual field is on a different grid than the prediction")
    out = np.empty_like(pred.values)
    for rows in row_strips(pred.header.height):
        values = pred.values[rows].astype(np.float64)
        corrected = np.maximum(values - residual.values[rows].astype(np.float64), 0.0)
        out[rows] = np.where(valid_mask(pred, rows), corrected, values)
    return height_like(pred.header, out, nodata=pred.header.nodata)
