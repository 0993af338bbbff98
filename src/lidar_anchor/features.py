"""Per-window feature vectors for the residual regressor.

Two schemas exist.  "hrf27" is a frozen 27-slot handcrafted vector computed
from a prediction patch, an RGB patch, and a land-cover patch; its index
layout is append-only and documented by HRF_FEATURE_NAMES.  ``hrf_features``
computes it for the windows of one box at once, each row bit-identical to
the vector of its window computed alone; ``correction._feature_matrix``
feeds it fixed-size chunks of windows.  "nrf" is the embedding-grid cell
covering the window center, with whatever dimensionality the grid carries;
``correction._feature_matrix`` gathers it for all windows at once.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .raster import (
    box_windows,
    padded_sobel_magnitude,
    percentile,
    segment_sums,
    sobel_magnitude,
    valid_values,
)

SCHEMA_HRF = "hrf27"
SCHEMA_NRF = "nrf"

GROUP_PREDICTION = "prediction_stats"
GROUP_GRADIENT = "gradient"
GROUP_OPTICAL = "optical"
GROUP_LANDCOVER = "landcover"

# Index layout of the hrf27 schema.  Frozen: new features may only be
# appended, never inserted or reordered.
HRF_FEATURE_NAMES = (
    "pred_mean",        # 0
    "pred_std",         # 1
    "pred_min",         # 2
    "pred_max",         # 3
    "pred_p90",         # 4
    "pred_p10",         # 5
    "grad_mean",        # 6
    "grad_std",         # 7
    "grad_p95",         # 8
    "red_mean",         # 9
    "red_std",          # 10
    "green_mean",       # 11
    "green_std",        # 12
    "blue_mean",        # 13
    "blue_std",         # 14
    "green_red_index_mean",  # 15
    "green_red_index_std",   # 16
    "red_green_ratio",  # 17
    "lc_frac_bareland",     # 18
    "lc_frac_rangeland",    # 19
    "lc_frac_developed",    # 20
    "lc_frac_road",         # 21
    "lc_frac_tree",         # 22
    "lc_frac_water",        # 23
    "lc_frac_agriculture",  # 24
    "lc_frac_building",     # 25
    "lc_entropy",       # 26
)

HRF_GROUPS = (
    (GROUP_PREDICTION,) * 6
    + (GROUP_GRADIENT,) * 3
    + (GROUP_OPTICAL,) * 9
    + (GROUP_LANDCOVER,) * 9
)

HRF_DIM = len(HRF_FEATURE_NAMES)

_EPS = 1e-6


def hrf_features(
    pred: np.ndarray,
    optical: np.ndarray,
    lc: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    patch: int,
    pred_nodata: Optional[float] = None,
    lc_nodata: Optional[float] = None,
) -> np.ndarray:
    """The 27-slot handcrafted feature vectors of k windows of one box, as
    a (k, 27) float64 matrix.

    The box is given by its prediction (h, w), uint8 RGB (h, w, 3) and
    land-cover (h, w) pixels; the windows by the box row and column of
    their top-left pixels, ``rows`` and ``cols``, and their size ``patch``.
    Prediction statistics are taken over valid (non-nodata) pixels; for the
    gradient, nodata pixels are first filled with the window's valid mean
    so the Sobel response stays finite.  Optical channels are scaled to
    [0, 1].  Land-cover fractions cover the eight class codes in order
    (codes other than nodata must lie in 0..7, as ``LandCoverRaster``
    ensures), and the last slot is their Shannon entropy (natural log).

    Every row equals the vector of its window computed alone, bit for bit.
    The per-pixel transforms (float64 prediction, Sobel magnitude, RGB on
    [0, 1], green-red index) are computed once over the box and the windows
    cut from them.  Sobel replicates a window's own edge, so the outer ring
    of each window's gradient, and the whole gradient of a window holding
    an invalid pixel, are computed per window.  Each statistic reduces one
    contiguous run of memory per window and channel (numpy sums such a run
    pairwise, as it sums a window alone), and ragged sets (valid pixels,
    nonzero fractions) are reduced in groups of one length.

    Raises ValueError when a window has no valid prediction pixel at all,
    or leaves the box.
    """
    pred = np.asarray(pred, dtype=np.float64)
    optical = np.asarray(optical)
    lc = np.asarray(lc)
    if pred.ndim != 2:
        raise ValueError(f"prediction box must be 2-D, got shape {pred.shape}")
    if optical.shape != pred.shape + (3,):
        raise ValueError(
            f"optical box shape {optical.shape} does not match prediction {pred.shape}"
        )
    if lc.shape != pred.shape:
        raise ValueError(f"land-cover box shape {lc.shape} does not match prediction {pred.shape}")

    # the per-pixel transforms, one box channel each: the prediction, its
    # Sobel magnitude, RGB on [0, 1] and the green-red index; the gradient
    # of the box's outer ring is left unset, as it lies on windows' rings
    box = np.empty((6,) + pred.shape)
    box[0] = pred
    with np.errstate(invalid="ignore"):  # inf - inf by invalid pixels, redone below
        box[1, 1:-1, 1:-1] = padded_sobel_magnitude(pred)
    np.divide(optical.transpose(2, 0, 1), 255.0, out=box[2:5])
    red, green = box[2], box[3]
    np.divide(green - red, green + red + _EPS, out=box[5])
    box_valid = valid_values(pred, pred_nodata)

    windows = box_windows(box, rows, cols, patch)
    k, n_pix = len(windows), patch * patch
    valid = box_windows(box_valid, rows, cols, patch).reshape(k, n_pix)
    n_valid = valid.sum(axis=1)
    if not n_valid.all():
        i = int(np.argmin(n_valid))
        raise ValueError(f"prediction patch of window {i} contains no valid pixel")
    # one row per window and channel
    flat = windows.reshape(k, 6, n_pix)
    pv, grad = flat[:, 0], windows[:, 1]
    out = np.empty((k, HRF_DIM), dtype=np.float64)
    _ragged_stats(pv, valid, n_valid, out)
    with np.errstate(invalid="ignore"):
        _own_edge_gradient(grad, windows[:, 0])
    partial = np.nonzero(n_valid < n_pix)[0]
    if partial.size:
        filled = np.where(valid[partial], pv[partial], out[partial, :1])
        grad[partial] = sobel_magnitude(filled.reshape(-1, patch, patch))

    # the mean and std slots of the gradient, red, green, blue and green-red
    # index, one channel at a time so that its deviations stay in cache
    for channel, slot in zip(range(1, 6), (6, 9, 11, 13, 15)):
        out[:, slot], out[:, slot + 1] = _mean_std(flat[:, channel])
    out[:, 8] = percentile(flat[:, 1], 95.0)
    out[:, 17] = out[:, 9] / (out[:, 11] + _EPS)

    # nodata counts in a ninth class, left out of the fractions
    codes = lc if lc_nodata is None else np.where(lc == lc_nodata, 8, lc)
    bins = box_windows(codes, rows, cols, patch).reshape(k, n_pix) + 9 * np.arange(k)[:, None]
    counts = np.bincount(bins.reshape(-1), minlength=9 * k).reshape(k, 9)[:, :8]
    n_lc = counts.sum(axis=1, keepdims=True)
    fractions = np.divide(counts, n_lc, out=np.zeros((k, 8)), where=n_lc > 0)
    out[:, 18:26] = fractions
    # the entropy sums each window's nonzero terms alone, in class order
    present = fractions > 0
    sizes = present.sum(axis=1)
    terms = fractions[present] * np.log(fractions[present])
    sums = segment_sums(terms, np.cumsum(sizes) - sizes, sizes)
    out[:, 26] = np.where(sizes > 0, -sums, 0.0)
    return out


def _own_edge_gradient(grad: np.ndarray, windows: np.ndarray) -> None:
    """Overwrite the outer ring of each (k, p, p) window gradient with the
    values its window gets alone: there Sobel reads the window's own
    replicated edge, which the box around it does not."""
    p = windows.shape[-1]
    # the three rows (columns) of the edge-padded window around its first
    # and last row (column), and every column (row) of it, padded
    edges = np.array([[0, 0, min(1, p - 1)], [max(p - 2, 0), p - 1, p - 1]])
    padded = np.concatenate(([0], np.arange(p), [p - 1]))
    rows = padded_sobel_magnitude(windows[:, edges[:, :, None], padded])
    grad[:, 0], grad[:, -1] = rows[:, 0, 0], rows[:, 1, 0]
    # the columns between the first and last row
    cols = padded_sobel_magnitude(windows[:, padded[1:-1, None], edges[:, None, :]])
    grad[:, 1:-1, 0], grad[:, 1:-1, -1] = cols[:, 0, :, 0], cols[:, 1, :, 0]


def _mean_std(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.mean`` and ``np.std`` over the last axis, bit for bit, from the
    one sum both take: std subtracts that mean, squares and sums again, as
    numpy's own variance does."""
    n = x.shape[-1]
    mean = x.sum(axis=-1, keepdims=True) / n
    dev = np.subtract(x, mean)
    np.square(dev, out=dev)
    return mean[..., 0], np.sqrt(dev.sum(axis=-1) / n)


def _ragged_stats(pv: np.ndarray, valid: np.ndarray, n_valid: np.ndarray, out: np.ndarray) -> None:
    """Slots 0..5 of each row of ``pv`` over its valid pixels, one pass per
    distinct valid count: the valid pixels of those windows, in row-major
    order, are the rows of one matrix."""
    n_pix = pv.shape[1]
    for m in np.unique(n_valid).tolist():
        rows = np.nonzero(n_valid == m)[0]
        vals = pv[rows] if m == n_pix else pv[rows][valid[rows]].reshape(rows.size, m)
        out[rows, 0], out[rows, 1] = _mean_std(vals)
        out[rows, 2] = np.min(vals, axis=1)
        out[rows, 3] = np.max(vals, axis=1)
        out[rows, 4:6] = percentile(vals, (90.0, 10.0))


def feature_names(schema_id: str, n_features: int) -> tuple[str, ...]:
    """Stable display names for each slot of a schema."""
    if schema_id == SCHEMA_HRF:
        if n_features != HRF_DIM:
            raise ValueError(f"schema {SCHEMA_HRF} has {HRF_DIM} features, got {n_features}")
        return HRF_FEATURE_NAMES
    if schema_id == SCHEMA_NRF:
        width = max(1, int(math.ceil(math.log10(max(n_features, 2)))))
        return tuple(f"embedding_{i:0{width}d}" for i in range(n_features))
    raise ValueError(f"unknown feature schema {schema_id!r}")


def feature_groups(schema_id: str, n_features: int) -> tuple[str, ...]:
    """Group label per slot, used by the importance report."""
    if schema_id == SCHEMA_HRF:
        if n_features != HRF_DIM:
            raise ValueError(f"schema {SCHEMA_HRF} has {HRF_DIM} features, got {n_features}")
        return HRF_GROUPS
    if schema_id == SCHEMA_NRF:
        return ("embedding",) * n_features
    raise ValueError(f"unknown feature schema {schema_id!r}")
