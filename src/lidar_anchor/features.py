"""Per-window feature vectors for the residual regressor.

Two schemas exist.  "hrf27" is a frozen 27-slot handcrafted vector computed
from a prediction patch, an RGB patch, and a land-cover patch; its index
layout is append-only and documented by HRF_FEATURE_NAMES.  ``hrf_features``
computes it for a stack of windows at once, each row bit-identical to the
vector of its window computed alone; ``correction._feature_matrix`` feeds it
fixed-size chunks of windows.  "nrf" is the embedding-grid cell covering the
window center, with whatever dimensionality the grid carries;
``correction._feature_matrix`` gathers it for all windows at once.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .raster import percentile, segment_sums, sobel_magnitude

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
# each 8-bit level scaled to [0, 1], as level / 255.0 computes it
_UNIT_LEVELS = np.arange(256) / 255.0


def hrf_features(
    pred: np.ndarray,
    optical: np.ndarray,
    lc: np.ndarray,
    pred_nodata: Optional[float] = None,
    lc_nodata: Optional[float] = None,
) -> np.ndarray:
    """The 27-slot handcrafted feature vectors of a stack of k windows, as
    a (k, 27) float64 matrix.

    Inputs are the windows' prediction (k, p, p), uint8 RGB (k, p, p, 3)
    and land-cover (k, p, p) patches.  Prediction statistics are taken over
    valid (non-nodata) pixels; for the gradient, nodata pixels are first
    filled with the window's valid mean so the Sobel response stays finite.
    Optical channels are scaled to [0, 1].  Land-cover fractions cover the
    eight class codes in order (codes other than nodata must lie in 0..7,
    as ``LandCoverRaster`` ensures), and the last slot is their Shannon
    entropy (natural log).

    Every row equals the vector of its window computed alone, bit for bit:
    each statistic reduces one C-contiguous row per window (numpy sums such
    a row pairwise, as it sums a window alone), and ragged sets (valid
    pixels, nonzero fractions) are reduced in groups of one length.

    Raises ValueError when a window has no valid prediction pixel at all.
    """
    pred = np.ascontiguousarray(pred, dtype=np.float64)
    optical = np.asarray(optical)
    lc = np.asarray(lc)
    if pred.ndim != 3:
        raise ValueError(f"prediction patches must be a (k, p, p) stack, got shape {pred.shape}")
    if optical.shape != pred.shape + (3,):
        raise ValueError(
            f"optical patch shape {optical.shape} does not match prediction {pred.shape}"
        )
    if lc.shape != pred.shape:
        raise ValueError(f"land-cover patch shape {lc.shape} does not match prediction {pred.shape}")
    k = pred.shape[0]
    n_pix = pred.shape[1] * pred.shape[2]
    out = np.empty((k, HRF_DIM), dtype=np.float64)

    pv = pred.reshape(k, n_pix)
    valid = np.isfinite(pv)
    if pred_nodata is not None:
        valid &= pv != pred_nodata
    n_valid = valid.sum(axis=1)
    if not n_valid.all():
        i = int(np.argmin(n_valid))
        raise ValueError(f"prediction patch of window {i} contains no valid pixel")
    _ragged_stats(pv, valid, n_valid, out)
    filled = np.where(valid, pv, out[:, :1]) if (n_valid < n_pix).any() else pv

    grad = sobel_magnitude(filled.reshape(pred.shape)).reshape(k, n_pix)
    out[:, 6] = np.mean(grad, axis=1)
    out[:, 7] = np.std(grad, axis=1)
    out[:, 8] = percentile(grad, 95.0)

    # one contiguous row per window and channel: (k, 3, p * p)
    rgb = _UNIT_LEVELS[np.ascontiguousarray(np.moveaxis(optical, -1, 1)).reshape(k, 3, n_pix)]
    r, g = rgb[:, 0], rgb[:, 1]
    gr_index = (g - r) / (g + r + _EPS)
    means = np.mean(rgb, axis=2)
    out[:, 9:15:2] = means
    out[:, 10:15:2] = np.std(rgb, axis=2)
    out[:, 15] = np.mean(gr_index, axis=1)
    out[:, 16] = np.std(gr_index, axis=1)
    out[:, 17] = means[:, 0] / (means[:, 1] + _EPS)

    codes = lc.reshape(k, n_pix).astype(np.int64)
    lc_valid = np.ones(codes.shape, dtype=bool) if lc_nodata is None else codes != lc_nodata
    counts = np.bincount((codes + 8 * np.arange(k)[:, None])[lc_valid], minlength=8 * k)
    counts = counts.reshape(k, 8)
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


def _ragged_stats(pv: np.ndarray, valid: np.ndarray, n_valid: np.ndarray, out: np.ndarray) -> None:
    """Slots 0..5 of each row of ``pv`` over its valid pixels, one pass per
    distinct valid count: the valid pixels of those windows, in row-major
    order, are the rows of one matrix."""
    n_pix = pv.shape[1]
    for m in np.unique(n_valid).tolist():
        rows = np.nonzero(n_valid == m)[0]
        vals = pv[rows] if m == n_pix else pv[rows][valid[rows]].reshape(rows.size, m)
        out[rows, 0] = np.mean(vals, axis=1)
        out[rows, 1] = np.std(vals, axis=1)
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
