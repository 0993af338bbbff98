"""Per-window feature vectors for the residual regressor.

Two schemas exist.  "hrf27" is a frozen 27-slot handcrafted vector computed
from a prediction patch, an RGB patch, and a land-cover patch; its index
layout is append-only and documented by HRF_FEATURE_NAMES.  "nrf" is the
embedding-grid cell covering the window center, with whatever dimensionality
the grid carries; ``correction._feature_matrix`` gathers it for all windows
at once.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .raster import percentile, sobel_magnitude

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
    pred_patch: np.ndarray,
    optical_patch: np.ndarray,
    lc_patch: np.ndarray,
    pred_nodata: Optional[float] = None,
    lc_nodata: Optional[float] = None,
) -> np.ndarray:
    """The 27-slot handcrafted feature vector of one window, as float64.

    Prediction statistics are taken over valid (non-nodata) pixels; for the
    gradient, nodata pixels are first filled with the patch's valid mean so
    the Sobel response stays finite.  Optical channels are scaled to [0, 1].
    Land-cover fractions cover the eight class codes in order (codes other
    than nodata must lie in 0..7, as ``LandCoverRaster`` ensures), and the
    last slot is their Shannon entropy (natural log).

    Raises ValueError when the prediction patch has no valid pixel at all.
    """
    pred = np.asarray(pred_patch, dtype=np.float64)
    optical = np.asarray(optical_patch, dtype=np.float64)
    lc = np.asarray(lc_patch)
    if pred.ndim != 2:
        raise ValueError(f"prediction patch must be 2D, got shape {pred.shape}")
    if optical.shape != pred.shape + (3,):
        raise ValueError(
            f"optical patch shape {optical.shape} does not match prediction {pred.shape}"
        )
    if lc.shape != pred.shape:
        raise ValueError(f"land-cover patch shape {lc.shape} does not match prediction {pred.shape}")

    valid = np.isfinite(pred)
    if pred_nodata is not None:
        valid &= pred != pred_nodata
    if not valid.any():
        raise ValueError("prediction patch contains no valid pixel")
    pv = pred[valid]

    filled = pred.copy()
    filled[~valid] = float(np.mean(pv))
    grad = sobel_magnitude(filled)

    rgb = optical / 255.0
    r = rgb[:, :, 0]
    g = rgb[:, :, 1]
    b = rgb[:, :, 2]
    gr_index = (g - r) / (g + r + _EPS)
    red_green_ratio = float(np.mean(r)) / (float(np.mean(g)) + _EPS)

    lc_valid = np.ones(lc.shape, dtype=bool)
    if lc_nodata is not None:
        lc_valid = lc != lc_nodata
    n_lc = int(lc_valid.sum())
    if n_lc > 0:
        fractions = np.bincount(lc[lc_valid].astype(np.int64), minlength=8).astype(np.float64) / n_lc
    else:
        fractions = np.zeros(8, dtype=np.float64)
    nonzero = fractions[fractions > 0]
    entropy = float(-np.sum(nonzero * np.log(nonzero))) if nonzero.size else 0.0

    return np.array(
        [
            float(np.mean(pv)),
            float(np.std(pv)),
            float(np.min(pv)),
            float(np.max(pv)),
            percentile(pv, 90.0),
            percentile(pv, 10.0),
            float(np.mean(grad)),
            float(np.std(grad)),
            percentile(grad, 95.0),
            float(np.mean(r)),
            float(np.std(r)),
            float(np.mean(g)),
            float(np.std(g)),
            float(np.mean(b)),
            float(np.std(b)),
            float(np.mean(gr_index)),
            float(np.std(gr_index)),
            red_green_ratio,
            *fractions.tolist(),
            entropy,
        ],
        dtype=np.float64,
    )


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
