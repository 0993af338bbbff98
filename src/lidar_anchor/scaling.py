"""Affine calibration of relative depth rasters against photon heights.

Relative monocular depths carry no units; a least-squares line through
(footprint-averaged depth, photon height) pairs recovers the scale and
offset that place the raster in meters.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .raster import (
    DEFAULT_FOOTPRINT,
    HeightRaster,
    footprint_mean,
    height_like,
    row_strips,
    valid_mask,
)

logger = logging.getLogger(__name__)

MIN_FIT_POINTS = 10


@dataclass(frozen=True)
class AffineFit:
    """Result of the depth-to-height line fit: height = a * depth + b."""

    a: float
    b: float
    n_points: int
    rmse: float


def fit_affine(
    depth: HeightRaster,
    clean: np.ndarray,
    footprint: float = DEFAULT_FOOTPRINT,
) -> AffineFit:
    """Fit height = a * depth + b over a clean-photon table
    (``photons.CLEAN_DTYPE``; only ``x``, ``y`` and ``h_ag`` are read).

    Depth is sampled as a footprint mean around each photon; photons whose
    footprint has no valid depth are skipped.  Requires at least 10 usable
    points with non-constant depth.  The line is the ordinary least-squares
    fit.

    The fit is independent of photon input order.
    """
    means = footprint_mean(depth, clean["x"], clean["y"], footprint)
    usable = ~np.isnan(means)
    d = means[usable]
    h = clean["h_ag"][usable]
    if d.size < MIN_FIT_POINTS:
        raise ValueError(
            f"affine fit needs at least {MIN_FIT_POINTS} usable photons, got {d.size}"
        )

    # Canonical summation order so the result ignores photon ordering.
    order = np.lexsort((h, d))
    d = d[order]
    h = h[order]

    if np.ptp(d) == 0.0:
        raise ValueError("affine fit is degenerate: all depth samples are equal")

    dm = np.sum(d) / d.size
    hm = np.sum(h) / h.size
    var = np.sum((d - dm) ** 2)
    if var == 0.0:
        raise ValueError("affine fit is degenerate: depth variance is zero")
    a = float(np.sum((d - dm) * (h - hm)) / var)
    b = float(hm - a * dm)

    resid = h - (a * d + b)
    rmse = float(np.sqrt(np.mean(resid * resid)))
    logger.info("affine fit: a=%.6g b=%.6g n=%d rmse=%.4g", a, b, d.size, rmse)
    return AffineFit(a=a, b=b, n_points=int(d.size), rmse=rmse)


def apply_affine(depth: HeightRaster, fit: AffineFit) -> HeightRaster:
    """Map a relative depth raster to meters: a * depth + b, elementwise.

    Invalid pixels (nodata or non-finite) pass through unchanged.  Each
    strip of rows is mapped in float64 and rounded into the float32 result.
    """
    out = np.empty_like(depth.values)
    for rows in row_strips(depth.header.height):
        values = depth.values[rows].astype(np.float64)
        out[rows] = np.where(valid_mask(depth, rows), fit.a * values + fit.b, values)
    return height_like(depth.header, out, nodata=depth.header.nodata)
