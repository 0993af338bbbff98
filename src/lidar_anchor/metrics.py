"""Raster comparison metrics for height fields.

All pixel metrics ignore pixels that are nodata or non-finite in either
raster.  SSIM follows the standard Gaussian-window formulation (11x11
window, sigma 1.5, C1 = (0.01 L)^2, C2 = (0.03 L)^2) with the dynamic range
L taken from the reference raster's valid values and clamped below at 1 m so
near-flat references do not blow up the stabilizers.  Its Gaussian moments
are taken as two 1-D passes (the window is separable) over strips of rows,
so that the moment arrays grow with the strip, not the raster.  The
height-error F1 counts a pixel as a true positive when both heights exceed
a threshold and their ratio (after flooring both at 0.1 m) stays below eta.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy import ndimage

from .raster import HeightRaster, LC_CLASSES, LandCoverRaster, valid_mask

logger = logging.getLogger(__name__)

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_STRIP = 64  # output rows per strip of SSIM moments
RATIO_FLOOR = 0.1
DEFAULT_HEIGHT_THRESHOLD = 1.0
DEFAULT_RATIO_LIMIT = 1.25


@dataclass(frozen=True)
class MetricsReport:
    """Bundle of all comparison metrics for one raster pair."""

    mae: float
    rmse: float
    ssim: Optional[float]  # None where SSIM is undefined (flag ssim_undefined)
    precision: float
    recall: float
    f1_he: float
    n_valid: int
    params: dict = field(default_factory=dict)
    flags: tuple[str, ...] = ()


class UndefinedSSIM(ValueError):
    """SSIM has no usable window: the rasters are smaller than the window,
    or every window touches an invalid pixel."""


def _check_pair(pred: HeightRaster, ref: HeightRaster) -> None:
    if not pred.header.same_grid(ref.header):
        raise ValueError(
            "prediction and reference rasters are on different grids: "
            f"{pred.header.width}x{pred.header.height}@{pred.header.gsd} vs "
            f"{ref.header.width}x{ref.header.height}@{ref.header.gsd}"
        )


def _joint_valid(pred: HeightRaster, ref: HeightRaster) -> np.ndarray:
    """Pixels that are finite and not nodata in both rasters."""
    return valid_mask(pred) & valid_mask(ref)


def mae(pred: HeightRaster, ref: HeightRaster) -> float:
    """Mean absolute error over jointly valid pixels."""
    _check_pair(pred, ref)
    valid = _joint_valid(pred, ref)
    if not valid.any():
        raise ValueError("no jointly valid pixels to compare")
    diff = pred.values.astype(np.float64)[valid] - ref.values.astype(np.float64)[valid]
    return float(np.mean(np.abs(diff)))


def rmse(pred: HeightRaster, ref: HeightRaster) -> float:
    """Root mean square error over jointly valid pixels."""
    _check_pair(pred, ref)
    valid = _joint_valid(pred, ref)
    if not valid.any():
        raise ValueError("no jointly valid pixels to compare")
    diff = pred.values.astype(np.float64)[valid] - ref.values.astype(np.float64)[valid]
    return float(np.sqrt(np.mean(diff * diff)))


def _gaussian_kernel(size: int, sigma: float) -> np.ndarray:
    """One axis of the separable Gaussian window, summing to 1."""
    half = (size - 1) / 2.0
    ax = np.arange(size, dtype=np.float64) - half
    g = np.exp(-(ax * ax) / (2.0 * sigma * sigma))
    return g / g.sum()


def ssim(pred: HeightRaster, ref: HeightRaster) -> float:
    """Mean structural similarity over all fully interior window positions.

    Windows containing any invalid pixel in either raster are excluded.
    Identical rasters score exactly 1.  Raises ``UndefinedSSIM`` when no
    window is usable.
    """
    _check_pair(pred, ref)
    h = pred.header
    if h.width < SSIM_WINDOW or h.height < SSIM_WINDOW:
        raise UndefinedSSIM(
            f"rasters ({h.width}x{h.height}) are smaller than the "
            f"{SSIM_WINDOW}x{SSIM_WINDOW} SSIM window"
        )

    valid = _joint_valid(pred, ref)
    ref_valid = ref.values[valid].astype(np.float64)
    if ref_valid.size == 0:
        raise ValueError("no jointly valid pixels to compare")
    dynamic_range = max(float(ref_valid.max() - ref_valid.min()), 1.0)
    c1 = (0.01 * dynamic_range) ** 2
    c2 = (0.03 * dynamic_range) ** 2

    kernel = _gaussian_kernel(SSIM_WINDOW, SSIM_SIGMA)
    half = SSIM_WINDOW // 2

    def local(arr: np.ndarray) -> np.ndarray:
        # window means at the positions whose window lies inside ``arr``
        cols = ndimage.correlate1d(arr, kernel, axis=1)[:, half:-half]
        return ndimage.correlate1d(cols, kernel, axis=0)[half:-half]

    # a window is usable when every pixel under it is valid
    usable = ndimage.minimum_filter(valid, size=SSIM_WINDOW)[half:-half, half:-half]
    if not usable.any():
        raise UndefinedSSIM("every SSIM window touches a nodata pixel")

    scores = []
    for r0 in range(0, h.height - 2 * half, SSIM_STRIP):
        r1 = min(r0 + SSIM_STRIP, h.height - 2 * half)
        x = pred.values[r0 : r1 + 2 * half].astype(np.float64)
        y = ref.values[r0 : r1 + 2 * half].astype(np.float64)
        # windows over a non-finite pixel give NaN here; none of them is usable
        with np.errstate(invalid="ignore"):
            mu_x = local(x)
            mu_y = local(y)
            var_x = local(x * x) - mu_x * mu_x
            var_y = local(y * y) - mu_y * mu_y
            cov = local(x * y) - mu_x * mu_y
            score = ((2.0 * mu_x * mu_y + c1) * (2.0 * cov + c2)) / (
                (mu_x * mu_x + mu_y * mu_y + c1) * (var_x + var_y + c2)
            )
        scores.append(score[usable[r0:r1]])
    return float(np.mean(np.concatenate(scores)))


def f1_he(
    pred: HeightRaster,
    ref: HeightRaster,
    threshold: float = DEFAULT_HEIGHT_THRESHOLD,
    eta: float = DEFAULT_RATIO_LIMIT,
) -> tuple[float, float, float]:
    """Height-error precision, recall, and F1 over jointly valid pixels.

    With both heights floored at 0.1 m, delta = max(pred/ref, ref/pred).
    TP: both above ``threshold`` and delta < eta.  FP: prediction above,
    reference below.  FN: reference above, prediction below or delta too
    large.  When the reference has no pixel above the threshold, recall is
    undefined and reported as 0 (the caller gets a warning).
    """
    _check_pair(pred, ref)
    valid = _joint_valid(pred, ref)
    if not valid.any():
        raise ValueError("no jointly valid pixels to compare")
    p = pred.values.astype(np.float64)[valid]
    r = ref.values.astype(np.float64)[valid]

    pf = np.maximum(p, RATIO_FLOOR)
    rf = np.maximum(r, RATIO_FLOOR)
    delta = np.maximum(pf / rf, rf / pf)

    p_above = p > threshold
    r_above = r > threshold
    tp = int(np.count_nonzero(p_above & r_above & (delta < eta)))
    fp = int(np.count_nonzero(p_above & ~r_above))
    fn = int(np.count_nonzero(r_above)) - tp

    if not r_above.any():
        logger.warning("reference has no pixel above %.3g m; recall undefined, reporting 0", threshold)

    precision = tp / (tp + fp) if (tp + fp) > 0 else 0.0
    recall = tp / (tp + fn) if (tp + fn) > 0 else 0.0
    f1 = 2.0 * precision * recall / (precision + recall) if (precision + recall) > 0 else 0.0
    return precision, recall, f1


def evaluate(pred: HeightRaster, ref: HeightRaster) -> MetricsReport:
    """All metrics for one raster pair in a single report."""
    _check_pair(pred, ref)
    valid = _joint_valid(pred, ref)
    n_valid = int(valid.sum())
    if n_valid == 0:
        raise ValueError("no jointly valid pixels to compare")

    flags: list[str] = []
    ref_above = ref.values.astype(np.float64)[valid] > DEFAULT_HEIGHT_THRESHOLD
    if not ref_above.any():
        flags.append("recall_undefined")

    try:
        ssim_value = ssim(pred, ref)
    except UndefinedSSIM as exc:
        logger.warning("SSIM undefined, reporting null: %s", exc)
        ssim_value = None
        flags.append("ssim_undefined")

    precision, recall, f1 = f1_he(pred, ref)
    return MetricsReport(
        mae=mae(pred, ref),
        rmse=rmse(pred, ref),
        ssim=ssim_value,
        precision=precision,
        recall=recall,
        f1_he=f1,
        n_valid=n_valid,
        params={
            "threshold": DEFAULT_HEIGHT_THRESHOLD,
            "eta": DEFAULT_RATIO_LIMIT,
            "ssim_window": SSIM_WINDOW,
            "ssim_sigma": SSIM_SIGMA,
            "ratio_floor": RATIO_FLOOR,
        },
        flags=tuple(flags),
    )


def per_class_breakdown(
    pred: HeightRaster,
    ref: HeightRaster,
    lc: LandCoverRaster,
) -> list[dict]:
    """Per-land-cover-class error statistics over jointly valid pixels.

    Returns one row per class present in the map with keys
    class_code, class_name, n_pixels, mae, rmse, bias.
    """
    _check_pair(pred, ref)
    if not pred.header.same_grid(lc.header):
        raise ValueError("land-cover raster is on a different grid")
    valid = _joint_valid(pred, ref) & valid_mask(lc)

    rows: list[dict] = []
    diff = pred.values.astype(np.float64) - ref.values.astype(np.float64)
    for code in range(len(LC_CLASSES)):
        mask = valid & (lc.values == code)
        n = int(mask.sum())
        if n == 0:
            continue
        d = diff[mask]
        rows.append(
            {
                "class_code": code,
                "class_name": LC_CLASSES[code],
                "n_pixels": n,
                "mae": float(np.mean(np.abs(d))),
                "rmse": float(np.sqrt(np.mean(d * d))),
                "bias": float(np.mean(d)),
            }
        )
    return rows
