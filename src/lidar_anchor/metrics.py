"""Raster comparison metrics for height fields.

All pixel metrics ignore pixels that are nodata or non-finite in either
raster.  A pair is scored in strips of ``SSIM_STRIP`` rows, top to bottom,
so the float64 temporaries of every metric grow with the raster's width,
not its area: ``evaluate`` takes each strip's jointly valid pixels once and
adds them to the absolute and squared error sums and the F1 counts,
``ssim`` computes each strip's moments and adds up its window scores, and
``per_class_breakdown`` bins each strip's errors by land-cover class.  The
strip order is fixed, so the sums, and every result, are deterministic.

SSIM follows the standard Gaussian-window formulation (11x11 window, sigma
1.5, C1 = (0.01 L)^2, C2 = (0.03 L)^2) with the dynamic range L taken from
the reference raster's valid values and clamped below at 1 m so near-flat
references do not blow up the stabilizers.  Its Gaussian moments are taken
as two 1-D numpy passes (the window is separable), only where the window
lies inside the raster and summed as ``scipy.ndimage.correlate1d`` sums
them; the usable windows come from integral counts of invalid pixels.  The height-error F1 counts a
pixel as a true positive when both heights exceed a threshold and their
ratio (after flooring both at 0.1 m) stays below eta.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .raster import (
    LC_CLASSES,
    STRIP_ROWS,
    HeightRaster,
    LandCoverRaster,
    row_strips,
    valid_mask,
)

logger = logging.getLogger(__name__)

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_STRIP = STRIP_ROWS  # rows per strip of the scoring passes
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


def _joint_valid(pred: HeightRaster, ref: HeightRaster, rows: slice) -> np.ndarray:
    """Pixels of a strip of rows that are finite and not nodata in both rasters."""
    return valid_mask(pred, rows) & valid_mask(ref, rows)


def _gaussian_kernel(size: int, sigma: float) -> np.ndarray:
    """One axis of the separable Gaussian window, summing to 1."""
    half = (size - 1) / 2.0
    ax = np.arange(size, dtype=np.float64) - half
    g = np.exp(-(ax * ax) / (2.0 * sigma * sigma))
    return g / g.sum()


# Rows of a Gaussian pass computed at a time, so that its temporaries stay
# in cache.
_PASS_ROWS = 16


def _gaussian_pass(arr: np.ndarray, kernel: np.ndarray, axis: int) -> np.ndarray:
    """The correlation of ``arr`` with the odd, symmetric ``kernel`` along
    ``axis``, at the positions where the kernel lies inside ``arr``.  It
    sums as ``scipy.ndimage.correlate1d`` does for a symmetric kernel: the
    centre pixel times the centre weight, then from the outermost pair
    inwards the pair's sum times its weight."""
    size = len(kernel)
    half = size // 2
    rows, cols = arr.shape
    out = np.empty((rows - 2 * half, cols) if axis == 0 else (rows, cols - 2 * half))
    pair = np.empty((_PASS_ROWS, out.shape[1]))
    for lo in range(0, len(out), _PASS_ROWS):
        hi = min(lo + _PASS_ROWS, len(out))
        if axis == 0:
            taps = [arr[lo + k : hi + k] for k in range(size)]
        else:
            taps = [arr[lo:hi, k : k + out.shape[1]] for k in range(size)]
        acc, tmp = out[lo:hi], pair[: hi - lo]
        np.multiply(taps[half], kernel[half], out=acc)
        for k in range(half):
            np.add(taps[k], taps[size - 1 - k], out=tmp)
            tmp *= kernel[k]
            acc += tmp
    return out


def _windows_without(bad: np.ndarray, size: int) -> np.ndarray:
    """Whether each ``size`` x ``size`` window lying inside ``bad`` holds no
    true pixel, from the integral counts of its true pixels."""
    counts = np.zeros((bad.shape[0] + 1, bad.shape[1] + 1), dtype=np.int32)
    np.cumsum(bad, axis=0, dtype=np.int32, out=counts[1:, 1:])
    np.cumsum(counts[1:, 1:], axis=1, out=counts[1:, 1:])
    right = counts[size:, size:] - counts[:-size, size:]
    return right == counts[size:, :-size] - counts[:-size, :-size]


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

    # the dynamic range of the reference's jointly valid values
    low, high = np.inf, -np.inf
    for rows in row_strips(h.height, SSIM_STRIP):
        ref_valid = ref.values[rows][_joint_valid(pred, ref, rows)]
        if ref_valid.size:
            low = min(low, float(ref_valid.min()))
            high = max(high, float(ref_valid.max()))
    if low > high:
        raise ValueError("no jointly valid pixels to compare")
    dynamic_range = max(high - low, 1.0)
    c1 = (0.01 * dynamic_range) ** 2
    c2 = (0.03 * dynamic_range) ** 2

    kernel = _gaussian_kernel(SSIM_WINDOW, SSIM_SIGMA)
    half = SSIM_WINDOW // 2

    def local(arr: np.ndarray) -> np.ndarray:
        # window means at the positions whose window lies inside ``arr``
        return _gaussian_pass(_gaussian_pass(arr, kernel, axis=1), kernel, axis=0)

    total = 0.0
    count = 0
    # strips of output rows; each reads its rows plus ``half`` on either side
    for out_rows in row_strips(h.height - 2 * half, SSIM_STRIP):
        rows = slice(out_rows.start, out_rows.stop + 2 * half)
        # a window is usable when every pixel under it is valid
        usable = _windows_without(~_joint_valid(pred, ref, rows), SSIM_WINDOW)
        if not usable.any():
            continue
        x = pred.values[rows].astype(np.float64)
        y = ref.values[rows].astype(np.float64)
        # windows over a non-finite pixel give NaN or overflow here; none of
        # them is usable
        with np.errstate(over="ignore", invalid="ignore"):
            mu_x = local(x)
            mu_y = local(y)
            var_x = local(x * x) - mu_x * mu_x
            var_y = local(y * y) - mu_y * mu_y
            cov = local(x * y) - mu_x * mu_y
            score = ((2.0 * mu_x * mu_y + c1) * (2.0 * cov + c2)) / (
                (mu_x * mu_x + mu_y * mu_y + c1) * (var_x + var_y + c2)
            )
        total += float(np.sum(score[usable]))
        count += int(np.count_nonzero(usable))
    if count == 0:
        raise UndefinedSSIM("every SSIM window touches a nodata pixel")
    return total / count


def _error_sums(pred: HeightRaster, ref: HeightRaster) -> tuple[int, float, float, int, int, int]:
    """Over the jointly valid pixels, strip by strip: their number, the sums
    of |pred - ref| and (pred - ref)^2, the F1's true and false positives,
    and the reference pixels above the height threshold."""
    n_valid = tp = fp = ref_above = 0
    abs_sum = sq_sum = 0.0
    for rows in row_strips(pred.header.height, SSIM_STRIP):
        valid = _joint_valid(pred, ref, rows)
        p = pred.values[rows][valid].astype(np.float64)
        r = ref.values[rows][valid].astype(np.float64)
        d = p - r
        n_valid += d.size
        abs_sum += float(np.sum(np.abs(d)))
        sq_sum += float(np.sum(d * d))

        pf = np.maximum(p, RATIO_FLOOR)
        rf = np.maximum(r, RATIO_FLOOR)
        delta = np.maximum(pf / rf, rf / pf)
        p_above = p > DEFAULT_HEIGHT_THRESHOLD
        r_above = r > DEFAULT_HEIGHT_THRESHOLD
        tp += int(np.count_nonzero(p_above & r_above & (delta < DEFAULT_RATIO_LIMIT)))
        fp += int(np.count_nonzero(p_above & ~r_above))
        ref_above += int(np.count_nonzero(r_above))
    return n_valid, abs_sum, sq_sum, tp, fp, ref_above


def evaluate(pred: HeightRaster, ref: HeightRaster) -> MetricsReport:
    """All metrics for one raster pair in a single report.

    MAE and RMSE are over jointly valid pixels.  For the height-error F1,
    with both heights floored at 0.1 m, delta = max(pred/ref, ref/pred);
    TP: both above the threshold and delta < eta; FP: prediction above,
    reference not; FN: reference above, prediction not or delta too large.
    When the reference has no pixel above the threshold, recall is
    undefined: it reads 0, with a warning and the flag ``recall_undefined``.
    SSIM is None, with the flag ``ssim_undefined``, where no window is usable.
    """
    _check_pair(pred, ref)
    n_valid, abs_sum, sq_sum, tp, fp, ref_above = _error_sums(pred, ref)
    if n_valid == 0:
        raise ValueError("no jointly valid pixels to compare")

    flags: list[str] = []
    if ref_above == 0:
        logger.warning(
            "reference has no pixel above %.3g m; recall undefined, reporting 0",
            DEFAULT_HEIGHT_THRESHOLD,
        )
        flags.append("recall_undefined")

    try:
        ssim_value = ssim(pred, ref)
    except UndefinedSSIM as exc:
        logger.warning("SSIM undefined, reporting null: %s", exc)
        ssim_value = None
        flags.append("ssim_undefined")

    fn = ref_above - tp
    precision = tp / (tp + fp) if (tp + fp) > 0 else 0.0
    recall = tp / (tp + fn) if (tp + fn) > 0 else 0.0
    f1 = 2.0 * precision * recall / (precision + recall) if (precision + recall) > 0 else 0.0
    return MetricsReport(
        mae=abs_sum / n_valid,
        rmse=math.sqrt(sq_sum / n_valid),
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

    n_classes = len(LC_CLASSES)
    count = np.zeros(n_classes, dtype=np.int64)
    abs_sum = np.zeros(n_classes)
    sq_sum = np.zeros(n_classes)
    diff_sum = np.zeros(n_classes)
    for rows in row_strips(pred.header.height, SSIM_STRIP):
        valid = _joint_valid(pred, ref, rows) & valid_mask(lc, rows)
        codes = lc.values[rows][valid]
        d = pred.values[rows][valid].astype(np.float64) - ref.values[rows][valid]
        # codes outside the class table bin past it and are left out
        count += np.bincount(codes, minlength=n_classes)[:n_classes]
        for sums, weights in ((abs_sum, np.abs(d)), (sq_sum, d * d), (diff_sum, d)):
            sums += np.bincount(codes, weights=weights, minlength=n_classes)[:n_classes]

    return [
        {
            "class_code": code,
            "class_name": LC_CLASSES[code],
            "n_pixels": int(count[code]),
            "mae": float(abs_sum[code] / count[code]),
            "rmse": math.sqrt(sq_sum[code] / count[code]),
            "bias": float(diff_sum[code] / count[code]),
        }
        for code in np.flatnonzero(count).tolist()
    ]
