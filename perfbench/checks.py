"""Output checks, computed with numpy from the files a round wrote and
without the program's code.  Each check returns a list of problems; an
empty list means the outputs are right.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

REL_TOL = 1e-9
# criterion 8 of the acceptance tests: clean heights against truth
MAX_HEIGHT_ERROR_M = 0.05
# photon-cleaning stage counts in the order the stages run
COUNT_ORDER = ("loaded", "confidence", "normalized", "landcover", "clean")


def read_raster(stem: Path) -> tuple[dict, np.ndarray]:
    """Header and values of a single-band float32 raster pair."""
    header = json.loads(stem.with_suffix(".json").read_text(encoding="utf-8"))
    if header["dtype"] != "float32" or header["bands"] != 1:
        raise ValueError(f"{stem}: expected one float32 band")
    raw = np.fromfile(stem.with_suffix(".bin"), dtype="<f4")
    return header, raw.reshape(header["height"], header["width"])


def _valid(header: dict, values: np.ndarray) -> np.ndarray:
    if header.get("nodata") is None:
        return np.ones(values.shape, dtype=bool)
    return values != header["nodata"]


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= REL_TOL * max(abs(want), 1e-300)


def read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def digest_tree(run_dir: Path) -> dict[str, str]:
    """SHA-256 of every file under a run directory, as criterion 7 takes it."""
    return {str(p.relative_to(run_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(run_dir.rglob("*")) if p.is_file()}


def check_metrics(run_dir: Path, raster: Path, name: str, truth: Path) -> list[str]:
    """MAE and RMSE in <name>.json agree with a recomputation from the payloads."""
    doc = read_json(run_dir / f"{name}.json")
    ph, pred = read_raster(raster)
    th, ref = read_raster(truth)
    valid = _valid(ph, pred) & _valid(th, ref)
    diff = pred.astype(np.float64)[valid] - ref.astype(np.float64)[valid]
    mae = float(np.mean(np.abs(diff)))
    rmse = float(np.sqrt(np.mean(diff * diff)))
    problems = []
    if not _close(doc["mae"], mae):
        problems.append(f"{name}.json mae {doc['mae']!r} != recomputed {mae!r}")
    if not _close(doc["rmse"], rmse):
        problems.append(f"{name}.json rmse {doc['rmse']!r} != recomputed {rmse!r}")
    return problems


def check_correction(run_dir: Path, pred: Path) -> list[str]:
    """corrected = max(pred - residual, 0) exactly; the correction helps."""
    problems = []
    _, p = read_raster(pred)
    _, residual = read_raster(run_dir / "residual")
    _, corrected = read_raster(run_dir / "corrected")
    if not np.isfinite(residual).all():
        problems.append("residual field has non-finite pixels")
    want = np.maximum(p.astype(np.float64) - residual.astype(np.float64), 0.0)
    if not np.array_equal(corrected, want.astype(np.float32)):
        problems.append("corrected raster is not max(pred - residual, 0)")
    base = read_json(run_dir / "metrics_baseline.json")["mae"]
    after = read_json(run_dir / "metrics.json")["mae"]
    if not after < base:
        problems.append(f"corrected MAE {after} is not below baseline MAE {base}")
    return problems


def _read_clean(path: Path) -> dict[str, np.ndarray]:
    with open(path, "r", encoding="utf-8", newline="") as f:
        rows = list(csv.DictReader(f))
    return {
        "x": np.array([float(r["x"]) for r in rows]),
        "y": np.array([float(r["y"]) for r in rows]),
        "h_ag": np.array([float(r["h_ag"]) for r in rows]),
        "ground": np.array([r["kind"] == "ground" for r in rows]),
    }


def _pixel_of(header: dict, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    g = header["gsd"]
    col = np.minimum(np.floor((x - header["origin_x"]) / g).astype(np.int64), header["width"] - 1)
    row = np.minimum(np.floor((header["origin_y"] - y) / g).astype(np.int64), header["height"] - 1)
    return col, row


def check_preprocess(run_dir: Path, truth: Path, heights_exact: bool) -> list[str]:
    """Stage counts never grow; ground photons sit at 0 m; with noise-free
    photons, clean heights match the truth raster as criterion 8 asks."""
    problems = []
    counts = read_json(run_dir / "preprocess_report.json")["counts"]
    seq = [(k, counts[k]) for k in COUNT_ORDER if k in counts]
    if any(a[1] < b[1] for a, b in zip(seq, seq[1:])):
        problems.append(f"preprocess counts increase between stages: {seq}")
    clean = _read_clean(run_dir / "clean_photons.csv")
    if (clean["h_ag"][clean["ground"]] != 0.0).any():
        problems.append("a clean ground photon has h_ag != 0")
    if heights_exact:
        th, ref = read_raster(truth)
        col, row = _pixel_of(th, clean["x"], clean["y"])
        err = float(np.mean(np.abs(clean["h_ag"] - ref[row, col].astype(np.float64))))
        if not err < MAX_HEIGHT_ERROR_M:
            problems.append(f"mean |h_ag - truth| {err} m is not below {MAX_HEIGHT_ERROR_M} m")
    return problems


def footprint_means(header: dict, values: np.ndarray, x: np.ndarray, y: np.ndarray,
                    diameter: float) -> np.ndarray:
    """Mean of the pixels whose centers lie within the disk of the given
    diameter around each point, NaN where the disk holds no center.

    The inputs have no nodata, and a disk at least one pixel wide always
    holds a center, so the docstring's other cases do not arise here.
    """
    g, ox, oy = header["gsd"], header["origin_x"], header["origin_y"]
    h, w = values.shape
    r = diameter / 2.0
    offsets = np.arange(-int(math.ceil(r / g)) - 1, int(math.ceil(r / g)) + 2)
    cols = np.floor((x - ox) / g).astype(np.int64)[:, None, None] + offsets[None, None, :]
    rows = np.floor((oy - y) / g).astype(np.int64)[:, None, None] + offsets[None, :, None]
    cx = ox + (cols + 0.5) * g
    cy = oy - (rows + 0.5) * g
    in_disk = (cx - x[:, None, None]) ** 2 + (cy - y[:, None, None]) ** 2 <= r * r
    in_disk &= (cols >= 0) & (cols < w) & (rows >= 0) & (rows < h)
    block = values[np.clip(rows, 0, h - 1), np.clip(cols, 0, w - 1)].astype(np.float64)
    n = in_disk.sum(axis=(1, 2))
    with np.errstate(invalid="ignore"):
        return np.where(in_disk, block, 0.0).sum(axis=(1, 2)) / n


def check_affine(run_dir: Path, depth: Path, footprint: float) -> list[str]:
    """affine.json is the least-squares line through (footprint-mean depth,
    photon height), and pred_abs applies it."""
    problems = []
    fit = read_json(run_dir / "affine.json")
    dh, d = read_raster(depth)
    clean = _read_clean(run_dir / "clean_photons.csv")
    means = footprint_means(dh, d, clean["x"], clean["y"], footprint)
    keep = np.isfinite(means)
    dx, hy = means[keep], clean["h_ag"][keep]
    a = float(np.sum((dx - dx.mean()) * (hy - hy.mean())) / np.sum((dx - dx.mean()) ** 2))
    b = float(hy.mean() - a * dx.mean())
    if fit["n_points"] != int(keep.sum()):
        problems.append(f"affine n_points {fit['n_points']} != {int(keep.sum())} usable photons")
    if not (_close(fit["a"], a) and _close(fit["b"], b)):
        problems.append(f"affine ({fit['a']!r}, {fit['b']!r}) != least squares ({a!r}, {b!r})")
    _, calibrated = read_raster(run_dir / "pred_abs")
    want = (fit["a"] * d.astype(np.float64) + fit["b"]).astype(np.float32)
    if not np.array_equal(calibrated, want):
        problems.append("pred_abs is not a * pred + b")
    return problems
