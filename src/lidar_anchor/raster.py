"""Georeferenced raster containers, file format, and windowed access primitives.

Rasters travel as a pair of files: ``<name>.bin`` (raw pixel payload) and
``<name>.json`` (header sidecar).  The payload is row-major and little-endian.
float32 multiband payloads are band-sequential, uint8 multiband payloads are
pixel-interleaved.  Pixel (col, row) has its center at

    x = origin_x + (col + 0.5) * gsd
    y = origin_y - (row + 0.5) * gsd

so origin_* is the outer corner of the top-left pixel and y decreases with row.

Percentile policy used throughout the package: linear interpolation between
the closest order statistics (numpy's "linear" method).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

# Land-cover class codes shared by every raster consumer in this package.
LC_CLASSES = (
    "bareland",
    "rangeland",
    "developed",
    "road",
    "tree",
    "water",
    "agriculture",
    "building",
)
(
    LC_BARELAND,
    LC_RANGELAND,
    LC_DEVELOPED,
    LC_ROAD,
    LC_TREE,
    LC_WATER,
    LC_AGRICULTURE,
    LC_BUILDING,
) = range(8)

_HEADER_KEYS = {
    "width",
    "height",
    "bands",
    "dtype",
    "gsd",
    "origin_x",
    "origin_y",
    "crs_code",
    "nodata",
}
_DTYPES = {"float32": np.dtype("<f4"), "uint8": np.dtype("u1")}


class RasterFormatError(ValueError):
    """Raised when a raster file pair violates the on-disk contract."""


class GeometryError(ValueError):
    """Raised when coordinates or raster grids do not line up."""


# ===== Header and containers =====


@dataclass(frozen=True)
class RasterHeader:
    """Geometry and storage metadata for one raster.

    Attributes:
        width: Columns.
        height: Rows.
        gsd: Ground sample distance in meters per pixel (> 0).
        origin_x: Map x of the top-left corner of pixel (0, 0).
        origin_y: Map y of the top-left corner of pixel (0, 0).
        crs_code: Numeric code of the projected CRS (meters).
        bands: Number of bands (>= 1).
        dtype: "float32" or "uint8".
        nodata: Optional sentinel value marking invalid pixels.
        cell_px: Embedding grids only; image pixels per grid cell.
    """

    width: int
    height: int
    gsd: float
    origin_x: float
    origin_y: float
    crs_code: int
    bands: int = 1
    dtype: str = "float32"
    nodata: Optional[float] = None
    cell_px: Optional[int] = None

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError(f"raster dimensions must be positive, got {self.width}x{self.height}")
        if not (self.gsd > 0):
            raise ValueError(f"gsd must be > 0, got {self.gsd}")
        if self.bands < 1:
            raise ValueError(f"bands must be >= 1, got {self.bands}")
        if self.dtype not in _DTYPES:
            raise ValueError(f"unsupported dtype {self.dtype!r}, expected one of {sorted(_DTYPES)}")
        if self.cell_px is not None and self.cell_px < 1:
            raise ValueError(f"cell_px must be >= 1, got {self.cell_px}")

    # --- coordinate transforms ---

    def pixel_center(self, col: int, row: int) -> tuple[float, float]:
        """Map coordinates of the center of pixel (col, row)."""
        return (
            self.origin_x + (col + 0.5) * self.gsd,
            self.origin_y - (row + 0.5) * self.gsd,
        )

    def world_to_pixel(self, x: float, y: float) -> tuple[float, float]:
        """Continuous (col, row) with integer values at pixel centers."""
        return (
            (x - self.origin_x) / self.gsd - 0.5,
            (self.origin_y - y) / self.gsd - 0.5,
        )

    def pixel_of(self, x: float, y: float) -> tuple[int, int]:
        """(col, row) of the pixel containing map point (x, y).

        The point must be inside the raster bounds; points exactly on the
        far edges map to the last pixel.
        """
        if not self.contains_point(x, y):
            raise GeometryError(
                f"point ({x}, {y}) outside raster bounds "
                f"x [{self.origin_x}, {self.origin_x + self.width * self.gsd}], "
                f"y [{self.origin_y - self.height * self.gsd}, {self.origin_y}]"
            )
        col = min(int(math.floor((x - self.origin_x) / self.gsd)), self.width - 1)
        row = min(int(math.floor((self.origin_y - y) / self.gsd)), self.height - 1)
        return col, row

    def contains_point(self, x: float, y: float) -> bool:
        return (
            self.origin_x <= x <= self.origin_x + self.width * self.gsd
            and self.origin_y - self.height * self.gsd <= y <= self.origin_y
        )

    def same_grid(self, other: "RasterHeader") -> bool:
        """True when both headers describe the same pixel lattice."""
        return (
            self.width == other.width
            and self.height == other.height
            and self.gsd == other.gsd
            and self.origin_x == other.origin_x
            and self.origin_y == other.origin_y
            and self.crs_code == other.crs_code
        )


@dataclass
class Raster:
    """A header plus its pixel values.

    Single-band values have shape (height, width); multiband values have
    shape (height, width, bands).
    """

    header: RasterHeader
    values: np.ndarray

    def __post_init__(self) -> None:
        expected = (self.header.height, self.header.width)
        if self.header.bands > 1:
            expected = expected + (self.header.bands,)
        if tuple(self.values.shape) != expected:
            raise ValueError(
                f"values shape {self.values.shape} does not match header "
                f"{self.header.width}x{self.header.height}x{self.header.bands}"
            )
        want = _DTYPES[self.header.dtype]
        if self.values.dtype != want:
            self.values = self.values.astype(want)


class HeightRaster(Raster):
    """Single-band float32 raster of heights or depths in meters."""

    def __post_init__(self) -> None:
        if self.header.dtype != "float32" or self.header.bands != 1:
            raise ValueError("HeightRaster requires a single float32 band")
        super().__post_init__()


class OpticalRaster(Raster):
    """Three-band uint8 RGB raster."""

    def __post_init__(self) -> None:
        if self.header.dtype != "uint8" or self.header.bands != 3:
            raise ValueError("OpticalRaster requires three uint8 bands")
        super().__post_init__()


class LandCoverRaster(Raster):
    """Single-band uint8 raster of land-cover class codes 0..7."""

    def __post_init__(self) -> None:
        if self.header.dtype != "uint8" or self.header.bands != 1:
            raise ValueError("LandCoverRaster requires a single uint8 band")
        super().__post_init__()


class EmbeddingGrid(Raster):
    """Coarse grid of per-cell feature vectors (float32, one band per dim).

    The header describes the grid itself; ``cell_px`` says how many image
    pixels each grid cell covers, so the grid serves an image of up to
    width * cell_px by height * cell_px pixels.
    """

    def __post_init__(self) -> None:
        if self.header.dtype != "float32" or self.header.cell_px is None:
            raise ValueError("EmbeddingGrid requires float32 bands and cell_px")
        super().__post_init__()


# ===== File I/O =====


def _stem(path: Path | str) -> Path:
    p = Path(path)
    if p.suffix in (".bin", ".json"):
        return p.with_suffix("")
    return p


def save_raster(raster: Raster, path: Path | str) -> None:
    """Write ``<path>.bin`` and ``<path>.json`` for a raster.

    Accepts the bare stem or either member of the pair as ``path``.
    """
    stem = _stem(path)
    h = raster.header
    header_doc = asdict(h)
    if h.cell_px is None:
        header_doc.pop("cell_px")
    stem.parent.mkdir(parents=True, exist_ok=True)

    vals = raster.values
    if h.bands > 1 and h.dtype == "float32":
        payload = np.ascontiguousarray(np.moveaxis(vals, 2, 0)).astype("<f4").tobytes()
    elif h.dtype == "float32":
        payload = vals.astype("<f4").tobytes()
    else:
        payload = vals.astype("u1").tobytes()

    with open(stem.with_suffix(".bin"), "wb") as f:
        f.write(payload)
    with open(stem.with_suffix(".json"), "w", encoding="utf-8") as f:
        json.dump(header_doc, f, indent=2, sort_keys=True)
        f.write("\n")


def load_raster(path: Path | str) -> Raster:
    """Load a raster pair and return the concrete type implied by its header.

    Dispatch: cell_px present -> EmbeddingGrid; uint8 x3 -> OpticalRaster;
    uint8 x1 -> LandCoverRaster; float32 x1 -> HeightRaster.
    """
    stem = _stem(path)
    json_path = stem.with_suffix(".json")
    bin_path = stem.with_suffix(".bin")
    if not json_path.exists() or not bin_path.exists():
        raise RasterFormatError(f"missing raster pair {stem}.bin/.json")

    with open(json_path, "r", encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as exc:
            raise RasterFormatError(f"{json_path}: invalid JSON header: {exc}") from exc

    missing = _HEADER_KEYS - set(doc)
    if missing:
        raise RasterFormatError(f"{json_path}: header missing keys {sorted(missing)}")
    extra = set(doc) - _HEADER_KEYS - {"cell_px"}
    if extra:
        raise RasterFormatError(f"{json_path}: unknown header keys {sorted(extra)}")

    try:
        header = RasterHeader(**doc)
    except (TypeError, ValueError) as exc:
        raise RasterFormatError(f"{json_path}: bad header: {exc}") from exc

    raw = np.fromfile(bin_path, dtype=_DTYPES[header.dtype])
    expected = header.width * header.height * header.bands
    if raw.size != expected:
        raise RasterFormatError(
            f"{bin_path}: payload holds {raw.size} values, header implies {expected}"
        )

    if header.bands == 1:
        vals = raw.reshape(header.height, header.width)
    elif header.dtype == "float32":
        vals = np.moveaxis(raw.reshape(header.bands, header.height, header.width), 0, 2)
    else:
        vals = raw.reshape(header.height, header.width, header.bands)
    vals = np.ascontiguousarray(vals)

    if header.cell_px is not None:
        return EmbeddingGrid(header, vals)
    if header.dtype == "uint8" and header.bands == 3:
        return OpticalRaster(header, vals)
    if header.dtype == "uint8" and header.bands == 1:
        return LandCoverRaster(header, vals)
    if header.dtype == "float32" and header.bands == 1:
        return HeightRaster(header, vals)
    raise RasterFormatError(
        f"{json_path}: unsupported dtype/bands combination {header.dtype}x{header.bands}"
    )


# ===== Sampling and windows =====


def sample_bilinear(raster: Raster, x: float, y: float) -> Optional[float]:
    """Bilinear sample of a single-band raster at map point (x, y).

    Neighbors flagged nodata are dropped and the remaining weights are
    renormalized; returns None when all four neighbors are nodata.
    """
    h = raster.header
    if h.bands != 1:
        raise ValueError("sample_bilinear expects a single-band raster")
    if not h.contains_point(x, y):
        raise GeometryError(f"point ({x}, {y}) outside raster bounds")

    fcol, frow = h.world_to_pixel(x, y)
    c0 = int(math.floor(fcol))
    r0 = int(math.floor(frow))
    c0 = min(max(c0, 0), max(h.width - 2, 0))
    r0 = min(max(r0, 0), max(h.height - 2, 0))
    c1 = min(c0 + 1, h.width - 1)
    r1 = min(r0 + 1, h.height - 1)
    fx = min(max(fcol - c0, 0.0), 1.0)
    fy = min(max(frow - r0, 0.0), 1.0)

    corners = (
        (r0, c0, (1.0 - fx) * (1.0 - fy)),
        (r0, c1, fx * (1.0 - fy)),
        (r1, c0, (1.0 - fx) * fy),
        (r1, c1, fx * fy),
    )
    vals = raster.values
    nodata = h.nodata
    acc = 0.0
    wsum = 0.0
    for r, c, w in corners:
        v = float(vals[r, c])
        if nodata is not None and v == nodata:
            continue
        acc += w * v
        wsum += w
    if wsum == 0.0:
        return None
    return acc / wsum


def window(raster: Raster, row0: int, col0: int, size: int) -> np.ndarray:
    """Square window of ``size`` pixels whose top-left pixel is (row0, col0).

    Rows and columns that fall outside the raster are clamped to the edge
    (edge replication), so the window may start or end past the raster and
    always has the full requested size.  A window that covers no raster pixel
    raises GeometryError.  Returns a copy.
    """
    if size < 1:
        raise ValueError(f"window size must be >= 1, got {size}")
    h = raster.header
    if not (-size < row0 < h.height and -size < col0 < h.width):
        raise GeometryError(f"window at ({row0}, {col0}) of size {size} misses the raster")
    rows = np.clip(np.arange(row0, row0 + size), 0, h.height - 1)
    cols = np.clip(np.arange(col0, col0 + size), 0, h.width - 1)
    return raster.values[np.ix_(rows, cols)]


def sobel_magnitude(patch: np.ndarray) -> np.ndarray:
    """Gradient magnitude of a 2D patch under the 3x3 Sobel operator.

    Edges are handled by replication, as in ``window``.  A unit
    horizontal slope responds with magnitude 8 before any normalization.
    """
    if patch.ndim != 2 or patch.shape[0] < 1 or patch.shape[1] < 1:
        raise ValueError(f"expected a 2D patch, got shape {patch.shape}")
    p = np.pad(patch.astype(np.float64), 1, mode="edge")
    gx = (
        (p[:-2, 2:] + 2.0 * p[1:-1, 2:] + p[2:, 2:])
        - (p[:-2, :-2] + 2.0 * p[1:-1, :-2] + p[2:, :-2])
    )
    gy = (
        (p[2:, :-2] + 2.0 * p[2:, 1:-1] + p[2:, 2:])
        - (p[:-2, :-2] + 2.0 * p[:-2, 1:-1] + p[:-2, 2:])
    )
    return np.hypot(gx, gy)


def footprint_mean(raster: Raster, x: float, y: float, diameter: float) -> Optional[float]:
    """Mean of valid pixels whose centers lie within a disk around (x, y).

    The disk has the given diameter in meters.  When the disk is so small
    that it captures no pixel center, the value of the pixel containing
    (x, y) is used instead.  Returns None when every captured pixel is
    invalid (nodata or non-finite).  Raises GeometryError when the disk
    misses the raster entirely.
    """
    h = raster.header
    if h.bands != 1:
        raise ValueError("footprint_mean expects a single-band raster")
    if not (diameter > 0):
        raise ValueError(f"diameter must be > 0, got {diameter}")
    radius = diameter / 2.0

    if (
        x + radius < h.origin_x
        or x - radius > h.origin_x + h.width * h.gsd
        or y + radius < h.origin_y - h.height * h.gsd
        or y - radius > h.origin_y
    ):
        raise GeometryError(f"footprint at ({x}, {y}) does not intersect the raster")

    fcol, frow = h.world_to_pixel(x, y)
    reach = radius / h.gsd
    c_lo = max(int(math.floor(fcol - reach)), 0)
    c_hi = min(int(math.ceil(fcol + reach)), h.width - 1)
    r_lo = max(int(math.floor(frow - reach)), 0)
    r_hi = min(int(math.ceil(frow + reach)), h.height - 1)
    if c_lo > c_hi or r_lo > r_hi:
        return _containing_pixel_value(raster, x, y)

    cols = np.arange(c_lo, c_hi + 1)
    rows = np.arange(r_lo, r_hi + 1)
    cx = h.origin_x + (cols + 0.5) * h.gsd
    cy = h.origin_y - (rows + 0.5) * h.gsd
    d2 = (cx[None, :] - x) ** 2 + (cy[:, None] - y) ** 2
    in_disk = d2 <= radius * radius
    if not in_disk.any():
        return _containing_pixel_value(raster, x, y)

    block = raster.values[r_lo : r_hi + 1, c_lo : c_hi + 1]
    usable = in_disk
    if h.nodata is not None:
        usable = in_disk & (block != h.nodata)
        if not usable.any():
            return None

    vals = block[usable].astype(np.float64)
    mean = float(np.mean(vals))
    if math.isfinite(mean):
        return mean
    # Non-finite pixels are invalid too; mask them only once one shows up.
    vals = vals[np.isfinite(vals)]
    return float(np.mean(vals)) if vals.size else None


def _containing_pixel_value(raster: Raster, x: float, y: float) -> Optional[float]:
    h = raster.header
    if not h.contains_point(x, y):
        return None
    col, row = h.pixel_of(x, y)
    v = float(raster.values[row, col])
    if not math.isfinite(v) or v == h.nodata:
        return None
    return v


def percentile(values: np.ndarray, q: float) -> float:
    """Percentile with linear interpolation between closest order statistics."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q, method="linear"))


def height_like(header: RasterHeader, values: np.ndarray, nodata: Optional[float] = None) -> HeightRaster:
    """Build a HeightRaster on the same grid as ``header``."""
    new_header = replace(header, bands=1, dtype="float32", nodata=nodata, cell_px=None)
    return HeightRaster(new_header, values.astype(np.float32))
