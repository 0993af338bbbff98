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
import numbers
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Iterator, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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


def is_int(value) -> bool:
    """Whether ``value`` is an integer, a bool not counting as one."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


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
        nodata: Optional sentinel value marking invalid pixels; it must be
            exactly representable in ``dtype``.
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
        for name in ("width", "height", "bands", "crs_code", "cell_px"):
            value = getattr(self, name)
            if not (is_int(value) or (value is None and name == "cell_px")):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("gsd", "origin_x", "origin_y"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
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
        if self.nodata is not None:
            # pixels are compared with nodata in their own dtype and in
            # float64, which agree only when the dtype holds it exactly
            nodata = float(self.nodata)
            if self.dtype == "float32":
                with np.errstate(over="ignore"):
                    held = math.isnan(nodata) or float(np.float32(nodata)) == nodata
            else:
                held = nodata.is_integer() and 0 <= nodata <= 255
            if not held:
                raise ValueError(f"nodata {self.nodata!r} is not exactly a {self.dtype} value")

    # --- coordinate transforms ---

    def world_to_pixel(self, x: float, y: float) -> tuple[float, float]:
        """Continuous (col, row) with integer values at pixel centers."""
        return (
            (x - self.origin_x) / self.gsd - 0.5,
            (self.origin_y - y) / self.gsd - 0.5,
        )

    def pixels_of(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(col, row) of the pixels containing map points, all inside the
        raster bounds; points exactly on the far edges map to the last pixel."""
        col = np.minimum(np.floor((x - self.origin_x) / self.gsd).astype(np.int64), self.width - 1)
        row = np.minimum(np.floor((self.origin_y - y) / self.gsd).astype(np.int64), self.height - 1)
        return col, row

    def contains_point(self, x: float | np.ndarray, y: float | np.ndarray) -> bool | np.ndarray:
        """Whether (x, y) lies inside the raster bounds, edges included;
        elementwise for arrays of points."""
        return (
            (self.origin_x <= x) & (x <= self.origin_x + self.width * self.gsd)
            & (self.origin_y - self.height * self.gsd <= y) & (y <= self.origin_y)
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
    """Single-band uint8 raster of land-cover class codes 0..7.

    Every pixel that is not nodata must hold a class code; any other value
    raises RasterFormatError naming the first one in row-major order.
    """

    def __post_init__(self) -> None:
        if self.header.dtype != "uint8" or self.header.bands != 1:
            raise ValueError("LandCoverRaster requires a single uint8 band")
        super().__post_init__()
        if self.values.max() >= len(LC_CLASSES):
            bad = self.values >= len(LC_CLASSES)
            if self.header.nodata is not None:
                bad &= self.values != self.header.nodata
            if bad.any():
                row, col = np.unravel_index(int(np.argmax(bad)), bad.shape)
                raise RasterFormatError(
                    f"land-cover code {int(self.values[row, col])} at pixel ({col}, {row}) "
                    f"is not a class code 0..{len(LC_CLASSES) - 1}"
                )


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

    # the values' own buffer when they are already contiguous in the file's
    # layout and dtype; else one copy that is
    vals = raster.values
    if h.bands > 1 and h.dtype == "float32":
        vals = np.moveaxis(vals, 2, 0)
    payload = np.ascontiguousarray(vals, dtype=_DTYPES[h.dtype])

    with open(stem.with_suffix(".bin"), "wb") as f:
        f.write(payload.data)
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
    except (TypeError, ValueError, OverflowError) as exc:
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


def sample_bilinear(
    raster: Raster, x: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Bilinear samples of a single-band raster at arrays of map points.

    Each point takes its four nearest pixel centers, clamped to the raster.
    Neighbors that are nodata or non-finite are dropped and the remaining
    weights are renormalized.  Returns the samples and a mask of the points
    that had a sample; where the mask is False (all four neighbors invalid)
    the sample reads 0.  A point outside the raster bounds raises
    GeometryError.
    """
    h = raster.header
    if h.bands != 1:
        raise ValueError("sample_bilinear expects a single-band raster")
    outside = ~h.contains_point(x, y)
    if outside.any():
        i = int(np.argmax(outside))
        raise GeometryError(f"point ({float(x[i])}, {float(y[i])}) outside raster bounds")

    fcol, frow = h.world_to_pixel(x, y)
    c0 = np.clip(np.floor(fcol).astype(np.int64), 0, max(h.width - 2, 0))
    r0 = np.clip(np.floor(frow).astype(np.int64), 0, max(h.height - 2, 0))
    c1 = np.minimum(c0 + 1, h.width - 1)
    r1 = np.minimum(r0 + 1, h.height - 1)
    fx = np.minimum(np.maximum(fcol - c0, 0.0), 1.0)
    fy = np.minimum(np.maximum(frow - r0, 0.0), 1.0)

    acc = np.zeros(len(fcol))
    wsum = np.zeros(len(fcol))
    for r, c, w in (
        (r0, c0, (1.0 - fx) * (1.0 - fy)),
        (r0, c1, fx * (1.0 - fy)),
        (r1, c0, (1.0 - fx) * fy),
        (r1, c1, fx * fy),
    ):
        v = raster.values[r, c].astype(np.float64)
        keep = valid_values(v, h.nodata)
        # a skipped corner adds 0.0, which leaves the running sums unchanged;
        # its value is zeroed before the product, so that no inf meets a 0 weight
        acc += w * np.where(keep, v, 0.0)
        wsum += np.where(keep, w, 0.0)
    found = wsum != 0.0
    return np.divide(acc, wsum, out=np.zeros_like(acc), where=found), found


def window_box(
    raster: Raster, row0: np.ndarray, col0: np.ndarray, size: int
) -> tuple[np.ndarray, int, int]:
    """The bounding box of the square windows of ``size`` pixels whose
    top-left pixels are (row0[i], col0[i]), as (box, row, col): the box's
    pixels, (rows, cols) or (rows, cols, bands), and the raster row and
    column of its top-left pixel.

    Rows and columns that fall outside the raster are clamped to the edge
    (edge replication): the box is a view of the raster, edge-padded into a
    copy only where a window passes the raster.  A window that covers no
    raster pixel raises GeometryError naming the first such window.
    """
    if size < 1:
        raise ValueError(f"window size must be >= 1, got {size}")
    h = raster.header
    row0 = np.asarray(row0, dtype=np.int64).reshape(-1)
    col0 = np.asarray(col0, dtype=np.int64).reshape(-1)
    misses = ~((-size < row0) & (row0 < h.height) & (-size < col0) & (col0 < h.width))
    if misses.any():
        i = int(np.argmax(misses))
        raise GeometryError(f"window at ({row0[i]}, {col0[i]}) of size {size} misses the raster")
    r_lo, r_hi = int(row0.min()), int(row0.max()) + size
    c_lo, c_hi = int(col0.min()), int(col0.max()) + size
    box = raster.values[max(r_lo, 0) : min(r_hi, h.height), max(c_lo, 0) : min(c_hi, h.width)]
    pad = ((max(-r_lo, 0), max(r_hi - h.height, 0)), (max(-c_lo, 0), max(c_hi - h.width, 0)))
    if any(pad[0] + pad[1]):
        box = np.pad(box, pad + ((0, 0),) * (box.ndim - 2), mode="edge")
    return box, r_lo, c_lo


def box_windows(box: np.ndarray, rows: np.ndarray, cols: np.ndarray, size: int) -> np.ndarray:
    """Copies of the square windows of ``size`` pixels at (rows[i], cols[i])
    of a box whose last two axes are its rows and columns, stacked as
    (k, ..., size, size) and C-contiguous, so each window of each leading
    band is one contiguous run.  A window that leaves the box raises
    ValueError."""
    rows = np.asarray(rows, dtype=np.int64).reshape(-1)
    cols = np.asarray(cols, dtype=np.int64).reshape(-1)
    height, width = box.shape[-2:]
    inside = (rows >= 0) & (rows <= height - size) & (cols >= 0) & (cols <= width - size)
    if not inside.all():
        i = int(np.argmin(inside))
        raise ValueError(
            f"window at ({rows[i]}, {cols[i]}) of size {size} leaves the {height} x {width} box"
        )
    # every window of the box, its two window axes after the leading bands
    views = sliding_window_view(box, (size, size), axis=(-2, -1))
    lead = box.ndim - 2
    stack = views[(slice(None),) * lead + (rows, cols)]
    # the window axis first, then the leading bands
    order = (lead,) + tuple(range(lead)) + (lead + 1, lead + 2)
    return np.ascontiguousarray(stack.transpose(order))


def window(raster: Raster, row0: np.ndarray, col0: np.ndarray, size: int) -> np.ndarray:
    """Square windows of ``size`` pixels whose top-left pixels are
    (row0[i], col0[i]), stacked as (k, size, size), or (k, size, size, bands)
    for a multiband raster.

    Rows and columns that fall outside the raster are clamped to the edge
    (edge replication), so a window may start or end past the raster and
    always has the full requested size.  A window that covers no raster
    pixel raises GeometryError naming the first such window.  Returns a
    copy.

    The windows are cut from one box of the raster, the bounding box of
    them all (``window_box``), so the memory taken beyond the stack is at
    most that of the padded raster.
    """
    row0 = np.asarray(row0, dtype=np.int64).reshape(-1)
    col0 = np.asarray(col0, dtype=np.int64).reshape(-1)
    box, r_lo, c_lo = window_box(raster, row0, col0, size)
    if box.ndim == 2:
        return box_windows(box, row0 - r_lo, col0 - c_lo, size)
    stack = box_windows(np.moveaxis(box, -1, 0), row0 - r_lo, col0 - c_lo, size)
    return np.moveaxis(stack, 1, -1)


def sobel_magnitude(patches: np.ndarray) -> np.ndarray:
    """Gradient magnitude under the 3x3 Sobel operator over the last two
    axes of a patch or a stack of patches.

    Edges are handled by replication, as in ``window``.  A unit
    horizontal slope responds with magnitude 8 before any normalization.
    Each patch of a stack gets exactly the values it gets alone.
    """
    if patches.ndim < 2 or patches.shape[-2] < 1 or patches.shape[-1] < 1:
        raise ValueError(f"expected 2D patches, got shape {patches.shape}")
    pad = ((0, 0),) * (patches.ndim - 2) + ((1, 1), (1, 1))
    return padded_sobel_magnitude(np.pad(patches.astype(np.float64), pad, mode="edge"))


def padded_sobel_magnitude(p: np.ndarray) -> np.ndarray:
    """``sobel_magnitude`` of the interior of float64 patches already padded
    by one pixel on each side of the last two axes: (h + 2, w + 2) in,
    (h, w) out."""
    # the [1, 2, 1] smoothing across each axis, each shared by two taps:
    # gx[r, c] = (p[r, c+2] + 2 p[r+1, c+2] + p[r+2, c+2]) - (same at c),
    # summed in that order (2 p[r+1] + p[r] equals p[r] + 2 p[r+1] exactly)
    across_rows = 2.0 * p[..., 1:-1, :]
    across_rows += p[..., :-2, :]
    across_rows += p[..., 2:, :]
    across_cols = 2.0 * p[..., :, 1:-1]
    across_cols += p[..., :, :-2]
    across_cols += p[..., :, 2:]
    gx = across_rows[..., 2:] - across_rows[..., :-2]
    gy = across_cols[..., 2:, :] - across_cols[..., :-2, :]
    return np.hypot(gx, gy, out=gx)


# Supervision footprint diameter in meters, the nominal ICESat-2 footprint.
DEFAULT_FOOTPRINT = 17.0


def valid_values(values: np.ndarray, nodata: Optional[float]) -> np.ndarray:
    """Which pixel ``values`` are valid: finite and not ``nodata`` (None for
    no nodata value)."""
    valid = np.isfinite(values)
    if nodata is not None:
        valid &= values != nodata
    return valid


def valid_mask(raster: Raster, rows: slice = slice(None)) -> np.ndarray:
    """Pixels that are finite and not nodata, in all rows or in ``rows``."""
    return valid_values(raster.values[rows], raster.header.nodata)


# Rows per strip of the passes that visit a whole raster a strip at a time,
# so that their float64 temporaries grow with the width, not the area.
STRIP_ROWS = 64


def row_strips(height: int, rows: int = STRIP_ROWS) -> Iterator[slice]:
    """Consecutive slices of ``rows`` rows (the last one shorter) covering
    ``height`` rows, top to bottom."""
    for r0 in range(0, height, rows):
        yield slice(r0, min(r0 + rows, height))


# Pixels of candidate boxes held at once by footprint_mean, to bound memory.
_FOOTPRINT_BOX_CELLS = 1 << 20


def footprint_mean(raster: Raster, x: np.ndarray, y: np.ndarray, diameter: float) -> np.ndarray:
    """Means of valid pixels whose centers lie within a disk around each
    map point (x, y), as a float64 array.

    The disk has the given diameter in meters.  When the disk is so small
    that it captures no pixel center, the value of the pixel containing
    (x, y) is used instead.  The mean reads NaN where every captured pixel
    is invalid (nodata or non-finite), and where the disk misses the raster
    or the point is not finite.

    Each point's candidates are the pixels of its disk's bounding square,
    cut to the raster, laid out in one fixed-size box per point.  The
    selected pixels are summed in row-major order of that square, per
    segment as ``np.mean`` sums them, so each mean equals ``np.mean`` of
    that point's pixels alone.
    """
    h = raster.header
    if h.bands != 1:
        raise ValueError("footprint_mean expects a single-band raster")
    if not (math.isfinite(diameter) and diameter > 0):
        raise ValueError(f"diameter must be finite and > 0, got {diameter}")
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    radius = diameter / 2.0
    with np.errstate(invalid="ignore"):
        missed = ~(np.isfinite(x) & np.isfinite(y)) | (
            (x + radius < h.origin_x)
            | (x - radius > h.origin_x + h.width * h.gsd)
            | (y + radius < h.origin_y - h.height * h.gsd)
            | (y - radius > h.origin_y)
        )
    means = np.full(x.shape, np.nan)
    hit = np.nonzero(~missed)[0]
    if hit.size == 0:
        return means
    x, y = x[hit], y[hit]
    fcol, frow = h.world_to_pixel(x, y)
    reach = radius / h.gsd
    c_lo = np.floor(fcol - reach).astype(np.int64)
    c_hi = np.minimum(np.ceil(fcol + reach).astype(np.int64), h.width - 1)
    r_lo = np.floor(frow - reach).astype(np.int64)
    r_hi = np.minimum(np.ceil(frow + reach).astype(np.int64), h.height - 1)
    offsets = np.arange(max(int((c_hi - c_lo).max()), int((r_hi - r_lo).max()), 0) + 1)
    chunk = max(_FOOTPRINT_BOX_CELLS // offsets.size**2, 1)

    out = np.full(hit.size, np.nan)
    for s in range(0, hit.size, chunk):
        part = slice(s, s + chunk)
        cols = c_lo[part, None] + offsets
        rows = r_lo[part, None] + offsets
        cx = h.origin_x + (cols + 0.5) * h.gsd
        cy = h.origin_y - (rows + 0.5) * h.gsd
        dx2 = (cx[:, None, :] - x[part, None, None]) ** 2
        dy2 = (cy[:, :, None] - y[part, None, None]) ** 2
        in_disk = (
            (dx2 + dy2 <= radius * radius)
            & ((rows >= 0) & (rows <= r_hi[part, None]))[:, :, None]
            & ((cols >= 0) & (cols <= c_hi[part, None]))[:, None, :]
        )
        block = raster.values[np.clip(rows, 0, h.height - 1)[:, :, None],
                              np.clip(cols, 0, h.width - 1)[:, None, :]]
        usable = in_disk & valid_values(block, h.nodata)
        sizes = usable.sum(axis=(1, 2))
        sums = segment_sums(block[usable].astype(np.float64), np.cumsum(sizes) - sizes, sizes)
        with np.errstate(invalid="ignore"):
            out[part] = sums / sizes
        # a disk that captures no pixel center takes the containing pixel
        empty = np.nonzero(~in_disk.any(axis=(1, 2)))[0] + s
        out[empty] = _containing_pixel_values(raster, x[empty], y[empty])
    means[hit] = out
    return means


def _containing_pixel_values(raster: Raster, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    h = raster.header
    inside = h.contains_point(x, y)
    col, row = h.pixels_of(x[inside], y[inside])
    v = raster.values[row, col].astype(np.float64)
    valid = valid_values(v, h.nodata)
    out = np.full(x.shape, np.nan)
    out[np.nonzero(inside)[0][valid]] = v[valid]
    return out


def segment_sums(values: np.ndarray, starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Sum of ``values[start:start + size]`` per segment.

    Segments of one size are summed as the rows of one matrix, which numpy
    adds in the same (pairwise) order as ``np.sum`` of each segment alone,
    so the sums equal per-segment calls bit for bit.  Empty segments sum to 0.
    """
    out = np.zeros(len(sizes))
    for size in np.unique(sizes[sizes > 0]).tolist():
        rows = np.nonzero(sizes == size)[0]
        out[rows] = values[starts[rows, None] + np.arange(size)].sum(axis=1)
    return out


def percentile(values: np.ndarray, q):
    """Percentile(s) ``q`` of each row (the last axis) of ``values``, with
    linear interpolation between the closest order statistics.

    ``q`` is a number or a sequence; a sequence adds a last axis with one
    entry per percentile.  Each value equals ``np.percentile`` of its row
    alone, bit for bit: the rows are sorted once and interpolated in
    numpy's "linear" arithmetic.  Sorting may order 0.0 and -0.0 unlike
    numpy's partition (or turn -0.0 into 0.0), so the rare rows that hold
    -0.0 and interpolate at a zero take ``np.percentile`` itself.  A row
    holding NaN reads NaN.
    """
    values = np.asarray(values, dtype=np.float64)
    rows = np.sort(values, axis=-1)
    n = rows.shape[-1]
    nan_rows = np.isnan(rows[..., -1])  # NaN sorts last
    out = []
    for pct in np.atleast_1d(q).tolist():
        pos = (n - 1) * (pct / 100)
        # at or past the last order statistic numpy takes index -1
        lo, hi = (-1, -1) if pos >= n - 1 else (math.floor(pos), math.floor(pos) + 1)
        a, b, t = rows[..., lo], rows[..., hi], pos - lo
        value = np.asarray(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)
        redo = np.asarray((a == 0) | (b == 0))
        if redo.any():
            held = values[redo]
            redo[redo] = ((held == 0) & np.signbit(held)).any(axis=-1)
        if redo.any():
            value[redo] = np.percentile(values[redo], pct, axis=-1, method="linear")
        out.append(np.where(nan_rows, np.nan, value))
    return (np.stack(out, axis=-1) if np.ndim(q) else out[0])[()]


def height_like(header: RasterHeader, values: np.ndarray, nodata: Optional[float] = None) -> HeightRaster:
    """Build a HeightRaster on the same grid as ``header``; float32 values
    are taken as they are, not copied."""
    new_header = replace(header, bands=1, dtype="float32", nodata=nodata, cell_px=None)
    return HeightRaster(new_header, np.asarray(values, dtype=np.float32))
