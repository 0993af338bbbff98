"""Sparse LiDAR photon ingestion and cleaning.

Input photons arrive as CSV with header ``id,x,y,elev,signal_conf,atl08_class,beam,t``
(meters, UTF-8, '.' decimal separator).  The cleaning pipeline keeps
high-confidence ground and top-of-canopy returns, estimates the local ground
surface per beam, normalizes elevations to heights above ground, drops
photons that contradict the land-cover map, and condenses object returns into
density-cluster centroids.  Clean photons leave as CSV with header
``x,y,h_ag,kind,lc_class,cluster_size``.

Photons travel as tables: numpy structured arrays with one field per CSV
column (``PHOTON_DTYPE`` for raw photons, ``CLEAN_DTYPE`` for clean ones).
Each cleaning step is a function over a photon table and per-photon arrays
that returns masks or arrays in the table's row order, and
``clean_photon_table`` runs the steps in turn.
"""

from __future__ import annotations

import csv
import itertools
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .raster import (
    GeometryError,
    HeightRaster,
    LC_BUILDING,
    LC_TREE,
    LandCoverRaster,
    check_fields,
    sample_bilinear,
    segment_sums,
)

logger = logging.getLogger(__name__)

PHOTON_CSV_HEADER = ("id", "x", "y", "elev", "signal_conf", "atl08_class", "beam", "t")
CLEAN_CSV_HEADER = ("x", "y", "h_ag", "kind", "lc_class", "cluster_size")

# Raw and clean photon tables: one field per CSV column.  A raw photon row
# is 50 bytes: the two codes, in 0..4 and 0..3, take one byte each, and beam
# ids, free integers in the CSV, take eight.
PHOTON_DTYPE = np.dtype([
    ("id", "<i8"), ("x", "<f8"), ("y", "<f8"), ("elev", "<f8"),
    ("signal_conf", "i1"), ("atl08_class", "i1"), ("beam", "<i8"), ("t", "<f8"),
])
CLEAN_DTYPE = np.dtype([
    ("x", "<f8"), ("y", "<f8"), ("h_ag", "<f8"), ("kind", "<U6"),
    ("lc_class", "<i8"), ("cluster_size", "<i8"),
])

# Classification codes carried in the atl08_class column.
CLASS_NOISE = 0
CLASS_GROUND = 1
CLASS_CANOPY = 2
CLASS_TOP_OF_CANOPY = 3

KEPT_CONFIDENCE = (3, 4)
KEPT_CLASSES = (CLASS_GROUND, CLASS_TOP_OF_CANOPY)

KIND_GROUND = "ground"
KIND_OBJECT = "object"

# Object photons this close to or below the ground estimate are clamped to
# zero height; anything lower is treated as a blunder and discarded.
NEGATIVE_CLAMP_FLOOR = -2.0

COINCIDENT_DIST = 1e-6

# Where a ground estimate comes from; the codes are indices into this tuple.
# "none": IDW found no neighbour and the DTM is invalid there, so the photon
# is dropped.
GROUND_SOURCES = ("idw", "dtm_fallback", "dtm_override", "none")

# Height plausibility bounds (exclusive low, inclusive high) per land-cover
# class for object photons.  Objects must exceed 1 m to count at all.
DEFAULT_CLASS_BOUNDS: dict[int, tuple[float, float]] = {
    LC_TREE: (1.0, 90.0),
    LC_BUILDING: (1.0, 300.0),
}


# ===== Parameters =====


@dataclass(frozen=True)
class ClusterParams:
    """Density clustering knobs for object photons."""

    eps: float = 3.0
    min_pts: int = 3
    height_weight: float = 1.0

    def __post_init__(self) -> None:
        check_fields(self, {"eps": "> 0", "min_pts": ">= 1", "height_weight": ">= 0"})


@dataclass(frozen=True)
class PreprocessParams:
    """All tunables of the photon cleaning pipeline with their defaults."""

    idw_power: float = 2.0
    idw_radius: float = 100.0
    idw_k_max: int = 16
    dtm_tau: float = 10.0
    class_bounds: dict[int, tuple[float, float]] = field(
        default_factory=lambda: dict(DEFAULT_CLASS_BOUNDS)
    )
    cluster: ClusterParams = ClusterParams()
    cell: float = 10.0

    def __post_init__(self) -> None:
        check_fields(self, {"idw_power": "> 0", "idw_radius": "> 0", "idw_k_max": ">= 1",
                            "cell": "> 0"})
        # an infinite tau is allowed: the DTM then never overrides IDW
        if not self.dtm_tau >= 0:
            raise ValueError(f"dtm_tau must be >= 0, got {self.dtm_tau}")
        for code, (lo, hi) in self.class_bounds.items():
            if not lo <= hi:
                raise ValueError(f"class_bounds of code {code} must be low <= high, got {lo}..{hi}")


# ===== CSV I/O =====

# Rows parsed at a time by the CSV readers and formatted at a time by the
# writers, so that their memory is one block's strings however long the
# table: about 1 MB of formatted photon rows.
CSV_BLOCK_ROWS = 2048

# The dtypes CSV blocks are parsed at, wide enough that a value is read,
# and reported, as written: the photon codes at int64, too wide for their
# one-byte fields, and the clean kind one character wider than
# CLEAN_DTYPE's, so that a longer kind cannot parse as a valid one cut short
# (it is reported cut to seven characters).
_PHOTON_PARSE_DTYPE = np.dtype([
    (name, "<i8" if name in ("signal_conf", "atl08_class") else PHOTON_DTYPE[name])
    for name in PHOTON_DTYPE.names
])
_CLEAN_PARSE_DTYPE = np.dtype([
    (name, "<U7" if name == "kind" else CLEAN_DTYPE[name]) for name in CLEAN_DTYPE.names
])


# The value rules of each CSV: a field, the mask of its parsed values that
# break the rule, and what the error report says of them.
_NOT_FINITE = (lambda v: ~np.isfinite(v), "is not finite")
_PHOTON_RULES = (*((name, *_NOT_FINITE) for name in ("x", "y", "elev", "t")),
                 ("signal_conf", lambda v: (v < 0) | (v > 4), "outside 0..4"),
                 ("atl08_class", lambda v: (v < 0) | (v > 3), "outside 0..3"))
_CLEAN_RULES = (*((name, *_NOT_FINITE) for name in ("x", "y", "h_ag")),
                ("kind", lambda v: ~np.isin(v, (KIND_GROUND, KIND_OBJECT)),
                 f"is not {KIND_GROUND} or {KIND_OBJECT}"))


def _row_capacity(path: Path) -> int:
    """The lines after the first line of a text file, split as ``_read_csv``
    splits them: at least as many as the rows it reads."""
    with open(path, "r", encoding="utf-8", errors="replace", newline="") as f:
        return max(sum(1 for _ in f) - 1, 0)


def _read_csv(path: Path | str, header: tuple[str, ...], dtype: np.dtype,
              parse_dtype: np.dtype, rules: tuple, table_problems=None) -> np.ndarray:
    """Read a CSV whose first line must be ``header`` into a ``dtype`` table,
    allocated once, a row for each line, and filled ``CSV_BLOCK_ROWS`` lines
    at a time.  One row is one line, but a line holding nothing but its line
    end is skipped, as the ``csv`` module skips it.  A block's rows parsed at
    ``parse_dtype`` are checked against ``rules``, and those that pass go
    into the table; ``table_problems`` then gives the table's rows at fault,
    and what is wrong with each.  Every malformed row is reported in one
    ``ValueError`` by its line number, the first ten shown."""
    path = Path(path)
    table = np.empty(_row_capacity(path), dtype=dtype)
    problems: list[tuple[int, str]] = []  # a line number and what is wrong on it
    gaps = [np.empty(0, dtype=np.int64)]  # line numbers that hold no table row
    n = 0
    try:
        with open(path, "r", encoding="utf-8", newline="") as f:
            first = next(csv.reader([f.readline()]))
            if tuple(h.strip() for h in first) != header:
                raise ValueError(f"{path}: bad header, expected {','.join(header)}")
            start = 2
            while lines := list(itertools.islice(f, CSV_BLOCK_ROWS)):
                numbers = np.arange(start, start + len(lines))
                start += len(lines)
                rows = [i for i, line in enumerate(lines) if line.rstrip("\r\n")]
                block, linenos, bad = _parse_block([lines[i] for i in rows], numbers[rows],
                                                   parse_dtype)
                ok, invalid = _invalid_values(block, linenos, rules)
                problems += bad + invalid
                kept = int(np.count_nonzero(ok))
                if kept < len(lines):  # blank lines or rows rejected
                    gaps.append(numbers[np.isin(numbers, linenos[ok], invert=True)])
                    block = block[ok]
                table[n : n + kept] = block
                n += kept
                # one block's strings and rows are held at a time
                del lines, block
    except UnicodeDecodeError:
        raise ValueError(f"{path}: not UTF-8 text") from None
    table.resize(n, refcheck=False)
    if table_problems is not None:
        at, whats = table_problems(table)
        problems += zip(_line_numbers(at, np.concatenate(gaps)).tolist(), whats)
    if problems:
        problems.sort()
        shown = "; ".join(f"row {lineno}: {what}" for lineno, what in problems[:10])
        more = f" (+{len(problems) - 10} more)" if len(problems) > 10 else ""
        raise ValueError(f"{path}: {len(problems)} malformed rows: {shown}{more}")
    return table


def _parse_rows(texts: list[str], dtype: np.dtype) -> np.ndarray:
    if not texts:
        return np.empty(0, dtype=dtype)
    return np.loadtxt(texts, delimiter=",", dtype=dtype, comments=None, quotechar='"', ndmin=1)


def _parse_block(
    texts: list[str], linenos: np.ndarray, dtype: np.dtype
) -> tuple[np.ndarray, np.ndarray, list[tuple[int, str]]]:
    """A block's rows parsed at ``dtype``, their line numbers, and the
    problems of the rows left out for a wrong field count or a field that
    does not parse.  Rows are parsed one at a time only after the block's
    parse failed."""
    try:
        return _parse_rows(texts, dtype), linenos, []
    except ValueError:
        pass
    problems = []
    for lineno, text in zip(linenos.tolist(), texts):
        row = next(csv.reader([text]))
        try:
            if len(row) != len(dtype):
                problems.append((lineno, f"expected {len(dtype)} fields, got {len(row)}"))
            else:
                _parse_rows([text], dtype)
        except ValueError:
            problems.append((lineno, f"unparsable field in {row!r}"))
    parsed = ~np.isin(linenos, [lineno for lineno, _ in problems])
    return _parse_rows([t for t, ok in zip(texts, parsed) if ok], dtype), linenos[parsed], problems


def _invalid_values(
    block: np.ndarray, linenos: np.ndarray, rules: tuple
) -> tuple[np.ndarray, list[tuple[int, str]]]:
    """The rows of a parsed block that break none of ``rules``, as a mask,
    and the others' problems; a row is reported for the first rule it
    breaks."""
    problems = []
    ok = np.ones(len(block), dtype=bool)
    for name, breaks, what in rules:
        bad = breaks(block[name]) & ok
        ok &= ~bad
        problems += [
            (lineno, f"{name}={value!r} {what}")
            for lineno, value in zip(linenos[bad].tolist(), block[name][bad].tolist())
        ]
    return ok, problems


def _line_numbers(rows: np.ndarray, gaps: np.ndarray) -> np.ndarray:
    """The line numbers of table rows, given the sorted line numbers after
    the header that hold no table row."""
    # the table rows that come before each gap
    before = gaps - 2 - np.arange(len(gaps))
    return rows + 2 + np.searchsorted(before, rows, side="right")


def load_photons(path: Path | str) -> np.ndarray:
    """Read a photon CSV into a ``PHOTON_DTYPE`` table by ``_read_csv``,
    rejecting malformed rows, a repeated id among them, with their row
    numbers."""
    return _read_csv(path, PHOTON_CSV_HEADER, PHOTON_DTYPE, _PHOTON_PARSE_DTYPE, _PHOTON_RULES,
                     _duplicate_ids)


def _duplicate_ids(table: np.ndarray) -> tuple[np.ndarray, list[str]]:
    """The rows whose id was seen on an earlier row, and their problem."""
    ids = table["id"]
    rows = np.argsort(ids, kind="stable")
    repeat = rows[1:][ids[rows[1:]] == ids[rows[:-1]]]
    return repeat, [f"duplicate photon id {pid}" for pid in ids[repeat].tolist()]


def read_clean_csv(path: Path | str) -> np.ndarray:
    """Read a clean-photon CSV into a ``CLEAN_DTYPE`` table by
    ``_read_csv``, rejecting malformed rows with their row numbers."""
    return _read_csv(path, CLEAN_CSV_HEADER, CLEAN_DTYPE, _CLEAN_PARSE_DTYPE, _CLEAN_RULES)


def _write_csv(table: np.ndarray, path: Path | str, header: tuple[str, ...], format_rows) -> None:
    """Write a table as CSV under ``header``, ``format_rows`` turning a list
    of ``CSV_BLOCK_ROWS`` row tuples at a time into their text."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(",".join(header) + "\r\n")
        for start in range(0, len(table), CSV_BLOCK_ROWS):
            f.write(format_rows(table[start : start + CSV_BLOCK_ROWS].tolist()))


def write_photons_csv(table: np.ndarray, path: Path | str) -> None:
    """Write a ``PHOTON_DTYPE`` table in the interchange CSV layout: floats
    as their ``repr``, CRLF line ends, as the ``csv`` module writes them."""
    _write_csv(table, path, PHOTON_CSV_HEADER, lambda rows: "".join([
        f"{pid},{x!r},{y!r},{elev!r},{conf},{klass},{beam},{t!r}\r\n"
        for pid, x, y, elev, conf, klass, beam, t in rows
    ]))


def write_clean_csv(clean: np.ndarray, path: Path | str) -> None:
    """Write a ``CLEAN_DTYPE`` table as clean-photon CSV: floats as their
    ``repr``, CRLF line ends, as the ``csv`` module writes them."""
    _write_csv(clean, path, CLEAN_CSV_HEADER, lambda rows: "".join([
        f"{x!r},{y!r},{h!r},{kind},{lc_class},{size}\r\n"
        for x, y, h, kind, lc_class, size in rows
    ]))


# ===== Filtering and ground estimation =====


class GroundInterpolator:
    """Per-beam inverse-distance-weighted ground surface from ground photons.

    Queries average up to ``k_max`` nearest ground returns of the query's
    beam within ``radius`` meters, weighted by 1/dist**power; distances are
    ``np.hypot`` of the coordinate differences and ties go to the lower
    photon id.  A ground photon closer than 1e-6 m short-circuits to the
    elevation of the lowest-id such photon.  ``table`` is a photon table;
    only its ground photons are used.

    A beam's ground photons lie along its ground track, so each beam keeps
    them sorted by their position along the track's principal axis, and a
    query's candidates are a window of that order around its own position:
    no photon outside the window can be nearer than the window's edge along
    the axis.
    """

    def __init__(
        self,
        table: np.ndarray,
        power: float = 2.0,
        radius: float = 100.0,
        k_max: int = 16,
    ) -> None:
        if not (power > 0 and radius > 0 and k_max >= 1):
            raise ValueError(
                f"bad IDW parameters power={power} radius={radius} k_max={k_max}"
            )
        self.power = power
        self.radius = radius
        self.k_max = k_max
        ground = table[table["atl08_class"] == CLASS_GROUND]
        ground = ground[np.lexsort((ground["id"], ground["beam"]))]
        beams, starts = np.unique(ground["beam"], return_index=True)
        self._beams = {
            beam: _Track(members)
            for beam, members in zip(beams.tolist(), np.split(ground, starts[1:]))
        }

    def query(
        self, x: np.ndarray, y: np.ndarray, beam: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """IDW ground elevation at each point (x, y) for its beam, and the
        mask of the points that have one: a point with no ground photon of
        its beam within the search radius has none (elevation 0 there)."""
        value = np.zeros(len(x))
        found = np.zeros(len(x), dtype=bool)
        for b in np.unique(beam).tolist():
            track = self._beams.get(b)
            if track is not None:
                rows = np.nonzero(beam == b)[0]
                value[rows], found[rows] = self._query_beam(track, x[rows], y[rows])
        return value, found

    def _query_beam(
        self, track: _Track, qx: np.ndarray, qy: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        n = len(track.along)
        qa, slack = track.project(qx, qy)
        pos = np.searchsorted(track.along, qa)
        value = np.zeros(len(qx))
        found = np.zeros(len(qx), dtype=bool)
        todo = np.arange(len(qx))
        width = min(2 * self.k_max, n)
        while todo.size:
            # a window of ``width`` photons around each query's position
            # along the track, ranked by exact distance and id; a row is
            # settled once every photon outside its window lies farther
            # along the axis than both its k_max-th pick (or the radius)
            # and the coincidence distance
            first = np.clip(pos[todo] - width // 2, 0, n - width)
            cand = first[:, None] + np.arange(width)
            d = np.hypot(track.x[cand] - qx[todo, None], track.y[cand] - qy[todo, None])
            ids = track.ids[cand]
            near = d < COINCIDENT_DIST
            coincident = near.any(axis=1)
            lowest = np.argmin(np.where(near, ids, np.iinfo(np.int64).max), axis=1)
            in_radius = np.where((d <= self.radius) & ~coincident[:, None], d, np.inf)
            order = np.lexsort((ids, in_radius), axis=1)[:, : self.k_max]
            chosen = np.take_along_axis(cand, order, axis=1)
            dist = np.take_along_axis(in_radius, order, axis=1)
            m = np.isfinite(dist).sum(axis=1)
            bound = np.where(coincident, 0.0, np.where(m == self.k_max, dist[:, -1], self.radius))
            # the projection's rounding is covered by a relative margin on
            # the bound and by the query's slack
            reach = np.maximum(bound, COINCIDENT_DIST) * (1.0 + 1e-9) + slack[todo]
            before = track.along[np.maximum(first - 1, 0)]
            after = track.along[np.minimum(first + width, n - 1)]
            settled = (
                ((first == 0) | (qa[todo] - before > reach))
                & ((first + width == n) | (after - qa[todo] > reach))
            )

            w = 1.0 / dist**self.power
            starts = np.arange(len(m)) * dist.shape[1]
            num = segment_sums((w * track.z[chosen]).ravel(), starts, m)
            den = segment_sums(w.ravel(), starts, m)
            idw = np.divide(num, den, out=np.zeros(len(m)), where=m > 0)
            rows = todo[settled]
            coincident_z = track.z[cand[np.arange(len(m)), lowest]]
            value[rows] = np.where(coincident, coincident_z, idw)[settled]
            found[rows] = (coincident | (m > 0))[settled]
            todo = todo[~settled]
            width = min(2 * width, n)
        return value, found


class _Track:
    """One beam's ground photons sorted by their position along the
    principal axis of their coordinates (ties in id order): ``along`` holds
    the positions, ``x``, ``y``, ``z`` and ``ids`` the photons."""

    def __init__(self, members: np.ndarray) -> None:
        x, y = members["x"], members["y"]
        self.centre = np.array([x.mean(), y.mean()])
        dx, dy = x - self.centre[0], y - self.centre[1]
        # any unit axis gives exact neighbours; the track's own gives short windows
        cov = np.array([[dx @ dx, dx @ dy], [dx @ dy, dy @ dy]])
        self.axis = np.linalg.eigh(cov)[1][:, -1]
        along = dx * self.axis[0] + dy * self.axis[1]
        order = np.argsort(along, kind="stable")
        self.along = along[order]
        self.x, self.y = x[order], y[order]
        self.z, self.ids = members["elev"][order], members["id"][order]
        self.span = float(np.max(np.abs(dx) + np.abs(dy)))

    def project(self, qx: np.ndarray, qy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each query's position along the axis, and a bound on the rounding
        of its gap to any photon's position: a photon whose gap exceeds a
        distance plus this slack lies farther than that distance."""
        dx, dy = qx - self.centre[0], qy - self.centre[1]
        slack = 1e-9 * (self.span + np.abs(dx) + np.abs(dy))
        return dx * self.axis[0] + dy * self.axis[1], slack


def enforce_dtm_consistency(
    table: np.ndarray,
    idw: np.ndarray,
    found: np.ndarray,
    dtm: HeightRaster,
    tau: float = 10.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Reconcile IDW ground values with the reference terrain model.

    ``idw`` and ``found`` are ``GroundInterpolator.query``'s answer for the
    photons of ``table``.  The DTM replaces the IDW value when the two
    disagree by more than ``tau`` meters (source "dtm_override") and fills
    in whenever IDW had no answer (source "dtm_fallback"); otherwise the IDW
    value stands.  A photon with neither an IDW value nor a valid DTM value
    under it has source "none" and ground elevation NaN.  Returns the ground
    elevation and the source code (an index into ``GROUND_SOURCES``) per
    photon.
    """
    dtm_value, on_dtm = sample_bilinear(dtm, table["x"], table["y"])
    source = np.where(~found, np.where(on_dtm, 1, 3),
                      np.where(on_dtm & (np.abs(idw - dtm_value) > tau), 2, 0))
    return np.where(source == 0, idw, np.where(on_dtm, dtm_value, np.nan)), source


def normalize_heights(
    table: np.ndarray, ground_elev: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Convert photon elevations to heights above the ground elevation
    given per photon.

    Ground-class photons are fixed at exactly 0 m (their ``ground_elev`` is
    not read).  Object photons between -2 m and 0 m are clamped to 0;
    anything below -2 m is discarded.  Returns the mask of the photons kept
    and the height of every photon.
    """
    is_ground = table["atl08_class"] == CLASS_GROUND
    h = np.where(is_ground, 0.0, table["elev"] - ground_elev)
    return is_ground | ~(h < NEGATIVE_CLAMP_FLOOR), np.where(h < 0.0, 0.0, h)


def landcover_plausibility_filter(
    table: np.ndarray,
    h: np.ndarray,
    lc: LandCoverRaster,
    class_bounds: Optional[dict[int, tuple[float, float]]] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Drop object photons that contradict the land-cover map.

    An object photon survives only when its pixel's class has height bounds
    configured (tree and building by default) and its height ``h`` sits
    inside them (exclusive low, inclusive high).  Ground photons always
    pass.  Returns the mask of the photons kept and the class code under
    every photon; a photon outside the land-cover raster raises
    ``GeometryError``.
    """
    x, y = table["x"], table["y"]
    outside = ~lc.header.contains_point(x, y)
    if outside.any():
        i = int(np.argmax(outside))
        raise GeometryError(
            f"photon {int(table['id'][i])} at ({float(x[i])}, {float(y[i])}) "
            "outside the land-cover raster"
        )
    col, row = lc.header.pixels_of(x, y)
    code = lc.values[row, col].astype(np.int64)
    keep = table["atl08_class"] == CLASS_GROUND
    bounds = DEFAULT_CLASS_BOUNDS if class_bounds is None else class_bounds
    for klass, (lo, hi) in bounds.items():
        keep |= (code == klass) & (lo < h) & (h <= hi)
    return keep, code


# ===== Clustering =====


# Candidate pairs listed at a time: points are taken in blocks of about
# this many candidates, so that clustering memory is the points plus one
# block of pairs however dense the photons are.
_EDGE_BLOCK = 1 << 16


class _CellGrid:
    """Points binned in cubic cells a little wider than ``eps``, so that the
    27 cells around a point's own hold every point within ``eps`` of it
    (rounding of the cell coordinates included).  ``order`` lists the
    points cell by cell, ``start`` and ``size`` give each cell's slice of it
    (with one empty cell last), ``cell`` each point's cell and
    ``neighbours`` each cell's 27 neighbour cells, the empty one where a
    neighbour holds no point."""

    def __init__(self, coords: np.ndarray, eps: float) -> None:
        low = coords.min(axis=0)
        # at most 2**20 cells a side, so that one int64 key holds all three
        side = np.maximum(eps * (1.0 + 2.0**-20), (coords.max(axis=0) - low) / 2.0**20)
        cell = np.floor((coords - low) / side).astype(np.int64) + 1
        dims = cell.max(axis=0) + 2  # room for the neighbours either side
        key = (cell[:, 0] * dims[1] + cell[:, 1]) * dims[2] + cell[:, 2]
        self.order = np.argsort(key, kind="stable")
        keys, start, size = np.unique(key[self.order], return_index=True, return_counts=True)
        self.start = np.append(start, 0)
        self.size = np.append(size, 0)
        self.cell = np.searchsorted(keys, key)
        step = np.arange(-1, 2)
        offsets = ((step[:, None, None] * dims[1] + step[None, :, None]) * dims[2]
                   + step[None, None, :]).ravel()
        wanted = keys[:, None] + offsets
        found = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
        self.neighbours = np.where(keys[found] == wanted, found, len(keys))

    def candidates(self) -> np.ndarray:
        """The number of points in the 27 cells around each point."""
        return self.size[self.neighbours].sum(axis=1)[self.cell]

    def pairs(self, lo: int, hi: int, count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every point of the 27 cells around each point ``lo <= i < hi``:
        pairs (i, j) in i order, ``count`` holding each point's candidates."""
        around = self.neighbours[self.cell[lo:hi]].ravel()
        sizes = self.size[around]
        total = int(count[lo:hi].sum())
        skip = np.repeat(self.start[around] - (np.cumsum(sizes) - sizes), sizes)
        return (np.repeat(np.arange(lo, hi), count[lo:hi]),
                self.order[np.arange(total) + skip])


def _hook(parent: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``parent`` with the edges (a, b) joined in: every root hooks onto the
    lowest root across its edges, then pointer jumping flattens the trees,
    until no edge joins two roots.  ``parent`` must be flat (each node points
    at its root) and is returned flat, each root its component's lowest
    index."""
    while True:
        ra, rb = parent[a], parent[b]
        cross = ra != rb
        if not cross.any():
            return parent
        np.minimum.at(parent, np.maximum(ra, rb)[cross], np.minimum(ra, rb)[cross])
        while True:
            up = parent[parent]
            if np.array_equal(up, parent):
                break
            parent = up


def dbscan_cluster(
    table: np.ndarray, h: np.ndarray, params: ClusterParams = ClusterParams()
) -> tuple[np.ndarray, np.ndarray]:
    """Density-cluster the photons of ``table`` in (x, y, height_weight * h)
    space.

    Core points have at least ``min_pts`` neighbors (self included) within
    ``eps``; clusters are the connected components of core points under
    eps-adjacency; a non-core point within eps of a core joins the cluster
    of its nearest core (ties to the lowest photon id), everything else is
    noise.  The partition therefore depends only on geometry and photon
    ids, never on row order.  Clusters are numbered in the order of their
    lowest member id.  Returns the member count of each cluster and the
    cluster number of each photon, -1 for noise.
    """
    n = len(table)
    label = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return np.zeros(0, dtype=np.int64), label

    # work in id order: index order is then id order
    order = np.argsort(table["id"], kind="stable")
    x, y, z = table["x"][order], table["y"][order], params.height_weight * h[order]
    coords = np.column_stack((x, y, z))
    grid = _CellGrid(coords, params.eps)
    candidates = grid.candidates()
    ends = np.cumsum(candidates)
    cuts = np.searchsorted(ends, np.arange(_EDGE_BLOCK, ends[-1], _EDGE_BLOCK), side="right")
    blocks = np.unique(np.concatenate(([0], cuts, [n]))).tolist()

    def neighbours():
        # the eps-neighbours of a block of points at a time, blocks cut by
        # the running candidate count; the squared distance sums x, y and
        # then z, as scipy's kd-tree sums it, so the pairs are the ones it
        # finds
        limit = params.eps * params.eps
        for lo, hi in zip(blocks[:-1], blocks[1:]):
            a, b = grid.pairs(lo, hi, candidates)
            dx, dy, dz = x[a] - x[b], y[a] - y[b], z[a] - z[b]
            near = (dx * dx + dy * dy) + dz * dz <= limit
            yield a[near], b[near]

    count = np.zeros(n, dtype=np.int64)
    for a, _ in neighbours():
        count += np.bincount(a, minlength=n)
    is_core = count >= params.min_pts

    # core-core edges join components, each labelled by its lowest index,
    # across blocks; a non-core point has all its neighbours in its own
    # block and picks its nearest core there, ties to the lower id, by the
    # dot product np.linalg.norm takes of one difference vector
    parent = np.arange(n)
    nearest = np.full(n, -1, dtype=np.int64)
    for a, b in neighbours():
        link = is_core[a] & is_core[b]
        parent = _hook(parent, a[link], b[link])
        border = ~is_core[a] & is_core[b]
        bi, bj = a[border], b[border]
        diff = coords[bi] - coords[bj]
        dist = np.sqrt(np.matmul(diff[:, None, :], diff[:, :, None])[:, 0, 0])
        pick = np.lexsort((bj, dist, bi))
        pick = pick[np.diff(bi[pick], prepend=-1) != 0]
        nearest[bi[pick]] = bj[pick]

    root = np.where(is_core, parent, -1)
    border = nearest >= 0
    root[border] = parent[nearest[border]]

    member = np.nonzero(root >= 0)[0]
    roots, first = np.unique(root[member], return_index=True)
    number = np.empty(n, dtype=np.int64)
    number[roots[np.argsort(first)]] = np.arange(len(roots))
    label[order[member]] = number[root[member]]
    return np.bincount(number[root[member]]), label


def aggregate_cells(
    table: np.ndarray,
    h: np.ndarray,
    lc_class: np.ndarray,
    label: np.ndarray,
    cell: float = 10.0,
) -> np.ndarray:
    """Collapse clusters to centroids and thin them to one per grid cell.

    ``h`` and ``lc_class`` hold each photon's height and land-cover code;
    ``label`` holds the cluster number (-1 for noise) of each object photon
    of ``table``, in row order, as ``dbscan_cluster`` returns it.  Each
    cluster becomes a single photon at its centroid carrying the mean
    height, member count, and majority land-cover class (ties to the lower
    code; a code below 0 stands for no class).  When several centroids land
    in the same ``cell`` x ``cell`` meter tile, the largest cluster wins;
    equal sizes fall back to the lower mean height, then the lower member
    id.  Ground photons pass through unchanged.  Returns a ``CLEAN_DTYPE``
    table: the ground photons in row order, then the surviving centroids in
    the order of their lowest member id.
    """
    if not cell > 0:
        raise ValueError(f"cell size must be > 0, got {cell}")
    is_ground = table["atl08_class"] == CLASS_GROUND
    ids, x, y, h_obj, code = (
        v[~is_ground] for v in (table["id"], table["x"], table["y"], h, lc_class)
    )
    # members cluster by cluster, each in id order
    member = np.nonzero(label >= 0)[0]
    member = member[np.lexsort((ids[member], label[member]))]
    label, ids, x, y, h_obj, code = (v[member] for v in (label, ids, x, y, h_obj, code))
    sizes = np.bincount(label)
    n = len(sizes)
    starts = np.cumsum(sizes) - sizes
    cx, cy, ch = (segment_sums(v, starts, sizes) / sizes for v in (x, y, h_obj))
    min_id = np.minimum.reduceat(ids, starts)

    # majority class: the most frequent code, ties to the lower code
    has = code >= 0
    label, code = label[has], code[has]
    majority = np.zeros(n, dtype=np.int64)
    if label.size:
        o = np.lexsort((code, label))
        label, code = label[o], code[o]
        run = np.flatnonzero(np.diff(label, prepend=-1) | np.diff(code, prepend=code[0] - 1))
        votes = np.diff(np.append(run, len(label)))
        label, code = label[run], code[run]
        best = np.lexsort((code, -votes, label))
        best = best[np.diff(label[best], prepend=-1) != 0]
        majority[label[best]] = code[best]

    # one survivor per cell: the largest cluster, then the lower mean
    # height, then the lower member id
    kx = np.floor(cx / cell).astype(np.int64)
    ky = np.floor(cy / cell).astype(np.int64)
    o = np.lexsort((min_id, ch, -sizes, ky, kx))
    kx, ky = kx[o], ky[o]
    first = np.ones(n, dtype=bool)
    first[1:] = (kx[1:] != kx[:-1]) | (ky[1:] != ky[:-1])
    win = o[first]
    win = win[np.argsort(min_id[win], kind="stable")]

    g = int(np.count_nonzero(is_ground))
    clean = np.empty(g + len(win), dtype=CLEAN_DTYPE)
    for name, ground_values, object_values in (
        ("x", table["x"][is_ground], cx[win]),
        ("y", table["y"][is_ground], cy[win]),
        ("h_ag", 0.0, ch[win]),
        ("kind", KIND_GROUND, KIND_OBJECT),
        ("lc_class", lc_class[is_ground], majority[win]),
        ("cluster_size", 1, sizes[win]),
    ):
        clean[name][:g] = ground_values
        clean[name][g:] = object_values
    return clean


# ===== Orchestration =====


def clean_photon_table(
    table: np.ndarray,
    dtm: HeightRaster,
    lc: LandCoverRaster,
    params: PreprocessParams = PreprocessParams(),
) -> tuple[np.ndarray, dict]:
    """Run the full photon cleaning pipeline on a photon table.

    Keeps the high-confidence (``signal_conf`` 3 or 4) ground and
    top-of-canopy returns, then runs ``GroundInterpolator``,
    ``enforce_dtm_consistency``, ``normalize_heights``,
    ``landcover_plausibility_filter``, ``dbscan_cluster`` and
    ``aggregate_cells`` in turn.  Photons outside the DTM or land-cover
    extent are dropped, as a track clipped to a tile runs past its edges,
    and so are object photons with no ground source.  Returns the clean
    photons as a ``CLEAN_DTYPE`` table (ground photons in input order, then
    the object centroids) and a report: per-stage retention counts,
    monotonically non-increasing (``counts``); the ground-estimate source of
    each object photon (``ground_sources``); and the object photons that
    DBSCAN put in clusters or left as noise (``clustering``).
    """
    counts = {"loaded": len(table)}

    t = table[np.isin(table["signal_conf"], KEPT_CONFIDENCE)
              & np.isin(table["atl08_class"], KEPT_CLASSES)]
    counts["confidence"] = len(t)

    t = t[dtm.header.contains_point(t["x"], t["y"]) & lc.header.contains_point(t["x"], t["y"])]
    counts["in_extent"] = len(t)

    obj = t["atl08_class"] != CLASS_GROUND
    objects = t[obj]
    interp = GroundInterpolator(
        t, power=params.idw_power, radius=params.idw_radius, k_max=params.idw_k_max
    )
    idw, found = interp.query(objects["x"], objects["y"], objects["beam"])
    ground_elev = np.zeros(len(t))
    ground_elev[obj], source = enforce_dtm_consistency(objects, idw, found, dtm, params.dtm_tau)
    sources = {name: int(np.count_nonzero(source == i)) for i, name in enumerate(GROUND_SOURCES)}
    logger.info("ground estimates: %s", sources)
    grounded = np.ones(len(t), dtype=bool)
    grounded[obj] = source != GROUND_SOURCES.index("none")
    t, ground_elev = t[grounded], ground_elev[grounded]

    keep, h = normalize_heights(t, ground_elev)
    t, h = t[keep], h[keep]
    counts["normalized"] = len(t)

    keep, code = landcover_plausibility_filter(t, h, lc, params.class_bounds)
    t, h, code = t[keep], h[keep], code[keep]
    counts["landcover"] = len(t)

    obj = t["atl08_class"] != CLASS_GROUND
    sizes, label = dbscan_cluster(t[obj], h[obj], params.cluster)
    clustered = int(sizes.sum())
    noise = len(label) - clustered
    logger.info(
        "clustering: %d object photons -> %d clusters, %d noise", len(label), len(sizes), noise
    )
    clean = aggregate_cells(t, h, code, label, params.cell)
    counts["clean"] = len(clean)

    report = {
        "counts": counts,
        "ground_sources": sources,
        "clustering": {"clusters": len(sizes), "clustered": clustered, "noise": noise},
    }
    return clean, report
