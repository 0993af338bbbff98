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
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional

import numpy as np
from scipy.spatial import cKDTree

from .raster import (
    GeometryError,
    HeightRaster,
    LC_BUILDING,
    LC_TREE,
    LandCoverRaster,
    is_int,
    sample_bilinear,
    segment_sums,
)

logger = logging.getLogger(__name__)

PHOTON_CSV_HEADER = ("id", "x", "y", "elev", "signal_conf", "atl08_class", "beam", "t")
CLEAN_CSV_HEADER = ("x", "y", "h_ag", "kind", "lc_class", "cluster_size")

# Raw and clean photon tables: one field per CSV column.
PHOTON_DTYPE = np.dtype([
    ("id", "<i8"), ("x", "<f8"), ("y", "<f8"), ("elev", "<f8"),
    ("signal_conf", "<i8"), ("atl08_class", "<i8"), ("beam", "<i8"), ("t", "<f8"),
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

# kd-tree distances may differ from np.hypot by a few ulps; IDW candidate
# sets are widened by this relative margin before the exact distances rank
# them.
_KD_MARGIN = 1e-9

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
        if not (math.isfinite(self.eps) and self.eps > 0):
            raise ValueError(f"cluster eps must be finite and > 0, got {self.eps}")
        if not (is_int(self.min_pts) and self.min_pts >= 1):
            raise ValueError(f"cluster min_pts must be an integer >= 1, got {self.min_pts!r}")
        if not (math.isfinite(self.height_weight) and self.height_weight >= 0):
            raise ValueError(
                f"cluster height_weight must be finite and >= 0, got {self.height_weight}"
            )


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
        for name in ("idw_power", "idw_radius"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        if not (is_int(self.idw_k_max) and self.idw_k_max >= 1):
            raise ValueError(f"idw_k_max must be an integer >= 1, got {self.idw_k_max!r}")
        # an infinite tau is allowed: the DTM then never overrides IDW
        if not self.dtm_tau >= 0:
            raise ValueError(f"dtm_tau must be >= 0, got {self.dtm_tau}")
        for code, (lo, hi) in self.class_bounds.items():
            if not lo <= hi:
                raise ValueError(f"class_bounds of code {code} must be low <= high, got {lo}..{hi}")
        if not (math.isfinite(self.cell) and self.cell > 0):
            raise ValueError(f"cell size must be > 0 and finite, got {self.cell}")


# ===== CSV I/O =====

# Rows parsed at a time by the CSV readers and formatted at a time by the
# writers, so that their memory is one block's strings however long the table.
CSV_BLOCK_ROWS = 8192


def _csv_blocks(path: Path, header: tuple[str, ...]) -> Iterator[tuple[list[str], np.ndarray]]:
    """The rows of a CSV file whose first line must be ``header``, read
    ``CSV_BLOCK_ROWS`` lines at a time: each block's lines, line ends kept,
    and their line numbers in the file.  As in the ``csv`` module, a line
    holding nothing but its line end is skipped; one row is one line."""
    with open(path, "r", encoding="utf-8", newline="") as f:
        first = next(csv.reader([f.readline()]))
        if tuple(h.strip() for h in first) != header:
            raise ValueError(f"{path}: bad header, expected {','.join(header)}")
        start = 2
        while lines := list(itertools.islice(f, CSV_BLOCK_ROWS)):
            rows = [i for i, line in enumerate(lines) if line.rstrip("\r\n")]
            yield [lines[i] for i in rows], np.array(rows, dtype=np.int64) + start
            start += len(lines)


def _parse_rows(texts: list[str], dtype: np.dtype = PHOTON_DTYPE) -> np.ndarray:
    if not texts:
        return np.empty(0, dtype=dtype)
    return np.loadtxt(texts, delimiter=",", dtype=dtype, comments=None, quotechar='"', ndmin=1)


def load_photons(path: Path | str) -> np.ndarray:
    """Read a photon CSV into a ``PHOTON_DTYPE`` table, rejecting malformed
    rows with their row numbers.  The file is parsed ``CSV_BLOCK_ROWS`` lines
    at a time, so that its text is never held whole."""
    path = Path(path)
    blocks, linenos = [_parse_rows([])], [np.zeros(0, dtype=np.int64)]
    problems: list[tuple[int, str]] = []
    for texts, rownos in _csv_blocks(path, PHOTON_CSV_HEADER):
        try:
            table = _parse_rows(texts)
        except ValueError:
            bad = _unparsable_rows(texts, rownos)
            parsed = ~np.isin(rownos, [lineno for lineno, _ in bad])
            texts = [text for text, ok in zip(texts, parsed) if ok]
            rownos = rownos[parsed]
            table = _parse_rows(texts)
            problems += bad
        blocks.append(table)
        linenos.append(rownos)
    table = np.concatenate(blocks)
    del blocks
    problems += _invalid_rows(table, np.concatenate(linenos))

    if problems:
        problems.sort()
        shown = "; ".join(msg for _, msg in problems[:10])
        more = f" (+{len(problems) - 10} more)" if len(problems) > 10 else ""
        raise ValueError(f"{path}: {len(problems)} malformed rows: {shown}{more}")
    return table


def _unparsable_rows(texts: list[str], linenos: np.ndarray) -> list[tuple[int, str]]:
    """Rows with a wrong field count or a field that does not parse.  Rows
    are parsed one at a time here, only after their block's parse failed."""
    problems = []
    for lineno, text in zip(linenos.tolist(), texts):
        row = next(csv.reader([text]))
        if len(row) != len(PHOTON_CSV_HEADER):
            problems.append(
                (lineno, f"row {lineno}: expected {len(PHOTON_CSV_HEADER)} fields, got {len(row)}")
            )
            continue
        try:
            _parse_rows([text])
        except ValueError:
            problems.append((lineno, f"row {lineno}: unparsable field in {row!r}"))
    return problems


def _invalid_rows(table: np.ndarray, linenos: np.ndarray) -> list[tuple[int, str]]:
    """Parsed rows with a non-finite value, a code out of range or an id seen
    on an earlier valid row; a row is reported for its first problem."""
    checks = [
        (~np.isfinite(table[name]), name, "is not finite") for name in ("x", "y", "elev", "t")
    ]
    checks += [
        ((table[name] < lo) | (table[name] > hi), name, f"outside {lo}..{hi}")
        for name, lo, hi in (("signal_conf", 0, 4), ("atl08_class", 0, 3))
    ]
    problems = []
    ok = np.ones(len(table), dtype=bool)
    for bad, name, what in checks:
        bad &= ok
        ok &= ~bad
        problems += [
            (lineno, f"row {lineno}: {name}={value} {what}")
            for lineno, value in zip(linenos[bad].tolist(), table[name][bad].tolist())
        ]
    valid = np.nonzero(ok)[0]
    valid = valid[np.argsort(table["id"][valid], kind="stable")]
    repeat = valid[1:][table["id"][valid[1:]] == table["id"][valid[:-1]]]
    problems += [
        (lineno, f"row {lineno}: duplicate photon id {pid}")
        for lineno, pid in zip(linenos[repeat].tolist(), table["id"][repeat].tolist())
    ]
    return problems


def _row_blocks(table: np.ndarray) -> Iterator[list[tuple]]:
    """The table's rows as tuples, ``CSV_BLOCK_ROWS`` at a time."""
    for start in range(0, len(table), CSV_BLOCK_ROWS):
        yield table[start : start + CSV_BLOCK_ROWS].tolist()


def write_photons_csv(table: np.ndarray, path: Path | str) -> None:
    """Write a ``PHOTON_DTYPE`` table in the interchange CSV layout: floats
    as their ``repr``, CRLF line ends, as the ``csv`` module writes them."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(",".join(PHOTON_CSV_HEADER) + "\r\n")
        for rows in _row_blocks(table):
            f.write("".join([
                f"{pid},{x!r},{y!r},{elev!r},{conf},{klass},{beam},{t!r}\r\n"
                for pid, x, y, elev, conf, klass, beam, t in rows
            ]))


def write_clean_csv(clean: np.ndarray, path: Path | str) -> None:
    """Write a ``CLEAN_DTYPE`` table as clean-photon CSV: floats as their
    ``repr``, CRLF line ends, as the ``csv`` module writes them."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(",".join(CLEAN_CSV_HEADER) + "\r\n")
        for rows in _row_blocks(clean):
            f.write("".join([
                f"{x!r},{y!r},{h!r},{kind},{lc_class},{size}\r\n"
                for x, y, h, kind, lc_class, size in rows
            ]))


def read_clean_csv(path: Path | str) -> np.ndarray:
    """Read a clean-photon CSV into a ``CLEAN_DTYPE`` table, rejecting a bad
    header or the first malformed row with its row number.  The file is
    parsed ``CSV_BLOCK_ROWS`` lines at a time, as ``load_photons`` parses."""
    path = Path(path)
    blocks = [np.empty(0, dtype=CLEAN_DTYPE)]
    blocks += (_parse_clean_block(path, lines, linenos)
               for lines, linenos in _csv_blocks(path, CLEAN_CSV_HEADER))
    return np.concatenate(blocks)


def _parse_clean_block(path: Path, lines: list[str], linenos: np.ndarray) -> np.ndarray:
    """A block's rows as a ``CLEAN_DTYPE`` table: one ``np.loadtxt`` parse, or
    the row parser where that fails or reads a kind other than the two."""
    try:
        table = _parse_rows(lines, _CLEAN_PARSE_DTYPE)
        if np.isin(table["kind"], (KIND_GROUND, KIND_OBJECT)).all():
            return table.astype(CLEAN_DTYPE)
    except ValueError:
        pass
    return _parse_clean_rows(path, lines, linenos)


# The kind field is one character wider than CLEAN_DTYPE's, so that a longer
# kind cannot parse as a valid one cut short.
_CLEAN_PARSE_DTYPE = np.dtype([
    (name, "<U7" if name == "kind" else CLEAN_DTYPE[name]) for name in CLEAN_DTYPE.names
])


def _parse_clean_rows(path: Path, lines: list[str], linenos: np.ndarray) -> np.ndarray:
    """A block's clean-photon rows parsed one at a time with the ``csv``
    module, only after the block's parse failed: the block's table, or its
    first malformed row."""
    out = []
    for lineno, line in zip(linenos.tolist(), lines):
        row = next(csv.reader([line]))
        try:
            kind = row[3]
            if kind not in (KIND_GROUND, KIND_OBJECT):
                raise ValueError(kind)
            out.append((float(row[0]), float(row[1]), float(row[2]), kind,
                        int(row[4]), int(row[5])))
        except (ValueError, IndexError):
            raise ValueError(f"{path}: malformed row {lineno}: {row!r}") from None
    return np.array(out, dtype=CLEAN_DTYPE)


# ===== Filtering and ground estimation =====


class GroundInterpolator:
    """Per-beam inverse-distance-weighted ground surface from ground photons.

    Queries average up to ``k_max`` nearest ground returns of the query's
    beam within ``radius`` meters, weighted by 1/dist**power; distances are
    ``np.hypot`` of the coordinate differences and ties go to the lower
    photon id.  A ground photon closer than 1e-6 m short-circuits to the
    elevation of the lowest-id such photon.  ``table`` is a photon table;
    only its ground photons are used.
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
        # per beam: kd-tree, x, y, elevation and id of its ground photons in id order
        self._beams: dict[int, tuple[cKDTree, np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = {}
        for beam, members in zip(beams.tolist(), np.split(ground, starts[1:])):
            xs, ys = np.ascontiguousarray(members["x"]), np.ascontiguousarray(members["y"])
            self._beams[beam] = (
                cKDTree(np.column_stack((xs, ys))),
                xs,
                ys,
                np.ascontiguousarray(members["elev"]),
                np.ascontiguousarray(members["id"]),
            )

    def query(
        self, x: np.ndarray, y: np.ndarray, beam: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """IDW ground elevation at each point (x, y) for its beam, and the
        mask of the points that have one: a point with no ground photon of
        its beam within the search radius has none (elevation 0 there)."""
        value = np.zeros(len(x))
        found = np.zeros(len(x), dtype=bool)
        for b in np.unique(beam).tolist():
            entry = self._beams.get(b)
            if entry is not None:
                rows = np.nonzero(beam == b)[0]
                value[rows], found[rows] = self._query_beam(entry, x[rows], y[rows])
        return value, found

    def _query_beam(self, entry, qx: np.ndarray, qy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        tree, xs, ys, zs, ids = entry
        n = len(xs)
        reach = max(self.radius, COINCIDENT_DIST) * (1.0 + _KD_MARGIN)
        value = np.zeros(len(qx))
        found = np.zeros(len(qx), dtype=bool)
        todo = np.arange(len(qx))
        k = min(2 * self.k_max, n)
        while todo.size:
            # k nearest by kd-tree distance, ranked again by exact distance
            # and id; a row is settled once every photon left out of its
            # candidates lies beyond both its k_max-th pick (or the radius)
            # and the coincidence distance
            kd, cand = tree.query(
                np.column_stack((qx[todo], qy[todo])),
                k=np.arange(1, k + 1),
                distance_upper_bound=reach,
            )
            cand = np.where(cand < n, cand, 0)
            d = np.hypot(xs[cand] - qx[todo, None], ys[cand] - qy[todo, None])
            d = np.where(np.isfinite(kd), d, np.inf)
            near = d < COINCIDENT_DIST
            coincident = near.any(axis=1)
            lowest = np.argmin(np.where(near, ids[cand], np.iinfo(np.int64).max), axis=1)
            in_radius = np.where((d <= self.radius) & ~coincident[:, None], d, np.inf)
            order = np.lexsort((ids[cand], in_radius), axis=1)[:, : self.k_max]
            chosen = np.take_along_axis(cand, order, axis=1)
            dist = np.take_along_axis(in_radius, order, axis=1)
            m = np.isfinite(dist).sum(axis=1)
            bound = np.where(coincident, 0.0, np.where(m == self.k_max, dist[:, -1], self.radius))
            settled = (
                (k == n)
                | np.isinf(kd[:, -1])
                | (np.maximum(bound, COINCIDENT_DIST) < kd[:, -1] * (1.0 - _KD_MARGIN))
            )

            w = 1.0 / dist**self.power
            starts = np.arange(len(m)) * dist.shape[1]
            num = segment_sums((w * zs[chosen]).ravel(), starts, m)
            den = segment_sums(w.ravel(), starts, m)
            idw = np.divide(num, den, out=np.zeros(len(m)), where=m > 0)
            rows = todo[settled]
            value[rows] = np.where(coincident, zs[cand[np.arange(len(m)), lowest]], idw)[settled]
            found[rows] = (coincident | (m > 0))[settled]
            todo = todo[~settled]
            k = min(2 * k, n)
        return value, found


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


# Neighbour-list entries whose edges are listed at a time: points are taken
# in blocks of about this many entries, so that clustering memory is the
# points plus one block of edges however dense the photons are.
_EDGE_BLOCK = 1 << 16


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
    coords = np.column_stack(
        (table["x"][order], table["y"][order], params.height_weight * h[order])
    )
    tree = cKDTree(coords)
    count = tree.query_ball_point(coords, params.eps, return_length=True)
    is_core = count >= params.min_pts

    # the neighbours of a block of points at a time, blocks cut by the
    # running neighbour count: core-core edges join components, each
    # labelled by its lowest index, across blocks; a non-core point has all
    # its neighbours in its own block and picks its nearest core there, ties
    # to the lower id, by the dot product np.linalg.norm takes of one
    # difference vector
    parent = np.arange(n)
    nearest = np.full(n, -1, dtype=np.int64)
    ends = np.cumsum(count)
    cuts = np.searchsorted(ends, np.arange(_EDGE_BLOCK, ends[-1], _EDGE_BLOCK), side="right")
    bounds = np.unique(np.concatenate(([0], cuts, [n])))
    for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        edges = cKDTree(coords[lo:hi]).sparse_distance_matrix(
            tree, params.eps, output_type="ndarray"
        )
        a, b = edges["i"] + lo, edges["j"]
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
