"""Sparse LiDAR photon ingestion and cleaning.

Input photons arrive as CSV with header ``id,x,y,elev,signal_conf,atl08_class,beam,t``
(meters, UTF-8, '.' decimal separator).  The cleaning pipeline keeps
high-confidence ground and top-of-canopy returns, estimates the local ground
surface per beam, normalizes elevations to heights above ground, drops
photons that contradict the land-cover map, and condenses object returns into
density-cluster centroids.  Clean photons leave as CSV with header
``x,y,h_ag,kind,lc_class,cluster_size``.

Cleaning runs on one photon table, a numpy structured array with one field
per CSV column (``PHOTON_DTYPE``), so that each stage is a mask or a batched
call over it.  The per-stage functions that take and return the dataclasses
below are thin adapters over the same array code.
"""

from __future__ import annotations

import csv
import io
import itertools
import logging
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np
from scipy.spatial import cKDTree

from .raster import (
    GeometryError,
    HeightRaster,
    LC_BUILDING,
    LC_TREE,
    LandCoverRaster,
    Raster,
    sample_bilinear_many,
    segment_sums,
)

logger = logging.getLogger(__name__)

PHOTON_CSV_HEADER = ("id", "x", "y", "elev", "signal_conf", "atl08_class", "beam", "t")
CLEAN_CSV_HEADER = ("x", "y", "h_ag", "kind", "lc_class", "cluster_size")

# Photon and clean-photon tables: one field per CSV column.
PHOTON_DTYPE = np.dtype([
    ("id", "<i8"), ("x", "<f8"), ("y", "<f8"), ("elev", "<f8"),
    ("signal_conf", "<i8"), ("atl08_class", "<i8"), ("beam", "<i8"), ("t", "<f8"),
])
CLEAN_DTYPE = np.dtype([
    ("x", "<f8"), ("y", "<f8"), ("h_ag", "<f8"), ("kind", "<U6"),
    ("lc_class", "<i8"), ("cluster_size", "<i8"),
])

# Photon classification codes carried in the atl08_class column.
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
GROUND_SOURCES = ("idw", "dtm_fallback", "dtm_override")

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


# ===== Types =====


@dataclass(frozen=True)
class Photon:
    """One raw photon return in projected map coordinates."""

    id: int
    x: float
    y: float
    elev: float
    signal_conf: int
    atl08_class: int
    beam: int
    t: float


@dataclass(frozen=True)
class GroundEstimate:
    """Ground elevation assigned to one photon, with its provenance."""

    photon_id: int
    ground_elev: float
    source: str  # "idw" | "dtm_fallback" | "dtm_override"


@dataclass(frozen=True)
class NormalizedPhoton:
    """Photon reduced to height above ground, before clustering."""

    id: int
    x: float
    y: float
    h_ag: float
    kind: str
    beam: int
    lc_class: Optional[int] = None


@dataclass(frozen=True)
class CleanPhoton:
    """Pipeline output: either a ground return or an object-cluster centroid."""

    x: float
    y: float
    h_ag: float
    kind: str
    lc_class: int
    cluster_size: int


@dataclass(frozen=True)
class ClusterParams:
    """Density clustering knobs for object photons."""

    eps: float = 3.0
    min_pts: int = 3
    height_weight: float = 1.0


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


# ===== Photon tables =====


def _table(photons: Sequence[Photon]) -> np.ndarray:
    """Photon table of a sequence of photons, in their order."""
    return np.array(
        [(p.id, p.x, p.y, p.elev, p.signal_conf, p.atl08_class, p.beam, p.t) for p in photons],
        dtype=PHOTON_DTYPE,
    )


def _column(items: Sequence, name: str, dtype=np.float64) -> np.ndarray:
    return np.array([getattr(item, name) for item in items], dtype=dtype)


# ===== CSV I/O =====


def read_photon_table(path: Path | str) -> np.ndarray:
    """Read a photon CSV into a ``PHOTON_DTYPE`` table, rejecting malformed
    rows with their row numbers."""
    path = Path(path)
    with open(path, "r", encoding="utf-8", newline="") as f:
        lines = f.read().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty photon CSV")
    header = next(csv.reader(lines[:1]))
    if tuple(h.strip() for h in header) != PHOTON_CSV_HEADER:
        raise ValueError(
            f"{path}: bad header {header!r}, expected {','.join(PHOTON_CSV_HEADER)}"
        )
    rows = [i for i, line in enumerate(lines) if i > 0 and line.strip()]
    texts = [lines[i] for i in rows]
    linenos = np.array(rows, dtype=np.int64) + 1

    problems: list[tuple[int, str]] = []
    try:
        table = _parse_rows(texts)
    except ValueError:
        problems = _unparsable_rows(texts, linenos)
        parsed = ~np.isin(linenos, [lineno for lineno, _ in problems])
        texts = [text for text, ok in zip(texts, parsed) if ok]
        linenos = linenos[parsed]
        table = _parse_rows(texts)
    problems += _invalid_rows(table, linenos)

    if problems:
        problems.sort()
        shown = "; ".join(msg for _, msg in problems[:10])
        more = f" (+{len(problems) - 10} more)" if len(problems) > 10 else ""
        raise ValueError(f"{path}: {len(problems)} malformed rows: {shown}{more}")
    return table


def _parse_rows(texts: list[str]) -> np.ndarray:
    if not texts:
        return np.empty(0, dtype=PHOTON_DTYPE)
    return np.loadtxt(
        texts, delimiter=",", dtype=PHOTON_DTYPE, comments=None, quotechar='"', ndmin=1
    )


def _unparsable_rows(texts: list[str], linenos: np.ndarray) -> list[tuple[int, str]]:
    """Rows with a wrong field count or a field that does not parse.  Rows
    are parsed one at a time here, only after the whole-file parse failed."""
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


def load_photons(path: Path | str) -> list[Photon]:
    """Read a photon CSV, rejecting malformed rows with their row numbers."""
    return [Photon(*row) for row in read_photon_table(path).tolist()]


def write_photons_csv(photons: Sequence[Photon], path: Path | str) -> None:
    """Write raw photons in the interchange CSV layout."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(PHOTON_CSV_HEADER)
        for p in photons:
            writer.writerow(
                [p.id, repr(p.x), repr(p.y), repr(p.elev), p.signal_conf, p.atl08_class, p.beam, repr(p.t)]
            )


def write_clean_table(clean: np.ndarray, path: Path | str) -> None:
    """Write a ``CLEAN_DTYPE`` table as clean-photon CSV: floats as their
    ``repr``, CRLF line ends, as the ``csv`` module writes them."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    rows = [
        f"{x!r},{y!r},{h!r},{kind},{lc_class},{size}\r\n"
        for x, y, h, kind, lc_class, size in clean.tolist()
    ]
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(",".join(CLEAN_CSV_HEADER) + "\r\n")
        f.write("".join(rows))


def write_clean_csv(photons: Sequence[CleanPhoton], path: Path | str) -> None:
    clean = np.array(
        [(p.x, p.y, p.h_ag, p.kind, p.lc_class, p.cluster_size) for p in photons],
        dtype=CLEAN_DTYPE,
    )
    write_clean_table(clean, path)


def read_clean_table(path: Path | str) -> np.ndarray:
    """Read a clean-photon CSV into a ``CLEAN_DTYPE`` table, rejecting a bad
    header or a malformed row with its row number."""
    path = Path(path)
    with open(path, "r", encoding="utf-8", newline="") as f:
        text = f.read()
    header = next(csv.reader(io.StringIO(text, newline="")), None)
    if header is None or tuple(h.strip() for h in header) != CLEAN_CSV_HEADER:
        raise ValueError(f"{path}: bad header, expected {','.join(CLEAN_CSV_HEADER)}")
    rows = [line for line in text.replace("\r\n", "\n").replace("\r", "\n").split("\n")[1:]
            if line]
    if not rows:
        return np.empty(0, dtype=CLEAN_DTYPE)
    try:
        table = np.loadtxt(rows, delimiter=",", dtype=_CLEAN_PARSE_DTYPE, comments=None,
                           quotechar='"', ndmin=1)
        if np.isin(table["kind"], (KIND_GROUND, KIND_OBJECT)).all():
            return table.astype(CLEAN_DTYPE)
    except ValueError:
        pass
    return _parse_clean_rows(path, text)


# The kind field is one character wider than CLEAN_DTYPE's, so that a longer
# kind cannot parse as a valid one cut short.
_CLEAN_PARSE_DTYPE = np.dtype([
    (name, "<U7" if name == "kind" else CLEAN_DTYPE[name]) for name in CLEAN_DTYPE.names
])


def _parse_clean_rows(path: Path, text: str) -> np.ndarray:
    """Clean-photon rows parsed one at a time with the ``csv`` module, only
    after the whole-file parse failed: the table, or the first malformed row."""
    out = []
    reader = csv.reader(io.StringIO(text, newline=""))
    next(reader)
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        try:
            kind = row[3]
            if kind not in (KIND_GROUND, KIND_OBJECT):
                raise ValueError(kind)
            out.append((float(row[0]), float(row[1]), float(row[2]), kind,
                        int(row[4]), int(row[5])))
        except (ValueError, IndexError):
            raise ValueError(f"{path}: malformed row {lineno}: {row!r}") from None
    return np.array(out, dtype=CLEAN_DTYPE)


def read_clean_csv(path: Path | str) -> list[CleanPhoton]:
    return [CleanPhoton(*row) for row in read_clean_table(path).tolist()]


# ===== Filtering and ground estimation =====


def _confident(table: np.ndarray) -> np.ndarray:
    return np.isin(table["signal_conf"], KEPT_CONFIDENCE) & np.isin(
        table["atl08_class"], KEPT_CLASSES
    )


def filter_confidence(photons: Sequence[Photon]) -> list[Photon]:
    """Keep high-confidence ground and top-of-canopy returns only."""
    return [p for p, keep in zip(photons, _confident(_table(photons)).tolist()) if keep]


class GroundInterpolator:
    """Per-beam inverse-distance-weighted ground surface from ground photons.

    Queries average up to ``k_max`` nearest ground returns of the query's
    beam within ``radius`` meters, weighted by 1/dist**power; distances are
    ``np.hypot`` of the coordinate differences and ties go to the lower
    photon id.  A ground photon closer than 1e-6 m short-circuits to the
    elevation of the lowest-id such photon.  ``photons`` is a sequence of
    ``Photon`` or a photon table; only its ground photons are used.
    """

    def __init__(
        self,
        photons: Sequence[Photon] | np.ndarray,
        power: float = 2.0,
        radius: float = 100.0,
        k_max: int = 16,
    ) -> None:
        if power <= 0 or radius <= 0 or k_max < 1:
            raise ValueError(
                f"bad IDW parameters power={power} radius={radius} k_max={k_max}"
            )
        self.power = power
        self.radius = radius
        self.k_max = k_max
        table = photons if isinstance(photons, np.ndarray) else _table(photons)
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

    def query(self, x: float, y: float, beam: int) -> Optional[float]:
        """IDW ground elevation at (x, y) for one beam, or None when no
        ground photon lies within the search radius."""
        value, found = self.query_many(
            np.array([x], dtype=np.float64), np.array([y], dtype=np.float64), np.array([beam])
        )
        return float(value[0]) if found[0] else None

    def query_many(
        self, x: np.ndarray, y: np.ndarray, beam: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``query`` at arrays of points: the elevations and a mask of the
        points that had one (elevation 0 where not)."""
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


def interpolate_ground_idw(
    photons: Sequence[Photon],
    x: float,
    y: float,
    beam: int,
    power: float = 2.0,
    radius: float = 100.0,
    k_max: int = 16,
) -> Optional[float]:
    """One-shot IDW ground query; see GroundInterpolator for the rules."""
    return GroundInterpolator(photons, power=power, radius=radius, k_max=k_max).query(x, y, beam)


def _ground_estimates(
    ids: np.ndarray,
    idw: np.ndarray,
    found: np.ndarray,
    dtm: HeightRaster,
    x: np.ndarray,
    y: np.ndarray,
    tau: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Ground elevation and source code (an index into ``GROUND_SOURCES``)
    per photon; see enforce_dtm_consistency for the rules."""
    dtm_value, on_dtm = sample_bilinear_many(dtm, x, y)
    lost = ~found & ~on_dtm
    if lost.any():
        i = int(np.argmax(lost))
        raise ValueError(
            f"photon {int(ids[i])}: no ground source at ({float(x[i])}, {float(y[i])}); "
            "IDW found no neighbors and the DTM is nodata there"
        )
    source = np.where(~found, 1, np.where(on_dtm & (np.abs(idw - dtm_value) > tau), 2, 0))
    return np.where(source == 0, idw, dtm_value), source


def enforce_dtm_consistency(
    photon_id: int,
    idw_value: Optional[float],
    dtm: HeightRaster,
    x: float,
    y: float,
    tau: float = 10.0,
) -> GroundEstimate:
    """Reconcile an IDW ground value with the reference terrain model.

    The DTM replaces the IDW value when the two disagree by more than
    ``tau`` meters (source "dtm_override") and fills in whenever IDW had
    no answer (source "dtm_fallback"); otherwise the IDW value stands.
    """
    ground, source = _ground_estimates(
        np.array([photon_id]),
        np.array([0.0 if idw_value is None else idw_value], dtype=np.float64),
        np.array([idw_value is not None]),
        dtm,
        np.array([x], dtype=np.float64),
        np.array([y], dtype=np.float64),
        tau,
    )
    return GroundEstimate(photon_id, float(ground[0]), GROUND_SOURCES[int(source[0])])


def _heights(elev: np.ndarray, ground_elev: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Object heights above ground, clamped to 0 from -2 m up, and the mask
    of photons kept (not below -2 m)."""
    h = elev - ground_elev
    return ~(h < NEGATIVE_CLAMP_FLOOR), np.where(h < 0.0, 0.0, h)


def normalize_heights(
    photons: Sequence[Photon],
    estimates: dict[int, GroundEstimate],
) -> list[NormalizedPhoton]:
    """Convert photon elevations to heights above ground.

    Ground-class photons are fixed at exactly 0 m.  Object photons between
    -2 m and 0 m are clamped to 0; anything below -2 m is discarded.
    """
    is_ground = [p.atl08_class == CLASS_GROUND for p in photons]
    ground_elev = np.zeros(len(photons))
    for i, p in enumerate(photons):
        if not is_ground[i]:
            try:
                ground_elev[i] = estimates[p.id].ground_elev
            except KeyError:
                raise KeyError(f"photon {p.id} has no ground estimate") from None
    keep, h = _heights(_column(photons, "elev"), ground_elev)
    return [
        NormalizedPhoton(p.id, p.x, p.y, 0.0, KIND_GROUND, p.beam)
        if g
        else NormalizedPhoton(p.id, p.x, p.y, h_ag, KIND_OBJECT, p.beam)
        for p, g, k, h_ag in zip(photons, is_ground, keep.tolist(), h.tolist())
        if g or k
    ]


def _plausible(
    ids: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    h: np.ndarray,
    is_ground: np.ndarray,
    lc: LandCoverRaster,
    bounds: dict[int, tuple[float, float]],
) -> tuple[np.ndarray, np.ndarray]:
    """Keep mask and land-cover code per photon; see
    landcover_plausibility_filter for the rules."""
    outside = ~lc.header.contains_point(x, y)
    if outside.any():
        i = int(np.argmax(outside))
        raise GeometryError(
            f"photon {int(ids[i])} at ({float(x[i])}, {float(y[i])}) outside the land-cover raster"
        )
    col, row = lc.header.pixels_of(x, y)
    code = lc.values[row, col].astype(np.int64)
    keep = is_ground.copy()
    for klass, (lo, hi) in bounds.items():
        keep |= (code == klass) & (lo < h) & (h <= hi)
    return keep, code


def landcover_plausibility_filter(
    photons: Sequence[NormalizedPhoton],
    lc: LandCoverRaster,
    class_bounds: Optional[dict[int, tuple[float, float]]] = None,
) -> list[NormalizedPhoton]:
    """Drop object photons that contradict the land-cover map.

    An object photon survives only when its pixel's class has height bounds
    configured (tree and building by default) and its height sits inside
    them (exclusive low, inclusive high).  Ground photons always pass.
    Every kept photon is annotated with the class code under it.
    """
    keep, code = _plausible(
        _column(photons, "id", np.int64),
        _column(photons, "x"),
        _column(photons, "y"),
        _column(photons, "h_ag"),
        np.array([p.kind == KIND_GROUND for p in photons], dtype=bool),
        lc,
        DEFAULT_CLASS_BOUNDS if class_bounds is None else class_bounds,
    )
    return [
        replace(p, lc_class=c) for p, k, c in zip(photons, keep.tolist(), code.tolist()) if k
    ]


# ===== Clustering =====


def _components(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Lowest node index of each node's connected component under the edges
    (a, b): every root hooks onto the lowest root across its edges, then
    pointer jumping flattens the trees, until no edge joins two roots."""
    parent = np.arange(n)
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


def _dbscan(
    ids: np.ndarray, x: np.ndarray, y: np.ndarray, h: np.ndarray, params: ClusterParams
) -> np.ndarray:
    """Cluster number per point, -1 for noise; clusters are numbered in the
    order of their lowest member id.  See dbscan_cluster for the rules."""
    if params.eps <= 0 or params.min_pts < 1:
        raise ValueError(f"bad cluster parameters eps={params.eps} min_pts={params.min_pts}")
    n = len(ids)
    label = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return label

    # work in id order: index order is then id order
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    coords = np.column_stack((x[order], y[order], params.height_weight * h[order]))
    neighborhoods = cKDTree(coords).query_ball_point(coords, r=params.eps)
    count = np.fromiter(map(len, neighborhoods), dtype=np.intp, count=n)
    src = np.repeat(np.arange(n), count)
    dst = np.fromiter(
        itertools.chain.from_iterable(neighborhoods), dtype=np.intp, count=int(count.sum())
    )
    is_core = count >= params.min_pts

    # clusters are the connected components of the core points, each
    # labelled by its lowest index
    link = is_core[src] & is_core[dst]
    root = np.where(is_core, _components(n, src[link], dst[link]), -1)

    # a non-core point within eps of a core joins the cluster of its nearest
    # core, ties to the lower id; the distance is the dot product
    # np.linalg.norm takes of one difference vector
    border = ~is_core[src] & is_core[dst]
    bi, bj = src[border], dst[border]
    diff = coords[bi] - coords[bj]
    dist = np.sqrt(np.matmul(diff[:, None, :], diff[:, :, None])[:, 0, 0])
    pick = np.lexsort((sorted_ids[bj], dist, bi))
    pick = pick[np.diff(bi[pick], prepend=-1) != 0]
    root[bi[pick]] = root[bj[pick]]

    member = np.nonzero(root >= 0)[0]
    roots, first = np.unique(root[member], return_index=True)
    number = np.empty(n, dtype=np.int64)
    number[roots[np.argsort(first)]] = np.arange(len(roots))
    label[order[member]] = number[root[member]]
    return label


def dbscan_cluster(
    photons: Sequence[NormalizedPhoton],
    params: ClusterParams = ClusterParams(),
) -> tuple[list[list[NormalizedPhoton]], list[NormalizedPhoton]]:
    """Density-cluster object photons in (x, y, height_weight * h_ag) space.

    Core points have at least ``min_pts`` neighbors (self included) within
    ``eps``; clusters are the connected components of core points under
    eps-adjacency; a non-core point within eps of a core joins the cluster
    of its nearest core (ties to the lowest photon id), everything else is
    noise.  The partition therefore depends only on geometry and photon
    ids, never on input order.  Clusters are returned ordered by their
    lowest member id, members in id order.
    """
    pts = sorted(photons, key=lambda p: p.id)
    label = _dbscan(
        _column(pts, "id", np.int64), _column(pts, "x"), _column(pts, "y"), _column(pts, "h_ag"),
        params,
    )
    clusters: list[list[NormalizedPhoton]] = [[] for _ in range(int(label.max(initial=-1)) + 1)]
    noise: list[NormalizedPhoton] = []
    for p, k in zip(pts, label.tolist()):
        (clusters[k] if k >= 0 else noise).append(p)
    return clusters, noise


def _centroids(
    sizes: np.ndarray,
    ids: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    h: np.ndarray,
    lc_class: np.ndarray,
    cell: float,
) -> tuple[np.ndarray, ...]:
    """Centroid x, y, mean height, size and majority class of the clusters
    that win their cell, in the order of their lowest member id.  Members
    come cluster by cluster, ``sizes[k]`` rows for cluster k; a class code
    below 0 stands for no class.  See aggregate_cells for the rules."""
    n = len(sizes)
    if n == 0:
        return tuple(np.empty(0, dtype=dt) for dt in (np.float64,) * 3 + (np.int64,) * 2)
    starts = np.cumsum(sizes) - sizes
    cx, cy, ch = (segment_sums(v, starts, sizes) / sizes for v in (x, y, h))
    min_id = np.minimum.reduceat(ids, starts)

    # majority class: the most frequent code, ties to the lower code
    label = np.repeat(np.arange(n), sizes)
    has = lc_class >= 0
    label, code = label[has], lc_class[has]
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
    win = o[np.r_[True, (kx[1:] != kx[:-1]) | (ky[1:] != ky[:-1])]]
    win = win[np.argsort(min_id[win], kind="stable")]
    return cx[win], cy[win], ch[win], sizes[win], majority[win]


def aggregate_cells(
    clusters: Sequence[Sequence[NormalizedPhoton]],
    ground_photons: Sequence[NormalizedPhoton],
    cell: float = 10.0,
) -> list[CleanPhoton]:
    """Collapse clusters to centroids and thin them to one per grid cell.

    Each cluster becomes a single photon at its centroid carrying the mean
    height, member count, and majority land-cover class (ties to the lower
    code).  When several centroids land in the same ``cell`` x ``cell``
    meter tile, the largest cluster wins; equal sizes fall back to the
    lower mean height.  Ground photons pass through unchanged.
    """
    if cell <= 0:
        raise ValueError(f"cell size must be > 0, got {cell}")
    members = [m for c in clusters for m in c]
    lc_class = [-1 if m.lc_class is None else int(m.lc_class) for m in members]
    centroids = _centroids(
        np.array([len(c) for c in clusters if c], dtype=np.int64),
        _column(members, "id", np.int64),
        _column(members, "x"),
        _column(members, "y"),
        _column(members, "h_ag"),
        np.array(lc_class, dtype=np.int64),
        cell,
    )
    out = [
        CleanPhoton(p.x, p.y, 0.0, KIND_GROUND, 0 if p.lc_class is None else int(p.lc_class), 1)
        for p in ground_photons
    ]
    out += [
        CleanPhoton(cx, cy, h, KIND_OBJECT, lc, size)
        for cx, cy, h, size, lc in zip(*(v.tolist() for v in centroids))
    ]
    return out


# ===== Orchestration =====


def clean_photon_table(
    table: np.ndarray,
    dtm: HeightRaster,
    lc: LandCoverRaster,
    params: PreprocessParams = PreprocessParams(),
) -> tuple[np.ndarray, dict]:
    """Run the full photon cleaning pipeline on a photon table.

    Photons outside the DTM or land-cover extent are dropped, as a track
    clipped to a tile runs past its edges.  Returns the clean photons as a
    ``CLEAN_DTYPE`` table (ground photons in input order, then the object
    centroids) and a report: per-stage retention counts, monotonically
    non-increasing (``counts``); the ground-estimate source of each object
    photon (``ground_sources``); and the object photons that DBSCAN put in
    clusters or left as noise (``clustering``).
    """
    counts = {"loaded": len(table)}

    t = table[_confident(table)]
    counts["confidence"] = len(t)

    t = t[dtm.header.contains_point(t["x"], t["y"]) & lc.header.contains_point(t["x"], t["y"])]
    counts["in_extent"] = len(t)

    is_ground = t["atl08_class"] == CLASS_GROUND
    obj = t[~is_ground]
    interp = GroundInterpolator(
        t[is_ground], power=params.idw_power, radius=params.idw_radius, k_max=params.idw_k_max
    )
    idw, found = interp.query_many(obj["x"], obj["y"], obj["beam"])
    ground_elev, source = _ground_estimates(
        obj["id"], idw, found, dtm, obj["x"], obj["y"], params.dtm_tau
    )
    sources = {name: int(np.count_nonzero(source == i)) for i, name in enumerate(GROUND_SOURCES)}
    logger.info("ground estimates: %s", sources)

    keep, h_obj = _heights(obj["elev"], ground_elev)
    h = np.zeros(len(t))
    h[~is_ground] = h_obj
    kept = is_ground.copy()
    kept[~is_ground] = keep
    t, h, is_ground = t[kept], h[kept], is_ground[kept]
    counts["normalized"] = len(t)

    keep, code = _plausible(t["id"], t["x"], t["y"], h, is_ground, lc, params.class_bounds)
    t, h, is_ground, code = t[keep], h[keep], is_ground[keep], code[keep]
    counts["landcover"] = len(t)

    obj = ~is_ground
    label = _dbscan(t["id"][obj], t["x"][obj], t["y"][obj], h[obj], params.cluster)
    noise = int(np.count_nonzero(label < 0))
    n_clusters = int(label.max(initial=-1)) + 1
    logger.info(
        "clustering: %d object photons -> %d clusters, %d noise", len(label), n_clusters, noise
    )
    member = np.nonzero(label >= 0)[0]
    member = member[np.lexsort((t["id"][obj][member], label[member]))]
    cx, cy, ch, size, majority = _centroids(
        np.bincount(label[member], minlength=n_clusters),
        *(v[obj][member] for v in (t["id"], t["x"], t["y"], h, code)),
        params.cell,
    )

    # ground photons pass through, then one row per surviving cluster
    g = int(np.count_nonzero(is_ground))
    clean = np.empty(g + len(cx), dtype=CLEAN_DTYPE)
    for name, ground_values, object_values in (
        ("x", t["x"][is_ground], cx),
        ("y", t["y"][is_ground], cy),
        ("h_ag", 0.0, ch),
        ("kind", KIND_GROUND, KIND_OBJECT),
        ("lc_class", code[is_ground], majority),
        ("cluster_size", 1, size),
    ):
        clean[name][:g] = ground_values
        clean[name][g:] = object_values
    counts["clean"] = len(clean)

    report = {
        "counts": counts,
        "ground_sources": sources,
        "clustering": {"clusters": n_clusters, "clustered": len(label) - noise, "noise": noise},
    }
    return clean, report


def preprocess_photons(
    photons: Sequence[Photon],
    dtm: HeightRaster,
    lc: LandCoverRaster,
    params: PreprocessParams = PreprocessParams(),
) -> tuple[list[CleanPhoton], dict[str, int]]:
    """Run the full photon cleaning pipeline (see clean_photon_table).

    Returns the clean photons plus per-stage retention counts
    (monotonically non-increasing).
    """
    clean, report = clean_photon_table(_table(photons), dtm, lc, params)
    return [CleanPhoton(*row) for row in clean.tolist()], report["counts"]
