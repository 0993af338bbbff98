"""Sparse LiDAR photon ingestion and cleaning.

Input photons arrive as CSV with header ``id,x,y,elev,signal_conf,atl08_class,beam,t``
(meters, UTF-8, '.' decimal separator).  The cleaning pipeline keeps
high-confidence ground and top-of-canopy returns, estimates the local ground
surface per beam, normalizes elevations to heights above ground, drops
photons that contradict the land-cover map, and condenses object returns into
density-cluster centroids.  Clean photons leave as CSV with header
``x,y,h_ag,kind,lc_class,cluster_size``.
"""

from __future__ import annotations

import csv
import logging
import math
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
    sample_bilinear,
)

logger = logging.getLogger(__name__)

PHOTON_CSV_HEADER = ("id", "x", "y", "elev", "signal_conf", "atl08_class", "beam", "t")
CLEAN_CSV_HEADER = ("x", "y", "h_ag", "kind", "lc_class", "cluster_size")

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


# ===== CSV I/O =====


def load_photons(path: Path | str) -> list[Photon]:
    """Read a photon CSV, rejecting malformed rows with their row numbers."""
    path = Path(path)
    problems: list[str] = []
    photons: list[Photon] = []
    seen_ids: set[int] = set()

    with open(path, "r", encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty photon CSV") from None
        if tuple(h.strip() for h in header) != PHOTON_CSV_HEADER:
            raise ValueError(
                f"{path}: bad header {header!r}, expected {','.join(PHOTON_CSV_HEADER)}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(PHOTON_CSV_HEADER):
                problems.append(f"row {lineno}: expected {len(PHOTON_CSV_HEADER)} fields, got {len(row)}")
                continue
            try:
                photon = Photon(
                    id=int(row[0]),
                    x=float(row[1]),
                    y=float(row[2]),
                    elev=float(row[3]),
                    signal_conf=int(row[4]),
                    atl08_class=int(row[5]),
                    beam=int(row[6]),
                    t=float(row[7]),
                )
            except ValueError:
                problems.append(f"row {lineno}: unparsable field in {row!r}")
                continue
            if not (0 <= photon.signal_conf <= 4):
                problems.append(f"row {lineno}: signal_conf={photon.signal_conf} outside 0..4")
                continue
            if not (0 <= photon.atl08_class <= 3):
                problems.append(f"row {lineno}: atl08_class={photon.atl08_class} outside 0..3")
                continue
            if photon.id in seen_ids:
                problems.append(f"row {lineno}: duplicate photon id {photon.id}")
                continue
            seen_ids.add(photon.id)
            photons.append(photon)

    if problems:
        shown = "; ".join(problems[:10])
        more = f" (+{len(problems) - 10} more)" if len(problems) > 10 else ""
        raise ValueError(f"{path}: {len(problems)} malformed rows: {shown}{more}")
    return photons


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


def write_clean_csv(photons: Sequence[CleanPhoton], path: Path | str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(CLEAN_CSV_HEADER)
        for p in photons:
            writer.writerow([repr(p.x), repr(p.y), repr(p.h_ag), p.kind, p.lc_class, p.cluster_size])


def read_clean_csv(path: Path | str) -> list[CleanPhoton]:
    path = Path(path)
    out: list[CleanPhoton] = []
    with open(path, "r", encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != CLEAN_CSV_HEADER:
            raise ValueError(f"{path}: bad header, expected {','.join(CLEAN_CSV_HEADER)}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                kind = row[3]
                if kind not in (KIND_GROUND, KIND_OBJECT):
                    raise ValueError(kind)
                out.append(
                    CleanPhoton(
                        x=float(row[0]),
                        y=float(row[1]),
                        h_ag=float(row[2]),
                        kind=kind,
                        lc_class=int(row[4]),
                        cluster_size=int(row[5]),
                    )
                )
            except (ValueError, IndexError):
                raise ValueError(f"{path}: malformed row {lineno}: {row!r}") from None
    return out


# ===== Filtering and ground estimation =====


def filter_confidence(photons: Sequence[Photon]) -> list[Photon]:
    """Keep high-confidence ground and top-of-canopy returns only."""
    return [
        p
        for p in photons
        if p.signal_conf in KEPT_CONFIDENCE and p.atl08_class in KEPT_CLASSES
    ]


class GroundInterpolator:
    """Per-beam inverse-distance-weighted ground surface from ground photons.

    Queries average up to ``k_max`` nearest ground returns of the query's
    beam within ``radius`` meters, weighted by 1/dist**power.  A ground
    photon closer than 1e-6 m short-circuits to that photon's elevation.
    """

    def __init__(
        self,
        photons: Sequence[Photon],
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
        self._beams: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = {}
        grouped: dict[int, list[Photon]] = {}
        for p in photons:
            if p.atl08_class == CLASS_GROUND:
                grouped.setdefault(p.beam, []).append(p)
        for beam, members in grouped.items():
            members.sort(key=lambda p: p.id)
            xs = np.array([p.x for p in members], dtype=np.float64)
            ys = np.array([p.y for p in members], dtype=np.float64)
            zs = np.array([p.elev for p in members], dtype=np.float64)
            ids = np.array([p.id for p in members], dtype=np.int64)
            self._beams[beam] = (xs, ys, zs, ids)

    def query(self, x: float, y: float, beam: int) -> Optional[float]:
        """IDW ground elevation at (x, y) for one beam, or None when no
        ground photon lies within the search radius."""
        entry = self._beams.get(beam)
        if entry is None:
            return None
        xs, ys, zs, ids = entry
        d = np.hypot(xs - x, ys - y)
        near = np.nonzero(d < COINCIDENT_DIST)[0]
        if near.size:
            return float(zs[near[0]])  # members are in id order already
        in_radius = np.nonzero(d <= self.radius)[0]
        if in_radius.size == 0:
            return None
        # Deterministic k-nearest: order by distance, ties by photon id.
        order = np.lexsort((ids[in_radius], d[in_radius]))
        chosen = in_radius[order[: self.k_max]]
        w = 1.0 / d[chosen] ** self.power
        return float(np.sum(w * zs[chosen]) / np.sum(w))


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
    dtm_value = sample_bilinear(dtm, x, y)
    if dtm_value is None:
        if idw_value is None:
            raise ValueError(
                f"photon {photon_id}: no ground source at ({x}, {y}); "
                "IDW found no neighbors and the DTM is nodata there"
            )
        return GroundEstimate(photon_id, float(idw_value), "idw")
    if idw_value is None:
        return GroundEstimate(photon_id, float(dtm_value), "dtm_fallback")
    if abs(idw_value - dtm_value) > tau:
        return GroundEstimate(photon_id, float(dtm_value), "dtm_override")
    return GroundEstimate(photon_id, float(idw_value), "idw")


def normalize_heights(
    photons: Sequence[Photon],
    estimates: dict[int, GroundEstimate],
) -> list[NormalizedPhoton]:
    """Convert photon elevations to heights above ground.

    Ground-class photons are fixed at exactly 0 m.  Object photons between
    -2 m and 0 m are clamped to 0; anything below -2 m is discarded.
    """
    out: list[NormalizedPhoton] = []
    for p in photons:
        if p.atl08_class == CLASS_GROUND:
            out.append(NormalizedPhoton(p.id, p.x, p.y, 0.0, KIND_GROUND, p.beam))
            continue
        try:
            est = estimates[p.id]
        except KeyError:
            raise KeyError(f"photon {p.id} has no ground estimate") from None
        h_ag = p.elev - est.ground_elev
        if h_ag < NEGATIVE_CLAMP_FLOOR:
            continue
        if h_ag < 0.0:
            h_ag = 0.0
        out.append(NormalizedPhoton(p.id, p.x, p.y, h_ag, KIND_OBJECT, p.beam))
    return out


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
    bounds = DEFAULT_CLASS_BOUNDS if class_bounds is None else class_bounds
    out: list[NormalizedPhoton] = []
    for p in photons:
        if not lc.header.contains_point(p.x, p.y):
            raise GeometryError(
                f"photon {p.id} at ({p.x}, {p.y}) outside the land-cover raster"
            )
        col, row = lc.header.pixel_of(p.x, p.y)
        code = int(lc.values[row, col])
        if p.kind == KIND_GROUND:
            out.append(replace(p, lc_class=code))
            continue
        limits = bounds.get(code)
        if limits is None:
            continue
        lo, hi = limits
        if lo < p.h_ag <= hi:
            out.append(replace(p, lc_class=code))
    return out


# ===== Clustering =====


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
    if params.eps <= 0 or params.min_pts < 1:
        raise ValueError(f"bad cluster parameters eps={params.eps} min_pts={params.min_pts}")

    pts = sorted(photons, key=lambda p: p.id)
    n = len(pts)
    if n == 0:
        return [], []

    coords = np.array(
        [(p.x, p.y, params.height_weight * p.h_ag) for p in pts], dtype=np.float64
    )

    tree = cKDTree(coords)
    neighborhoods = tree.query_ball_point(coords, r=params.eps)
    counts = np.array([len(nb) for nb in neighborhoods])
    is_core = counts >= params.min_pts

    # Union-find over core-core adjacency.
    parent = np.arange(n)

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in np.nonzero(is_core)[0]:
        for j in neighborhoods[i]:
            if is_core[j]:
                ri, rj = find(int(i)), find(int(j))
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)

    labels = np.full(n, -1, dtype=np.int64)
    for i in np.nonzero(is_core)[0]:
        labels[i] = find(int(i))

    for i in np.nonzero(~is_core)[0]:
        best: Optional[tuple[float, int]] = None
        for j in neighborhoods[int(i)]:
            if not is_core[j]:
                continue
            d = float(np.linalg.norm(coords[int(i)] - coords[j]))
            key = (d, pts[j].id)
            if best is None or key < best:
                best = key
                labels[i] = labels[j]
        # no core neighbor -> stays noise

    clusters: dict[int, list[NormalizedPhoton]] = {}
    noise: list[NormalizedPhoton] = []
    for i, p in enumerate(pts):
        if labels[i] < 0:
            noise.append(p)
        else:
            clusters.setdefault(int(labels[i]), []).append(p)

    ordered = sorted(clusters.values(), key=lambda members: members[0].id)
    return ordered, noise


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

    out: list[CleanPhoton] = [
        CleanPhoton(p.x, p.y, 0.0, KIND_GROUND, 0 if p.lc_class is None else int(p.lc_class), 1)
        for p in ground_photons
    ]

    records = []
    for members in clusters:
        if not members:
            continue
        xs = np.array([m.x for m in members], dtype=np.float64)
        ys = np.array([m.y for m in members], dtype=np.float64)
        hs = np.array([m.h_ag for m in members], dtype=np.float64)
        codes = [int(m.lc_class) for m in members if m.lc_class is not None]
        tally: dict[int, int] = {}
        for c in codes:
            tally[c] = tally.get(c, 0) + 1
        lc_class = min(tally, key=lambda c: (-tally[c], c)) if tally else 0
        min_id = min(m.id for m in members)
        records.append(
            (
                float(np.mean(xs)),
                float(np.mean(ys)),
                float(np.mean(hs)),
                len(members),
                lc_class,
                min_id,
            )
        )

    best_by_cell: dict[tuple[int, int], tuple] = {}
    for rec in records:
        cx, cy, h, size, lc_class, min_id = rec
        key = (int(math.floor(cx / cell)), int(math.floor(cy / cell)))
        incumbent = best_by_cell.get(key)
        if incumbent is None:
            best_by_cell[key] = rec
            continue
        # larger cluster wins; ties prefer the lower mean height, then the
        # lower member id so the outcome never depends on iteration order
        cand = (-size, h, min_id)
        held = (-incumbent[3], incumbent[2], incumbent[5])
        if cand < held:
            best_by_cell[key] = rec

    survivors = sorted(best_by_cell.values(), key=lambda rec: rec[5])
    out.extend(
        CleanPhoton(cx, cy, h, KIND_OBJECT, lc_class, size)
        for cx, cy, h, size, lc_class, _ in survivors
    )
    return out


# ===== Orchestration =====


def preprocess_photons(
    photons: Sequence[Photon],
    dtm: HeightRaster,
    lc: LandCoverRaster,
    params: PreprocessParams = PreprocessParams(),
) -> tuple[list[CleanPhoton], dict[str, int]]:
    """Run the full photon cleaning pipeline.

    Photons outside the DTM or land-cover extent are dropped, as a track
    clipped to a tile runs past its edges.  Returns the clean photons plus
    per-stage retention counts (monotonically non-increasing).
    """
    counts = {"loaded": len(photons)}

    kept = filter_confidence(photons)
    counts["confidence"] = len(kept)

    kept = [
        p
        for p in kept
        if dtm.header.contains_point(p.x, p.y) and lc.header.contains_point(p.x, p.y)
    ]
    counts["in_extent"] = len(kept)

    interp = GroundInterpolator(
        kept, power=params.idw_power, radius=params.idw_radius, k_max=params.idw_k_max
    )
    estimates: dict[int, GroundEstimate] = {}
    sources = {"idw": 0, "dtm_fallback": 0, "dtm_override": 0}
    for p in kept:
        if p.atl08_class == CLASS_GROUND:
            continue
        idw_value = interp.query(p.x, p.y, p.beam)
        est = enforce_dtm_consistency(p.id, idw_value, dtm, p.x, p.y, tau=params.dtm_tau)
        estimates[p.id] = est
        sources[est.source] += 1
    logger.info("ground estimates: %s", sources)

    normalized = normalize_heights(kept, estimates)
    counts["normalized"] = len(normalized)

    plausible = landcover_plausibility_filter(normalized, lc, params.class_bounds)
    counts["landcover"] = len(plausible)

    ground = [p for p in plausible if p.kind == KIND_GROUND]
    objects = [p for p in plausible if p.kind == KIND_OBJECT]
    clusters, noise = dbscan_cluster(objects, params.cluster)
    logger.info(
        "clustering: %d object photons -> %d clusters, %d noise",
        len(objects),
        len(clusters),
        len(noise),
    )

    clean = aggregate_cells(clusters, ground, cell=params.cell)
    counts["clean"] = len(clean)
    return clean, counts
