"""Synthetic benchmark: scenes with known truth, simulated photon tracks,
and controlled corruptions of the truth raster.

Everything here is deterministic in the configured seeds, so benchmark runs
are reproducible end to end.  Scenes place rectangular buildings (lognormal
heights) and flat-topped tree disks over a smooth terrain model, with a
small amount of supporting land cover (roads, water, agriculture patches)
so class-fraction features have something to see.  Track simulation walks
parallel lines across the scene and samples the surface like a photon
counter would: ground class where the truth is below 0.5 m, top-of-canopy
elsewhere.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .photons import CLASS_GROUND, CLASS_TOP_OF_CANOPY, PHOTON_DTYPE
from .raster import (
    HeightRaster,
    LC_AGRICULTURE,
    LC_BARELAND,
    LC_BUILDING,
    LC_DEVELOPED,
    LC_RANGELAND,
    LC_ROAD,
    LC_TREE,
    LC_WATER,
    LandCoverRaster,
    OpticalRaster,
    RasterHeader,
    check_fields,
    check_value,
    is_int,
    row_strips,
    sample_bilinear,
)

logger = logging.getLogger(__name__)

GROUND_SPLIT = 0.5  # meters of truth below which a sample reads as ground

# Flat-shaded RGB per land-cover class, indexed by class code.
PALETTE = np.array(
    [
        [181, 154, 116],  # bareland
        [110, 150, 80],   # rangeland
        [158, 158, 158],  # developed
        [84, 84, 90],     # road
        [34, 102, 45],    # tree
        [52, 84, 160],    # water
        [162, 172, 92],   # agriculture
        [204, 96, 84],    # building
    ],
    dtype=np.uint8,
)

# Land-cover codes trees and aprons may take over, as a lookup by code.
_PLANTABLE = np.zeros(256, dtype=bool)
_PLANTABLE[[LC_RANGELAND, LC_BARELAND, LC_AGRICULTURE]] = True

_TRACK_SPEED = 7000.0  # m/s along-track, used only to fill photon timestamps


@dataclass(frozen=True)
class SceneConfig:
    """Scene layout knobs; densities are fractions of total pixels."""

    size: int = 512
    gsd: float = 0.5
    building_density: float = 0.15
    tree_density: float = 0.10
    building_height_mu_log: float = 2.3
    building_height_sigma_log: float = 0.4
    tree_height_range: tuple[float, float] = (4.0, 18.0)
    terrain_amplitude: float = 15.0
    base_elevation: float = 80.0
    crs_code: int = 32654
    seed: int = 42

    def __post_init__(self) -> None:
        check_fields(self, {"size": ">= 128", "gsd": "> 0", "building_density": ">= 0",
                            "tree_density": ">= 0", "building_height_mu_log": "finite",
                            "building_height_sigma_log": ">= 0", "terrain_amplitude": "finite",
                            "base_elevation": "finite"})
        if not (self.building_density < 0.9 and self.tree_density < 0.9):
            raise ValueError("densities must lie in [0, 0.9)")
        lo, hi = self.tree_height_range
        if not (0.0 < lo < hi < math.inf):
            raise ValueError(f"bad tree height range {self.tree_height_range}")


@dataclass(frozen=True)
class TrackConfig:
    """Knobs of the photon track simulation."""

    n_tracks: int = 6
    track_azimuth: float = 2.0  # degrees clockwise from map north
    along_spacing: float = 0.7
    cross_spacing: float = 40.0
    noise_sigma: float = 0.1
    dropout: float = 0.0
    conf_profile: tuple[float, ...] = (0.02, 0.03, 0.05, 0.30, 0.60)
    seed: int = 42

    def __post_init__(self) -> None:
        check_fields(self, {"n_tracks": ">= 1", "track_azimuth": "finite", "along_spacing": "> 0",
                            "cross_spacing": "> 0", "noise_sigma": ">= 0", "dropout": ">= 0",
                            "conf_profile": ">= 0"})
        if not self.dropout < 1.0:
            raise ValueError(f"dropout must be < 1, got {self.dropout}")
        if len(self.conf_profile) != 5 or abs(sum(self.conf_profile) - 1.0) > 1e-9:
            raise ValueError("conf_profile must be 5 probabilities summing to 1")


@dataclass(frozen=True)
class CorruptionConfig:
    """How to damage the truth raster into a plausible prediction."""

    alpha: float = 1.0
    beta: float = 0.0
    class_bias: Mapping[int, float] = field(default_factory=dict)
    noise_sigma: float = 0.0
    noise_corr: float = 30.0  # correlation length in meters
    seed: int = 42

    def __post_init__(self) -> None:
        check_fields(self, {"alpha": "finite", "beta": "finite", "noise_sigma": ">= 0",
                            "noise_corr": ">= 0"})
        for code, meters in self.class_bias.items():
            if not (is_int(code) and 0 <= code <= 7):
                raise ValueError(f"class_bias code {code!r} must be an integer in 0..7")
            check_value(f"class_bias[{code}]", meters, float, "finite")


# ===== Scene generation =====


def _stamp_rects(
    rng: np.random.Generator,
    lc: np.ndarray,
    code: int,
    count: int,
    side_range: tuple[int, int],
) -> None:
    n = lc.shape[0]
    for _ in range(count):
        w = int(rng.integers(side_range[0], side_range[1] + 1))
        h = int(rng.integers(side_range[0], side_range[1] + 1))
        c0 = int(rng.integers(0, max(n - w, 1)))
        r0 = int(rng.integers(0, max(n - h, 1)))
        lc[r0 : r0 + h, c0 : c0 + w] = code


def _grow(mask: np.ndarray) -> np.ndarray:
    """``mask`` grown by one pixel to its 4 neighbours, nothing past the
    border: one step of ``scipy.ndimage.binary_dilation``'s default."""
    out = mask.copy()
    out[1:] |= mask[:-1]
    out[:-1] |= mask[1:]
    out[:, 1:] |= mask[:, :-1]
    out[:, :-1] |= mask[:, 1:]
    return out


def generate_scene(
    cfg: SceneConfig = SceneConfig(),
) -> tuple[HeightRaster, OpticalRaster, LandCoverRaster, HeightRaster]:
    """Build (truth, optical, landcover, dtm) rasters for one scene.

    Truth is height above ground; the terrain lives in the DTM.  Buildings
    are stamped until their pixel fraction reaches the configured density
    (so the achieved fraction sits within one rectangle of the target),
    then tree disks the same way on pixels not already built on.  The
    terrain is summed one row strip at a time, so that the function holds
    little beyond the four rasters it returns.
    """
    n = cfg.size
    rng = np.random.Generator(np.random.PCG64(cfg.seed))

    lc = np.full((n, n), LC_RANGELAND, dtype=np.uint8)
    # float32 from the start: rounding is monotonic, so the float32 of a
    # maximum is the maximum of the float32 values
    truth = np.zeros((n, n), dtype=np.float32)

    _stamp_rects(rng, lc, LC_AGRICULTURE, 3, (n // 8, n // 4))
    _stamp_rects(rng, lc, LC_BARELAND, 2, (n // 10, n // 5))

    # one water body; its center lies at least its radius from every edge
    wr = int(rng.integers(n // 16, n // 8))
    wc = int(rng.integers(wr, n - wr))
    wrow = int(rng.integers(wr, n - wr))
    yy, xx = np.ogrid[wrow - wr : wrow + wr + 1, wc - wr : wc + wr + 1]
    lc[wrow - wr : wrow + wr + 1, wc - wr : wc + wr + 1][
        (yy - wrow) ** 2 + (xx - wc) ** 2 <= wr * wr
    ] = LC_WATER

    # two straight roads
    road_w = max(n // 64, 4)
    rrow = int(rng.integers(0, n - road_w))
    rcol = int(rng.integers(0, n - road_w))
    lc[rrow : rrow + road_w, :] = LC_ROAD
    lc[:, rcol : rcol + road_w] = LC_ROAD

    # buildings until the target fraction is reached; pixel counts are kept
    # as stamps add to them instead of recounting the raster
    total = float(n * n)
    min_side = max(n // 42, 8)
    max_side = max(n // 10, min_side + 1)
    built = 0
    for _ in range(20000):
        if float(built) / total >= cfg.building_density:
            break
        w = int(rng.integers(min_side, max_side + 1))
        h = int(rng.integers(min_side, max_side + 1))
        c0 = int(rng.integers(0, n - w))
        r0 = int(rng.integers(0, n - h))
        height = float(
            np.exp(rng.normal(cfg.building_height_mu_log, cfg.building_height_sigma_log))
        )
        height = np.float32(min(max(height, 3.0), 120.0))
        block = truth[r0 : r0 + h, c0 : c0 + w]
        np.maximum(block, height, out=block)
        lc_block = lc[r0 : r0 + h, c0 : c0 + w]
        built += lc_block.size - np.count_nonzero(lc_block == LC_BUILDING)
        lc_block[...] = LC_BUILDING

    # paved apron around buildings
    buildings = lc == LC_BUILDING
    apron = _grow(_grow(buildings)) & ~buildings
    lc[apron & _PLANTABLE[lc]] = LC_DEVELOPED
    del buildings, apron

    # tree disks on open ground; no stamp overwrites a tree pixel, so the
    # running count is the tree pixel count
    lo, hi = cfg.tree_height_range
    r_min = max(int(round(2.0 / cfg.gsd)), 2)
    r_max = max(int(round(5.0 / cfg.gsd)), r_min + 1)
    treed = 0
    for _ in range(20000):
        if float(treed) / total >= cfg.tree_density:
            break
        radius = int(rng.integers(r_min, r_max + 1))
        cc = int(rng.integers(0, n))
        cr = int(rng.integers(0, n))
        height = np.float32(rng.uniform(lo, hi))
        r0 = max(cr - radius, 0)
        r1 = min(cr + radius + 1, n)
        c0 = max(cc - radius, 0)
        c1 = min(cc + radius + 1, n)
        sub_y, sub_x = np.ogrid[r0:r1, c0:c1]
        disk = (sub_y - cr) ** 2 + (sub_x - cc) ** 2 <= radius * radius
        sel = disk & _PLANTABLE[lc[r0:r1, c0:c1]]
        patch = truth[r0:r1, c0:c1]
        patch[sel] = np.maximum(patch[sel], height)
        lc[r0:r1, c0:c1][sel] = LC_TREE
        treed += np.count_nonzero(sel)  # sel holds no tree pixel yet

    # smooth terrain: a few low-frequency cosine waves, summed in float64
    # one row strip at a time (xs along a row, ys down a column)
    extent = n * cfg.gsd
    xs = (np.arange(n) + 0.5) * cfg.gsd
    weights = rng.uniform(0.4, 1.0, size=4)
    weights /= weights.sum()
    waves = []
    for i in range(4):
        wavelength = float(rng.uniform(0.4, 1.6)) * extent
        angle = float(rng.uniform(0.0, math.pi))
        phase = float(rng.uniform(0.0, 2.0 * math.pi))
        waves.append((weights[i], 2.0 * math.pi / wavelength, math.cos(angle),
                      math.sin(angle), phase))
    dtm = np.empty((n, n), dtype=np.float32)
    for rows in row_strips(n):
        ys = xs[rows, None]
        surface = np.zeros((ys.shape[0], n), dtype=np.float64)
        for weight, k, ca, sa, phase in waves:
            surface += weight * np.cos(k * (xs * ca + ys * sa) + phase)
        dtm[rows] = cfg.base_elevation + cfg.terrain_amplitude * surface

    header = RasterHeader(
        width=n,
        height=n,
        gsd=cfg.gsd,
        origin_x=0.0,
        origin_y=n * cfg.gsd,
        crs_code=cfg.crs_code,
    )
    truth_raster = HeightRaster(header, truth)
    dtm_raster = HeightRaster(header, dtm)
    lc_header = RasterHeader(
        width=n, height=n, gsd=cfg.gsd, origin_x=0.0, origin_y=n * cfg.gsd,
        crs_code=cfg.crs_code, bands=1, dtype="uint8",
    )
    lc_raster = LandCoverRaster(lc_header, lc)
    optical_header = RasterHeader(
        width=n, height=n, gsd=cfg.gsd, origin_x=0.0, origin_y=n * cfg.gsd,
        crs_code=cfg.crs_code, bands=3, dtype="uint8",
    )
    optical_raster = OpticalRaster(optical_header, PALETTE[lc])

    logger.info("scene %d: building fraction %.3f, tree fraction %.3f",
                cfg.seed, built / total, treed / total)
    return truth_raster, optical_raster, lc_raster, dtm_raster


# ===== Track simulation =====


def simulate_tracks(
    truth: HeightRaster,
    dtm: HeightRaster,
    lc: LandCoverRaster,
    cfg: TrackConfig = TrackConfig(),
) -> np.ndarray:
    """Sample photon returns along parallel tracks across the scene.

    A photon's elevation is terrain (bilinear) plus truth at the containing
    pixel plus Gaussian noise.  Samples whose truth is below 0.5 m read as
    ground class, the rest as top of canopy.  Beam number is the track
    index; ids are sequential over the emitted photons.  The table is
    allocated once, a row for each track sample on the scene, and each
    track's photons are written into it in turn; it is shrunk in place to
    the photons emitted.  Returns a ``PHOTON_DTYPE`` table as a record
    array, whose rows read their fields as attributes (``p.x``).
    """
    h = truth.header
    if not h.same_grid(dtm.header) or not h.same_grid(lc.header):
        raise ValueError("truth, dtm, and land-cover rasters must share one grid")

    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    az = math.radians(cfg.track_azimuth)
    dir_x, dir_y = math.sin(az), math.cos(az)
    perp_x, perp_y = math.cos(az), -math.sin(az)

    extent_x = h.width * h.gsd
    extent_y = h.height * h.gsd
    cx = h.origin_x + extent_x / 2.0
    cy = h.origin_y - extent_y / 2.0
    reach = math.hypot(extent_x, extent_y) / 2.0 + cfg.along_spacing
    s_values = np.arange(-reach, reach + cfg.along_spacing, cfg.along_spacing)

    def samples(track: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The track's sample positions on the scene: x, y and along-track s."""
        offset = (track - (cfg.n_tracks - 1) / 2.0) * cfg.cross_spacing
        px = cx + offset * perp_x + s_values * dir_x
        py = cy + offset * perp_y + s_values * dir_y
        inside = (
            (px >= h.origin_x)
            & (px <= h.origin_x + extent_x)
            & (py >= h.origin_y - extent_y)
            & (py <= h.origin_y)
        )
        return px[inside], py[inside], s_values[inside]

    photons = np.empty(sum(samples(track)[0].size for track in range(cfg.n_tracks)),
                       dtype=PHOTON_DTYPE)
    n = 0
    for track in range(cfg.n_tracks):
        xs, ys, ss = samples(track)
        m = xs.size
        if m == 0:
            continue

        noise = rng.normal(0.0, cfg.noise_sigma, size=m) if cfg.noise_sigma > 0 else np.zeros(m)
        confs = rng.choice(5, size=m, p=np.asarray(cfg.conf_profile, dtype=np.float64))
        keep = rng.random(m) >= cfg.dropout

        kept = np.nonzero(keep)[0]
        col, row = h.pixels_of(xs[kept], ys[kept])
        t_val = truth.values[row, col].astype(np.float64)
        ground, found = sample_bilinear(dtm, xs[kept], ys[kept])
        kept, t_val, ground = kept[found], t_val[found], ground[found]
        elev = ground + t_val + noise[kept]
        klass = np.where(t_val < GROUND_SPLIT, CLASS_GROUND, CLASS_TOP_OF_CANOPY)
        t = track * 10.0 + (ss[kept] - ss[0]) / _TRACK_SPEED
        end = n + kept.size
        for name, values in (("id", np.arange(n, end)), ("x", xs[kept]),
                             ("y", ys[kept]), ("elev", elev), ("signal_conf", confs[kept]),
                             ("atl08_class", klass), ("beam", track), ("t", t)):
            photons[name][n:end] = values
        n = end

    if n == 0:
        raise ValueError("no track intersects the scene; check cross_spacing and azimuth")
    # dropout and DTM nodata leave fewer photons than samples
    photons.resize(n, refcheck=False)
    photons = photons.view(np.recarray)
    logger.info("simulated %d photons over %d tracks", len(photons), cfg.n_tracks)
    return photons


# ===== Corruption =====


def corrupt_prediction(
    truth: HeightRaster,
    lc: LandCoverRaster,
    cfg: CorruptionConfig = CorruptionConfig(),
) -> HeightRaster:
    """Damage the truth into a synthetic prediction raster.

    pred = alpha * truth + beta + class_bias[lc] + smooth noise, clamped at
    0 m, computed in float64 one row strip at a time.  The noise field is
    white Gaussian noise blurred to the configured correlation length and
    rescaled to the requested sigma; it is made for the whole raster, as its
    blur and its spread are.  An all-default config returns the truth
    unchanged.
    """
    if not truth.header.same_grid(lc.header):
        raise ValueError("truth and land-cover rasters must share one grid")

    bias = np.zeros(8, dtype=np.float64)
    for code, meters in cfg.class_bias.items():
        bias[int(code)] = float(meters)

    noise = None
    if cfg.noise_sigma > 0:
        rng = np.random.Generator(np.random.PCG64(cfg.seed))
        noise = rng.standard_normal(truth.values.shape)
        if cfg.noise_corr > 0:
            # imported here, so that only correlated noise loads scipy
            from scipy import ndimage

            noise = ndimage.gaussian_filter(noise, sigma=cfg.noise_corr / truth.header.gsd)
        spread = float(noise.std())
        if spread > 0:
            noise *= cfg.noise_sigma / spread

    out = np.empty(truth.values.shape, dtype=np.float32)
    for rows in row_strips(out.shape[0]):
        values = truth.values[rows].astype(np.float64) * cfg.alpha + cfg.beta
        if cfg.class_bias:
            values += bias[lc.values[rows]]
        if noise is not None:
            values += noise[rows]
        np.maximum(values, 0.0, out=values)
        out[rows] = values
    return HeightRaster(truth.header, out)
