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
from typing import Mapping, Sequence

import numpy as np
from scipy import ndimage

from .photons import CLASS_GROUND, CLASS_TOP_OF_CANOPY, Photon
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
        if self.size < 128:
            raise ValueError(f"scene size must be >= 128, got {self.size}")
        if not (0.0 <= self.building_density < 0.9 and 0.0 <= self.tree_density < 0.9):
            raise ValueError("densities must lie in [0, 0.9)")
        lo, hi = self.tree_height_range
        if not (0.0 < lo < hi):
            raise ValueError(f"bad tree height range {self.tree_height_range}")


@dataclass(frozen=True)
class TrackConfig:
    """Photon track simulation knobs."""

    n_tracks: int = 6
    track_azimuth: float = 2.0  # degrees clockwise from map north
    along_spacing: float = 0.7
    cross_spacing: float = 40.0
    footprint: float = 17.0
    noise_sigma: float = 0.1
    dropout: float = 0.0
    conf_profile: tuple[float, ...] = (0.02, 0.03, 0.05, 0.30, 0.60)
    seed: int = 42

    def __post_init__(self) -> None:
        if self.n_tracks < 1:
            raise ValueError(f"n_tracks must be >= 1, got {self.n_tracks}")
        if self.along_spacing <= 0 or self.cross_spacing <= 0:
            raise ValueError("spacings must be > 0")
        if not (0.0 <= self.dropout < 1.0):
            raise ValueError(f"dropout must lie in [0, 1), got {self.dropout}")
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


def generate_scene(
    cfg: SceneConfig = SceneConfig(),
) -> tuple[HeightRaster, OpticalRaster, LandCoverRaster, HeightRaster]:
    """Build (truth, optical, landcover, dtm) rasters for one scene.

    Truth is height above ground; the terrain lives in the DTM.  Buildings
    are stamped until their pixel fraction reaches the configured density
    (so the achieved fraction sits within one rectangle of the target),
    then tree disks the same way on pixels not already built on.
    """
    n = cfg.size
    rng = np.random.Generator(np.random.PCG64(cfg.seed))

    lc = np.full((n, n), LC_RANGELAND, dtype=np.uint8)
    truth = np.zeros((n, n), dtype=np.float64)

    _stamp_rects(rng, lc, LC_AGRICULTURE, 3, (n // 8, n // 4))
    _stamp_rects(rng, lc, LC_BARELAND, 2, (n // 10, n // 5))

    # one water body
    wr = int(rng.integers(n // 16, n // 8))
    wc = int(rng.integers(wr, n - wr))
    wrow = int(rng.integers(wr, n - wr))
    yy, xx = np.ogrid[:n, :n]
    lc[(yy - wrow) ** 2 + (xx - wc) ** 2 <= wr * wr] = LC_WATER

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
    built = np.count_nonzero(lc == LC_BUILDING)
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
        height = min(max(height, 3.0), 120.0)
        block = truth[r0 : r0 + h, c0 : c0 + w]
        np.maximum(block, height, out=block)
        lc_block = lc[r0 : r0 + h, c0 : c0 + w]
        built += lc_block.size - np.count_nonzero(lc_block == LC_BUILDING)
        lc_block[...] = LC_BUILDING

    # paved apron around buildings
    buildings = lc == LC_BUILDING
    apron = ndimage.binary_dilation(buildings, iterations=2) & ~buildings
    plantable = np.isin(lc, (LC_RANGELAND, LC_BARELAND, LC_AGRICULTURE))
    lc[apron & plantable] = LC_DEVELOPED

    # tree disks on open ground
    lo, hi = cfg.tree_height_range
    r_min = max(int(round(2.0 / cfg.gsd)), 2)
    r_max = max(int(round(5.0 / cfg.gsd)), r_min + 1)
    treed = np.count_nonzero(lc == LC_TREE)
    for _ in range(20000):
        if float(treed) / total >= cfg.tree_density:
            break
        radius = int(rng.integers(r_min, r_max + 1))
        cc = int(rng.integers(0, n))
        cr = int(rng.integers(0, n))
        height = float(rng.uniform(lo, hi))
        r0 = max(cr - radius, 0)
        r1 = min(cr + radius + 1, n)
        c0 = max(cc - radius, 0)
        c1 = min(cc + radius + 1, n)
        sub_y, sub_x = np.ogrid[r0:r1, c0:c1]
        disk = (sub_y - cr) ** 2 + (sub_x - cc) ** 2 <= radius * radius
        allowed = np.isin(lc[r0:r1, c0:c1], (LC_RANGELAND, LC_BARELAND, LC_AGRICULTURE))
        sel = disk & allowed
        patch = truth[r0:r1, c0:c1]
        patch[sel] = np.maximum(patch[sel], height)
        lc[r0:r1, c0:c1][sel] = LC_TREE
        treed += np.count_nonzero(sel)  # sel holds no tree pixel yet

    # smooth terrain: a few low-frequency cosine waves
    extent = n * cfg.gsd
    xs = (np.arange(n) + 0.5) * cfg.gsd
    X, Y = np.meshgrid(xs, xs)
    surface = np.zeros((n, n), dtype=np.float64)
    weights = rng.uniform(0.4, 1.0, size=4)
    weights /= weights.sum()
    for i in range(4):
        wavelength = float(rng.uniform(0.4, 1.6)) * extent
        angle = float(rng.uniform(0.0, math.pi))
        phase = float(rng.uniform(0.0, 2.0 * math.pi))
        k = 2.0 * math.pi / wavelength
        surface += weights[i] * np.cos(k * (X * math.cos(angle) + Y * math.sin(angle)) + phase)
    dtm = cfg.base_elevation + cfg.terrain_amplitude * surface

    header = RasterHeader(
        width=n,
        height=n,
        gsd=cfg.gsd,
        origin_x=0.0,
        origin_y=n * cfg.gsd,
        crs_code=cfg.crs_code,
    )
    truth_raster = HeightRaster(header, truth.astype(np.float32))
    dtm_raster = HeightRaster(header, dtm.astype(np.float32))
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

    frac_b = float(np.count_nonzero(lc == LC_BUILDING)) / total
    frac_t = float(np.count_nonzero(lc == LC_TREE)) / total
    logger.info("scene %d: building fraction %.3f, tree fraction %.3f", cfg.seed, frac_b, frac_t)
    return truth_raster, optical_raster, lc_raster, dtm_raster


# ===== Track simulation =====


def simulate_tracks(
    truth: HeightRaster,
    dtm: HeightRaster,
    lc: LandCoverRaster,
    cfg: TrackConfig = TrackConfig(),
) -> list[Photon]:
    """Sample photon returns along parallel tracks across the scene.

    Photon elevation is terrain (bilinear) plus truth at the containing
    pixel plus Gaussian noise.  Samples whose truth is below 0.5 m read as
    ground class, the rest as top of canopy.  Beam number is the track
    index; ids are sequential over the emitted photons.
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

    photons: list[Photon] = []
    next_id = 0
    for track in range(cfg.n_tracks):
        offset = (track - (cfg.n_tracks - 1) / 2.0) * cfg.cross_spacing
        ox = cx + offset * perp_x
        oy = cy + offset * perp_y
        px = ox + s_values * dir_x
        py = oy + s_values * dir_y
        inside = (
            (px >= h.origin_x)
            & (px <= h.origin_x + extent_x)
            & (py >= h.origin_y - extent_y)
            & (py <= h.origin_y)
        )
        xs = px[inside]
        ys = py[inside]
        ss = s_values[inside]
        m = xs.size
        if m == 0:
            continue

        noise = rng.normal(0.0, cfg.noise_sigma, size=m) if cfg.noise_sigma > 0 else np.zeros(m)
        confs = rng.choice(5, size=m, p=np.asarray(cfg.conf_profile, dtype=np.float64))
        keep = rng.random(m) >= cfg.dropout

        for i in range(m):
            if not keep[i]:
                continue
            col, row = h.pixel_of(float(xs[i]), float(ys[i]))
            t_val = float(truth.values[row, col])
            ground = sample_bilinear(dtm, float(xs[i]), float(ys[i]))
            if ground is None:
                continue
            elev = ground + t_val + float(noise[i])
            klass = CLASS_GROUND if t_val < GROUND_SPLIT else CLASS_TOP_OF_CANOPY
            photons.append(
                Photon(
                    id=next_id,
                    x=float(xs[i]),
                    y=float(ys[i]),
                    elev=float(elev),
                    signal_conf=int(confs[i]),
                    atl08_class=klass,
                    beam=track,
                    t=track * 10.0 + float(ss[i] - ss[0]) / _TRACK_SPEED,
                )
            )
            next_id += 1

    if not photons:
        raise ValueError("no track intersects the scene; check cross_spacing and azimuth")
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
    0 m.  The noise field is white Gaussian noise blurred to the configured
    correlation length and rescaled to the requested sigma.  An all-default
    config returns the truth unchanged.
    """
    if not truth.header.same_grid(lc.header):
        raise ValueError("truth and land-cover rasters must share one grid")

    values = truth.values.astype(np.float64) * cfg.alpha + cfg.beta

    if cfg.class_bias:
        bias = np.zeros(8, dtype=np.float64)
        for code, meters in cfg.class_bias.items():
            code = int(code)
            if not (0 <= code <= 7):
                raise ValueError(f"class_bias code {code} outside 0..7")
            bias[code] = float(meters)
        values += bias[lc.values]

    if cfg.noise_sigma > 0:
        rng = np.random.Generator(np.random.PCG64(cfg.seed))
        noise = rng.standard_normal(values.shape)
        if cfg.noise_corr > 0:
            noise = ndimage.gaussian_filter(noise, sigma=cfg.noise_corr / truth.header.gsd)
        spread = float(noise.std())
        if spread > 0:
            noise = noise * (cfg.noise_sigma / spread)
        values += noise

    np.maximum(values, 0.0, out=values)
    return HeightRaster(truth.header, values.astype(np.float32))
