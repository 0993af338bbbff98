from collections import namedtuple

import numpy as np
import pytest

from lidar_anchor.photons import CLEAN_DTYPE, PHOTON_DTYPE
from lidar_anchor.raster import (
    HeightRaster,
    LandCoverRaster,
    OpticalRaster,
    RasterHeader,
)


def make_height(values, gsd=1.0, origin=None, nodata=None, crs=32654):
    """HeightRaster from a 2-D array; origin defaults to a (0, H*gsd) frame."""
    arr = np.asarray(values, dtype=np.float32)
    h, w = arr.shape
    if origin is None:
        origin = (0.0, h * gsd)
    header = RasterHeader(
        width=w,
        height=h,
        gsd=gsd,
        origin_x=origin[0],
        origin_y=origin[1],
        crs_code=crs,
        bands=1,
        dtype="float32",
        nodata=nodata,
    )
    return HeightRaster(header, arr)


def photon_table(rows):
    """``PHOTON_DTYPE`` table of (id, x, y, elev, signal_conf, atl08_class,
    beam, t) tuples, in list order."""
    return np.array([tuple(row) for row in rows], dtype=PHOTON_DTYPE)


# one clean photon, in CLEAN_DTYPE's field order
CleanRow = namedtuple("CleanRow", CLEAN_DTYPE.names)


def clean_table(rows):
    """``CLEAN_DTYPE`` table of (x, y, h_ag, kind, lc_class, cluster_size)
    tuples, in list order."""
    return np.array([tuple(row) for row in rows], dtype=CLEAN_DTYPE)


def make_landcover(values, gsd=1.0, origin=None, crs=32654, nodata=None):
    arr = np.asarray(values, dtype=np.uint8)
    h, w = arr.shape
    if origin is None:
        origin = (0.0, h * gsd)
    header = RasterHeader(
        width=w,
        height=h,
        gsd=gsd,
        origin_x=origin[0],
        origin_y=origin[1],
        crs_code=crs,
        bands=1,
        dtype="uint8",
        nodata=nodata,
    )
    return LandCoverRaster(header, arr)


def make_optical(values, gsd=1.0, origin=None, crs=32654):
    arr = np.asarray(values, dtype=np.uint8)
    h, w = arr.shape[:2]
    if origin is None:
        origin = (0.0, h * gsd)
    header = RasterHeader(
        width=w,
        height=h,
        gsd=gsd,
        origin_x=origin[0],
        origin_y=origin[1],
        crs_code=crs,
        bands=3,
        dtype="uint8",
    )
    return OpticalRaster(header, arr)


@pytest.fixture(scope="session")
def small_scene():
    """A compact synthetic scene shared by the slower integration tests."""
    from lidar_anchor import synth

    scene = synth.SceneConfig(size=160, seed=5)
    truth, optical, lc, dtm = synth.generate_scene(scene)
    tracks = synth.simulate_tracks(
        truth, dtm, lc, synth.TrackConfig(n_tracks=5, cross_spacing=15.0, seed=5)
    )
    return {"truth": truth, "optical": optical, "lc": lc, "dtm": dtm, "photons": tracks}
