import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lidar_anchor.features import (
    GROUP_GRADIENT,
    GROUP_LANDCOVER,
    GROUP_OPTICAL,
    GROUP_PREDICTION,
    HRF_DIM,
    HRF_FEATURE_NAMES,
    SCHEMA_HRF,
    SCHEMA_NRF,
    feature_groups,
    feature_names,
    hrf_features,
)
from lidar_anchor import correction
from lidar_anchor.correction import _feature_matrix
from lidar_anchor.raster import (
    EmbeddingGrid,
    LC_BUILDING,
    LC_TREE,
    RasterHeader,
)

from conftest import make_height, make_landcover, make_optical
from oracles import hrf_features_direct, window_direct


def mk_patches(n=8, pred=5.0, gray=128, lc_code=LC_BUILDING):
    pred_patch = np.full((n, n), pred, dtype=np.float32)
    optical = np.full((n, n, 3), gray, dtype=np.uint8)
    lc = np.full((n, n), lc_code, dtype=np.uint8)
    return pred_patch, optical, lc


def hrf_row(pred, optical, lc, **nodata):
    """hrf_features of one window, the whole of its box."""
    return hrf_features(pred, optical, lc, [0], [0], len(pred), **nodata)[0]


class TestSchemaFreeze:
    def test_names_are_frozen(self):
        assert HRF_FEATURE_NAMES == (
            "pred_mean",
            "pred_std",
            "pred_min",
            "pred_max",
            "pred_p90",
            "pred_p10",
            "grad_mean",
            "grad_std",
            "grad_p95",
            "red_mean",
            "red_std",
            "green_mean",
            "green_std",
            "blue_mean",
            "blue_std",
            "green_red_index_mean",
            "green_red_index_std",
            "red_green_ratio",
            "lc_frac_bareland",
            "lc_frac_rangeland",
            "lc_frac_developed",
            "lc_frac_road",
            "lc_frac_tree",
            "lc_frac_water",
            "lc_frac_agriculture",
            "lc_frac_building",
            "lc_entropy",
        )
        assert HRF_DIM == 27

    def test_groups_partition_the_vector(self):
        groups = feature_groups(SCHEMA_HRF, HRF_DIM)
        assert len(groups) == 27
        assert groups[:6] == (GROUP_PREDICTION,) * 6
        assert groups[6:9] == (GROUP_GRADIENT,) * 3
        assert groups[9:18] == (GROUP_OPTICAL,) * 9
        assert groups[18:] == (GROUP_LANDCOVER,) * 9

    def test_nrf_names_follow_dimension(self):
        assert feature_names(SCHEMA_NRF, 3) == ("embedding_0", "embedding_1", "embedding_2")


class TestHrfConstantInputs:
    def test_constant_everything(self):
        pred, optical, lc = mk_patches()
        v = hrf_row(pred, optical, lc)
        np.testing.assert_allclose(v[0:6], [5.0, 0.0, 5.0, 5.0, 5.0, 5.0], atol=1e-12)
        np.testing.assert_allclose(v[6:9], [0.0, 0.0, 0.0], atol=1e-12)
        g = 128.0 / 255.0
        np.testing.assert_allclose(v[[9, 11, 13]], [g, g, g], atol=1e-12)
        np.testing.assert_allclose(v[[10, 12, 14]], [0.0, 0.0, 0.0], atol=1e-12)
        # (G - R)/(G + R + eps) with equal channels is 0; R/G ratio near 1
        assert v[15] == pytest.approx(0.0, abs=1e-9)
        assert v[16] == pytest.approx(0.0, abs=1e-9)
        assert v[17] == pytest.approx(1.0, rel=1e-5)
        fractions = v[18:26]
        assert fractions[LC_BUILDING] == 1.0
        assert fractions.sum() == pytest.approx(1.0)
        assert v[26] == pytest.approx(0.0, abs=1e-12)

    def test_half_tree_half_building_entropy_ln2(self):
        pred, optical, lc = mk_patches()
        lc[:, : lc.shape[1] // 2] = LC_TREE
        v = hrf_row(pred, optical, lc)
        assert v[18 + LC_TREE] == pytest.approx(0.5)
        assert v[18 + LC_BUILDING] == pytest.approx(0.5)
        assert v[26] == pytest.approx(math.log(2), abs=1e-12)

    def test_uniform_mixture_entropy_ln8(self):
        pred, optical, _ = mk_patches()
        lc = np.indices((8, 8)).sum(axis=0).astype(np.uint8) % 8
        v = hrf_row(pred, optical, lc)
        np.testing.assert_allclose(v[18:26], 0.125)
        assert v[26] == pytest.approx(math.log(8), abs=1e-12)


class TestHrfStatistics:
    def test_pred_stats_match_numpy(self):
        rng = np.random.default_rng(5)
        pred = rng.normal(10, 3, (16, 16)).astype(np.float32)
        _, optical, lc = mk_patches(16)
        v = hrf_row(pred, optical, lc)
        p = pred.astype(np.float64)
        assert v[0] == pytest.approx(p.mean())
        assert v[1] == pytest.approx(p.std())
        assert v[2] == pytest.approx(p.min())
        assert v[3] == pytest.approx(p.max())
        assert v[4] == pytest.approx(np.percentile(p, 90))
        assert v[5] == pytest.approx(np.percentile(p, 10))

    def test_green_red_index(self):
        pred, _, lc = mk_patches()
        optical = np.zeros((8, 8, 3), dtype=np.uint8)
        optical[..., 0] = 50   # R
        optical[..., 1] = 150  # G
        v = hrf_row(pred, optical, lc)
        r, g = 50.0 / 255.0, 150.0 / 255.0
        assert v[15] == pytest.approx((g - r) / (g + r + 1e-6))
        assert v[17] == pytest.approx(r / (g + 1e-6))

    def test_nodata_pred_pixels_are_excluded(self):
        pred, optical, lc = mk_patches()
        pred = pred.astype(np.float64)
        pred[0, 0] = -9999.0
        v = hrf_row(pred, optical, lc, pred_nodata=-9999.0)
        assert v[0] == pytest.approx(5.0)
        assert v[2] == 5.0
        # the fill keeps the gradient silent on an otherwise constant patch
        assert v[6] == pytest.approx(0.0, abs=1e-12)

    def test_all_nodata_pred_raises(self):
        pred, optical, lc = mk_patches()
        pred = np.full_like(pred, -9999.0, dtype=np.float64)
        with pytest.raises(ValueError, match="valid"):
            hrf_row(pred, optical, lc, pred_nodata=-9999.0)

    def test_lc_nodata_gives_zero_fractions(self):
        pred, optical, lc = mk_patches()
        lc = np.full_like(lc, 255)
        v = hrf_row(pred, optical, lc, lc_nodata=255)
        np.testing.assert_array_equal(v[18:26], 0.0)
        assert v[26] == 0.0

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_fraction_and_entropy_invariants(self, seed):
        rng = np.random.default_rng(seed)
        pred = rng.normal(5, 2, (8, 8))
        optical = rng.integers(0, 256, (8, 8, 3), dtype=np.uint8)
        lc = rng.integers(0, 8, (8, 8), dtype=np.uint8)
        v = hrf_row(pred, optical, lc)
        assert v[18:26].sum() == pytest.approx(1.0, abs=1e-9)
        assert -1e-12 <= v[26] <= math.log(8) + 1e-12
        assert np.isfinite(v).all()


def hrf_scene(rng, height, width, pred_nodata_share, lc_nodata_share):
    """Prediction, RGB and land-cover rasters with nodata pixels: -9999 and
    NaN predictions, and land-cover code 255 (a whole band of rows when
    the share is 1/2, so that some windows hold no land-cover pixel)."""
    pred = rng.normal(5.0, 3.0, (height, width)).astype(np.float32)
    pred[rng.random((height, width)) < pred_nodata_share] = -9999.0
    pred[rng.random((height, width)) < pred_nodata_share / 4] = np.nan
    codes = rng.integers(0, 8, (height, width), dtype=np.uint8)
    if lc_nodata_share == 0.5:
        codes[: height // 2] = 255
    else:
        codes[rng.random((height, width)) < lc_nodata_share] = 255
    return (
        make_height(pred, nodata=-9999.0),
        make_optical(rng.integers(0, 256, (height, width, 3), dtype=np.uint8)),
        make_landcover(codes, nodata=255),
    )


def oracle_rows(origins, pred, optical, lc, patch):
    """Per-window oracle rows, and the origins whose window has no valid
    prediction pixel."""
    rows, empty = [], []
    for r0, c0 in origins:
        try:
            rows.append(hrf_features_direct(
                window_direct(pred, r0, c0, patch),
                window_direct(optical, r0, c0, patch),
                window_direct(lc, r0, c0, patch),
                pred_nodata=-9999.0, lc_nodata=255,
            ))
        except ValueError:
            empty.append((r0, c0))
    return np.array(rows).reshape(-1, HRF_DIM), empty


def assert_bitwise_equal(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype == np.float64
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


class TestHrfBatched:
    @given(
        st.integers(1, 20),
        st.integers(1, 40),
        st.integers(1, 12),
        st.sampled_from([0.0, 0.05, 0.5, 0.9, 1.0]),
        st.sampled_from([0.0, 0.3, 0.5, 1.0]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_feature_matrix_equals_per_window_oracle(
        self, patch, n_windows, chunk_windows, pred_nodata_share, lc_nodata_share, seed
    ):
        # chunks of a few windows, so that the window counts straddle them
        rng = np.random.default_rng(seed)
        height, width = (int(v) for v in rng.integers(1, 2 * patch + 6, 2))
        pred, optical, lc = hrf_scene(rng, height, width, pred_nodata_share, lc_nodata_share)
        # windows past all four edges, as long as they cover a raster pixel
        origins = list(zip(rng.integers(-patch + 1, height, n_windows).tolist(),
                           rng.integers(-patch + 1, width, n_windows).tolist()))
        want, empty = oracle_rows(origins, pred, optical, lc, patch)
        usable = [o for o in origins if o not in empty]
        with mock.patch.object(correction, "_FEATURE_CHUNK_PIXELS", chunk_windows * patch**2):
            if empty:
                with pytest.raises(ValueError, match="no valid pixel"):
                    _feature_matrix(origins, pred, optical, lc, None, SCHEMA_HRF, patch)
            if usable:
                got = _feature_matrix(usable, pred, optical, lc, None, SCHEMA_HRF, patch)
                assert_bitwise_equal(got, want)

    @given(
        st.integers(1, 8),
        st.sampled_from(["grid", "track"]),
        st.integers(1, 8),
        st.integers(1, 20),
        st.sampled_from([0.0, 0.02, 0.2]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=120, deadline=None)
    def test_compact_window_sets_equal_per_window_oracle(
        self, patch, layout, stride, chunk_windows, pred_nodata_share, seed
    ):
        # windows that lie close together, as inference and training make
        # them, so that most chunks are cut from one box: a stride grid or
        # the pixels of an along-track run, both past all four edges
        rng = np.random.default_rng(seed)
        stride = min(stride, patch)
        height, width = (int(v) for v in rng.integers(1, 2 * patch + 9, 2))
        pred, optical, lc = hrf_scene(rng, height, width, pred_nodata_share, 0.3)
        if layout == "grid":
            r0, c0 = (int(v) for v in rng.integers(-patch + 1, (height, width)))
            rows = range(r0, min(r0 + 12 * stride, height), stride)
            cols = range(c0, min(c0 + 12 * stride, width), stride)
            origins = [(r, c) for r in rows for c in cols]
        else:
            start = rng.uniform(0, (height, width))
            step = rng.uniform(-1.5, 1.5, 2)
            pixels = np.floor(start + np.arange(40)[:, None] * step).astype(int)
            inside = (pixels >= 0).all(axis=1) & (pixels < (height, width)).all(axis=1)
            origins = list(dict.fromkeys(map(tuple, (pixels[inside] - patch // 2).tolist())))
        # an invalid pixel on the ring and one inside a window, where there
        # is a ring and an inside
        r, c = origins[int(rng.integers(len(origins)))]
        for dr, dc, value in ((0, patch - 1, np.nan), (patch // 2, patch // 2, -9999.0)):
            if 0 <= r + dr < height and 0 <= c + dc < width:
                pred.values[r + dr, c + dc] = value
        want, empty = oracle_rows(origins, pred, optical, lc, patch)
        usable = [o for o in origins if o not in empty]
        if not usable:
            return
        # chunks of 1 to 20 windows, which straddle window rows
        with mock.patch.object(correction, "_FEATURE_CHUNK_PIXELS", chunk_windows * patch**2):
            got = _feature_matrix(usable, pred, optical, lc, None, SCHEMA_HRF, patch)
        assert_bitwise_equal(got, want)

    @pytest.mark.parametrize("extra", [-1, 0, 1, 82])
    def test_window_counts_around_the_chunk_size(self, extra):
        patch = 20
        chunk = correction._FEATURE_CHUNK_PIXELS // patch**2
        rng = np.random.default_rng(extra + 100)
        pred, optical, lc = hrf_scene(rng, 70, 50, 0.1, 0.3)
        n = chunk + extra
        origins = list(zip(rng.integers(-patch + 1, 70, n).tolist(),
                           rng.integers(-patch + 1, 50, n).tolist()))
        want, empty = oracle_rows(origins, pred, optical, lc, patch)
        assert empty == []
        got = _feature_matrix(origins, pred, optical, lc, None, SCHEMA_HRF, patch)
        assert_bitwise_equal(got, want)

    def test_stack_of_patches_equals_each_alone(self):
        # six patches side by side in one box, each its own window: every
        # window's ring replicates its own edge, not its neighbour's pixels
        rng = np.random.default_rng(11)
        pred = rng.normal(5.0, 2.0, (6, 9, 9))
        pred[2, :4] = -9999.0
        pred[4] = -9999.0
        pred[4, 8, 8] = 1.0  # one valid pixel
        optical = rng.integers(0, 256, (6, 9, 9, 3), dtype=np.uint8)
        lc = rng.integers(0, 8, (6, 9, 9), dtype=np.uint8)
        lc[3] = 255
        box = [np.concatenate(x, axis=1) for x in (pred, optical, lc)]
        before = [b.copy() for b in box]
        got = hrf_features(*box, np.zeros(6, dtype=int), 9 * np.arange(6), 9,
                           pred_nodata=-9999.0, lc_nodata=255)
        want = np.array([hrf_features_direct(pred[i], optical[i], lc[i], -9999.0, 255)
                         for i in range(6)])
        assert_bitwise_equal(got, want)
        # the inputs are read, not written
        for b, b0 in zip(box, before):
            assert b.dtype == b0.dtype and b.tobytes() == b0.tobytes()

    def test_window_without_valid_pixel_is_named(self):
        pred = np.full((4, 12), 2.0)
        pred[:, 4:8] = np.nan
        optical = np.zeros((4, 12, 3), dtype=np.uint8)
        lc = np.zeros((4, 12), dtype=np.uint8)
        with pytest.raises(ValueError, match="window 1 contains no valid pixel"):
            hrf_features(pred, optical, lc, [0, 0, 0], [0, 4, 8], 4)
        # one column of the neighbours is enough
        assert hrf_features(pred, optical, lc, [0, 0], [1, 7], 4).shape == (2, HRF_DIM)

    def test_mismatched_stacks_raise(self):
        pred, optical, lc = mk_patches()
        with pytest.raises(ValueError, match="2-D"):
            hrf_features(pred[None], optical[None], lc[None], [0], [0], 8)
        with pytest.raises(ValueError, match="optical"):
            hrf_features(pred, optical[:4], lc, [0], [0], 8)
        with pytest.raises(ValueError, match="land-cover"):
            hrf_features(pred, optical, lc[:4], [0], [0], 8)
        # a window past any side of its box
        for row, col in ((-1, 0), (0, -1), (1, 0), (0, 1)):
            with pytest.raises(ValueError, match=r"leaves the 8 x 8 box"):
                hrf_features(pred, optical, lc, [0, row], [0, col], 8)

    def test_feature_matrix_memory_is_bounded(self):
        # patch 64, 1,000 scattered windows and 1,024 on a stride-8 grid,
        # whose chunks each take one box: the chunks, not the window count,
        # set the peak of what the features allocate (about 4-5.5 MB at 8
        # windows a chunk, 13-16 MB at 32)
        rng = np.random.default_rng(9)
        pred, optical, lc = hrf_scene(rng, 192, 192, 0.02, 0.1)
        scattered = list(zip(rng.integers(-63, 192, 1000).tolist(),
                             rng.integers(-63, 192, 1000).tolist()))
        grid = [(r, c) for r in range(-60, 192, 8) for c in range(-60, 192, 8)]
        for origins in (scattered, grid):
            tracemalloc.start()
            try:
                X = _feature_matrix(origins, pred, optical, lc, None, SCHEMA_HRF, 64)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert X.shape == (len(origins), HRF_DIM)
            assert peak < 8 * 2**20, f"feature pass peaked at {peak / 2**20:.1f} MB"


def embedding_grid(width, height, bands, cell_px, values=None):
    header = RasterHeader(width=width, height=height, gsd=8.0, origin_x=0.0,
                          origin_y=height * 8.0, crs_code=32654, bands=bands,
                          dtype="float32", cell_px=cell_px)
    if values is None:
        values = np.arange(height * width * bands, dtype=np.float32)
    shape = (height, width, bands) if bands > 1 else (height, width)
    return EmbeddingGrid(header, np.asarray(values, dtype=np.float32).reshape(shape))


def nrf_rows(grid, origins, width, height, patch):
    """nrf rows of _feature_matrix for windows at (row0, col0) origins on a
    width x height prediction."""
    pred = make_height(np.zeros((height, width)))
    return _feature_matrix(origins, pred, None, None, grid, SCHEMA_NRF, patch)


class TestNrf:
    def grid(self):
        return embedding_grid(4, 3, 5, cell_px=16)

    def rows_at(self, g, pixels, width=64):
        # one-pixel windows: each (col, row) is its own window center
        return nrf_rows(g, [(row, col) for col, row in pixels], width, 48, patch=1)

    def test_cell_lookup_uses_floor_division(self):
        g = self.grid()
        v = self.rows_at(g, [(17, 33)])  # cell (1, 2)
        np.testing.assert_array_equal(v, g.values[2, 1][None, :])
        assert v.dtype == np.float64

    def test_first_and_last_pixels(self):
        g = self.grid()
        np.testing.assert_array_equal(self.rows_at(g, [(0, 0)])[0], g.values[0, 0])
        np.testing.assert_array_equal(self.rows_at(g, [(63, 47)])[0], g.values[2, 3])

    def test_outside_grid_raises(self):
        g = self.grid()
        # the message names the first window whose center the grid misses
        with pytest.raises(
            ValueError,
            match=r"pixel \(64, 0\) outside the image covered by the grid \(64 x 48 px\)",
        ):
            self.rows_at(g, [(0, 0), (64, 0), (70, 47)], width=71)

    @given(
        st.integers(1, 9),
        st.sampled_from([1, 2, 5]),
        st.integers(1, 4),
        st.integers(1, 4),
        st.integers(1, 40),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_batched_gather_equals_per_window_lookup(
        self, cell_px, bands, grid_w, grid_h, patch, seed
    ):
        rng = np.random.default_rng(seed)
        g = embedding_grid(grid_w, grid_h, bands, cell_px,
                           rng.normal(0.0, 1.0, grid_w * grid_h * bands))
        width = int(rng.integers(1, grid_w * cell_px + 1))
        height = int(rng.integers(1, grid_h * cell_px + 1))
        # training origins start patch // 2 before the photon's pixel, so
        # near the top and left edges they lie past the raster
        origins = list(zip(
            rng.integers(-(patch // 2), height, 30).tolist(),
            rng.integers(-(patch // 2), width, 30).tolist(),
        ))
        got = nrf_rows(g, origins, width, height, patch)
        want = []
        for r0, c0 in origins:
            row = min(r0 + patch // 2, height - 1)
            col = min(c0 + patch // 2, width - 1)
            cell = g.values[row // cell_px, col // cell_px]
            want.append(np.asarray(cell, dtype=np.float64).reshape(bands))
        assert got.dtype == np.float64 and got.shape == (len(origins), bands)
        assert got.tobytes() == np.array(want).tobytes()
