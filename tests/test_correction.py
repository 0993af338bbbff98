import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lidar_anchor import correction
from lidar_anchor import forest as forest_module
from lidar_anchor.correction import (
    ResidualField,
    apply_correction,
    build_training_set,
    infer_residual_field,
)
from lidar_anchor.features import SCHEMA_HRF, SCHEMA_NRF, HRF_DIM, hrf_features
from lidar_anchor.forest import (
    ForestParams,
    RandomForest,
    RegressionTree,
    predict_batch,
    train_forest,
)
from lidar_anchor.raster import (
    STRIP_ROWS,
    EmbeddingGrid,
    RasterHeader,
    footprint_mean,
    height_like,
)

from conftest import CleanRow, clean_table, make_height, make_landcover, make_optical
from oracles import (
    hrf_features_direct,
    residual_field_whole,
    window_direct,
    window_origins_direct,
)


def leaf_tree(value):
    return RegressionTree(
        feature=np.array([-1], dtype=np.int32),
        threshold=np.array([0.0]),
        value=np.array([float(value)]),
        n=np.array([1], dtype=np.int64),
        impurity=np.array([0.0]),
    )


def constant_forest(value, schema=SCHEMA_HRF, n_features=HRF_DIM):
    return RandomForest(
        params=ForestParams(n_trees=1),
        schema_id=schema,
        n_features=n_features,
        trees=[leaf_tree(value)],
        oob_mae=None,
    )


def pixel_of(header, x, y):
    """(col, row) of the pixel containing one map point."""
    col, row = header.pixels_of(np.array([x]), np.array([y]))
    return int(col[0]), int(row[0])


def scene(n=96, gsd=1.0, pred_fill=10.0):
    rng = np.random.default_rng(9)
    pred = make_height(np.full((n, n), pred_fill) + rng.normal(0, 0.1, (n, n)), gsd=gsd)
    optical = make_optical(rng.integers(0, 256, (n, n, 3), dtype=np.uint8), gsd=gsd)
    lc = make_landcover(rng.integers(0, 8, (n, n), dtype=np.uint8), gsd=gsd)
    return pred, optical, lc


def photons_on(pred, count=20, h=2.0):
    h_hdr = pred.header
    xs = np.linspace(10.0, h_hdr.width * h_hdr.gsd - 10.0, count)
    return [CleanRow(float(x), float(h_hdr.origin_y - 20.0), h, "object", 4, 3) for x in xs]


class TestBuildTrainingSet:
    def test_targets_are_footprint_mean_minus_height(self):
        pred, optical, lc = scene()
        pts = photons_on(pred, count=12, h=2.5)
        X, y, skipped = build_training_set(pred, optical, lc, clean_table(pts), patch=32)
        assert skipped == {"outside_raster": 0, "invalid_pixel": 0, "empty_footprint": 0}
        assert X.shape == (12, HRF_DIM)
        for target, p in zip(y, pts):
            want = footprint_mean(pred, np.array([p.x]), np.array([p.y]), 17.0)[0] - p.h_ag
            assert target == pytest.approx(want, abs=1e-9)

    def test_features_match_photon_centered_window(self):
        pred, optical, lc = scene()
        p = photons_on(pred, count=1)[0]
        X, _, _ = build_training_set(pred, optical, lc, clean_table([p]), patch=32)
        col, row = pixel_of(pred.header, p.x, p.y)
        want = hrf_features_direct(
            window_direct(pred, row - 16, col - 16, 32),
            window_direct(optical, row - 16, col - 16, 32),
            window_direct(lc, row - 16, col - 16, 32),
        )
        np.testing.assert_array_equal(X[0], want)

    def test_photons_on_one_pixel_share_one_window(self):
        # photons of three pixels, interleaved in table order: the features
        # are computed for the three windows only, and every photon gets its
        # pixel's row and its own target
        pred, optical, lc = scene()
        a, b, c = photons_on(pred, count=3)
        pts = [a, b._replace(h_ag=1.0), a._replace(h_ag=3.0), c, b, a._replace(h_ag=0.5)]
        windows = []

        def counting(pred_box, optical_box, lc_box, rows, *args, **kwargs):
            windows.append(len(rows))
            return hrf_features(pred_box, optical_box, lc_box, rows, *args, **kwargs)

        with mock.patch.object(correction, "hrf_features", counting):
            X, y, skipped = build_training_set(pred, optical, lc, clean_table(pts), patch=32)
        assert sum(skipped.values()) == 0 and sum(windows) == 3
        for i, p in enumerate(pts):
            alone, target, _ = build_training_set(pred, optical, lc, clean_table([p]), patch=32)
            np.testing.assert_array_equal(X[i], alone[0])
            assert y[i] == target[0]
        assert (X[0] == X[2]).all() and (X[2] == X[5]).all() and (X[1] == X[4]).all()
        assert len({y[0], y[2], y[5]}) == 3

    def test_nrf_rows_are_embedding_cells_under_photons(self):
        pred, _, _ = scene(n=64)
        header = RasterHeader(
            width=4, height=4, gsd=16.0, origin_x=0.0, origin_y=64.0,
            crs_code=32654, bands=2, dtype="float32", nodata=None, cell_px=16,
        )
        cells = np.arange(32, dtype=np.float32).reshape(4, 4, 2)
        emb = EmbeddingGrid(header, cells)
        # off-diagonal cells, and photons within patch // 2 of the edges
        pts = [
            CleanRow(x, y, 1.0, "object", 4, 1)
            for x, y in [(1.0, 40.0), (62.5, 63.5), (40.0, 0.5), (30.0, 20.0)]
        ]
        X, _, _ = build_training_set(
            pred, None, None, clean_table(pts), patch=32, feature_mode=SCHEMA_NRF,
            embeddings=emb,
        )
        for row, p in zip(X, pts):
            col, r = pixel_of(pred.header, p.x, p.y)
            np.testing.assert_array_equal(row, cells[r // 16, col // 16])

    def test_outside_and_nodata_photons_are_skipped(self):
        pred, optical, lc = scene()
        pts = photons_on(pred, count=10)
        outside = CleanRow(-999.0, -999.0, 1.0, "object", 4, 1)
        X, y, skipped = build_training_set(pred, optical, lc, clean_table(pts + [outside]),
                                           patch=32)
        assert len(X) == len(y) == 10
        assert skipped == {"outside_raster": 1, "invalid_pixel": 0, "empty_footprint": 0}

    def test_nodata_under_photon_is_skipped(self):
        pred, optical, lc = scene()
        vals = pred.values.copy()
        p = photons_on(pred, count=1)[0]
        col, row = pixel_of(pred.header, p.x, p.y)
        vals[row, col] = -9999.0
        pred2 = make_height(vals, gsd=pred.header.gsd, nodata=-9999.0)
        # photons_on(count=5) also starts at x=10, so two photons share the
        # nodata pixel and both are skipped
        X, _, skipped = build_training_set(
            pred2, optical, lc, clean_table([p] + photons_on(pred, count=5)), patch=32
        )
        assert skipped == {"outside_raster": 0, "invalid_pixel": 2, "empty_footprint": 0}
        assert len(X) == 4

    def test_nonfinite_under_photon_is_skipped(self):
        pred, optical, lc = scene()
        vals = pred.values.copy()
        p = photons_on(pred, count=1)[0]
        col, row = pixel_of(pred.header, p.x, p.y)
        vals[row, col] = np.nan
        X, y, skipped = build_training_set(
            make_height(vals, gsd=pred.header.gsd), optical, lc,
            clean_table([p] + photons_on(pred, count=5)), patch=32,
        )
        assert skipped == {"outside_raster": 0, "invalid_pixel": 2, "empty_footprint": 0}
        assert len(X) == 4 and np.isfinite(y).all()

    def test_skips_are_counted_by_reason_on_a_nodata_heavy_raster(self):
        # a 128 px prediction with nine pixels in ten nodata, photons on a
        # grid that runs past its east and south edges
        pred, optical, lc = scene(n=128)
        rng = np.random.default_rng(4)
        vals = np.where(rng.random((128, 128)) < 0.9, -9999.0, pred.values)
        pred = make_height(vals, nodata=-9999.0)
        gx, gy = np.meshgrid(np.arange(2.5, 150.0, 5.0), np.arange(2.5, 150.0, 5.0))
        pts = [
            CleanRow(float(x), float(y), 1.0, "ground", 0, 1) for x, y in zip(gx.ravel(), gy.ravel())
        ]
        inside = (gx.ravel() < 128) & (gy.ravel() < 128)
        col, row = pred.header.pixels_of(gx.ravel()[inside], gy.ravel()[inside])
        on_nodata = int((vals[row, col] == -9999.0).sum())
        X, y, skipped = build_training_set(pred, optical, lc, clean_table(pts), patch=16)
        assert skipped == {
            "outside_raster": int((~inside).sum()),
            "invalid_pixel": on_nodata,
            "empty_footprint": 0,
        }
        assert len(X) == len(y) == len(pts) - sum(skipped.values()) > 0

        # a footprint with no valid pixel is the third reason
        def first_empty(*args):
            sampled = footprint_mean(*args)
            sampled[0] = np.nan
            return sampled

        with mock.patch.object(correction, "footprint_mean", first_empty):
            X2, _, skipped2 = build_training_set(pred, optical, lc, clean_table(pts), patch=16)
        assert skipped2 == {**skipped, "empty_footprint": 1}
        assert len(X2) == len(X) - 1

    @given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.sampled_from([16, 32, 64]))
    @settings(max_examples=8, deadline=None)
    def test_rows_do_not_depend_on_threads(self, seed, count, patch):
        # 1 to 20 chunks of windows; threads 2 and more threads than chunks
        # share them out to forked workers where the platform can fork
        pred, optical, lc = scene(n=64)
        rng = np.random.default_rng(seed)
        top = pred.header.origin_y
        pts = clean_table([
            CleanRow(float(x), float(top - y), float(h), "object", 4, 1)
            for x, y, h in rng.uniform(0.0, 64.0, (count, 3))
        ])
        X, y, skipped = build_training_set(pred, optical, lc, pts, patch=patch, threads=1)
        for threads in (2, count + 1):
            X2, y2, skipped2 = build_training_set(
                pred, optical, lc, pts, patch=patch, threads=threads
            )
            np.testing.assert_array_equal(X2, X)
            np.testing.assert_array_equal(y2, y)
            assert skipped2 == skipped

    def test_serial_where_fork_is_unavailable(self, monkeypatch):
        pred, optical, lc = scene(n=64)
        pts = clean_table(photons_on(pred, count=30))
        X, _, _ = build_training_set(pred, optical, lc, pts, patch=64, threads=1)

        def no_pool(method):
            raise AssertionError(f"no {method} pool expected")

        monkeypatch.setattr(forest_module.multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        monkeypatch.setattr(forest_module.multiprocessing, "get_context", no_pool)
        X2, _, _ = build_training_set(pred, optical, lc, pts, patch=64, threads=4)
        np.testing.assert_array_equal(X2, X)

    def test_zero_usable_raises(self):
        pred, optical, lc = scene()
        outside = [CleanRow(-999.0, -999.0, 1.0, "object", 4, 1)]
        with pytest.raises(ValueError, match="zero usable"):
            build_training_set(pred, optical, lc, clean_table(outside), patch=32)

    def test_hrf_requires_optical_and_lc(self):
        pred, optical, lc = scene()
        pts = photons_on(pred, count=12)
        with pytest.raises(ValueError, match="optical"):
            build_training_set(pred, None, lc, clean_table(pts), patch=32)

    def test_nrf_requires_embeddings(self):
        pred, _, _ = scene()
        pts = photons_on(pred, count=12)
        with pytest.raises(ValueError, match="embedding"):
            build_training_set(
                pred, None, None, clean_table(pts), patch=32, feature_mode=SCHEMA_NRF,
                embeddings=None,
            )


class TestInferResidualField:
    def test_constant_model_fills_field_exactly(self):
        pred, optical, lc = scene()
        field = infer_residual_field(pred, optical, lc, constant_forest(2.5), patch=32)
        np.testing.assert_array_equal(field.values.values, np.float32(2.5))
        assert field.values.header.same_grid(pred.header)
        assert (field.weights >= 1).all()

    def test_coverage_with_awkward_stride(self):
        pred, optical, lc = scene(n=70)
        field = infer_residual_field(
            pred, optical, lc, constant_forest(1.0), patch=32, stride=24
        )
        assert (field.weights >= 1).all()

    def test_raster_smaller_than_patch(self):
        pred, optical, lc = scene(n=40)
        field = infer_residual_field(pred, optical, lc, constant_forest(3.5), patch=64)
        np.testing.assert_array_equal(field.values.values, np.float32(3.5))

    def test_nrf_uses_embedding_cells(self):
        pred, _, _ = scene(n=64)
        header = RasterHeader(
            width=2,
            height=2,
            gsd=32.0,
            origin_x=0.0,
            origin_y=64.0,
            crs_code=32654,
            bands=3,
            dtype="float32",
            nodata=None,
            cell_px=32,
        )
        emb = EmbeddingGrid(header, np.zeros((2, 2, 3), dtype=np.float32))
        field = infer_residual_field(
            pred,
            None,
            None,
            constant_forest(4.0, schema=SCHEMA_NRF, n_features=3),
            patch=32,
            feature_mode=SCHEMA_NRF,
            embeddings=emb,
        )
        np.testing.assert_array_equal(field.values.values, np.float32(4.0))

    def test_nrf_center_clamps_on_raster_smaller_than_patch(self):
        pred, _, _ = scene(n=20)
        header = RasterHeader(
            width=2, height=2, gsd=5.0, origin_x=0.0, origin_y=20.0,
            crs_code=32654, bands=3, dtype="float32", nodata=None, cell_px=10,
        )
        emb = EmbeddingGrid(header, np.zeros((2, 2, 3), dtype=np.float32))
        field = infer_residual_field(
            pred, None, None, constant_forest(4.0, schema=SCHEMA_NRF, n_features=3),
            patch=64, feature_mode=SCHEMA_NRF, embeddings=emb,
        )
        np.testing.assert_array_equal(field.values.values, np.float32(4.0))

    def test_windows_without_valid_pixels_drop_out(self):
        pred, optical, lc = scene(n=128)
        values = pred.values.copy()
        values[:, :70] = -9999.0
        pred = make_height(values, nodata=-9999.0)
        rng = np.random.default_rng(3)
        X = rng.normal(10.0, 1.0, (40, HRF_DIM))
        forest = train_forest(X, X[:, 0] - 10.0, SCHEMA_HRF, ForestParams(n_trees=1, seed=5))
        field = infer_residual_field(pred, optical, lc, forest, patch=32, stride=16)
        residual = field.values.values
        assert np.isfinite(residual).all()
        assert (field.weights[:, 70:] >= 1).all()
        out = apply_correction(pred, field).values
        assert (out[:, :70] == -9999.0).all()
        want = np.maximum(pred.values[:, 70:].astype(np.float64) - residual[:, 70:], 0.0)
        np.testing.assert_array_equal(out[:, 70:], want.astype(np.float32))

    def test_stride_above_patch_raises(self):
        pred, optical, lc = scene(n=64)
        rng = np.random.default_rng(3)
        X = rng.normal(10.0, 1.0, (40, HRF_DIM))
        forest = train_forest(X, X[:, 0] - 10.0, SCHEMA_HRF, ForestParams(n_trees=1, seed=5))
        with pytest.raises(ValueError, match=r"stride must be <= patch \(8\), got 20"):
            infer_residual_field(pred, optical, lc, forest, patch=8, stride=20)
        field = infer_residual_field(pred, optical, lc, forest, patch=8, stride=8)
        assert (field.weights >= 1).all()

    def test_all_nodata_raster_raises(self):
        _, optical, lc = scene(n=64)
        pred = make_height(np.full((64, 64), -9999.0), nodata=-9999.0)
        with pytest.raises(ValueError, match="no window"):
            infer_residual_field(pred, optical, lc, constant_forest(1.0), patch=32)

    def test_schema_mismatch_raises(self):
        pred, optical, lc = scene()
        with pytest.raises(ValueError, match="schema|feature"):
            infer_residual_field(
                pred, optical, lc, constant_forest(1.0, schema=SCHEMA_NRF, n_features=3), patch=32
            )


def varied_forest(schema, n_features):
    """A few deep trees over features spread like hrf's, so that windows
    take many different scalars."""
    rng = np.random.default_rng(31)
    X = rng.uniform(-5.0, 260.0, (300, n_features))
    y = rng.normal(0.0, 3.0, 300)
    return train_forest(X, y, schema, ForestParams(n_trees=2, min_samples_leaf=1, seed=7))


_HRF_FOREST = varied_forest(SCHEMA_HRF, HRF_DIM)
_NRF_FOREST = varied_forest(SCHEMA_NRF, 3)


@st.composite
def residual_problems(draw):
    """A raster with nodata stripes and columns, a window geometry and a
    feature mode: sizes off the window grid, strides equal to the patch or
    not dividing the raster, and rasters smaller than the patch."""
    patch = draw(st.integers(1, 24))
    stride = draw(st.one_of(st.just(patch), st.integers(1, patch)))
    height = draw(st.integers(1, 3 * patch + 9))
    width = draw(st.integers(1, 3 * patch + 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.uniform(0.0, 30.0, (height, width))
    for _ in range(draw(st.integers(0, 3))):
        r0 = int(rng.integers(0, height))
        values[r0 : r0 + int(rng.integers(1, patch + 2))] = -9999.0
    for _ in range(draw(st.integers(0, 3))):
        c0 = int(rng.integers(0, width))
        values[:, c0 : c0 + int(rng.integers(1, patch + 2))] = -9999.0
    values[rng.random((height, width)) < draw(st.sampled_from([0.0, 0.05]))] = np.nan
    pred = make_height(values, nodata=-9999.0)
    if draw(st.booleans()):
        optical = make_optical(rng.integers(0, 256, (height, width, 3), dtype=np.uint8))
        lc = make_landcover(rng.integers(0, 8, (height, width), dtype=np.uint8))
        return pred, optical, lc, None, SCHEMA_HRF, _HRF_FOREST, patch, stride
    cell = int(rng.integers(1, 9))
    gh, gw = -(-height // cell), -(-width // cell)
    header = RasterHeader(width=gw, height=gh, gsd=float(cell), origin_x=0.0,
                          origin_y=float(height), crs_code=32654, bands=3,
                          dtype="float32", nodata=None, cell_px=cell)
    grid = EmbeddingGrid(header, rng.uniform(-5.0, 260.0, (gh, gw, 3)).astype(np.float32))
    return pred, None, None, grid, SCHEMA_NRF, _NRF_FOREST, patch, stride


class TestResidualStripPass:
    @given(residual_problems())
    @settings(max_examples=120, deadline=None)
    def test_equals_the_whole_raster_form(self, problem):
        pred, optical, lc, grid, mode, forest, patch, stride = problem
        h = pred.header
        valid = np.isfinite(pred.values) & (pred.values != -9999.0)

        def score(windows):
            matrix = correction._feature_matrix(windows, pred, optical, lc, grid, mode, patch)
            return predict_batch(forest, matrix)

        if not valid.any():
            with pytest.raises(ValueError, match="no window"):
                infer_residual_field(pred, optical, lc, forest, patch, stride, mode, grid)
            return
        want_values, want_weights, windows = residual_field_whole(valid, patch, stride, score)
        field = infer_residual_field(pred, optical, lc, forest, patch, stride, mode, grid)
        assert field.values.values.dtype == np.float32 and field.weights.dtype == np.int32
        assert field.values.values.tobytes() == want_values.tobytes()
        assert field.weights.tobytes() == want_weights.tobytes()
        grid_windows = (len(window_origins_direct(h.height, patch, stride))
                        * len(window_origins_direct(h.width, patch, stride)))
        assert field.windows == len(windows)
        assert field.dropped == grid_windows - len(windows)

    def test_memory_is_the_output_and_a_window_row(self):
        # nrf features, so that feature temporaries do not count: the two
        # output rasters and a buffer of patch rows, against about eight
        # rasters when the sums, counts, summed-area table and quotient
        # were whole-raster arrays
        n = 1024
        rng = np.random.default_rng(25)
        pred = make_height(rng.uniform(0.0, 20.0, (n, n)))
        header = RasterHeader(width=16, height=16, gsd=64.0, origin_x=0.0,
                              origin_y=float(n), crs_code=32654, bands=3,
                              dtype="float32", nodata=None, cell_px=64)
        grid = EmbeddingGrid(header, rng.uniform(-5.0, 260.0, (16, 16, 3)).astype(np.float32))
        tracemalloc.start()
        try:
            field = infer_residual_field(pred, None, None, _NRF_FOREST, patch=64, stride=32,
                                         feature_mode=SCHEMA_NRF, embeddings=grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert field.windows == 31 * 31
        assert peak < 3 * pred.values.nbytes, f"peak {peak / pred.values.nbytes:.2f} rasters"


class TestApplyCorrection:
    def test_subtracts_and_clamps(self):
        pred = make_height([[5.0, 1.0], [0.5, 10.0]])
        field = ResidualField(
            values=height_like(pred.header, np.full((2, 2), 2.0)),
            weights=np.ones((2, 2), dtype=np.int32),
        )
        out = apply_correction(pred, field)
        np.testing.assert_allclose(out.values, [[3.0, 0.0], [0.0, 8.0]])

    def test_nodata_preserved(self):
        pred = make_height([[-9999.0, 4.0, np.nan, -np.inf]], nodata=-9999.0)
        field = ResidualField(
            values=height_like(pred.header, np.full((1, 4), 1.0)),
            weights=np.ones((1, 4), dtype=np.int32),
        )
        out = apply_correction(pred, field)
        assert out.values[0, 0] == -9999.0
        assert out.values[0, 1] == 3.0
        assert np.isnan(out.values[0, 2])
        assert out.values[0, 3] == -np.inf
        assert out.header.nodata == -9999.0

    def test_strips_equal_the_whole_raster_form(self):
        # invalid pixels on and next to the strip seams, and a last strip
        # shorter than the others
        rng = np.random.default_rng(23)
        shape = (2 * STRIP_ROWS + 5, 9)
        vals = rng.uniform(0.0, 20.0, shape).astype(np.float32)
        for row, bad in ((STRIP_ROWS - 1, -9999.0), (STRIP_ROWS, np.nan), (2 * STRIP_ROWS, np.inf)):
            vals[row, row % 9] = bad
        pred = make_height(vals, nodata=-9999.0)
        residual = height_like(pred.header, rng.normal(0.0, 5.0, shape))
        out = apply_correction(pred, ResidualField(residual, np.ones(shape, dtype=np.int32)))
        wide = vals.astype(np.float64)
        want = np.maximum(wide - residual.values.astype(np.float64), 0.0)
        want = np.where(np.isfinite(wide) & (wide != -9999.0), want, wide)
        assert out.values.tobytes() == want.astype(np.float32).tobytes()

    def test_memory_is_the_output_and_a_strip(self):
        rng = np.random.default_rng(24)
        pred = make_height(rng.uniform(0.0, 20.0, (1024, 1024)))
        field = ResidualField(height_like(pred.header, rng.normal(0.0, 5.0, (1024, 1024))),
                              np.ones((1024, 1024), dtype=np.int32))
        tracemalloc.start()
        try:
            apply_correction(pred, field)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * pred.values.nbytes, f"peak {peak / 1e6:.1f} MB"

    def test_grid_mismatch_raises(self):
        pred = make_height(np.zeros((4, 4)), gsd=1.0)
        other = make_height(np.zeros((4, 4)), gsd=2.0)
        field = ResidualField(values=other, weights=np.ones((4, 4), dtype=np.int32))
        with pytest.raises(ValueError, match="grid"):
            apply_correction(pred, field)
