import numpy as np
import pytest

from lidar_anchor.correction import (
    ResidualField,
    apply_correction,
    build_training_set,
    infer_residual_field,
)
from lidar_anchor.features import SCHEMA_HRF, SCHEMA_NRF, HRF_DIM, hrf_features
from lidar_anchor.forest import ForestParams, RandomForest, RegressionTree
from lidar_anchor.photons import CleanPhoton
from lidar_anchor.raster import (
    EmbeddingGrid,
    RasterHeader,
    footprint_mean,
    height_like,
    window,
)

from conftest import make_height, make_landcover, make_optical


def leaf_tree(value):
    return RegressionTree(
        feature=np.array([-1], dtype=np.int32),
        threshold=np.array([0.0]),
        left=np.array([-1], dtype=np.int32),
        right=np.array([-1], dtype=np.int32),
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


def scene(n=96, gsd=1.0, pred_fill=10.0):
    rng = np.random.default_rng(9)
    pred = make_height(np.full((n, n), pred_fill) + rng.normal(0, 0.1, (n, n)), gsd=gsd)
    optical = make_optical(rng.integers(0, 256, (n, n, 3), dtype=np.uint8), gsd=gsd)
    lc = make_landcover(rng.integers(0, 8, (n, n), dtype=np.uint8), gsd=gsd)
    return pred, optical, lc


def photons_on(pred, count=20, h=2.0):
    h_hdr = pred.header
    xs = np.linspace(10.0, h_hdr.width * h_hdr.gsd - 10.0, count)
    return [CleanPhoton(float(x), float(h_hdr.origin_y - 20.0), h, "object", 4, 3) for x in xs]


class TestBuildTrainingSet:
    def test_targets_are_footprint_mean_minus_height(self):
        pred, optical, lc = scene()
        pts = photons_on(pred, count=12, h=2.5)
        X, y, skipped = build_training_set(pred, optical, lc, pts, patch=32)
        assert skipped == 0
        assert X.shape == (12, HRF_DIM)
        for target, p in zip(y, pts):
            want = footprint_mean(pred, p.x, p.y, 17.0) - p.h_ag
            assert target == pytest.approx(want, abs=1e-9)

    def test_features_match_photon_centered_window(self):
        pred, optical, lc = scene()
        p = photons_on(pred, count=1)[0]
        X, _, _ = build_training_set(pred, optical, lc, [p], patch=32)
        col, row = pred.header.pixel_of(p.x, p.y)
        want = hrf_features(
            window(pred, row - 16, col - 16, 32),
            window(optical, row - 16, col - 16, 32),
            window(lc, row - 16, col - 16, 32),
        )
        np.testing.assert_array_equal(X[0], want.values)

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
            CleanPhoton(x, y, 1.0, "object", 4, 1)
            for x, y in [(1.0, 40.0), (62.5, 63.5), (40.0, 0.5), (30.0, 20.0)]
        ]
        X, _, _ = build_training_set(
            pred, None, None, pts, patch=32, feature_mode=SCHEMA_NRF, embeddings=emb
        )
        for row, p in zip(X, pts):
            col, r = pred.header.pixel_of(p.x, p.y)
            np.testing.assert_array_equal(row, cells[r // 16, col // 16])

    def test_outside_and_nodata_photons_are_skipped(self):
        pred, optical, lc = scene()
        pts = photons_on(pred, count=10)
        outside = CleanPhoton(-999.0, -999.0, 1.0, "object", 4, 1)
        X, y, skipped = build_training_set(pred, optical, lc, pts + [outside], patch=32)
        assert len(X) == len(y) == 10
        assert skipped == 1

    def test_nodata_under_photon_is_skipped(self):
        pred, optical, lc = scene()
        vals = pred.values.copy()
        p = photons_on(pred, count=1)[0]
        col, row = pred.header.pixel_of(p.x, p.y)
        vals[row, col] = -9999.0
        pred2 = make_height(vals, gsd=pred.header.gsd, nodata=-9999.0)
        # photons_on(count=5) also starts at x=10, so two photons share the
        # nodata pixel and both are skipped
        X, _, skipped = build_training_set(
            pred2, optical, lc, [p] + photons_on(pred, count=5), patch=32
        )
        assert skipped == 2
        assert len(X) == 4

    def test_nonfinite_under_photon_is_skipped(self):
        pred, optical, lc = scene()
        vals = pred.values.copy()
        p = photons_on(pred, count=1)[0]
        col, row = pred.header.pixel_of(p.x, p.y)
        vals[row, col] = np.nan
        X, y, skipped = build_training_set(
            make_height(vals, gsd=pred.header.gsd), optical, lc, [p] + photons_on(pred, count=5),
            patch=32,
        )
        assert skipped == 2
        assert len(X) == 4 and np.isfinite(y).all()

    def test_zero_usable_raises(self):
        pred, optical, lc = scene()
        outside = [CleanPhoton(-999.0, -999.0, 1.0, "object", 4, 1)]
        with pytest.raises(ValueError, match="zero usable"):
            build_training_set(pred, optical, lc, outside, patch=32)

    def test_hrf_requires_optical_and_lc(self):
        pred, optical, lc = scene()
        pts = photons_on(pred, count=12)
        with pytest.raises(ValueError, match="optical"):
            build_training_set(pred, None, lc, pts, patch=32)

    def test_nrf_requires_embeddings(self):
        pred, _, _ = scene()
        pts = photons_on(pred, count=12)
        with pytest.raises(ValueError, match="embedding"):
            build_training_set(
                pred, None, None, pts, patch=32, feature_mode=SCHEMA_NRF, embeddings=None
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

    def test_schema_mismatch_raises(self):
        pred, optical, lc = scene()
        with pytest.raises(ValueError, match="schema|feature"):
            infer_residual_field(
                pred, optical, lc, constant_forest(1.0, schema=SCHEMA_NRF, n_features=3), patch=32
            )


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
        pred = make_height([[-9999.0, 4.0]], nodata=-9999.0)
        field = ResidualField(
            values=height_like(pred.header, np.full((1, 2), 1.0)),
            weights=np.ones((1, 2), dtype=np.int32),
        )
        out = apply_correction(pred, field)
        assert out.values[0, 0] == -9999.0
        assert out.values[0, 1] == 3.0
        assert out.header.nodata == -9999.0

    def test_grid_mismatch_raises(self):
        pred = make_height(np.zeros((4, 4)), gsd=1.0)
        other = make_height(np.zeros((4, 4)), gsd=2.0)
        field = ResidualField(values=other, weights=np.ones((4, 4), dtype=np.int32))
        with pytest.raises(ValueError, match="grid"):
            apply_correction(pred, field)
