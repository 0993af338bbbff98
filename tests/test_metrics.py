import logging
import math

import numpy as np
import pytest

from lidar_anchor.metrics import (
    MetricsReport,
    evaluate,
    f1_he,
    mae,
    per_class_breakdown,
    rmse,
    ssim,
)
from lidar_anchor.raster import LC_BUILDING, LC_TREE

from conftest import make_height, make_landcover
from oracles import f1_direct, mae_direct, rmse_direct, ssim_direct


def pair(pred_vals, ref_vals, pred_nodata=None, ref_nodata=None, gsd=1.0):
    pred = make_height(pred_vals, gsd=gsd, nodata=pred_nodata)
    ref = make_height(ref_vals, gsd=gsd, nodata=ref_nodata)
    return pred, ref


class TestMaeRmse:
    def test_hand_example_sqrt5(self):
        # diffs {1, -1, 3, -3}
        pred, ref = pair([[1.0, -1.0], [3.0, -3.0]], [[0.0, 0.0], [0.0, 0.0]])
        assert rmse(pred, ref) == pytest.approx(math.sqrt(5.0), abs=1e-12)
        assert mae(pred, ref) == pytest.approx(2.0, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        a, b = pair(rng.normal(5, 2, (9, 9)), rng.normal(5, 2, (9, 9)))
        assert mae(a, b) == mae(b, a)
        assert rmse(a, b) == rmse(b, a)

    def test_rmse_at_least_mae(self):
        rng = np.random.default_rng(1)
        a, b = pair(rng.normal(0, 3, (12, 12)), rng.normal(0, 3, (12, 12)))
        assert rmse(a, b) >= mae(a, b)

    def test_nodata_excluded_both_ways(self):
        pred, ref = pair(
            [[1.0, -9999.0], [3.0, 5.0]],
            [[0.0, 0.0], [-7777.0, 5.0]],
            pred_nodata=-9999.0,
            ref_nodata=-7777.0,
        )
        # only (0,0) and (1,1) are jointly valid
        assert mae(pred, ref) == pytest.approx(0.5)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(2)
        vals_p = rng.normal(10, 4, (15, 11))
        vals_r = rng.normal(10, 4, (15, 11))
        vals_p[rng.random((15, 11)) < 0.1] = -9999.0
        pred, ref = pair(vals_p, vals_r, pred_nodata=-9999.0)
        assert mae(pred, ref) == pytest.approx(
            mae_direct(pred.values, ref.values, pred_nodata=-9999.0), abs=1e-9
        )
        assert rmse(pred, ref) == pytest.approx(
            rmse_direct(pred.values, ref.values, pred_nodata=-9999.0), abs=1e-9
        )

    def test_no_joint_pixels_raises(self):
        pred, ref = pair([[-9999.0]], [[1.0]], pred_nodata=-9999.0)
        with pytest.raises(ValueError, match="valid"):
            mae(pred, ref)

    def test_grid_mismatch_raises(self):
        pred = make_height(np.zeros((4, 4)), gsd=1.0)
        ref = make_height(np.zeros((4, 4)), gsd=2.0)
        with pytest.raises(ValueError, match="grid"):
            mae(pred, ref)


class TestF1:
    def test_hand_enumerated_example(self):
        ref_vals = [[0.0, 5.0], [5.0, 0.0]]
        pred_vals = [[5.0, 5.0], [4.2, 0.0]]
        pred, ref = pair(pred_vals, ref_vals)
        precision, recall, f1 = f1_he(pred, ref, threshold=1.0, eta=1.25)
        assert precision == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert recall == 1.0
        assert f1 == pytest.approx(0.8, abs=1e-15)

    def test_ratio_floor_applies(self):
        # both heights tiny: floored to 0.1 so delta is 1 and neither is
        # above threshold; a single tall agreement drives the score
        pred, ref = pair([[0.01, 10.0]], [[0.05, 10.0]])
        precision, recall, f1 = f1_he(pred, ref)
        assert (precision, recall, f1) == (1.0, 1.0, 1.0)

    def test_delta_eta_boundary_excluded(self):
        # ratio exactly eta must not count as a true positive
        pred, ref = pair([[12.5]], [[10.0]])
        precision, recall, f1 = f1_he(pred, ref, eta=1.25)
        assert (precision, recall) == (0.0, 0.0)

    def test_recall_undefined_reports_zero_and_warns(self, caplog):
        pred, ref = pair([[2.0, 0.0]], [[0.5, 0.5]])
        with caplog.at_level(logging.WARNING):
            precision, recall, f1 = f1_he(pred, ref)
        assert recall == 0.0
        assert any("recall" in r.message for r in caplog.records)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            vals_p = np.abs(rng.normal(1.5, 2, (10, 10)))
            vals_r = np.abs(rng.normal(1.5, 2, (10, 10)))
            pred, ref = pair(vals_p, vals_r)
            got = f1_he(pred, ref)
            want = f1_direct(pred.values, ref.values)
            assert got == pytest.approx(want, abs=1e-12)


class TestSsim:
    def test_identity_is_exactly_one(self):
        rng = np.random.default_rng(4)
        vals = rng.normal(10, 5, (32, 32))
        pred, ref = pair(vals, vals.copy())
        assert ssim(pred, ref) == 1.0

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(5)
        vals_r = rng.normal(10, 5, (24, 24))
        vals_p = vals_r + rng.normal(0, 1, (24, 24))
        pred, ref = pair(vals_p, vals_r)
        want = ssim_direct(pred.values, ref.values)
        assert ssim(pred, ref) == pytest.approx(want, abs=1e-9)

    def test_nodata_windows_are_skipped(self):
        rng = np.random.default_rng(6)
        vals_r = rng.normal(10, 5, (26, 26))
        vals_p = vals_r + rng.normal(0, 0.5, (26, 26))
        vals_p[12, 13] = -9999.0
        pred, ref = pair(vals_p, vals_r, pred_nodata=-9999.0)
        want = ssim_direct(pred.values, ref.values, pred_nodata=-9999.0)
        assert ssim(pred, ref) == pytest.approx(want, abs=1e-9)

    def test_flat_reference_uses_unit_range(self):
        # a constant reference has zero range; the clamp keeps C1/C2 sane
        pred, ref = pair(np.zeros((16, 16)), np.zeros((16, 16)))
        assert ssim(pred, ref) == 1.0

    def test_too_small_raster_raises(self):
        pred, ref = pair(np.zeros((8, 8)), np.zeros((8, 8)))
        with pytest.raises(ValueError, match="window"):
            ssim(pred, ref)

    def test_all_windows_touch_nodata_raises(self):
        vals = np.zeros((12, 12))
        vals[5:7, :] = -9999.0  # a full-width stripe through every window
        pred, ref = pair(vals, np.zeros((12, 12)), pred_nodata=-9999.0)
        with pytest.raises(ValueError, match="nodata"):
            ssim(pred, ref)

    def test_lower_on_distorted_input(self):
        rng = np.random.default_rng(7)
        vals_r = rng.normal(10, 5, (32, 32))
        mild, ref = pair(vals_r + rng.normal(0, 0.2, (32, 32)), vals_r)
        harsh, _ = pair(vals_r + rng.normal(0, 4.0, (32, 32)), vals_r)
        assert ssim(mild, ref) > ssim(harsh, ref)


class TestEvaluate:
    def test_report_is_complete(self):
        rng = np.random.default_rng(8)
        vals_r = np.abs(rng.normal(4, 3, (24, 24)))
        vals_p = vals_r + rng.normal(0, 0.5, (24, 24))
        pred, ref = pair(vals_p, vals_r)
        report = evaluate(pred, ref)
        assert isinstance(report, MetricsReport)
        assert report.mae == mae(pred, ref)
        assert report.rmse == rmse(pred, ref)
        assert report.ssim == ssim(pred, ref)
        assert (report.precision, report.recall, report.f1_he) == f1_he(pred, ref)
        assert report.n_valid == 24 * 24
        assert report.params["threshold"] == 1.0
        assert report.params["eta"] == 1.25
        assert report.flags == ()

    def test_nonfinite_pixel_counts_as_nodata(self):
        rng = np.random.default_rng(9)
        vals_r = np.abs(rng.normal(4, 3, (24, 24)))
        vals_p = vals_r + rng.normal(0, 0.5, (24, 24))
        vals_p[12, 13] = np.nan
        pred, ref = pair(vals_p, vals_r)
        vals_p[12, 13] = -9999.0
        pred_nodata, _ = pair(vals_p, vals_r, pred_nodata=-9999.0)
        report = evaluate(pred, ref)
        assert report.n_valid == 24 * 24 - 1
        assert report == evaluate(pred_nodata, ref)

    def test_recall_undefined_flag(self):
        pred, ref = pair(np.zeros((16, 16)), np.zeros((16, 16)))
        report = evaluate(pred, ref)
        assert "recall_undefined" in report.flags


class TestPerClass:
    def test_split_by_class(self):
        pred_vals = np.array([[10.0, 11.0], [3.0, 5.0]], dtype=np.float32)
        ref_vals = np.array([[12.0, 12.0], [4.0, 4.0]], dtype=np.float32)
        codes = np.array([[LC_TREE, LC_TREE], [LC_BUILDING, LC_BUILDING]], dtype=np.uint8)
        pred, ref = pair(pred_vals, ref_vals)
        lc = make_landcover(codes)
        rows = {r["class_code"]: r for r in per_class_breakdown(pred, ref, lc)}
        assert set(rows) == {LC_TREE, LC_BUILDING}
        tree = rows[LC_TREE]
        assert tree["class_name"] == "tree"
        assert tree["n_pixels"] == 2
        assert tree["mae"] == pytest.approx(1.5)
        assert tree["bias"] == pytest.approx(-1.5)
        bld = rows[LC_BUILDING]
        assert bld["mae"] == pytest.approx(1.0)
        assert bld["bias"] == pytest.approx(0.0)
        assert bld["rmse"] == pytest.approx(1.0)
