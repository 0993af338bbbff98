import logging
import math
import tracemalloc

import numpy as np
import pytest
from scipy import ndimage
from hypothesis import given, settings
from hypothesis import strategies as st

from lidar_anchor import metrics
from lidar_anchor.metrics import (
    SSIM_SIGMA,
    SSIM_STRIP,
    SSIM_WINDOW,
    MetricsReport,
    evaluate,
    per_class_breakdown,
    ssim,
)
from lidar_anchor.raster import LC_BUILDING, LC_TREE, valid_mask

from conftest import make_height, make_landcover
from oracles import (
    f1_counts_whole,
    f1_direct,
    f1_whole,
    mae_direct,
    mae_whole,
    per_class_whole,
    rmse_direct,
    rmse_whole,
    ssim_2d,
    ssim_direct,
    ssim_separable,
)


def pair(pred_vals, ref_vals, pred_nodata=None, ref_nodata=None, gsd=1.0):
    pred = make_height(pred_vals, gsd=gsd, nodata=pred_nodata)
    ref = make_height(ref_vals, gsd=gsd, nodata=ref_nodata)
    return pred, ref


def mae(pred, ref):
    return evaluate(pred, ref).mae


def rmse(pred, ref):
    return evaluate(pred, ref).rmse


def f1_he(pred, ref):
    report = evaluate(pred, ref)  # threshold 1.0, eta 1.25
    return report.precision, report.recall, report.f1_he


def whole(metric, pred, ref):
    """A whole-raster oracle over the pair's jointly valid pixels."""
    return metric(pred.values, ref.values, valid_mask(pred) & valid_mask(ref))


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
        precision, recall, f1 = f1_he(pred, ref)
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
        precision, recall, f1 = f1_he(pred, ref)
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


# raster heights whose interiors hold one row, two rows, and one strip of
# output rows less, exactly and more
_STRIP_HEIGHTS = [SSIM_WINDOW, SSIM_WINDOW + 1] + [
    SSIM_STRIP + SSIM_WINDOW - 1 + k for k in (-1, 0, 1)
]


def _assert_ssim_matches_2d(pred, ref):
    want = ssim_2d(pred.values, ref.values, valid_mask(pred) & valid_mask(ref))
    assert abs(ssim(pred, ref) - want) <= 1e-12 * abs(want)


class TestStripSsim:
    @given(
        st.sampled_from(_STRIP_HEIGHTS),
        st.integers(SSIM_WINDOW, 24),
        st.sampled_from([0.0, 0.01, 0.2]),
        st.integers(0, 2**32 - 1),
        st.sampled_from([SSIM_STRIP, 1]),
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_2d_oracle(self, height, width, invalid_share, seed, strip):
        rng = np.random.default_rng(seed)
        vals_r = rng.normal(10, 5, (height, width))
        vals_p = vals_r + rng.normal(0, 1, (height, width))
        vals_p[rng.random((height, width)) < invalid_share] = -9999.0
        vals_r[rng.random((height, width)) < invalid_share / 2] = np.nan
        pred, ref = pair(vals_p, vals_r, pred_nodata=-9999.0)
        usable = ndimage.minimum_filter(valid_mask(pred) & valid_mask(ref), size=SSIM_WINDOW)
        # strips of SSIM_STRIP output rows, or of one, so that each reads 11 rows
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metrics, "SSIM_STRIP", strip)
            if not usable[5:-5, 5:-5].any():
                # a small or nodata-heavy pair may have no window left
                with pytest.raises(ValueError, match="nodata"):
                    ssim(pred, ref)
                return
            _assert_ssim_matches_2d(pred, ref)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -9999.0])
    def test_invalid_pixels_on_strip_seam(self, bad):
        rng = np.random.default_rng(10)
        height = 2 * SSIM_STRIP + SSIM_WINDOW - 1
        vals_r = rng.normal(10, 5, (height, 30))
        vals_p = vals_r + rng.normal(0, 1, (height, 30))
        # the last input row of the first strip, the first output row of
        # the second, and the rows that both strips read
        for row in (SSIM_STRIP + SSIM_WINDOW - 2, SSIM_STRIP + SSIM_WINDOW // 2, SSIM_STRIP):
            vals_p[row, 3 + row % 20] = bad
        pred, ref = pair(vals_p, vals_r, pred_nodata=-9999.0)
        _assert_ssim_matches_2d(pred, ref)

    @pytest.mark.parametrize("shape", [(11, 11), (26, 40), (74, 33), (75, 12)])
    def test_gaussian_pass_is_correlate1d(self, shape):
        # bit for bit on both axes, blocks of rows and their remainders
        # included, over values of many magnitudes
        rng = np.random.default_rng(shape[0])
        arr = rng.normal(0.0, 1.0, shape) * 10.0 ** rng.integers(-3, 6, shape)
        kernel = metrics._gaussian_kernel(SSIM_WINDOW, SSIM_SIGMA)
        half = SSIM_WINDOW // 2
        rows = ndimage.correlate1d(arr, kernel, axis=0)[half:-half]
        cols = ndimage.correlate1d(arr, kernel, axis=1)[:, half:-half]
        assert metrics._gaussian_pass(arr, kernel, axis=0).tobytes() == rows.tobytes()
        assert metrics._gaussian_pass(arr, kernel, axis=1).tobytes() == cols.tobytes()

    def test_large_pair_matches_loop_oracle(self):
        rng = np.random.default_rng(11)
        vals_r = rng.normal(10, 5, (SSIM_STRIP + 20, 14))
        vals_p = vals_r + rng.normal(0, 1, vals_r.shape)
        pred, ref = pair(vals_p, vals_r)
        want = ssim_direct(pred.values, ref.values)
        assert ssim(pred, ref) == pytest.approx(want, abs=1e-9)


class TestEvaluate:
    def test_report_is_complete(self):
        rng = np.random.default_rng(8)
        vals_r = np.abs(rng.normal(4, 3, (24, 24)))
        vals_p = vals_r + rng.normal(0, 0.5, (24, 24))
        pred, ref = pair(vals_p, vals_r)
        report = evaluate(pred, ref)
        assert isinstance(report, MetricsReport)
        # one strip: the sums are the whole-raster sums, bit for bit
        assert report.mae == whole(mae_whole, pred, ref)
        assert report.rmse == whole(rmse_whole, pred, ref)
        assert report.ssim == ssim(pred, ref)
        assert (report.precision, report.recall, report.f1_he) == whole(f1_whole, pred, ref)
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

    def test_raster_smaller_than_ssim_window(self):
        rng = np.random.default_rng(12)
        vals_r = np.abs(rng.normal(4, 3, (8, 8)))
        pred, ref = pair(vals_r + 0.5, vals_r)
        report = evaluate(pred, ref)
        assert report.ssim is None
        assert report.flags == ("ssim_undefined",)
        assert report.mae == pytest.approx(0.5)
        assert report.rmse == whole(rmse_whole, pred, ref) and report.n_valid == 64
        assert report.f1_he == whole(f1_whole, pred, ref)[2]

    def test_every_ssim_window_touches_nodata(self):
        rng = np.random.default_rng(13)
        vals_r = np.abs(rng.normal(4, 3, (64, 64)))
        vals_p = vals_r + 0.5
        vals_p[::8, :] = -9999.0  # a nodata row every 8 rows
        pred, ref = pair(vals_p, vals_r, pred_nodata=-9999.0)
        report = evaluate(pred, ref)
        assert report.ssim is None
        assert report.flags == ("ssim_undefined",)
        assert report.mae == whole(mae_whole, pred, ref) == pytest.approx(0.5)
        assert report.n_valid == 64 * 56


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


def _strip_pair(height, width, bad_rows, blank_strip, seed):
    """A correlated pair with an all-invalid second strip when asked, whole
    rows of prediction nodata or reference NaN at ``bad_rows``, a few
    scattered invalid pixels, and a land-cover raster with nodata."""
    rng = np.random.default_rng(seed)
    vals_r = rng.normal(3.0, 4.0, (height, width))
    vals_p = vals_r + rng.normal(0.0, 1.0, (height, width))
    vals_p[rng.random((height, width)) < 0.02] = -9999.0
    vals_r[rng.random((height, width)) < 0.01] = np.nan
    for i, row in enumerate(r for r in bad_rows if r < height):
        if i % 2:
            vals_r[row] = np.nan
        else:
            vals_p[row] = -9999.0
    if blank_strip:
        vals_p[SSIM_STRIP : 2 * SSIM_STRIP] = -9999.0
    codes = rng.integers(0, 8, (height, width))
    codes[rng.random((height, width)) < 0.05] = 255
    pred, ref = pair(vals_p, vals_r, pred_nodata=-9999.0)
    return pred, ref, make_landcover(codes, nodata=255)


def _close(got, want):
    return abs(got - want) <= 1e-12 * abs(want)


# rows at and next to each strip seam
_SEAM_ROWS = sorted({k * SSIM_STRIP + d for k in (1, 2, 3) for d in (-1, 0)})


class TestStripPass:
    """``evaluate`` and ``per_class_breakdown`` visit a pair a strip of
    SSIM_STRIP rows at a time; they agree with the whole-raster forms in
    ``oracles``: counts exactly, sums to 1e-12 relative."""

    @given(
        st.one_of(
            st.integers(1, 3 * SSIM_STRIP + 13),
            st.sampled_from([SSIM_WINDOW - 1, SSIM_STRIP, SSIM_STRIP + 1, 3 * SSIM_STRIP]),
        ),
        st.integers(1, 24),
        st.lists(st.one_of(st.sampled_from(_SEAM_ROWS), st.integers(0, 3 * SSIM_STRIP + 12)),
                 max_size=4),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_whole_raster_oracles(self, height, width, bad_rows, blank_strip, seed):
        pred, ref, lc = _strip_pair(height, width, bad_rows, blank_strip, seed)
        valid = valid_mask(pred) & valid_mask(ref)
        if not valid.any():
            with pytest.raises(ValueError, match="valid"):
                evaluate(pred, ref)
            assert per_class_breakdown(pred, ref, lc) == []
            return

        report = evaluate(pred, ref)
        assert report.n_valid == int(valid.sum())
        tp, fp, fn = f1_counts_whole(pred.values, ref.values, valid)
        # the ratios of equal counts are equal floats
        assert (report.precision, report.recall, report.f1_he) == whole(f1_whole, pred, ref)
        assert report.precision == (tp / (tp + fp) if tp + fp else 0.0)
        assert report.recall == (tp / (tp + fn) if tp + fn else 0.0)
        assert _close(report.mae, whole(mae_whole, pred, ref))
        assert _close(report.rmse, whole(rmse_whole, pred, ref))
        want_ssim = (
            None if min(height, width) < SSIM_WINDOW
            else ssim_separable(pred.values, ref.values, valid, strip=SSIM_STRIP)
        )
        if want_ssim is None:
            assert report.ssim is None and "ssim_undefined" in report.flags
        else:
            assert _close(report.ssim, want_ssim)

        got = per_class_breakdown(pred, ref, lc)
        want = per_class_whole(pred.values, ref.values, lc.values, valid & valid_mask(lc))
        assert [(r["class_code"], r["n_pixels"]) for r in got] == [w[:2] for w in want]
        for row, (_, _, mae_w, rmse_w, bias_w) in zip(got, want):
            assert _close(row["mae"], mae_w) and _close(row["rmse"], rmse_w)
            # a bias is a sum of signed errors that may cancel; its rounding
            # scales with the mean absolute error, not with the bias
            assert abs(row["bias"] - bias_w) <= 1e-12 * max(abs(bias_w), mae_w)

    def test_memory_is_bounded_by_a_strip(self):
        # evaluate and the per-class pass together hold less than three
        # float32 rasters of temporaries at 1024 x 1024; whole-raster float64
        # copies of the valid pixels alone would take four
        n = 1024
        pred, ref, lc = _strip_pair(n, n, [SSIM_STRIP], False, 3)
        tracemalloc.start()
        try:
            evaluate(pred, ref)
            per_class_breakdown(pred, ref, lc)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * pred.values.nbytes, f"peak {peak / 1e6:.1f} MB"
