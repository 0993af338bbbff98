import tracemalloc

import numpy as np
import pytest

from lidar_anchor.raster import STRIP_ROWS
from lidar_anchor.scaling import MIN_FIT_POINTS, AffineFit, apply_affine, fit_affine

from conftest import CleanRow, clean_table, make_height


def plateau_depth(lo=0.25, hi=0.75, n=96, gsd=1.0):
    """Two flat half-planes so footprint means are exact plateau values."""
    vals = np.full((n, n), lo, dtype=np.float32)
    vals[:, n // 2 :] = hi
    return make_height(vals, gsd=gsd, origin=(0.0, float(n)))


def plateau_photons(a, b, lo=0.25, hi=0.75, n=96, per_side=8):
    """Photons deep inside each plateau with h_ag = a*depth + b exactly."""
    pts = []
    for i in range(per_side):
        y = 20.0 + i * 6.0
        pts.append(CleanRow(20.0, y, a * lo + b, "object", 4, 3))
        pts.append(CleanRow(float(n) - 20.0, y, a * hi + b, "object", 4, 3))
    return pts


class TestFitAffine:
    def test_exact_recovery(self):
        depth = plateau_depth()
        pts = plateau_photons(40.0, -10.0)
        fit = fit_affine(depth, clean_table(pts), footprint=17.0)
        assert fit.a == pytest.approx(40.0, rel=1e-9)
        assert fit.b == pytest.approx(-10.0, rel=1e-9)
        assert fit.n_points == len(pts)
        assert fit.rmse == pytest.approx(0.0, abs=1e-9)

    def test_negative_slope_recovery(self):
        depth = plateau_depth()
        pts = plateau_photons(-40.0, 30.0)
        fit = fit_affine(depth, clean_table(pts), footprint=17.0)
        assert fit.a == pytest.approx(-40.0, rel=1e-9)
        assert fit.b == pytest.approx(30.0, rel=1e-9)

    def test_order_invariance_is_bitwise(self):
        rng = np.random.default_rng(23)
        depth = plateau_depth()
        pts = plateau_photons(40.0, -10.0)
        noisy = [
            p._replace(h_ag=p.h_ag + float(rng.normal(0, 0.5)))
            for p in pts
        ]
        fit1 = fit_affine(depth, clean_table(noisy), footprint=17.0)
        shuffled = list(noisy)
        rng.shuffle(shuffled)
        fit2 = fit_affine(depth, clean_table(shuffled), footprint=17.0)
        assert (fit1.a, fit1.b) == (fit2.a, fit2.b)

    def test_too_few_points_raises(self):
        depth = plateau_depth()
        pts = plateau_photons(40.0, -10.0)[: MIN_FIT_POINTS - 1]
        with pytest.raises(ValueError, match="at least"):
            fit_affine(depth, clean_table(pts), footprint=17.0)

    def test_constant_depth_is_degenerate(self):
        depth = plateau_depth(lo=0.5, hi=0.5)
        pts = plateau_photons(40.0, -10.0, lo=0.5, hi=0.5)
        with pytest.raises(ValueError, match="degenerate|constant"):
            fit_affine(depth, clean_table(pts), footprint=17.0)

    def test_photons_outside_raster_are_skipped(self):
        depth = plateau_depth()
        pts = plateau_photons(40.0, -10.0)
        outside = [CleanRow(-500.0, -500.0, 1.0, "object", 4, 3)]
        fit = fit_affine(depth, clean_table(pts + outside), footprint=17.0)
        assert fit.n_points == len(pts)
        assert fit.a == pytest.approx(40.0, rel=1e-9)

    def test_huber_downweights_outliers(self):
        depth = plateau_depth()
        pts = plateau_photons(40.0, -10.0, per_side=10)
        spoiled = pts + [CleanRow(20.0, 80.0, 500.0, "object", 4, 3)]
        plain = fit_affine(depth, clean_table(spoiled), footprint=17.0)
        robust = fit_affine(depth, clean_table(spoiled), footprint=17.0, huber=True)
        assert abs(robust.a - 40.0) < abs(plain.a - 40.0)
        assert abs(robust.b + 10.0) < abs(plain.b + 10.0)


class TestApplyAffine:
    def test_transforms_values(self):
        depth = plateau_depth()
        fit = fit_affine(depth, clean_table(plateau_photons(40.0, -10.0)), footprint=17.0)
        out = apply_affine(depth, fit)
        assert out.values.dtype == np.float32
        np.testing.assert_allclose(
            out.values, 40.0 * depth.values.astype(np.float64) - 10.0, rtol=1e-6
        )

    def test_nodata_preserved(self):
        vals = np.full((96, 96), 0.25, dtype=np.float32)
        vals[:, 48:] = 0.75
        vals[0, 0] = -9999.0
        vals[0, 1] = np.nan
        vals[0, 2] = -np.inf
        depth = make_height(vals, gsd=1.0, origin=(0.0, 96.0), nodata=-9999.0)
        fit = fit_affine(depth, clean_table(plateau_photons(40.0, -10.0)), footprint=17.0)
        flipped = AffineFit(a=-2.0, b=1.0, n_points=fit.n_points, rmse=fit.rmse)
        for f in (fit, flipped):
            out = apply_affine(depth, f)
            assert out.values[0, 0] == -9999.0
            assert np.isnan(out.values[0, 1])
            assert out.values[0, 2] == -np.inf
            assert out.values[1, 0] == np.float32(f.a * 0.25 + f.b)
            assert out.header.nodata == -9999.0

    def test_strips_equal_the_whole_raster_form(self):
        # invalid pixels on and next to the strip seams, and a last strip
        # shorter than the others
        rng = np.random.default_rng(21)
        vals = rng.uniform(0.0, 1.0, (2 * STRIP_ROWS + 5, 9)).astype(np.float32)
        for row, bad in ((STRIP_ROWS - 1, -9999.0), (STRIP_ROWS, np.nan), (2 * STRIP_ROWS, np.inf)):
            vals[row, row % 9] = bad
        depth = make_height(vals, nodata=-9999.0)
        fit = AffineFit(a=37.3, b=-11.9, n_points=10, rmse=0.1)
        wide = vals.astype(np.float64)
        want = np.where(np.isfinite(wide) & (wide != -9999.0), fit.a * wide + fit.b, wide)
        assert apply_affine(depth, fit).values.tobytes() == want.astype(np.float32).tobytes()

    def test_memory_is_the_output_and_a_strip(self):
        depth = make_height(np.random.default_rng(22).uniform(0.0, 1.0, (1024, 1024)))
        tracemalloc.start()
        try:
            apply_affine(depth, AffineFit(a=2.0, b=1.0, n_points=10, rmse=0.1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * depth.values.nbytes, f"peak {peak / 1e6:.1f} MB"
