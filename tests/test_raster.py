import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lidar_anchor.raster import (
    EmbeddingGrid,
    GeometryError,
    HeightRaster,
    LandCoverRaster,
    OpticalRaster,
    RasterFormatError,
    RasterHeader,
    footprint_mean,
    height_like,
    load_raster,
    percentile,
    sample_bilinear,
    save_raster,
    sobel_magnitude,
    window,
)

from conftest import make_height, make_landcover, make_optical
from oracles import footprint_pixels, percentile_direct, sobel_direct


def header(w=4, h=3, gsd=2.0, nodata=None, bands=1, dtype="float32", cell_px=None):
    return RasterHeader(
        width=w,
        height=h,
        gsd=gsd,
        origin_x=100.0,
        origin_y=200.0,
        crs_code=32654,
        bands=bands,
        dtype=dtype,
        nodata=nodata,
        cell_px=cell_px,
    )


class TestHeader:
    def test_pixel_center_and_world_to_pixel_are_inverse(self):
        h = header()
        for col, row in [(0, 0), (3, 2), (1, 1)]:
            x, y = h.pixel_center(col, row)
            fcol, frow = h.world_to_pixel(x, y)
            assert fcol == pytest.approx(col, abs=1e-12)
            assert frow == pytest.approx(row, abs=1e-12)

    def test_pixel_center_formula(self):
        h = header()
        assert h.pixel_center(0, 0) == (101.0, 199.0)
        assert h.pixel_center(3, 2) == (107.0, 195.0)

    def test_pixel_of_clamps_far_edges(self):
        h = header()
        assert h.pixel_of(100.0, 200.0) == (0, 0)
        # the exact far edge belongs to the last pixel
        assert h.pixel_of(108.0, 194.0) == (3, 2)

    def test_pixel_of_outside_raises(self):
        h = header()
        with pytest.raises(GeometryError):
            h.pixel_of(99.9, 199.0)
        with pytest.raises(GeometryError):
            h.pixel_of(101.0, 200.1)

    def test_contains_point_edges_inclusive(self):
        h = header()
        assert h.contains_point(100.0, 200.0)
        assert h.contains_point(108.0, 194.0)
        assert not h.contains_point(108.0001, 199.0)

    def test_same_grid(self):
        a = header()
        assert a.same_grid(header())
        assert not a.same_grid(header(gsd=1.0))
        assert not a.same_grid(header(w=5))

    def test_validation(self):
        with pytest.raises(ValueError):
            header(w=0)
        with pytest.raises(ValueError):
            header(gsd=-1.0)
        with pytest.raises(ValueError):
            header(dtype="float16")


class TestRasterTypes:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            HeightRaster(header(), np.zeros((2, 4), dtype=np.float32))

    def test_value_dtype_is_coerced_to_header(self):
        r = HeightRaster(header(), np.zeros((3, 4), dtype=np.float64))
        assert r.values.dtype == np.float32

    def test_optical_needs_three_bands(self):
        make_optical(np.zeros((3, 4, 3), dtype=np.uint8))
        with pytest.raises(ValueError):
            OpticalRaster(header(bands=3, dtype="uint8"), np.zeros((3, 4, 2), dtype=np.uint8))

    def test_embedding_needs_cell_px(self):
        h = header(bands=8, dtype="float32", cell_px=16)
        EmbeddingGrid(h, np.zeros((3, 4, 8), dtype=np.float32))
        with pytest.raises(ValueError):
            EmbeddingGrid(header(bands=8, dtype="float32"), np.zeros((3, 4, 8), dtype=np.float32))

    def test_height_like_keeps_grid(self):
        src = make_height(np.zeros((3, 4)), gsd=2.0)
        out = height_like(src.header, np.ones((3, 4)), nodata=-9999.0)
        assert out.header.same_grid(src.header)
        assert out.header.nodata == -9999.0
        assert out.values.dtype == np.float32


class TestRoundTrip:
    def test_height_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        src = make_height(rng.normal(5, 2, (7, 5)).astype(np.float32), gsd=0.5, nodata=-9999.0)
        save_raster(src, tmp_path / "h")
        back = load_raster(tmp_path / "h")
        assert isinstance(back, HeightRaster)
        assert back.header == src.header
        np.testing.assert_array_equal(back.values, src.values)

    def test_optical_round_trip_pixel_interleaved(self, tmp_path):
        rng = np.random.default_rng(1)
        src = make_optical(rng.integers(0, 256, (4, 6, 3), dtype=np.uint8))
        save_raster(src, tmp_path / "o")
        back = load_raster(tmp_path / "o")
        assert isinstance(back, OpticalRaster)
        np.testing.assert_array_equal(back.values, src.values)
        # pixel-interleaved payload: first 3 bytes are pixel (0,0) RGB
        payload = (tmp_path / "o.bin").read_bytes()
        assert payload[:3] == bytes(src.values[0, 0].tolist())

    def test_landcover_round_trip(self, tmp_path):
        src = make_landcover(np.arange(12, dtype=np.uint8).reshape(3, 4) % 8)
        save_raster(src, tmp_path / "lc")
        back = load_raster(tmp_path / "lc")
        assert isinstance(back, LandCoverRaster)
        np.testing.assert_array_equal(back.values, src.values)

    def test_embedding_round_trip_band_sequential(self, tmp_path):
        rng = np.random.default_rng(2)
        vals = rng.normal(size=(3, 4, 5)).astype(np.float32)
        src = EmbeddingGrid(header(bands=5, dtype="float32", cell_px=16), vals)
        save_raster(src, tmp_path / "e")
        back = load_raster(tmp_path / "e")
        assert isinstance(back, EmbeddingGrid)
        assert back.header.cell_px == 16
        np.testing.assert_array_equal(back.values, vals)
        # band-sequential payload: first band's full plane comes first
        payload = np.frombuffer((tmp_path / "e.bin").read_bytes(), dtype="<f4")
        np.testing.assert_array_equal(payload[:12].reshape(3, 4), vals[:, :, 0])

    def test_save_accepts_bin_or_json_suffix(self, tmp_path):
        src = make_height(np.zeros((2, 2)))
        save_raster(src, tmp_path / "a.bin")
        save_raster(src, tmp_path / "b.json")
        assert load_raster(tmp_path / "a").header == load_raster(tmp_path / "b.json").header

    def test_header_json_is_stable(self, tmp_path):
        src = make_height(np.zeros((2, 2)))
        save_raster(src, tmp_path / "a")
        save_raster(src, tmp_path / "b")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


class TestLoadErrors:
    def _write(self, tmp_path, mutate):
        import json

        src = make_height(np.zeros((3, 4)), gsd=2.0)
        save_raster(src, tmp_path / "r")
        doc = json.loads((tmp_path / "r.json").read_text())
        mutate(doc)
        (tmp_path / "r.json").write_text(json.dumps(doc))

    def test_missing_key(self, tmp_path):
        self._write(tmp_path, lambda d: d.pop("gsd"))
        with pytest.raises(RasterFormatError, match="gsd"):
            load_raster(tmp_path / "r")

    def test_unknown_key(self, tmp_path):
        self._write(tmp_path, lambda d: d.update(extra=1))
        with pytest.raises(RasterFormatError, match="extra"):
            load_raster(tmp_path / "r")

    def test_payload_size_mismatch(self, tmp_path):
        src = make_height(np.zeros((3, 4)))
        save_raster(src, tmp_path / "r")
        (tmp_path / "r.bin").write_bytes(b"\x00" * 13)
        with pytest.raises(RasterFormatError, match="payload"):
            load_raster(tmp_path / "r")

    def test_unsupported_dtype(self, tmp_path):
        self._write(tmp_path, lambda d: d.update(dtype="int16"))
        with pytest.raises(RasterFormatError):
            load_raster(tmp_path / "r")

    def test_missing_bin(self, tmp_path):
        src = make_height(np.zeros((3, 4)))
        save_raster(src, tmp_path / "r")
        (tmp_path / "r.bin").unlink()
        with pytest.raises(RasterFormatError):
            load_raster(tmp_path / "r")


class TestBilinear:
    def test_exact_at_pixel_centers(self):
        vals = np.arange(12, dtype=np.float32).reshape(3, 4)
        r = make_height(vals, gsd=2.0, origin=(100.0, 200.0))
        for col in range(4):
            for row in range(3):
                x, y = r.header.pixel_center(col, row)
                assert sample_bilinear(r, x, y) == pytest.approx(vals[row, col])

    def test_midpoint_interpolation(self):
        vals = np.array([[0.0, 4.0], [8.0, 12.0]], dtype=np.float32)
        r = make_height(vals, gsd=1.0, origin=(0.0, 2.0))
        # center of the 2x2 block: average of all four
        assert sample_bilinear(r, 1.0, 1.0) == pytest.approx(6.0)
        # halfway between the top two centers
        assert sample_bilinear(r, 1.0, 1.5) == pytest.approx(2.0)

    def test_nodata_renormalizes_weights(self):
        vals = np.array([[0.0, -9999.0], [8.0, 12.0]], dtype=np.float32)
        r = make_height(vals, gsd=1.0, origin=(0.0, 2.0), nodata=-9999.0)
        got = sample_bilinear(r, 1.0, 1.0)
        # equal corner weights, one invalid: mean of the remaining three
        assert got == pytest.approx((0.0 + 8.0 + 12.0) / 3.0)

    def test_all_corners_nodata_returns_none(self):
        vals = np.full((2, 2), -9999.0, dtype=np.float32)
        r = make_height(vals, gsd=1.0, origin=(0.0, 2.0), nodata=-9999.0)
        assert sample_bilinear(r, 1.0, 1.0) is None

    def test_clamps_outside_center_band(self):
        vals = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
        r = make_height(vals, gsd=1.0, origin=(0.0, 2.0))
        # above the top row of centers: clamps to the top edge values
        assert sample_bilinear(r, 0.5, 1.99) == pytest.approx(1.0)

    def test_matches_manual_formula(self):
        rng = np.random.default_rng(3)
        vals = rng.normal(size=(5, 6)).astype(np.float32)
        r = make_height(vals, gsd=1.0, origin=(0.0, 5.0))
        x, y = 2.3, 2.6
        # surrounding centers: cols 1..2 (x = 1.5, 2.5), rows 1..2 (y = 3.5, 2.5)
        fx = x - 1.5
        fy = 3.5 - y
        v = (
            vals[1, 1] * (1 - fx) * (1 - fy)
            + vals[1, 2] * fx * (1 - fy)
            + vals[2, 1] * (1 - fx) * fy
            + vals[2, 2] * fx * fy
        )
        assert sample_bilinear(r, x, y) == pytest.approx(float(v), abs=1e-6)


class TestExtractWindow:
    def test_interior_is_plain_slice(self):
        vals = np.arange(100, dtype=np.float32).reshape(10, 10)
        r = make_height(vals)
        win = window(r, 2, 5, 4)
        np.testing.assert_array_equal(win, vals[2:6, 5:9])

    def test_edge_replicates(self):
        vals = np.arange(16, dtype=np.float32).reshape(4, 4)
        r = make_height(vals)
        win = window(r, -1, -1, 3)
        expected = np.array(
            [[0, 0, 1], [0, 0, 1], [4, 4, 5]],
            dtype=np.float32,
        )
        np.testing.assert_array_equal(win, expected)

    def test_window_larger_than_raster(self):
        vals = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
        r = make_height(vals)
        win = window(r, -3, -3, 6)
        assert win.shape == (6, 6)
        assert win[0, 0] == 1.0 and win[-1, -1] == 4.0

    def test_center_outside_raises(self):
        r = make_height(np.zeros((4, 4)))
        for row0, col0 in [(-1, 4), (4, 0), (-3, 0), (0, -3)]:
            with pytest.raises(GeometryError):
                window(r, row0, col0, 3)
        window(r, -2, 3, 3)  # one corner pixel is enough

    def test_returns_copy(self):
        r = make_height(np.zeros((4, 4)))
        win = window(r, 0, 0, 2)
        win[0, 0] = 99.0
        assert r.values[0, 0] == 0.0


class TestSobel:
    def test_unit_ramp_interior_is_eight(self):
        patch = np.tile(np.arange(8, dtype=np.float64), (8, 1))
        mag = sobel_magnitude(patch)
        np.testing.assert_allclose(mag[1:-1, 1:-1], 8.0)

    def test_constant_patch_is_zero(self):
        np.testing.assert_array_equal(sobel_magnitude(np.full((6, 6), 3.0)), 0.0)

    def test_matches_direct_convolution(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            patch = rng.normal(size=(9, 7))
            np.testing.assert_allclose(
                sobel_magnitude(patch), sobel_direct(patch), rtol=0, atol=1e-9
            )


class TestFootprint:
    def test_checkerboard_near_five(self):
        n = 64
        idx = np.indices((n, n)).sum(axis=0)
        vals = np.where(idx % 2 == 0, 0.0, 10.0).astype(np.float32)
        r = make_height(vals, gsd=0.5, origin=(0.0, 32.0))
        got = footprint_mean(r, 16.0, 16.0, 17.0)
        assert abs(got - 5.0) <= 0.2

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(11)
        vals = rng.normal(10, 4, size=(40, 40)).astype(np.float32)
        r = make_height(vals, gsd=0.7, origin=(50.0, 80.0))
        h = r.header
        for _ in range(25):
            x = 50.0 + rng.uniform(0, 28)
            y = 80.0 - rng.uniform(0, 28)
            d = rng.uniform(0.5, 20.0)
            hits = footprint_pixels(h.width, h.height, h.gsd, h.origin_x, h.origin_y, x, y, d)
            got = footprint_mean(r, x, y, d)
            if not hits:
                col, row = h.pixel_of(x, y)
                assert got == float(vals[row, col])
            else:
                rows, cols = zip(*hits)
                expected = float(np.mean(vals[list(rows), list(cols)].astype(np.float64)))
                assert got == expected

    def test_tiny_disk_falls_back_to_containing_pixel(self):
        vals = np.arange(16, dtype=np.float32).reshape(4, 4)
        r = make_height(vals, gsd=10.0, origin=(0.0, 40.0))
        # 1 m disk at the corner of pixel (1, 1): no center within 0.5 m
        got = footprint_mean(r, 12.0, 22.0, 1.0)
        assert got == float(vals[1, 1])

    def test_all_nodata_returns_none(self):
        vals = np.full((8, 8), -9999.0, dtype=np.float32)
        r = make_height(vals, gsd=1.0, origin=(0.0, 8.0), nodata=-9999.0)
        assert footprint_mean(r, 4.0, 4.0, 5.0) is None

    def test_nonfinite_pixels_are_left_out(self):
        rng = np.random.default_rng(12)
        vals = rng.normal(10, 4, size=(16, 16)).astype(np.float32)
        vals[8, 8] = np.nan
        r = make_height(vals, gsd=1.0, origin=(0.0, 16.0))
        hits = footprint_pixels(16, 16, 1.0, 0.0, 16.0, 8.5, 7.5, 5.0)
        assert (8, 8) in hits
        rows, cols = zip(*[hit for hit in hits if hit != (8, 8)])
        expected = float(np.mean(vals[list(rows), list(cols)].astype(np.float64)))
        assert footprint_mean(r, 8.5, 7.5, 5.0) == expected
        # a disk too small to hold a pixel center falls back to the NaN pixel
        assert footprint_mean(r, 8.9, 7.1, 0.2) is None

    def test_disjoint_disk_raises(self):
        r = make_height(np.zeros((8, 8)), gsd=1.0, origin=(0.0, 8.0))
        with pytest.raises(GeometryError):
            footprint_mean(r, 100.0, 100.0, 17.0)


class TestPercentile:
    @given(
        st.lists(st.floats(-1e4, 1e4, allow_nan=False), min_size=1, max_size=60),
        st.floats(0, 100),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_direct_interpolation(self, values, q):
        got = percentile(np.asarray(values), q)
        expected = percentile_direct(values, q)
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_known_values(self):
        vals = np.array([1.0, 2.0, 3.0, 4.0])
        assert percentile(vals, 0) == 1.0
        assert percentile(vals, 100) == 4.0
        assert percentile(vals, 50) == 2.5
