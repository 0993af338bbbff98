import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lidar_anchor.raster import (
    STRIP_ROWS,
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
    row_strips,
    sample_bilinear,
    save_raster,
    sobel_magnitude,
    window,
)

from conftest import make_height, make_landcover, make_optical
from oracles import (
    footprint_mean_direct,
    footprint_pixels,
    percentile_direct,
    raster_payload_whole,
    sample_bilinear_direct,
    sobel_direct,
    sobel_stencil_direct,
    window_direct,
)


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


def pixel_center(h, col, row):
    """Map coordinates of the center of pixel (col, row), as the raster
    format documents them."""
    return h.origin_x + (col + 0.5) * h.gsd, h.origin_y - (row + 0.5) * h.gsd


class TestHeader:
    def test_pixel_center_and_world_to_pixel_are_inverse(self):
        h = header()
        for col, row in [(0, 0), (3, 2), (1, 1)]:
            x, y = pixel_center(h, col, row)
            fcol, frow = h.world_to_pixel(x, y)
            assert fcol == pytest.approx(col, abs=1e-12)
            assert frow == pytest.approx(row, abs=1e-12)

    def test_pixel_center_formula(self):
        h = header()
        assert h.world_to_pixel(101.0, 199.0) == (0.0, 0.0)
        assert h.world_to_pixel(107.0, 195.0) == (3.0, 2.0)

    def test_pixel_of_clamps_far_edges(self):
        h = header()
        col, row = h.pixels_of(np.array([100.0, 108.0]), np.array([200.0, 194.0]))
        # the exact far edge belongs to the last pixel
        assert col.tolist() == [0, 3] and row.tolist() == [0, 2]

    def test_contains_point_edges_inclusive(self):
        h = header()
        assert h.contains_point(100.0, 200.0)
        assert h.contains_point(108.0, 194.0)
        assert not h.contains_point(108.0001, 199.0)

    def test_array_forms_match_per_point(self):
        h = header()
        rng = np.random.default_rng(5)
        x = np.concatenate([rng.uniform(99.0, 109.0, 200), [100.0, 108.0, 108.0001, np.nan]])
        y = np.concatenate([rng.uniform(193.0, 201.0, 200), [200.0, 194.0, 199.0, 199.0]])
        inside = h.contains_point(x, y)
        assert inside.tolist() == [h.contains_point(a, b) for a, b in zip(x.tolist(), y.tolist())]
        col, row = h.pixels_of(x[inside], y[inside])
        assert list(zip(col.tolist(), row.tolist())) == [
            (min(math.floor((a - 100.0) / 2.0), 3), min(math.floor((200.0 - b) / 2.0), 2))
            for a, b in zip(x[inside].tolist(), y[inside].tolist())
        ]

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

    @pytest.mark.parametrize("dtype, nodata", [
        ("float32", -9999.0), ("float32", -7777), ("float32", 0.5), ("float32", math.nan),
        ("float32", -math.inf), ("uint8", 200), ("uint8", 0), ("uint8", 255.0),
    ])
    def test_nodata_the_dtype_holds(self, dtype, nodata):
        assert header(dtype=dtype, nodata=nodata).nodata is nodata

    @pytest.mark.parametrize("dtype, nodata", [
        ("float32", 0.1), ("float32", -9999.1), ("float32", 1e40), ("uint8", 256),
        ("uint8", -1), ("uint8", 1.5), ("uint8", math.nan),
    ])
    def test_nodata_the_dtype_cannot_hold(self, dtype, nodata):
        # a float32 pixel of 0.1 equals nodata 0.1 in float32 but not in
        # float64, so such a nodata would be invalid to one reader and valid
        # to another
        message = f"nodata {nodata!r} is not exactly a {dtype} value"
        with pytest.raises(ValueError, match=re.escape(message)):
            header(dtype=dtype, nodata=nodata)


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

    def test_landcover_rejects_codes_outside_classes(self, tmp_path):
        vals = np.zeros((3, 4), dtype=np.uint8)
        vals[1, 2] = 8
        vals[2, 0] = 200
        with pytest.raises(RasterFormatError, match=r"code 8 at pixel \(2, 1\)"):
            LandCoverRaster(header(dtype="uint8"), vals)
        # nodata is no class code, and is not one of the bad values either
        with pytest.raises(RasterFormatError, match=r"code 8 at pixel \(2, 1\)"):
            LandCoverRaster(header(dtype="uint8", nodata=200), vals)
        vals[1, 2] = 7
        LandCoverRaster(header(dtype="uint8", nodata=200), vals)
        # a file pair holding a bad code fails to load
        good = LandCoverRaster(header(dtype="uint8", nodata=200), vals)
        save_raster(good, tmp_path / "lc")
        (tmp_path / "lc.bin").write_bytes(np.full((3, 4), 9, dtype=np.uint8).tobytes())
        with pytest.raises(RasterFormatError, match=r"code 9 at pixel \(0, 0\)"):
            load_raster(tmp_path / "lc")

    def test_height_like_keeps_grid(self):
        src = make_height(np.zeros((3, 4)), gsd=2.0)
        out = height_like(src.header, np.ones((3, 4)), nodata=-9999.0)
        assert out.header.same_grid(src.header)
        assert out.header.nodata == -9999.0
        assert out.values.dtype == np.float32

    def test_height_like_takes_float32_without_copy(self):
        src = make_height(np.zeros((3, 4)))
        values = np.ones((3, 4), dtype=np.float32)
        assert height_like(src.header, values).values is values
        wide = np.ones((3, 4))
        assert height_like(src.header, wide).values.base is not wide

    def test_row_strips_cover_every_row_once(self):
        for height in (1, STRIP_ROWS - 1, STRIP_ROWS, STRIP_ROWS + 1, 3 * STRIP_ROWS + 7):
            strips = list(row_strips(height))
            assert [s.start for s in strips] == list(range(0, height, STRIP_ROWS))
            assert np.concatenate([np.arange(height)[s] for s in strips]).tolist() == list(range(height))


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


class TestSavePayload:
    @given(
        kind=st.sampled_from(["height", "landcover", "optical", "embedding"]),
        height=st.integers(1, 40),
        width=st.integers(1, 40),
        rows=st.slices(40),
        cols=st.slices(40),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_the_whole_array_form(self, tmp_path_factory, kind, height, width,
                                          rows, cols, seed):
        # saved from views as well as whole arrays: edge tiles are slices
        rng = np.random.default_rng(seed)
        full = {
            "height": lambda: rng.normal(5.0, 3.0, (height, width)).astype(np.float32),
            "landcover": lambda: rng.integers(0, 8, (height, width), dtype=np.uint8),
            "optical": lambda: rng.integers(0, 256, (height, width, 3), dtype=np.uint8),
            "embedding": lambda: rng.normal(size=(height, width, 4)).astype(np.float32),
        }[kind]()
        vals = full[rows, cols]
        if vals.shape[0] == 0 or vals.shape[1] == 0:
            vals = full
        h, w = vals.shape[:2]
        src = {
            "height": lambda: make_height(vals),
            "landcover": lambda: make_landcover(vals),
            "optical": lambda: make_optical(vals),
            "embedding": lambda: EmbeddingGrid(
                header(w=w, h=h, bands=4, dtype="float32", cell_px=8), vals),
        }[kind]()
        assert src.values is vals
        path = tmp_path_factory.mktemp("save") / "r"
        save_raster(src, path)
        want = raster_payload_whole(vals, src.header.bands, src.header.dtype)
        assert path.with_suffix(".bin").read_bytes() == want

    def test_contiguous_raster_is_written_without_a_copy(self, tmp_path):
        src = make_height(np.random.default_rng(0).normal(size=(1024, 1024)))
        tracemalloc.start()
        try:
            save_raster(src, tmp_path / "h")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        payload = src.values.nbytes
        assert peak < 0.1 * payload, f"peak {peak / payload:.2f}x the payload"


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

    def test_nodata_the_dtype_cannot_hold(self, tmp_path):
        self._write(tmp_path, lambda d: d.update(nodata=0.1))
        with pytest.raises(RasterFormatError, match="bad header: nodata 0.1"):
            load_raster(tmp_path / "r")

    @pytest.mark.parametrize(
        "key, value, rule",
        [
            ("width", 4.0, "an integer"),
            ("height", True, "an integer"),
            ("bands", 1.0, "an integer"),
            ("crs_code", "x", "an integer"),
            ("cell_px", 2.5, "an integer"),
            ("gsd", math.inf, "finite"),
            ("origin_x", math.nan, "finite"),
            ("origin_y", -math.inf, "finite"),
        ],
    )
    def test_field_of_the_wrong_kind(self, tmp_path, key, value, rule):
        self._write(tmp_path, lambda d: d.update({key: value}))
        with pytest.raises(RasterFormatError, match=f"bad header: {key} must be {rule}, got"):
            load_raster(tmp_path / "r")

    def test_missing_bin(self, tmp_path):
        src = make_height(np.zeros((3, 4)))
        save_raster(src, tmp_path / "r")
        (tmp_path / "r.bin").unlink()
        with pytest.raises(RasterFormatError):
            load_raster(tmp_path / "r")


def sample_at(raster, x, y):
    """sample_bilinear at one point: the sample, or None where it found none."""
    got, found = sample_bilinear(raster, np.array([x]), np.array([y]))
    return float(got[0]) if found[0] else None


class TestBilinear:
    def test_exact_at_pixel_centers(self):
        vals = np.arange(12, dtype=np.float32).reshape(3, 4)
        r = make_height(vals, gsd=2.0, origin=(100.0, 200.0))
        for col in range(4):
            for row in range(3):
                x, y = pixel_center(r.header, col, row)
                assert sample_at(r, x, y) == pytest.approx(vals[row, col])

    def test_midpoint_interpolation(self):
        vals = np.array([[0.0, 4.0], [8.0, 12.0]], dtype=np.float32)
        r = make_height(vals, gsd=1.0, origin=(0.0, 2.0))
        # center of the 2x2 block: average of all four
        assert sample_at(r, 1.0, 1.0) == pytest.approx(6.0)
        # halfway between the top two centers
        assert sample_at(r, 1.0, 1.5) == pytest.approx(2.0)

    def test_nodata_renormalizes_weights(self):
        vals = np.array([[0.0, -9999.0], [8.0, 12.0]], dtype=np.float32)
        r = make_height(vals, gsd=1.0, origin=(0.0, 2.0), nodata=-9999.0)
        got = sample_at(r, 1.0, 1.0)
        # equal corner weights, one invalid: mean of the remaining three
        assert got == pytest.approx((0.0 + 8.0 + 12.0) / 3.0)

    def test_all_corners_nodata_returns_none(self):
        vals = np.full((2, 2), -9999.0, dtype=np.float32)
        r = make_height(vals, gsd=1.0, origin=(0.0, 2.0), nodata=-9999.0)
        assert sample_at(r, 1.0, 1.0) is None

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("pixels", [[(1, 1)], [(1, 1), (1, 2), (2, 1), (2, 2)]])
    def test_nonfinite_pixels_sample_as_nodata(self, bad, pixels):
        # a non-finite pixel is invalid, as a nodata one is: the samples
        # and found flags equal those with -9999 nodata there, bit for bit
        rng = np.random.default_rng(7)
        vals = rng.normal(10.0, 2.0, (4, 4)).astype(np.float32)
        holed, marked = vals.copy(), vals.copy()
        for row, col in pixels:
            holed[row, col] = bad
            marked[row, col] = -9999.0
        x = np.concatenate([rng.uniform(0.0, 4.0, 300), [1.5, 1.7, 2.0]])
        y = np.concatenate([rng.uniform(0.0, 4.0, 300), [2.5, 2.5, 2.0]])
        got, found = sample_bilinear(make_height(holed, gsd=1.0, origin=(0.0, 4.0)), x, y)
        want, want_found = sample_bilinear(
            make_height(marked, gsd=1.0, origin=(0.0, 4.0), nodata=-9999.0), x, y
        )
        assert found.tolist() == want_found.tolist()
        assert got.tobytes() == want.tobytes()
        assert found[-3:].tolist() == ([False, True, True] if len(pixels) == 1 else [False] * 3)

    def test_clamps_outside_center_band(self):
        vals = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
        r = make_height(vals, gsd=1.0, origin=(0.0, 2.0))
        # above the top row of centers: clamps to the top edge values
        assert sample_at(r, 0.5, 1.99) == pytest.approx(1.0)

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
        assert sample_at(r, x, y) == pytest.approx(float(v), abs=1e-6)

    def test_batched_equals_per_point(self):
        rng = np.random.default_rng(11)
        for shape, nodata in [((5, 6), None), ((5, 6), -9999.0), ((1, 4), -9999.0), ((1, 1), None)]:
            vals = rng.normal(100.0, 10.0, size=shape).astype(np.float32)
            if nodata is not None:
                vals[rng.random(shape) < 0.3] = nodata
            r = make_height(vals, gsd=2.0, origin=(10.0, 20.0), nodata=nodata)
            h, w = shape
            x = np.concatenate([rng.uniform(10.0, 10.0 + 2 * w, 300), [10.0, 10.0 + 2 * w]])
            y = np.concatenate([rng.uniform(20.0 - 2 * h, 20.0, 300), [20.0, 20.0 - 2 * h]])
            got, found = sample_bilinear(r, x, y)
            for i, (a, b) in enumerate(zip(x.tolist(), y.tolist())):
                want = sample_bilinear_direct(r, a, b)
                assert (float(got[i]) if found[i] else None) == want  # bit for bit
        with pytest.raises(GeometryError):
            sample_bilinear(r, np.array([10.5, 9.0]), np.array([19.5, 19.5]))


def window_at(raster, row0, col0, size):
    """The one window of ``window`` at (row0, col0)."""
    return window(raster, np.array([row0]), np.array([col0]), size)[0]


class TestExtractWindow:
    def test_interior_is_plain_slice(self):
        vals = np.arange(100, dtype=np.float32).reshape(10, 10)
        r = make_height(vals)
        win = window_at(r, 2, 5, 4)
        np.testing.assert_array_equal(win, vals[2:6, 5:9])

    def test_edge_replicates(self):
        vals = np.arange(16, dtype=np.float32).reshape(4, 4)
        r = make_height(vals)
        win = window_at(r, -1, -1, 3)
        expected = np.array(
            [[0, 0, 1], [0, 0, 1], [4, 4, 5]],
            dtype=np.float32,
        )
        np.testing.assert_array_equal(win, expected)

    def test_window_larger_than_raster(self):
        vals = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
        r = make_height(vals)
        win = window_at(r, -3, -3, 6)
        assert win.shape == (6, 6)
        assert win[0, 0] == 1.0 and win[-1, -1] == 4.0

    def test_center_outside_raises(self):
        r = make_height(np.zeros((4, 4)))
        for row0, col0 in [(-1, 4), (4, 0), (-3, 0), (0, -3)]:
            with pytest.raises(GeometryError):
                window_at(r, row0, col0, 3)
        window_at(r, -2, 3, 3)  # one corner pixel is enough
        # the message names the first window that misses
        with pytest.raises(GeometryError, match=r"\(4, 0\)"):
            window(r, np.array([0, 4, -3]), np.array([0, 0, 0]), 3)

    def test_returns_copy(self):
        r = make_height(np.zeros((4, 4)))
        win = window_at(r, 0, 0, 2)
        win[0, 0] = 99.0
        assert r.values[0, 0] == 0.0

    @given(
        st.integers(1, 12), st.integers(1, 12), st.integers(1, 20),
        st.sampled_from([None, 3]), st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_stack_equals_per_window_gather(self, height, width, size, bands, seed):
        # origins anywhere a window still covers a raster pixel, past all
        # four edges included
        rng = np.random.default_rng(seed)
        if bands:
            r = make_optical(rng.integers(0, 256, (height, width, bands), dtype=np.uint8))
        else:
            r = make_height(rng.normal(0.0, 1.0, (height, width)))
        row0 = rng.integers(-size + 1, height, 25)
        col0 = rng.integers(-size + 1, width, 25)
        got = window(r, row0, col0, size)
        assert got.shape == (25, size, size) + ((bands,) if bands else ())
        assert got.dtype == r.values.dtype
        for i in range(25):
            want = window_direct(r, int(row0[i]), int(col0[i]), size)
            assert got[i].tobytes() == np.ascontiguousarray(want).tobytes()


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

    @given(st.integers(1, 5), st.integers(1, 20), st.integers(1, 20), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_stack_equals_each_patch_alone(self, k, height, width, seed):
        patches = np.random.default_rng(seed).normal(0.0, 10.0, (k, height, width))
        got = sobel_magnitude(patches)
        assert got.shape == patches.shape
        for i in range(k):
            alone = sobel_magnitude(patches[i])
            assert got[i].tobytes() == alone.tobytes()
            assert alone.tobytes() == sobel_stencil_direct(patches[i]).tobytes()

    def test_rejects_fewer_than_two_axes(self):
        with pytest.raises(ValueError, match="2D"):
            sobel_magnitude(np.zeros(4))


def footprint_at(raster, x, y, diameter):
    """footprint_mean at one point, NaN where it has no mean."""
    return float(footprint_mean(raster, np.array([x]), np.array([y]), diameter)[0])


class TestFootprint:
    def test_checkerboard_near_five(self):
        n = 64
        idx = np.indices((n, n)).sum(axis=0)
        vals = np.where(idx % 2 == 0, 0.0, 10.0).astype(np.float32)
        r = make_height(vals, gsd=0.5, origin=(0.0, 32.0))
        got = footprint_at(r, 16.0, 16.0, 17.0)
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
            got = footprint_at(r, x, y, d)
            if not hits:
                col = min(math.floor((x - h.origin_x) / h.gsd), h.width - 1)
                row = min(math.floor((h.origin_y - y) / h.gsd), h.height - 1)
                assert got == float(vals[row, col])
            else:
                rows, cols = zip(*hits)
                expected = float(np.mean(vals[list(rows), list(cols)].astype(np.float64)))
                assert got == expected

    def test_tiny_disk_falls_back_to_containing_pixel(self):
        vals = np.arange(16, dtype=np.float32).reshape(4, 4)
        r = make_height(vals, gsd=10.0, origin=(0.0, 40.0))
        # 1 m disk at the corner of pixel (1, 1): no center within 0.5 m
        got = footprint_at(r, 12.0, 22.0, 1.0)
        assert got == float(vals[1, 1])

    def test_all_nodata_returns_none(self):
        vals = np.full((8, 8), -9999.0, dtype=np.float32)
        r = make_height(vals, gsd=1.0, origin=(0.0, 8.0), nodata=-9999.0)
        assert math.isnan(footprint_at(r, 4.0, 4.0, 5.0))

    @pytest.mark.parametrize("diameter", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_diameter_rejected(self, diameter):
        r = make_height(np.zeros((4, 4), dtype=np.float32), gsd=1.0, origin=(0.0, 4.0))
        with pytest.raises(ValueError, match="diameter must be finite and > 0"):
            footprint_at(r, 2.0, 2.0, diameter)

    def test_nonfinite_pixels_are_left_out(self):
        rng = np.random.default_rng(12)
        vals = rng.normal(10, 4, size=(16, 16)).astype(np.float32)
        vals[8, 8] = np.nan
        r = make_height(vals, gsd=1.0, origin=(0.0, 16.0))
        hits = footprint_pixels(16, 16, 1.0, 0.0, 16.0, 8.5, 7.5, 5.0)
        assert (8, 8) in hits
        rows, cols = zip(*[hit for hit in hits if hit != (8, 8)])
        expected = float(np.mean(vals[list(rows), list(cols)].astype(np.float64)))
        assert footprint_at(r, 8.5, 7.5, 5.0) == expected
        # a disk too small to hold a pixel center falls back to the NaN pixel
        assert math.isnan(footprint_at(r, 8.9, 7.1, 0.2))


def _assert_footprint_matches_oracle(raster, xs, ys, diameter):
    """footprint_mean equals the loop oracle bit for bit, NaN standing for
    None and for a disk that misses the raster."""
    got = footprint_mean(raster, xs, ys, diameter)
    assert got.dtype == np.float64 and got.shape == xs.shape
    for i, (x, y) in enumerate(zip(xs.tolist(), ys.tolist())):
        try:
            want = footprint_mean_direct(raster, x, y, diameter)
        except ValueError:
            want = None
        if want is None:
            assert np.isnan(got[i])
        else:
            assert got[i] == want


def _footprint_raster(height, width, gsd, seed, nodata):
    """Random raster with nodata (when declared), NaN, +inf and -inf pixels."""
    rng = np.random.default_rng(seed)
    vals = rng.normal(10.0, 4.0, (height, width))
    kind = rng.random((height, width))
    vals[kind < 0.05] = np.nan
    vals[(kind >= 0.05) & (kind < 0.08)] = np.inf
    vals[(kind >= 0.08) & (kind < 0.1)] = -np.inf
    if nodata is not None:
        vals[(kind >= 0.1) & (kind < 0.25)] = nodata
    return make_height(vals, gsd=gsd, origin=(100.0, 50.0 + height * gsd), nodata=nodata)


def _points_around(raster, diameter, n, seed):
    """Points over the raster and up to one diameter past each edge, some
    of them on pixel edges and centers."""
    h = raster.header
    rng = np.random.default_rng(seed)
    xs = h.origin_x + rng.uniform(-diameter, h.width * h.gsd + diameter, n)
    ys = h.origin_y + rng.uniform(-h.height * h.gsd - diameter, diameter, n)
    half_pixels = rng.integers(-2, 2 * max(h.width, h.height) + 2, (2, n // 4))
    xs[: n // 4] = h.origin_x + half_pixels[0] * h.gsd / 2.0
    ys[: n // 4] = h.origin_y - half_pixels[1] * h.gsd / 2.0
    return xs, ys


class TestFootprintArrays:
    @given(
        st.integers(1, 12),
        st.integers(1, 12),
        st.sampled_from([0.5, 0.7, 1.0, 2.0]),
        st.sampled_from([None, -9999.0]),
        st.one_of(st.sampled_from([0.2, 1.0, 3.0, 17.0]), st.floats(0.05, 30.0)),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_loop_oracle(self, height, width, gsd, nodata, diameter, seed):
        raster = _footprint_raster(height, width, gsd, seed, nodata)
        xs, ys = _points_around(raster, diameter, 40, seed)
        _assert_footprint_matches_oracle(raster, xs, ys, diameter)

    @pytest.mark.parametrize("diameter", [1.0, 17.0])
    def test_granule_footprints_match_loop_oracle(self, diameter):
        # at 17 m on a 1 m grid a disk holds about 227 pixels, so numpy's
        # pairwise sum recurses past its 128-element block
        raster = _footprint_raster(48, 40, 1.0, 3, -9999.0)
        xs, ys = _points_around(raster, diameter, 400, 4)
        assert len(footprint_pixels(48, 40, 1.0, 100.0, 98.0, 120.0, 74.0, 17.0)) > 128
        _assert_footprint_matches_oracle(raster, xs, ys, diameter)

    def test_one_pixel_rasters(self):
        for value, nodata in ((3.5, None), (-9999.0, -9999.0), (np.nan, None), (np.inf, None)):
            raster = make_height([[value]], gsd=2.0, origin=(0.0, 2.0), nodata=nodata)
            for diameter in (0.2, 1.0, 17.0):
                xs, ys = _points_around(raster, diameter, 40, 5)
                _assert_footprint_matches_oracle(raster, xs, ys, diameter)

    def test_disk_without_pixel_center_and_missed_raster(self):
        vals = np.arange(16, dtype=np.float32).reshape(4, 4)
        raster = make_height(vals, gsd=10.0, origin=(0.0, 40.0))
        # 0.2 m disks at a pixel corner and wholly off the raster; from a
        # point outside it, an 11 m disk that reaches the raster but no pixel
        # center, and a 19 m disk that reaches one center
        got = footprint_mean(raster, np.array([12.0, 100.0, -5.0]), np.array([22.0, 100.0, 5.0]),
                             0.2)
        assert got[0] == float(vals[1, 1])
        assert np.isnan(got[1:]).all()
        assert np.isnan(footprint_mean(raster, np.array([-5.0]), np.array([5.0]), 11.0))
        assert footprint_mean(raster, np.array([-4.0]), np.array([5.0]), 19.0)[0] == vals[3, 0]

    def test_empty_array(self):
        raster = make_height(np.zeros((4, 4)))
        got = footprint_mean(raster, np.empty(0), np.empty(0), 17.0)
        assert got.shape == (0,) and got.dtype == np.float64


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

    @pytest.mark.parametrize("rounded", [False, True])
    def test_rows_equal_numpy_bit_for_bit(self, rounded):
        # rounding to whole numbers leaves many 0.0 and -0.0 in a row,
        # which sorting and numpy's partition may order differently
        rng = np.random.default_rng(17)
        for _ in range(100):
            values = rng.normal(0.0, 0.7, (3, int(rng.integers(1, 300))))
            if rounded:
                values = np.round(values)
            for q in (0.0, 10.0, 50.0, 90.0, 95.0, 100.0):
                want = np.percentile(values, q, axis=1, method="linear")
                assert percentile(values, q).tobytes() == want.tobytes()
                both = percentile(values, (q, 10.0))
                assert both.shape == (3, 2) and both[:, 0].tobytes() == want.tobytes()
                alone = np.percentile(values[0], q, method="linear")
                assert np.float64(percentile(values[0], q)).tobytes() == alone.tobytes()

    def test_numpy_fallback_only_for_rows_holding_negative_zero(self):
        # order statistics at 0.0 in rows that hold no -0.0 are exact, so
        # np.percentile is not called, not even on an empty selection
        values = np.array([[0.0, 0.0, 1.0, 2.0], [0.0, 3.0, 0.0, 0.0]])
        want = np.percentile(values, (10.0, 50.0), axis=1, method="linear").T
        with mock.patch.object(np, "percentile", wraps=np.percentile) as spy:
            got = percentile(values, (10.0, 50.0))
        assert spy.call_count == 0
        assert got.tobytes() == want.tobytes()
        # a row holding -0.0 at a zero order statistic takes np.percentile,
        # that row alone
        values[1, 2] = -0.0
        want = np.percentile(values, (10.0, 50.0), axis=1, method="linear").T
        with mock.patch.object(np, "percentile", wraps=np.percentile) as spy:
            got = percentile(values, (10.0, 50.0))
        assert [len(call.args[0]) for call in spy.call_args_list] == [1, 1]
        assert got.tobytes() == want.tobytes()

    def test_known_values(self):
        vals = np.array([1.0, 2.0, 3.0, 4.0])
        assert percentile(vals, 0) == 1.0
        assert percentile(vals, 100) == 4.0
        assert percentile(vals, 50) == 2.5
