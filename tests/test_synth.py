import dataclasses
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lidar_anchor.photons import (
    CLASS_GROUND,
    CLASS_TOP_OF_CANOPY,
    PHOTON_DTYPE,
    write_photons_csv,
)
from lidar_anchor.raster import LC_BUILDING, LC_TREE, STRIP_ROWS, HeightRaster
from lidar_anchor.synth import (
    PALETTE,
    CorruptionConfig,
    SceneConfig,
    TrackConfig,
    corrupt_prediction,
    generate_scene,
    simulate_tracks,
)

from conftest import make_height, make_landcover
from oracles import corrupt_prediction_whole, generate_scene_whole, simulate_tracks_concat


def traced_peak(call):
    """Peak bytes ``tracemalloc`` sees while ``call()`` runs, and its result."""
    tracemalloc.start()
    try:
        result = call()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


class TestSceneConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SceneConfig(size=64)
        with pytest.raises(ValueError):
            SceneConfig(building_density=0.95)
        with pytest.raises(ValueError):
            SceneConfig(tree_height_range=(10.0, 4.0))

    @pytest.mark.parametrize("gsd", [0.0, -0.5, math.nan, math.inf])
    def test_gsd_must_be_finite_and_positive(self, gsd):
        with pytest.raises(ValueError, match="gsd"):
            SceneConfig(gsd=gsd)

    @pytest.mark.parametrize("sigma", [-0.1, math.nan, math.inf])
    def test_building_height_sigma_must_be_finite_and_non_negative(self, sigma):
        with pytest.raises(ValueError, match="building_height_sigma_log"):
            SceneConfig(building_height_sigma_log=sigma)
        SceneConfig(building_height_sigma_log=0.0)

    @pytest.mark.parametrize("field, value", [
        ("size", 128.0), ("size", True), ("crs_code", 32654.0), ("seed", 1.5),
    ])
    def test_integer_fields_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            SceneConfig(**{field: value})

    @pytest.mark.parametrize("field", [
        "base_elevation", "terrain_amplitude", "building_height_mu_log",
    ])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_terrain_and_height_knobs_must_be_finite(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            SceneConfig(**{field: value})

    @pytest.mark.parametrize("bounds", [(4.0, math.inf), (math.nan, 18.0), (4.0, math.nan)])
    def test_tree_height_range_must_be_finite(self, bounds):
        with pytest.raises(ValueError, match="tree height range"):
            SceneConfig(tree_height_range=bounds)


class TestTrackConfig:
    @pytest.mark.parametrize("field", ["along_spacing", "cross_spacing"])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    def test_spacings_must_be_finite_and_positive(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be"):
            TrackConfig(**{field: value})

    @pytest.mark.parametrize("sigma", [-1.0, math.nan, math.inf])
    def test_noise_sigma_must_be_finite_and_non_negative(self, sigma):
        with pytest.raises(ValueError, match="noise_sigma"):
            TrackConfig(noise_sigma=sigma)
        TrackConfig(noise_sigma=0.0)

    @pytest.mark.parametrize("field, value", [("n_tracks", 2.5), ("seed", 1.5)])
    def test_integer_fields_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            TrackConfig(**{field: value})

    @pytest.mark.parametrize("azimuth", [math.nan, math.inf])
    def test_track_azimuth_must_be_finite(self, azimuth):
        with pytest.raises(ValueError, match="track_azimuth must be finite"):
            TrackConfig(track_azimuth=azimuth)

    @pytest.mark.parametrize("profile", [
        (-0.1, 0.13, 0.05, 0.32, 0.60), (math.nan, 0.05, 0.05, 0.30, 0.60),
    ])
    def test_conf_profile_entries_must_be_probabilities(self, profile):
        with pytest.raises(ValueError, match="conf_profile"):
            TrackConfig(conf_profile=profile)


class TestCorruptionConfig:
    @pytest.mark.parametrize("field", ["alpha", "beta"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_alpha_and_beta_must_be_finite(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            CorruptionConfig(**{field: value})

    @pytest.mark.parametrize("field", ["noise_sigma", "noise_corr"])
    @pytest.mark.parametrize("value", [-1.0, math.nan, math.inf])
    def test_noise_knobs_must_be_finite_and_non_negative(self, field, value):
        with pytest.raises(ValueError, match=field):
            CorruptionConfig(**{field: value})

    @pytest.mark.parametrize("bias", [
        {8: 1.0}, {-1: 1.0}, {4.0: 1.0}, {4: math.nan}, {4: math.inf},
    ])
    def test_class_bias_is_checked_at_construction(self, bias):
        with pytest.raises(ValueError, match="class_bias"):
            CorruptionConfig(class_bias=bias)
        CorruptionConfig(class_bias={0: -1.0, 7: 2.5})

    def test_seed_must_be_an_integer(self):
        with pytest.raises(ValueError, match="seed must be an integer"):
            CorruptionConfig(seed=1.5)


class TestGenerateScene:
    def test_same_seed_bit_identical(self):
        a = generate_scene(SceneConfig(size=128, seed=9))
        b = generate_scene(SceneConfig(size=128, seed=9))
        for ra, rb in zip(a, b):
            assert ra.header == rb.header
            np.testing.assert_array_equal(ra.values, rb.values)

    def test_rasters_are_pinned(self):
        # SHA-256 of the raw raster bytes, as this generator has always made them
        want = {
            "truth": "5897196573ade44b3b64e04f6615f8f43ecd21e12662616ec042c027d0aab110",
            "optical": "33196737e23e05434d1bc46ca5b736d98fa40f78705114d76a0190a22860a2f3",
            "landcover": "07ca8f103c22d16f6a7161f0874616a2d6b4e8aa55ada997a1e5ee134c6a43e2",
            "dtm": "e5ed301b5a80bdac972aef923edff08f8399e1fd779b04777fb776eebae5e421",
        }
        rasters = generate_scene(SceneConfig(size=256, seed=42))
        got = {
            name: hashlib.sha256(r.values.tobytes()).hexdigest()
            for name, r in zip(("truth", "optical", "landcover", "dtm"), rasters)
        }
        assert got == want

    def test_different_seed_differs(self):
        a = generate_scene(SceneConfig(size=128, seed=1))[0]
        b = generate_scene(SceneConfig(size=128, seed=2))[0]
        assert not np.array_equal(a.values, b.values)

    def test_zero_densities_mean_flat_truth(self):
        truth, _, lc, _ = generate_scene(
            SceneConfig(size=128, building_density=0.0, tree_density=0.0, seed=3)
        )
        np.testing.assert_array_equal(truth.values, 0.0)
        assert not np.isin(lc.values, [LC_TREE, LC_BUILDING]).any()

    def test_densities_are_hit_within_tolerance(self):
        _, _, lc, _ = generate_scene(
            SceneConfig(size=512, building_density=0.3, tree_density=0.2, seed=4)
        )
        building = float(np.mean(lc.values == LC_BUILDING))
        tree = float(np.mean(lc.values == LC_TREE))
        assert abs(building - 0.3) <= 0.1
        assert abs(tree - 0.2) <= 0.1

    def test_scene_invariants(self):
        truth, optical, lc, dtm = generate_scene(SceneConfig(size=128, seed=5))
        assert (truth.values >= 0).all()
        assert np.isfinite(dtm.values).all()
        assert lc.values.max() <= 7
        np.testing.assert_array_equal(optical.values, PALETTE[lc.values])
        assert truth.header.same_grid(lc.header)
        assert truth.header.same_grid(dtm.header)
        # buildings and trees really carry height, other classes do not
        on_object = np.isin(lc.values, [LC_TREE, LC_BUILDING])
        assert (truth.values[~on_object] == 0).all()
        assert truth.values[on_object].min() > 0


    @given(
        size=st.integers(128, 330).filter(lambda n: n % STRIP_ROWS != 0),
        gsd=st.sampled_from([0.3, 0.5, 1.0]),
        building=st.floats(0.0, 0.4),
        tree=st.floats(0.0, 0.3),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=15, deadline=None)
    def test_matches_the_whole_raster_form(self, size, gsd, building, tree, seed):
        cfg = SceneConfig(size=size, gsd=gsd, building_density=building, tree_density=tree,
                          seed=seed)
        truth, optical, lc, dtm = generate_scene(cfg)
        want_truth, want_lc, want_dtm = generate_scene_whole(cfg)
        assert truth.values.tobytes() == want_truth.tobytes()
        assert lc.values.tobytes() == want_lc.tobytes()
        assert dtm.values.tobytes() == want_dtm.tobytes()
        assert optical.values.tobytes() == PALETTE[want_lc].tobytes()

    def test_memory_is_the_rasters_it_returns(self):
        peak, rasters = traced_peak(lambda: generate_scene(SceneConfig(size=1024, seed=3)))
        returned = sum(r.values.nbytes for r in rasters)
        assert peak < 1.6 * returned, f"peak {peak / returned:.2f}x the returned rasters"


class TestSimulateTracks:
    def test_photon_count_per_full_track(self):
        truth, _, lc, dtm = generate_scene(SceneConfig(size=512, seed=6))
        cfg = TrackConfig(n_tracks=1, track_azimuth=0.0, along_spacing=0.7, seed=6)
        photons = simulate_tracks(truth, dtm, lc, cfg)
        # a 256 m scene crossed at 0.7 m spacing: about 366 samples
        assert 363 <= len(photons) <= 368

    def test_zero_noise_zero_terrain_elev_is_exact(self):
        truth, _, lc, _ = generate_scene(SceneConfig(size=128, seed=7))
        flat = make_height(np.zeros((128, 128)), gsd=truth.header.gsd,
                           origin=(truth.header.origin_x, truth.header.origin_y))
        cfg = TrackConfig(n_tracks=3, noise_sigma=0.0, seed=7)
        tracks = simulate_tracks(truth, flat, lc, cfg)
        col, row = truth.header.pixels_of(tracks["x"], tracks["y"])
        np.testing.assert_array_equal(tracks["elev"], truth.values[row, col].astype(np.float64))

    def test_class_split_at_half_meter(self):
        truth, _, lc, dtm = generate_scene(SceneConfig(size=128, seed=8))
        tracks = simulate_tracks(truth, dtm, lc, TrackConfig(n_tracks=3, seed=8))
        col, row = truth.header.pixels_of(tracks["x"], tracks["y"])
        want = np.where(truth.values[row, col] < 0.5, CLASS_GROUND, CLASS_TOP_OF_CANOPY)
        np.testing.assert_array_equal(tracks["atl08_class"], want)

    def test_ids_sequential_and_beams_match_tracks(self):
        truth, _, lc, dtm = generate_scene(SceneConfig(size=128, seed=9))
        photons = simulate_tracks(truth, dtm, lc, TrackConfig(n_tracks=4, seed=9))
        assert [p.id for p in photons] == list(range(len(photons)))
        assert set(p.beam for p in photons) <= set(range(4))

    def test_dropout_halves_population(self):
        truth, _, lc, dtm = generate_scene(SceneConfig(size=256, seed=10))
        base = simulate_tracks(truth, dtm, lc, TrackConfig(n_tracks=4, dropout=0.0, seed=10))
        dropped = simulate_tracks(truth, dtm, lc, TrackConfig(n_tracks=4, dropout=0.5, seed=10))
        n = len(base)
        assert abs(len(dropped) - n / 2) <= 4 * np.sqrt(n)

    def test_confidence_profile_is_respected(self):
        truth, _, lc, dtm = generate_scene(SceneConfig(size=256, seed=11))
        photons = simulate_tracks(truth, dtm, lc, TrackConfig(n_tracks=6, seed=11))
        confs = np.array([p.signal_conf for p in photons])
        high = float(np.mean(confs == 4))
        assert abs(high - 0.60) < 0.06

    def test_determinism(self):
        truth, _, lc, dtm = generate_scene(SceneConfig(size=128, seed=12))
        a = simulate_tracks(truth, dtm, lc, TrackConfig(seed=12))
        b = simulate_tracks(truth, dtm, lc, TrackConfig(seed=12))
        assert a.tolist() == b.tolist()

    def test_no_intersection_raises(self):
        truth, _, lc, dtm = generate_scene(SceneConfig(size=128, seed=13))
        cfg = TrackConfig(n_tracks=2, cross_spacing=1e6, seed=13)
        with pytest.raises(ValueError, match="intersect"):
            simulate_tracks(truth, dtm, lc, cfg)

    def test_photons_csv_is_pinned(self, tmp_path):
        # SHA-256 of photons.csv as simulate_tracks has always written it:
        # the pinned run's 256 px scene, the same scene over a DTM whose
        # left 40 columns are nodata (samples there are dropped), and
        # noise-free tracks at 0.2 m spacing over a 512 px scene
        truth, _, lc, dtm = generate_scene(SceneConfig(size=256, seed=42))
        holed = dtm.values.copy()
        holed[:, :40] = -9999.0
        holed = HeightRaster(dataclasses.replace(dtm.header, nodata=-9999.0), holed)
        dense = generate_scene(SceneConfig(size=512, seed=42))
        cases = [
            ((truth, dtm, lc, TrackConfig(seed=42)), 732,
             "9088c9c2492a73b1405bd66da09bbd3bb98e4e2d1ad9dcadabd45fe16d2c7611"),
            ((truth, holed, lc, TrackConfig(seed=42)), 549,
             "4b45bd5eb608e9d4fb7cc129d81b0333d522b1059dfe03f00a38ddce89e62a1a"),
            ((dense[0], dense[3], dense[2], TrackConfig(along_spacing=0.2, noise_sigma=0.0)), 7682,
             "7851071d9d78d16367d5611ac500bc2840e77efe0113c0d3711bf1392fb46d4c"),
        ]
        for args, count, digest in cases:
            photons = simulate_tracks(*args)
            assert [p.id for p in photons] == list(range(count))
            write_photons_csv(photons, tmp_path / "photons.csv")
            assert hashlib.sha256((tmp_path / "photons.csv").read_bytes()).hexdigest() == digest

    def test_matches_the_per_track_concatenation(self):
        # dropout, a nodata hole under the northern half of the middle
        # track, and outer tracks 80 m off the 128 m scene's centre line
        truth, _, lc, dtm = generate_scene(SceneConfig(size=256, seed=15))
        holed = dtm.values.copy()
        holed[:128, 100:160] = -9999.0
        holed = HeightRaster(dataclasses.replace(dtm.header, nodata=-9999.0), holed)
        cfg = TrackConfig(n_tracks=5, cross_spacing=40.0, dropout=0.3, seed=15)
        got = simulate_tracks(truth, holed, lc, cfg)
        want = simulate_tracks_concat(truth, holed, cfg)
        assert got.dtype == PHOTON_DTYPE
        assert set(got.beam.tolist()) == {1, 2, 3}
        assert np.count_nonzero(got.beam == 2) < 0.75 * np.count_nonzero(got.beam == 1)
        for name in PHOTON_DTYPE.names:
            np.testing.assert_array_equal(got[name], want[name], err_msg=name)

    def test_memory_is_about_the_table_it_returns(self):
        # all 24 tracks, 20 m apart, cross the 512 m scene; per-track
        # tables concatenated at the end peaked at about 2.1x the table
        truth, _, lc, dtm = generate_scene(SceneConfig(size=1024, seed=5))
        cfg = TrackConfig(n_tracks=24, cross_spacing=20.0, seed=5)
        peak, photons = traced_peak(lambda: simulate_tracks(truth, dtm, lc, cfg))
        assert set(photons.beam.tolist()) == set(range(24))
        assert peak <= 1.5 * photons.nbytes, f"peak {peak / photons.nbytes:.2f}x the table"

    def test_grid_mismatch_raises(self):
        truth, _, lc, dtm = generate_scene(SceneConfig(size=128, seed=14))
        other = make_height(np.zeros((64, 64)), gsd=1.0)
        with pytest.raises(ValueError, match="grid"):
            simulate_tracks(truth, other, lc, TrackConfig(seed=14))


class TestCorruptPrediction:
    def test_all_zero_corruption_is_identity(self):
        truth, _, lc, _ = generate_scene(SceneConfig(size=128, seed=15))
        pred = corrupt_prediction(truth, lc, CorruptionConfig(seed=15))
        np.testing.assert_array_equal(pred.values, truth.values)

    def test_constant_beta_shifts_everything(self):
        truth, _, lc, _ = generate_scene(SceneConfig(size=128, seed=16))
        pred = corrupt_prediction(truth, lc, CorruptionConfig(beta=3.0, seed=16))
        np.testing.assert_allclose(
            pred.values - truth.values, 3.0, rtol=0, atol=1e-5
        )

    def test_class_bias_targets_classes(self):
        truth, _, lc, _ = generate_scene(SceneConfig(size=256, seed=17))
        cfg = CorruptionConfig(class_bias={LC_TREE: 5.0, LC_BUILDING: -4.0}, seed=17)
        pred = corrupt_prediction(truth, lc, cfg)
        err = pred.values.astype(np.float64) - truth.values.astype(np.float64)
        on_tree = lc.values == LC_TREE
        on_building = lc.values == LC_BUILDING
        assert np.mean(err[on_tree]) == pytest.approx(5.0, abs=1e-5)
        # building errors are clamped only where truth < 4; tall roofs keep -4
        tall = on_building & (truth.values > 4.0)
        assert np.mean(err[tall]) == pytest.approx(-4.0, abs=1e-5)

    def test_alpha_scales(self):
        truth, _, lc, _ = generate_scene(SceneConfig(size=128, seed=18))
        pred = corrupt_prediction(truth, lc, CorruptionConfig(alpha=1.1, seed=18))
        np.testing.assert_allclose(
            pred.values, (truth.values.astype(np.float64) * 1.1).astype(np.float32),
            rtol=1e-6,
        )

    def test_negative_beta_clamps_at_zero(self):
        truth, _, lc, _ = generate_scene(
            SceneConfig(size=128, building_density=0.0, tree_density=0.0, seed=19)
        )
        pred = corrupt_prediction(truth, lc, CorruptionConfig(beta=-2.0, seed=19))
        np.testing.assert_array_equal(pred.values, 0.0)

    def test_correlated_noise_has_requested_scale(self):
        truth, _, lc, _ = generate_scene(SceneConfig(size=256, seed=20))
        cfg = CorruptionConfig(noise_sigma=1.0, noise_corr=30.0, seed=20)
        pred = corrupt_prediction(truth, lc, cfg)
        err = pred.values.astype(np.float64) - truth.values.astype(np.float64)
        # clamping distorts the low side a little; the bulk must sit near 1
        assert 0.5 <= float(np.std(err)) <= 1.5

    def test_noise_determinism(self):
        truth, _, lc, _ = generate_scene(SceneConfig(size=128, seed=21))
        cfg = CorruptionConfig(noise_sigma=0.5, seed=21)
        a = corrupt_prediction(truth, lc, cfg)
        b = corrupt_prediction(truth, lc, cfg)
        np.testing.assert_array_equal(a.values, b.values)

    @given(
        height=st.integers(1, 200),
        width=st.integers(1, 90),
        alpha=st.floats(0.5, 1.5),
        beta=st.floats(-3.0, 3.0),
        bias=st.dictionaries(st.integers(0, 7), st.floats(-5.0, 5.0), max_size=3),
        noise_sigma=st.sampled_from([0.0, 0.5, 2.0]),
        noise_corr=st.sampled_from([0.0, 3.0, 30.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_the_whole_raster_form(
        self, height, width, alpha, beta, bias, noise_sigma, noise_corr, seed
    ):
        rng = np.random.default_rng(seed)
        truth = make_height(rng.uniform(0.0, 30.0, (height, width)), gsd=0.5)
        lc = make_landcover(rng.integers(0, 8, (height, width)), gsd=0.5)
        cfg = CorruptionConfig(alpha=alpha, beta=beta, class_bias=bias,
                               noise_sigma=noise_sigma, noise_corr=noise_corr, seed=seed)
        pred = corrupt_prediction(truth, lc, cfg)
        want = corrupt_prediction_whole(truth.values, lc.values, 0.5, cfg)
        assert pred.values.tobytes() == want.tobytes()

    def test_memory_without_noise_is_the_output(self):
        rng = np.random.default_rng(0)
        truth = make_height(rng.uniform(0.0, 30.0, (1024, 1024)))
        lc = make_landcover(rng.integers(0, 8, (1024, 1024)))
        cfg = CorruptionConfig(alpha=1.1, beta=0.5, class_bias={4: 5.0, 7: -4.0})
        peak, pred = traced_peak(lambda: corrupt_prediction(truth, lc, cfg))
        out = pred.values.nbytes
        assert peak < 1.5 * out, f"peak {peak / out:.2f}x the output"

    def test_bad_class_code_rejected(self):
        truth, _, lc, _ = generate_scene(SceneConfig(size=128, seed=22))
        with pytest.raises(ValueError, match="class"):
            corrupt_prediction(truth, lc, CorruptionConfig(class_bias={9: 1.0}, seed=22))
