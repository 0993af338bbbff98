import hashlib

import numpy as np
import pytest

from lidar_anchor.photons import CLASS_GROUND, CLASS_TOP_OF_CANOPY
from lidar_anchor.raster import LC_BUILDING, LC_TREE
from lidar_anchor.synth import (
    PALETTE,
    CorruptionConfig,
    SceneConfig,
    TrackConfig,
    corrupt_prediction,
    generate_scene,
    simulate_tracks,
)

from conftest import make_height


class TestSceneConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SceneConfig(size=64)
        with pytest.raises(ValueError):
            SceneConfig(building_density=0.95)
        with pytest.raises(ValueError):
            SceneConfig(tree_height_range=(10.0, 4.0))


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
        for p in simulate_tracks(truth, flat, lc, cfg):
            col, row = truth.header.pixel_of(p.x, p.y)
            assert p.elev == float(truth.values[row, col])

    def test_class_split_at_half_meter(self):
        truth, _, lc, dtm = generate_scene(SceneConfig(size=128, seed=8))
        for p in simulate_tracks(truth, dtm, lc, TrackConfig(n_tracks=3, seed=8)):
            col, row = truth.header.pixel_of(p.x, p.y)
            t = float(truth.values[row, col])
            want = CLASS_GROUND if t < 0.5 else CLASS_TOP_OF_CANOPY
            assert p.atl08_class == want

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
        assert a == b

    def test_no_intersection_raises(self):
        truth, _, lc, dtm = generate_scene(SceneConfig(size=128, seed=13))
        cfg = TrackConfig(n_tracks=2, cross_spacing=1e6, seed=13)
        with pytest.raises(ValueError, match="intersect"):
            simulate_tracks(truth, dtm, lc, cfg)

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

    def test_bad_class_code_rejected(self):
        truth, _, lc, _ = generate_scene(SceneConfig(size=128, seed=22))
        with pytest.raises(ValueError, match="class"):
            corrupt_prediction(truth, lc, CorruptionConfig(class_bias={9: 1.0}, seed=22))
