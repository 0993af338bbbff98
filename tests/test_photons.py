import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lidar_anchor.photons import (
    CLASS_CANOPY,
    CLASS_GROUND,
    CLASS_NOISE,
    CLASS_TOP_OF_CANOPY,
    CleanPhoton,
    ClusterParams,
    GroundEstimate,
    NormalizedPhoton,
    Photon,
    PreprocessParams,
    aggregate_cells,
    dbscan_cluster,
    enforce_dtm_consistency,
    filter_confidence,
    interpolate_ground_idw,
    load_photons,
    normalize_heights,
    landcover_plausibility_filter,
    preprocess_photons,
    read_clean_csv,
    write_clean_csv,
    write_photons_csv,
)
from lidar_anchor.raster import GeometryError, LC_BUILDING, LC_ROAD, LC_TREE

from conftest import make_height, make_landcover
from oracles import dbscan_brute, idw_direct


def photon(pid, x, y, elev, conf=4, klass=CLASS_GROUND, beam=0, t=0.0):
    return Photon(pid, x, y, elev, conf, klass, beam, t)


def norm(pid, x, y, h, kind="object", lc=None, beam=0):
    return NormalizedPhoton(pid, x, y, h, kind, beam, lc)


class TestCsv:
    def test_round_trip(self, tmp_path):
        src = [
            photon(0, 1.25, 2.5, 100.125, 4, CLASS_GROUND, 0, 0.1),
            photon(1, 3.0, 4.0, 101.0, 3, CLASS_TOP_OF_CANOPY, 2, 0.2),
        ]
        write_photons_csv(src, tmp_path / "p.csv")
        assert load_photons(tmp_path / "p.csv") == src

    def test_float_precision_survives(self, tmp_path):
        src = [photon(0, 0.1 + 0.2, 1 / 3, math.pi, 4, CLASS_GROUND, 0, 1e-9)]
        write_photons_csv(src, tmp_path / "p.csv")
        back = load_photons(tmp_path / "p.csv")[0]
        assert back.x == src[0].x and back.y == src[0].y and back.elev == src[0].elev

    def test_header_mismatch(self, tmp_path):
        (tmp_path / "p.csv").write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            load_photons(tmp_path / "p.csv")

    def test_malformed_rows_reported_with_numbers(self, tmp_path):
        lines = [
            "id,x,y,elev,signal_conf,atl08_class,beam,t",
            "0,1.0,2.0,3.0,4,1,0,0.0",
            "1,1.0,2.0,3.0,9,1,0,0.0",  # conf out of range
            "2,1.0,2.0,oops,4,1,0,0.0",  # unparsable elev
            "3,1.0,2.0,3.0,4,1,0",  # missing field
            "0,5.0,6.0,7.0,4,1,0,0.0",  # duplicate id
        ]
        (tmp_path / "p.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as err:
            load_photons(tmp_path / "p.csv")
        msg = str(err.value)
        for row in ("row 3", "row 4", "row 5", "row 6"):
            assert row in msg

    def test_clean_round_trip(self, tmp_path):
        src = [
            CleanPhoton(1.5, 2.5, 0.0, "ground", 1, 1),
            CleanPhoton(3.5, 4.5, 12.25, "object", 4, 7),
        ]
        write_clean_csv(src, tmp_path / "c.csv")
        assert read_clean_csv(tmp_path / "c.csv") == src


class TestConfidenceFilter:
    def test_keeps_conf_3_4_and_ground_top(self):
        keep1 = photon(0, 0, 0, 0, 4, CLASS_GROUND)
        keep2 = photon(1, 0, 0, 0, 3, CLASS_TOP_OF_CANOPY)
        drop_conf = photon(2, 0, 0, 0, 2, CLASS_GROUND)
        drop_class = photon(3, 0, 0, 0, 4, CLASS_CANOPY)
        drop_noise = photon(4, 0, 0, 0, 4, CLASS_NOISE)
        got = filter_confidence([keep1, keep2, drop_conf, drop_class, drop_noise])
        assert got == [keep1, keep2]


class TestIdw:
    def test_two_point_hand_example(self):
        # distances 1 and 2 with elevations 10 and 13 at power 2:
        # (10*1 + 13*0.25) / 1.25 = 10.6
        pts = [
            photon(0, 0.0, 1.0, 10.0),
            photon(1, 0.0, 2.0, 13.0),
        ]
        got = interpolate_ground_idw(pts, 0.0, 0.0, beam=0, power=2.0)
        assert got == pytest.approx(10.6, abs=1e-12)

    def test_coincident_photon_short_circuits(self):
        pts = [
            photon(0, 5.0, 5.0, 42.0),
            photon(1, 5.0, 6.0, 99.0),
        ]
        assert interpolate_ground_idw(pts, 5.0, 5.0 + 1e-9, beam=0) == 42.0

    def test_beams_are_isolated(self):
        pts = [
            photon(0, 0.0, 1.0, 10.0, beam=0),
            photon(1, 0.0, 2.0, 99.0, beam=1),
        ]
        assert interpolate_ground_idw(pts, 0.0, 0.0, beam=0) == pytest.approx(10.0)
        assert interpolate_ground_idw(pts, 0.0, 0.0, beam=2) is None

    def test_radius_excludes_far_photons(self):
        pts = [photon(0, 0.0, 200.0, 10.0)]
        assert interpolate_ground_idw(pts, 0.0, 0.0, beam=0, radius=100.0) is None

    def test_k_max_caps_neighbors(self):
        # 3 photons at distance 1 plus one at distance 2; k_max=3 keeps the
        # near ones only (ties by id), so the far elevation never enters
        pts = [
            photon(0, 1.0, 0.0, 10.0),
            photon(1, -1.0, 0.0, 10.0),
            photon(2, 0.0, 1.0, 10.0),
            photon(3, 0.0, 2.0, 99.0),
        ]
        got = interpolate_ground_idw(pts, 0.0, 0.0, beam=0, k_max=3)
        assert got == pytest.approx(10.0)

    def test_canopy_photons_never_contribute(self):
        pts = [
            photon(0, 0.0, 1.0, 10.0, klass=CLASS_GROUND),
            photon(1, 1.0, 0.0, 500.0, klass=CLASS_TOP_OF_CANOPY),
        ]
        assert interpolate_ground_idw(pts, 0.0, 0.0, beam=0) == pytest.approx(10.0)

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(13)
        for trial in range(20):
            n = int(rng.integers(1, 40))
            pts = [
                photon(i, float(rng.uniform(0, 50)), float(rng.uniform(0, 50)),
                       float(rng.normal(100, 5)))
                for i in range(n)
            ]
            qx, qy = float(rng.uniform(0, 50)), float(rng.uniform(0, 50))
            got = interpolate_ground_idw(pts, qx, qy, beam=0, radius=30.0, k_max=8)
            want = idw_direct(
                [(p.id, p.x, p.y, p.elev) for p in pts], qx, qy,
                power=2.0, radius=30.0, k_max=8,
            )
            if want is None:
                assert got is None
            else:
                assert got == pytest.approx(want, abs=1e-9)


class TestDtmConsistency:
    def setup_method(self):
        self.dtm = make_height(np.full((4, 4), 100.0), gsd=10.0)

    def test_idw_within_tau_stands(self):
        est = enforce_dtm_consistency(7, 105.0, self.dtm, 20.0, 20.0, tau=10.0)
        assert est == GroundEstimate(7, 105.0, "idw")

    def test_idw_far_from_dtm_is_overridden(self):
        est = enforce_dtm_consistency(7, 150.0, self.dtm, 20.0, 20.0, tau=10.0)
        assert est.source == "dtm_override"
        assert est.ground_elev == pytest.approx(100.0)

    def test_missing_idw_falls_back(self):
        est = enforce_dtm_consistency(7, None, self.dtm, 20.0, 20.0)
        assert est.source == "dtm_fallback"
        assert est.ground_elev == pytest.approx(100.0)

    def test_no_source_at_all_raises(self):
        holes = make_height(np.full((4, 4), -9999.0), gsd=10.0, nodata=-9999.0)
        with pytest.raises(ValueError, match="no ground source"):
            enforce_dtm_consistency(7, None, holes, 20.0, 20.0)


class TestNormalize:
    def test_ground_is_exactly_zero(self):
        p = photon(0, 0, 0, 123.456, klass=CLASS_GROUND)
        out = normalize_heights([p], {})
        assert out[0].h_ag == 0.0 and out[0].kind == "ground"

    def test_object_height_is_elev_minus_ground(self):
        p = photon(1, 0, 0, 112.5, klass=CLASS_TOP_OF_CANOPY)
        est = {1: GroundEstimate(1, 100.0, "idw")}
        assert normalize_heights([p], est)[0].h_ag == pytest.approx(12.5)

    def test_slightly_negative_clamps_to_zero(self):
        p = photon(1, 0, 0, 98.5, klass=CLASS_TOP_OF_CANOPY)
        est = {1: GroundEstimate(1, 100.0, "idw")}
        out = normalize_heights([p], est)
        assert out[0].h_ag == 0.0

    def test_below_minus_two_is_discarded(self):
        p = photon(1, 0, 0, 97.9, klass=CLASS_TOP_OF_CANOPY)
        est = {1: GroundEstimate(1, 100.0, "idw")}
        assert normalize_heights([p], est) == []

    def test_boundary_minus_two_is_kept(self):
        p = photon(1, 0, 0, 98.0, klass=CLASS_TOP_OF_CANOPY)
        est = {1: GroundEstimate(1, 100.0, "idw")}
        out = normalize_heights([p], est)
        assert out[0].h_ag == 0.0

    def test_missing_estimate_raises(self):
        p = photon(1, 0, 0, 98.0, klass=CLASS_TOP_OF_CANOPY)
        with pytest.raises(KeyError, match="photon 1"):
            normalize_heights([p], {})


class TestPlausibility:
    def setup_method(self):
        codes = np.zeros((4, 4), dtype=np.uint8)
        codes[0, :] = LC_TREE
        codes[1, :] = LC_BUILDING
        codes[2, :] = LC_ROAD
        self.lc = make_landcover(codes, gsd=10.0)  # origin (0, 40): row 0 is y 30..40

    def test_tree_bounds_exclusive_low_inclusive_high(self):
        at_tree = dict(x=5.0, y=35.0)
        keep_hi = norm(0, h=90.0, **at_tree)
        drop_low = norm(1, h=1.0, **at_tree)
        keep_mid = norm(2, h=1.01, **at_tree)
        drop_hi = norm(3, h=90.01, **at_tree)
        got = landcover_plausibility_filter([keep_hi, drop_low, keep_mid, drop_hi], self.lc)
        assert [p.id for p in got] == [0, 2]
        assert all(p.lc_class == LC_TREE for p in got)

    def test_building_bound_is_300(self):
        at_bld = dict(x=5.0, y=25.0)
        got = landcover_plausibility_filter(
            [norm(0, h=299.0, **at_bld), norm(1, h=301.0, **at_bld)], self.lc
        )
        assert [p.id for p in got] == [0]
        assert got[0].lc_class == LC_BUILDING

    def test_object_on_unbounded_class_is_dropped(self):
        got = landcover_plausibility_filter([norm(0, x=5.0, y=15.0, h=5.0)], self.lc)
        assert got == []

    def test_ground_always_passes_and_is_annotated(self):
        got = landcover_plausibility_filter(
            [norm(0, x=5.0, y=15.0, h=0.0, kind="ground")], self.lc
        )
        assert len(got) == 1 and got[0].lc_class == LC_ROAD

    def test_photon_outside_raster_raises(self):
        with pytest.raises(GeometryError):
            landcover_plausibility_filter([norm(0, x=-5.0, y=15.0, h=5.0)], self.lc)

    def test_custom_bounds_override_defaults(self):
        got = landcover_plausibility_filter(
            [norm(0, x=5.0, y=15.0, h=5.0)], self.lc, {LC_ROAD: (1.0, 10.0)}
        )
        assert [p.id for p in got] == [0]


class TestDbscan:
    def test_three_collinear_points_one_cluster(self):
        pts = [norm(i, x=float(i), y=0.0, h=0.0) for i in range(3)]
        clusters, noise = dbscan_cluster(pts, ClusterParams(eps=3.0, min_pts=3))
        assert len(clusters) == 1 and noise == []
        assert [p.id for p in clusters[0]] == [0, 1, 2]

    def test_two_separated_groups(self):
        a = [norm(i, x=float(i) * 0.5, y=0.0, h=0.0) for i in range(3)]
        b = [norm(10 + i, x=100.0 + i * 0.5, y=0.0, h=0.0) for i in range(3)]
        clusters, noise = dbscan_cluster(b + a)
        assert len(clusters) == 2 and noise == []
        # ordered by lowest member id regardless of input order
        assert [p.id for p in clusters[0]] == [0, 1, 2]
        assert [p.id for p in clusters[1]] == [10, 11, 12]

    def test_isolated_point_is_noise(self):
        pts = [norm(i, x=float(i) * 0.5, y=0.0, h=0.0) for i in range(3)]
        pts.append(norm(99, x=500.0, y=0.0, h=0.0))
        clusters, noise = dbscan_cluster(pts)
        assert [p.id for p in noise] == [99]

    def test_border_point_joins_nearest_core(self):
        # two tight cores 8 m apart, a border point 2.5 m from the left core
        left = [norm(i, x=0.0 + 0.1 * i, y=0.0, h=0.0) for i in range(3)]
        right = [norm(10 + i, x=8.0 + 0.1 * i, y=0.0, h=0.0) for i in range(3)]
        border = norm(50, x=2.6, y=0.0, h=0.0)
        clusters, noise = dbscan_cluster(left + right + [border], ClusterParams(eps=3.0, min_pts=3))
        assert noise == []
        assert 50 in [p.id for p in clusters[0]]

    def test_height_axis_separates_stacked_points(self):
        low = [norm(i, x=0.1 * i, y=0.0, h=0.0) for i in range(3)]
        high = [norm(10 + i, x=0.1 * i, y=0.0, h=10.0) for i in range(3)]
        clusters, _ = dbscan_cluster(low + high, ClusterParams(eps=3.0, min_pts=3))
        assert len(clusters) == 2
        # scaling the height axis down merges them
        clusters, _ = dbscan_cluster(
            low + high, ClusterParams(eps=3.0, min_pts=3, height_weight=0.1)
        )
        assert len(clusters) == 1

    def test_matches_brute_force_reachability(self):
        rng = np.random.default_rng(17)
        for trial in range(10):
            n = int(rng.integers(5, 60))
            pts = [
                norm(i, x=float(rng.uniform(0, 30)), y=float(rng.uniform(0, 30)),
                     h=float(rng.uniform(0, 6)))
                for i in range(n)
            ]
            clusters, noise = dbscan_cluster(pts, ClusterParams(eps=3.0, min_pts=3))
            got = [frozenset(p.id for p in c) for c in clusters]
            got_noise = frozenset(p.id for p in noise)
            want, want_noise = dbscan_brute(
                [(p.x, p.y, p.h_ag) for p in pts], eps=3.0, min_pts=3
            )
            assert got == want
            assert got_noise == want_noise

    @given(st.permutations(list(range(24))), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_partition_is_permutation_invariant(self, order, seed):
        rng = np.random.default_rng(seed)
        pts = [
            norm(i, x=float(rng.uniform(0, 20)), y=float(rng.uniform(0, 20)),
                 h=float(rng.uniform(0, 5)))
            for i in range(24)
        ]
        base_clusters, base_noise = dbscan_cluster(pts)
        perm_clusters, perm_noise = dbscan_cluster([pts[i] for i in order])
        assert [[p.id for p in c] for c in base_clusters] == [
            [p.id for p in c] for c in perm_clusters
        ]
        assert [p.id for p in base_noise] == [p.id for p in perm_noise]


class TestAggregate:
    def test_cluster_becomes_centroid(self):
        members = [
            norm(0, x=0.0, y=0.0, h=10.0, lc=LC_TREE),
            norm(1, x=2.0, y=0.0, h=12.0, lc=LC_TREE),
            norm(2, x=1.0, y=3.0, h=14.0, lc=LC_BUILDING),
        ]
        out = aggregate_cells([members], [])
        assert len(out) == 1
        c = out[0]
        assert (c.x, c.y) == (1.0, 1.0)
        assert c.h_ag == pytest.approx(12.0)
        assert c.cluster_size == 3
        assert c.lc_class == LC_TREE  # majority 2 of 3

    def test_majority_tie_prefers_lower_code(self):
        members = [
            norm(0, x=0.0, y=0.0, h=10.0, lc=LC_BUILDING),
            norm(1, x=1.0, y=0.0, h=10.0, lc=LC_TREE),
        ]
        out = aggregate_cells([members], [])
        assert out[0].lc_class == LC_TREE  # tree code 4 < building code 7

    def test_one_survivor_per_cell_largest_wins(self):
        big = [norm(i, x=1.0, y=1.0, h=10.0, lc=LC_TREE) for i in range(3)]
        small = [norm(10 + i, x=8.0, y=8.0, h=5.0, lc=LC_TREE) for i in range(2)]
        out = aggregate_cells([small, big], [], cell=10.0)
        assert len(out) == 1
        assert out[0].cluster_size == 3

    def test_size_tie_prefers_lower_height(self):
        tall = [norm(i, x=1.0, y=1.0, h=20.0, lc=LC_TREE) for i in range(2)]
        low = [norm(10 + i, x=8.0, y=8.0, h=5.0, lc=LC_TREE) for i in range(2)]
        out = aggregate_cells([tall, low], [], cell=10.0)
        assert len(out) == 1
        assert out[0].h_ag == pytest.approx(5.0)

    def test_separate_cells_both_survive(self):
        a = [norm(i, x=1.0, y=1.0, h=10.0, lc=LC_TREE) for i in range(2)]
        b = [norm(10 + i, x=15.0, y=1.0, h=5.0, lc=LC_TREE) for i in range(2)]
        out = aggregate_cells([a, b], [], cell=10.0)
        assert len(out) == 2

    def test_ground_passes_through(self):
        g = norm(0, x=3.0, y=4.0, h=0.0, kind="ground", lc=LC_ROAD)
        out = aggregate_cells([], [g])
        assert len(out) == 1
        assert out[0].kind == "ground"
        assert out[0].h_ag == 0.0
        assert out[0].lc_class == LC_ROAD
        assert out[0].cluster_size == 1

    def test_negative_coordinates_use_floor_cells(self):
        a = [norm(i, x=-1.0, y=1.0, h=5.0, lc=LC_TREE) for i in range(2)]
        b = [norm(10 + i, x=1.0, y=1.0, h=5.0, lc=LC_TREE) for i in range(2)]
        out = aggregate_cells([a, b], [], cell=10.0)
        assert len(out) == 2  # cells (-1, 0) and (0, 0)


class TestPreprocess:
    def test_counts_monotone_and_end_to_end(self, small_scene):
        clean, counts = preprocess_photons(
            small_scene["photons"], small_scene["dtm"], small_scene["lc"]
        )
        assert counts["loaded"] >= counts["confidence"] >= counts["normalized"]
        assert counts["normalized"] >= counts["landcover"] >= counts["clean"]
        assert counts["clean"] == len(clean) > 0

    def test_custom_params_change_outcome(self, small_scene):
        _, strict = preprocess_photons(
            small_scene["photons"],
            small_scene["dtm"],
            small_scene["lc"],
            PreprocessParams(cell=40.0),
        )
        _, loose = preprocess_photons(
            small_scene["photons"], small_scene["dtm"], small_scene["lc"]
        )
        assert strict["clean"] <= loose["clean"]

    def test_extent_is_that_of_both_rasters(self, small_scene):
        tracks, dtm, lc = small_scene["photons"], small_scene["dtm"], small_scene["lc"]
        half = dtm.header.height // 2
        top = lambda r: type(r)(replace(r.header, height=half), r.values[:half])
        clean, counts = preprocess_photons(tracks, dtm, top(lc))
        assert 0 < counts["in_extent"] < counts["confidence"]
        assert (clean, counts) == preprocess_photons(tracks, top(dtm), top(lc))

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 3),  # side of the extent the photon lies past
                st.floats(1e-3, 500.0),  # distance past that edge, m
                st.floats(-500.0, 500.0),  # offset along the edge, m
                st.floats(-100.0, 300.0),  # elevation
                st.sampled_from([CLASS_GROUND, CLASS_TOP_OF_CANOPY]),
                st.integers(0, 5),  # beam
            ),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_out_of_extent_photons_are_dropped(self, small_scene, extra):
        tracks, dtm, lc = small_scene["photons"], small_scene["dtm"], small_scene["lc"]
        h = dtm.header
        west, north = h.origin_x, h.origin_y
        east, south = west + h.width * h.gsd, north - h.height * h.gsd
        next_id = max(p.id for p in tracks) + 1
        outside = []
        for i, (side, past, along, elev, klass, beam) in enumerate(extra):
            x, y = [
                (west - past, north + along),
                (east + past, north + along),
                (west + along, north + past),
                (west + along, south - past),
            ][side]
            outside.append(photon(next_id + i, x, y, elev, 4, klass, beam))
        base, base_counts = preprocess_photons(tracks, dtm, lc)
        clean, counts = preprocess_photons(tracks + outside, dtm, lc)
        assert clean == base
        assert counts["loaded"] == base_counts["loaded"] + len(outside)
        assert counts["in_extent"] == base_counts["in_extent"] <= counts["confidence"]
        stages = list(counts.values())
        assert all(a >= b for a, b in zip(stages, stages[1:]))
