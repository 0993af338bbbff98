import base64
import dataclasses
import json
import logging
import math
import multiprocessing
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lidar_anchor.features import SCHEMA_HRF, SCHEMA_NRF
from lidar_anchor import forest as forest_module
from lidar_anchor.forest import (
    ForestParams,
    MODEL_FORMAT_VERSION,
    RandomForest,
    RegressionTree,
    SplitMix64,
    _STORED_ARRAYS,
    _build_forked,
    _feature_ranks,
    _grow_trees,
    _left_child,
    _mix,
    _subset_blocks,
    _tree_predict,
    feature_importance,
    forest_shape,
    load_model,
    predict_batch,
    save_model,
    train_forest,
)

from oracles import (
    _route_direct,
    choose_k_direct,
    feature_importance_direct,
    SplitMix64Direct,
    save_model_direct,
    train_forest_direct,
)

# the five node arrays a tree holds in memory
TREE_ARRAYS = [field.name for field in dataclasses.fields(RegressionTree)]


def reference_splitmix(seed, count):
    """Straight-line restatement of the documented recurrence."""
    mask = (1 << 64) - 1
    out = []
    for i in range(1, count + 1):
        z = (seed + i * 0x9E3779B97F4A7C15) & mask
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & mask
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB & mask
        z = z ^ (z >> 31)
        out.append(z)
    return out


def make_samples(n=200, d=5, seed=0, target=None):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 10, size=(n, d))
    if target is None:
        y = X[:, 0] * 2.0 + np.sin(X[:, 1])
    else:
        y = target(X)
    return X, y


def subsets(rng, m, d, k):
    """m successive k-of-d subsets of one stream."""
    return _subset_blocks([rng], [m], d, k)


class TestSplitMix64:
    def test_matches_documented_recurrence(self):
        for seed in (0, 42, 2**63 + 17, (1 << 64) - 1):
            got = _mix(np.uint64(seed), np.arange(1, 201, dtype=np.uint64))
            assert [int(v) for v in got] == reference_splitmix(seed, 200)

    def test_block_equals_scalar_stream(self):
        a = SplitMix64Direct(42)
        scalar = [a.next_u64() for _ in range(100)]
        block = _mix(np.uint64(42), np.arange(1, 101, dtype=np.uint64))
        assert scalar == [int(v) for v in block]

    def test_interleaved_block_and_scalar_stay_in_step(self):
        a = SplitMix64(7)
        b = SplitMix64(7)
        got = np.concatenate([a.index_block(3, 50), a.index_block(5, 50), a.index_block(1, 50)])
        np.testing.assert_array_equal(got, b.index_block(9, 50))
        assert a.counter == b.counter == 9

    def test_float_range_and_precision(self):
        # a bound of 2**53 scales each float back to its 53 bits exactly
        vals = SplitMix64(1).index_block(1000, 2**53)
        assert [int(v) for v in vals] == [raw >> 11 for raw in reference_splitmix(1, 1000)]
        assert ((0 <= vals) & (vals < 2**53)).all()
        assert len(set(vals.tolist())) > 990

    def test_randint_bounds(self):
        rng = SplitMix64(2)
        vals = rng.index_block(500, 7).tolist()
        assert set(vals) <= set(range(7))
        assert len(set(vals)) == 7

    def test_index_block_matches_randint(self):
        a = SplitMix64(3)
        b = SplitMix64Direct(3)
        block = a.index_block(64, 10)
        scalar = [b.randint(10) for _ in range(64)]
        assert [int(v) for v in block] == scalar

    def test_choose_k_is_sorted_distinct_subset(self):
        for got in subsets(SplitMix64(4), 100, 27, 9):
            assert list(got) == sorted(set(int(v) for v in got))
            assert all(0 <= v < 27 for v in got)
            assert got.size == 9

    def test_choose_all_returns_full_range(self):
        assert sorted(int(v) for v in subsets(SplitMix64(5), 1, 6, 6)[0]) == list(range(6))

    def test_choose_k_matches_loop(self):
        a = SplitMix64(11)
        b = SplitMix64Direct(11)
        for d, k in ((27, 9), (5, 5), (1, 1), (8, 3)):
            for got in subsets(a, 20, d, k):
                np.testing.assert_array_equal(got, choose_k_direct(b, d, k))

    def test_subset_block_rows_are_successive_draws(self):
        a = SplitMix64(12)
        b = SplitMix64(12)
        block = subsets(a, 40, 10, 4)
        for row in block:
            np.testing.assert_array_equal(row, subsets(b, 1, 10, 4)[0])
        assert a.counter == b.counter == 160

    def test_subset_blocks_draw_each_stream_in_turn(self):
        counts = [3, 0, 5, 1]
        seeds = (7, 8, 2**64 - 1, 0)
        streams = [SplitMix64(seed) for seed in seeds]
        alone = [SplitMix64Direct(seed) for seed in seeds]
        for rng in streams:  # streams already part-way through
            rng.index_block(11, 4)
        for rng in alone:
            for _ in range(11):
                rng.randint(4)
        want = [choose_k_direct(rng, 9, 3) for rng, c in zip(alone, counts) for _ in range(c)]
        np.testing.assert_array_equal(_subset_blocks(streams, np.array(counts), 9, 3), want)
        assert [rng.counter for rng in streams] == [rng.counter for rng in alone]

    def test_validation(self):
        rng = SplitMix64(0)
        with pytest.raises(ValueError):
            rng.index_block(1, 0)
        for k in (0, 4):
            with pytest.raises(ValueError, match=f"cannot choose {k} of 3"):
                subsets(rng, 1, 3, k)


class TestForestParams:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ForestParams(n_trees=0)
        with pytest.raises(ValueError):
            ForestParams(max_depth=0)
        with pytest.raises(ValueError):
            ForestParams(min_samples_leaf=0)
        with pytest.raises(ValueError):
            ForestParams(max_features=0)

    @pytest.mark.parametrize(
        "key, value",
        [("n_trees", True), ("n_trees", 2.0), ("max_depth", 3.5), ("min_samples_leaf", 2.5),
         ("max_features", True), ("seed", 1.5), ("seed", None)],
    )
    def test_rejects_values_that_are_not_integers(self, key, value):
        with pytest.raises(ValueError, match=f"{key} must be an integer"):
            ForestParams(**{key: value})


class TestTraining:
    def test_training_is_deterministic(self, tmp_path):
        X, y = make_samples()
        params = ForestParams(n_trees=10, seed=99)
        save_model(train_forest(X, y, SCHEMA_NRF, params), tmp_path / "a.json")
        save_model(train_forest(X, y, SCHEMA_NRF, params), tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_thread_count_changes_nothing(self, tmp_path):
        X, y = make_samples()
        params = ForestParams(n_trees=12, seed=5)
        save_model(train_forest(X, y, SCHEMA_NRF, params, threads=1), tmp_path / "t1.json")
        save_model(train_forest(X, y, SCHEMA_NRF, params, threads=4), tmp_path / "t4.json")
        assert (tmp_path / "t1.json").read_bytes() == (tmp_path / "t4.json").read_bytes()

    def test_serial_where_fork_is_unavailable(self, tmp_path, monkeypatch):
        import lidar_anchor.forest as forest_module

        X, y = make_samples(n=60)
        params = ForestParams(n_trees=3, seed=5)
        save_model(train_forest(X, y, SCHEMA_NRF, params, threads=1), tmp_path / "t1.json")

        def no_pool(method):
            raise AssertionError(f"no {method} pool expected")

        monkeypatch.setattr(forest_module.multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        monkeypatch.setattr(forest_module.multiprocessing, "get_context", no_pool)
        save_model(train_forest(X, y, SCHEMA_NRF, params, threads=2), tmp_path / "t2.json")
        assert (tmp_path / "t1.json").read_bytes() == (tmp_path / "t2.json").read_bytes()

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork"
    )
    def test_workers_capped_by_trees_and_cpus(self, monkeypatch):
        def pids(items):
            return [os.getpid()] * len(items)

        # min(threads, items, CPUs) processes, the calling one only when
        # that is 1
        for threads, items, cpus, want in ((5, 3, 8, 3), (5, 3, 2, 2), (2, 1, 8, 1), (1, 4, 8, 1)):
            monkeypatch.setattr(forest_module.os, "cpu_count", lambda: cpus)
            got = set(_build_forked(pids, list(range(items)), threads))
            assert len(got) == want
            assert (os.getpid() in got) == (want == 1)

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork"
    )
    def test_forked_build_keeps_tree_order_and_reports_a_dead_worker(self, monkeypatch):
        monkeypatch.setattr(forest_module.os, "cpu_count", lambda: 2)

        def share(items):
            return [("item", i, items) for i in items]

        # worker 0 builds items 10, 12 and 14 in one call, worker 1 items 11
        # and 13
        assert list(_build_forked(share, list(range(10, 15)), 2)) == [
            ("item", i, [10, 12, 14] if i % 2 == 0 else [11, 13]) for i in range(10, 15)
        ]

        def build(items):
            if 1 in items:
                os._exit(3)
            return items

        with pytest.raises(RuntimeError, match="worker 1"):
            _build_forked(build, list(range(4)), 2)

    def test_ranks_order_like_values(self):
        X = np.array([[0.5, 2.0], [-1.0, 2.0], [0.5, -0.0], [3.0, 0.0]])
        ranks = _feature_ranks(X)
        assert ranks.dtype == np.uint16
        np.testing.assert_array_equal(ranks, [[1, 0, 1, 2], [1, 1, 0, 0]])
        wide = _feature_ranks(np.arange(70000.0)[::-1, None])
        assert wide.dtype == np.int64
        np.testing.assert_array_equal(wide[0], np.arange(70000)[::-1])

    def test_wide_ranks_grow_the_same_tree(self):
        X, y = make_samples(n=300, d=6, seed=3)
        X = np.round(X)  # ties
        ranks = _feature_ranks(X)
        params = ForestParams(n_trees=1, min_samples_leaf=1, seed=4)
        trees = []
        for r in (ranks, ranks.astype(np.int64)):
            rng = SplitMix64(4)
            boot = rng.index_block(300, 300)
            trees += _grow_trees(X, r, y, [boot], [rng], params, 2)
        for name in TREE_ARRAYS:
            np.testing.assert_array_equal(getattr(trees[0], name), getattr(trees[1], name))

    def test_fully_grown_tree_zero_error_on_its_bootstrap(self):
        X, y = make_samples(n=120, d=4, seed=1)
        params = ForestParams(n_trees=1, min_samples_leaf=1, max_features=4, seed=31)
        forest = train_forest(X, y, SCHEMA_NRF, params)
        # the tree's training set is its bootstrap draw; rebuild it from the
        # documented per-tree stream (seed XOR tree index, bootstrap first)
        boot = SplitMix64(31 ^ 0).index_block(len(y), len(y))
        preds = predict_batch(forest, X[boot])
        np.testing.assert_array_equal(preds, y[boot])

    def test_feature_zero_driver_is_learned_and_attributed(self):
        def target(X):
            return X[:, 0].copy()

        X, y = make_samples(n=1200, d=5, seed=2, target=target)
        params = ForestParams(n_trees=40, min_samples_leaf=1, max_features=5, seed=8)
        forest = train_forest(X, y, SCHEMA_NRF, params)

        rng = np.random.default_rng(3)
        X_test = rng.uniform(0, 10, size=(300, 5))
        preds = predict_batch(forest, X_test)
        mae = float(np.mean(np.abs(preds - X_test[:, 0])))
        assert mae < 0.05 * float(np.std(y))

        importance = feature_importance(forest)
        assert importance[0] > 0.9
        assert importance.sum() == pytest.approx(1.0)

    def test_min_samples_leaf_is_respected(self):
        X, y = make_samples(n=150)
        params = ForestParams(n_trees=5, min_samples_leaf=7, seed=1)
        forest = train_forest(X, y, SCHEMA_NRF, params)
        for tree in forest.trees:
            leaves = tree.feature == -1
            assert (tree.n[leaves] >= 7).all()

    def test_max_depth_one_gives_stumps(self):
        X, y = make_samples(n=150)
        forest = train_forest(X, y, SCHEMA_NRF, ForestParams(n_trees=5, max_depth=1, seed=1))
        for tree in forest.trees:
            assert tree.n_nodes() <= 3
            if tree.n_nodes() == 3:
                assert tree.feature[0] >= 0
                assert (tree.feature[1:] == -1).all()

    def test_constant_target_gives_single_leaves(self):
        X, y = make_samples(target=lambda X: np.full(len(X), 3.25))
        forest = train_forest(X, y, SCHEMA_NRF, ForestParams(n_trees=4, seed=0))
        assert all(t.n_nodes() == 1 for t in forest.trees)
        assert predict_batch(forest, np.zeros((1, 5)))[0] == 3.25

    def test_uniform_importance_when_no_splits(self, caplog):
        X, y = make_samples(d=4, target=lambda X: np.zeros(len(X)))
        forest = train_forest(X, y, SCHEMA_NRF, ForestParams(n_trees=3, seed=0))
        with caplog.at_level(logging.WARNING):
            importance = feature_importance(forest)
        np.testing.assert_allclose(importance, 0.25)
        assert any("importance" in r.message for r in caplog.records)

    def test_oob_mae_matches_reconstruction(self):
        X, y = make_samples(n=80, d=3, seed=4)
        params = ForestParams(n_trees=6, seed=17)
        forest = train_forest(X, y, SCHEMA_NRF, params)

        n = len(y)
        sums = np.zeros(n)
        hits = np.zeros(n, dtype=int)
        for t, tree in enumerate(forest.trees):
            boot = SplitMix64(17 ^ t).index_block(n, n)
            oob = np.bincount(boot, minlength=n) == 0
            rows = np.nonzero(oob)[0]
            sums[rows] += _tree_predict(tree, X[rows])
            hits[rows] += 1
        covered = hits > 0
        want = float(np.mean(np.abs(sums[covered] / hits[covered] - y[covered])))
        assert forest.oob_mae == want

    def test_predict_agrees_with_batch(self):
        X, y = make_samples(n=60)
        forest = train_forest(X, y, SCHEMA_NRF, ForestParams(n_trees=7, seed=2))
        batch = predict_batch(forest, X[:5])
        # a row's prediction does not depend on the other rows of the batch
        for i in range(5):
            assert predict_batch(forest, X[i : i + 1])[0] == batch[i]

    def test_schema_and_shape_are_enforced(self):
        X, y = make_samples(n=40, d=27)
        forest = train_forest(X, y, SCHEMA_NRF, ForestParams(n_trees=2, seed=2))
        with pytest.raises(ValueError, match="schema"):
            train_forest(X, y, SCHEMA_HRF + "x", ForestParams(n_trees=2, seed=2))
        with pytest.raises(ValueError):
            predict_batch(forest, X[:, :3])
        with pytest.raises(ValueError):
            predict_batch(forest, np.full((2, 27), np.nan))

    def test_training_rejects_nonfinite_targets(self):
        with pytest.raises(ValueError):
            train_forest(np.zeros((1, 3)), [math.nan], SCHEMA_NRF, ForestParams(n_trees=1))


def test_tree_fields_are_the_stored_arrays():
    assert TREE_ARRAYS == [name for name, _ in _STORED_ARRAYS]


class TestRouting:
    def hand_tree(self):
        return RegressionTree(
            feature=np.array([0, -1, -1], dtype=np.int32),
            threshold=np.array([1.5, 0.0, 0.0]),
            value=np.array([15.0, 10.0, 20.0]),
            n=np.array([4, 2, 2], dtype=np.int64),
            impurity=np.array([25.0, 0.0, 0.0]),
        )

    def test_equal_to_threshold_goes_left(self):
        forest = RandomForest(
            params=ForestParams(n_trees=1),
            schema_id=SCHEMA_NRF,
            n_features=1,
            trees=[self.hand_tree()],
            oob_mae=None,
        )
        X = np.array([[1.5], [np.nextafter(1.5, 2.0)], [0.0], [99.0]])
        np.testing.assert_array_equal(predict_batch(forest, X), [10.0, 20.0, 10.0, 20.0])


@st.composite
def forest_problems(draw):
    """Small training sets with tied columns, duplicated rows, tied targets
    (-0.0 among them) at scales up to 1e6, and depth limits."""
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    for c in range(d):
        if draw(st.booleans()):
            X[:, c] = rng.integers(0, draw(st.integers(1, 4)), size=n)
    y = draw(st.sampled_from([rng.normal, rng.standard_cauchy, rng.random]))(size=n)
    y = np.round(y * draw(st.sampled_from([1.0, 2.0, 1e6])))
    if draw(st.booleans()):
        y = y / 3.0
    dup = draw(st.integers(0, n // 2))
    if dup:
        X[:dup] = X[n - dup :]
        y[:dup] = y[n - dup :]
    params = ForestParams(
        n_trees=draw(st.integers(1, 4)),
        max_depth=draw(st.sampled_from([None, 1, 4])),
        min_samples_leaf=draw(st.sampled_from([1, 2, 5])),
        max_features=draw(st.integers(1, d)),
        seed=draw(st.integers(0, 2**64 - 1)),
    )
    return X, y, params


class TestSerialization:
    @given(forest_problems())
    @settings(max_examples=40, deadline=None)
    def test_round_trip_is_bitwise(self, tmp_path_factory, problem):
        X, y, params = problem
        tmp = tmp_path_factory.mktemp("round_trip")
        forest = train_forest(X, y, SCHEMA_NRF, params)
        save_model(forest, tmp / "m.json")
        loaded = load_model(tmp / "m.json")
        save_model(loaded, tmp / "m2.json")
        assert (tmp / "m.json").read_bytes() == (tmp / "m2.json").read_bytes()
        np.testing.assert_array_equal(predict_batch(loaded, X), predict_batch(forest, X))
        assert loaded.params == forest.params
        assert loaded.oob_mae == forest.oob_mae

    def _doc(self, tmp_path):
        # the header line's object, with the tree lines' arrays as "trees"
        X, y = make_samples(n=40)
        forest = train_forest(X, y, SCHEMA_NRF, ForestParams(n_trees=2, seed=1))
        save_model(forest, tmp_path / "m.json")
        header, *trees = map(json.loads, (tmp_path / "m.json").read_text().splitlines())
        dtypes = dict(_STORED_ARRAYS)
        trees = [
            {
                name: np.frombuffer(
                    base64.b64decode(text), dtype=np.dtype(dtypes[name]).newbyteorder("<")
                ).astype(dtypes[name])
                for name, text in tree.items()
            }
            for tree in trees
        ]
        return {**header, "trees": trees}

    def _write(self, path, doc):
        # arrays are written as the base64 of their little-endian bytes at
        # their stored dtype, anything else as it is
        dtypes = dict(_STORED_ARRAYS)

        def stored(name, value):
            if not isinstance(value, np.ndarray):
                return value
            le = np.dtype(dtypes.get(name, value.dtype)).newbyteorder("<")
            return base64.b64encode(value.astype(le).tobytes()).decode("ascii")

        header = {key: value for key, value in doc.items() if key != "trees"}
        lines = [json.dumps(header)] + [
            json.dumps({name: stored(name, value) for name, value in tree.items()})
            for tree in doc["trees"]
        ]
        path.write_text("".join(line + "\n" for line in lines))
        return path

    def _expect_error(self, tmp_path, doc, pattern):
        with pytest.raises(ValueError, match=pattern):
            load_model(self._write(tmp_path / "bad.json", doc))

    def test_tree_lines_hold_base64_of_five_little_endian_arrays(self, tmp_path):
        X, y = make_samples(n=40)
        forest = train_forest(X, y, SCHEMA_NRF, ForestParams(n_trees=2, seed=1))
        save_model(forest, tmp_path / "m.json")
        header, *lines = (tmp_path / "m.json").read_text().splitlines()
        assert json.loads(header)["format_version"] == 4
        for tree, line in zip(forest.trees, lines):
            doc = json.loads(line)
            assert line == json.dumps(doc, sort_keys=True)
            assert sorted(doc) == ["feature", "impurity", "n", "threshold", "value"]
            for name, code in (("feature", "<i4"), ("threshold", "<f8"), ("value", "<f8"),
                               ("impurity", "<f8"), ("n", "<i8")):
                assert doc[name] == base64.b64encode(
                    getattr(tree, name).astype(code).tobytes()
                ).decode("ascii")

    def test_rejects_future_version(self, tmp_path):
        doc = self._doc(tmp_path)
        doc["format_version"] = MODEL_FORMAT_VERSION + 1
        self._expect_error(tmp_path, doc, "version")

    def test_rejects_unknown_schema(self, tmp_path):
        doc = self._doc(tmp_path)
        doc["schema_id"] = "mystery"
        self._expect_error(tmp_path, doc, "schema")

    def test_rejects_dangling_children(self, tmp_path):
        # a last leaf made internal: its children would lie past the end
        doc = self._doc(tmp_path)
        doc["trees"][0]["feature"][-1] = 0
        self._expect_error(tmp_path, doc, "tree 0 has .* child links would dangle")

    @pytest.mark.parametrize(
        "feature",
        [[0, -1, -1, 0, -1], [-1, 0, -1], [0, -1, -1, -1, 0], [0, -1, -1, -1, -1, 0, 0]],
        ids=["self-loop", "leaf-root", "child-before-parent", "children-before-parents"],
    )
    def test_rejects_child_links_that_do_not_point_forward(self, tmp_path, feature):
        # 2k + 1 nodes for k internal ones, but internal node j lies at or
        # after node 2j + 1, its left child
        doc = self._doc(tmp_path)
        size = len(feature)
        doc["trees"][1] = {name: np.resize(arr, size) for name, arr in doc["trees"][1].items()}
        doc["trees"][1]["feature"] = np.array(feature, dtype=np.int32)
        self._expect_error(tmp_path, doc, "tree 1 has child links that do not point forward")

    def test_loaded_links_are_the_breadth_first_children(self, tmp_path):
        # the j-th internal node's children are nodes 2j + 1 and 2j + 2
        doc = self._doc(tmp_path)
        doc["trees"][1] = {name: np.resize(arr, 7) for name, arr in doc["trees"][1].items()}
        doc["trees"][1]["feature"] = np.array([0, -1, 0, 0, -1, -1, -1], dtype=np.int32)
        forest = load_model(self._write(tmp_path / "seven.json", doc))
        internal = forest.trees[1].feature >= 0
        np.testing.assert_array_equal(_left_child(forest.trees[1].feature)[internal], [1, 3, 5])

    @pytest.mark.parametrize(
        "key, value",
        [("n_trees", True), ("seed", 1.5), ("min_samples_leaf", 2.5), ("max_features", True)],
    )
    def test_rejects_params_that_are_not_integers(self, tmp_path, key, value):
        doc = self._doc(tmp_path)
        doc["params"][key] = value
        self._expect_error(tmp_path, doc, f"bad params block: {key} must be an integer")

    @pytest.mark.parametrize("value", [True, 2.0, "2"])
    def test_rejects_n_features_that_is_not_an_integer(self, tmp_path, value):
        doc = self._doc(tmp_path)
        doc["n_features"] = value
        self._expect_error(tmp_path, doc, "bad n_features")

    def test_rejects_tree_count_other_than_params(self, tmp_path):
        doc = self._doc(tmp_path)
        doc["params"]["n_trees"] = 3
        self._expect_error(tmp_path, doc, "2 trees but params.n_trees is 3")
        doc["trees"] = doc["trees"][:1]
        doc["params"]["n_trees"] = 2
        self._expect_error(tmp_path, doc, "1 trees but params.n_trees is 2")

    @pytest.mark.parametrize("bad", ["seven", [1, 2], 2**40])
    def test_rejects_malformed_tree_arrays(self, tmp_path, bad):
        # a base64 string of bad padding, a JSON list and a number
        doc = self._doc(tmp_path)
        doc["trees"][1]["feature"] = bad
        self._expect_error(tmp_path, doc, "tree 1 is malformed")

    @pytest.mark.parametrize(
        "bad", ["AAAA!AAA", "AAAA AAA", "AAAA\nAAA", "AAA", "AAAAé"],
        ids=["symbol", "space", "newline", "short", "not-ascii"],
    )
    def test_rejects_strings_that_are_not_base64(self, tmp_path, bad):
        doc = self._doc(tmp_path)
        doc["trees"][1]["value"] = bad
        self._expect_error(tmp_path, doc, "tree 1 is malformed")

    @pytest.mark.parametrize("name, size", [("feature", 6), ("threshold", 12), ("n", 4)])
    def test_rejects_byte_counts_of_part_items(self, tmp_path, name, size):
        doc = self._doc(tmp_path)
        doc["trees"][0][name] = base64.b64encode(bytes(size)).decode("ascii")
        self._expect_error(tmp_path, doc, "tree 0 is malformed: .*multiple")

    def test_rejects_missing_and_extra_keys(self, tmp_path):
        doc = self._doc(tmp_path)
        del doc["trees"][1]["impurity"]
        self._expect_error(tmp_path, doc, "tree 1 is malformed: keys")
        doc = self._doc(tmp_path)
        # a version-3 link array under a version-4 header
        doc["trees"][1]["left"] = np.zeros_like(doc["trees"][1]["feature"])
        self._expect_error(tmp_path, doc, "tree 1 is malformed: keys")

    def test_rejects_a_tree_line_that_is_not_an_object(self, tmp_path):
        doc = self._doc(tmp_path)
        header = {key: value for key, value in doc.items() if key != "trees"}
        (tmp_path / "bad.json").write_text(json.dumps(header) + "\n" + "[1, 2]\n" * 2)
        with pytest.raises(ValueError, match="tree 0 is malformed: not a JSON object"):
            load_model(tmp_path / "bad.json")

    @pytest.mark.parametrize("name", ["threshold", "value", "impurity"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_node_numbers(self, tmp_path, name, bad):
        doc = self._doc(tmp_path)
        doc["trees"][1][name] = np.full_like(doc["trees"][1][name], bad)
        self._expect_error(tmp_path, doc, f"tree 1 has non-finite {name} entries")

    def test_rejects_nested_tree_arrays(self, tmp_path):
        # JSON lists where base64 strings belong
        doc = self._doc(tmp_path)
        doc["trees"][1]["threshold"] = [[v] for v in doc["trees"][1]["threshold"].tolist()]
        self._expect_error(tmp_path, doc, "tree 1 is malformed")

    def test_rejects_a_document_that_is_not_an_object(self, tmp_path):
        (tmp_path / "bad.json").write_text("[1, 2]")
        with pytest.raises(ValueError, match="malformed"):
            load_model(tmp_path / "bad.json")

    def test_load_peak_memory_is_near_the_file_size(self, tmp_path):
        # Each tree line becomes arrays before the next is read, so the
        # loader holds the arrays and one tree's text and bytes: well under
        # twice the file, against about 3.5 times when every tree's lists
        # are built before any array.
        X, y = make_samples(n=600, d=4, seed=3)
        forest = train_forest(
            X, y, SCHEMA_NRF, ForestParams(n_trees=14, min_samples_leaf=1, seed=2)
        )
        save_model(forest, tmp_path / "m.json")
        size = (tmp_path / "m.json").stat().st_size
        assert 400_000 < size < 600_000
        tracemalloc.start()
        try:
            load_model(tmp_path / "m.json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * size, f"load_model peaked at {peak / size:.2f}x the file size"

    def test_load_peak_memory_is_near_the_arrays(self, tmp_path):
        # The file is read a line at a time and each tree becomes arrays as
        # soon as its line is decoded, so beyond the arrays the loader holds
        # one tree's text and bytes: under half the arrays again for a model
        # of several MB, against about twice the arrays again when the whole
        # text was read at once.
        save_model(chain_forest(150, 751, 27, seed=4), tmp_path / "m.json")
        assert (tmp_path / "m.json").stat().st_size > 5_000_000
        tracemalloc.start()
        try:
            loaded = load_model(tmp_path / "m.json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        arrays = sum(getattr(t, name).nbytes for t in loaded.trees for name in TREE_ARRAYS)
        assert arrays > 3_000_000
        assert peak < 1.5 * arrays, f"load_model peaked at {peak / arrays:.2f}x its arrays"

    def test_rejects_inconsistent_arrays(self, tmp_path):
        doc = self._doc(tmp_path)
        doc["trees"][0]["value"] = doc["trees"][0]["value"][:-1]
        self._expect_error(tmp_path, doc, "tree 0 node arrays are inconsistent")

    def test_rejects_empty_arrays(self, tmp_path):
        doc = self._doc(tmp_path)
        doc["trees"][0] = {name: arr[:0] for name, arr in doc["trees"][0].items()}
        self._expect_error(tmp_path, doc, "tree 0 node arrays are inconsistent")

    def test_rejects_feature_out_of_range(self, tmp_path):
        doc = self._doc(tmp_path)
        doc["n_features"] = 2
        self._expect_error(tmp_path, doc, "feature|range")
        doc = self._doc(tmp_path)
        doc["trees"][1]["feature"][doc["trees"][1]["feature"] < 0] = -2
        self._expect_error(tmp_path, doc, "tree 1 references feature out of range")

    def test_rejects_empty_trees(self, tmp_path):
        doc = self._doc(tmp_path)
        doc["trees"] = []
        self._expect_error(tmp_path, doc, "trees")

    def test_rejects_garbage_json(self, tmp_path):
        (tmp_path / "bad.json").write_text("{nope")
        with pytest.raises(ValueError, match="malformed"):
            load_model(tmp_path / "bad.json")


def chain_forest(n_trees, n_nodes, n_features, seed):
    """A forest of valid trees with random node numbers: internal node 2k
    splits into leaf 2k + 1 and the subtree at 2k + 2, as breadth-first
    order implies, and the last node is a leaf (``n_nodes`` odd)."""
    rng = np.random.default_rng(seed)
    node = np.arange(n_nodes)
    internal = (node % 2 == 0) & (node < n_nodes - 1)
    trees = [
        RegressionTree(
            feature=np.where(internal, rng.integers(0, n_features, n_nodes), -1).astype(np.int32),
            threshold=rng.normal(0.0, 10.0, n_nodes),
            value=rng.normal(0.0, 3.0, n_nodes),
            n=rng.integers(1, 2000, n_nodes),
            impurity=rng.uniform(0.0, 9.0, n_nodes),
        )
        for _ in range(n_trees)
    ]
    return RandomForest(params=ForestParams(n_trees=n_trees), schema_id=SCHEMA_HRF,
                        n_features=n_features, trees=trees, oob_mae=1.25)


class TestLoaderText:
    """A model file that is not a header line and params.n_trees tree lines
    of UTF-8 JSON fails with a ValueError that names the file, wherever the
    text reader's decode blocks fall."""

    @pytest.fixture(params=[None, 5], ids=["default-blocks", "5-char-blocks"])
    def model(self, request, tmp_path, monkeypatch):
        if request.param is not None:
            # the text reader decodes 5 characters at a time, so every line,
            # and a byte that is not UTF-8, straddles its decode blocks
            def small_block_open(*args, **kwargs):
                f = open(*args, **kwargs)
                f._CHUNK_SIZE = request.param
                return f

            monkeypatch.setattr(forest_module, "open", small_block_open, raising=False)
        # tree lines of about 10 kB, so that with the default decode block
        # the last ones lie past the first block the text reader decodes
        save_model(chain_forest(3, 201, 4, seed=8), tmp_path / "m.json")
        return tmp_path / "m.json"

    def _expect_error(self, path, data, message):
        path.write_bytes(data)
        with pytest.raises(ValueError) as got:
            load_model(path)
        assert str(got.value).startswith(f"{path}: {message}"), str(got.value)

    def test_model_loads(self, model):
        original = model.read_bytes()
        save_model(load_model(model), model.with_name("again.json"))
        assert model.with_name("again.json").read_bytes() == original

    def test_file_cut_mid_tree(self, model):
        data = model.read_bytes()
        last = data.rindex(b"\n", 0, -1) + 1
        cut = model.with_name("cut.json")
        self._expect_error(cut, data[: (last + len(data)) // 2], "tree 2 is malformed: ")

    def test_data_after_the_closing_brace(self, model):
        # an extra object line, or a blank line, after the last tree line
        path = model.with_name("extra.json")
        for extra in (b'{"a": 1}\n', b"\n"):
            self._expect_error(path, model.read_bytes() + extra, "lines after the 3 trees")

    def test_empty_file(self, model):
        self._expect_error(model.with_name("empty.json"), b"", "malformed model header: ")

    def test_non_object_top_level(self, model):
        trees = model.read_bytes().split(b"\n", 1)[1]
        path = model.with_name("list.json")
        self._expect_error(path, b"[1, 2]\n" + trees, "malformed model header: not a JSON object")

    def test_single_document_of_format_version_1(self, model):
        header, *trees = map(json.loads, model.read_text().splitlines())
        doc = {**header, "format_version": 1, "trees": trees}
        path = model.with_name("v1.json")
        self._expect_error(
            path,
            (json.dumps(doc, sort_keys=True) + "\n").encode(),
            "unsupported model format version 1, this build reads version 4",
        )

    def test_json_lines_of_format_version_2(self, model):
        # version 2 had this layout, but preorder trees from another stream
        header, *trees = model.read_text().splitlines(keepends=True)
        header = json.dumps({**json.loads(header), "format_version": 2}, sort_keys=True)
        path = model.with_name("v2.json")
        self._expect_error(
            path,
            (header + "\n" + "".join(trees)).encode(),
            "unsupported model format version 2, this build reads version 4",
        )

    def test_json_lines_of_format_version_3(self, model):
        # version 3 held the same trees, each of its arrays and its child
        # links (-1 at leaves), as a JSON list of numbers
        forest = load_model(model)
        header = json.loads(model.read_text().splitlines()[0])
        lines = [json.dumps({**header, "format_version": 3}, sort_keys=True)]
        for tree in forest.trees:
            doc = {name: getattr(tree, name).tolist() for name in TREE_ARRAYS}
            left = np.where(tree.feature >= 0, _left_child(tree.feature), -1)
            doc.update(left=left.tolist(), right=np.where(left >= 0, left + 1, -1).tolist())
            lines.append(json.dumps(doc, sort_keys=True))
        path = model.with_name("v3.json")
        self._expect_error(
            path,
            "".join(line + "\n" for line in lines).encode(),
            "unsupported model format version 3, this build reads version 4",
        )

    @pytest.mark.parametrize("tree", [0, 2])
    def test_byte_that_is_not_utf8_in_a_tree_line(self, model, tree):
        lines = model.read_bytes().splitlines(keepends=True)
        lines[1 + tree] = lines[1 + tree].replace(b"0", b"\xff", 1)
        path = model.with_name("latin.json")
        self._expect_error(path, b"".join(lines), "model is not UTF-8 text: ")


def _grown_alone(X, y, params, trees):
    """Each tree of ``trees`` (indices) grown by itself, from its own stream."""
    n = len(y)
    ranks = _feature_ranks(X)
    out = []
    for t in trees:
        rng = SplitMix64(params.seed ^ t)
        boot = rng.index_block(n, n)
        out += _grow_trees(X, ranks, y, [boot], [rng], params, params.max_features)
    return out


def _assert_same_trees(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for name in TREE_ARRAYS:
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name), err_msg=name)


class TestLevelWiseGrowth:
    """Trees grow together, one depth at a time; each must equal the tree
    grown alone, whatever the batch, the groups or the workers."""

    @given(forest_problems(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_every_tree_of_a_batch_equals_the_tree_grown_alone(self, problem, data):
        X, y, params = problem
        n = len(y)
        # any trees, in any order, a tree possibly twice
        batch = data.draw(st.lists(st.integers(0, 7), min_size=1, max_size=6))
        rngs = [SplitMix64(params.seed ^ t) for t in batch]
        boots = [rng.index_block(n, n) for rng in rngs]
        together = _grow_trees(
            X, _feature_ranks(X), y, boots, rngs, params, params.max_features
        )
        _assert_same_trees(together, _grown_alone(X, y, params, batch))

    @given(
        forest_problems(),
        st.sampled_from([1, 2, 3]),
        st.integers(1, 3),
        st.sampled_from([4, 16, 64, forest_module._CHUNK_CELLS]),
    )
    @settings(max_examples=30, deadline=None)
    def test_trees_depend_on_neither_threads_nor_groups_nor_chunks(
        self, problem, threads, group, cells
    ):
        # small chunks search a node's features a few at a time
        X, y, params = problem
        want = _grown_alone(X, y, params, range(params.n_trees))
        with mock.patch.object(forest_module, "_GROUP_SLOTS", group * len(y)), \
                mock.patch.object(forest_module, "_CHUNK_CELLS", cells):
            forest = train_forest(X, y, SCHEMA_NRF, params, threads=threads)
        _assert_same_trees(forest.trees, want)

    def test_wide_keys_and_feature_spans_match_the_loop_grower(self, tmp_path):
        # 70,000 rows take 64-bit sort keys, and a root searched one feature
        # per chunk; two levels keep the loop grower quick
        rng = np.random.default_rng(3)
        X = np.round(rng.normal(size=(70_000, 6)) * 100)
        y = np.round(X[:, 0] / 10 + rng.normal(size=70_000))
        params = ForestParams(n_trees=2, max_depth=2, max_features=6, seed=9)
        save_model(train_forest(X, y, SCHEMA_NRF, params), tmp_path / "fast.json")
        save_model_direct(train_forest_direct(X, y, SCHEMA_NRF, params), tmp_path / "loop.json")
        assert (tmp_path / "fast.json").read_bytes() == (tmp_path / "loop.json").read_bytes()

    def test_nodes_are_numbered_breadth_first(self):
        X, y = make_samples(n=150, d=4, seed=2)
        tree = train_forest(X, y, SCHEMA_NRF, ForestParams(n_trees=1, seed=3)).trees[0]
        internal = tree.feature >= 0
        left = _left_child(tree.feature)[internal]
        # children are numbered in the order of their parents, in pairs
        children = np.stack([left, left + 1], axis=1).reshape(-1)
        np.testing.assert_array_equal(children, np.arange(1, tree.n_nodes()))
        # and those children share out their parent's samples
        np.testing.assert_array_equal(tree.n[left] + tree.n[left + 1], tree.n[internal])

    def test_grower_memory_follows_its_group_bound(self):
        # 20,000-row trees, depth 6 so that the levels are wide and few.
        # Grown one tree per group, eight trees peak, beside the trees they
        # return, as one tree does (about 4.2 MB); all eight in one group
        # peak at about 7.4 MB.
        X, y = make_samples(n=20_000, d=6, seed=5)

        def peak_beside_trees(n_trees, group):
            params = ForestParams(n_trees=n_trees, max_depth=6, seed=1)
            with mock.patch.object(forest_module, "_GROUP_SLOTS", group * len(y)):
                tracemalloc.start()
                try:
                    forest = train_forest(X, y, SCHEMA_NRF, params)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            return peak - sum(
                getattr(t, name).nbytes for t in forest.trees for name in TREE_ARRAYS
            )

        one = peak_beside_trees(1, 1)
        grouped = peak_beside_trees(8, 1)
        assert grouped < 1.1 * one, f"8 trees peaked at {grouped / one:.2f}x one tree"
        assert peak_beside_trees(8, 8) > 1.5 * one

    def test_forest_shape(self):
        # chain trees of 7 nodes: internal nodes 0, 2 and 4 each split off a
        # leaf, so every tree is 3 deep with 4 leaves
        forest = chain_forest(2, 7, 4, seed=1)
        leaf_n = [t.n[t.feature < 0] for t in forest.trees]
        assert forest_shape(forest) == {
            "depth_max": 3,
            "depth_mean": 3.0,
            "leaves": 8,
            "leaf_size_mean": float(np.concatenate(leaf_n).sum()) / 8,
        }
        X, y = make_samples(n=80)
        stumps = train_forest(X, y, SCHEMA_NRF, ForestParams(n_trees=3, max_depth=1, seed=2))
        shape = forest_shape(stumps)
        assert shape["depth_max"] == 1 and shape["leaves"] == 6
        assert shape["leaf_size_mean"] == 80 * 3 / 6


class TestImportance:
    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_importance_is_a_distribution(self, seed):
        X, y = make_samples(n=80, d=4, seed=seed)
        forest = train_forest(X, y, SCHEMA_NRF, ForestParams(n_trees=3, seed=seed & 0xFFFF))
        importance = feature_importance(forest)
        assert importance.shape == (4,)
        assert (importance >= 0).all()
        assert importance.sum() == pytest.approx(1.0)


class TestGrowerOracle:
    @given(forest_problems(), st.sampled_from([1, 2, 3]))
    @settings(max_examples=40, deadline=None)
    def test_model_bytes_and_importance_match_loop_grower(self, tmp_path_factory, problem, threads):
        X, y, params = problem
        tmp = tmp_path_factory.mktemp("oracle")
        forest = train_forest(X, y, SCHEMA_NRF, params, threads=threads)
        reference = train_forest_direct(X, y, SCHEMA_NRF, params)
        save_model(forest, tmp / "fast.json")
        save_model_direct(reference, tmp / "loop.json")
        assert (tmp / "fast.json").read_bytes() == (tmp / "loop.json").read_bytes()
        # the links derived from breadth-first order are the loop grower's,
        # built as its queue numbered the nodes
        for tree, want in zip(forest.trees, reference.trees):
            internal = want.feature >= 0
            np.testing.assert_array_equal(_left_child(tree.feature)[internal], want.left[internal])
            np.testing.assert_array_equal(want.right[internal], want.left[internal] + 1)
        np.testing.assert_array_equal(
            feature_importance(forest), feature_importance_direct(reference)
        )
        # new rows, and rows lying on each split's threshold, route as the
        # loop grower's links route them
        rows = [np.random.default_rng(0).normal(size=(8, X.shape[1]))]
        for want in reference.trees:
            for f, thr in zip(want.feature, want.threshold):
                if f >= 0:
                    rows.append(X[:1].copy())
                    rows[-1][0, f] = thr
        rows = np.concatenate(rows)
        direct = [
            sum(_route_direct(want, row) for want in reference.trees) / len(reference.trees)
            for row in rows
        ]
        np.testing.assert_array_equal(predict_batch(forest, rows), direct)
