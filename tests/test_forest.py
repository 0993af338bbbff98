import json
import logging
import math
import multiprocessing
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lidar_anchor.features import SCHEMA_HRF, SCHEMA_NRF, FeatureVector
from lidar_anchor.forest import (
    ForestParams,
    MODEL_FORMAT_VERSION,
    RandomForest,
    RegressionTree,
    SplitMix64,
    _build_forked,
    _feature_ranks,
    _grow_tree,
    _tree_predict,
    feature_importance,
    load_model,
    predict,
    predict_batch,
    save_model,
    train_forest,
)

from oracles import (
    choose_k_direct,
    feature_importance_direct,
    SplitMix64Direct,
    save_model_direct,
    train_forest_direct,
)


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


class TestSplitMix64:
    def test_matches_documented_recurrence(self):
        for seed in (0, 42, 2**63 + 17, (1 << 64) - 1):
            rng = SplitMix64(seed)
            got = [rng.next_u64() for _ in range(200)]
            assert got == reference_splitmix(seed, 200)

    def test_block_equals_scalar_stream(self):
        a = SplitMix64(42)
        b = SplitMix64(42)
        scalar = [a.next_u64() for _ in range(100)]
        block = b.u64_block(100)
        assert scalar == [int(v) for v in block]

    def test_interleaved_block_and_scalar_stay_in_step(self):
        a = SplitMix64(7)
        b = SplitMix64(7)
        got = [a.next_u64() for _ in range(3)]
        got += [int(v) for v in a.u64_block(5)]
        got.append(a.next_u64())
        want = [b.next_u64() for _ in range(9)]
        assert got == want

    def test_float_range_and_precision(self):
        rng = SplitMix64(1)
        vals = [rng.next_float() for _ in range(1000)]
        assert all(0.0 <= v < 1.0 for v in vals)
        assert len(set(vals)) > 990

    def test_randint_bounds(self):
        rng = SplitMix64(2)
        vals = [rng.randint(7) for _ in range(500)]
        assert set(vals) <= set(range(7))
        assert len(set(vals)) == 7

    def test_index_block_matches_randint(self):
        a = SplitMix64(3)
        b = SplitMix64(3)
        block = a.index_block(64, 10)
        scalar = [b.randint(10) for _ in range(64)]
        assert [int(v) for v in block] == scalar

    def test_choose_k_is_sorted_distinct_subset(self):
        rng = SplitMix64(4)
        for _ in range(100):
            got = rng.choose_k(27, 9)
            assert list(got) == sorted(set(int(v) for v in got))
            assert all(0 <= v < 27 for v in got)
            assert got.size == 9

    def test_choose_all_returns_full_range(self):
        assert sorted(int(v) for v in SplitMix64(5).choose_k(6, 6)) == list(range(6))

    def test_choose_k_matches_loop(self):
        a = SplitMix64(11)
        b = SplitMix64Direct(11)
        for d, k in ((27, 9), (5, 5), (1, 1), (8, 3)):
            for _ in range(20):
                np.testing.assert_array_equal(a.choose_k(d, k), choose_k_direct(b, d, k))

    def test_subset_block_rows_are_successive_draws(self):
        a = SplitMix64(12)
        b = SplitMix64(12)
        block = a.subset_block(40, 10, 4)
        for row in block:
            np.testing.assert_array_equal(row, b.choose_k(10, 4))
        assert a.counter == b.counter == 160

    def test_validation(self):
        rng = SplitMix64(0)
        with pytest.raises(ValueError):
            rng.randint(0)
        with pytest.raises(ValueError):
            rng.choose_k(3, 4)


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

    def test_workers_capped_by_trees_and_cpus(self, monkeypatch):
        import lidar_anchor.forest as forest_module

        calls = []

        def record(build, n_trees, workers):
            calls.append((n_trees, workers))
            return [build(t) for t in range(n_trees)]

        monkeypatch.setattr(forest_module, "_build_forked", record)
        X, y = make_samples(n=30)
        train_forest(X, y, SCHEMA_NRF, ForestParams(n_trees=3, seed=1), threads=5)
        assert calls in ([], [(3, min(3, os.cpu_count() or 1))])

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork"
    )
    def test_forked_build_keeps_tree_order_and_reports_a_dead_worker(self):
        assert _build_forked(lambda t: ("tree", t), 5, 2) == [("tree", t) for t in range(5)]

        def build(t):
            if t == 1:
                os._exit(3)
            return t

        with pytest.raises(RuntimeError, match="worker 1"):
            _build_forked(build, 4, 2)

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
            trees.append(_grow_tree(X, r, y, boot, params, 2, rng))
        for name in ("feature", "threshold", "left", "right", "value", "n", "impurity"):
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
        fv = FeatureVector(np.zeros(5), SCHEMA_NRF)
        assert predict(forest, fv) == 3.25

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
        for i in range(5):
            assert predict(forest, FeatureVector(X[i], SCHEMA_NRF)) == batch[i]

    def test_schema_and_shape_are_enforced(self):
        X, y = make_samples(n=40, d=27)
        forest = train_forest(X, y, SCHEMA_NRF, ForestParams(n_trees=2, seed=2))
        with pytest.raises(ValueError, match="schema"):
            predict(forest, FeatureVector(X[0], SCHEMA_HRF))
        with pytest.raises(ValueError):
            predict_batch(forest, X[:, :3])
        with pytest.raises(ValueError):
            predict_batch(forest, np.full((2, 27), np.nan))

    def test_training_rejects_nonfinite_targets(self):
        with pytest.raises(ValueError):
            train_forest(np.zeros((1, 3)), [math.nan], SCHEMA_NRF, ForestParams(n_trees=1))


class TestRouting:
    def hand_tree(self):
        return RegressionTree(
            feature=np.array([0, -1, -1], dtype=np.int32),
            threshold=np.array([1.5, 0.0, 0.0]),
            left=np.array([1, -1, -1], dtype=np.int32),
            right=np.array([2, -1, -1], dtype=np.int32),
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


class TestSerialization:
    def test_round_trip_is_bitwise(self, tmp_path):
        X, y = make_samples(n=100)
        forest = train_forest(X, y, SCHEMA_NRF, ForestParams(n_trees=8, seed=6))
        save_model(forest, tmp_path / "m.json")
        loaded = load_model(tmp_path / "m.json")
        save_model(loaded, tmp_path / "m2.json")
        assert (tmp_path / "m.json").read_bytes() == (tmp_path / "m2.json").read_bytes()
        np.testing.assert_array_equal(predict_batch(loaded, X), predict_batch(forest, X))
        assert loaded.params == forest.params
        assert loaded.oob_mae == forest.oob_mae

    def _doc(self, tmp_path):
        X, y = make_samples(n=40)
        forest = train_forest(X, y, SCHEMA_NRF, ForestParams(n_trees=2, seed=1))
        save_model(forest, tmp_path / "m.json")
        return json.loads((tmp_path / "m.json").read_text())

    def _expect_error(self, tmp_path, doc, pattern):
        (tmp_path / "bad.json").write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=pattern):
            load_model(tmp_path / "bad.json")

    def test_rejects_future_version(self, tmp_path):
        doc = self._doc(tmp_path)
        doc["format_version"] = MODEL_FORMAT_VERSION + 1
        self._expect_error(tmp_path, doc, "version")

    def test_rejects_unknown_schema(self, tmp_path):
        doc = self._doc(tmp_path)
        doc["schema_id"] = "mystery"
        self._expect_error(tmp_path, doc, "schema")

    def test_rejects_dangling_children(self, tmp_path):
        doc = self._doc(tmp_path)
        doc["trees"][0]["left"][0] = 9999
        self._expect_error(tmp_path, doc, "dangling|child")

    def test_rejects_inconsistent_arrays(self, tmp_path):
        doc = self._doc(tmp_path)
        doc["trees"][0]["value"] = doc["trees"][0]["value"][:-1]
        self._expect_error(tmp_path, doc, "inconsistent")

    def test_rejects_feature_out_of_range(self, tmp_path):
        doc = self._doc(tmp_path)
        doc["n_features"] = 2
        self._expect_error(tmp_path, doc, "feature|range")

    def test_rejects_empty_trees(self, tmp_path):
        doc = self._doc(tmp_path)
        doc["trees"] = []
        self._expect_error(tmp_path, doc, "trees")

    def test_rejects_garbage_json(self, tmp_path):
        (tmp_path / "bad.json").write_text("{nope")
        with pytest.raises(ValueError, match="malformed"):
            load_model(tmp_path / "bad.json")


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


@st.composite
def forest_problems(draw):
    """Small training sets with tied columns, duplicated rows and tied targets."""
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
        np.testing.assert_array_equal(
            feature_importance(forest), feature_importance_direct(reference)
        )
