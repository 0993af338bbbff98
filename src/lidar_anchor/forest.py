"""From-scratch random-forest regressor with fully reproducible randomness.

Every source of randomness flows through SplitMix64, a counter-based 64-bit
generator simple enough to restate in any language (see the class docstring
for the exact recurrence).  Tree ``t`` of a forest trained with seed ``s``
draws from the stream seeded ``s XOR t``, consuming values in a fixed order:
first the bootstrap indices, then one feature subset per node in depth-first
preorder (left child before right).  Training is therefore bit-identical
whether trees grow in one process or several, and a serialized model rebuilds
the exact same predictor anywhere.
"""

from __future__ import annotations

import json
import logging
import math
import multiprocessing
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Optional

import numpy as np

from .features import SCHEMA_HRF, SCHEMA_NRF, FeatureVector

logger = logging.getLogger(__name__)

MODEL_FORMAT_VERSION = 1
KNOWN_SCHEMAS = (SCHEMA_HRF, SCHEMA_NRF)

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """Counter-based 64-bit generator (SplitMix64).

    The i-th raw output (i starting at 1) is ``mix(seed + i * 0x9E3779B97F4A7C15)``
    where all arithmetic is modulo 2**64 and::

        mix(z): z ^= z >> 30; z *= 0xBF58476D1CE4E5B9
                z ^= z >> 27; z *= 0x94D049BB133111EB
                z ^= z >> 31; return z

    Derived quantities are defined exactly as:

    * float in [0, 1): ``(raw >> 11) * 2.0**-53``
    * integer in [0, n): ``min(floor(float * n), n - 1)``
    * k-of-d subset: partial Fisher-Yates over [0, d) taking one bounded
      integer per step (bound d, d-1, ..., d-k+1), result reported in
      ascending order.

    Instances keep only the seed and a step counter, so scalar and block
    generation produce the same stream.
    """

    __slots__ = ("seed", "counter")

    def __init__(self, seed: int) -> None:
        self.seed = seed & _MASK64
        self.counter = 0

    @staticmethod
    def _mix(z: int) -> int:
        z ^= z >> 30
        z = (z * _MIX1) & _MASK64
        z ^= z >> 27
        z = (z * _MIX2) & _MASK64
        z ^= z >> 31
        return z

    def next_u64(self) -> int:
        self.counter += 1
        return self._mix((self.seed + self.counter * _GOLDEN) & _MASK64)

    def next_float(self) -> float:
        """Uniform float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        if n < 1:
            raise ValueError(f"randint bound must be >= 1, got {n}")
        v = int(self.next_float() * n)
        return n - 1 if v >= n else v

    def u64_block(self, m: int) -> np.ndarray:
        """The next m raw outputs as a uint64 array (vectorized stream)."""
        start = self.counter + 1
        self.counter += m
        with np.errstate(over="ignore"):
            z = np.arange(start, start + m, dtype=np.uint64) * np.uint64(_GOLDEN)
            z += np.uint64(self.seed)
            z ^= z >> np.uint64(30)
            z *= np.uint64(_MIX1)
            z ^= z >> np.uint64(27)
            z *= np.uint64(_MIX2)
            z ^= z >> np.uint64(31)
        return z

    def _float_block(self, m: int) -> np.ndarray:
        return (self.u64_block(m) >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def index_block(self, m: int, n: int) -> np.ndarray:
        """m uniform integers in [0, n) (the bootstrap draw)."""
        if n < 1:
            raise ValueError(f"index bound must be >= 1, got {n}")
        idx = (self._float_block(m) * n).astype(np.int64)
        np.minimum(idx, n - 1, out=idx)
        return idx

    def subset_block(self, m: int, d: int, k: int) -> np.ndarray:
        """m successive k-of-d subsets as the rows of an (m, k) array.

        Row r is what the r-th of m ``choose_k(d, k)`` calls returns: the
        stream is read in the same order, and the Fisher-Yates swaps run on
        all rows at once.
        """
        if not (1 <= k <= d):
            raise ValueError(f"cannot choose {k} of {d} features")
        bounds = np.arange(d, d - k, -1)
        offsets = (self._float_block(m * k).reshape(m, k) * bounds).astype(np.int64)
        np.minimum(offsets, bounds - 1, out=offsets)
        pool = np.tile(np.arange(d), (m, 1))
        rows = np.arange(m)
        for i in range(k):
            j = offsets[:, i] + i
            pool[rows, i], pool[rows, j] = pool[rows, j], pool[rows, i]
        return np.sort(pool[:, :k], axis=1)

    def choose_k(self, d: int, k: int) -> np.ndarray:
        """k distinct integers from [0, d), ascending."""
        return self.subset_block(1, d, k)[0]


# ===== Model types =====


@dataclass(frozen=True)
class ForestParams:
    """Training hyperparameters.

    ``max_features`` of None means ceil(n_features / 3), resolved at
    training time.
    """

    n_trees: int = 100
    max_depth: Optional[int] = None
    min_samples_leaf: int = 2
    max_features: Optional[int] = None
    seed: int = 42

    def __post_init__(self) -> None:
        if self.n_trees < 1:
            raise ValueError(f"n_trees must be >= 1, got {self.n_trees}")
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError(f"max_depth must be >= 1 or None, got {self.max_depth}")
        if self.min_samples_leaf < 1:
            raise ValueError(f"min_samples_leaf must be >= 1, got {self.min_samples_leaf}")
        if self.max_features is not None and self.max_features < 1:
            raise ValueError(f"max_features must be >= 1 or None, got {self.max_features}")


@dataclass
class RegressionTree:
    """One CART tree as flat node arrays in depth-first preorder.

    ``feature[i] == -1`` marks a leaf.  Internal nodes route a sample left
    when its feature value is <= threshold.  ``value`` holds the mean
    training target of every node, ``n`` the bootstrap sample count, and
    ``impurity`` the target variance, which together let importance be
    recomputed from a deserialized model.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    n: np.ndarray
    impurity: np.ndarray

    def n_nodes(self) -> int:
        return int(self.feature.size)


@dataclass
class RandomForest:
    """A trained forest plus the metadata needed to apply and audit it."""

    params: ForestParams
    schema_id: str
    n_features: int
    trees: list[RegressionTree]
    oob_mae: Optional[float]


# ===== Training =====

def _subset_stream(rng: SplitMix64, d: int, k: int) -> Iterator[np.ndarray]:
    """Endless ``rng.choose_k(d, k)`` draws, generated 256 at a time.

    Only the tree reads its stream, so drawing ahead leaves every subset
    where ``choose_k`` would find it.
    """
    while True:
        yield from rng.subset_block(256, d, k)


def _feature_ranks(X: np.ndarray) -> np.ndarray:
    """Dense rank of each value within its feature, one row per feature.

    Equal values share a rank, so a stable sort of ranks orders samples
    exactly as a stable sort of the values does; ranks that fit 16 bits
    let numpy sort them by radix.
    """
    n, d = X.shape
    ranks = np.empty((d, n), dtype=np.uint16 if n <= 1 << 16 else np.int64)
    for c in range(d):
        ranks[c] = np.unique(X[:, c], return_inverse=True)[1]
    return ranks


def _best_split(
    X: np.ndarray,
    ranks: np.ndarray,
    idx: np.ndarray,
    y_node: np.ndarray,
    y_sum: float,
    feats: np.ndarray,
    min_samples_leaf: int,
    ramp: np.ndarray,
    col: np.ndarray,
) -> Optional[tuple[int, float, np.ndarray, np.ndarray]]:
    """Exhaustive best split of one node over the drawn feature subset.

    ``ranks`` is ``_feature_ranks(X)``, ``y_node`` the node's targets and
    ``y_sum`` their sum; ``ramp`` is ``arange(len(idx) + 1)`` or longer as
    float64 and ``col`` is ``arange(len(feats))[:, None]``.  Candidate
    thresholds are midpoints between consecutive distinct sorted values.
    The criterion is weighted variance reduction; ties go to the lower
    feature index, then the lower threshold.  Returns None when no candidate
    reduces variance.
    """
    m = idx.size
    rs = ranks[feats[:, None], idx]
    order = rs.argsort(axis=1, kind="stable")
    rs = rs[col, order]
    csum = np.add.accumulate(y_node[order], axis=1)
    sl = csum[:, :-1]
    sr = csum[:, -1:] - sl
    # left sizes 1 .. m-1 and right sizes m-1 .. 1, exact in float64
    crit = sl * sl
    crit /= ramp[1:m]
    sr *= sr
    sr /= ramp[m - 1 : 0 : -1]
    crit += sr

    invalid = rs[:, 1:] == rs[:, :-1]
    if min_samples_leaf > 1:
        invalid[:, : min_samples_leaf - 1] = True
        invalid[:, m - min_samples_leaf :] = True
    np.putmask(crit, invalid, -np.inf)

    # The first maximum in feature-major order: lowest feature index (feats
    # are ascending), then lowest threshold.
    j, i = divmod(int(crit.argmax()), m - 1)
    best = float(crit[j, i])
    if not math.isfinite(best):
        return None
    if not (best > y_sum**2 / m):
        return None

    f = int(feats[j])
    sorted_idx = idx[order[j]]
    lo = float(X[sorted_idx[i], f])
    hi = float(X[sorted_idx[i + 1], f])
    thr = (lo + hi) / 2.0
    if thr >= hi:  # adjacent floats: keep both children non-empty
        thr = lo
    return f, thr, sorted_idx[: i + 1], sorted_idx[i + 1 :]


def _grow_tree(
    X: np.ndarray,
    ranks: np.ndarray,
    y: np.ndarray,
    root_idx: np.ndarray,
    params: ForestParams,
    max_features: int,
    rng: SplitMix64,
) -> RegressionTree:
    """Grow one tree on the given sample indices (bootstrap multiset).

    ``ranks`` is ``_feature_ranks(X)``.  Node mean and variance are
    the arithmetic of ``np.mean`` and ``np.var``: one pairwise sum divided by
    the count.
    """
    d = X.shape[1]
    msl = params.min_samples_leaf
    max_depth = params.max_depth
    ramp = np.arange(root_idx.size + 1, dtype=np.float64)
    col = np.arange(max_features)[:, None]
    subsets = _subset_stream(rng, d, max_features)
    add = np.add.reduce
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    value: list[float] = []
    n_node: list[int] = []
    impurity: list[float] = []

    stack: list[tuple[np.ndarray, int, int, int]] = [(root_idx, 0, -1, 0)]
    while stack:
        idx, depth, parent, side = stack.pop()
        nid = len(feature)
        if parent >= 0:
            if side == 0:
                left[parent] = nid
            else:
                right[parent] = nid
        m = idx.size
        y_node = y[idx]
        y_sum = add(y_node)
        mean = y_sum / m
        dev = y_node - mean
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(float(mean))
        n_node.append(m)
        impurity.append(float(add(dev * dev) / m))

        if m < 2 * msl:
            continue
        if max_depth is not None and depth >= max_depth:
            continue
        if np.maximum.reduce(y_node) == np.minimum.reduce(y_node):
            continue

        feats = next(subsets)
        split = _best_split(X, ranks, idx, y_node, float(y_sum), feats, msl, ramp, col)
        if split is None:
            continue
        f, thr, left_idx, right_idx = split
        feature[nid] = f
        threshold[nid] = thr
        stack.append((right_idx, depth + 1, nid, 1))
        stack.append((left_idx, depth + 1, nid, 0))

    return RegressionTree(
        feature=np.array(feature, dtype=np.int32),
        threshold=np.array(threshold, dtype=np.float64),
        left=np.array(left, dtype=np.int32),
        right=np.array(right, dtype=np.int32),
        value=np.array(value, dtype=np.float64),
        n=np.array(n_node, dtype=np.int64),
        impurity=np.array(impurity, dtype=np.float64),
    )


def _build_forked(
    build: Callable[[int], tuple[RegressionTree, np.ndarray]],
    n_trees: int,
    workers: int,
) -> list[tuple[RegressionTree, np.ndarray]]:
    """``[build(t) for t in range(n_trees)]`` over forked worker processes.

    Worker w grows trees w, w + workers, ... and sends them back in one
    message when it is done.  Forked workers inherit ``build`` and the
    training data it closes over, so nothing but the grown trees is
    pickled, and the results are unpickled on the calling thread.  The
    package starts no threads, so forking is safe.
    """
    ctx = multiprocessing.get_context("fork")
    pipes = [ctx.Pipe(duplex=False) for _ in range(workers)]

    def grow(w: int) -> None:
        # Keep only this worker's write end, so that each pipe has one
        # writer and reads EOF as soon as that worker exits.
        for i, (recv, send) in enumerate(pipes):
            recv.close()
            if i != w:
                send.close()
        with pipes[w][1] as send:
            send.send([build(t) for t in range(w, n_trees, workers)])

    procs: list[multiprocessing.process.BaseProcess] = []
    try:
        for w in range(workers):
            procs.append(ctx.Process(target=grow, args=(w,)))
            procs[-1].start()
        for _, send in pipes:
            send.close()
        shares = []
        for w, (recv, _) in enumerate(pipes):
            try:
                shares.append(recv.recv())
            except EOFError:
                raise RuntimeError(f"tree worker {w} exited without its trees") from None
    finally:
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
            proc.join()
        for recv, send in pipes:
            recv.close()
            send.close()
    return [shares[t % workers][t // workers] for t in range(n_trees)]


def train_forest(
    X: np.ndarray,
    y: np.ndarray,
    schema_id: str,
    params: ForestParams = ForestParams(),
    threads: int = 1,
) -> RandomForest:
    """Train a bagged forest of CART trees on an (n, d) matrix of feature
    rows from schema ``schema_id`` and their n targets.

    Each tree bootstraps n rows with replacement from its own SplitMix64
    stream (seed XOR tree_index) and searches ceil(d/3) features per node
    unless params says otherwise.  With ``threads`` > 1 the trees grow in
    min(threads, n_trees, CPU count) forked worker processes, or serially
    where ``fork`` is unavailable.  Results do not depend on ``threads``.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if schema_id not in KNOWN_SCHEMAS:
        raise ValueError(f"unknown feature schema {schema_id!r}")
    if X.ndim != 2 or X.size == 0 or y.shape != X.shape[:1]:
        raise ValueError(
            f"need a non-empty (n, d) feature matrix and n targets, got {X.shape} and {y.shape}"
        )
    if not np.isfinite(X).all():
        raise ValueError("feature matrix contains non-finite values")
    if not np.isfinite(y).all():
        raise ValueError("targets contain non-finite values")
    n, d = X.shape
    max_features = params.max_features if params.max_features is not None else math.ceil(d / 3)
    max_features = min(max_features, d)
    ranks = _feature_ranks(X)

    def build(t: int) -> tuple[RegressionTree, np.ndarray]:
        rng = SplitMix64(params.seed ^ t)
        boot = rng.index_block(n, n)
        tree = _grow_tree(X, ranks, y, boot, params, max_features, rng)
        oob_mask = np.bincount(boot, minlength=n) == 0
        return tree, oob_mask

    workers = min(threads, params.n_trees, os.cpu_count() or 1)
    if workers > 1 and "fork" in multiprocessing.get_all_start_methods():
        built = _build_forked(build, params.n_trees, workers)
    else:
        built = [build(t) for t in range(params.n_trees)]

    trees = [tree for tree, _ in built]

    # Out-of-bag error, accumulated in tree order for bit-stable results.
    sums = np.zeros(n, dtype=np.float64)
    hits = np.zeros(n, dtype=np.int64)
    for tree, oob_mask in built:
        rows = np.nonzero(oob_mask)[0]
        if rows.size == 0:
            continue
        sums[rows] += _tree_predict(tree, X[rows])
        hits[rows] += 1
    covered = hits > 0
    if covered.any():
        oob_mae = float(np.mean(np.abs(sums[covered] / hits[covered] - y[covered])))
    else:
        oob_mae = None
        logger.warning("no out-of-bag samples; oob_mae unavailable")

    return RandomForest(
        params=ForestParams(
            n_trees=params.n_trees,
            max_depth=params.max_depth,
            min_samples_leaf=params.min_samples_leaf,
            max_features=max_features,
            seed=params.seed,
        ),
        schema_id=schema_id,
        n_features=d,
        trees=trees,
        oob_mae=oob_mae,
    )


# ===== Prediction =====


def _tree_predict(tree: RegressionTree, X: np.ndarray) -> np.ndarray:
    node = np.zeros(X.shape[0], dtype=np.int64)
    while True:
        f = tree.feature[node]
        rows = np.nonzero(f >= 0)[0]
        if rows.size == 0:
            return tree.value[node]
        cur = node[rows]
        go_left = X[rows, f[rows]] <= tree.threshold[cur]
        node[rows] = np.where(go_left, tree.left[cur], tree.right[cur])


def predict_batch(forest: RandomForest, X: np.ndarray) -> np.ndarray:
    """Forest predictions for a (n, d) feature matrix."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != forest.n_features:
        raise ValueError(
            f"feature matrix shape {X.shape} does not match model with "
            f"{forest.n_features} features"
        )
    if not np.isfinite(X).all():
        raise ValueError("feature matrix contains non-finite values")
    acc = np.zeros(X.shape[0], dtype=np.float64)
    for tree in forest.trees:
        acc += _tree_predict(tree, X)
    return acc / len(forest.trees)


def predict(forest: RandomForest, fv: FeatureVector) -> float:
    """Forest prediction for one feature vector (mean of tree outputs)."""
    if fv.schema_id != forest.schema_id:
        raise ValueError(
            f"feature schema {fv.schema_id!r} does not match model schema "
            f"{forest.schema_id!r}"
        )
    return float(predict_batch(forest, fv.values[None, :])[0])


def feature_importance(forest: RandomForest) -> np.ndarray:
    """Impurity-decrease importance per feature, normalized to sum 1.

    Each split contributes (parent variance - weighted child variance)
    scaled by the fraction of the tree's samples reaching the node; sums
    are averaged over trees.  When no tree ever split (constant targets)
    the importance is reported uniform with a warning.
    """
    total = np.zeros(forest.n_features, dtype=np.float64)
    for tree in forest.trees:
        internal = np.nonzero(tree.feature >= 0)[0]
        l = tree.left[internal]
        r = tree.right[internal]
        n = tree.n[internal]
        child = (tree.n[l] * tree.impurity[l] + tree.n[r] * tree.impurity[r]) / n
        delta = tree.impurity[internal] - child
        # bincount adds the weights in node order, as a loop over splits would
        total += np.bincount(
            tree.feature[internal],
            weights=delta * (n / float(tree.n[0])),
            minlength=forest.n_features,
        )
    total /= len(forest.trees)
    s = float(total.sum())
    if s <= 0.0:
        logger.warning("no informative splits; reporting uniform feature importance")
        return np.full(forest.n_features, 1.0 / forest.n_features)
    return total / s


# ===== Serialization =====


def save_model(forest: RandomForest, path: Path | str) -> None:
    """Serialize a forest to JSON; reloading reproduces predictions bitwise.

    The bytes are those of ``json.dump(doc, f, sort_keys=True)`` plus a
    newline.  ``"trees"`` sorts last among the keys, so the document is
    written as its other keys, then one tree at a time.
    """
    header = {
        "format_version": MODEL_FORMAT_VERSION,
        "schema_id": forest.schema_id,
        "n_features": forest.n_features,
        "params": {
            "n_trees": forest.params.n_trees,
            "max_depth": forest.params.max_depth,
            "min_samples_leaf": forest.params.min_samples_leaf,
            "max_features": forest.params.max_features,
            "seed": forest.params.seed,
        },
        "oob_mae": forest.oob_mae,
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps(header, sort_keys=True)[:-1] + ', "trees": [')
        for t, tree in enumerate(forest.trees):
            if t:
                f.write(", ")
            doc = {
                "feature": tree.feature.tolist(),
                "threshold": tree.threshold.tolist(),
                "left": tree.left.tolist(),
                "right": tree.right.tolist(),
                "value": tree.value.tolist(),
                "n": tree.n.tolist(),
                "impurity": tree.impurity.tolist(),
            }
            f.write(json.dumps(doc, sort_keys=True))
        f.write("]}\n")


def load_model(path: Path | str) -> RandomForest:
    """Load a serialized forest, validating structure before use."""
    path = Path(path)
    with open(path, "r", encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: malformed model document: {exc}") from exc

    version = doc.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(
            f"{path}: unsupported model format version {version!r}, "
            f"this build reads version {MODEL_FORMAT_VERSION}"
        )
    schema = doc.get("schema_id")
    if schema not in KNOWN_SCHEMAS:
        raise ValueError(f"{path}: unknown feature schema {schema!r}")
    n_features = doc.get("n_features")
    if not isinstance(n_features, int) or n_features < 1:
        raise ValueError(f"{path}: bad n_features {n_features!r}")
    raw_trees = doc.get("trees")
    if not isinstance(raw_trees, list) or len(raw_trees) == 0:
        raise ValueError(f"{path}: model has no trees")

    try:
        params = ForestParams(**doc["params"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: bad params block: {exc}") from exc

    trees: list[RegressionTree] = []
    for t, item in enumerate(raw_trees):
        try:
            tree = RegressionTree(
                feature=np.asarray(item["feature"], dtype=np.int32),
                threshold=np.asarray(item["threshold"], dtype=np.float64),
                left=np.asarray(item["left"], dtype=np.int32),
                right=np.asarray(item["right"], dtype=np.int32),
                value=np.asarray(item["value"], dtype=np.float64),
                n=np.asarray(item["n"], dtype=np.int64),
                impurity=np.asarray(item["impurity"], dtype=np.float64),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: tree {t} is malformed: {exc}") from exc
        sizes = {
            tree.feature.size,
            tree.threshold.size,
            tree.left.size,
            tree.right.size,
            tree.value.size,
            tree.n.size,
            tree.impurity.size,
        }
        if len(sizes) != 1 or tree.feature.size == 0:
            raise ValueError(f"{path}: tree {t} node arrays are inconsistent")
        n_nodes = tree.feature.size
        internal = tree.feature >= 0
        if (tree.feature >= n_features).any():
            raise ValueError(f"{path}: tree {t} references feature out of range")
        for name, arr in (("left", tree.left), ("right", tree.right)):
            bad = internal & ((arr < 0) | (arr >= n_nodes))
            if bad.any():
                raise ValueError(f"{path}: tree {t} has dangling {name} child links")
        trees.append(tree)

    oob = doc.get("oob_mae")
    return RandomForest(
        params=params,
        schema_id=schema,
        n_features=n_features,
        trees=trees,
        oob_mae=oob,
    )
