"""From-scratch random-forest regressor with fully reproducible randomness.

Every source of randomness flows through SplitMix64, a counter-based 64-bit
generator simple enough to restate in any language (see the class docstring
for the exact recurrence).  Tree ``t`` of a forest trained with seed ``s``
draws from the stream seeded ``s XOR t``, consuming values in a fixed order:
first the bootstrap indices, then one feature subset per split-searched node
in breadth-first order (depth by depth, parents in order, left child before
right).  Trees store their nodes in that same breadth-first order, which
implies the child links: the j-th internal node's children are nodes 2j + 1
and 2j + 2.  A tree is the five node arrays ``model.json`` stores, and
routing derives the links where it needs them.  ``model.json`` is format
version 4, whose tree lines hold those arrays as base64 of their bytes;
version 3 held every array, links included, as JSON numbers, and version 2
numbered nodes and drew subsets in depth-first preorder.  Trees grow
together, one depth at a time, yet each equals the tree grown alone, so
training is bit-identical however trees are grouped or spread over
processes, and a serialized model rebuilds the exact same predictor
anywhere.
"""

from __future__ import annotations

import base64
import json
import logging
import math
import multiprocessing
import os
import dataclasses
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from .features import SCHEMA_HRF, SCHEMA_NRF
from .raster import check_fields, is_int, segment_sums

logger = logging.getLogger(__name__)

MODEL_FORMAT_VERSION = 4
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

    Instances keep only the seed and a step counter, and every draw reads
    the next outputs of that one stream, so draws of any block sizes
    concatenate to the same values.
    """

    __slots__ = ("seed", "counter")

    def __init__(self, seed: int) -> None:
        self.seed = seed & _MASK64
        self.counter = 0

    def index_block(self, m: int, n: int) -> np.ndarray:
        """m uniform integers in [0, n) (the bootstrap draw)."""
        if n < 1:
            raise ValueError(f"index bound must be >= 1, got {n}")
        steps = np.arange(self.counter + 1, self.counter + 1 + m, dtype=np.uint64)
        self.counter += m
        u = (_mix(np.uint64(self.seed), steps) >> np.uint64(11)).astype(np.float64) * 2.0**-53
        idx = (u * n).astype(np.int64)
        np.minimum(idx, n - 1, out=idx)
        return idx


def _mix(seed: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """SplitMix64 outputs ``mix(seed + step * 0x9E3779B97F4A7C15)`` for uint64
    seeds and steps (broadcast together)."""
    with np.errstate(over="ignore"):
        z = steps * np.uint64(_GOLDEN)
        z += seed
        z ^= z >> np.uint64(30)
        z *= np.uint64(_MIX1)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
    return z


def _subset_blocks(rngs: list[SplitMix64], counts, d: int, k: int) -> np.ndarray:
    """``counts[t]`` successive k-of-d subsets from each stream ``rngs[t]``,
    as the rows of one array, streams in order: each subset reads the next k
    floats of its stream, and the Fisher-Yates swaps of all rows run in one
    pass."""
    if not (1 <= k <= d):
        raise ValueError(f"cannot choose {k} of {d} features")
    floats = np.asarray(counts, dtype=np.int64) * k
    first = np.array([rng.counter + 1 for rng in rngs], dtype=np.int64)
    # each float's step: its stream's next step plus its place in that
    # stream's block
    steps = np.arange(int(floats.sum())) + np.repeat(first - (np.cumsum(floats) - floats), floats)
    seeds = np.repeat(np.array([rng.seed for rng in rngs], dtype=np.uint64), floats)
    for rng, c in zip(rngs, floats.tolist()):
        rng.counter += c
    u = (_mix(seeds, steps.astype(np.uint64)) >> np.uint64(11)).astype(np.float64) * 2.0**-53
    bounds = np.arange(d, d - k, -1)
    offsets = (u.reshape(-1, k) * bounds).astype(np.int64)
    np.minimum(offsets, bounds - 1, out=offsets)
    pool = np.tile(np.arange(d), (offsets.shape[0], 1))
    rows = np.arange(offsets.shape[0])
    for i in range(k):
        j = offsets[:, i] + i
        pool[rows, i], pool[rows, j] = pool[rows, j], pool[rows, i]
    return np.sort(pool[:, :k], axis=1)


# ===== Model types =====


@dataclasses.dataclass(frozen=True)
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
        check_fields(self, {"n_trees": ">= 1", "max_depth": ">= 1", "min_samples_leaf": ">= 1",
                            "max_features": ">= 1"})


@dataclasses.dataclass
class RegressionTree:
    """One CART tree as the five node arrays ``model.json`` stores, in
    breadth-first order: the root, then each depth's nodes in the order of
    their parents, left child before right.  That order implies the child
    links, which are not held: ``_left_child`` derives them.

    ``feature[i] == -1`` marks a leaf.  Internal nodes route a sample left
    when its feature value is <= threshold.  ``value`` holds the mean
    training target of every node, ``n`` the bootstrap sample count, and
    ``impurity`` the target variance, which together let importance be
    recomputed from a deserialized model.
    """

    feature: np.ndarray
    threshold: np.ndarray
    value: np.ndarray
    n: np.ndarray
    impurity: np.ndarray

    def n_nodes(self) -> int:
        return int(self.feature.size)


@dataclasses.dataclass
class RandomForest:
    """A trained forest plus the metadata needed to apply and audit it."""

    params: ForestParams
    schema_id: str
    n_features: int
    trees: list[RegressionTree]
    oob_mae: Optional[float]


# ===== Training =====

# Sample slots (bootstrap draws) of the trees grown together: each depth
# holds at most this many, so a group's level arrays stay a few tens of MB.
_GROUP_SLOTS = 1 << 21
# Padded (node, feature, sample) cells one split-search chunk holds, unless
# one node's row for one feature is wider.
_CHUNK_CELLS = 1 << 15


def _feature_ranks(X: np.ndarray) -> np.ndarray:
    """Dense rank of each value within its feature, one row per feature.

    Equal values share a rank, so a stable sort of ranks orders samples
    exactly as a stable sort of the values does.
    """
    n, d = X.shape
    ranks = np.empty((d, n), dtype=np.uint16 if n <= 1 << 16 else np.int64)
    for c in range(d):
        ranks[c] = np.unique(X[:, c], return_inverse=True)[1]
    return ranks


def _padded_width(sizes: np.ndarray) -> np.ndarray:
    """The row width a node of each size is searched in: the size rounded up
    to three significant bits, so padding adds under a quarter."""
    e = np.maximum(np.frexp(sizes)[1] - 3, 0)
    return -(-sizes >> e) << e


def _split_search(
    X: np.ndarray,
    keys: np.ndarray,
    pos_bits: int,
    y_pad: np.ndarray,
    idx: np.ndarray,
    starts: np.ndarray,
    sizes: np.ndarray,
    feats: np.ndarray,
    sums: np.ndarray,
    min_samples_leaf: int,
    children: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Exhaustive best split of many nodes, each over its own feature subset.

    Node i holds the samples ``idx[starts[i]:starts[i] + sizes[i]]``, whose
    targets sum (pairwise) to ``sums[i]``, and searches the ascending
    features ``feats[i]``; ``idx`` ends with the sentinel sample n.  ``keys``
    is the flattened (d, n + 1) table of ``rank << pos_bits``, whose last
    column holds the sentinel rank n, and ``y_pad`` is y with a 0.0 appended
    for the sentinel sample n.

    Nodes are searched a chunk at a time as rows of one width: a node's
    samples, then sentinel samples up to the width.  A chunk holds about
    ``_CHUNK_CELLS`` cells, so a node too wide for all its features at once
    is searched a span of features at a time.  Ranks or'ed with their row
    position sort, in one unstable sort, as a stable sort of the ranks
    would, and the sentinel sorts last, so each row's real prefix has the
    arithmetic of a node searched alone.  Candidate thresholds are midpoints
    between consecutive distinct sorted values; the criterion is weighted
    variance reduction; ties go to the lower feature index, then the lower
    threshold.  A node splits when its best criterion is finite and beats
    ``sums[i]**2 / sizes[i]``.

    Returns per node whether it splits, its feature, threshold and left
    size; a splitting node's samples, stably sorted by its split feature,
    are written to its segment of ``children``.
    """
    count, k = feats.shape
    found = np.zeros(count, dtype=bool)
    feature = np.full(count, -1, dtype=np.int32)
    threshold = np.zeros(count)
    cut = np.zeros(count, dtype=np.int64)
    sentinel = y_pad.size - 1
    key_type = keys.dtype.type
    low = key_type((1 << pos_bits) - 1)
    width = _padded_width(sizes)
    by_width = np.argsort(width, kind="stable")
    bounds = np.flatnonzero(np.diff(width[by_width])) + 1
    # one set of buffers for every chunk: (node, feature, position) cells
    cells = max(_CHUNK_CELLS, int(width.max()))
    buf_order = np.empty(cells, dtype=np.intp)
    buf_comp = np.empty(cells, dtype=keys.dtype)
    buf_crit = np.empty(cells)
    buf_csum = np.empty(cells)
    buf_right = np.empty(cells)
    buf_valid = np.empty(cells, dtype=bool)
    for same in np.split(by_width, bounds):
        L = int(width[same[0]])
        pos = np.arange(L)
        # left sizes 1 .. L-1, and right sizes m-1 .. m-L+1, exact in float64
        n_left = pos[1:].astype(np.float64)
        # a chunk searches `step` nodes over `span` of their features at once
        span = min(k, max(1, _CHUNK_CELLS // L))
        step = max(1, _CHUNK_CELLS // (span * L))
        for c in range(0, same.size, step):
            nodes = same[c : c + step]
            rows = np.arange(nodes.size)
            m = sizes[nodes]
            samp = idx[np.where(pos < m[:, None], starts[nodes, None] + pos, idx.size - 1)]
            y_samp = y_pad[samp]
            n_right = np.maximum(m[:, None] - n_left, 1.0)[:, None, :]
            tail = (pos[:-1] < (m - min_samples_leaf)[:, None])[:, None, :]
            for f0 in range(0, k, span):
                f = feats[nodes, f0 : f0 + span]
                full = (nodes.size, f.shape[1], L)
                gaps = (nodes.size, f.shape[1], L - 1)
                size = nodes.size * f.shape[1] * L
                order = buf_order[:size].reshape(full)
                np.add((f * (sentinel + 1))[:, :, None], samp[:, None, :], out=order)
                comp = np.take(keys, order, out=buf_comp[:size].reshape(full))
                comp |= pos.astype(keys.dtype)
                comp.sort(axis=2)
                np.bitwise_and(comp, low, out=order)
                order += (rows * L)[:, None, None]  # flat index into samp
                ys = np.take(y_samp, order, out=buf_crit[:size].reshape(full))
                csum = np.add.accumulate(ys, axis=2, out=buf_csum[:size].reshape(full))
                sl = csum[:, :, :-1]
                crit = np.multiply(sl, sl, out=buf_crit[: sl.size].reshape(gaps))
                crit /= n_left
                total = csum[rows, :, m - 1][:, :, None]
                sr = np.subtract(total, sl, out=buf_right[: sl.size].reshape(gaps))
                sr *= sr
                sr /= n_right  # padded right sizes of 0 and below divide by 1
                crit += sr

                # A split at a tie, or leaving a child under min_samples_leaf,
                # is not a candidate: its criterion becomes +0.0 (all bits
                # clear), and every candidate's is +0.0 or more (or NaN).
                comp >>= key_type(pos_bits)
                valid = np.not_equal(
                    comp[:, :, 1:], comp[:, :, :-1], out=buf_valid[: sl.size].reshape(gaps)
                )
                valid &= tail
                valid[:, :, : min_samples_leaf - 1] = False
                keep = np.negative(valid.view(np.int8), out=sr.view(np.int64), dtype=np.int64)
                np.bitwise_and(crit.view(np.int64), keep, out=crit.view(np.int64))

                # the first maximum in feature-major order: lowest feature
                # index (feats are ascending), then lowest threshold; an
                # earlier span keeps a tie, and the first NaN wins
                flat = crit.reshape(nodes.size, -1)
                at = flat.argmax(axis=1)
                value = flat[rows, at]
                j, i = np.divmod(at, L - 1)
                ranked = samp.reshape(-1)[order[rows, j]]  # each best's samples, sorted
                if f0 == 0:
                    best, best_at, best_sorted = value, np.stack([j, i]), ranked
                    continue
                better = (value > best) | (np.isnan(value) & ~np.isnan(best))
                best[better] = value[better]
                best_at[:, better] = f0 + j[better], i[better]
                best_sorted[better] = ranked[better]

            # A best of +0.0 never beats the baseline, which is +0.0 or more.
            # The baseline squares with Python's float power, which rounds
            # unlike s * s in about one case in a thousand.
            ok = np.array([
                b > 0.0 and math.isfinite(b) and b > s**2 / n
                for b, s, n in zip(best.tolist(), sums[nodes].tolist(), m.tolist())
            ], dtype=bool)
            if not ok.any():
                continue
            won, m, (j, i), sorted_idx = nodes[ok], m[ok], best_at[:, ok], best_sorted[ok]
            held = pos < m[:, None]
            children[(starts[won, None] + pos)[held]] = sorted_idx[held]
            f = feats[won, j]
            r = np.arange(won.size)
            lo = X[sorted_idx[r, i], f]
            hi = X[sorted_idx[r, i + 1], f]
            thr = (lo + hi) / 2.0
            # adjacent floats: keep both children non-empty
            threshold[won] = np.where(thr >= hi, lo, thr)
            found[won] = True
            feature[won] = f
            cut[won] = i + 1
    return found, feature, threshold, cut


def _grow_trees(
    X: np.ndarray,
    ranks: np.ndarray,
    y: np.ndarray,
    boots: list[np.ndarray],
    rngs: list[SplitMix64],
    params: ForestParams,
    max_features: int,
) -> list[RegressionTree]:
    """Grow one tree per bootstrap multiset ``boots[t]``, drawing its
    feature subsets from ``rngs[t]``, all trees one depth at a time.

    ``ranks`` is ``_feature_ranks(X)``.  A depth's nodes lie in breadth-first
    order (trees in order, then each tree's nodes level by level, parents in
    order, left child before right), their samples as consecutive segments
    of one index array.  Per depth: every node's mean and variance, with the
    arithmetic of ``np.mean`` and ``np.var`` (one pairwise sum divided by
    the count); one feature-subset draw per split-searched node, each
    tree's in breadth-first order; and one batched split search.  Each tree
    equals the tree grown alone, so the grouping of trees changes nothing.
    """
    n, d = X.shape
    msl = params.min_samples_leaf
    bits = int(n).bit_length()  # ranks up to the sentinel n, and row positions
    key_type = np.uint32 if 2 * bits <= 32 else np.uint64
    keys = np.empty((d, n + 1), dtype=key_type)
    keys[:, :n] = ranks
    keys[:, n] = n
    keys <<= key_type(bits)
    keys = keys.reshape(-1)
    y_pad = np.append(y, 0.0)

    # the depth's samples, node after node, then the sentinel sample n
    idx = np.concatenate(boots + [[n]])
    tree = np.arange(len(boots))
    sizes = np.array([b.size for b in boots], dtype=np.int64)
    levels = []
    depth = 0
    while True:
        starts = np.cumsum(sizes) - sizes
        y_node = y[idx[:-1]]
        sums = segment_sums(y_node, starts, sizes)
        mean = sums / sizes
        searched = (sizes >= 2 * msl) & (
            np.maximum.reduceat(y_node, starts) != np.minimum.reduceat(y_node, starts)
        )
        y_node -= np.repeat(mean, sizes)
        y_node *= y_node
        impurity = segment_sums(y_node, starts, sizes) / sizes
        del y_node
        if params.max_depth is not None and depth >= params.max_depth:
            searched[:] = False
        nodes = np.flatnonzero(searched)
        found = np.zeros(sizes.size, dtype=bool)
        feature = np.full(sizes.size, -1, dtype=np.int32)
        threshold = np.zeros(sizes.size)
        cut = np.zeros(sizes.size, dtype=np.int64)
        children = np.empty_like(idx)
        children[-1] = n
        if nodes.size:
            feats = _subset_blocks(
                rngs, np.bincount(tree[nodes], minlength=len(rngs)), d, max_features
            )
            found[nodes], feature[nodes], threshold[nodes], cut[nodes] = _split_search(
                X, keys, bits, y_pad, idx, starts[nodes], sizes[nodes], feats, sums[nodes],
                msl, children,
            )
        levels.append((tree, sizes, mean, impurity, feature, threshold))
        if not found.any():
            return _trees_of_levels(levels, len(boots))
        split = np.flatnonzero(found)
        idx = children[np.append(np.repeat(found, sizes), True)]
        del children
        sizes = np.stack([cut[split], sizes[split] - cut[split]], axis=1).reshape(-1)
        tree = np.repeat(tree[split], 2)
        depth += 1


def _trees_of_levels(levels: list[tuple], n_trees: int) -> list[RegressionTree]:
    """Per-tree node arrays, in breadth-first order, from the per-depth node
    records of ``_grow_trees`` (tree, size, value, impurity, feature,
    threshold)."""
    tree, n, value, impurity, feature, threshold = (
        np.concatenate(column) for column in zip(*levels)
    )
    order = np.argsort(tree, kind="stable")
    bounds = np.searchsorted(tree[order], np.arange(n_trees + 1))
    columns = {
        "feature": feature, "threshold": threshold, "value": value, "n": n,
        "impurity": impurity,
    }
    columns = {name: column[order] for name, column in columns.items()}
    return [
        RegressionTree(**{name: column[lo:hi] for name, column in columns.items()})
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]


def _left_child(feature: np.ndarray) -> np.ndarray:
    """Each internal node's left child in a breadth-first tree, whose right
    child is the next node; entries at leaves mean nothing.  The children of
    the j-th internal node are nodes 2j + 1 and 2j + 2, since each depth's
    nodes are the children of the previous depth's internal nodes, in
    order."""
    return 2 * np.cumsum(feature >= 0) - 1


def _build_forked(
    build: Callable[[list[int]], Iterable], items: list[int], threads: int
) -> Iterator:
    """The results of ``build(items)`` in item order, over forked worker
    processes when ``threads`` > 1.

    ``build`` gives one result per item of the list it is given, in its
    order.  There are min(threads, items, CPU count) workers, and worker w
    calls ``build`` on its strided share, items w, w + workers, ..., and
    sends the results back in one message when it is done.  Forked workers
    inherit ``build`` and the data it closes over, so nothing but the
    results is pickled, and they are unpickled on the calling thread.  The
    package starts no threads, so forking is safe.  With one worker, or
    where ``fork`` is unavailable, ``build`` runs in this process, and a
    ``build`` that is a generator makes each result as it is consumed.
    """
    workers = min(threads, len(items), os.cpu_count() or 1)
    if workers < 2 or "fork" not in multiprocessing.get_all_start_methods():
        return iter(build(items))
    ctx = multiprocessing.get_context("fork")
    pipes = [ctx.Pipe(duplex=False) for _ in range(workers)]

    def work(w: int) -> None:
        # Keep only this worker's write end, so that each pipe has one
        # writer and reads EOF as soon as that worker exits.
        for i, (recv, send) in enumerate(pipes):
            recv.close()
            if i != w:
                send.close()
        with pipes[w][1] as send:
            send.send(list(build(items[w::workers])))

    procs: list[multiprocessing.process.BaseProcess] = []
    try:
        for w in range(workers):
            procs.append(ctx.Process(target=work, args=(w,)))
            procs[-1].start()
        for _, send in pipes:
            send.close()
        shares = []
        for w, (recv, _) in enumerate(pipes):
            try:
                shares.append(recv.recv())
            except EOFError:
                raise RuntimeError(f"worker {w} exited without its results") from None
    finally:
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
            proc.join()
        for recv, send in pipes:
            recv.close()
            send.close()
    return (shares[i % workers][i // workers] for i in range(len(items)))


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
    where ``fork`` is unavailable.  Each process grows its trees in groups
    of up to ``_GROUP_SLOTS // n`` trees, a group one depth at a time, and
    predicts each tree's out-of-bag rows; the calling process adds those
    predictions in tree order.  Results depend on neither ``threads`` nor
    the grouping.
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

    group = max(1, _GROUP_SLOTS // n)

    def build(share: list[int]) -> Iterator[tuple[RegressionTree, np.ndarray, np.ndarray]]:
        """Each tree of ``share`` with its out-of-bag mask and the tree's
        predictions for those rows."""
        for g in range(0, len(share), group):
            rngs = [SplitMix64(params.seed ^ t) for t in share[g : g + group]]
            boots = [rng.index_block(n, n) for rng in rngs]
            trees = _grow_trees(X, ranks, y, boots, rngs, params, max_features)
            for tree, boot in zip(trees, boots):
                oob = np.bincount(boot, minlength=n) == 0
                yield tree, oob, _tree_predict(tree, X[oob])

    # Out-of-bag error, accumulated in tree order for bit-stable results.
    trees = []
    sums = np.zeros(n, dtype=np.float64)
    hits = np.zeros(n, dtype=np.int64)
    for tree, oob, predicted in _build_forked(build, list(range(params.n_trees)), threads):
        trees.append(tree)
        sums[oob] += predicted
        hits[oob] += 1
    covered = hits > 0
    if covered.any():
        oob_mae = float(np.mean(np.abs(sums[covered] / hits[covered] - y[covered])))
    else:
        oob_mae = None
        logger.warning("no out-of-bag samples; oob_mae unavailable")

    return RandomForest(
        params=dataclasses.replace(params, max_features=max_features),
        schema_id=schema_id,
        n_features=d,
        trees=trees,
        oob_mae=oob_mae,
    )


def forest_shape(forest: RandomForest) -> dict:
    """The forest's shape: tree depth (the deepest leaf's, the root at depth
    0) as its maximum and mean over the trees, the leaf count, and the mean
    bootstrap samples per leaf."""
    sizes = [tree.n_nodes() for tree in forest.trees]
    first = np.cumsum([0] + sizes[:-1])
    internal = np.concatenate([tree.feature >= 0 for tree in forest.trees])
    left = np.concatenate(
        [_left_child(tree.feature) + f for tree, f in zip(forest.trees, first)]
    )
    owner = np.repeat(np.arange(len(sizes)), sizes)
    depth = np.zeros(len(sizes), dtype=np.int64)
    level, d = first, 0
    while level.size:
        depth[owner[level]] = d
        level = left[level[internal[level]]]
        level = np.concatenate([level, level + 1])
        d += 1
    leaves = int(internal.size - internal.sum())
    samples = sum(int(tree.n[tree.feature < 0].sum()) for tree in forest.trees)
    return {
        "depth_max": int(depth.max()),
        "depth_mean": float(depth.mean()),
        "leaves": leaves,
        "leaf_size_mean": samples / leaves,
    }


# ===== Prediction =====


def _tree_predict(tree: RegressionTree, X: np.ndarray) -> np.ndarray:
    left = _left_child(tree.feature)
    node = np.zeros(X.shape[0], dtype=np.int64)
    while True:
        f = tree.feature[node]
        rows = np.nonzero(f >= 0)[0]
        if rows.size == 0:
            return tree.value[node]
        cur = node[rows]
        go_left = X[rows, f[rows]] <= tree.threshold[cur]
        node[rows] = left[cur] + ~go_left


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
        l = _left_child(tree.feature)[internal]
        r = l + 1
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


# The node arrays a tree line stores, with their dtypes; lines hold them
# little-endian.  They are a ``RegressionTree``'s fields, in order.
_STORED_ARRAYS = (
    ("feature", np.int32),
    ("threshold", np.float64),
    ("value", np.float64),
    ("n", np.int64),
    ("impurity", np.float64),
)


def _little_endian(dtype) -> np.dtype:
    return np.dtype(dtype).newbyteorder("<")


def save_model(forest: RandomForest, path: Path | str) -> None:
    """Serialize a forest as JSON lines; reloading reproduces predictions
    bitwise.

    Line 1 is the header object: format version, feature schema,
    ``n_features``, params and ``oob_mae``.  Each further line is one tree,
    in tree order: an object of its five stored node arrays, each the
    base64 of the array's little-endian bytes.  Every line is
    ``json.dumps(obj, sort_keys=True)`` plus a newline.
    """
    header = {
        "format_version": MODEL_FORMAT_VERSION,
        "schema_id": forest.schema_id,
        "n_features": forest.n_features,
        "params": dataclasses.asdict(forest.params),
        "oob_mae": forest.oob_mae,
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps(header, sort_keys=True) + "\n")
        for tree in forest.trees:
            doc = {
                name: base64.b64encode(
                    np.asarray(getattr(tree, name), dtype=_little_endian(dtype)).tobytes()
                ).decode("ascii")
                for name, dtype in _STORED_ARRAYS
            }
            f.write(json.dumps(doc, sort_keys=True) + "\n")


def _read_tree(path: Path, t: int, line: str, n_features: int) -> RegressionTree:
    """Tree ``t`` of the model at ``path`` from its line, as checked node
    arrays; raises ``ValueError`` naming the file and the tree."""
    try:
        item = json.loads(line)
        if not isinstance(item, dict):
            raise ValueError("not a JSON object")
        keys = sorted(name for name, _ in _STORED_ARRAYS)
        if sorted(item) != keys:
            raise ValueError(f"keys {sorted(item)}, expected {keys}")
        arrays = {
            name: np.frombuffer(
                base64.b64decode(item[name], validate=True), dtype=_little_endian(dtype)
            ).astype(dtype)
            for name, dtype in _STORED_ARRAYS
        }
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: tree {t} is malformed: {exc}") from exc
    sizes = {arr.size for arr in arrays.values()}
    if len(sizes) != 1 or 0 in sizes:
        raise ValueError(f"{path}: tree {t} node arrays are inconsistent")
    for name in ("threshold", "value", "impurity"):
        if not np.isfinite(arrays[name]).all():
            raise ValueError(f"{path}: tree {t} has non-finite {name} entries")
    feature = arrays["feature"]
    if ((feature < -1) | (feature >= n_features)).any():
        raise ValueError(f"{path}: tree {t} references feature out of range")
    # breadth first, the j-th internal node's children are nodes 2j + 1 and
    # 2j + 2: they must exist and lie after it
    internal = np.flatnonzero(feature >= 0)
    if feature.size != 2 * internal.size + 1:
        raise ValueError(
            f"{path}: tree {t} has {feature.size} nodes, but its {internal.size} "
            f"internal nodes need {2 * internal.size + 1}: child links would dangle"
        )
    behind = internal >= 2 * np.arange(internal.size) + 1
    if behind.any():
        i = int(internal[np.argmax(behind)])
        raise ValueError(
            f"{path}: tree {t} has child links that do not point forward: "
            f"internal node {i} comes at or after its children"
        )
    return RegressionTree(**arrays)


def load_model(path: Path | str) -> RandomForest:
    """Load a serialized forest, validating structure before use.

    The header line is read and checked before any tree line is parsed, so
    a file of another format version fails with its version.  Trees are then
    read a line at a time, and each becomes its node arrays before the next
    is read, so beside the arrays the loader holds one tree's text and bytes.

    It checks the format version, the feature schema, ``n_features``, that
    the file holds ``params.n_trees`` trees, that each tree line holds
    exactly the five stored arrays as base64 of whole items, of one
    non-zero size, that thresholds, values and impurities are finite, and
    that every ``feature`` is -1 or below ``n_features``.  The child links
    are derived from the breadth-first order, so it also checks that a tree
    of k internal nodes has 2k + 1 nodes and that the j-th internal node
    comes before node 2j + 1: every node but the root then has one parent,
    which comes before it, and prediction always reaches a leaf.  Any
    failure, a byte that is not UTF-8 included, raises ``ValueError`` naming
    the file.
    """
    path = Path(path)
    try:
        with open(path, "r", encoding="utf-8") as f:
            try:
                header = json.loads(f.readline())
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: malformed model header: {exc}") from exc
            if not isinstance(header, dict):
                raise ValueError(f"{path}: malformed model header: not a JSON object")

            version = header.get("format_version")
            if version != MODEL_FORMAT_VERSION:
                raise ValueError(
                    f"{path}: unsupported model format version {version!r}, "
                    f"this build reads version {MODEL_FORMAT_VERSION}"
                )
            schema = header.get("schema_id")
            if schema not in KNOWN_SCHEMAS:
                raise ValueError(f"{path}: unknown feature schema {schema!r}")
            n_features = header.get("n_features")
            if not is_int(n_features) or n_features < 1:
                raise ValueError(f"{path}: bad n_features {n_features!r}")
            try:
                params = ForestParams(**header["params"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"{path}: bad params block: {exc}") from exc

            trees: list[RegressionTree] = []
            for t, line in enumerate(f):
                if t == params.n_trees:
                    raise ValueError(
                        f"{path}: lines after the {params.n_trees} trees of params.n_trees"
                    )
                trees.append(_read_tree(path, t, line, n_features))
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: model is not UTF-8 text: {exc}") from exc

    if not trees:
        raise ValueError(f"{path}: model has no trees")
    if len(trees) != params.n_trees:
        raise ValueError(
            f"{path}: model holds {len(trees)} trees but params.n_trees is {params.n_trees}"
        )
    return RandomForest(
        params=params,
        schema_id=schema,
        n_features=n_features,
        trees=trees,
        oob_mae=header.get("oob_mae"),
    )
