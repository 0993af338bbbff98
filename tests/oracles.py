"""Independent reference implementations used to cross-check the library.

Everything here is written the slow, obvious way (pure-Python loops, full
pairwise scans) and shares no code with the package.  Where a check is
declared "exact", the oracle derives the SELECTION or PARTITION on its own
and only the final arithmetic reduction may reuse numpy, so that bit-exact
comparison is well defined.
"""

from __future__ import annotations

import json
import math
from types import SimpleNamespace

import numpy as np


# ----- inverse-distance weighting -----


def idw_direct(points, qx, qy, power=2.0, radius=100.0, k_max=16):
    """Direct-summation IDW over (id, x, y, elev) tuples.

    Coincident points (distance < 1e-6) short-circuit to their elevation;
    otherwise the k_max nearest within the radius, ties broken by id,
    contribute weights 1/d^power.
    """
    ranked = []
    for pid, x, y, elev in points:
        d = math.hypot(x - qx, y - qy)
        if d < 1e-6:
            return elev
        if d <= radius:
            ranked.append((d, pid, elev))
    ranked.sort(key=lambda t: (t[0], t[1]))
    ranked = ranked[:k_max]
    if not ranked:
        return None
    num = 0.0
    den = 0.0
    for d, _pid, elev in ranked:
        w = 1.0 / d**power
        num += w * elev
        den += w
    return num / den


# ----- DBSCAN reachability -----


def dbscan_brute(points, eps, min_pts):
    """Brute-force DBSCAN partition over 3-D points.

    Returns (clusters, noise) where clusters is a list of frozensets of
    point indices and noise is a frozenset.  Clusters are the connected
    components of core points under eps-adjacency; border points join the
    cluster of their nearest core (ties to the lowest core index).
    """
    n = len(points)
    dist = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d = math.dist(points[i], points[j])
            dist[i][j] = d
            dist[j][i] = d

    neighbor_counts = [sum(1 for j in range(n) if dist[i][j] <= eps) for i in range(n)]
    cores = [i for i in range(n) if neighbor_counts[i] >= min_pts]
    core_set = set(cores)

    label = {}
    for start in cores:
        if start in label:
            continue
        queue = [start]
        label[start] = start
        while queue:
            i = queue.pop()
            for j in cores:
                if j not in label and dist[i][j] <= eps:
                    label[j] = start
                    queue.append(j)

    assignments = {}
    noise = set()
    for i in range(n):
        if i in core_set:
            assignments[i] = label[i]
            continue
        best = None
        for j in cores:
            if dist[i][j] <= eps:
                key = (dist[i][j], j)
                if best is None or key < best[0]:
                    best = (key, j)
        if best is None:
            noise.add(i)
        else:
            assignments[i] = label[best[1]]

    clusters = {}
    for i, root in assignments.items():
        clusters.setdefault(root, set()).add(i)
    ordered = sorted(clusters.values(), key=min)
    return [frozenset(c) for c in ordered], frozenset(noise)


# ----- Sobel magnitude -----


def sobel_direct(patch):
    """3x3 Sobel gradient magnitude with replicated edges, plain loops."""
    arr = [[float(v) for v in row] for row in np.asarray(patch, dtype=np.float64)]
    h = len(arr)
    w = len(arr[0])
    kx = [[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]]
    ky = [[-1, -2, -1], [0, 0, 0], [1, 2, 1]]

    def at(r, c):
        return arr[min(max(r, 0), h - 1)][min(max(c, 0), w - 1)]

    out = np.zeros((h, w), dtype=np.float64)
    for r in range(h):
        for c in range(w):
            gx = 0.0
            gy = 0.0
            for dr in (-1, 0, 1):
                for dc in (-1, 0, 1):
                    v = at(r + dr, c + dc)
                    gx += kx[dr + 1][dc + 1] * v
                    gy += ky[dr + 1][dc + 1] * v
            out[r, c] = math.hypot(gx, gy)
    return out


# ----- footprint and percentile -----


def footprint_pixels(width, height, gsd, origin_x, origin_y, x, y, diameter):
    """All (row, col) whose pixel center lies within the footprint disk.

    Membership uses squared distance so boundary ties resolve the same way
    regardless of how the distance is later reduced.
    """
    radius = diameter / 2.0
    hits = []
    for row in range(height):
        for col in range(width):
            cx = origin_x + (col + 0.5) * gsd
            cy = origin_y - (row + 0.5) * gsd
            if (cx - x) ** 2 + (cy - y) ** 2 <= radius * radius:
                hits.append((row, col))
    return hits


def percentile_direct(values, q):
    """Linear-interpolation percentile from first principles."""
    v = sorted(float(x) for x in values)
    n = len(v)
    if n == 1:
        return v[0]
    pos = (q / 100.0) * (n - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, n - 1)
    frac = pos - lo
    return v[lo] + (v[hi] - v[lo]) * frac


# ----- error metrics -----


def mae_direct(pred, ref, pred_nodata=None, ref_nodata=None):
    total = 0.0
    count = 0
    for p, r in _paired(pred, ref, pred_nodata, ref_nodata):
        total += abs(p - r)
        count += 1
    return total / count


def rmse_direct(pred, ref, pred_nodata=None, ref_nodata=None):
    total = 0.0
    count = 0
    for p, r in _paired(pred, ref, pred_nodata, ref_nodata):
        total += (p - r) ** 2
        count += 1
    return math.sqrt(total / count)


def f1_direct(pred, ref, threshold=1.0, eta=1.25, floor=0.1, pred_nodata=None, ref_nodata=None):
    tp = fp = n_ref_above = 0
    for p, r in _paired(pred, ref, pred_nodata, ref_nodata):
        pf = max(p, floor)
        rf = max(r, floor)
        delta = max(pf / rf, rf / pf)
        if r > threshold:
            n_ref_above += 1
            if p > threshold and delta < eta:
                tp += 1
        elif p > threshold:
            fp += 1
    fn = n_ref_above - tp
    precision = tp / (tp + fp) if (tp + fp) > 0 else 0.0
    recall = tp / (tp + fn) if (tp + fn) > 0 else 0.0
    f1 = 2 * precision * recall / (precision + recall) if (precision + recall) > 0 else 0.0
    return precision, recall, f1


def _paired(pred, ref, pred_nodata, ref_nodata):
    pred = np.asarray(pred, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    for i in range(pred.shape[0]):
        for j in range(pred.shape[1]):
            p = float(pred[i, j])
            r = float(ref[i, j])
            if pred_nodata is not None and p == pred_nodata:
                continue
            if ref_nodata is not None and r == ref_nodata:
                continue
            yield p, r


# ----- SSIM -----


def gaussian_weights_direct(window, sigma):
    c = (window - 1) / 2.0
    line = [math.exp(-((i - c) ** 2) / (2.0 * sigma**2)) for i in range(window)]
    grid = [[a * b for b in line] for a in line]
    total = sum(sum(row) for row in grid)
    return [[v / total for v in row] for row in grid]


def ssim_direct(
    pred,
    ref,
    window=11,
    sigma=1.5,
    pred_nodata=None,
    ref_nodata=None,
):
    """Loop-based SSIM mean over interior windows, nodata windows skipped.

    The dynamic range comes from the reference's valid extremes, clamped to
    at least 1.  Per-window statistics are Gaussian-weighted.
    """
    pred = np.asarray(pred, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    h, w = ref.shape
    half = window // 2
    weights = gaussian_weights_direct(window, sigma)

    valid = np.ones((h, w), dtype=bool)
    if pred_nodata is not None:
        valid &= pred != pred_nodata
    if ref_nodata is not None:
        valid &= ref != ref_nodata

    ref_valid = ref[valid]
    length = float(ref_valid.max() - ref_valid.min())
    length = max(length, 1.0)
    c1 = (0.01 * length) ** 2
    c2 = (0.03 * length) ** 2

    scores = []
    for r in range(half, h - half):
        for c in range(half, w - half):
            ok = True
            mx = my = xx = yy = xy = 0.0
            for dr in range(-half, half + 1):
                for dc in range(-half, half + 1):
                    if not valid[r + dr, c + dc]:
                        ok = False
                        break
                    wgt = weights[dr + half][dc + half]
                    a = float(pred[r + dr, c + dc])
                    b = float(ref[r + dr, c + dc])
                    mx += wgt * a
                    my += wgt * b
                    xx += wgt * a * a
                    yy += wgt * b * b
                    xy += wgt * a * b
                if not ok:
                    break
            if not ok:
                continue
            vx = xx - mx * mx
            vy = yy - my * my
            cov = xy - mx * my
            score = ((2 * mx * my + c1) * (2 * cov + c2)) / (
                (mx * mx + my * my + c1) * (vx + vy + c2)
            )
            scores.append(score)
    if not scores:
        raise ValueError("every window touches nodata")
    return sum(scores) / len(scores)


# ----- random forest: the loop-based grower -----
#
# The per-node grower, feature draw, importance loop and model writer as
# first written: one numpy pass per node, a Python Fisher-Yates per draw, a
# Python loop per split for importance and ``json.dump`` for the document.
# Trees are SimpleNamespace objects with the attribute names of the package's
# RegressionTree, so save_model_direct writes either kind.


class SplitMix64Direct:
    """The documented SplitMix64 recurrence, one Python integer at a time."""

    def __init__(self, seed):
        self.seed = seed & ((1 << 64) - 1)
        self.counter = 0

    def next_u64(self):
        mask = (1 << 64) - 1
        self.counter += 1
        z = (self.seed + self.counter * 0x9E3779B97F4A7C15) & mask
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & mask
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB & mask
        return z ^ (z >> 31)

    def randint(self, n):
        v = int((self.next_u64() >> 11) * 2.0**-53 * n)
        return n - 1 if v >= n else v


def choose_k_direct(rng, d, k):
    """k distinct integers from [0, d), ascending."""
    if not (1 <= k <= d):
        raise ValueError(f"cannot choose {k} of {d} features")
    pool = list(range(d))
    for i in range(k):
        j = i + rng.randint(d - i)
        pool[i], pool[j] = pool[j], pool[i]
    return np.array(sorted(pool[:k]), dtype=np.int64)


def _best_split(X, y, idx, feats, min_samples_leaf):
    """Exhaustive best split of one node over the drawn feature subset.

    Candidate thresholds are midpoints between consecutive distinct sorted
    values.  The criterion is weighted variance reduction; ties go to the
    lower feature index, then the lower threshold.  Returns None when no
    candidate reduces variance.
    """
    m = idx.size
    Xs = X[idx[:, None], feats[None, :]]
    order = np.argsort(Xs, axis=0, kind="stable")
    xs = np.take_along_axis(Xs, order, axis=0)
    ys = y[idx][order]

    csum = np.cumsum(ys, axis=0)
    totals = csum[-1, :]
    nl = np.arange(1, m, dtype=np.float64)[:, None]
    nr = np.float64(m) - nl
    sl = csum[:-1, :]
    sr = totals[None, :] - sl
    crit = sl * sl / nl + sr * sr / nr

    valid = xs[1:, :] > xs[:-1, :]
    if min_samples_leaf > 1:
        pos = np.arange(1, m)
        room = (pos >= min_samples_leaf) & (m - pos >= min_samples_leaf)
        valid &= room[:, None]
    crit = np.where(valid, crit, -np.inf)

    # argmax picks the first maximum: lowest threshold within a column,
    # lowest feature index across columns (feats are ascending).
    rows = np.argmax(crit, axis=0)
    col_vals = crit[rows, np.arange(feats.size)]
    j = int(np.argmax(col_vals))
    best = float(col_vals[j])
    if not np.isfinite(best):
        return None
    baseline = float(np.sum(y[idx])) ** 2 / m
    if not (best > baseline):
        return None

    i = int(rows[j])
    lo = float(xs[i, j])
    hi = float(xs[i + 1, j])
    thr = (lo + hi) / 2.0
    if thr >= hi:  # adjacent floats: keep both children non-empty
        thr = lo
    left_idx = idx[order[: i + 1, j]]
    right_idx = idx[order[i + 1 :, j]]
    return int(feats[j]), thr, left_idx, right_idx


def _grow_tree(X, y, root_idx, params, max_features, rng):
    """Grow one tree on the given sample indices (bootstrap multiset)."""
    d = X.shape[1]
    msl = params.min_samples_leaf
    feature = []
    threshold = []
    left = []
    right = []
    value = []
    n_node = []
    impurity = []

    stack = [(root_idx, 0, -1, 0)]
    while stack:
        idx, depth, parent, side = stack.pop()
        nid = len(feature)
        if parent >= 0:
            if side == 0:
                left[parent] = nid
            else:
                right[parent] = nid
        y_node = y[idx]
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(float(np.mean(y_node)))
        n_node.append(int(idx.size))
        impurity.append(float(np.var(y_node)))

        if idx.size < 2 * msl:
            continue
        if params.max_depth is not None and depth >= params.max_depth:
            continue
        if np.ptp(y_node) == 0.0:
            continue

        feats = choose_k_direct(rng, d, max_features)
        split = _best_split(X, y, idx, feats, msl)
        if split is None:
            continue
        f, thr, left_idx, right_idx = split
        feature[nid] = f
        threshold[nid] = thr
        stack.append((right_idx, depth + 1, nid, 1))
        stack.append((left_idx, depth + 1, nid, 0))

    return SimpleNamespace(
        feature=np.array(feature, dtype=np.int32),
        threshold=np.array(threshold, dtype=np.float64),
        left=np.array(left, dtype=np.int32),
        right=np.array(right, dtype=np.int32),
        value=np.array(value, dtype=np.float64),
        n=np.array(n_node, dtype=np.int64),
        impurity=np.array(impurity, dtype=np.float64),
    )


def _route_direct(tree, row):
    node = 0
    while tree.feature[node] >= 0:
        if row[tree.feature[node]] <= tree.threshold[node]:
            node = tree.left[node]
        else:
            node = tree.right[node]
    return float(tree.value[node])


def train_forest_direct(X, y, schema_id, params):
    """Serial forest on a feature matrix, with the documented stream per tree:
    seed XOR tree index, the bootstrap first, then one draw per node."""
    n, d = X.shape
    max_features = params.max_features if params.max_features is not None else math.ceil(d / 3)
    max_features = min(max_features, d)
    trees = []
    sums = [0.0] * n
    hits = [0] * n
    for t in range(params.n_trees):
        rng = SplitMix64Direct(params.seed ^ t)
        boot = np.array([rng.randint(n) for _ in range(n)], dtype=np.int64)
        tree = _grow_tree(X, y, boot, params, max_features, rng)
        trees.append(tree)
        drawn = set(boot.tolist())
        for i in range(n):
            if i not in drawn:
                sums[i] += _route_direct(tree, X[i])
                hits[i] += 1
    errors = [abs(sums[i] / hits[i] - y[i]) for i in range(n) if hits[i] > 0]
    return SimpleNamespace(
        params=SimpleNamespace(
            n_trees=params.n_trees,
            max_depth=params.max_depth,
            min_samples_leaf=params.min_samples_leaf,
            max_features=max_features,
            seed=params.seed,
        ),
        schema_id=schema_id,
        n_features=d,
        trees=trees,
        oob_mae=float(np.mean(errors)) if errors else None,
    )


def feature_importance_direct(forest):
    """Impurity-decrease importance, one split at a time, normalized to 1."""
    total = np.zeros(forest.n_features, dtype=np.float64)
    for tree in forest.trees:
        contrib = np.zeros(forest.n_features, dtype=np.float64)
        root_n = float(tree.n[0])
        internal = np.nonzero(tree.feature >= 0)[0]
        for nid in internal:
            l = tree.left[nid]
            r = tree.right[nid]
            child = (tree.n[l] * tree.impurity[l] + tree.n[r] * tree.impurity[r]) / tree.n[nid]
            delta = tree.impurity[nid] - child
            contrib[tree.feature[nid]] += delta * (tree.n[nid] / root_n)
        total += contrib
    total /= len(forest.trees)
    s = float(total.sum())
    if s <= 0.0:
        return np.full(forest.n_features, 1.0 / forest.n_features)
    return total / s


def save_model_direct(forest, path):
    """The model document written in one ``json.dump`` call."""
    doc = {
        "format_version": 1,
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
        "trees": [
            {
                "feature": tree.feature.tolist(),
                "threshold": tree.threshold.tolist(),
                "left": tree.left.tolist(),
                "right": tree.right.tolist(),
                "value": tree.value.tolist(),
                "n": tree.n.tolist(),
                "impurity": tree.impurity.tolist(),
            }
            for tree in forest.trees
        ],
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, sort_keys=True)
        f.write("\n")
