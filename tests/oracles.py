"""Independent reference implementations used to cross-check the library.

Everything here is written the slow, obvious way (pure-Python loops, full
pairwise scans) and shares no code with the package.  Where a check is
declared "exact", the oracle derives the SELECTION or PARTITION on its own
and only the final arithmetic reduction may reuse numpy, so that bit-exact
comparison is well defined.
"""

from __future__ import annotations

import base64
import csv
import json
import math
import struct
from collections import deque
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


def idw_scan(points, qx, qy, power=2.0, radius=100.0, k_max=16):
    """IDW by a full numpy scan over (id, x, y, elev) tuples of one beam,
    with the arithmetic of the library's IDW (np.hypot distances, np.sum
    reductions), so that the two agree bit for bit.

    The coincident short-circuit takes the lowest id within 1e-6; otherwise
    the k_max nearest within the radius, ties broken by id, contribute
    weights 1/d^power.  Returns None when none lies within the radius.
    """
    members = sorted(points, key=lambda p: p[0])
    ids = np.array([p[0] for p in members], dtype=np.int64)
    xs = np.array([p[1] for p in members], dtype=np.float64)
    ys = np.array([p[2] for p in members], dtype=np.float64)
    zs = np.array([p[3] for p in members], dtype=np.float64)
    d = np.hypot(xs - qx, ys - qy)
    near = np.nonzero(d < 1e-6)[0]
    if near.size:
        return float(zs[near[0]])
    in_radius = np.nonzero(d <= radius)[0]
    if in_radius.size == 0:
        return None
    order = np.lexsort((ids[in_radius], d[in_radius]))
    chosen = in_radius[order[:k_max]]
    w = 1.0 / d[chosen] ** power
    return float(np.sum(w * zs[chosen]) / np.sum(w))


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



def dbscan_pairs(table, h, eps, min_pts, height_weight=1.0):
    """DBSCAN over one list of every neighbour pair, as the package first
    computed it: core counts, components and border picks all read the
    same pair arrays, whose memory grows with the number of pairs.  Takes
    and returns what ``photons.dbscan_cluster`` does: the member count of
    each cluster and the cluster number of each row, -1 for noise."""
    from scipy.spatial import cKDTree

    n = len(table)
    label = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return np.zeros(0, dtype=np.int64), label
    order = np.argsort(table["id"], kind="stable")
    sorted_ids = table["id"][order]
    coords = np.column_stack((table["x"][order], table["y"][order], height_weight * h[order]))
    pairs = cKDTree(coords).query_pairs(eps, output_type="ndarray")
    src = np.concatenate((np.arange(n), pairs[:, 0], pairs[:, 1]))
    dst = np.concatenate((np.arange(n), pairs[:, 1], pairs[:, 0]))
    is_core = np.bincount(src, minlength=n) >= min_pts

    # components of the core points by hooking and pointer jumping, each
    # labelled by its lowest index
    link = is_core[src] & is_core[dst]
    a, b = src[link], dst[link]
    parent = np.arange(n)
    while True:
        ra, rb = parent[a], parent[b]
        cross = ra != rb
        if not cross.any():
            break
        np.minimum.at(parent, np.maximum(ra, rb)[cross], np.minimum(ra, rb)[cross])
        while True:
            up = parent[parent]
            if np.array_equal(up, parent):
                break
            parent = up
    root = np.where(is_core, parent, -1)

    border = ~is_core[src] & is_core[dst]
    bi, bj = src[border], dst[border]
    diff = coords[bi] - coords[bj]
    dist = np.sqrt(np.matmul(diff[:, None, :], diff[:, :, None])[:, 0, 0])
    pick = np.lexsort((sorted_ids[bj], dist, bi))
    pick = pick[np.diff(bi[pick], prepend=-1) != 0]
    root[bi[pick]] = root[bj[pick]]

    member = np.nonzero(root >= 0)[0]
    roots, first = np.unique(root[member], return_index=True)
    number = np.empty(n, dtype=np.int64)
    number[roots[np.argsort(first)]] = np.arange(len(roots))
    label[order[member]] = number[root[member]]
    return np.bincount(number[root[member]]), label


# ----- cluster centroids and cell thinning -----


def aggregate_direct(clusters, cell):
    """Centroids of clusters of (id, x, y, h, lc_class) tuples, thinned to
    one per cell, one cluster at a time.

    Means are np.mean over the members in the given order; the class is the
    most frequent code (ties to the lower code, 0 when no member has one);
    within a cell the larger cluster wins, then the lower mean height, then
    the lower member id.  Returns (x, y, h, size, lc_class) tuples in the
    order of their lowest member id.
    """
    best = {}
    for members in clusters:
        if not members:
            continue
        tally = {}
        for m in members:
            if m[4] is not None:
                tally[m[4]] = tally.get(m[4], 0) + 1
        lc_class = min(tally, key=lambda c: (-tally[c], c)) if tally else 0
        rec = (
            float(np.mean(np.array([m[1] for m in members], dtype=np.float64))),
            float(np.mean(np.array([m[2] for m in members], dtype=np.float64))),
            float(np.mean(np.array([m[3] for m in members], dtype=np.float64))),
            len(members),
            lc_class,
            min(m[0] for m in members),
        )
        key = (math.floor(rec[0] / cell), math.floor(rec[1] / cell))
        held = best.get(key)
        if held is None or (-rec[3], rec[2], rec[5]) < (-held[3], held[2], held[5]):
            best[key] = rec
    return [rec[:5] for rec in sorted(best.values(), key=lambda rec: rec[5])]


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


# ----- windows and handcrafted features -----


def window_direct(raster, row0, col0, size):
    """One square window of ``size`` pixels at top-left pixel (row0, col0),
    edge-replicated where it passes the raster, as the package first cut
    it: clamped index vectors, one gather.  Raises ValueError for a window
    that covers no raster pixel."""
    h = raster.header
    if not (-size < row0 < h.height and -size < col0 < h.width):
        raise ValueError(f"window at ({row0}, {col0}) of size {size} misses the raster")
    rows = np.clip(np.arange(row0, row0 + size), 0, h.height - 1)
    cols = np.clip(np.arange(col0, col0 + size), 0, h.width - 1)
    return raster.values[np.ix_(rows, cols)]


def sobel_stencil_direct(patch):
    """3x3 Sobel gradient magnitude of one 2D patch with replicated edges,
    as the package first computed it: each of the six taps of gx and of gy
    summed in stencil order, so that results agree bit for bit."""
    p = np.pad(patch.astype(np.float64), 1, mode="edge")
    gx = (
        (p[:-2, 2:] + 2.0 * p[1:-1, 2:] + p[2:, 2:])
        - (p[:-2, :-2] + 2.0 * p[1:-1, :-2] + p[2:, :-2])
    )
    gy = (
        (p[2:, :-2] + 2.0 * p[2:, 1:-1] + p[2:, 2:])
        - (p[:-2, :-2] + 2.0 * p[:-2, 1:-1] + p[:-2, 2:])
    )
    return np.hypot(gx, gy)


def hrf_features_direct(pred_patch, optical_patch, lc_patch, pred_nodata=None, lc_nodata=None):
    """The 27-slot hrf27 vector of one window, computed on its own, as the
    package first defined it: statistics over the valid prediction pixels,
    the Sobel gradient of the patch with invalid pixels filled by their
    mean, RGB statistics on [0, 1], land-cover fractions and their entropy.
    Raises ValueError when no prediction pixel is valid."""
    pred = np.asarray(pred_patch, dtype=np.float64)
    optical = np.asarray(optical_patch, dtype=np.float64)
    lc = np.asarray(lc_patch)
    valid = np.isfinite(pred)
    if pred_nodata is not None:
        valid &= pred != pred_nodata
    if not valid.any():
        raise ValueError("prediction patch contains no valid pixel")
    pv = pred[valid]

    filled = pred.copy()
    filled[~valid] = float(np.mean(pv))
    grad = sobel_stencil_direct(filled)

    def pct(values, q):
        return float(np.percentile(values, q, method="linear"))

    rgb = optical / 255.0
    r, g, b = rgb[:, :, 0], rgb[:, :, 1], rgb[:, :, 2]
    gr_index = (g - r) / (g + r + 1e-6)
    red_green_ratio = float(np.mean(r)) / (float(np.mean(g)) + 1e-6)

    lc_valid = np.ones(lc.shape, dtype=bool) if lc_nodata is None else lc != lc_nodata
    n_lc = int(lc_valid.sum())
    if n_lc > 0:
        fractions = np.bincount(lc[lc_valid].astype(np.int64), minlength=8).astype(np.float64) / n_lc
    else:
        fractions = np.zeros(8, dtype=np.float64)
    nonzero = fractions[fractions > 0]
    entropy = float(-np.sum(nonzero * np.log(nonzero))) if nonzero.size else 0.0

    return np.array(
        [
            float(np.mean(pv)), float(np.std(pv)), float(np.min(pv)), float(np.max(pv)),
            pct(pv, 90.0), pct(pv, 10.0),
            float(np.mean(grad)), float(np.std(grad)), pct(grad, 95.0),
            float(np.mean(r)), float(np.std(r)),
            float(np.mean(g)), float(np.std(g)),
            float(np.mean(b)), float(np.std(b)),
            float(np.mean(gr_index)), float(np.std(gr_index)),
            red_green_ratio,
            *fractions.tolist(),
            entropy,
        ],
        dtype=np.float64,
    )


# ----- bilinear sampling -----


def sample_bilinear_direct(raster, x, y):
    """Bilinear sample of a single-band raster at one map point, as the
    package first computed it: the four nearest pixel centers, clamped to
    the raster, weighted one corner at a time.

    Nodata and non-finite corners are dropped and the remaining weights
    renormalized.  Returns None when no corner is valid, and raises
    ValueError for a point outside the raster bounds.
    """
    h = raster.header
    if not (h.origin_x <= x <= h.origin_x + h.width * h.gsd
            and h.origin_y - h.height * h.gsd <= y <= h.origin_y):
        raise ValueError(f"point ({x}, {y}) outside raster bounds")
    fcol = (x - h.origin_x) / h.gsd - 0.5
    frow = (h.origin_y - y) / h.gsd - 0.5
    c0 = min(max(int(math.floor(fcol)), 0), max(h.width - 2, 0))
    r0 = min(max(int(math.floor(frow)), 0), max(h.height - 2, 0))
    c1 = min(c0 + 1, h.width - 1)
    r1 = min(r0 + 1, h.height - 1)
    fx = min(max(fcol - c0, 0.0), 1.0)
    fy = min(max(frow - r0, 0.0), 1.0)
    acc = 0.0
    wsum = 0.0
    for r, c, w in (
        (r0, c0, (1.0 - fx) * (1.0 - fy)),
        (r0, c1, fx * (1.0 - fy)),
        (r1, c0, (1.0 - fx) * fy),
        (r1, c1, fx * fy),
    ):
        v = float(raster.values[r, c])
        if not math.isfinite(v) or (h.nodata is not None and v == h.nodata):
            continue
        acc += w * v
        wsum += w
    if wsum == 0.0:
        return None
    return acc / wsum


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


def footprint_mean_direct(raster, x, y, diameter):
    """The footprint mean one point at a time, as the package first computed
    it: the disk's bounding square cut to the raster, its pixels taken in
    row-major order and averaged with ``np.mean``.

    Returns None where no captured pixel is valid, and raises ValueError
    where the disk misses the raster.  A disk that captures no pixel center
    takes the value of the pixel containing (x, y).
    """
    h = raster.header
    radius = diameter / 2.0
    if (
        x + radius < h.origin_x
        or x - radius > h.origin_x + h.width * h.gsd
        or y + radius < h.origin_y - h.height * h.gsd
        or y - radius > h.origin_y
    ):
        raise ValueError(f"footprint at ({x}, {y}) does not intersect the raster")

    def containing_pixel():
        if not (h.origin_x <= x <= h.origin_x + h.width * h.gsd
                and h.origin_y - h.height * h.gsd <= y <= h.origin_y):
            return None
        col = min(int(math.floor((x - h.origin_x) / h.gsd)), h.width - 1)
        row = min(int(math.floor((h.origin_y - y) / h.gsd)), h.height - 1)
        v = float(raster.values[row, col])
        return None if not math.isfinite(v) or v == h.nodata else v

    fcol = (x - h.origin_x) / h.gsd - 0.5
    frow = (h.origin_y - y) / h.gsd - 0.5
    reach = radius / h.gsd
    c_lo = max(int(math.floor(fcol - reach)), 0)
    c_hi = min(int(math.ceil(fcol + reach)), h.width - 1)
    r_lo = max(int(math.floor(frow - reach)), 0)
    r_hi = min(int(math.ceil(frow + reach)), h.height - 1)
    if c_lo > c_hi or r_lo > r_hi:
        return containing_pixel()

    cols = np.arange(c_lo, c_hi + 1)
    rows = np.arange(r_lo, r_hi + 1)
    cx = h.origin_x + (cols + 0.5) * h.gsd
    cy = h.origin_y - (rows + 0.5) * h.gsd
    in_disk = (cx[None, :] - x) ** 2 + (cy[:, None] - y) ** 2 <= radius * radius
    if not in_disk.any():
        return containing_pixel()

    block = raster.values[r_lo : r_hi + 1, c_lo : c_hi + 1]
    usable = in_disk
    if h.nodata is not None:
        usable = in_disk & (block != h.nodata)
        if not usable.any():
            return None
    vals = block[usable].astype(np.float64)
    with np.errstate(invalid="ignore"):
        mean = float(np.mean(vals))
    if math.isfinite(mean):
        return mean
    vals = vals[np.isfinite(vals)]
    return float(np.mean(vals)) if vals.size else None


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


def ssim_2d(pred, ref, valid, window=11, sigma=1.5):
    """SSIM from full-raster 2-D Gaussian correlations, as the package first
    computed it: five moment passes over float64 copies of the whole pair,
    the interior kept, windows with an invalid pixel left out."""
    from scipy import ndimage

    x = np.asarray(pred, dtype=np.float64)
    y = np.asarray(ref, dtype=np.float64)
    ref_valid = y[valid]
    dynamic_range = max(float(ref_valid.max() - ref_valid.min()), 1.0)
    c1 = (0.01 * dynamic_range) ** 2
    c2 = (0.03 * dynamic_range) ** 2
    ax = np.arange(window, dtype=np.float64) - (window - 1) / 2.0
    g = np.exp(-(ax * ax) / (2.0 * sigma * sigma))
    kernel = np.outer(g, g)
    kernel /= kernel.sum()
    half = window // 2
    interior = np.s_[half:-half, half:-half]

    def local(arr):
        return ndimage.correlate(arr, kernel, mode="constant", cval=0.0)[interior]

    with np.errstate(invalid="ignore"):
        mu_x, mu_y = local(x), local(y)
        var_x = local(x * x) - mu_x * mu_x
        var_y = local(y * y) - mu_y * mu_y
        cov = local(x * y) - mu_x * mu_y
        score = ((2.0 * mu_x * mu_y + c1) * (2.0 * cov + c2)) / (
            (mu_x * mu_x + mu_y * mu_y + c1) * (var_x + var_y + c2)
        )
    usable = ndimage.minimum_filter(valid, size=window)[interior]
    return float(np.mean(score[usable]))


def _valid_pairs(pred, ref, valid):
    return np.asarray(pred, np.float64)[valid], np.asarray(ref, np.float64)[valid]


def mae_whole(pred, ref, valid):
    """MAE over the ``valid`` pixels, as the package first computed it:
    float64 copies of every valid pixel of the pair at once."""
    p, r = _valid_pairs(pred, ref, valid)
    return float(np.mean(np.abs(p - r)))


def rmse_whole(pred, ref, valid):
    """RMSE over the ``valid`` pixels, from whole-raster float64 copies."""
    p, r = _valid_pairs(pred, ref, valid)
    d = p - r
    return float(np.sqrt(np.mean(d * d)))


def f1_counts_whole(pred, ref, valid, threshold=1.0, eta=1.25, floor=0.1):
    """(TP, FP, FN) of the height-error F1 over the ``valid`` pixels, from
    whole-raster float64 copies."""
    p, r = _valid_pairs(pred, ref, valid)
    pf = np.maximum(p, floor)
    rf = np.maximum(r, floor)
    delta = np.maximum(pf / rf, rf / pf)
    p_above = p > threshold
    r_above = r > threshold
    tp = int(np.count_nonzero(p_above & r_above & (delta < eta)))
    fp = int(np.count_nonzero(p_above & ~r_above))
    return tp, fp, int(np.count_nonzero(r_above)) - tp


def f1_whole(pred, ref, valid, threshold=1.0, eta=1.25, floor=0.1):
    """(precision, recall, F1) from ``f1_counts_whole``; 0 where undefined."""
    tp, fp, fn = f1_counts_whole(pred, ref, valid, threshold, eta, floor)
    precision = tp / (tp + fp) if (tp + fp) > 0 else 0.0
    recall = tp / (tp + fn) if (tp + fn) > 0 else 0.0
    f1 = 2.0 * precision * recall / (precision + recall) if (precision + recall) > 0 else 0.0
    return precision, recall, f1


def ssim_separable(pred, ref, valid, window=11, sigma=1.5, strip=64):
    """SSIM from separable Gaussian moments over strips of ``strip`` output
    rows, as the package computed it before scoring went strip-wise: the
    dynamic range from a float64 copy of every valid reference pixel, the
    usable windows from one whole-raster minimum filter, and the mean over
    the concatenated scores of all strips.  None where no window is usable."""
    from scipy import ndimage

    pred = np.asarray(pred)
    ref = np.asarray(ref)
    ref_valid = ref[valid].astype(np.float64)
    dynamic_range = max(float(ref_valid.max() - ref_valid.min()), 1.0)
    c1 = (0.01 * dynamic_range) ** 2
    c2 = (0.03 * dynamic_range) ** 2
    ax = np.arange(window, dtype=np.float64) - (window - 1) / 2.0
    g = np.exp(-(ax * ax) / (2.0 * sigma * sigma))
    kernel = g / g.sum()
    half = window // 2

    def local(arr):
        cols = ndimage.correlate1d(arr, kernel, axis=1)[:, half:-half]
        return ndimage.correlate1d(cols, kernel, axis=0)[half:-half]

    usable = ndimage.minimum_filter(valid, size=window)[half:-half, half:-half]
    if not usable.any():
        return None
    scores = []
    n_out = ref.shape[0] - 2 * half
    for r0 in range(0, n_out, strip):
        r1 = min(r0 + strip, n_out)
        x = pred[r0 : r1 + 2 * half].astype(np.float64)
        y = ref[r0 : r1 + 2 * half].astype(np.float64)
        with np.errstate(invalid="ignore"):
            mu_x = local(x)
            mu_y = local(y)
            var_x = local(x * x) - mu_x * mu_x
            var_y = local(y * y) - mu_y * mu_y
            cov = local(x * y) - mu_x * mu_y
            score = ((2.0 * mu_x * mu_y + c1) * (2.0 * cov + c2)) / (
                (mu_x * mu_x + mu_y * mu_y + c1) * (var_x + var_y + c2)
            )
        scores.append(score[usable[r0:r1]])
    return float(np.mean(np.concatenate(scores)))


def per_class_whole(pred, ref, codes, valid, n_classes=8):
    """Per-class (code, n_pixels, mae, rmse, bias) over the ``valid`` pixels,
    one whole-raster mask per class code below ``n_classes``."""
    diff = np.asarray(pred, np.float64) - np.asarray(ref, np.float64)
    rows = []
    for code in range(n_classes):
        mask = valid & (codes == code)
        n = int(mask.sum())
        if n == 0:
            continue
        d = diff[mask]
        rows.append((code, n, float(np.mean(np.abs(d))), float(np.sqrt(np.mean(d * d))),
                     float(np.mean(d))))
    return rows


# ----- residual field -----


def window_origins_direct(extent, patch, stride):
    """Window start offsets along one axis at ``stride``, the last one
    clamped to the edge."""
    last = max(extent - patch, 0)
    origins = list(range(0, last + 1, stride))
    if origins[-1] != last:
        origins.append(last)
    return origins


def residual_field_whole(valid, patch, stride, score):
    """(values, weights, windows) of the residual field as the package first
    built it, over the whole raster at once: the windows holding a valid
    pixel from one int64 summed-area table of ``valid``, in row-major
    order; ``score(windows)`` gives one scalar per window (row0, col0); the
    scalars summed in that order into float64 and int32 rasters; the
    float32 quotient, 0 where no window covers a pixel."""
    height, width = valid.shape
    rows0 = np.array(window_origins_direct(height, patch, stride))
    cols0 = np.array(window_origins_direct(width, patch, stride))
    sat = np.zeros((height + 1, width + 1), dtype=np.int64)
    np.cumsum(np.cumsum(valid, axis=0), axis=1, out=sat[1:, 1:])
    top, left = rows0[:, None], cols0[None, :]
    bottom = np.minimum(top + patch, height)
    right = np.minimum(left + patch, width)
    counts = sat[bottom, right] - sat[top, right] - sat[bottom, left] + sat[top, left]
    hit_r, hit_c = np.nonzero(counts)
    windows = list(zip(rows0[hit_r].tolist(), cols0[hit_c].tolist()))
    scalars = score(windows)
    acc = np.zeros((height, width), dtype=np.float64)
    cover = np.zeros((height, width), dtype=np.int32)
    for (r0, c0), scalar in zip(windows, scalars):
        acc[r0 : r0 + patch, c0 : c0 + patch] += scalar
        cover[r0 : r0 + patch, c0 : c0 + patch] += 1
    values = np.divide(acc, cover, out=np.zeros_like(acc), where=cover > 0).astype(np.float32)
    return values, cover, windows


# ----- clean-photon CSV -----


def read_clean_direct(path):
    """Clean-photon CSV rows as (x, y, h_ag, kind, lc_class, cluster_size)
    tuples, parsed a row at a time with the csv module; raises ValueError
    naming the bad header or the first malformed row, a row without exactly
    six fields or with a non-finite x, y or h_ag counting as malformed."""
    with open(path, "r", encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != [
            "x", "y", "h_ag", "kind", "lc_class", "cluster_size"
        ]:
            raise ValueError(f"{path}: bad header")
        out = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                if len(row) != 6 or row[3] not in ("ground", "object"):
                    raise ValueError(row[3])
                x, y, h_ag = float(row[0]), float(row[1]), float(row[2])
                if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(h_ag)):
                    raise ValueError(row[:3])
                out.append((x, y, h_ag, row[3], int(row[4]), int(row[5])))
            except (ValueError, IndexError):
                raise ValueError(f"{path}: malformed row {lineno}: {row!r}") from None
    return out


# ----- random forest: the loop-based grower -----
#
# The per-node grower, feature draw, importance loop and model writer as
# first written: one numpy pass per node, a Python Fisher-Yates per draw, a
# Python loop per split for importance and one ``json.dumps`` per line.
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
    """Grow one tree on the given sample indices (bootstrap multiset),
    visiting nodes from a FIFO queue: they are numbered, and draw their
    feature subsets, in breadth-first order."""
    d = X.shape[1]
    msl = params.min_samples_leaf
    feature = []
    threshold = []
    left = []
    right = []
    value = []
    n_node = []
    impurity = []

    queue = deque([(root_idx, 0, -1, 0)])
    while queue:
        idx, depth, parent, side = queue.popleft()
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
        queue.append((left_idx, depth + 1, nid, 0))
        queue.append((right_idx, depth + 1, nid, 1))

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
    seed XOR tree index, the bootstrap first, then one draw per split-searched
    node in breadth-first order."""
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
    """The model file as JSON lines: the header object, then one line per
    tree, each of its five stored arrays packed value by value as
    little-endian bytes and base64-encoded; the child links are left out."""
    header = {
        "format_version": 4,
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
    codes = {"feature": "i", "threshold": "d", "value": "d", "n": "q", "impurity": "d"}
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps(header, sort_keys=True) + "\n")
        for tree in forest.trees:
            doc = {}
            for name, code in codes.items():
                values = getattr(tree, name).tolist()
                packed = struct.pack(f"<{len(values)}{code}", *values)
                doc[name] = base64.b64encode(packed).decode("ascii")
            f.write(json.dumps(doc, sort_keys=True) + "\n")


# ----- whole-array set-up and writers -----
#
# The scene generator, the corruption and the writers as they were before
# they worked in row strips and blocks: every step over the whole raster or
# table at once.  The strip and block forms must match them bit for bit.

_LC_BARELAND, _LC_RANGELAND, _LC_DEVELOPED, _LC_ROAD = 0, 1, 2, 3
_LC_TREE, _LC_WATER, _LC_AGRICULTURE, _LC_BUILDING = 4, 5, 6, 7
_PLANTABLE_CODES = (_LC_RANGELAND, _LC_BARELAND, _LC_AGRICULTURE)


def _stamp_rects_whole(rng, lc, code, count, side_range):
    n = lc.shape[0]
    for _ in range(count):
        w = int(rng.integers(side_range[0], side_range[1] + 1))
        h = int(rng.integers(side_range[0], side_range[1] + 1))
        c0 = int(rng.integers(0, max(n - w, 1)))
        r0 = int(rng.integers(0, max(n - h, 1)))
        lc[r0 : r0 + h, c0 : c0 + w] = code


def generate_scene_whole(cfg):
    """(truth, landcover, dtm) value arrays of a ``SceneConfig``: truth in
    float64 over the whole raster, terrain over n x n meshgrids, both cast
    to float32 at the end; the water disk is tested on every pixel."""
    from scipy import ndimage

    n = cfg.size
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    lc = np.full((n, n), _LC_RANGELAND, dtype=np.uint8)
    truth = np.zeros((n, n), dtype=np.float64)
    _stamp_rects_whole(rng, lc, _LC_AGRICULTURE, 3, (n // 8, n // 4))
    _stamp_rects_whole(rng, lc, _LC_BARELAND, 2, (n // 10, n // 5))

    wr = int(rng.integers(n // 16, n // 8))
    wc = int(rng.integers(wr, n - wr))
    wrow = int(rng.integers(wr, n - wr))
    yy, xx = np.ogrid[:n, :n]
    lc[(yy - wrow) ** 2 + (xx - wc) ** 2 <= wr * wr] = _LC_WATER

    road_w = max(n // 64, 4)
    rrow = int(rng.integers(0, n - road_w))
    rcol = int(rng.integers(0, n - road_w))
    lc[rrow : rrow + road_w, :] = _LC_ROAD
    lc[:, rcol : rcol + road_w] = _LC_ROAD

    total = float(n * n)
    min_side = max(n // 42, 8)
    max_side = max(n // 10, min_side + 1)
    built = 0
    for _ in range(20000):
        if float(built) / total >= cfg.building_density:
            break
        w = int(rng.integers(min_side, max_side + 1))
        h = int(rng.integers(min_side, max_side + 1))
        c0 = int(rng.integers(0, n - w))
        r0 = int(rng.integers(0, n - h))
        height = float(
            np.exp(rng.normal(cfg.building_height_mu_log, cfg.building_height_sigma_log))
        )
        height = min(max(height, 3.0), 120.0)
        block = truth[r0 : r0 + h, c0 : c0 + w]
        np.maximum(block, height, out=block)
        lc_block = lc[r0 : r0 + h, c0 : c0 + w]
        built += lc_block.size - np.count_nonzero(lc_block == _LC_BUILDING)
        lc_block[...] = _LC_BUILDING

    buildings = lc == _LC_BUILDING
    apron = ndimage.binary_dilation(buildings, iterations=2) & ~buildings
    lc[apron & np.isin(lc, _PLANTABLE_CODES)] = _LC_DEVELOPED

    lo, hi = cfg.tree_height_range
    r_min = max(int(round(2.0 / cfg.gsd)), 2)
    r_max = max(int(round(5.0 / cfg.gsd)), r_min + 1)
    treed = 0
    for _ in range(20000):
        if float(treed) / total >= cfg.tree_density:
            break
        radius = int(rng.integers(r_min, r_max + 1))
        cc = int(rng.integers(0, n))
        cr = int(rng.integers(0, n))
        height = float(rng.uniform(lo, hi))
        r0, r1 = max(cr - radius, 0), min(cr + radius + 1, n)
        c0, c1 = max(cc - radius, 0), min(cc + radius + 1, n)
        sub_y, sub_x = np.ogrid[r0:r1, c0:c1]
        disk = (sub_y - cr) ** 2 + (sub_x - cc) ** 2 <= radius * radius
        sel = disk & np.isin(lc[r0:r1, c0:c1], _PLANTABLE_CODES)
        patch = truth[r0:r1, c0:c1]
        patch[sel] = np.maximum(patch[sel], height)
        lc[r0:r1, c0:c1][sel] = _LC_TREE
        treed += np.count_nonzero(sel)

    extent = n * cfg.gsd
    xs = (np.arange(n) + 0.5) * cfg.gsd
    X, Y = np.meshgrid(xs, xs)
    surface = np.zeros((n, n), dtype=np.float64)
    weights = rng.uniform(0.4, 1.0, size=4)
    weights /= weights.sum()
    for i in range(4):
        wavelength = float(rng.uniform(0.4, 1.6)) * extent
        angle = float(rng.uniform(0.0, math.pi))
        phase = float(rng.uniform(0.0, 2.0 * math.pi))
        k = 2.0 * math.pi / wavelength
        surface += weights[i] * np.cos(k * (X * math.cos(angle) + Y * math.sin(angle)) + phase)
    dtm = cfg.base_elevation + cfg.terrain_amplitude * surface
    return truth.astype(np.float32), lc, dtm.astype(np.float32)


def corrupt_prediction_whole(truth, lc, gsd, cfg):
    """The float32 prediction of a ``CorruptionConfig`` over truth and
    land-cover value arrays, computed over the whole raster in float64."""
    from scipy import ndimage

    values = truth.astype(np.float64) * cfg.alpha + cfg.beta
    if cfg.class_bias:
        bias = np.zeros(8, dtype=np.float64)
        for code, meters in cfg.class_bias.items():
            bias[int(code)] = float(meters)
        values += bias[lc]
    if cfg.noise_sigma > 0:
        rng = np.random.Generator(np.random.PCG64(cfg.seed))
        noise = rng.standard_normal(values.shape)
        if cfg.noise_corr > 0:
            noise = ndimage.gaussian_filter(noise, sigma=cfg.noise_corr / gsd)
        spread = float(noise.std())
        if spread > 0:
            noise = noise * (cfg.noise_sigma / spread)
        values += noise
    np.maximum(values, 0.0, out=values)
    return values.astype(np.float32)


def photons_csv_whole(table):
    """Bytes of a photon table's CSV, every row formatted before writing."""
    rows = [
        f"{pid},{x!r},{y!r},{elev!r},{conf},{klass},{beam},{t!r}\r\n"
        for pid, x, y, elev, conf, klass, beam, t in table.tolist()
    ]
    return ("id,x,y,elev,signal_conf,atl08_class,beam,t\r\n" + "".join(rows)).encode("utf-8")


def clean_csv_whole(clean):
    """Bytes of a clean-photon table's CSV, every row formatted before writing."""
    rows = [
        f"{x!r},{y!r},{h!r},{kind},{lc_class},{size}\r\n"
        for x, y, h, kind, lc_class, size in clean.tolist()
    ]
    return ("x,y,h_ag,kind,lc_class,cluster_size\r\n" + "".join(rows)).encode("utf-8")


def raster_payload_whole(values, bands, dtype):
    """The ``.bin`` bytes of a raster: float32 little-endian or uint8, in
    row-major order; multiband float32 band-sequential, multiband uint8
    pixel-interleaved."""
    if bands > 1 and dtype == "float32":
        return np.ascontiguousarray(np.moveaxis(values, 2, 0)).astype("<f4").tobytes()
    return values.astype("<f4" if dtype == "float32" else "u1").tobytes()


# ----- track simulation -----


def simulate_tracks_concat(truth, dtm, cfg):
    """The photons of a ``TrackConfig`` over truth and DTM rasters, as the
    track simulation first made them: each track's photons a table of their
    own, made one sample at a time, the tables concatenated at the end with
    the codes at int64 width.  The RNG draws are made per track in the
    simulation's order."""
    h = truth.header
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    az = math.radians(cfg.track_azimuth)
    dir_x, dir_y = math.sin(az), math.cos(az)
    perp_x, perp_y = math.cos(az), -math.sin(az)
    extent_x, extent_y = h.width * h.gsd, h.height * h.gsd
    cx = h.origin_x + extent_x / 2.0
    cy = h.origin_y - extent_y / 2.0
    reach = math.hypot(extent_x, extent_y) / 2.0 + cfg.along_spacing
    s_values = np.arange(-reach, reach + cfg.along_spacing, cfg.along_spacing).tolist()

    parts = []
    for track in range(cfg.n_tracks):
        offset = (track - (cfg.n_tracks - 1) / 2.0) * cfg.cross_spacing
        ox, oy = cx + offset * perp_x, cy + offset * perp_y
        samples = []
        for s in s_values:
            x, y = ox + s * dir_x, oy + s * dir_y
            if (h.origin_x <= x <= h.origin_x + extent_x
                    and h.origin_y - extent_y <= y <= h.origin_y):
                samples.append((x, y, s))
        m = len(samples)
        if m == 0:
            continue
        noise = rng.normal(0.0, cfg.noise_sigma, size=m) if cfg.noise_sigma > 0 else np.zeros(m)
        confs = rng.choice(5, size=m, p=np.asarray(cfg.conf_profile, dtype=np.float64))
        keep = rng.random(m) >= cfg.dropout
        rows = []
        for (x, y, s), e, conf, kept in zip(samples, noise.tolist(), confs.tolist(), keep.tolist()):
            ground = sample_bilinear_direct(dtm, x, y) if kept else None
            if ground is None:
                continue
            col = min(math.floor((x - h.origin_x) / h.gsd), h.width - 1)
            row = min(math.floor((h.origin_y - y) / h.gsd), h.height - 1)
            t_val = float(truth.values[row, col])
            t = track * 10.0 + (s - samples[0][2]) / 7000.0
            rows.append((x, y, ground + t_val + e, conf, 1 if t_val < 0.5 else 3, track, t))
        parts.append(np.array(rows, dtype=[
            ("x", "<f8"), ("y", "<f8"), ("elev", "<f8"), ("signal_conf", "<i8"),
            ("atl08_class", "<i8"), ("beam", "<i8"), ("t", "<f8"),
        ]))
    table = np.concatenate(parts)
    return {"id": np.arange(len(table)), **{name: table[name] for name in table.dtype.names}}
