"""Spans around the program's public functions, recorded from outside it.

Each traced function is replaced, where its caller looks it up, by a
wrapper that records one span: layer name, start, end, CPU seconds, parent
span, thread and the counts the call adds.  Spans stay in memory and are
written out when the run ends.  A function that no longer exists is
skipped, so its layer reads as absent and the run still completes.

Thread pools start their tasks with an empty span stack; such a span takes
the innermost open span of the main thread as its parent, which is the
stage call that started the pool.

A layer's busy seconds are CPU time, so that a pool thread waiting for the
GIL does not count as busy.  A span on a pool thread takes that thread's
CPU time.  A span on the main thread takes the whole process's CPU time:
the main thread only waits while a pool runs, and pools start and end
inside one stage call, so the process's CPU time over such a span is the
CPU time of the threads working for it, summed.  Self time is wall time.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import namedtuple
from pathlib import Path

from lidar_anchor import correction, forest, metrics, photons, pipeline, scaling, synth


_ONE = (1,)


def _one(args, result):
    return _ONE


def _size(args, result):
    return (len(result),)


# (layer, module, attribute path, counter names, counts(args, result) -> values)
# The module is the one the caller looks the function up in.
SETUP_POINTS = [
    ("synth.generate_scene", synth, "generate_scene", (), None),
    ("synth.simulate_tracks", synth, "simulate_tracks", ("synth.photons",), _size),
    ("synth.corrupt_prediction", synth, "corrupt_prediction", (), None),
    ("photons.write_photons_csv", photons, "write_photons_csv", (), None),
]

RUN_POINTS = [
    ("photons.load_photons", photons, "load_photons", ("photons.loaded",), _size),
    ("photons.ground_idw", photons, "GroundInterpolator.__init__", (), None),
    ("photons.ground_idw", photons, "GroundInterpolator.query",
     ("photons.ground_idw_queries",), _one),
    ("photons.dtm_reconcile", photons, "enforce_dtm_consistency", (), None),
    ("photons.normalize_heights", photons, "normalize_heights", (), None),
    ("photons.landcover_filter", photons, "landcover_plausibility_filter", (), None),
    ("photons.dbscan", photons, "dbscan_cluster",
     ("photons.dbscan_points", "photons.dbscan_clusters"),
     lambda args, r: (len(args[0]), len(r[0]))),
    ("photons.aggregate_cells", photons, "aggregate_cells", (), None),
    ("photons.write_clean_csv", photons, "write_clean_csv", ("photons.clean",),
     lambda args, r: (len(args[0]),)),
    ("photons.read_clean_csv", photons, "read_clean_csv", (), None),
    ("scaling.fit_affine", scaling, "fit_affine", ("scaling.fit_points",),
     lambda args, fit: (fit.n_points,)),
    ("scaling.apply_affine", scaling, "apply_affine", (), None),
    ("raster.footprint_mean", correction, "footprint_mean",
     ("raster.footprint_mean_calls",), _one),
    ("raster.footprint_mean", scaling, "footprint_mean",
     ("raster.footprint_mean_calls",), _one),
    # bytes are computed from array sizes, not measured at the disk
    ("raster.load_raster", pipeline, "load_raster", ("raster.bytes_read",),
     lambda args, r: (r.values.nbytes,)),
    ("raster.save_raster", pipeline, "save_raster", ("raster.bytes_written",),
     lambda args, r: (args[0].values.nbytes,)),
    ("features.hrf_features", correction, "hrf_features", ("features.hrf_calls",), _one),
    ("correction.build_training_set", correction, "build_training_set",
     ("correction.training_samples",), lambda args, r: (len(r[0]),)),
    ("correction.infer_residual_field", correction, "infer_residual_field", (), None),
    ("correction.apply_correction", correction, "apply_correction", (), None),
    ("forest.train_forest", forest, "train_forest", ("forest.trees", "forest.nodes"),
     lambda args, m: (len(m.trees), sum(t.n_nodes() for t in m.trees))),
    ("forest.feature_importance", forest, "feature_importance", (), None),
    ("forest.save_model", forest, "save_model", (), None),
    ("forest.load_model", forest, "load_model", (), None),
    ("forest.predict_batch", correction, "predict_batch", ("forest.predict_rows",), _size),
    ("metrics.evaluate", metrics, "evaluate", ("metrics.pixels",),
     lambda args, report: (report.n_valid,)),
    ("metrics.ssim", metrics, "ssim", (), None),
    ("metrics.per_class_breakdown", metrics, "per_class_breakdown", (), None),
]

# Layers also reported as self time: the span minus what its children cover.
SELF_TIMED = ("correction.build_training_set", "correction.infer_residual_field")

# start and end are wall clock, cpu is CPU seconds (see the module
# docstring); counts holds the values of the layer's counter names, or None
Span = namedtuple("Span", "id layer start end cpu parent thread counts")


class Tracer:
    """Records spans while installed; install() and uninstall() patch and
    restore the traced functions."""

    def __init__(self, points) -> None:
        self.points = points
        self.spans: list[Span] = []
        self.installed: set[str] = set()
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, layer, fn, counts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            if stack:
                parent = stack[-1]
            elif stack is not self._main_stack and self._main_stack:
                parent = self._main_stack[-1]
            else:
                parent = None
            cpu_clock = time.process_time if stack is self._main_stack else time.thread_time
            sid = next(self._ids)
            stack.append(sid)
            cpu_start = cpu_clock()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                cpu = cpu_clock() - cpu_start
                stack.pop()
            added = counts(args, result) if counts else None
            self.spans.append(Span(sid, layer, start, end, cpu, parent,
                                   threading.get_ident(), added))
            return result
        return traced

    def install(self) -> None:
        for layer, module, path, _, counts in self.points:
            *outer, attr = path.split(".")
            owner = module
            for part in outer:
                owner = getattr(owner, part, None)
            fn = vars(owner).get(attr) if owner is not None else None
            if fn is None:
                continue
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(layer, fn, counts))
            self.installed.add(layer)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


def write_spans(rounds: list[list[Span]], path: Path) -> None:
    """One list of spans per traced round, each span a list in Span order."""
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"fields": Span._fields, "rounds": rounds}, f)


def read_spans(path: Path) -> list[list[Span]]:
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    return [[Span(*s) for s in spans] for spans in doc["rounds"]]


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b > max(a, reach):
            total += b - max(a, reach)
            reach = b
    return total


def layer_metrics(spans: list[Span], installed, points) -> dict[str, float]:
    """Busy (CPU) seconds, self (wall) seconds and counts per layer for the
    spans of one traced round.

    An installed layer that the round never called reads 0; a layer whose
    function is gone reports nothing.
    """
    out: dict[str, float] = {}
    names = {}
    for layer, _, _, counters, _ in points:
        if layer in installed:
            names[layer] = counters
            out[f"{layer}_s"] = 0.0
            out.update((name, 0) for name in counters)
    children: dict[int, list[Span]] = {}
    for s in spans:
        out[f"{s.layer}_s"] += s.cpu
        for name, inc in zip(names[s.layer], s.counts or ()):
            out[name] += inc
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    for layer in SELF_TIMED:
        if layer in installed:
            out[f"{layer}_self_s"] = sum(
                s.end - s.start - _covered([(max(k.start, s.start), min(k.end, s.end))
                                            for k in children.get(s.id, [])])
                for s in spans if s.layer == layer)
    if {"correction.infer_residual_field", "forest.predict_batch"} <= set(installed):
        layer_of = {s.id: s.layer for s in spans}
        out["correction.windows"] = sum(
            s.counts[0] for s in spans if s.layer == "forest.predict_batch"
            and layer_of.get(s.parent) == "correction.infer_residual_field")
    return out
