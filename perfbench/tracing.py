"""Span tracing of emgrid from outside the package.

A traced run wraps public functions at each module boundary of emgrid with
a recorder. Each call becomes one span: name, layer, start, end, parent
span and thread id, plus counts derived from argument and result shapes.
Spans stay in memory; `layer_metrics` turns them into the per-layer numbers
once the run ends.

Modules import names directly (`from .aes import encrypt_blocks`), so
patching one module attribute would leave the other modules calling the
original. `install` therefore replaces the function object in every loaded
`emgrid` module that holds it.
"""

import functools
import os
import sys
import threading
import time

perf = time.perf_counter


class Span:
    __slots__ = ("id", "name", "layer", "t0", "t1", "busy", "parent", "tid",
                 "counts")

    def __init__(self, sid, name, layer, parent):
        self.id = sid
        self.name = name
        self.layer = layer
        self.parent = parent
        self.tid = threading.get_ident()
        self.t0 = perf()
        self.t1 = None
        self.busy = None  # set on aggregate spans whose time is not one interval
        self.counts = None

    @property
    def duration(self) -> float:
        return self.busy if self.busy is not None else self.t1 - self.t0


class Tracer:
    """In-memory span store with one open-span stack per thread."""

    def __init__(self):
        self.spans = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1].id if stack else None

    def open(self, name, layer, parent="auto"):
        if parent == "auto":
            parent = self.current()
        with self._lock:
            span = Span(len(self.spans), name, layer, parent)
            self.spans.append(span)
        self._stack().append(span)
        return span

    def close(self, span):
        span.t1 = perf()
        self._stack().pop()

    def push(self, span):
        self._stack().append(span)

    def pop(self):
        self._stack().pop()


def _span_wrapper(tracer, fn, name, layer, counter):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = tracer.open(name, layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if counter is not None:
            span.counts = counter(args, kwargs, result)
        return result
    return traced


def _write_wrapper(tracer, fn):
    """write_dataset consumes a lazy record iterator, so the time spent
    producing records (the simulator) would count as writing. The iterator is
    wrapped in an aggregate simulator span whose busy time is the sum of the
    next() calls."""
    @functools.wraps(fn)
    def traced(header, records, path, *args, **kwargs):
        span = tracer.open("write_dataset", "traceset")
        agg = tracer.open("records", "simulator")
        tracer.pop()
        agg.busy = 0.0

        def timed_records():
            it = iter(records)
            while True:
                tracer.push(agg)
                t = perf()
                try:
                    rec = next(it)
                except StopIteration:
                    return
                finally:
                    agg.busy += perf() - t
                    tracer.pop()
                yield rec

        try:
            result = fn(header, timed_records(), path, *args, **kwargs)
        finally:
            agg.t1 = perf()
            tracer.close(span)
        span.counts = {"write_bytes": os.path.getsize(path)}
        return result
    return traced


def _map_positions_wrapper(tracer, fn):
    """Per-position work runs in the evaluation thread pool, where no span
    is open; each position call becomes a span parented to the grid sweep."""
    @functools.wraps(fn)
    def traced(groups, work, threads):
        grid = tracer.current()

        def one(p, idx):
            span = tracer.open("position", "evaluation", parent=grid)
            try:
                return work(p, idx)
            finally:
                tracer.close(span)
        return fn(groups, one, threads)
    return traced


def _arrays_bytes(arrays) -> int:
    return sum(getattr(arrays, f).nbytes for f in
               ("samples", "keys", "plaintexts", "ciphertexts", "positions",
                "splits"))


def _train_steps(args, kwargs, result):
    config = kwargs["config"] if "config" in kwargs else args[4]
    return {"sgd_steps": config.epochs * config.steps_per_epoch}


def _cpa_update(args, kwargs, result):
    _, H, X = args
    return {"cpa_traces": X.shape[0],
            "cpa_macs": H.shape[0] * X.shape[0] * X.shape[1]}


# (module, attribute, layer, counter). An attribute "Class.method" patches
# the method on the class.
TARGETS = (
    ("emgrid.cli", "main", "cli", None),
    ("emgrid.simulator", "simulate_grid_dataset", "simulator",
     lambda a, k, r: {"traces": r.trace_count}),
    ("emgrid.aes", "encrypt_blocks", "aes",
     lambda a, k, r: {"blocks": (r[0] if isinstance(r, tuple) else r).shape[0]}),
    ("emgrid.aes", "expand_keys_batch", "aes", None),
    ("emgrid.aes", "expand_keys", "aes", None),
    ("emgrid.traceset", "read_arrays", "traceset",
     lambda a, k, r: {"read_bytes": os.path.getsize(a[0])}),
    ("emgrid.traceset", "TraceArrays.subset", "traceset",
     lambda a, k, r: {"subset_bytes": _arrays_bytes(r)}),
    ("emgrid.leakage", "build_hypothesis_matrix", "leakage",
     lambda a, k, r: {"hyp_cells": r.size}),
    ("emgrid.distinguishers", "CpaAccumulator.update_batch", "distinguishers",
     _cpa_update),
    ("emgrid.distinguishers", "CpaAccumulator.finalize", "distinguishers", None),
    ("emgrid.distinguishers", "SnrAccumulator.update_batch", "distinguishers",
     lambda a, k, r: {"snr_traces": len(a[1])}),
    ("emgrid.distinguishers", "SnrAccumulator.finalize", "distinguishers", None),
    ("emgrid.profiler", "multiplace_train", "profiler", _train_steps),
    ("emgrid.profiler", "StandardizationParams.apply", "profiler",
     lambda a, k, r: {"standardize_bytes": r.nbytes}),
    ("emgrid.profiler", "true_hds", "profiler", None),
    ("emgrid.profiler", "predict_hd", "profiler", None),
    ("emgrid.profiler", "predict_proba", "profiler", None),
    ("emgrid.evaluation", "evaluate_snr_grid", "evaluation", None),
    ("emgrid.evaluation", "evaluate_cpa_grid", "evaluation", None),
    ("emgrid.evaluation", "evaluate_classifier_grid", "evaluation", None),
    ("emgrid.evaluation", "evaluate_hybrid_grid", "evaluation", None),
    ("emgrid.heatmap", "heatmap_to_csv", "heatmap", None),
    ("emgrid.heatmap", "heatmap_to_svg", "heatmap", None),
    ("emgrid.heatmap", "heatmap_from_csv", "heatmap", None),
)

SPECIAL = (
    ("emgrid.traceset", "write_dataset", _write_wrapper),
    ("emgrid.evaluation", "_map_positions", _map_positions_wrapper),
)


def _replace_everywhere(orig, wrapper) -> int:
    """Rebind every emgrid module global that refers to `orig`."""
    hits = 0
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "emgrid" or name.startswith("emgrid.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, wrapper)
                hits += 1
    return hits


def _patch(module_name, attr, make) -> bool:
    mod = sys.modules.get(module_name)
    owner_name, _, name = attr.rpartition(".")
    owner = getattr(mod, owner_name, None) if owner_name else mod
    orig = getattr(owner, name, None)
    if orig is None:
        return False
    if owner_name:
        setattr(owner, name, make(orig))
        return True
    return _replace_everywhere(orig, make(orig)) > 0


def install(tracer) -> list:
    """Patch every target; return the targets that no longer exist, so a
    renamed function shows up as missing instead of silently untraced."""
    missing = []
    for module_name, attr, layer, counter in TARGETS:
        if not _patch(module_name, attr, lambda fn: _span_wrapper(
                tracer, fn, attr, layer, counter)):
            missing.append(f"{module_name}.{attr}")
    for module_name, attr, wrap in SPECIAL:
        if not _patch(module_name, attr, lambda fn: wrap(tracer, fn)):
            missing.append(f"{module_name}.{attr}")
    return missing


# ------------------------------------------------------------ aggregation

def _union_length(intervals) -> float:
    total = 0.0
    end = None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it its children cover. Children
    in other threads overlap each other, so intervals are merged first;
    aggregate children contribute their busy time."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        kids = children.get(s.id, ())
        covered = sum(k.busy for k in kids if k.busy is not None)
        covered += _union_length(
            (max(k.t0, s.t0), min(k.t1, s.t1)) for k in kids
            if k.busy is None and k.t1 > s.t0 and k.t0 < s.t1)
        out[s.id] = max(s.duration - covered, 0.0)
    return out


def layer_metrics(spans) -> tuple:
    """(counts, seconds) for one traced run. Counts derive from shapes and
    file sizes and must repeat exactly for one seed; seconds do not. Span
    names are unique across layers."""
    own = self_times(spans)
    counts, calls, total, self_s, layer_self = {}, {}, {}, {}, {}
    for s in spans:
        for k, v in (s.counts or {}).items():
            counts[k] = counts.get(k, 0) + v
        calls[s.name] = calls.get(s.name, 0) + 1
        total[s.name] = total.get(s.name, 0.0) + s.duration
        self_s[s.name] = self_s.get(s.name, 0.0) + own[s.id]
        layer_self[s.layer] = layer_self.get(s.layer, 0.0) + own[s.id]

    def t(*names):
        return sum(total.get(n, 0.0) for n in names)

    def rate(num, den):
        return num / den if den > 0 else 0.0

    cnt = {
        "simulator.traces": counts.get("traces", 0),
        "aes.blocks": counts.get("blocks", 0),
        "traceset.write_bytes": counts.get("write_bytes", 0),
        "traceset.read_bytes": counts.get("read_bytes", 0),
        "traceset.subset_bytes": counts.get("subset_bytes", 0),
        "leakage.hyp_cells": counts.get("hyp_cells", 0),
        "distinguishers.cpa_traces": counts.get("cpa_traces", 0),
        "distinguishers.cpa_macs": counts.get("cpa_macs", 0),
        "distinguishers.cpa_finalize_calls":
            calls.get("CpaAccumulator.finalize", 0),
        "distinguishers.snr_traces": counts.get("snr_traces", 0),
        "profiler.sgd_steps": counts.get("sgd_steps", 0),
        "profiler.standardize_calls":
            calls.get("StandardizationParams.apply", 0),
        "profiler.standardize_bytes": counts.get("standardize_bytes", 0),
        "evaluation.positions": calls.get("position", 0),
    }
    grid_s = t("evaluate_snr_grid", "evaluate_cpa_grid",
               "evaluate_classifier_grid", "evaluate_hybrid_grid")
    write_s = self_s.get("write_dataset", 0.0)
    read_s = t("read_arrays")
    cpa_update_s = t("CpaAccumulator.update_batch")
    sgd_s = self_s.get("multiplace_train", 0.0)
    sec = {
        "simulator.self_s": layer_self.get("simulator", 0.0),
        "simulator.traces_per_s":
            rate(cnt["simulator.traces"], t("simulate_grid_dataset")),
        "aes.self_s": layer_self.get("aes", 0.0),
        "traceset.write_s": write_s,
        "traceset.write_MBps": rate(cnt["traceset.write_bytes"] / 1e6, write_s),
        "traceset.read_s": read_s,
        "traceset.read_MBps": rate(cnt["traceset.read_bytes"] / 1e6, read_s),
        "traceset.subset_s": t("TraceArrays.subset"),
        "leakage.hyp_s": t("build_hypothesis_matrix"),
        "distinguishers.cpa_update_s": cpa_update_s,
        "distinguishers.cpa_gmacs_per_s":
            rate(cnt["distinguishers.cpa_macs"] / 1e9, cpa_update_s),
        "distinguishers.cpa_finalize_s": t("CpaAccumulator.finalize"),
        "distinguishers.snr_s":
            t("SnrAccumulator.update_batch", "SnrAccumulator.finalize"),
        "profiler.train_self_s": sgd_s,
        "profiler.steps_per_s": rate(cnt["profiler.sgd_steps"], sgd_s),
        "profiler.standardize_s": t("StandardizationParams.apply"),
        "profiler.labels_s": t("true_hds"),
        "profiler.predict_s": t("predict_hd", "predict_proba"),
        "evaluation.grid_s": grid_s,
        "evaluation.self_s": layer_self.get("evaluation", 0.0),
        "evaluation.concurrency": rate(t("position"), grid_s),
        "heatmap.self_s": layer_self.get("heatmap", 0.0),
        "cli.self_s": layer_self.get("cli", 0.0),
    }
    return cnt, sec
