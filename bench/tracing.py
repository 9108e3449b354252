"""Timers installed from outside around the public functions of ``flowgad``.

Nothing under ``src/`` knows about them. A target is written
``"<module>:<function>"`` or ``"<module>:<Class>.<method>"``. A module-level
function is replaced in every ``flowgad`` module that binds it, because
``cli.py`` and ``pipeline.py`` import functions by name and a wrapper placed
only on the defining module would be bypassed there. A method is replaced on
its class.

Three recorders share that mechanism:

- ``Stopwatch`` sums wall time over a handful of boundary calls (set-up and
  the training phases); it is cheap enough for the untraced runs.
- ``Tracer`` records one span per wrapped call (name, start, end, parent)
  in flat arrays, plus the tape length at each backward pass and the bytes
  of each checkpoint written.
- ``AllocPeaks`` runs ``tracemalloc`` around the first call of each
  training phase. It slows Python allocation, so it runs in its own
  repetition and that repetition's timings are never reported.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
import tracemalloc
from array import array

import numpy as np

# Functions in autodiff.py that record a tape node.
PRIMITIVES = ("add", "sub", "mul", "div", "matmul", "transpose", "scale",
              "add_scalar", "exp", "log", "sqrt", "tanh", "sigmoid", "relu",
              "clip", "reduce_sum", "reduce_max", "concat", "slice_cols")

# Span name -> target. The text before the first dot names the layer.
SPANS = {
    "autodiff.backward": "autodiff:Tape.backward",
    **{f"autodiff.{op}": f"autodiff:{op}" for op in PRIMITIVES},
    "optim.adam": "optim:Adam.step",
    "encoding.rwse": "encoding:rw_structural_encoding",
    "data.parse": "data:parse_tudataset",
    "data.normalized_adjacency": "data:normalized_adjacency",
    "source.pretrain": "source:pretrain_source",
    "source.loss": "source:source_loss",
    "source.adj_recon": "source:adjacency_recon_loss",
    "flow.train": "flow:train_flow",
    "flow.forward": "flow:GraphFlow.forward",
    "flow.nf_loss": "flow:nf_loss",
    "target.train": "target:train_target",
    "target.forward": "target:GinNetwork.forward",
    "target.loss": "target:graph_target_loss",
    "pipeline.run_experiment": "pipeline:run_experiment",
    "pipeline.subsample": "pipeline:subsample_graphset",
    "pipeline.precompute": "pipeline:precompute_inputs",
    "pipeline.phase_source": "pipeline:run_phase_source",
    "pipeline.phase_flow": "pipeline:run_phase_flow",
    "pipeline.phase_target": "pipeline:run_phase_target",
    "pipeline.score_graph": "pipeline:score_graph",
    "checkpoint.save": "checkpoint:save_checkpoint",
    "checkpoint.load": "checkpoint:load_checkpoint",
    "cli.load_dataset": "cli:load_dataset",
    "cli.train": "cli:cmd_train",
    "cli.eval": "cli:cmd_eval",
    "cli.plotdata": "cli:cmd_plotdata",
}

# Dataset load or parse, stratified subsample and per-graph precompute:
# the set-up every command repeats before training or scoring.
SETUP = ("cli.load_dataset", "pipeline.subsample", "pipeline.precompute")
PHASES = ("pipeline.phase_source", "pipeline.phase_flow",
          "pipeline.phase_target")


def install(names, wrap) -> list[str]:
    """Replaces the target of each span name by ``wrap(name, fn)``.

    Returns the names whose target does not exist, so that a renamed
    function shows up as a warning instead of a silent zero."""
    importlib.import_module("flowgad.cli")     # imports every module
    modules = [m for key, m in sys.modules.items()
               if key == "flowgad" or key.startswith("flowgad.")]
    missing = []
    for name in names:
        module_name, attr = SPANS[name].split(":")
        owner = importlib.import_module(f"flowgad.{module_name}")
        if "." in attr:
            class_name, method = attr.split(".")
            cls = getattr(owner, class_name, None)
            fn = None if cls is None else cls.__dict__.get(method)
            if fn is None:
                missing.append(name)
                continue
            setattr(cls, method, wrap(name, fn))
            continue
        fn = getattr(owner, attr, None)
        if fn is None:
            missing.append(name)
            continue
        wrapper = wrap(name, fn)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, key, wrapper)
    return missing


class Stopwatch:
    """Total wall time per span name over the set-up and phase calls."""

    NAMES = SETUP + PHASES

    def __init__(self):
        self.totals = dict.fromkeys(self.NAMES, 0.0)

    def wrap(self, name, fn):
        totals = self.totals
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                totals[name] += clock() - t0
        return wrapper

    def seconds(self, names) -> float:
        return sum(self.totals[n] for n in names)


class Tracer:
    """One span per wrapped call, kept in flat arrays until the run ends."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.tape_nodes = 0
        self.bytes_written = 0

    def wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        name_id, parent, start, end = (self.name_id, self.parent,
                                       self.start, self.end)
        stack = self._stack
        clock = time.perf_counter
        before = after = None
        if name == "autodiff.backward":
            def before(args, kwargs):
                self.tape_nodes += len(args[0].nodes)
        elif name == "checkpoint.save":
            def after(args, kwargs):
                self.bytes_written += os.path.getsize(
                    kwargs.get("path", args[0] if args else None))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()
            if after is not None:
                after(args, kwargs)
            return out
        return wrapper

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds; per layer: self seconds.

        A span's self time is its duration minus the durations of its
        direct children, so nested wrapped calls are never counted twice."""
        k = len(self.names)
        nid = np.frombuffer(self.name_id, dtype=np.int32).astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64)
        dur = (np.frombuffer(self.end, dtype=np.float64)
               - np.frombuffer(self.start, dtype=np.float64))
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested],
                            minlength=len(dur))
        calls = np.bincount(nid, minlength=k)
        total = np.bincount(nid, weights=dur, minlength=k)
        own = np.bincount(nid, weights=dur - child, minlength=k)
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.s"] = float(total[i])
            layer = name.split(".", 1)[0] + ".self_s"
            out[layer] = out.get(layer, 0.0) + float(own[i])
        backward = out.get("autodiff.backward.calls", 0)
        out["autodiff.tape_nodes_per_step"] = (
            self.tape_nodes / backward if backward else 0.0)
        out["checkpoint.bytes_written"] = self.bytes_written
        return out

    def save(self, path: str):
        np.savez_compressed(
            path, names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64))


class AllocPeaks:
    """Peak MiB traced by ``tracemalloc`` inside the first call of each
    training phase (the first seed's), counted from the phase's entry.

    Later calls run untracked: tracing every allocation slows the Python-
    heavy phases about fourfold, and every seed trains the same shapes."""

    NAMES = PHASES

    def __init__(self):
        self.peaks: dict[str, float] = {}

    def wrap(self, name, fn):
        key = name.split("_", 1)[1] + ".peak_alloc_mib"   # e.g. source.peak_alloc_mib

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if key in self.peaks:
                return fn(*args, **kwargs)
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                self.peaks[key] = tracemalloc.get_traced_memory()[1] / 2 ** 20
                tracemalloc.stop()
        return wrapper
