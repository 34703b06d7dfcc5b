"""Span tracing around gentac's public entry points, installed from outside.

Nothing under ``src/`` knows about this module. `install` replaces each
listed function (in every gentac module namespace that holds it) and each
listed method (on its class) with a wrapper that records a span:
``(parent span id, request id, name, start ns, end ns)``. Spans stay in
memory until `write_csv` is called at the end of the run. A span's self time
is its duration minus the durations of its direct children.

Counters that are not times (matmul flops and output bytes computed from
array shapes, grids per model call, file bytes read) are accumulated per
request id by small hooks that run after the wrapped call returns.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

AUTODIFF_OPS = ("add", "sub", "mul", "matmul", "take", "reshape", "swapaxes",
                "concat", "sum_", "exp", "log", "tanh", "relu", "softmax",
                "log_softmax", "layer_norm")


class Tracer:
    def __init__(self):
        self.spans = []                 # index = span id
        self.stack = []
        self.request = "setup"
        self.counters = defaultdict(float)  # (request, counter) -> value

    def add(self, counter, value):
        self.counters[(self.request, counter)] += value

    def wrap(self, name, fn, hook=None):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (parent, self.request, name, start, end)
            if hook is not None:
                hook(self, args, out)
            return out

        return traced

    def self_times(self):
        """[(request, name, self ns)] for every closed span."""
        child = [0] * len(self.spans)
        for parent, _, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [(req, name, end - start - child[i])
                for i, (_, req, name, start, end) in enumerate(self.spans)]

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8") as f:
            f.write("span,parent,request,name,start_ns,end_ns\n")
            for i, (parent, req, name, start, end) in enumerate(self.spans):
                f.write(f"{i},{parent},{req},{name},{start},{end}\n")


def _op_hook(tracer, args, out):
    tracer.add("autodiff.bytes_out", out.data.nbytes)


def _matmul_hook(tracer, args, out):
    # every output element is a length-k dot product: k multiplies, k adds
    tracer.add("autodiff.bytes_out", out.data.nbytes)
    tracer.add("autodiff.matmul_flops", 2 * out.data.size * args[0].data.shape[-1])


def _predict_noise_hook(tracer, args, out):
    B, L, E, _ = out.data.shape
    tracer.add("backbone.grids", B)
    tracer.add("backbone.tokens", B * L * E)


def _rollout_hook(tracer, args, out):
    tracer.add("diffusion.network_evals", out.network_evals)
    tracer.add("diffusion.futures", out.k)


def _load_clip_hook(tracer, args, out):
    path = os.fspath(args[0])
    size = os.path.getsize(path)
    meta = os.path.splitext(path)[0] + ".meta.json"
    if os.path.exists(meta):
        size += os.path.getsize(meta)
    tracer.add("data.bytes_read", size)


def _targets(gentac):
    """(owner, attribute, span name, hook) for every traced entry point."""
    ad, bb, da, di, ev, me, rn, tr = (
        gentac.autodiff, gentac.backbone, gentac.data, gentac.diffusion,
        gentac.events, gentac.metrics, gentac.rng, gentac.training)
    out = [(ad, op, f"autodiff.{op}",
            _matmul_hook if op == "matmul" else _op_hook) for op in AUTODIFF_OPS]
    out += [
        (ad, "backward", "autodiff.backward", None),
        (rn.Rng, "__init__", "rng.stream", None),
        (da, "load_clip", "data.load_clip", _load_clip_hook),
        (da, "save_clip", "data.save_clip", None),
        (da, "refine", "data.refine", None),
        (da, "resample", "data.resample", None),
        (bb, "build_token_grid", "backbone.build_token_grid", None),
        (bb.TrajectoryModel, "predict_noise", "backbone.predict_noise",
         _predict_noise_hook),
        (bb, "save_checkpoint", "backbone.save_checkpoint", None),
        (bb, "load_checkpoint", "backbone.load_checkpoint", None),
        (di, "rollout", "diffusion.rollout", _rollout_hook),
        (di, "sample_windows_batch", "diffusion.sample_windows_batch", None),
        (di, "denoise_step", "diffusion.denoise_step", None),
        (di, "diffusion_loss", "diffusion.loss", None),
        (ev, "ground_event", "events.ground_event", None),
        (tr, "train", "training.train", None),
        (tr, "optimizer_step", "training.optimizer_step", None),
        (me, "aggregate_over_k", "metrics.aggregate_over_k", None),
        (me, "structure_deviation", "metrics.structure_deviation", None),
        (me, "obet", "metrics.obet", None),
        (me, "depth_threat", "metrics.zone_threat", None),
        (me, "width_threat", "metrics.zone_threat", None),
        (me, "dominant_region", "metrics.dominant_region", None),
    ]
    return out


def install(tracer, gentac):
    """Wrap every target. A module-level function is replaced in each loaded
    gentac module that holds the same object, so `from .x import f` copies
    in sibling modules are traced as well."""
    modules = [m for name, m in sorted(sys.modules.items())
               if name.startswith("gentac.") and m is not None]
    for owner, attr, name, hook in _targets(gentac):
        original = getattr(owner, attr)
        wrapped = tracer.wrap(name, original, hook)
        if isinstance(owner, type):
            setattr(owner, attr, wrapped)
            continue
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)


# name -> unit; `*_s` times are self seconds per measured request, counts are
# per request over the first full request cycle, so they repeat exactly
PER_LAYER_UNITS = {
    "autodiff.op_calls": "count",
    "autodiff.op_s": "s",
    "autodiff.matmul_s": "s",
    "autodiff.softmax_s": "s",
    "autodiff.layer_norm_s": "s",
    "autodiff.matmul_flops": "flop",
    "autodiff.bytes_out": "B",
    "autodiff.backward_s": "s",
    "autodiff.backward_calls": "count",
    "backbone.predict_noise_calls": "count",
    "backbone.predict_noise_s": "s",
    "backbone.grids_per_call": "count",
    "backbone.tokens_per_call": "count",
    "backbone.build_token_grid_s": "s",
    "diffusion.sample_windows_batch_s": "s",
    "diffusion.denoise_step_s": "s",
    "diffusion.denoise_steps": "count",
    "diffusion.network_evals_per_future": "count",
    "diffusion.loss_s": "s",
    "rng.streams": "count",
    "rng.stream_s": "s",
    "training.optimizer_step_s": "s",
    "training.steps": "count",
    "data.load_clip_s": "s",
    "data.bytes_read": "B",
    "data.refine_s": "s",
    "data.resample_s": "s",
    "data.save_clip_s": "s",
    "metrics.aggregate_over_k_s": "s",
    "metrics.structure_deviation_s": "s",
    "metrics.obet_s": "s",
    "metrics.zone_threat_s": "s",
    "metrics.dominant_region_s": "s",
    "events.ground_event_s": "s",
    "events.ground_calls": "count",
    **{f"setup.{m}_s": "s" for m in ("autodiff", "rng", "data", "backbone",
                                      "diffusion", "events", "training",
                                      "metrics")},
    "trace.overhead_share": "share",
}

# per-request count -> span name whose calls it counts
_CALL_COUNTS = {
    "autodiff.backward_calls": "autodiff.backward",
    "backbone.predict_noise_calls": "backbone.predict_noise",
    "diffusion.denoise_steps": "diffusion.denoise_step",
    "rng.streams": "rng.stream",
    "training.steps": "training.optimizer_step",
    "events.ground_calls": "events.ground_event",
}


def per_layer_metrics(tracer, n_requests, cycle):
    """Per-layer figures from the spans of requests 0..n_requests-1 (times)
    and 0..cycle-1 (counts); spans labelled "setup" give the setup.* times."""
    self_s = defaultdict(float)
    setup_s = defaultdict(float)
    calls = defaultdict(int)
    for req, name, ns in tracer.self_times():
        if req == "setup":
            setup_s[name.split(".")[0]] += ns / 1e9
        elif isinstance(req, int):
            self_s[name] += ns / 1e9 / n_requests
            if req < cycle:
                calls[name] += 1
    counts = defaultdict(float)
    for (req, counter), value in tracer.counters.items():
        if isinstance(req, int) and req < cycle:
            counts[counter] += value

    ops = [f"autodiff.{op}" for op in AUTODIFF_OPS]
    model_calls = calls["backbone.predict_noise"]
    out = {
        "autodiff.op_calls": sum(calls[o] for o in ops) / cycle,
        "autodiff.op_s": sum(self_s[o] for o in ops),
        "autodiff.matmul_flops": counts["autodiff.matmul_flops"] / cycle,
        "autodiff.bytes_out": counts["autodiff.bytes_out"] / cycle,
        "backbone.grids_per_call": counts["backbone.grids"] / max(model_calls, 1),
        "backbone.tokens_per_call": counts["backbone.tokens"] / max(model_calls, 1),
        "diffusion.network_evals_per_future":
            counts["diffusion.network_evals"] / max(counts["diffusion.futures"], 1),
        "data.bytes_read": counts["data.bytes_read"] / cycle,
    }
    for metric, span in _CALL_COUNTS.items():
        out[metric] = calls[span] / cycle
    for metric, unit in PER_LAYER_UNITS.items():
        if unit == "s" and metric not in out:
            span = metric[:-len("_s")]  # a time metric is named after its span
            if span.startswith("setup."):
                out[metric] = setup_s[span[len("setup."):]]
            else:
                out[metric] = self_s[span]
    return out
