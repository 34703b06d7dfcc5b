#!/usr/bin/env python3
"""gentac benchmark: one workload, one closed-loop client, one process.

    python3 perfbench/run.py --workload sample --seed 1 --seconds 25 --trace 0

Builds the workload's inputs from --seed (the set-up, run several times, see
set_up), runs requests back to back for --seconds, checks every output, and
prints the figures by name and unit. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics. --trace 1 runs half the time
untraced, then wraps gentac's entry points (see tracing.py), sets up again
and runs the other half traced; it reports the per-layer metrics and the
tracing overhead, and writes every span to .perfbench_out/.

Request times are reported in normalised seconds (see Reference), set-up in
wall seconds; the wall-clock figures are printed beside them. The program is imported from src/ next to
this directory; without it the run exits with code 2 and prints no result.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

BLAS_THREADS = 1  # one client on a small machine; keeps BLAS off the other core
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402  (after the thread settings, which it reads once)

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
# set-ups per untraced run: at least SETUP_MIN_REPEATS, and more while they
# total under SETUP_MIN_S wall seconds, so that a set-up of a tenth of a
# second is still timed often enough for its median to settle
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 60
SETUP_MIN_S = 8.0
# the highest percentile with at least ten requests beyond it at the request
# counts a 25 s run sees (50 to 99 on every workload); fixed so that it names
# the same statistic on every commit
TAIL_PERCENTILE = 75
# the reference kernel's typical time on a 2.1 GHz Xeon vCPU (x86_64,
# Python 3.11, numpy 2.4); normalised seconds are about wall seconds there
REFERENCE_S = 0.022
LOCAL_WINDOW = 5  # kernel times on each side of a request that normalise it

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "request_s.p50": "s",
    "request_s.tail": "s",
    "items_per_s": "1/s",
    "quality_loss": "loss",
}

# the names the workload's own figures go by in README.md
ALIASES = {
    "sample": {"request_s.p50": "rollout_s.p50", "request_s.tail": "rollout_s.tail",
               "items_per_s": "sampled_frames_per_s", "quality_loss": "min_ade_m, m"},
    "train": {"request_s.p50": "train() call, p50", "request_s.tail": "train() call, tail",
              "items_per_s": "train_windows_per_s", "quality_loss": "valid_loss, MSE"},
    "evaluate": {"request_s.p50": "clip_s.p50", "request_s.tail": "clip_s.tail",
                 "items_per_s": "clips_per_s", "quality_loss": "min_ade_m, m"},
}


class Reference:
    """A fixed piece of Python and numpy work, timed next to the program.

    On a shared host the speed one process gets drifts by ±15% over tens of
    seconds (more when neighbours contend for the caches), and the
    program's times drift with it. Dividing by the time of a fixed kernel
    measured alongside takes most of that drift out: a normalised time is
    wall time × REFERENCE_S / median kernel time. The kernel mimics the
    program's work: a forward pass of small array ops driven from Python
    that keeps every intermediate (as the autodiff tape does, so its working
    set is megabytes), a backward-like pass over them, and a few large
    vectorised grid distances (as in metrics). The loop times it before
    every request and normalises each request by the median of the kernel
    times around it (LOCAL_WINDOW on each side), which follows drift within
    a run as well as between runs.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.tokens = rng.normal(size=(4, 40, 7, 32))
        self.weight = 0.1 * rng.normal(size=(32, 32))
        self.cells = rng.uniform(-50.0, 50.0, (7140, 2))
        self.players = rng.uniform(-50.0, 50.0, (3, 2))
        self.times = []

    def measure(self):
        start = time.perf_counter()
        tape = []
        h = self.tokens
        for _ in range(25):
            y = h @ self.weight
            e = np.exp(y - y.max(axis=-1, keepdims=True))
            h = e / e.sum(axis=-1, keepdims=True)
            if not np.isfinite(h).all():
                raise FloatingPointError("reference kernel diverged")
            tape += (y, e, h)
        g = np.ones_like(h)
        for saved in reversed(tape):
            g = 0.5 * g + saved
        for _ in range(3):
            np.linalg.norm(self.cells[:, None] - self.players[None],
                           axis=-1).min(axis=1)
        self.times.append(time.perf_counter() - start)

    def scale(self, around):
        """Factor from wall seconds to normalised seconds, from the kernel
        times within LOCAL_WINDOW of index `around`."""
        times = self.times[max(0, around - LOCAL_WINDOW):around + LOCAL_WINDOW + 1]
        return REFERENCE_S / statistics.median(times)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("sample", "train", "evaluate"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_program():
    """Import gentac from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "gentac" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import gentac
    if Path(gentac.__file__).resolve().parent != (src / "gentac").resolve():
        return None
    return gentac


def environment():
    cpus = os.cpu_count()
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else cpus
    return (f"env: nproc={nproc} cpu_count={cpus} blas_threads={BLAS_THREADS} "
            f"python={platform.python_version()} numpy={np.__version__} "
            f"machine={platform.machine()}")


def percentile(values, p):
    """Linear interpolation between closest ranks (numpy's default)."""
    v = sorted(values)
    pos = (len(v) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


class Loop:
    """Closed loop over requests 0, 1, 2, ... of one workload state; the
    reference kernel runs before every measured request."""

    def __init__(self, state, tracer=None):
        self.state = state
        self.tracer = tracer
        self.reference = Reference()
        self.first_pass = []        # warm-up results of the first cycle
        self.latencies = []
        self.results = []           # Result, or None when run or check raised
        self.errors = []

    def _label(self, label):
        if self.tracer is not None:
            self.tracer.request = label

    def one(self, i, label):
        """Run and check request i; returns (wall seconds of run, Result)."""
        self._label(label)
        start = time.perf_counter()
        try:
            output = self.state.run(i)
        except Exception:
            self.errors.append(f"request {i} raised:\n{traceback.format_exc()}")
            return time.perf_counter() - start, None
        latency = time.perf_counter() - start
        self._label("check")
        try:
            return latency, self.state.check(i, output)
        except Exception:
            self.errors.append(f"check of request {i} raised:\n{traceback.format_exc()}")
            return latency, None

    def warm_up(self):
        """One untimed pass over the first request cycle, kept so that the
        measured pass can be compared with it (same seed, same process)."""
        self.first_pass = [self.one(i, "warm-up")[1] for i in range(self.state.cycle)]

    def measure(self, seconds):
        start = time.perf_counter()
        i = 0
        while time.perf_counter() - start < seconds:
            self._label("reference")
            self.reference.measure()
            latency, result = self.one(i, i)
            self.latencies.append(latency)
            self.results.append(result)
            i += 1
        self._label("end")

    def normalised(self):
        """Request latencies in normalised seconds."""
        return [t * self.reference.scale(i) for i, t in enumerate(self.latencies)]

    @property
    def attempted(self):
        return len(self.results) + len(self.first_pass)

    def failures(self):
        """(request, messages) for every failed request, counting one whose
        output differs bitwise from the warm-up run of the same request."""
        failed = []
        for i, result in enumerate(self.first_pass):
            if result is None or result.failures:
                failed.append((f"warm-up {i}", result.failures if result else ["raised"]))
        for i, result in enumerate(self.results):
            msgs = result.failures if result else ["raised"]
            if result and i < len(self.first_pass) and self.first_pass[i] \
                    and self.first_pass[i].digest != result.digest:
                msgs = msgs + ["same seed gave a different output"]
            if msgs:
                failed.append((i, msgs))
        return failed


def report_errors(loops, failed):
    for text in [e for loop in loops for e in loop.errors][:3]:
        print(text, file=sys.stderr)
    for i, msgs in failed[:10]:
        print(f"FAILED request {i}: {'; '.join(msgs)}")


def new_workdir(workload):
    work = OUT / f"work-{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    return work


def set_up(cls, seed, workload, repeats=1, seconds=0.0):
    """Build the workload state `repeats` times, and again while the builds
    total under `seconds` (at most SETUP_MAX_REPEATS times); (last state,
    wall seconds of each set-up)."""
    times = []
    while len(times) < repeats or (sum(times) < seconds
                                   and len(times) < SETUP_MAX_REPEATS):
        work = new_workdir(workload)
        start = time.perf_counter()
        state = cls(seed, work)
        times.append(time.perf_counter() - start)
    return state, times


def end_to_end(loop, setup_times):
    """(normalised metrics, the same figures in wall seconds)."""
    # quality is the median over the first pass through the distinct inputs,
    # so it does not move with how many requests fit in the time
    scored = [r.quality for r in loop.results[:loop.state.period]
              if r is not None and not r.failures]

    def throughput(latencies):
        """Median over whole request cycles of items ÷ busy seconds; a median,
        so one stalled request does not move it."""
        cycle = loop.state.cycle
        rates = []
        for start in range(0, len(latencies) - cycle + 1, cycle):
            rs = loop.results[start:start + cycle]
            if all(r is not None and not r.failures for r in rs):
                rates.append(sum(r.items for r in rs)
                             / sum(latencies[start:start + cycle]))
        return statistics.median(rates) if rates else 0.0

    def figures(latencies, setup_s):
        return {
            "setup_s": setup_s,
            "request_s.p50": percentile(latencies, 50),
            "request_s.tail": percentile(latencies, TAIL_PERCENTILE),
            "items_per_s": throughput(latencies),
        }

    # set-up stays in wall seconds: the reference kernel's speed does not
    # follow a set-up's (file writes, page faults of fresh arrays), and
    # dividing by it widened the spread of setup_s across runs
    setup_s = statistics.median(setup_times)
    wall = figures(loop.latencies, setup_s)
    values = figures(loop.normalised(), setup_s)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values["quality_loss"] = statistics.median(scored) if scored else float("nan")
    return {name: values[name] for name in END_TO_END_UNITS}, wall


def main(argv=None):
    args = parse_args(argv)
    gentac = import_program()
    if gentac is None:
        print(f"error: no gentac package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    print(environment())
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}; closed loop, 1 client")
    cls = workloads.WORKLOADS[args.workload]
    try:
        if args.trace:
            return traced_run(args, cls, gentac, tracing)
        return untraced_run(args, cls)
    finally:
        shutil.rmtree(OUT / f"work-{args.workload}-{os.getpid()}", ignore_errors=True)


def untraced_run(args, cls):
    state, setup_times = set_up(cls, args.seed, args.workload,
                                SETUP_MIN_REPEATS, SETUP_MIN_S)
    loop = Loop(state)
    loop.warm_up()
    loop.measure(args.seconds)

    failed = loop.failures()
    report_errors([loop], failed)
    values, wall = end_to_end(loop, setup_times)
    alias = ALIASES[args.workload]
    print(f"requests={len(loop.results)} (+{len(loop.first_pass)} warm-up) "
          f"tail=p{TAIL_PERCENTILE} set-ups={len(setup_times)}, "
          f"{min(setup_times):.3f} to {max(setup_times):.3f} s wall")
    print(f"reference kernel: median {statistics.median(loop.reference.times):.5f} s "
          f"wall, nominal {REFERENCE_S} s")
    for name, value in values.items():
        raw = f" (wall {wall[name]:.6g})" if name in wall else ""
        also = f"   [{alias[name]}]" if name in alias else ""
        print(f"{name} = {value:.6g} {END_TO_END_UNITS[name]}{raw}{also}")
    print(f"failed_share = {len(failed) / loop.attempted:.6g} share "
          f"({len(failed)} of {loop.attempted} requests)")
    if args.workload == "evaluate":
        hits = [r.type_correct for r in loop.results if r is not None]
        if hits:
            print(f"event_type_acc = {statistics.fmean(hits):.6g} share "
                  f"(top-1 type of ground_event over {len(hits)} clips)")
    digest = hashlib.sha256(b"".join(r.digest for r in loop.results if r)).hexdigest()
    print(f"output digest = {digest[:16]} (information only, not checked)")
    print(json.dumps({
        "correct": not failed and all(v == v for v in values.values()),
        "attempted": loop.attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                    for name, value in values.items()},
    }))
    return 0


def traced_run(args, cls, gentac, tracing):
    half = args.seconds / 2
    state, _ = set_up(cls, args.seed, args.workload)
    plain = Loop(state)
    plain.warm_up()
    plain.measure(half)

    tracer = tracing.Tracer()
    tracing.install(tracer, gentac)
    state, _ = set_up(cls, args.seed, args.workload)  # spans labelled "setup"
    traced = Loop(state, tracer)
    traced.warm_up()
    traced.measure(half)

    failed = plain.failures() + traced.failures()
    report_errors([plain, traced], failed)
    n = len(traced.results)
    values = tracing.per_layer_metrics(tracer, n, min(state.cycle, n))
    p50_plain = percentile(plain.normalised(), 50)
    p50_traced = percentile(traced.normalised(), 50)
    values["trace.overhead_share"] = p50_traced / p50_plain - 1.0
    path = OUT / f"trace-{args.workload}-seed{args.seed}.csv"
    tracer.write_csv(path)
    print(f"requests: {len(plain.results)} untraced, {n} traced; "
          f"{len(tracer.spans)} spans written to {path.relative_to(ROOT)}")
    print(f"tracing overhead: request_s.p50 {p50_plain:.6g} s untraced, "
          f"{p50_traced:.6g} s traced, normalised ({values['trace.overhead_share']:+.1%})")
    print("per-layer times are self seconds (wall) per request; counts are per "
          "request over the first request cycle; flops and bytes are computed "
          "from shapes")
    for name, unit in tracing.PER_LAYER_UNITS.items():
        print(f"{name} = {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": plain.attempted + traced.attempted,
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in tracing.PER_LAYER_UNITS.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
