"""The three benchmark workloads, driven through gentac's public API.

Each workload is a class whose constructor, `(seed, workdir)`, is the set-up:
it builds every input from the seed, so the program under test only ever
sees generated data. `run(i)` performs request i, the part that is timed, and
`check(i, output)` verifies its output and returns a `Result`. A workload
class also carries `cycle`, the length of its request mix (per-layer counts
are taken over one cycle), and `period`, the number of requests after which
its inputs repeat (quality is taken over the first period).
All gentac calls go through module attributes (``data.refine(...)``), never
through names imported from a module, so the tracer can wrap them.

Request mixes are fixed cycles and the seed only changes the data, so every
seed asks for the same amount of work; a run's statistics then move with the
program, not with the draw.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from gentac import (backbone, data, diffusion, events, fixtures, metrics,
                    training)
from gentac.rng import Rng

FPS = 25.0
N_PLAYERS = 3
K = 4                  # futures per sample request / stored per evaluate clip
DIFFUSION_STEPS = 10   # reverse steps per window (desk default is 100)
HISTORY_S = 1.0
WINDOW_S = 0.2
WINDOW_FRAMES = 5
# (setting, windows) per sample request; each horizon appears once in the
# joint setting and once in a single-team setting
SAMPLE_CYCLE = (("unconditioned", 1), ("opponent", 2), ("unconditioned", 3),
                ("team", 1), ("unconditioned", 2), ("opponent", 3))
EVAL_RAW_FPS = 50.0
EVAL_HISTORY = 10      # frames at 25 fps after resampling
EVAL_FUTURE = 15
EVAL_HORIZON = EVAL_FUTURE / FPS


def sub_seed(seed, *names):
    """Independent integer seed for one named input of one workload seed."""
    return int(Rng(seed, ("perfbench", *names)).integers(0, 2 ** 31))


@dataclass
class Result:
    """What one request produced, for the run's metrics and checks."""

    items: int                  # sampled frames / trained windows / clips
    quality: float              # minADE (m) or best validation MSE
    failures: list = field(default_factory=list)
    digest: bytes = b""
    type_correct: bool | None = None  # evaluate: ground_event got the type


def _hash_arrays(arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.digest()


# ---------------------------------------------------------------------------
# sample: causal sliding-window rollout of K futures
# ---------------------------------------------------------------------------

def _forecaster_config(seed, **over):
    return training.desk_forecast_config(diffusion_steps=DIFFUSION_STEPS,
                                         seed=seed, **over)


class Sample:
    """Rollouts of K futures from a forecaster trained in setup, saved and
    reloaded through a checkpoint. Requests cycle through SAMPLE_CYCLE."""

    cycle = len(SAMPLE_CYCLE)

    def __init__(self, seed, workdir):
        clips = fixtures.constant_velocity_clips(
            60, seed=sub_seed(seed, "sample", "clips"), n_players=N_PLAYERS,
            fps=FPS, duration_s=3.0)
        split = training.split_clips(clips[:48], 0.25, seed=seed)
        # one history length (the desk default draws 25-45 frames per step),
        # so the peak memory of set-up does not depend on the draw
        config = _forecaster_config(seed, epochs=4, early_stop_patience=4,
                                    max_history_frames=None)
        model, _ = training.train(split, config)
        path = workdir / "forecaster.ckpt"
        backbone.save_checkpoint(path, model.params, model.config.to_dict())
        cfg, _, arrays = backbone.load_checkpoint(path)
        self.model = backbone.TrajectoryModel(backbone.ModelConfig.from_dict(cfg),
                                              Rng(seed, ("perfbench", "reload")))
        backbone.assign_parameters(self.model.params, arrays)
        self.schedule = config.schedule()
        self.pitch = data.PitchSpec.for_sport("soccer")
        max_frames = WINDOW_FRAMES * max(q for _, q in SAMPLE_CYCLE)
        self.histories = []
        for clip in clips[48:]:
            seg = data.normalize(data.clip_to_segment(clip), self.pitch)
            hist, fut = data.window(seg, 0, int(HISTORY_S * FPS), max_frames)
            self.histories.append((hist, hist.coords.copy(), fut))
        self.period = math.lcm(self.cycle, len(self.histories))
        # per-request configuration and random stream, built here so that a
        # request calls only gentac; rollout derives child streams from the
        # one it is given and never draws from it, so each can be reused
        self.requests = []
        for i in range(self.period):
            setting, q = SAMPLE_CYCLE[i % self.cycle]
            single = setting != "unconditioned"
            config = diffusion.RolloutConfig(
                window=WINDOW_S, history=HISTORY_S, horizon=q * WINDOW_S,
                samples=K, setting=setting,
                target_side=(i // self.cycle) % 2 if single else None, fps=FPS)
            self.requests.append((config, Rng(seed, ("perfbench", "sample", i))))

    def run(self, i):
        config, rng = self.requests[i % self.period]
        hist, _, fut = self.histories[i % len(self.histories)]
        out = diffusion.rollout(hist, config, self.model, self.schedule, rng,
                                truth_future=fut if config.single_team else None)
        return config, out

    def check(self, i, output):
        config, out = output
        _, hist_before, fut = self.histories[i % len(self.histories)]
        frames = config.horizon_frames
        truth = fut.coords[:frames]
        E = hist_before.shape[1]
        failures = []
        if out.k != K:
            failures.append(f"{out.k} futures, expected {K}")
        if out.network_evals != K * config.n_windows * self.schedule.steps:
            failures.append(f"{out.network_evals} network evaluations, "
                            f"expected K x windows x steps")
        if not np.array_equal(out.history.coords, hist_before):
            failures.append("history prefix changed")
        target = np.ones(E, dtype=bool)
        if config.single_team:
            target[:] = False
            side = config.target_side
            target[side * N_PLAYERS:(side + 1) * N_PLAYERS] = True
        for f in out.samples:
            if f.coords.shape != (frames, E, 2) or f.visibility.shape != (frames, E):
                failures.append(f"future shape {f.coords.shape}")
                continue
            if not np.isfinite(f.coords).all():
                failures.append("non-finite coordinate")
            if not f.visibility[:, target].all():
                failures.append("generated slot not visible")
            if config.single_team and not (
                    np.array_equal(f.coords[:, ~target], truth[:, ~target])
                    and np.array_equal(f.visibility[:, ~target],
                                       fut.visibility[:frames, ~target])):
                failures.append("conditioning slots differ from the truth")
        if failures:
            return Result(K * frames, math.nan, failures)
        truth_m = data.denormalize_xy(truth, self.pitch)
        samples_m = [data.denormalize_xy(f.coords, self.pitch) for f in out.samples]
        report = metrics.aggregate_over_k(samples_m, truth_m, FPS,
                                          horizons=(config.horizon,),
                                          entity_mask=target)
        return Result(K * frames, report.min_ade[config.horizon],
                      digest=_hash_arrays(f.coords for f in out.samples))


# ---------------------------------------------------------------------------
# train: short training runs of a fresh desk forecaster
# ---------------------------------------------------------------------------

class Train:
    """`training.train` on clips written to disk and loaded back in setup.
    Each request trains a freshly initialised forecaster for a fixed number
    of steps, validation passes included."""

    cycle = 1
    period = 12    # distinct initialisation seeds, reused in turn
    epochs = 2

    def __init__(self, seed, workdir):
        paths = fixtures.make_fixture_set(
            "constant-velocity", 24, workdir / "clips",
            seed=sub_seed(seed, "train", "clips"), n_players=N_PLAYERS,
            fps=FPS, duration_s=3.0)
        clips = [data.load_clip(p) for p in paths]
        self.split = training.split_clips(clips, 0.25, seed=seed)
        # one history length, so every request does the same work whatever
        # the seed (the desk default draws 25-45 frames per step)
        self.configs = [_forecaster_config(sub_seed(seed, "train", i),
                                           epochs=self.epochs, batch_size=8,
                                           early_stop_patience=self.epochs,
                                           max_history_frames=None)
                        for i in range(self.period)]

    def run(self, i):
        config = self.configs[i % self.period]
        return (config, *training.train(self.split, config))

    def check(self, i, output):
        config, model, result = output
        failures = []
        losses = [v for row in result.log for v in row[1:3]]
        if len(result.log) != self.epochs or not np.isfinite(losses).all():
            failures.append("non-finite loss or early stop")
        best = min(range(len(result.log)), key=lambda e: result.log[e][2])
        if result.best_epoch != best or result.best_metric != result.log[best][2]:
            failures.append("best epoch disagrees with the log")
        if any(not np.array_equal(p.data, result.params[name])
               for name, p in model.params.items()):
            failures.append("returned model differs from the returned params")
        steps = len(self.split.train) // config.batch_size * len(result.log)
        return Result(steps * config.batch_size, result.best_metric, failures,
                      digest=_hash_arrays(result.params[n]
                                          for n in sorted(result.params)))


# ---------------------------------------------------------------------------
# evaluate: ingest one raw clip and run the analysis suite on it
# ---------------------------------------------------------------------------

def _raw_clip_text(clip, rng):
    """Clip-format text with tracking gaps and duplicate detections, the
    defects `refine` repairs. Gaps are short enough to be filled."""
    F = len(clip.frames)
    missing = set()
    for e, pid in enumerate(("A1", "B2")):
        start = int(rng.child("gap", e).integers(2, F - 10))
        length = int(rng.child("gap_len", e).integers(3, 7))
        missing.update((t, pid) for t in range(start, start + length))
    dup_frames = {int(t) for t in rng.child("dups").integers(1, F - 1, (3,))}

    def pos(p):
        return "[null, null]" if p is None else f"[{p[0]:.2f}, {p[1]:.2f}]"

    lines = []
    for t, f in enumerate(clip.frames):
        teams = []
        for name, team in (("team0", f.team0), ("team1", f.team1)):
            parts = []
            for pid in sorted(team):
                p = None if (t, pid) in missing else team[pid]
                parts.append(f'"{pid}": {pos(p)}')
                if t in dup_frames and pid == "A2":
                    off = rng.child("dup", t).uniform(0.3, 1.5, (2,))
                    parts.append(f'"{pid}": {pos((p[0] + off[0], p[1] + off[1]))}')
            teams.append(f'"{name}": {{{", ".join(parts)}}}')
        lines.append(f'  "{f.index}": {{"ball": {pos(f.ball)}, {", ".join(teams)}}}')
    return "{\n" + ",\n".join(lines) + "\n}\n"


class Evaluate:
    """Per clip: load a defective raw file, refine, save, resample to 25 fps,
    window; then the geometric, structure and offense/defense metrics against
    K futures stored in setup, and event grounding with an event model
    trained in setup."""

    cycle = 1
    period = n_clips = 36

    def __init__(self, seed, workdir):
        self.pitch = data.PitchSpec.for_sport("soccer")
        self.epv = metrics.synthetic_epv(self.pitch)
        labelled = fixtures.event_class_clips(
            48, seed=sub_seed(seed, "evaluate", "events"), n_players=N_PLAYERS,
            fps=FPS, duration_s=1.0)
        config = training.desk_event_config(
            l_max=int(FPS), epochs=10, batch_size=8, lr_peak=5e-3,
            warmup_ratio=0.0, early_stop_patience=10, seed=seed)
        self.event_model, _ = training.train(
            training.split_clips(labelled, 0.25, seed=seed), config)

        rng = Rng(seed, ("perfbench", "evaluate", "defects"))
        clean = fixtures.event_class_clips(
            self.n_clips, seed=sub_seed(seed, "evaluate", "clips"),
            n_players=N_PLAYERS, fps=EVAL_RAW_FPS, duration_s=1.0)
        self.raw_paths, self.clean_paths, self.futures = [], [], []
        for c, clip in enumerate(clean):
            raw = workdir / f"raw_{c:03d}.json"
            raw.write_text(_raw_clip_text(clip, rng.child("clip", c)), "utf-8")
            raw.with_suffix(".meta.json").write_text(json.dumps(
                {**clip.metadata, "fps": EVAL_RAW_FPS,
                 "players_per_team": N_PLAYERS}), "utf-8")
            self.raw_paths.append(raw)
            self.clean_paths.append(workdir / f"clean_{c:03d}.json")
            _, fut = data.window(data.resample(clip, FPS), 0, EVAL_HISTORY,
                                 EVAL_FUTURE)
            walk = rng.child("futures", c).normal((K, EVAL_FUTURE, fut.n_entities, 2))
            self.futures.append(list(fut.coords + 0.15 * walk.cumsum(axis=1)))

    def run(self, i):
        c = i % self.n_clips
        clip = data.load_clip(self.raw_paths[c], on_duplicate="collect")
        refined = data.refine(clip)
        data.save_clip(refined, self.clean_paths[c])
        resampled = data.resample(refined, FPS)
        hist, fut = data.window(resampled, 0, EVAL_HISTORY, EVAL_FUTURE)
        samples = self.futures[c]
        report = metrics.aggregate_over_k(samples, fut.coords, FPS,
                                          horizons=(EVAL_HORIZON,))
        deviation = metrics.structure_deviation(
            samples, fut.coords, FPS, N_PLAYERS, horizons=(EVAL_HORIZON,),
            history_last=hist.coords[-1])
        n = N_PLAYERS
        prev = hist.coords[-1]
        frames = []
        for t in range(EVAL_FUTURE):
            now = fut.coords[t]
            att, dfn = now[:n], now[n:2 * n]
            vel = (now - prev) * FPS
            prev = now
            frames.append((metrics.obet(att, dfn, self.epv),
                           metrics.depth_threat(att, dfn, self.epv),
                           metrics.width_threat(att, dfn, self.epv),
                           metrics.dominant_region(dfn, att, vel[n:2 * n],
                                                   vel[:n], self.pitch)))
        pred = events.ground_event(resampled, self.event_model)
        return c, clip, fut, report, deviation, np.array(frames), pred

    def check(self, i, output):
        c, clip, fut, report, deviation, frames, pred = output
        failures = []
        text = self.clean_paths[c].read_text("utf-8")
        if data.serialize_clip(data.parse_clip(text, fps=clip.fps)) != text:
            failures.append("parse/serialize round trip changed the text")
        if (frames[:, :3] < 0).any():
            failures.append("negative OBET or zone threat")
        n = N_PLAYERS
        areas = [frames[:, 3]] + [[metrics.hull_area(now[side * n:(side + 1) * n])
                                   for now in fut.coords] for side in (0, 1)]
        if not all(0.0 <= a <= self.pitch.area for a in np.ravel(areas)):
            failures.append("region or hull area outside [0, pitch area]")
        sums = [pred.type_probs.sum(), pred.combined.sum(),
                *(p.sum() for p in pred.subtype_probs.values())]
        if any(abs(s - 1.0) > 1e-9 for s in sums):
            failures.append("event probabilities do not sum to 1")
        correct = pred.predicted_type == clip.metadata["event_type"]
        dev = [v for h in deviation.values() for pair in h.values() for v in pair]
        return Result(1, report.min_ade[EVAL_HORIZON], failures,
                      type_correct=correct,
                      digest=text.encode() + _hash_arrays([frames, np.array(dev)]))


WORKLOADS = {"sample": Sample, "train": Train, "evaluate": Evaluate}
