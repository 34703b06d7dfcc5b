"""Optimization loops for the forecasting and event tasks.

Both tasks share the schedule shape (linear warmup into cosine decay, global
gradient-norm clipping, best-checkpoint retention with patience-based early
stopping) but differ in optimizer flavor: decoupled weight decay for the
diffusion forecaster, plain Adam for the event classifier. Validation for
the forecaster is the diffusion MSE on held-out windows with frozen noise
draws, so the number is comparable across epochs; the event task validates
on top-1 type accuracy with loss as the tie-break.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace as dc_replace

import numpy as np

from . import autodiff as ad
from .backbone import ModelConfig, TrajectoryModel, assign_parameters, load_checkpoint
from .data import (PitchSpec, clip_to_segment, flip_augment, normalize,
                   window, with_players_per_team)
from .diffusion import diffusion_loss, make_schedule
from .events import EventModel, event_grid, hierarchical_loss_batch
from .rng import Rng


@dataclass(frozen=True)
class TrainConfig:
    task: str                      # "forecast" or "event"
    lr_peak: float = 1e-3
    weight_decay: float = 1e-4
    warmup_ratio: float = 0.02
    epochs: int = 60
    batch_size: int = 200
    grad_clip: float = 1.0
    early_stop_patience: int = 35
    seed: int = 0
    base_checkpoint: str | None = None
    condition_setting: str | None = None
    condition_value: str | None = None

    # model geometry
    d: int = 256
    layers: int = 4
    heads: int = 8
    n_players: int = 11
    l_max: int = 250

    # forecast-task geometry (frames) and diffusion schedule
    history_frames: int = 100
    window_frames: int = 5
    max_history_frames: int | None = None  # train the rollout lengths too
    diffusion_steps: int = 100
    beta_start: float = 1e-4
    beta_end: float = 0.02
    forecast_task: str = "forecast_joint"  # or forecast_single
    fixed_start: bool = False  # windows anchored at frame 0 (style fixtures)

    # event task
    flip_prob: float = 0.5
    lambda_sub: float = 1.0

    sport: str = "soccer"

    def __post_init__(self):
        if self.task not in ("forecast", "event"):
            raise ValueError("task must be 'forecast' or 'event'")
        if not 0.0 <= self.warmup_ratio < 1.0:
            raise ValueError("warmup_ratio must lie in [0, 1)")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.early_stop_patience < 0:
            raise ValueError("patience must be non-negative")

    def model_config(self):
        return ModelConfig(d=self.d, layers=self.layers, heads=self.heads,
                           n_players=self.n_players, l_max=self.l_max)

    def schedule(self):
        return make_schedule(self.diffusion_steps, self.beta_start, self.beta_end)


def paper_forecast_config(**over):
    """Full-scale trajectory settings: 4 s history, 0.2 s window at 25 fps."""
    return dc_replace(TrainConfig(task="forecast"), **over)


def paper_event_config(**over):
    return dc_replace(TrainConfig(
        task="event", lr_peak=5e-4, epochs=200, batch_size=32,
        early_stop_patience=35), **over)


def desk_forecast_config(**over):
    """Small configuration that trains in minutes on a laptop CPU.

    beta_end is raised so the forward process actually reaches near-zero
    signal at S=100 (the library default endpoints leave alpha_bar(S) at
    0.36, which starves pure-noise sampling of a consistent start)."""
    return dc_replace(TrainConfig(
        task="forecast", d=32, layers=2, heads=4, n_players=3, l_max=64,
        epochs=12, batch_size=16, history_frames=25, window_frames=5,
        max_history_frames=45, early_stop_patience=6, beta_end=0.2), **over)


def desk_event_config(**over):
    return dc_replace(TrainConfig(
        task="event", lr_peak=5e-4, d=32, layers=2, heads=4, n_players=3,
        l_max=64, epochs=30, batch_size=16, early_stop_patience=8), **over)


# ---------------------------------------------------------------------------
# schedules and updates
# ---------------------------------------------------------------------------

def lr_at(step: int, total_steps: int, config: TrainConfig) -> float:
    """Linear ramp to lr_peak over the warmup span, then cosine to zero."""
    if not 0 <= step <= total_steps:
        raise ValueError("step outside [0, total_steps]")
    if total_steps == 0:
        return config.lr_peak
    warmup = config.warmup_ratio * total_steps
    if step < warmup:
        return config.lr_peak * step / warmup
    if total_steps == warmup:
        return config.lr_peak
    phase = (step - warmup) / (total_steps - warmup)
    return config.lr_peak * 0.5 * (1.0 + math.cos(math.pi * phase))


def global_grad_norm(params) -> float:
    return math.sqrt(sum(float((p.grad * p.grad).sum()) for p in params))


def clip_gradients(params, max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most max_norm."""
    norm = global_grad_norm(params)
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / norm
        for p in params:
            p.grad = p.grad * scale
    return norm


@dataclass
class AdamState:
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def optimizer_step(params, grads_ready: bool, config: TrainConfig,
                   state: AdamState, lr: float):
    """One update: clip, Adam moments, and for the forecast task the
    decoupled weight-decay term. The event task runs plain Adam."""
    if not grads_ready:
        raise ValueError("optimizer_step expects populated gradients")
    clip_gradients(params, config.grad_clip)
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    bc1 = 1.0 - b1 ** state.t
    bc2 = 1.0 - b2 ** state.t
    decay = config.weight_decay if config.task == "forecast" else 0.0
    for p in params:
        g = p.grad
        m = state.m.get(p.name)
        v = state.v.get(p.name)
        m = b1 * m + (1 - b1) * g if m is not None else (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g if v is not None else (1 - b2) * g * g
        state.m[p.name] = m
        state.v[p.name] = v
        update = (m / bc1) / (np.sqrt(v / bc2) + state.eps)
        if decay:
            update = update + decay * p.data
        p.data = p.data - lr * update


# ---------------------------------------------------------------------------
# datasets
# ---------------------------------------------------------------------------

@dataclass
class TrainSplit:
    train: list
    valid: list


def split_clips(clips, valid_fraction=0.2, seed=0) -> TrainSplit:
    """Clip-level split; a clip's windows never straddle train and valid."""
    order = Rng(seed, ("split",)).permutation(len(clips))
    n_valid = max(1, int(round(valid_fraction * len(clips)))) if len(clips) > 1 else 0
    valid_idx = set(int(i) for i in order[:n_valid])
    return TrainSplit(
        train=[c for i, c in enumerate(clips) if i not in valid_idx],
        valid=[c for i, c in enumerate(clips) if i in valid_idx],
    )


@dataclass
class TrainResult:
    params: dict              # best-by-validation parameter arrays
    log: list                 # (epoch, train_loss, valid_metric, lr) rows
    best_epoch: int
    best_metric: float
    config: TrainConfig

    def log_csv(self) -> str:
        rows = ["epoch,train_loss,valid_metric,learning_rate"]
        rows += [f"{e},{tl:.10g},{vm:.10g},{lr:.10g}" for e, tl, vm, lr in self.log]
        return "\n".join(rows) + "\n"


def _snapshot(params):
    return {name: p.data.copy() for name, p in params.items()}


def _restore(params, snap):
    for name, p in params.items():
        p.data = snap[name].copy()


# ---------------------------------------------------------------------------
# forecast task
# ---------------------------------------------------------------------------

def _forecast_segments(clips, config):
    pitch = PitchSpec.for_sport(config.sport)
    out = []
    for clip in clips:
        clip = with_players_per_team(clip, config.n_players)
        seg = normalize(clip_to_segment(clip), pitch)
        side = clip.metadata.get("target_side")
        out.append((seg, None if side is None else int(side)))
    return out


def _forecast_batch(segments, config: TrainConfig, rng: Rng, n_items: int):
    """Windows of one shared history length (so the batch stacks)."""
    w = config.window_frames
    h_max = config.max_history_frames or config.history_frames
    n_choices = max(1, (h_max - config.history_frames) // w + 1)
    hl = config.history_frames + w * int(rng.child("hlen").integers(0, n_choices))
    batch = []
    for b in range(n_items):
        r = rng.child("item", b)
        seg, side = segments[int(r.child("clip").integers(0, len(segments)))]
        max_start = len(seg) - hl - w
        if max_start < 0:
            raise ValueError(
                f"clip of {len(seg)} frames too short for history {hl} + window {w}")
        start = 0 if config.fixed_start else int(r.child("start").integers(0, max_start + 1))
        hist, fut = window(seg, start, hl, w)
        if config.forecast_task == "forecast_single":
            target = side if side is not None else int(r.child("side").integers(0, 2))
        else:
            target = None
        batch.append((hist, fut, config.forecast_task, target))
    return batch


def _forecast_valid_loss(model, segments, config, schedule, rng: Rng) -> float:
    """Diffusion MSE on centered held-out windows with frozen noise draws."""
    losses = []
    bs = min(config.batch_size, 16)
    batch = []
    for i, (seg, side) in enumerate(segments):
        hl, w = config.history_frames, config.window_frames
        if len(seg) < hl + w:
            continue
        start = 0 if config.fixed_start else (len(seg) - hl - w) // 2
        hist, fut = window(seg, start, hl, w)
        target = (side if side is not None else i % 2) \
            if config.forecast_task == "forecast_single" else None
        batch.append((hist, fut, config.forecast_task, target))
        if len(batch) == bs:
            losses.append(float(diffusion_loss(
                model, batch, schedule, rng.child("vbatch", len(losses))).data))
            batch = []
    if batch:
        losses.append(float(diffusion_loss(
            model, batch, schedule, rng.child("vbatch", len(losses))).data))
    if not losses:
        raise ValueError("validation split produced no usable windows")
    return float(np.mean(losses))


def _train_forecast(split: TrainSplit, config: TrainConfig, model=None):
    rng = Rng(config.seed, ("train", "forecast"))
    if model is None:
        model = TrajectoryModel(config.model_config(), rng.child("init"))
    schedule = config.schedule()
    train_segs = _forecast_segments(split.train, config)
    valid_segs = _forecast_segments(split.valid, config)
    if not train_segs:
        raise ValueError("empty training split")
    if not valid_segs:
        raise ValueError("empty validation split")

    params = model.params
    state = AdamState()
    steps_per_epoch = max(1, len(train_segs) // config.batch_size)
    total_steps = max(1, config.epochs * steps_per_epoch)

    best = (math.inf, -1, _snapshot(params))
    log = []
    stale = 0
    step = 0
    for epoch in range(config.epochs):
        epoch_losses = []
        for i in range(steps_per_epoch):
            r = rng.child("epoch", epoch, "step", i)
            batch = _forecast_batch(train_segs, config, r, config.batch_size)
            for p in params.values():
                p.zero_grad()
            loss = diffusion_loss(model, batch, schedule, r.child("noise"))
            ad.backward(loss)
            lr = lr_at(step, total_steps, config)
            optimizer_step(list(params.values()), True, config, state, lr)
            epoch_losses.append(float(loss.data))
            step += 1
        with ad.no_grad():  # validation never calls backward
            vloss = _forecast_valid_loss(model, valid_segs, config, schedule,
                                         rng.child("valid"))
        log.append((epoch, float(np.mean(epoch_losses)), vloss, lr))
        if vloss < best[0]:
            best = (vloss, epoch, _snapshot(params))
            stale = 0
        else:
            stale += 1
            if stale > config.early_stop_patience:
                break
    _restore(params, best[2])
    return model, TrainResult(best[2], log, best[1], best[0], config)


# ---------------------------------------------------------------------------
# event task
# ---------------------------------------------------------------------------

def _event_items(clips, config):
    pitch = PitchSpec.for_sport(config.sport)
    items = []
    for clip in clips:
        clip = with_players_per_team(clip, config.n_players)
        label = (clip.metadata.get("event_type"), clip.metadata.get("event_subtype"))
        if label[0] is None or label[1] is None:
            raise ValueError("event training clips need event_type/event_subtype tags")
        items.append((normalize(clip_to_segment(clip), pitch), label))
    return items


def _event_forward(model, items, config, rng=None):
    segs = []
    for i, (seg, _) in enumerate(items):
        if rng is not None:
            seg = flip_augment(seg, config.flip_prob, config.flip_prob,
                               rng.child("flip", i))
        segs.append(seg)
    grids = [event_grid(s, config.l_max) for s in segs]
    return model.logits(grids)


def _event_valid(model, items, config):
    """(top-1 type accuracy, mean loss) on the validation items."""
    correct = 0
    losses = []
    for chunk_start in range(0, len(items), config.batch_size):
        chunk = items[chunk_start:chunk_start + config.batch_size]
        type_logits, sub_logits = _event_forward(model, chunk, config)
        labels = [lab for _, lab in chunk]
        loss = hierarchical_loss_batch(type_logits, sub_logits, labels,
                                       config.lambda_sub, model.taxonomy)
        losses.append(float(loss.data))
        pred_idx = np.argmax(type_logits.data, axis=1)
        for k, (_, lab) in enumerate(chunk):
            if model.taxonomy.types[pred_idx[k]] == lab[0]:
                correct += 1
    return correct / len(items), float(np.mean(losses))


def _train_event(split: TrainSplit, config: TrainConfig, model=None):
    rng = Rng(config.seed, ("train", "event"))
    if model is None:
        model = EventModel(config.model_config(), rng.child("init"))
    train_items = _event_items(split.train, config)
    valid_items = _event_items(split.valid, config)
    if not train_items or not valid_items:
        raise ValueError("empty train or validation split")

    params = model.params
    state = AdamState()
    steps_per_epoch = max(1, len(train_items) // config.batch_size)
    total_steps = max(1, config.epochs * steps_per_epoch)

    # best = (accuracy, -loss) lexicographic, loss breaking accuracy ties
    best_key = (-math.inf, -math.inf)
    best = (-1, _snapshot(params), math.inf)
    log = []
    stale = 0
    step = 0
    for epoch in range(config.epochs):
        order = rng.child("shuffle", epoch).permutation(len(train_items))
        epoch_losses = []
        for i in range(steps_per_epoch):
            idx = order[i * config.batch_size:(i + 1) * config.batch_size]
            batch = [train_items[int(j)] for j in idx]
            if not batch:
                continue
            r = rng.child("epoch", epoch, "step", i)
            type_logits, sub_logits = _event_forward(model, batch, config, r)
            labels = [lab for _, lab in batch]
            loss = hierarchical_loss_batch(type_logits, sub_logits, labels,
                                           config.lambda_sub, model.taxonomy)
            for p in params.values():
                p.zero_grad()
            ad.backward(loss)
            lr = lr_at(step, total_steps, config)
            optimizer_step(list(params.values()), True, config, state, lr)
            epoch_losses.append(float(loss.data))
            step += 1
        with ad.no_grad():  # validation never calls backward
            acc, vloss = _event_valid(model, valid_items, config)
        log.append((epoch, float(np.mean(epoch_losses)), acc, lr))
        key = (acc, -vloss)
        if key > best_key:
            best_key = key
            best = (epoch, _snapshot(params), vloss)
            stale = 0
        else:
            stale += 1
            if stale > config.early_stop_patience:
                break
    _restore(params, best[1])
    return model, TrainResult(best[1], log, best[0], best_key[0], config)


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------

def train(split: TrainSplit, config: TrainConfig, model=None):
    """Run the configured task; returns (model, TrainResult).

    The returned model carries the parameters of the epoch with the best
    validation metric, never a later, worse one.
    """
    if config.task == "forecast":
        return _train_forecast(split, config, model)
    return _train_event(split, config, model)


def finetune(base_checkpoint: str, split: TrainSplit, config: TrainConfig):
    """Continue training from a checkpoint on a condition-filtered subset."""
    ck_config, _, arrays = load_checkpoint(base_checkpoint)
    model_cfg = config.model_config()
    if ModelConfig.from_dict(ck_config) != model_cfg:
        raise ValueError(
            f"checkpoint config {ck_config} incompatible with {model_cfg.to_dict()}")
    rng = Rng(config.seed, ("finetune", config.task))
    if config.task == "forecast":
        model = TrajectoryModel(model_cfg, rng.child("init"))
    else:
        model = EventModel(model_cfg, rng.child("init"))
    assign_parameters(model.params, arrays)
    if config.epochs == 0:
        snap = _snapshot(model.params)
        return model, TrainResult(snap, [], -1, math.nan, config)
    return train(split, config, model=model)
