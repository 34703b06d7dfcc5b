"""Training for the forecasting and event tasks: one loop, two tasks.

`_fit` runs what both share: linear warmup into cosine decay, global
gradient-norm clipping, the Adam(W) step, a tape-free validation pass per
epoch, best-epoch retention and patience-based early stopping. A task
supplies `step_loss(epoch, i, r)`, one training batch's loss, and
`validate()`, the logged metric with a higher-is-better selection key. The
forecaster validates on the diffusion MSE of held-out windows with frozen
noise draws, so the number is comparable across epochs, and decays weights
decoupled from Adam; the event classifier validates on top-1 type accuracy,
loss breaking ties, and runs plain Adam.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace as dc_replace

import numpy as np

from . import autodiff as ad
from .backbone import ModelConfig, TrajectoryModel, assign_parameters, load_checkpoint
from .data import (PitchSpec, flip_augment, normalize, window,
                   with_players_per_team)
from .diffusion import diffusion_loss, make_schedule
from .events import EventModel, event_grid, hierarchical_loss_batch
from .rng import Rng


@dataclass(frozen=True)
class TrainConfig:
    """Training settings for either task. The defaults are the paper-scale
    forecaster settings: 4 s history and a 0.2 s window at 25 fps."""

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


def optimizer_step(params, config: TrainConfig, state: AdamState, lr: float):
    """One update: clip, Adam moments, and for the forecast task the
    decoupled weight-decay term. The event task runs plain Adam."""
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
# the training loop
# ---------------------------------------------------------------------------

def _fit(model, config: TrainConfig, rng: Rng, n_train: int, step_loss, validate):
    """Train `model` in place on `n_train` items; the model and TrainResult
    end on the epoch with the highest selection key."""
    params = model.params
    state = AdamState()
    steps_per_epoch = max(1, n_train // config.batch_size)
    total_steps = max(1, config.epochs * steps_per_epoch)

    best_key = (-math.inf,)
    # with no epoch run, the metric reads as the worst a task can log
    best_metric = math.inf if config.task == "forecast" else -math.inf
    best_epoch, best = -1, _snapshot(params)
    log = []
    stale = 0
    step = 0
    for epoch in range(config.epochs):
        epoch_losses = []
        for i in range(steps_per_epoch):
            loss = step_loss(epoch, i, rng.child("epoch", epoch, "step", i))
            for p in params.values():
                p.zero_grad()
            ad.backward(loss)
            lr = lr_at(step, total_steps, config)
            optimizer_step(list(params.values()), config, state, lr)
            epoch_losses.append(float(loss.data))
            step += 1
        with ad.no_grad():  # validation never calls backward
            metric, key = validate()
        log.append((epoch, float(np.mean(epoch_losses)), metric, lr))
        if key > best_key:
            best_key, best_metric, best_epoch = key, metric, epoch
            best = _snapshot(params)
            stale = 0
        else:
            stale += 1
            if stale > config.early_stop_patience:
                break
    _restore(params, best)
    return model, TrainResult(best, log, best_epoch, best_metric, config)


def _normalized(clip, config):
    """`clip` narrowed to the model's team size, densified and normalised."""
    return normalize(with_players_per_team(clip, config.n_players),
                     PitchSpec.for_sport(config.sport))


def _forecast_segments(clips, config):
    out = []
    for clip in clips:
        side = clip.metadata.get("target_side")
        out.append((_normalized(clip, config), None if side is None else int(side)))
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
    hl, w = config.history_frames, config.window_frames
    items = []
    for i, (seg, side) in enumerate(segments):
        if len(seg) < hl + w:
            continue
        start = 0 if config.fixed_start else (len(seg) - hl - w) // 2
        hist, fut = window(seg, start, hl, w)
        target = (side if side is not None else i % 2) \
            if config.forecast_task == "forecast_single" else None
        items.append((hist, fut, config.forecast_task, target))
    if not items:
        raise ValueError("validation split produced no usable windows")
    bs = min(config.batch_size, 16)
    return float(np.mean([
        float(diffusion_loss(model, items[j:j + bs], schedule,
                             rng.child("vbatch", j // bs)).data)
        for j in range(0, len(items), bs)]))


def _fit_forecast(model, split: TrainSplit, config: TrainConfig, rng: Rng):
    schedule = config.schedule()
    train_segs = _forecast_segments(split.train, config)
    valid_segs = _forecast_segments(split.valid, config)

    def step_loss(epoch, i, r):
        batch = _forecast_batch(train_segs, config, r, config.batch_size)
        return diffusion_loss(model, batch, schedule, r.child("noise"))

    def validate():
        vloss = _forecast_valid_loss(model, valid_segs, config, schedule,
                                     rng.child("valid"))
        return vloss, (-vloss,)

    return _fit(model, config, rng, len(train_segs), step_loss, validate)


def _event_items(clips, config):
    items = []
    for clip in clips:
        label = (clip.metadata.get("event_type"), clip.metadata.get("event_subtype"))
        if label[0] is None or label[1] is None:
            raise ValueError("event training clips need event_type/event_subtype tags")
        items.append((_normalized(clip, config), label))
    return items


def _event_loss(model, items, config, rng=None):
    """(type logits, hierarchical loss) on `items`; with `rng`, each item is
    flip-augmented first."""
    segs = [seg if rng is None else flip_augment(
                seg, config.flip_prob, config.flip_prob, rng.child("flip", i))
            for i, (seg, _) in enumerate(items)]
    type_logits, sub_logits = model.logits([event_grid(s, config.l_max) for s in segs])
    loss = hierarchical_loss_batch(type_logits, sub_logits, [lab for _, lab in items],
                                   config.lambda_sub, model.taxonomy)
    return type_logits, loss


def _fit_event(model, split: TrainSplit, config: TrainConfig, rng: Rng):
    train_items = _event_items(split.train, config)
    valid_items = _event_items(split.valid, config)
    order = None

    def step_loss(epoch, i, r):
        nonlocal order
        if i == 0:  # one shuffle per epoch
            order = rng.child("shuffle", epoch).permutation(len(train_items))
        idx = order[i * config.batch_size:(i + 1) * config.batch_size]
        return _event_loss(model, [train_items[int(j)] for j in idx], config, r)[1]

    def validate():  # top-1 type accuracy, mean loss breaking ties
        correct, losses = 0, []
        for start in range(0, len(valid_items), config.batch_size):
            chunk = valid_items[start:start + config.batch_size]
            type_logits, loss = _event_loss(model, chunk, config)
            losses.append(float(loss.data))
            pred_idx = np.argmax(type_logits.data, axis=1)
            for k, (_, lab) in enumerate(chunk):
                if model.taxonomy.types[pred_idx[k]] == lab[0]:
                    correct += 1
        acc = correct / len(valid_items)
        return acc, (acc, -float(np.mean(losses)))

    return _fit(model, config, rng, len(train_items), step_loss, validate)


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------

MODELS = {"forecast": TrajectoryModel, "event": EventModel}


def train(split: TrainSplit, config: TrainConfig, model=None):
    """Run the configured task; returns (model, TrainResult).

    The returned model carries the parameters of the epoch with the best
    validation metric, never a later, worse one.
    """
    if not split.train or not split.valid:
        raise ValueError("empty train or validation split")
    rng = Rng(config.seed, ("train", config.task))
    if model is None:
        model = MODELS[config.task](config.model_config(), rng.child("init"))
    fit_task = _fit_forecast if config.task == "forecast" else _fit_event
    return fit_task(model, split, config, rng)


def finetune(base_checkpoint: str, split: TrainSplit, config: TrainConfig):
    """Continue training from a checkpoint on a condition-filtered subset."""
    ck_config, _, arrays = load_checkpoint(base_checkpoint)
    model_cfg = config.model_config()
    if ModelConfig.from_dict(ck_config) != model_cfg:
        raise ValueError(
            f"checkpoint config {ck_config} incompatible with {model_cfg.to_dict()}")
    rng = Rng(config.seed, ("finetune", config.task))
    model = MODELS[config.task](model_cfg, rng.child("init"))
    assign_parameters(model.params, arrays)
    if config.epochs == 0:
        snap = _snapshot(model.params)
        return model, TrainResult(snap, [], -1, math.nan, config)
    return train(split, config, model=model)
