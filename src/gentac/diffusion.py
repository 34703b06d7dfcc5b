"""Windowed denoising diffusion over future trajectory segments.

The target future is diffused as each entity's scaled displacement from its
anchor, `ANCHOR_SCALE * (x - anchor)` (see `backbone`), not as absolute pitch
coordinates. Training corrupts those target slots with Gaussian noise at a
random step and regresses the clean displacement (x0 prediction); each
window is corrupted `DRAWS_PER_WINDOW` times, and its history is encoded
once for all of those draws (`backbone.TokenBatch.draws`). Sampling
starts a window from pure noise and walks the reverse chain, converting each
clean estimate to the noise it implies for the ancestral update; long
horizons are chains of such windows, each conditioned on everything
generated so far. Every coordinate not flagged as a noise target is held
bit-identical through all reverse steps.

A window's K chains share one `backbone.TokenBatch`, its clip bounds and
its history encoding, all built once; each reverse step updates the target
slots in place and runs the network on the W future rows only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .backbone import (TrajectoryModel, build_token_grid, from_displacement,
                       stack_grids, to_displacement)
from .data import Segment, segment_to_clip
from .rng import Rng


@dataclass(frozen=True)
class DiffusionSchedule:
    betas: np.ndarray       # step variances, betas[s-1] belongs to step s
    alpha_bars: np.ndarray  # cumulative products of (1 - beta)

    @property
    def steps(self):
        return len(self.betas)

    def beta(self, s: int) -> float:
        return float(self.betas[s - 1])

    def alpha_bar(self, s: int) -> float:
        return float(self.alpha_bars[s - 1])


def make_schedule(steps: int, beta_start: float = 1e-4,
                  beta_end: float = 0.02) -> DiffusionSchedule:
    """Linear variance schedule, endpoints inclusive."""
    if steps < 1:
        raise ValueError("need at least one diffusion step")
    if not (0.0 < beta_start <= beta_end < 1.0):
        raise ValueError("beta bounds must satisfy 0 < start <= end < 1")
    betas = np.linspace(beta_start, beta_end, steps)
    alpha_bars = np.cumprod(1.0 - betas)
    return DiffusionSchedule(betas, alpha_bars)


def forward_noise(x_f: np.ndarray, s: int, schedule: DiffusionSchedule,
                  rng: Rng):
    """Corrupt `x_f` to step `s`; returns (x_s, epsilon)."""
    if not 1 <= s <= schedule.steps:
        raise ValueError(f"step {s} outside 1..{schedule.steps}")
    ab = schedule.alpha_bar(s)
    eps = rng.normal(np.shape(x_f))
    return math.sqrt(ab) * np.asarray(x_f) + math.sqrt(1.0 - ab) * eps, eps


def denoise_step(x_s: np.ndarray, eps_hat: np.ndarray, s: int,
                 schedule: DiffusionSchedule, rng: Rng) -> np.ndarray:
    """One ancestral reverse update with sigma_s^2 = beta_s; no noise at s=1."""
    if not 1 <= s <= schedule.steps:
        raise ValueError(f"step {s} outside 1..{schedule.steps}")
    beta = schedule.beta(s)
    ab = schedule.alpha_bar(s)
    mean = (np.asarray(x_s) - beta / math.sqrt(1.0 - ab) * np.asarray(eps_hat)) \
        / math.sqrt(1.0 - beta)
    if s == 1:
        return mean
    return mean + math.sqrt(beta) * rng.normal(np.shape(x_s))


# ---------------------------------------------------------------------------
# training objective
# ---------------------------------------------------------------------------

DRAWS_PER_WINDOW = 2
"""(step, noise) draws per training window, M. The draws of a window share
one history encoding, so a loss term costs its W future rows plus 1/M of
the history's. Draws of one window are correlated: trained for the same
number of epochs, the desk forecaster forecast about as well at M = 2 as
with one draw, and worse at M = 4."""


def diffusion_loss(model: TrajectoryModel, batch, schedule: DiffusionSchedule,
                   rng: Rng) -> ad.Tensor:
    """Mean squared clean-target error over target coordinates only.

    `batch` is a list of (history Segment, future Segment, target_side)
    windows of identical shape and one history length; a target_side is
    read as `build_token_grid` reads it. A target's clean value is its scaled
    displacement from its entity's anchor, `ANCHOR_SCALE * (x - anchor)`.
    Each window draws `DRAWS_PER_WINDOW` independent uniform steps, each with
    its own noise, and the network regresses the clean value from each
    noised copy; the copies are consecutive rows of one batch that share
    the window's history encoding. Masked (non-target) coordinates never
    enter the loss, so a network emitting the exact clean displacement
    scores zero and one emitting zeros (stay at the anchor) scores the
    second moment of the clean displacement.
    """
    grids = []
    x0_all = []
    steps = []
    for i, (history, future, target_side) in enumerate(batch):
        grid = build_token_grid(history, future, target_side)
        H = grid.history_len
        mask = grid.noise_target[H:]
        x0 = np.zeros_like(grid.coords)
        x0[H:][mask] = to_displacement(grid.coords[H:], grid.anchor)[mask]
        for j in range(DRAWS_PER_WINDOW):
            r = rng.child("item", i, "draw", j)
            s = int(r.child("step").integers(1, schedule.steps + 1))
            x_s, _ = forward_noise(x0[H:], s, schedule, r.child("noise"))
            noised = grid.coords.copy()
            noised[H:][mask] = x_s[mask]
            grids.append(replace(grid, coords=noised))
            x0_all.append(x0)
            steps.append(s)

    tokens = stack_grids(grids)
    tokens.draws = DRAWS_PER_WINDOW
    m = np.repeat(tokens.noise_target[..., None], 2, axis=-1).astype(np.float64)
    count = int(m.sum())
    if count == 0:
        raise ValueError("batch contains no noise-target coordinates")
    # one batched forward; the step embedding varies per row
    x0_hat = model.predict_noise(tokens, step=steps)
    x0_true = np.stack(x0_all)
    diff = ad.mul(x0_hat - ad.Tensor(x0_true), ad.Tensor(m))
    return ad.mul(ad.sum_(ad.mul(diff, diff)), ad.as_tensor(1.0 / count))


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RolloutConfig:
    """Window/horizon geometry plus the conditioning regime.

    Only `opponent` and `team` change the rollout: they generate the
    `target_side`'s players on the other side's and the ball's true future.
    `league` and `objective` sample like `unconditioned` (styles come from
    fine-tuning on a `condition_tagging` subset).

    Seconds are converted to frames by rounding to nearest; a residual above
    0.4 frames is a configuration error. The horizon must quantize to a whole
    number of windows, at least one.
    """

    window: float            # seconds per causal window
    history: float           # seconds of observed context
    horizon: float           # total seconds to generate
    samples: int = 1         # K
    setting: str = "unconditioned"  # or opponent | team | league | objective
    target_side: int | None = None  # predicted side in opponent | team
    fps: float = 25.0

    def frames(self, seconds: float) -> int:
        exact = seconds * self.fps
        n = round(exact)
        if abs(exact - n) > 0.4:
            raise ValueError(
                f"{seconds}s is {exact} frames at {self.fps} fps; "
                "not representable within 0.4 frames")
        return int(n)

    @property
    def window_frames(self):
        n = self.frames(self.window)
        if n < 1:
            raise ValueError("window shorter than one frame")
        return n

    @property
    def history_frames(self):
        return self.frames(self.history)

    @property
    def horizon_frames(self):
        n = self.frames(self.horizon)
        if n < self.window_frames:
            raise ValueError(
                f"horizon of {n} frames is shorter than the "
                f"{self.window_frames}-frame window")
        if n % self.window_frames != 0:
            raise ValueError(
                f"horizon of {n} frames is not a multiple of the "
                f"{self.window_frames}-frame window")
        return n

    @property
    def n_windows(self):
        return self.horizon_frames // self.window_frames

    @property
    def single_team(self):
        return self.setting in ("opponent", "team")

    def validate(self):
        if self.samples < 1:
            raise ValueError("need at least one sample")
        if self.setting not in ("unconditioned", "opponent", "team",
                                "league", "objective"):
            raise ValueError(f"unknown setting '{self.setting}'")
        if self.single_team and self.target_side not in (0, 1):
            raise ValueError(f"setting '{self.setting}' needs target_side 0 or 1")
        if not self.single_team and self.target_side is not None:
            raise ValueError(f"setting '{self.setting}' predicts both sides "
                             f"and takes no target_side")
        _ = self.n_windows
        return self


@dataclass
class FutureSampleSet:
    """K generated futures sharing one history, with their RNG records.

    The futures stay in normalized coordinates, like the history; `to_clips`
    writes them as clips in meters. `clamped_coords` counts the target
    coordinates, over every chain, window and reverse step, whose predicted
    clean displacement the x0 clip moved so that the position it implies
    lies inside the normalized pitch square.
    """

    history: Segment
    samples: list            # Segments of identical length and roster
    seeds: list              # rng.describe() per sample
    network_evals: int
    clamped_coords: int

    @property
    def k(self):
        return len(self.samples)

    def to_clips(self, sport="soccer", metadata=None):
        return [segment_to_clip(s, sport=sport, metadata=dict(metadata or {}))
                for s in self.samples]


def sample_windows_batch(histories, futures, model, schedule, rngs,
                         target_side=None):
    """Reverse diffusion for several chains of one shape and history length
    in one model batch.

    `futures` holds one window future per chain, which sets the window
    length and fills the future rows of its grid (`build_token_grid`): with
    a `target_side`, the true window Segment, whose other-side and ball
    slots condition the chain; with none, a zero [w x E x 2] placeholder,
    where every future slot is a target. Each chain keeps its own RNG
    stream, so a chain's output is a function of its own (history, future,
    rng) alone.

    The state of a target slot is its scaled displacement from its entity's
    anchor. At each step the network predicts the clean displacement x0,
    and that estimate is clipped so the position it implies stays inside
    the normalized pitch square. The clipped estimate is converted to the
    noise it implies, (x_s - sqrt(alpha_bar) x0) / sqrt(1 - alpha_bar), for
    the unchanged ancestral update `denoise_step`. The output holds
    `anchor + state / ANCHOR_SCALE` in target slots; every other slot is
    copied bit for bit. Conditioning slots (the history plus, with a
    `target_side`, the other side's and the ball's futures) are frozen at
    every step, and the outputs stay in normalized coordinates.

    The chains' grids are stacked into one `TokenBatch` whose history is
    encoded once (`Backbone.encode_history`, not a network evaluation).
    Returns (one future Segment per chain, number of target coordinates the
    clip moved over all chains and steps). The network runs under
    `ad.no_grad()`: sampling never calls backward, so no tape is kept and
    only the network output is checked for finiteness.
    """
    E = histories[0].n_entities
    w = len(futures[0])
    batch = stack_grids([build_token_grid(h, f, target_side)
                         for h, f in zip(histories, futures)])
    (H,) = batch.history_lens
    state = batch.coords[:, H:]            # a view: writes land in the batch
    masks = batch.noise_target[:, H:]
    bounds = []
    for i, rng in enumerate(rngs):
        init = rng.child("init").normal((w, E, 2))
        state[i][masks[i]] = init[masks[i]]
        # each target coordinate's anchor, aligned with the masked state
        anchor = np.broadcast_to(batch.anchor[i], (w, E, 2))[masks[i]]
        bounds.append((anchor, to_displacement(-1.0, anchor),
                       to_displacement(1.0, anchor)))

    with ad.no_grad():
        batch.history_rows = model.backbone.encode_history(batch)
    clamped = 0
    for s in range(schedule.steps, 0, -1):
        with ad.no_grad():
            x0_pred = model.predict_noise(batch, step=s).data
        ab = schedule.alpha_bar(s)
        for i, (_, lo, hi) in enumerate(bounds):
            mask = masks[i]
            x_s = state[i][mask]
            x0_raw = x0_pred[i, H:][mask]
            x0_hat = np.clip(x0_raw, lo, hi)
            clamped += int(np.count_nonzero(x0_hat != x0_raw))
            eps_hat = (x_s - math.sqrt(ab) * x0_hat) / math.sqrt(1.0 - ab)
            step_rng = rngs[i].child("noise", s)
            state[i][mask] = denoise_step(x_s, eps_hat, s, schedule, step_rng)

    outputs = []
    for i, (anchor, _, _) in enumerate(bounds):
        coords = state[i].copy()
        coords[masks[i]] = from_displacement(coords[masks[i]], anchor)
        outputs.append(replace(histories[i], coords=coords,
                               visibility=batch.visibility[i, H:].copy()))
    return outputs, clamped


def rollout(history: Segment, config: RolloutConfig, model: TrajectoryModel,
            schedule: DiffusionSchedule, rng: Rng,
            truth_future: Segment | None = None) -> FutureSampleSet:
    """Causal sliding-window rollout: q sequential windows, K chains.

    Single-team settings take the opponent (and ball) ground truth for each
    upcoming window from `truth_future`. All K chains share the history
    prefix bit-for-bit and differ only in generated frames. The futures stay
    in normalized coordinates; `FutureSampleSet.to_clips` writes them in
    meters.
    """
    config.validate()
    if abs(history.fps - config.fps) > 1e-9:
        raise ValueError("history fps disagrees with rollout config")
    if len(history) != config.history_frames:
        raise ValueError(
            f"history has {len(history)} frames, config expects "
            f"{config.history_frames}")
    if config.single_team and truth_future is None:
        raise ValueError(f"setting '{config.setting}' needs the true future")
    if truth_future is not None and len(truth_future) < config.horizon_frames:
        raise ValueError("true future shorter than the horizon")

    length, l_max = config.history_frames + config.horizon_frames, model.config.l_max
    if length > l_max:
        raise ValueError(f"grid length {length} exceeds temporal table {l_max}")
    K, q, w = config.samples, config.n_windows, config.window_frames
    evals_before = model.calls
    sample_rngs = [rng.child("sample", k) for k in range(K)]
    chains = [history.copy() for _ in range(K)]
    clamped = 0

    for step in range(q):
        if config.single_team:
            lo, hi = step * w, (step + 1) * w
            future = replace(history, coords=truth_future.coords[lo:hi].copy(),
                             visibility=truth_future.visibility[lo:hi].copy())
        else:
            future = np.zeros((w, history.n_entities, 2))
        windows, n_clipped = sample_windows_batch(
            chains, [future] * K, model, schedule,
            [r.child("window", step) for r in sample_rngs],
            target_side=config.target_side)
        clamped += n_clipped
        chains = [
            replace(c, coords=np.concatenate([c.coords, win.coords]),
                    visibility=np.concatenate([c.visibility, win.visibility]))
            for c, win in zip(chains, windows)
        ]

    H = len(history)
    futures = [replace(c, coords=c.coords[H:], visibility=c.visibility[H:])
               for c in chains]
    return FutureSampleSet(history, futures,
                           [r.describe() for r in sample_rngs],
                           network_evals=model.calls - evals_before,
                           clamped_coords=clamped)


# ---------------------------------------------------------------------------
# conditioning subsets
# ---------------------------------------------------------------------------

OBJECTIVE_SUBTYPES = {
    "offense": frozenset({"goal", "shot_saved", "shot_off_target"}),
    "defense": frozenset({"clearance", "defended"}),
}


def condition_tagging(clips, setting: str, value: str):
    """Select the fine-tuning subset for a conditioning regime.

    setting "team" and "league" match the clip metadata tag of the same name;
    setting "objective" takes value "offense" or "defense" and matches the
    annotated event subtype. Raises when nothing matches.
    """
    if setting in ("team", "league"):
        subset = [c for c in clips if c.metadata.get(setting) == value]
    elif setting == "objective":
        if value not in OBJECTIVE_SUBTYPES:
            raise ValueError("objective must be 'offense' or 'defense'")
        subset = [c for c in clips if c.metadata.get("event_subtype")
                  in OBJECTIVE_SUBTYPES[value]]
    else:
        raise ValueError(f"setting '{setting}' does not define a subset")
    if not subset:
        raise ValueError(f"no clips match {setting}={value}")
    return subset
