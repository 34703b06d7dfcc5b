"""Windowed denoising diffusion over future trajectory segments.

Training corrupts the target future slots of a token grid with Gaussian
noise at a random step and regresses the injected noise. Sampling starts a
window from pure noise and walks the reverse chain; long horizons are chains
of such windows, each conditioned on everything generated so far. Every
coordinate not flagged as a noise target is held bit-identical through all
reverse steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .backbone import TokenGrid, TrajectoryModel, build_token_grid
from .data import Segment
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

def diffusion_loss(model: TrajectoryModel, batch, schedule: DiffusionSchedule,
                   rng: Rng) -> ad.Tensor:
    """Mean squared noise-prediction error over target coordinates only.

    `batch` is a list of (history Segment, future Segment, task, target_side)
    windows of identical shape. Each sample draws its own uniform step and
    noise; masked (non-target) coordinates never enter the loss, so a network
    emitting the exact noise everywhere scores zero and one emitting zeros
    scores the second moment of a standard normal, about 1 per coordinate.
    """
    grids = []
    eps_all = []
    steps = []
    for i, (history, future, task, target_side) in enumerate(batch):
        r = rng.child("item", i)
        s = int(r.child("step").integers(1, schedule.steps + 1))
        grid = build_token_grid(history, future, task, target_side)
        w = len(future)
        eps = r.child("noise").normal((w, grid.n_entities, 2))
        mask = grid.noise_target[grid.history_len:]
        noised = grid.coords.copy()
        ab = schedule.alpha_bar(s)
        fut = noised[grid.history_len:]
        fut[mask] = (math.sqrt(ab) * fut[mask]
                     + math.sqrt(1.0 - ab) * eps[mask])
        grids.append(replace_coords(grid, noised))
        full_eps = np.zeros_like(grid.coords)
        full_eps[grid.history_len:][mask] = eps[mask]
        eps_all.append(full_eps)
        steps.append(s)

    # one batched forward; the step embedding varies per sample
    eps_hat = model.predict_noise(grids, step=steps)
    eps_true = np.stack(eps_all)
    mask = np.stack([g.noise_target for g in grids])
    m = np.repeat(mask[..., None], 2, axis=-1).astype(np.float64)
    count = int(m.sum())
    if count == 0:
        raise ValueError("batch contains no noise-target coordinates")
    diff = ad.mul(eps_hat - ad.Tensor(eps_true), ad.Tensor(m))
    return ad.mul(ad.sum_(ad.mul(diff, diff)), ad.as_tensor(1.0 / count))


def replace_coords(grid: TokenGrid, coords: np.ndarray) -> TokenGrid:
    return TokenGrid(coords, grid.visibility, grid.noise_target,
                     grid.history_len)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RolloutConfig:
    """Window/horizon geometry plus the conditioning regime.

    Seconds are converted to frames by rounding to nearest; a residual above
    0.4 frames is a configuration error. The horizon must quantize to a whole
    number of windows.
    """

    window: float            # seconds per causal window
    history: float           # seconds of observed context
    horizon: float           # total seconds to generate
    samples: int = 1         # K
    setting: str = "unconditioned"  # or opponent | team | league | objective
    target_side: int | None = None  # predicted team in single-team settings
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

    @property
    def task(self):
        return "forecast_single" if self.single_team else "forecast_joint"

    def validate(self):
        if self.samples < 1:
            raise ValueError("need at least one sample")
        if self.setting not in ("unconditioned", "opponent", "team",
                                "league", "objective"):
            raise ValueError(f"unknown setting '{self.setting}'")
        if self.single_team and self.target_side not in (0, 1):
            raise ValueError(f"setting '{self.setting}' needs target_side 0 or 1")
        _ = self.n_windows
        return self


@dataclass
class FutureSampleSet:
    """K generated futures sharing one history, with their RNG records.

    `clamped_coords` counts the target coordinates, over every chain, window
    and reverse step, whose implied clean signal the x0 clamp moved back
    into the normalized pitch square (0 with `clamp_signal=False`).
    """

    history: Segment
    samples: list            # Segments of identical length and roster
    seeds: list              # rng.describe() per sample
    network_evals: int
    clamped_coords: int

    @property
    def k(self):
        return len(self.samples)

    def to_clips(self, pitch=None, sport="soccer", metadata=None):
        from .data import segment_to_clip

        return [segment_to_clip(s, pitch=pitch, sport=sport,
                                metadata=dict(metadata or {}))
                for s in self.samples]


def sample_window(history: Segment, conditioning_future: Segment | None,
                  model: TrajectoryModel, schedule: DiffusionSchedule,
                  rng: Rng, task="forecast_joint", target_side=None,
                  window_frames=None, pitch=None, clamp_signal=True) -> Segment:
    """Generate one future window of `window_frames` via reverse diffusion.

    Conditioning slots (history plus, in single-team mode, the opponent and
    ball futures) are frozen at every step. Pass a PitchSpec to get the
    output denormalized to meters; otherwise it stays in model coordinates.
    """
    outputs, _ = sample_windows_batch([history],
                                      conditioning_future and [conditioning_future],
                                      model, schedule, [rng], task, target_side,
                                      window_frames, clamp_signal=clamp_signal)
    out = outputs[0]
    if pitch is not None:
        out = _denormalize_segment(out, pitch)
    return out


def _denormalize_segment(seg: Segment, pitch) -> Segment:
    from .data import denormalize_xy

    coords = denormalize_xy(seg.coords, pitch)
    coords[~seg.visibility] = 0.0
    return replace(seg, coords=coords, normalized=False)


def _clamp_implied_signal(x_s, eps_hat, s, schedule):
    """Rewrite eps_hat so that the clean signal it implies lies in the
    normalized coordinate square [-1, 1]^2; returns (eps_hat, number of
    coordinates clipped)."""
    ab = schedule.alpha_bar(s)
    root_ab = math.sqrt(ab)
    root_1mab = math.sqrt(1.0 - ab)
    x0_hat = (x_s - root_1mab * eps_hat) / root_ab
    clipped = np.clip(x0_hat, -1.0, 1.0)
    n_clipped = int(np.count_nonzero(clipped != x0_hat))
    return (x_s - root_ab * clipped) / root_1mab, n_clipped


def sample_windows_batch(histories, conditioning_futures, model, schedule,
                         rngs, task="forecast_joint", target_side=None,
                         window_frames=None, clamp_signal=True):
    """Reverse diffusion for several same-shape chains in one model batch.

    Each chain keeps its own RNG stream, so a chain's output is a function of
    its own (history, rng) alone. With `clamp_signal` the predicted noise is
    sanitized before each reverse update so that the clean signal it implies
    stays inside the normalized pitch square; this keeps early-training
    chains from drifting off the data manifold. The reverse update formula
    itself is untouched.

    Returns (one future Segment per chain, number of target coordinates the
    clamp clipped over all chains and steps). The network runs under
    `ad.no_grad()`: sampling never calls backward, so no tape is kept and
    only the network output is checked for finiteness.
    """
    B = len(histories)
    E = histories[0].n_entities
    if task == "forecast_single":
        if conditioning_futures is None:
            raise ValueError("single-team sampling needs the opponent future")
        w = len(conditioning_futures[0])
    else:
        if window_frames is None:
            raise ValueError("joint sampling needs window_frames")
        w = window_frames

    grids = []
    for i in range(B):
        if task == "forecast_single":
            grid = build_token_grid(histories[i], conditioning_futures[i],
                                    task, target_side)
        else:
            placeholder = np.zeros((w, E, 2))
            grid = build_token_grid(histories[i], placeholder, task,
                                    target_side)
        fut_target = grid.noise_target[grid.history_len:]
        init = rngs[i].child("init").normal((w, E, 2))
        coords = grid.coords.copy()
        coords[grid.history_len:][fut_target] = init[fut_target]
        grids.append(replace_coords(grid, coords))

    S = schedule.steps
    clamped = 0
    for s in range(S, 0, -1):
        with ad.no_grad():
            eps_hat = model.predict_noise(grids, step=s).data
        for i, grid in enumerate(grids):
            H = grid.history_len
            mask = grid.noise_target[H:]
            x_s = grid.coords[H:][mask]
            e_hat = eps_hat[i, H:][mask]
            if clamp_signal:
                e_hat, n_clipped = _clamp_implied_signal(x_s, e_hat, s, schedule)
                clamped += n_clipped
            step_rng = rngs[i].child("noise", s)
            x_prev = denoise_step(x_s, e_hat, s, schedule, step_rng)
            coords = grid.coords.copy()
            coords[H:][mask] = x_prev
            grids[i] = replace_coords(grid, coords)

    outputs = []
    for i, grid in enumerate(grids):
        H = grid.history_len
        fut_vis = grid.visibility[H:].copy()
        outputs.append(replace(histories[i], coords=grid.coords[H:].copy(),
                               visibility=fut_vis))
    return outputs, clamped


def rollout(history: Segment, config: RolloutConfig, model: TrajectoryModel,
            schedule: DiffusionSchedule, rng: Rng,
            truth_future: Segment | None = None,
            pitch=None, clamp_signal=True) -> FutureSampleSet:
    """Causal sliding-window rollout: q sequential windows, K chains.

    Single-team settings take the opponent (and ball) ground truth for each
    upcoming window from `truth_future`. All K chains share the history
    prefix bit-for-bit and differ only in generated frames. With a PitchSpec
    the sampled futures are denormalized to meters.
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

    K, q, w = config.samples, config.n_windows, config.window_frames
    evals_before = model.calls
    sample_rngs = [rng.child("sample", k) for k in range(K)]
    chains = [history.copy() for _ in range(K)]
    clamped = 0

    for step in range(q):
        cond = None
        if config.single_team:
            lo, hi = step * w, (step + 1) * w
            cond = [Segment(truth_future.coords[lo:hi].copy(),
                            truth_future.visibility[lo:hi].copy(),
                            history.fps, history.players_per_team,
                            history.roster0, history.roster1,
                            history.normalized)] * K
        windows, n_clipped = sample_windows_batch(
            chains, cond, model, schedule,
            [r.child("window", step) for r in sample_rngs],
            task=config.task, target_side=config.target_side,
            window_frames=w, clamp_signal=clamp_signal)
        clamped += n_clipped
        chains = [
            replace(c, coords=np.concatenate([c.coords, win.coords]),
                    visibility=np.concatenate([c.visibility, win.visibility]))
            for c, win in zip(chains, windows)
        ]

    H = len(history)
    futures = [replace(c, coords=c.coords[H:], visibility=c.visibility[H:])
               for c in chains]
    if pitch is not None:
        futures = [_denormalize_segment(f, pitch) for f in futures]
    return FutureSampleSet(history, futures,
                           [r.describe() for r in sample_rngs],
                           network_evals=model.calls - evals_before,
                           clamped_coords=clamped)


# ---------------------------------------------------------------------------
# conditioning subsets
# ---------------------------------------------------------------------------

OFFENSE_SUBTYPES = frozenset({"goal", "shot_saved", "shot_off_target"})
DEFENSE_SUBTYPES = frozenset({"clearance", "defended"})


def condition_tagging(clips, setting: str, value: str):
    """Select the fine-tuning subset for a conditioning regime.

    setting "team" and "league" match the clip metadata tag of the same name;
    setting "objective" takes value "offense" or "defense" and matches the
    annotated event subtype. Raises when nothing matches.
    """
    if setting == "team":
        subset = [c for c in clips if c.metadata.get("team") == value]
    elif setting == "league":
        subset = [c for c in clips if c.metadata.get("league") == value]
    elif setting == "objective":
        if value == "offense":
            wanted = OFFENSE_SUBTYPES
        elif value == "defense":
            wanted = DEFENSE_SUBTYPES
        else:
            raise ValueError("objective must be 'offense' or 'defense'")
        subset = [c for c in clips if c.metadata.get("event_subtype") in wanted]
    else:
        raise ValueError(f"setting '{setting}' does not define a subset")
    if not subset:
        raise ValueError(f"no clips match {setting}={value}")
    return subset
