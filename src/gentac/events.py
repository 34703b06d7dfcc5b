"""Hierarchical tactical event recognition over encoded trajectories.

A clip is encoded by the shared backbone, compressed to one vector by
attention pooling over the visible tokens, and classified twice: a 5-way
type head and, routed by the type, one of five subtype heads. Grounding
classifies an observed clip; forecasting classifies each of K generated
futures and summarizes the induced distribution over outcomes.

`event_grid` owns the event model's input: the history alone, truncated to
its most recent `l_max` frames or padded up to them with masked frames.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .backbone import (MASK_SCORE, Backbone, ModelConfig, TokenGrid,
                       _uniform_fan_in, stack_grids)
from .data import PitchSpec, Segment, TrajectoryClip, clip_to_segment, normalize
from .diffusion import DiffusionSchedule, RolloutConfig, rollout
from .rng import Rng


class EventTaxonomy:
    """Five event types, fifteen subtypes, each subtype in exactly one type."""

    subtypes = {
        "build": ("build",),
        "transition": ("ball_win", "progression"),
        "interruption": ("stoppage",),
        "set_piece": ("corner", "free_kick", "penalty", "throw_in",
                      "kick_off", "goal_kick"),
        "threat": ("goal", "shot_off_target", "shot_saved", "clearance",
                   "defended"),
    }
    types = tuple(subtypes)
    all_subtypes = sum(subtypes.values(), ())  # in type order

    def type_index(self, t: str) -> int:
        return self.types.index(t)

    def subtype_index(self, t: str, subtype: str) -> int:
        return self.subtypes[t].index(subtype)

    def combined_index(self, subtype: str) -> int:
        return self.all_subtypes.index(subtype)


TAXONOMY = EventTaxonomy()


@dataclass
class EventPrediction:
    type_probs: np.ndarray        # 5-vector
    subtype_probs: dict           # type -> conditional vector
    combined: np.ndarray          # 15-vector, p(type) * p(subtype | type)
    predicted_type: str
    predicted_subtype: str


class EventModel:
    """Backbone plus pooling scorer and the routed classification heads."""

    def __init__(self, config: ModelConfig, rng: Rng):
        self.backbone = Backbone(config, rng)
        d = config.d
        self.params = dict(self.backbone.params)
        r = rng.child("event_head")
        extra = {
            "pool.w1": _uniform_fan_in(r.child("pool.w1"), d, (d, d)),
            "pool.b1": np.zeros(d),
            "pool.w2": _uniform_fan_in(r.child("pool.w2"), d, (d, 1)),
            "pool.b2": np.zeros(1),
            "heads.type_w": _uniform_fan_in(r.child("type_w"), d,
                                            (d, len(TAXONOMY.types))),
            "heads.type_b": np.zeros(len(TAXONOMY.types)),
        }
        for t in TAXONOMY.types:
            k = len(TAXONOMY.subtypes[t])
            extra[f"heads.sub_{t}_w"] = _uniform_fan_in(r.child(f"sub_{t}"),
                                                        d, (d, k))
            extra[f"heads.sub_{t}_b"] = np.zeros(k)
        for name, value in extra.items():
            self.params[name] = ad.Parameter(value, name)

    @property
    def config(self):
        return self.backbone.config

    def attention_pool(self, latent_h: ad.Tensor, visibility: np.ndarray) -> ad.Tensor:
        """z = sum of a[t,n] h[t,n]; weights softmax scalar scores of visible
        tokens, exactly zero on masked ones."""
        p = self.params
        B, L, E, d = latent_h.shape
        if not visibility.reshape(B, -1).any(axis=1).all():
            raise ValueError("attention_pool: a sample has no visible tokens")
        hidden = ad.tanh(ad.matmul(latent_h, p["pool.w1"]) + p["pool.b1"])
        scores = ad.matmul(hidden, p["pool.w2"]) + p["pool.b2"]
        flat = ad.reshape(scores, (B, 1, L * E))
        bias = np.where(visibility.reshape(B, 1, L * E), 0.0, MASK_SCORE)
        weights = ad.softmax(flat + ad.Tensor(bias), axis=-1)
        h_flat = ad.reshape(latent_h, (B, L * E, d))
        return ad.reshape(ad.matmul(weights, h_flat), (B, d))

    def logits(self, grids):
        """Type and per-type subtype logits for a batch of event grids.

        The logits are checked for NaN/Inf here, which is the only check a
        forward under `ad.no_grad()` gets."""
        latent = self.backbone.encode(stack_grids(grids))
        z = self.attention_pool(latent.h, latent.batch.visibility)
        p = self.params
        type_logits = ad.matmul(z, p["heads.type_w"]) + p["heads.type_b"]
        sub_logits = {
            t: ad.matmul(z, p[f"heads.sub_{t}_w"]) + p[f"heads.sub_{t}_b"]
            for t in TAXONOMY.types
        }
        for out in (type_logits, *sub_logits.values()):
            ad.check_finite(out.data, "logits")
        return type_logits, sub_logits


def classify(type_logits: np.ndarray, sub_logits: dict) -> EventPrediction:
    """Routed prediction plus the combined 15-way distribution."""
    type_probs = ad.softmax_array(np.asarray(type_logits, dtype=np.float64))
    subtype_probs = {t: ad.softmax_array(np.asarray(sub_logits[t], dtype=np.float64))
                     for t in TAXONOMY.types}
    combined = np.concatenate([type_probs[i] * subtype_probs[t]
                               for i, t in enumerate(TAXONOMY.types)])
    t_hat = TAXONOMY.types[int(np.argmax(type_probs))]
    s_hat = TAXONOMY.subtypes[t_hat][int(np.argmax(subtype_probs[t_hat]))]
    return EventPrediction(type_probs, subtype_probs, combined, t_hat, s_hat)


def hierarchical_loss(prediction: EventPrediction, label, lam: float) -> float:
    """Type cross-entropy plus lam times the true type's subtype
    cross-entropy (teacher routing). `label` is (type, subtype)."""
    y_type, y_sub = label
    if y_type not in TAXONOMY.types or y_sub not in TAXONOMY.subtypes[y_type]:
        raise ValueError(f"label {label} not in the taxonomy")
    ti = TAXONOMY.type_index(y_type)
    si = TAXONOMY.subtype_index(y_type, y_sub)
    return float(-np.log(prediction.type_probs[ti])
                 - lam * np.log(prediction.subtype_probs[y_type][si]))


def hierarchical_loss_batch(type_logits: ad.Tensor, sub_logits: dict,
                            labels, lam: float) -> ad.Tensor:
    """Differentiable batch loss with teacher-routed subtype terms.

    Gradients reach only the type head, the true type's subtype head of each
    sample, and the shared trunk; the other heads stay untouched.
    """
    B = type_logits.shape[0]
    type_idx = np.array([TAXONOMY.type_index(t) for t, _ in labels])
    log_type = ad.log_softmax(type_logits, axis=-1)
    total = ad.mul(ad.sum_(ad.take(log_type, (np.arange(B), type_idx))),
                   ad.as_tensor(-1.0))

    for t in TAXONOMY.types:
        rows = np.flatnonzero([lt == t for lt, _ in labels])
        if rows.size == 0:
            continue
        cols = np.array([TAXONOMY.subtype_index(t, labels[r][1]) for r in rows])
        log_sub = ad.log_softmax(sub_logits[t], axis=-1)
        picked = ad.take(log_sub, (rows, cols))
        total = total + ad.mul(ad.sum_(picked), ad.as_tensor(-lam))
    return ad.mul(total, ad.as_tensor(1.0 / B))


def event_grid(segment: Segment, l_max: int) -> TokenGrid:
    """The event model's input for one normalized segment: its most recent
    `l_max` frames, padded at the end with masked zero frames when shorter.
    Event grids hold no noise target and no anchor."""
    if not segment.normalized:
        raise ValueError("token grids are built from normalized coordinates")
    H, E = segment.visibility.shape
    recent = slice(max(H - l_max, 0), None)
    coords, vis = segment.coords[recent], segment.visibility[recent]
    pad = l_max - coords.shape[0]
    if pad > 0:
        coords = np.concatenate([coords, np.zeros((pad, E, 2))])
        vis = np.concatenate([vis, np.zeros((pad, E), dtype=bool)])
    return TokenGrid(coords.copy(), vis.copy(), np.zeros((l_max, E), dtype=bool),
                     history_len=min(H, l_max))


def ground_event(clip, model: EventModel) -> EventPrediction:
    """Encode, pool, classify one observed clip, normalized on its sport's
    pitch, or one normalized Segment."""
    if isinstance(clip, TrajectoryClip):
        if len(clip) == 0:
            raise ValueError("cannot ground an empty clip")
        seg = normalize(clip_to_segment(clip), PitchSpec.for_sport(clip.sport))
    else:
        seg = clip
        if len(seg) == 0:
            raise ValueError("cannot ground an empty segment")
    grid = event_grid(seg, model.config.l_max)
    with ad.no_grad():
        type_logits, sub_logits = model.logits(grid)
    return classify(type_logits.data[0],
                    {t: v.data[0] for t, v in sub_logits.items()})


def _sorted_quantile(values: np.ndarray, q: float) -> float:
    """Sort-based quantile with linear interpolation between order stats."""
    v = np.sort(np.asarray(values, dtype=np.float64))
    if len(v) == 1:
        return float(v[0])
    pos = q * (len(v) - 1)
    lo = int(np.floor(pos))
    hi = min(lo + 1, len(v) - 1)
    frac = pos - lo
    return float(v[lo] + frac * (v[hi] - v[lo]))


@dataclass
class EventForecastSummary:
    """Distribution of predicted outcomes across the K rollouts."""

    subtype_labels: tuple
    per_sample: np.ndarray       # [K x 15] combined probabilities
    median: np.ndarray
    p10: np.ndarray
    p90: np.ndarray
    minimum: np.ndarray
    maximum: np.ndarray
    routed: list                 # (type, subtype) per sample


def summarize_predictions(per_sample: np.ndarray, routed):
    per_sample = np.asarray(per_sample, dtype=np.float64)
    median, p10, p90 = (np.array([_sorted_quantile(col, q) for col in per_sample.T])
                        for q in (0.5, 0.1, 0.9))
    return EventForecastSummary(
        TAXONOMY.all_subtypes, per_sample, median, p10, p90,
        per_sample.min(axis=0), per_sample.max(axis=0), routed)


def forecast_event(history: Segment, config: RolloutConfig,
                   traj_model, schedule: DiffusionSchedule,
                   event_model: EventModel, rng: Rng,
                   truth_future: Segment | None = None,
                   event_input_frames: int = 100) -> EventForecastSummary:
    """Sample K futures, classify the tail of each, summarize over K.

    The classifier sees the final `event_input_frames` frames of each
    generated future (padded and masked up to the event model's l_max).
    """
    if event_input_frames < 1:
        raise ValueError(
            f"event_input_frames must be at least 1, got {event_input_frames}")
    sample_set = rollout(history, config, traj_model, schedule, rng,
                         truth_future=truth_future)
    per_sample = []
    routed = []
    for fut in sample_set.samples:
        tail = replace(fut, coords=fut.coords[-event_input_frames:],
                       visibility=fut.visibility[-event_input_frames:])
        pred = ground_event(tail, event_model)
        per_sample.append(pred.combined)
        routed.append((pred.predicted_type, pred.predicted_subtype))
    return summarize_predictions(np.array(per_sample), routed)
