"""Hierarchical tactical event recognition over encoded trajectories.

A clip is encoded by the shared backbone, compressed to one vector by
attention pooling over the visible tokens, and classified twice: a 5-way
type head and, routed by the type, one of five subtype heads. Grounding
classifies an observed clip; forecasting classifies each of K generated
futures and summarizes the induced distribution over outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .backbone import MASK_SCORE, Backbone, ModelConfig, build_token_grid
from .data import PitchSpec, Segment, TrajectoryClip, clip_to_segment, normalize
from .diffusion import DiffusionSchedule, RolloutConfig, rollout
from .rng import Rng


@dataclass(frozen=True)
class EventTaxonomy:
    """Five event types, fifteen subtypes, each subtype in exactly one type."""

    types: tuple = ("build", "transition", "interruption", "set_piece", "threat")
    subtypes: dict = field(default_factory=lambda: {
        "build": ("build",),
        "transition": ("ball_win", "progression"),
        "interruption": ("stoppage",),
        "set_piece": ("corner", "free_kick", "penalty", "throw_in",
                      "kick_off", "goal_kick"),
        "threat": ("goal", "shot_off_target", "shot_saved", "clearance",
                   "defended"),
    })

    def __post_init__(self):
        flat = [s for t in self.types for s in self.subtypes[t]]
        if len(flat) != len(set(flat)):
            raise ValueError("subtypes must be unique across types")

    @property
    def all_subtypes(self):
        return tuple(s for t in self.types for s in self.subtypes[t])

    def type_of(self, subtype: str) -> str:
        for t in self.types:
            if subtype in self.subtypes[t]:
                return t
        raise KeyError(f"unknown subtype '{subtype}'")

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

    def __init__(self, config: ModelConfig, rng: Rng,
                 taxonomy: EventTaxonomy = TAXONOMY):
        self.backbone = Backbone(config, rng)
        self.taxonomy = taxonomy
        d = config.d
        self.params = dict(self.backbone.params)
        r = rng.child("event_head")

        def uniform(rr, fan_in, shape):
            return rr.uniform(-1.0 / np.sqrt(fan_in), 1.0 / np.sqrt(fan_in), shape)

        extra = {
            "pool.w1": uniform(r.child("pool.w1"), d, (d, d)),
            "pool.b1": np.zeros(d),
            "pool.w2": uniform(r.child("pool.w2"), d, (d, 1)),
            "pool.b2": np.zeros(1),
            "heads.type_w": uniform(r.child("type_w"), d, (d, len(taxonomy.types))),
            "heads.type_b": np.zeros(len(taxonomy.types)),
        }
        for t in taxonomy.types:
            k = len(taxonomy.subtypes[t])
            extra[f"heads.sub_{t}_w"] = uniform(r.child(f"sub_{t}"), d, (d, k))
            extra[f"heads.sub_{t}_b"] = np.zeros(k)
        for name, value in extra.items():
            self.params[name] = ad.Parameter(value, name)

    @property
    def config(self):
        return self.backbone.config

    def parameters(self):
        return list(self.params.values())

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
        latent = self.backbone.encode(grids)
        z = self.attention_pool(latent.h, latent.visibility)
        p = self.params
        type_logits = ad.matmul(z, p["heads.type_w"]) + p["heads.type_b"]
        sub_logits = {
            t: ad.matmul(z, p[f"heads.sub_{t}_w"]) + p[f"heads.sub_{t}_b"]
            for t in self.taxonomy.types
        }
        for out in (type_logits, *sub_logits.values()):
            ad.check_finite(out.data, "logits")
        return type_logits, sub_logits


def classify(type_logits: np.ndarray, sub_logits: dict,
             taxonomy: EventTaxonomy = TAXONOMY) -> EventPrediction:
    """Routed prediction plus the combined 15-way distribution."""
    type_probs = ad.softmax_array(np.asarray(type_logits, dtype=np.float64))
    subtype_probs = {t: ad.softmax_array(np.asarray(sub_logits[t], dtype=np.float64))
                     for t in taxonomy.types}
    combined = np.concatenate([type_probs[i] * subtype_probs[t]
                               for i, t in enumerate(taxonomy.types)])
    t_hat = taxonomy.types[int(np.argmax(type_probs))]
    s_hat = taxonomy.subtypes[t_hat][int(np.argmax(subtype_probs[t_hat]))]
    return EventPrediction(type_probs, subtype_probs, combined, t_hat, s_hat)


def hierarchical_loss(prediction: EventPrediction, label, lam: float,
                      taxonomy: EventTaxonomy = TAXONOMY) -> float:
    """Type cross-entropy plus lam times the true type's subtype
    cross-entropy (teacher routing). `label` is (type, subtype)."""
    y_type, y_sub = label
    if y_type not in taxonomy.types or y_sub not in taxonomy.subtypes[y_type]:
        raise ValueError(f"label {label} not in the taxonomy")
    ti = taxonomy.type_index(y_type)
    si = taxonomy.subtype_index(y_type, y_sub)
    return float(-np.log(prediction.type_probs[ti])
                 - lam * np.log(prediction.subtype_probs[y_type][si]))


def hierarchical_loss_batch(type_logits: ad.Tensor, sub_logits: dict,
                            labels, lam: float,
                            taxonomy: EventTaxonomy = TAXONOMY) -> ad.Tensor:
    """Differentiable batch loss with teacher-routed subtype terms.

    Gradients reach only the type head, the true type's subtype head of each
    sample, and the shared trunk; the other heads stay untouched.
    """
    B = type_logits.shape[0]
    type_idx = np.array([taxonomy.type_index(t) for t, _ in labels])
    log_type = ad.log_softmax(type_logits, axis=-1)
    total = ad.mul(ad.sum_(ad.take(log_type, (np.arange(B), type_idx))),
                   ad.as_tensor(-1.0))

    for t in taxonomy.types:
        rows = np.flatnonzero([lt == t for lt, _ in labels])
        if rows.size == 0:
            continue
        cols = np.array([taxonomy.subtype_index(t, labels[r][1]) for r in rows])
        log_sub = ad.log_softmax(sub_logits[t], axis=-1)
        picked = ad.take(log_sub, (rows, cols))
        total = total + ad.mul(ad.sum_(picked), ad.as_tensor(-lam))
    return ad.mul(total, ad.as_tensor(1.0 / B))


def event_grid(segment: Segment, l_max: int):
    return build_token_grid(segment, None, "event", l_max=l_max)


def ground_event(clip, model: EventModel, pitch: PitchSpec | None = None) -> EventPrediction:
    """Encode, pool, classify one observed clip (or normalized Segment)."""
    if isinstance(clip, TrajectoryClip):
        if len(clip) == 0:
            raise ValueError("cannot ground an empty clip")
        seg = normalize(clip_to_segment(clip),
                        pitch or PitchSpec.for_sport(clip.sport))
    else:
        seg = clip
        if len(seg) == 0:
            raise ValueError("cannot ground an empty segment")
    grid = event_grid(seg, model.config.l_max)
    with ad.no_grad():
        type_logits, sub_logits = model.logits(grid)
    return classify(type_logits.data[0],
                    {t: v.data[0] for t, v in sub_logits.items()},
                    model.taxonomy)


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

    def top(self, n=5):
        order = np.argsort(-self.median)
        return [(self.subtype_labels[i], float(self.median[i])) for i in order[:n]]


def summarize_predictions(per_sample: np.ndarray, routed, taxonomy=TAXONOMY):
    per_sample = np.asarray(per_sample, dtype=np.float64)
    stats = {
        "median": np.array([_sorted_quantile(per_sample[:, j], 0.5)
                            for j in range(per_sample.shape[1])]),
        "p10": np.array([_sorted_quantile(per_sample[:, j], 0.1)
                         for j in range(per_sample.shape[1])]),
        "p90": np.array([_sorted_quantile(per_sample[:, j], 0.9)
                         for j in range(per_sample.shape[1])]),
    }
    return EventForecastSummary(
        taxonomy.all_subtypes, per_sample,
        stats["median"], stats["p10"], stats["p90"],
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
    sample_set = rollout(history, config, traj_model, schedule, rng,
                         truth_future=truth_future)
    per_sample = []
    routed = []
    for fut in sample_set.samples:
        tail = fut
        if len(fut) > event_input_frames:
            tail = Segment(fut.coords[-event_input_frames:],
                           fut.visibility[-event_input_frames:], fut.fps,
                           fut.players_per_team, fut.roster0, fut.roster1,
                           fut.normalized)
        pred = ground_event(tail, event_model)
        per_sample.append(pred.combined)
        routed.append((pred.predicted_type, pred.predicted_subtype))
    return summarize_predictions(np.array(per_sample), routed,
                                 event_model.taxonomy)
