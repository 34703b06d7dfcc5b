"""Token grids, structural embeddings, and factorized space/time attention.

A window of multi-agent motion becomes a dense [L x (2N+1) x 2] coordinate
grid (team0 slots, team1 slots, ball last). Tokens are linearly projected to
width `d` and offset by three learned tables: per-frame temporal, per-group
(team0 / team1 / ball), and per-slot entity embeddings. The encoder applies
M layers, each a pre-norm residual self-attention across entities at fixed
time followed by one across time for a fixed entity; there is no
feed-forward sublayer. Each sublayer runs as one fused autodiff op,
`ad.attention_block`, one tape node over the latent and the sublayer's eight
parameters. Invisible tokens are excluded as attention keys by a large
negative additive score, so they cannot influence any visible output; a
batch with no invisible token has no such score to add.

The network takes a `TokenBatch`: same-shape grids stacked by `stack_grids`,
with their key masks built once. The event model encodes every row with
full attention. The forecaster encodes the history once: history frames
carry no step embedding and, along time, attend to history keys only, so
their rows depend on the history alone. `Backbone.encode_history` caches
each layer's temporal keys and values of those rows; the W future rows
(`Backbone.encode_future`) carry the step and attend over the cached keys
and their own. A sampler encodes the history once per window; training
encodes it once for the several (step, noise) draws of a window, which the
batch holds as consecutive rows (`TokenBatch.draws`).

`build_token_grid` builds the forecaster's grids; the event model's come
from `events.event_grid`. Forecast grids also carry each entity's anchor,
its last visible history position. Their future is diffused as scaled
displacements from it, `ANCHOR_SCALE * (x - anchor)`, and the embedding
reads every other token in that same space plus a learned anchor embedding,
so the network sees each entity's own motion at order one and still knows
where on the pitch it is.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from .data import Segment
from .rng import Rng

MASK_SCORE = -1e9  # underflows to exactly zero weight after max subtraction

ANCHOR_SCALE = 10.0
"""Multiplier from normalized displacement to diffusion state. Normalized
coordinates span [-1, 1] across the pitch, so one second of running (about
5-8 m, roughly 0.1 of that range) maps to order one, the scale of the unit
noise the diffusion adds. Unscaled, that motion sits far below the noise."""


def to_displacement(coords, anchor):
    """Normalized positions -> scaled displacements from `anchor` (broadcast
    over frames)."""
    return ANCHOR_SCALE * (coords - anchor)


def from_displacement(state, anchor):
    """Scaled displacements from `anchor` -> normalized positions."""
    return anchor + state / ANCHOR_SCALE


@dataclass(frozen=True)
class ModelConfig:
    d: int = 256
    layers: int = 4
    heads: int = 8
    n_players: int = 11
    l_max: int = 250

    def __post_init__(self):
        if self.d % self.heads != 0:
            raise ValueError("hidden width must divide evenly across heads")

    @property
    def n_entities(self):
        return 2 * self.n_players + 1

    def to_dict(self):
        return {"d": self.d, "layers": self.layers, "heads": self.heads,
                "n_players": self.n_players, "l_max": self.l_max}

    @classmethod
    def from_dict(cls, obj):
        return cls(**{k: obj[k] for k in
                      ("d", "layers", "heads", "n_players", "l_max")})


@dataclass
class TokenGrid:
    """Coordinate tokens plus masks for one model invocation.

    noise_target marks slots occupied by diffusion noise (the prediction
    targets); it is always a subset of the frames at or past the history
    length. visibility gates attention keys. Forecast grids carry `anchor`,
    [entities x 2]: each entity's last visible history position (0 for one
    never visible). Their target slots hold the diffusion state, a scaled
    displacement from the anchor; every other slot holds absolute normalized
    coordinates. Event grids (`events.event_grid`) have no anchor.
    """

    coords: np.ndarray
    visibility: np.ndarray
    noise_target: np.ndarray
    history_len: int
    anchor: np.ndarray | None = None

    def __post_init__(self):
        if self.noise_target[: self.history_len].any():
            raise ValueError("noise targets may only occupy future frames")


def _key_mask_bias(key_visibility):
    """[B x G x T] key visibility -> [B x G x 1 x 1 x T] additive scores, or
    None when no key is hidden."""
    if key_visibility.all():
        return None
    return np.where(key_visibility, 0.0, MASK_SCORE)[:, :, None, None, :]


@dataclass
class TokenBatch:
    """Same-shape TokenGrids stacked for the network (`stack_grids`), with
    what every call on the batch shares.

    `coords` is [B x L x entities x 2], `visibility` and `noise_target`
    [B x L x entities], `anchor` [B x entities x 2] or None, and
    `history_lens` the sorted distinct history lengths of its grids.
    The additive key masks along entities (`spatial_bias`,
    [B x L x 1 x 1 x entities]) and time (`temporal_bias`,
    [B x entities x 1 x 1 x L]) are built once here: 0 on visible keys,
    MASK_SCORE on hidden ones, or None when no key is hidden.

    `draws` says how many consecutive grids share one history.
    `diffusion.diffusion_loss` sets it: it holds each window's grids, one
    per (step, noise) draw, as a run of `draws` rows with equal history
    rows, and the forecaster encodes the history of the first row of each
    run only. A sampler's batch keeps `draws` 1. It sets `history_rows` to
    the batch's history cache (`Backbone.encode_history`), then writes each
    reverse step's state into the target slots of `coords` in place and
    calls the network on the batch again; the batch lives for one
    `sample_windows_batch` call.
    """

    coords: np.ndarray
    visibility: np.ndarray
    noise_target: np.ndarray
    history_lens: tuple
    anchor: np.ndarray | None
    spatial_bias: np.ndarray | None = field(init=False)
    temporal_bias: np.ndarray | None = field(init=False)
    draws: int = field(init=False, default=1)
    history_rows: list | None = field(init=False, default=None)

    def __post_init__(self):
        self.spatial_bias = _key_mask_bias(self.visibility)
        self.temporal_bias = _key_mask_bias(np.swapaxes(self.visibility, 1, 2))


@dataclass
class LatentGrid:
    h: ad.Tensor         # [batch x L x entities x d]
    batch: TokenBatch    # the input: visibility and key masks, carried through


def stack_grids(grids) -> TokenBatch:
    """Stack one TokenGrid or a list of same-shape ones into a TokenBatch;
    its anchor is None for grids without one."""
    if isinstance(grids, TokenGrid):
        grids = [grids]
    if not grids:
        raise ValueError("no grids to batch")
    shapes = {g.coords.shape for g in grids}
    if len(shapes) != 1:
        raise ValueError(f"cannot batch grids of differing shapes {shapes}")
    anchored = {g.anchor is not None for g in grids}
    if len(anchored) != 1:
        raise ValueError("cannot batch anchored with unanchored grids")
    anchors = np.stack([g.anchor for g in grids]) if anchored.pop() else None
    return TokenBatch(np.stack([g.coords for g in grids]),
                      np.stack([g.visibility for g in grids]),
                      np.stack([g.noise_target for g in grids]),
                      tuple(sorted({g.history_len for g in grids})), anchors)


def _last_visible(history: Segment) -> np.ndarray:
    """[entities x 2]: each entity's last visible position, 0 if never seen."""
    vis = history.visibility
    last = vis.shape[0] - 1 - np.argmax(vis[::-1], axis=0)
    anchor = history.coords[last, np.arange(vis.shape[1])]
    anchor[~vis.any(axis=0)] = 0.0
    return anchor


def build_token_grid(history: Segment, future_or_noise,
                     target_side: int | None = None) -> TokenGrid:
    """Assemble the forecaster's input for one window (`events.event_grid`
    builds the event model's).

    `target_side` says which side the window predicts. None: every tracked
    entity's future slots are noise targets. 0 or 1: only that side's player
    slots are targets; the other side's and the ball's future slots carry
    their ground truth as conditioning.

    `future_or_noise` supplies the values written into the future rows: the
    noised target (training), a placeholder array (sampling start), or the
    ground truth segment in the slots that condition. The grid records each
    entity's anchor (see TokenGrid); the coordinates are written as given.
    """
    if not history.normalized:
        raise ValueError("token grids are built from normalized coordinates")
    if target_side not in (None, 0, 1):
        raise ValueError(f"target_side must be None, 0 or 1, got {target_side!r}")
    H, E = history.visibility.shape
    if H == 0:
        raise ValueError("a forecast grid needs at least one history frame")
    if isinstance(future_or_noise, Segment):
        fut_coords, fut_vis = future_or_noise.coords, future_or_noise.visibility
    else:
        fut_coords = np.asarray(future_or_noise, dtype=np.float64)
        fut_vis = np.ones(fut_coords.shape[:2], dtype=bool)
    if fut_coords.shape[1] != E:
        raise ValueError("history and future cover different entity rosters")
    tracked = history.visibility.any(axis=0)
    if isinstance(future_or_noise, Segment):
        tracked = tracked | fut_vis.any(axis=0)
    if target_side is not None:  # slot // n: 0 team0, 1 team1, 2 the ball
        tracked = tracked & (np.arange(E) // ((E - 1) // 2) == target_side)

    target = np.zeros((H + len(fut_coords), E), dtype=bool)
    target[H:, :] = tracked

    coords = np.concatenate([history.coords, fut_coords])
    vis = np.concatenate([history.visibility, fut_vis])
    # noise slots always participate in attention; the model must read them
    vis[H:][target[H:]] = True
    return TokenGrid(coords, vis, target, history_len=H,
                     anchor=_last_visible(history))


def sinusoidal_embedding(step: int, d: int) -> np.ndarray:
    half = d // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / max(half - 1, 1))
    angles = step * freqs
    emb = np.concatenate([np.sin(angles), np.cos(angles)])
    if emb.size < d:
        emb = np.concatenate([emb, np.zeros(d - emb.size)])
    return emb


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

def _uniform_fan_in(rng, fan_in, shape):
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, shape)


class Backbone:
    """Embedding tables plus the attention stack, owned as named Parameters."""

    def __init__(self, config: ModelConfig, rng: Rng):
        self.config = config
        d, E = config.d, config.n_entities
        p = {}
        r = rng.child("backbone")
        p["embed.proj_w"] = _uniform_fan_in(r.child("proj_w"), 2, (2, d))
        p["embed.proj_b"] = np.zeros(d)
        p["embed.temporal"] = 0.02 * r.child("temporal").normal((config.l_max, d))
        p["embed.group"] = 0.02 * r.child("group").normal((3, d))
        p["embed.entity"] = 0.02 * r.child("entity").normal((E, d))
        # marks slots occupied by diffusion noise; without it the network
        # cannot tell corrupted tokens from clean conditioning at low noise
        # levels or locate the history/future boundary under variable-length
        # histories
        p["embed.target_marker"] = 0.02 * r.child("target").normal((d,))
        for m in range(config.layers):
            for sub in ("spatial", "temporal"):
                base = f"layer{m}.{sub}"
                rr = r.child(base)
                for w in ("wq", "wk", "wv", "wo"):
                    p[f"{base}.{w}"] = _uniform_fan_in(rr.child(w), d, (d, d))
                # biases only where they can matter: a bias on q or k shifts
                # every score in a row equally and cancels in the softmax
                p[f"{base}.wv_b"] = np.zeros(d)
                p[f"{base}.wo_b"] = np.zeros(d)
                p[f"{base}.ln_g"] = np.ones(d)
                p[f"{base}.ln_b"] = np.zeros(d)
        self.params = {k: ad.Parameter(v, k) for k, v in p.items()}

        # fixed entity -> group routing: team0 slots, team1 slots, ball
        n = config.n_players
        sel = np.zeros((E, 3))
        sel[:n, 0] = 1.0
        sel[n:2 * n, 1] = 1.0
        sel[2 * n, 2] = 1.0
        self._group_select = sel

    def embed(self, batch: TokenBatch, diffusion_step=None,
              frames=slice(None)) -> LatentGrid:
        """h[t, n] = proj(coords[t, n]) + temporal[t] + group(n) + entity[n]
        for the batch's `frames`, [B x frames x entities x d], plus the
        embedding of `diffusion_step` (shared, or one per batch element) when
        given. Anchored (forecast) batches project every non-target token as
        its scaled displacement from its entity's anchor, the space the
        target slots already hold, and, when this backbone owns
        `embed.anchor_w` (the trajectory model's does), add the anchor's own
        projection to each of its entity's tokens."""
        cfg = self.config
        B, L, E = batch.coords.shape[:3]
        if L > cfg.l_max:
            raise ValueError(f"grid length {L} exceeds temporal table {cfg.l_max}")
        p = self.params
        frames = slice(*frames.indices(L))
        coords, target = batch.coords[:, frames], batch.noise_target[:, frames]
        anchors = batch.anchor
        if anchors is not None:
            coords = np.where(target[..., None], coords,
                              to_displacement(coords, anchors[:, None]))
        h = ad.matmul(ad.Tensor(coords), p["embed.proj_w"]) + p["embed.proj_b"]
        temporal = ad.take(p["embed.temporal"], (None, frames, None))
        group = ad.matmul(ad.Tensor(self._group_select), p["embed.group"])
        h = h + temporal + group + p["embed.entity"]
        if anchors is not None and "embed.anchor_w" in p:
            anchor = ad.matmul(ad.Tensor(anchors), p["embed.anchor_w"])
            h = h + ad.reshape(anchor, (B, 1, E, cfg.d))
        if target.any():
            marker = ad.mul(p["embed.target_marker"],
                            ad.Tensor(target[..., None].astype(np.float64)))
            h = h + marker
        if diffusion_step is not None:
            if np.ndim(diffusion_step) == 0:
                emb = sinusoidal_embedding(int(diffusion_step), cfg.d)
            else:
                steps = np.asarray(diffusion_step)
                if len(steps) != B:
                    raise ValueError("need one diffusion step per batch element")
                emb = np.stack([sinusoidal_embedding(int(s), cfg.d)
                                for s in steps])[:, None, None, :]
            h = h + ad.Tensor(emb)
        return LatentGrid(h, batch)

    def _weights(self, sublayer):
        return tuple(self.params[f"{sublayer}.{w}"] for w in
                     ("ln_g", "ln_b", "wq", "wk", "wv", "wv_b", "wo", "wo_b"))

    def _attend(self, h, sublayer, bias, prefix=None, with_kv=False):
        """Sublayer "layer{m}.spatial" (along entities) or "layer{m}.temporal"
        (along time) as the one `ad.attention_block` op."""
        return ad.attention_block(h, self._weights(sublayer), bias,
                                  self.config.heads,
                                  sublayer.endswith("temporal"), prefix, with_kv)

    def spatial_attention(self, latent: LatentGrid, layer: int) -> LatentGrid:
        return replace(latent, h=self._attend(
            latent.h, f"layer{layer}.spatial", latent.batch.spatial_bias))

    def temporal_attention(self, latent: LatentGrid, layer: int) -> LatentGrid:
        return replace(latent, h=self._attend(
            latent.h, f"layer{layer}.temporal", latent.batch.temporal_bias))

    def encode(self, batch: TokenBatch) -> LatentGrid:
        """The event model's encoder: embed every frame, then run the M
        layers, every token attending to every visible key."""
        latent = self.embed(batch)
        for m in range(self.config.layers):
            latent = self.temporal_attention(self.spatial_attention(latent, m), m)
        return latent

    def encode_history(self, batch: TokenBatch) -> list:
        """The forecaster's history cache: per layer, the temporal keys and
        values (`ad.attention_kv`) of the frames before the batch's one
        history length H, embedded without a step and attending along time
        to history keys only, so that they depend on the history alone.
        Only the first row of each run of `batch.draws` rows is encoded,
        so the cache has B / draws rows."""
        (H,) = batch.history_lens
        B, draws = len(batch.coords), batch.draws
        if B % draws:
            raise ValueError(f"{B} grids do not split into runs of {draws} draws")
        rows = slice(None, None, draws)
        anchor = None if batch.anchor is None else batch.anchor[rows]
        history = TokenBatch(batch.coords[rows, :H], batch.visibility[rows, :H],
                             batch.noise_target[rows, :H], (H,), anchor)
        spatial, temporal = history.spatial_bias, history.temporal_bias
        h = self.embed(history).h
        cache = []
        for m in range(self.config.layers):
            h = self._attend(h, f"layer{m}.spatial", spatial)
            if m + 1 < self.config.layers:
                h, kv = self._attend(h, f"layer{m}.temporal", temporal, with_kv=True)
            else:
                kv = ad.attention_kv(h, self._weights(f"layer{m}.temporal"),
                                     self.config.heads)
            cache.append(kv)
        return cache

    def encode_future(self, batch: TokenBatch, history: list,
                      diffusion_step) -> ad.Tensor:
        """The latent of the frames from H on, [B x (L - H) x entities x d]:
        embedded with the step, attending along entities within their frame
        and along time over the cached `history` keys (`encode_history`,
        one row per run of `batch.draws` rows) followed by their own."""
        (H,) = batch.history_lens
        spatial = batch.spatial_bias
        spatial = None if spatial is None else spatial[:, H:]
        h = self.embed(batch, diffusion_step, slice(H, None)).h
        for m, kv in enumerate(history):
            h = self._attend(h, f"layer{m}.spatial", spatial)
            h = self._attend(h, f"layer{m}.temporal", batch.temporal_bias, kv)
        return h


class TrajectoryModel:
    """Backbone plus the clean-displacement head (layer norm, then d -> 2)
    and the backbone's anchor embedding."""

    def __init__(self, config: ModelConfig, rng: Rng):
        self.backbone = Backbone(config, rng)
        d = config.d
        self.params = dict(self.backbone.params)
        for name, value in (
            ("head.ln_g", np.ones(d)),
            ("head.ln_b", np.zeros(d)),
            # zero-initialized output layer: the untrained model predicts
            # zero displacement (every entity stays at its anchor), so the
            # initial objective is the second moment of the clean target
            ("head.w", np.zeros((d, 2))),
            ("head.b", np.zeros(2)),
        ):
            self.params[name] = ad.Parameter(value, name)
        # registered last, so every other parameter keeps its position in
        # `params`; the event model's backbone has no anchor embedding
        anchor_w = ad.Parameter(_uniform_fan_in(
            rng.child("backbone", "anchor_w"), 2, (2, d)), "embed.anchor_w")
        self.params["embed.anchor_w"] = anchor_w
        self.backbone.params["embed.anchor_w"] = anchor_w
        self.calls = 0  # forward invocations, for rollout accounting

    @property
    def config(self):
        return self.backbone.config

    def predict_noise(self, batch: TokenBatch, step) -> ad.Tensor:
        """Network output for every token, [B x L x entities x 2]: on target
        slots, the estimate of the clean scaled displacement
        `ANCHOR_SCALE * (x0 - anchor)`; other slots are ignored.

        The batch has one history length H (a batch that mixes lengths is
        rejected), and only frames from H on hold targets. The history cache
        is `batch.history_rows` when a sampler has set it, or else encoded
        here (`Backbone.encode_history`, once per run of `batch.draws` rows
        that share a history); the future rows run over it
        (`Backbone.encode_future`), then the head. The output's history rows
        are zeros that nothing reads.

        The name dates from the noise-regression parametrization and is kept
        because tracing (`perfbench/tracing.py`) hooks it by name.
        `step` is shared or per batch element; each grid in the batch counts
        as one network evaluation, the history encoding none. The output is
        checked for NaN/Inf here, which is the only check a forward under
        `ad.no_grad()` gets.
        """
        if len(batch.history_lens) != 1:
            raise ValueError(f"cannot batch grids of differing history "
                             f"lengths {list(batch.history_lens)}")
        (H,) = batch.history_lens
        self.calls += len(batch.coords)
        history = batch.history_rows or self.backbone.encode_history(batch)
        h = self.backbone.encode_future(batch, history, step)
        p = self.params
        x = ad.layer_norm(h, p["head.ln_g"], p["head.ln_b"])
        out = ad.matmul(x, p["head.w"]) + p["head.b"]
        B, _, E, _ = out.shape
        out = ad.concat([np.zeros((B, H, E, 2)), out], axis=1)
        ad.check_finite(out.data, "predict_noise")
        return out


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

_MAGIC = b"GENTACCKPT1\n"


def save_checkpoint(path, params: dict, config: dict, extra: dict | None = None):
    """Self-describing container: JSON header (config + name/shape index),
    then the raw little-endian float64 parameter payloads in index order."""
    names = sorted(params)
    header = {
        "config": config,
        "extra": extra or {},
        "params": [{"name": n, "shape": list(params[n].data.shape)} for n in names],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<Q", len(blob)))
        f.write(blob)
        for n in names:
            f.write(np.ascontiguousarray(params[n].data, dtype="<f8").tobytes())


def load_checkpoint(path):
    """Returns (config dict, extra dict, name -> float64 array).

    A file cut short, or one with bytes left over after the last parameter,
    raises a one-line ValueError naming the file and the parameter.
    """
    with open(path, "rb") as f:
        magic = f.read(len(_MAGIC))
        if magic != _MAGIC:
            raise ValueError(f"{path} is not a checkpoint file")
        raw_len = f.read(8)
        if len(raw_len) != 8:
            raise ValueError(f"{path}: checkpoint header is truncated")
        (hlen,) = struct.unpack("<Q", raw_len)
        header = json.loads(f.read(hlen).decode("utf-8"))
        arrays = {}
        name = None
        for entry in header["params"]:
            name = entry["name"]
            shape = tuple(entry["shape"])
            count = int(np.prod(shape)) if shape else 1
            buf = f.read(8 * count)
            if len(buf) != 8 * count:
                raise ValueError(
                    f"{path}: parameter '{name}' is truncated "
                    f"({len(buf)} of {8 * count} bytes)")
            arrays[name] = np.frombuffer(buf, dtype="<f8").reshape(shape).astype(np.float64)
        extra_bytes = len(f.read())
        if extra_bytes:
            raise ValueError(
                f"{path}: {extra_bytes} trailing bytes after the last "
                f"parameter '{name}'")
    return header["config"], header.get("extra", {}), arrays


def assign_parameters(params: dict, arrays: dict):
    for name, param in params.items():
        if name not in arrays:
            raise ValueError(f"checkpoint is missing parameter '{name}'")
        if arrays[name].shape != param.data.shape:
            raise ValueError(
                f"checkpoint parameter '{name}' has shape {arrays[name].shape}, "
                f"model expects {param.data.shape}")
        param.data = arrays[name].copy()
        param.zero_grad()
