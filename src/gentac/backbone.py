"""Token grids, structural embeddings, and factorized space/time attention.

A window of multi-agent motion becomes a dense [L x (2N+1) x 2] coordinate
grid (team0 slots, team1 slots, ball last). Tokens are linearly projected to
width `d` and offset by three learned tables: per-frame temporal, per-group
(team0 / team1 / ball), and per-slot entity embeddings. The encoder applies
M pre-norm blocks, each running self-attention across entities at fixed time
followed by self-attention across time for a fixed entity. Invisible tokens
are excluded as attention keys by a large negative additive score, so they
cannot influence any visible output.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .data import Segment
from .rng import Rng

MASK_SCORE = -1e9  # underflows to exactly zero weight after max subtraction


@dataclass(frozen=True)
class ModelConfig:
    d: int = 256
    layers: int = 4
    heads: int = 8
    n_players: int = 11
    l_max: int = 250
    with_mlp: bool = False

    def __post_init__(self):
        if self.d % self.heads != 0:
            raise ValueError("hidden width must divide evenly across heads")

    @property
    def n_entities(self):
        return 2 * self.n_players + 1

    def to_dict(self):
        return {"d": self.d, "layers": self.layers, "heads": self.heads,
                "n_players": self.n_players, "l_max": self.l_max,
                "with_mlp": self.with_mlp}

    @classmethod
    def from_dict(cls, obj):
        return cls(**{k: obj[k] for k in
                      ("d", "layers", "heads", "n_players", "l_max", "with_mlp")})


@dataclass
class TokenGrid:
    """Coordinate tokens plus masks for one model invocation.

    noise_target marks slots occupied by diffusion noise (the prediction
    targets); it is always a subset of the frames at or past the history
    length. visibility gates attention keys.
    """

    coords: np.ndarray
    visibility: np.ndarray
    noise_target: np.ndarray
    history_len: int

    def __post_init__(self):
        if self.noise_target[: self.history_len].any():
            raise ValueError("noise targets may only occupy future frames")

    @property
    def L(self):
        return self.coords.shape[0]

    @property
    def n_entities(self):
        return self.coords.shape[1]


@dataclass
class LatentGrid:
    h: ad.Tensor              # [batch x L x entities x d]
    visibility: np.ndarray    # [batch x L x entities], carried through
    # additive key-mask scores (0 on visible keys, MASK_SCORE elsewhere),
    # built once per encode and shared by every layer
    spatial_bias: ad.Tensor   # [batch x L x 1 x 1 x entities]
    temporal_bias: ad.Tensor  # [batch x entities x 1 x 1 x L]


def _key_mask_bias(key_visibility):
    """[B x G x T] key visibility -> [B x G x 1 x 1 x T] additive scores."""
    return ad.Tensor(np.where(key_visibility, 0.0, MASK_SCORE)[:, :, None, None, :])


def stack_grids(grids):
    """Stack same-shape TokenGrids into batched arrays."""
    if isinstance(grids, TokenGrid):
        grids = [grids]
    shapes = {g.coords.shape for g in grids}
    if len(shapes) != 1:
        raise ValueError(f"cannot batch grids of differing shapes {shapes}")
    coords = np.stack([g.coords for g in grids])
    vis = np.stack([g.visibility for g in grids])
    target = np.stack([g.noise_target for g in grids])
    return coords, vis, target


def _tracked_entities(*segments):
    tracked = None
    for seg in segments:
        t = seg.visibility.any(axis=0)
        tracked = t if tracked is None else (tracked | t)
    return tracked


def build_token_grid(history: Segment, future_or_noise, task: str,
                     target_side: int | None = None,
                     l_max: int | None = None,
                     future_visibility: np.ndarray | None = None) -> TokenGrid:
    """Assemble the model input for one window.

    task "forecast_joint": every tracked entity's future slots are noise
    targets. task "forecast_single": only `target_side`'s player slots are
    targets; the opponent's and the ball's future slots carry their ground
    truth as conditioning. task "event": the history alone, padded or
    truncated to `l_max` with padded frames masked.

    `future_or_noise` supplies the values written into the future rows: the
    noised target (training), pure noise (sampling start), or the ground
    truth segment in the slots that condition.
    """
    if not history.normalized:
        raise ValueError("token grids are built from normalized coordinates")
    H, E = history.visibility.shape

    if task == "event":
        if l_max is None:
            raise ValueError("event grids need l_max")
        coords = history.coords
        vis = history.visibility
        if H > l_max:  # keep the most recent context
            coords, vis = coords[H - l_max:], vis[H - l_max:]
        pad = l_max - coords.shape[0]
        if pad > 0:
            coords = np.concatenate([coords, np.zeros((pad, E, 2))])
            vis = np.concatenate([vis, np.zeros((pad, E), dtype=bool)])
        return TokenGrid(coords.copy(), vis.copy(),
                         np.zeros((l_max, E), dtype=bool),
                         history_len=min(H, l_max))

    if isinstance(future_or_noise, Segment):
        fut_coords = future_or_noise.coords
        fut_vis = future_or_noise.visibility
    else:
        fut_coords = np.asarray(future_or_noise, dtype=np.float64)
        fut_vis = (np.ones(fut_coords.shape[:2], dtype=bool)
                   if future_visibility is None else future_visibility)
    w = fut_coords.shape[0]
    if fut_coords.shape[1] != E:
        raise ValueError("history and future cover different entity rosters")
    if isinstance(future_or_noise, Segment):
        tracked = _tracked_entities(history, future_or_noise)
    else:
        tracked = _tracked_entities(history)

    target = np.zeros((H + w, E), dtype=bool)
    n = (E - 1) // 2
    if task == "forecast_joint":
        target[H:, :] = tracked
    elif task == "forecast_single":
        if target_side not in (0, 1):
            raise ValueError("forecast_single needs target_side 0 or 1")
        team = np.zeros(E, dtype=bool)
        team[target_side * n:(target_side + 1) * n] = True
        target[H:, :] = tracked & team
    else:
        raise ValueError(f"unknown task '{task}'")

    coords = np.concatenate([history.coords, fut_coords])
    vis = np.concatenate([history.visibility, fut_vis])
    # noise slots always participate in attention; the model must read them
    vis[H:][target[H:]] = True
    return TokenGrid(coords, vis, target, history_len=H)


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
            if config.with_mlp:
                base = f"layer{m}.mlp"
                rr = r.child(base)
                p[f"{base}.w1"] = _uniform_fan_in(rr.child("w1"), d, (d, d))
                p[f"{base}.b1"] = np.zeros(d)
                p[f"{base}.w2"] = _uniform_fan_in(rr.child("w2"), d, (d, d))
                p[f"{base}.b2"] = np.zeros(d)
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

    def parameters(self):
        return list(self.params.values())

    def embed(self, grids, diffusion_step=None) -> LatentGrid:
        """h[t, n] = proj(coords[t, n]) + temporal[t] + group(n) + entity[n].

        Accepts one TokenGrid or a same-shape list; the latent is always
        batched, [B x L x entities x d]. `diffusion_step` is an int shared by
        the batch or one step per batch element.
        """
        cfg = self.config
        coords, vis, target = stack_grids(grids)
        B, L = coords.shape[:2]
        if L > cfg.l_max:
            raise ValueError(f"grid length {L} exceeds temporal table {cfg.l_max}")
        p = self.params
        h = ad.matmul(ad.Tensor(coords), p["embed.proj_w"]) + p["embed.proj_b"]
        temporal = ad.reshape(ad.take(p["embed.temporal"], slice(0, L)), (1, L, 1, cfg.d))
        group = ad.matmul(ad.Tensor(self._group_select), p["embed.group"])
        h = h + temporal + group + p["embed.entity"]
        if target.any():
            marker = ad.mul(ad.reshape(p["embed.target_marker"], (1, 1, 1, cfg.d)),
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
        return LatentGrid(h, vis, _key_mask_bias(vis),
                          _key_mask_bias(np.swapaxes(vis, 1, 2)))

    def _attend(self, latent: LatentGrid, base: str, axis: str) -> LatentGrid:
        """One pre-norm residual attention block along entities or time."""
        cfg = self.config
        p = self.params
        h = latent.h
        B, L, E, d = h.shape
        heads, dh = cfg.heads, cfg.d // cfg.heads

        x = ad.layer_norm(h, p[f"{base}.ln_g"], p[f"{base}.ln_b"])
        if axis == "time":
            x = ad.swapaxes(x, 1, 2)                       # [B x E x L x d]
            bias = latent.temporal_bias                    # keys indexed by time
            G, T = E, L
        else:
            bias = latent.spatial_bias                     # keys indexed by entity
            G, T = L, E

        def project(w):
            y = ad.matmul(x, p[f"{base}.{w}"])
            if f"{base}.{w}_b" in p:
                y = y + p[f"{base}.{w}_b"]
            y = ad.reshape(y, (B, G, T, heads, dh))
            return ad.swapaxes(y, 2, 3)                    # [B x G x heads x T x dh]

        q, k, v = project("wq"), project("wk"), project("wv")
        scores = ad.matmul(q, ad.swapaxes(k, -1, -2)) * (1.0 / np.sqrt(dh))
        attn = ad.softmax(scores + bias, axis=-1)
        out = ad.matmul(attn, v)
        out = ad.reshape(ad.swapaxes(out, 2, 3), (B, G, T, d))
        out = ad.matmul(out, p[f"{base}.wo"]) + p[f"{base}.wo_b"]
        if axis == "time":
            out = ad.swapaxes(out, 1, 2)
        return replace(latent, h=h + out)

    def spatial_attention(self, latent: LatentGrid, layer: int) -> LatentGrid:
        return self._attend(latent, f"layer{layer}.spatial", "entity")

    def temporal_attention(self, latent: LatentGrid, layer: int) -> LatentGrid:
        return self._attend(latent, f"layer{layer}.temporal", "time")

    def _mlp(self, latent: LatentGrid, layer: int) -> LatentGrid:
        base = f"layer{layer}.mlp"
        p = self.params
        x = ad.layer_norm(latent.h, p[f"{base}.ln_g"], p[f"{base}.ln_b"])
        x = ad.relu(ad.matmul(x, p[f"{base}.w1"]) + p[f"{base}.b1"])
        x = ad.matmul(x, p[f"{base}.w2"]) + p[f"{base}.b2"]
        return replace(latent, h=latent.h + x)

    def encode(self, grids, diffusion_step=None) -> LatentGrid:
        latent = self.embed(grids, diffusion_step)
        for m in range(self.config.layers):
            latent = self.spatial_attention(latent, m)
            latent = self.temporal_attention(latent, m)
            if self.config.with_mlp:
                latent = self._mlp(latent, m)
        return latent


class TrajectoryModel:
    """Backbone plus the noise-prediction head (layer norm, then d -> 2)."""

    def __init__(self, config: ModelConfig, rng: Rng):
        self.backbone = Backbone(config, rng)
        d = config.d
        self.params = dict(self.backbone.params)
        for name, value in (
            ("head.ln_g", np.ones(d)),
            ("head.ln_b", np.zeros(d)),
            # zero-initialized output layer: the untrained model predicts
            # zero noise, so the initial objective sits at the standard
            # normal second moment
            ("head.w", np.zeros((d, 2))),
            ("head.b", np.zeros(2)),
        ):
            self.params[name] = ad.Parameter(value, name)
        self.calls = 0  # forward invocations, for rollout accounting

    @property
    def config(self):
        return self.backbone.config

    def parameters(self):
        return list(self.params.values())

    def predict_noise(self, grids, step) -> ad.Tensor:
        """Predicted noise for every token, [B x L x entities x 2].

        `step` is shared or per batch element; each grid in the batch counts
        as one network evaluation. The output is checked for NaN/Inf here,
        which is the only check a forward under `ad.no_grad()` gets.
        """
        n = 1 if isinstance(grids, TokenGrid) else len(grids)
        self.calls += n
        latent = self.backbone.encode(grids, diffusion_step=step)
        p = self.params
        x = ad.layer_norm(latent.h, p["head.ln_g"], p["head.ln_b"])
        out = ad.matmul(x, p["head.w"]) + p["head.b"]
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
