"""Shared oracles used by both the unit tests and the acceptance suite."""

import math
from dataclasses import replace

import numpy as np

from gentac import autodiff as ad
from gentac.backbone import (MASK_SCORE, build_token_grid, from_displacement,
                             stack_grids, to_displacement)
from gentac.diffusion import denoise_step, forward_noise, make_schedule
from gentac.rng import Rng


def oracle_sampler_mse(S, n_chains=20000, seed=0):
    """Scalar-toy reconstruction error for a perfect noise oracle.

    Each chain fixes a target x0, corrupts it to step S, then walks the
    reverse chain feeding the denoiser the exact noise content of the
    current state. The update is algebraically exact, so the measured MSE is
    the accumulated floating-point residual; it shrinks as the schedule
    refines because late-chain stochastic deviation shrinks with S.
    """
    schedule = make_schedule(S)
    rng = Rng(seed, ("oracle-sampler", S))
    x0 = rng.child("x0").uniform(-1, 1, (n_chains,))
    x, _ = forward_noise(x0, S, schedule, rng.child("fwd"))
    for s in range(S, 0, -1):
        ab = schedule.alpha_bar(s)
        eps_true = (x - math.sqrt(ab) * x0) / math.sqrt(1.0 - ab)
        x = denoise_step(x, eps_true, s, schedule, rng.child("z", s))
    return float(((x - x0) ** 2).mean())


def fd_check_model(model, loss_fn, h=1e-5):
    """Worst relative error between analytic and central-difference
    gradients over every coordinate of every parameter."""
    params = list(model.params.values())
    for p in params:
        p.zero_grad()
    ad.backward(loss_fn())
    worst = 0.0
    worst_name = ""
    for p in params:
        analytic = p.grad
        it = np.nditer(p.data, flags=["multi_index"])
        for _ in it:
            i = it.multi_index
            orig = p.data[i]
            p.data[i] = orig + h
            fp = float(loss_fn().data)
            p.data[i] = orig - h
            fm = float(loss_fn().data)
            p.data[i] = orig
            fd = (fp - fm) / (2 * h)
            m = max(abs(fd), abs(analytic[i]))
            rel = 0.0 if m < 1e-10 else abs(fd - analytic[i]) / m
            if rel > worst:
                worst, worst_name = rel, f"{p.name}{i}"
    return worst, worst_name


def league_clips(clips, league):
    """The clips, each tagged with `league` in its metadata."""
    for clip in clips:
        clip.metadata["league"] = league
    return clips


def attention_block_chain(h, weights, bias, heads, along_time, prefix=None,
                          with_kv=False):
    """`ad.attention_block` as the chain of primitive ops it fuses: the
    reference its forward equals bit for bit and its gradients to rounding.
    A `bias` of None (no hidden key) is added as an explicit zero."""
    ln_g, ln_b, wq, wk, wv, wv_b, wo, wo_b = weights
    B, L, E, d = h.shape
    dh = d // heads
    x = ad.layer_norm(h, ln_g, ln_b)
    if along_time:
        x = ad.swapaxes(x, 1, 2)                        # [B x E x L x d]
    G, T = x.shape[1:3]

    def project(w, b=None):
        y = ad.matmul(x, w)
        if b is not None:
            y = y + b
        return ad.swapaxes(ad.reshape(y, (B, G, T, heads, dh)), 2, 3)

    q, k, v = project(wq), project(wk), project(wv, wv_b)
    kv = ad.concat([ad.reshape(k, (1, *k.shape)),
                    ad.reshape(v, (1, *v.shape))]) if with_kv else None
    if prefix is not None:
        k = ad.concat([ad.take(prefix, 0), k], axis=-2)
        v = ad.concat([ad.take(prefix, 1), v], axis=-2)
    scores = ad.matmul(q, ad.swapaxes(k, -1, -2)) * (1.0 / np.sqrt(dh))
    if bias is None:
        bias = np.zeros((1, 1, 1, 1, 1))
    out = ad.matmul(ad.softmax(scores + ad.Tensor(bias), axis=-1), v)
    out = ad.reshape(ad.swapaxes(out, 2, 3), (B, G, T, d))
    out = ad.matmul(out, wo) + wo_b
    if along_time:
        out = ad.swapaxes(out, 1, 2)
    out = h + out
    return (out, kv) if with_kv else out


def block_masked_full_rows(model, grids, step):
    """`TrajectoryModel.predict_noise`'s history-once layout computed on
    every row at once from the primitive-op chain: the history and future
    frames embedded together, the step embedding on the future frames only,
    every sublayer over all L frames, and a temporal key mask that also
    hides each future key from every history query. The head runs on the
    future rows; the history rows of the output are zeros."""
    backbone, p = model.backbone, model.params
    batch = stack_grids(grids)
    (H,) = batch.history_lens
    B, L, E = batch.coords.shape[:3]
    h = ad.concat([backbone.embed(batch, frames=slice(0, H)).h,
                   backbone.embed(batch, step, slice(H, None)).h], axis=1)
    block = np.zeros((L, L))
    block[:H, H:] = MASK_SCORE
    temporal = block if batch.temporal_bias is None else batch.temporal_bias + block
    for m in range(model.config.layers):
        for sub, bias in (("spatial", batch.spatial_bias), ("temporal", temporal)):
            weights = tuple(p[f"layer{m}.{sub}.{w}"] for w in
                            ("ln_g", "ln_b", "wq", "wk", "wv", "wv_b", "wo", "wo_b"))
            h = attention_block_chain(h, weights, bias, model.config.heads,
                                      sub == "temporal")
    x = ad.layer_norm(ad.take(h, (slice(None), slice(H, None))),
                      p["head.ln_g"], p["head.ln_b"])
    out = ad.matmul(x, p["head.w"]) + p["head.b"]
    return ad.concat([np.zeros((B, H, E, 2)), out], axis=1)


class OwnHistoryPerRow:
    """`model` with every row of a batch encoding its own copy of the
    history: `predict_noise` on a fresh batch of the same grids with `draws`
    1. `diffusion_loss` on it makes the same draws as on `model` and is the
    reference for the history encoding those draws share."""

    def __init__(self, model):
        self.model = model

    def predict_noise(self, batch, step):
        own = replace(batch)
        own.draws = 1
        return self.model.predict_noise(own, step)


def reference_sample_windows_batch(histories, futures, model, schedule, rngs,
                                   target_side=None):
    """`diffusion.sample_windows_batch` as a step loop that rebuilds the
    grids and the network input at every step and derives the clip bounds
    from the anchors each time: the reference the window-batch sampler
    equals bit for bit, futures and clip count both."""
    w, E = len(futures[0]), histories[0].n_entities
    grids = []
    for history, future, rng in zip(histories, futures, rngs):
        grid = build_token_grid(history, future, target_side)
        mask = grid.noise_target[grid.history_len:]
        coords = grid.coords.copy()
        coords[grid.history_len:][mask] = rng.child("init").normal((w, E, 2))[mask]
        grids.append(replace(grid, coords=coords))
    anchors = [np.broadcast_to(g.anchor, (w, E, 2))[g.noise_target[g.history_len:]]
               for g in grids]
    clamped = 0
    for s in range(schedule.steps, 0, -1):
        with ad.no_grad():
            x0_pred = model.predict_noise(stack_grids(grids), step=s).data
        ab = schedule.alpha_bar(s)
        for i, grid in enumerate(grids):
            H = grid.history_len
            mask = grid.noise_target[H:]
            x_s = grid.coords[H:][mask]
            raw = x0_pred[i, H:][mask]
            x0_hat = np.clip(raw, to_displacement(-1.0, anchors[i]),
                             to_displacement(1.0, anchors[i]))
            clamped += int(np.count_nonzero(x0_hat != raw))
            eps_hat = (x_s - math.sqrt(ab) * x0_hat) / math.sqrt(1.0 - ab)
            x_prev = denoise_step(x_s, eps_hat, s, schedule, rngs[i].child("noise", s))
            coords = grid.coords.copy()
            coords[H:][mask] = x_prev
            grids[i] = replace(grid, coords=coords)
    outputs = []
    for history, grid, anchor in zip(histories, grids, anchors):
        H = grid.history_len
        mask = grid.noise_target[H:]
        coords = grid.coords[H:].copy()
        coords[mask] = from_displacement(coords[mask], anchor)
        outputs.append(replace(history, coords=coords,
                               visibility=grid.visibility[H:].copy()))
    return outputs, clamped
