"""Backbone: token grid construction, embeddings, attention masking, and
checkpoint round trips."""

import contextlib
import re

import numpy as np
import pytest

from gentac import autodiff as ad
from gentac.backbone import (MASK_SCORE, Backbone, ModelConfig, TokenGrid,
                             TrajectoryModel, assign_parameters, build_token_grid,
                             load_checkpoint, save_checkpoint,
                             sinusoidal_embedding, stack_grids)
from gentac.data import Segment
from gentac.events import EventModel, event_grid
from gentac.rng import Rng
from helpers import attention_block_chain


def make_segment(frames, n_players=11, rng=None, visible=True):
    E = 2 * n_players + 1
    coords = (rng.normal((frames, E, 2)) * 0.3 if rng
              else np.zeros((frames, E, 2)))
    vis = np.full((frames, E), visible, dtype=bool)
    return Segment(coords, vis, 25.0, n_players,
                   tuple(f"A{i}" for i in range(n_players)),
                   tuple(f"B{i}" for i in range(n_players)),
                   normalized=True)


# ---------------------------------------------------------------------------
# token grids
# ---------------------------------------------------------------------------

def test_joint_grid_dimensions_and_target_count():
    hist = make_segment(100, rng=Rng(0))
    fut = make_segment(5, rng=Rng(1))
    grid = build_token_grid(hist, fut)
    assert grid.coords.shape == (105, 23, 2)
    assert grid.noise_target.sum() == 5 * 23
    assert not grid.noise_target[:100].any()


def test_single_team_grid_targets_one_team_only():
    hist = make_segment(100, rng=Rng(0))
    fut = make_segment(5, rng=Rng(1))
    grid = build_token_grid(hist, fut, target_side=0)
    assert grid.noise_target.sum() == 5 * 11
    assert grid.noise_target[100:, :11].all()
    # opponent and ball futures carry the conditioning ground truth
    assert not grid.noise_target[:, 11:].any()
    np.testing.assert_array_equal(grid.coords[100:, 11:], fut.coords[:, 11:])


@pytest.mark.parametrize("side", [2, -1, "0"])
def test_grid_rejects_a_side_outside_none_0_1(side):
    hist = make_segment(4, n_players=3)
    with pytest.raises(ValueError, match="^target_side must be None, 0 or 1, got"):
        build_token_grid(hist, make_segment(1, n_players=3), target_side=side)


def test_event_grid_pads_and_masks():
    hist = make_segment(80, rng=Rng(0))
    grid = event_grid(hist, 250)
    assert grid.coords.shape == (250, 23, 2)
    assert grid.visibility[:80].all()
    assert not grid.visibility[80:].any()
    assert (~grid.noise_target).all()


def test_event_grid_truncates_to_most_recent():
    hist = make_segment(300, rng=Rng(0))
    grid = event_grid(hist, 250)
    assert grid.coords.shape == (250, 23, 2)
    np.testing.assert_array_equal(grid.coords, hist.coords[-250:])


def test_grid_rejects_targets_in_history():
    with pytest.raises(ValueError):
        TokenGrid(np.zeros((4, 3, 2)), np.ones((4, 3), dtype=bool),
                  np.ones((4, 3), dtype=bool), history_len=2)


def test_grid_rejects_roster_mismatch():
    hist = make_segment(10, n_players=3)
    fut = make_segment(2, n_players=4)
    with pytest.raises(ValueError, match="roster"):
        build_token_grid(hist, fut)


def test_untracked_entities_are_not_targets():
    hist = make_segment(10, n_players=3, rng=Rng(2))
    fut = make_segment(2, n_players=3, rng=Rng(3))
    hist.visibility[:, 4] = False
    fut.visibility[:, 4] = False
    grid = build_token_grid(hist, fut)
    assert not grid.noise_target[:, 4].any()
    assert grid.noise_target[10:, 0].all()


# ---------------------------------------------------------------------------
# embedding
# ---------------------------------------------------------------------------

CFG = ModelConfig(d=16, layers=2, heads=4, n_players=3, l_max=32)


def test_embed_additivity_with_zero_inputs():
    backbone = Backbone(CFG, Rng(1))
    hist = make_segment(6, n_players=3)
    grid = event_grid(hist, 8)
    backbone.params["embed.proj_b"].data[:] = 0.0
    latent = backbone.embed(stack_grids(grid))
    p = backbone.params
    expected = (p["embed.temporal"].data[0]
                + p["embed.group"].data[0]
                + p["embed.entity"].data[0])
    np.testing.assert_allclose(latent.h.data[0, 0, 0], expected, atol=1e-12)


def test_embed_same_group_entities_differ_only_by_entity_row():
    backbone = Backbone(CFG, Rng(1))
    hist = make_segment(4, n_players=3)
    grid = event_grid(hist, 6)
    latent = backbone.embed(stack_grids(grid))
    p = backbone.params
    delta = latent.h.data[0, 2, 0] - latent.h.data[0, 2, 1]
    expected = p["embed.entity"].data[0] - p["embed.entity"].data[1]
    np.testing.assert_allclose(delta, expected, atol=1e-12)


def test_embed_output_shape():
    cfg = ModelConfig(d=256, layers=1, heads=8, n_players=11, l_max=128)
    backbone = Backbone(cfg, Rng(0))
    hist = make_segment(100, rng=Rng(5))
    fut = make_segment(5, rng=Rng(6))
    grid = build_token_grid(hist, fut)
    assert backbone.embed(stack_grids(grid)).h.shape == (1, 105, 23, 256)


def test_embed_rejects_overlong_grid():
    backbone = Backbone(CFG, Rng(1))
    hist = make_segment(40, n_players=3)
    with pytest.raises(ValueError, match="temporal table"):
        backbone.embed(stack_grids(
            build_token_grid(hist, make_segment(2, n_players=3))))


def test_step_embedding_shifts_every_token_globally():
    backbone = Backbone(CFG, Rng(1))
    hist = make_segment(4, n_players=3, rng=Rng(7))
    grid = event_grid(hist, 6)
    base = backbone.embed(stack_grids(grid)).h.data
    stepped = backbone.embed(stack_grids(grid), diffusion_step=11).h.data
    emb = sinusoidal_embedding(11, CFG.d)
    np.testing.assert_allclose(stepped - base,
                               np.broadcast_to(emb, stepped.shape), atol=1e-12)


# ---------------------------------------------------------------------------
# attention
# ---------------------------------------------------------------------------

def test_single_visible_entity_attends_to_itself():
    backbone = Backbone(CFG, Rng(3))
    hist = make_segment(3, n_players=3, rng=Rng(4))
    hist.visibility[:, 1:] = False
    grid = event_grid(hist, 4)
    latent = backbone.embed(stack_grids(grid))
    # reproduce the spatial scores by hand for frame 0
    p = backbone.params
    x = ad.layer_norm(latent.h, p["layer0.spatial.ln_g"],
                      p["layer0.spatial.ln_b"]).data
    q = x @ p["layer0.spatial.wq"].data
    k = x @ p["layer0.spatial.wk"].data
    dh = CFG.d // CFG.heads
    qh = q[0, 0].reshape(7, CFG.heads, dh)
    kh = k[0, 0].reshape(7, CFG.heads, dh)
    scores = np.einsum("qhd,khd->hqk", qh, kh) / np.sqrt(dh)
    scores[:, :, ~grid.visibility[0]] = -1e9
    w = np.exp(scores - scores.max(-1, keepdims=True))
    w /= w.sum(-1, keepdims=True)
    assert np.allclose(w[:, 0, 0], 1.0)


def test_mask_isolation_is_bit_exact():
    backbone = Backbone(CFG, Rng(3))
    hist = make_segment(6, n_players=3, rng=Rng(8))
    hist.visibility[:, 2] = False          # entity 2 invisible everywhere
    hist.visibility[4, :] = False          # frame 4 fully masked
    grid = event_grid(hist, 8)
    out1 = backbone.encode(stack_grids(grid)).h.data

    perturbed = hist.copy()
    perturbed.coords[:, 2] += 123.456      # arbitrary perturbation, masked
    perturbed.coords[4, :] -= 77.7
    grid2 = event_grid(perturbed, 8)
    out2 = backbone.encode(stack_grids(grid2)).h.data

    visible = grid.visibility
    assert out1[0][visible].tobytes() == out2[0][visible].tobytes()


def test_attention_rows_sum_to_one_over_visible_keys():
    backbone = Backbone(CFG, Rng(9))
    hist = make_segment(5, n_players=3, rng=Rng(10))
    hist.visibility[:, 3] = False
    grid = event_grid(hist, 8)
    latent = backbone.embed(stack_grids(grid))

    p = backbone.params
    x = ad.layer_norm(latent.h, p["layer0.spatial.ln_g"],
                      p["layer0.spatial.ln_b"]).data
    q = (x @ p["layer0.spatial.wq"].data)[0]
    k = (x @ p["layer0.spatial.wk"].data)[0]
    dh = CFG.d // CFG.heads
    for t in range(5):
        qh = q[t].reshape(7, CFG.heads, dh)
        kh = k[t].reshape(7, CFG.heads, dh)
        scores = np.einsum("qhd,khd->hqk", qh, kh) / np.sqrt(dh)
        scores[:, :, ~grid.visibility[t]] = -1e9
        w = np.exp(scores - scores.max(-1, keepdims=True))
        w /= w.sum(-1, keepdims=True)
        on_visible = w[:, :, grid.visibility[t]].sum(-1)
        np.testing.assert_allclose(on_visible, 1.0, atol=1e-10)


def test_single_frame_temporal_attention_feeds_through():
    backbone = Backbone(CFG, Rng(11))
    hist = make_segment(1, n_players=3, rng=Rng(12))
    grid = event_grid(hist, 1)
    latent = backbone.embed(stack_grids(grid))
    out = backbone.temporal_attention(latent, 0)
    # one token: attention output equals the value projection of itself
    p = backbone.params
    x = ad.layer_norm(latent.h, p["layer0.temporal.ln_g"],
                      p["layer0.temporal.ln_b"]).data
    v = x @ p["layer0.temporal.wv"].data + p["layer0.temporal.wv_b"].data
    expected = latent.h.data + v @ p["layer0.temporal.wo"].data \
        + p["layer0.temporal.wo_b"].data
    np.testing.assert_allclose(out.h.data, expected, atol=1e-12)


def test_encode_with_zero_layers_equals_embed():
    cfg = ModelConfig(d=16, layers=0, heads=4, n_players=3, l_max=8)
    backbone = Backbone(cfg, Rng(13))
    hist = make_segment(4, n_players=3, rng=Rng(14))
    grid = event_grid(hist, 8)
    np.testing.assert_array_equal(backbone.encode(stack_grids(grid)).h.data,
                                  backbone.embed(stack_grids(grid)).h.data)


def test_encode_output_shape():
    backbone = Backbone(CFG, Rng(15))
    hist = make_segment(6, n_players=3, rng=Rng(16))
    fut = make_segment(2, n_players=3, rng=Rng(17))
    grid = build_token_grid(hist, fut)
    assert backbone.encode(stack_grids(grid)).h.shape == (1, 8, 7, 16)


def test_permutation_covariance_within_team():
    backbone = Backbone(CFG, Rng(18))
    hist = make_segment(5, n_players=3, rng=Rng(19))
    grid = event_grid(hist, 8)
    out = backbone.encode(stack_grids(grid)).h.data[0]

    # swap player slots 0 and 1 of team0 in both the input and the entity table
    swapped = hist.copy()
    swapped.coords[:, [0, 1]] = swapped.coords[:, [1, 0]]
    entity = backbone.params["embed.entity"]
    original = entity.data.copy()
    entity.data[[0, 1]] = entity.data[[1, 0]]
    try:
        grid2 = event_grid(swapped, 8)
        out2 = backbone.encode(stack_grids(grid2)).h.data[0]
    finally:
        entity.data = original
    np.testing.assert_allclose(out2[:, [1, 0]], out[:, [0, 1]], atol=1e-10)


def test_batched_encode_matches_individual():
    backbone = Backbone(CFG, Rng(20))
    grids = []
    for i in range(3):
        hist = make_segment(5, n_players=3, rng=Rng(30 + i))
        grids.append(event_grid(hist, 8))
    batched = backbone.encode(stack_grids(grids)).h.data
    for i, g in enumerate(grids):
        single = backbone.encode(stack_grids(g)).h.data[0]
        np.testing.assert_allclose(batched[i], single, atol=1e-12)


def test_trajectory_head_counts_evaluations():
    model = TrajectoryModel(CFG, Rng(21))
    hist = make_segment(5, n_players=3, rng=Rng(22))
    fut = make_segment(2, n_players=3, rng=Rng(23))
    grid = build_token_grid(hist, fut)
    assert model.calls == 0
    out = model.predict_noise(stack_grids(grid), step=3)
    assert out.shape == (1, 7, 7, 2)
    assert model.calls == 1
    model.predict_noise(stack_grids([grid, grid, grid]), step=3)
    assert model.calls == 4


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_round_trip(tmp_path):
    model = TrajectoryModel(CFG, Rng(24))
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model.params, CFG.to_dict(), extra={"task": "forecast"})
    config, extra, arrays = load_checkpoint(path)
    assert ModelConfig.from_dict(config) == CFG
    assert extra == {"task": "forecast"}
    assert set(arrays) == set(model.params)
    for name, p in model.params.items():
        assert arrays[name].tobytes() == p.data.tobytes()

    other = TrajectoryModel(CFG, Rng(999))
    assign_parameters(other.params, arrays)
    for name in model.params:
        assert other.params[name].data.tobytes() == model.params[name].data.tobytes()


def test_checkpoint_shape_mismatch_rejected(tmp_path):
    model = TrajectoryModel(CFG, Rng(25))
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model.params, CFG.to_dict())
    _, _, arrays = load_checkpoint(path)
    bigger = TrajectoryModel(
        ModelConfig(d=32, layers=2, heads=4, n_players=3, l_max=32), Rng(26))
    with pytest.raises(ValueError, match="shape"):
        assign_parameters(bigger.params, arrays)


def test_checkpoint_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bogus.ckpt"
    path.write_bytes(b"not a checkpoint")
    with pytest.raises(ValueError):
        load_checkpoint(path)


def test_checkpoint_truncated_payload_names_file_and_parameter(tmp_path):
    model = TrajectoryModel(CFG, Rng(27))
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model.params, CFG.to_dict())
    path.write_bytes(path.read_bytes()[:-12])
    last = sorted(model.params)[-1]
    expected = f"{re.escape(str(path))}: parameter '{last}' is truncated"
    with pytest.raises(ValueError, match=expected) as err:
        load_checkpoint(path)
    assert "\n" not in str(err.value)


def test_checkpoint_trailing_bytes_rejected(tmp_path):
    model = TrajectoryModel(CFG, Rng(28))
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model.params, CFG.to_dict())
    path.write_bytes(path.read_bytes() + b"\0" * 8)
    last = sorted(model.params)[-1]
    expected = f"{re.escape(str(path))}: 8 trailing bytes .* '{last}'"
    with pytest.raises(ValueError, match=expected) as err:
        load_checkpoint(path)
    assert "\n" not in str(err.value)


# ---------------------------------------------------------------------------
# inference mode
# ---------------------------------------------------------------------------

def _model_with_live_head(seed):
    model = TrajectoryModel(CFG, Rng(seed))
    model.params["head.w"].data = Rng(seed, ("head",)).normal((CFG.d, 2))
    return model


def _forecast_grids(seed):
    hist = make_segment(5, n_players=3, rng=Rng(seed))
    fut = make_segment(2, n_players=3, rng=Rng(seed + 1))
    return [build_token_grid(hist, fut),
            build_token_grid(hist, fut, target_side=1)]


def test_predict_noise_is_bit_identical_under_no_grad():
    model = _model_with_live_head(29)
    grids = _forecast_grids(30)
    taped = model.predict_noise(stack_grids(grids), step=[4, 9])
    with ad.no_grad():
        untaped = model.predict_noise(stack_grids(grids), step=[4, 9])
    assert np.abs(taped.data).max() > 0
    assert isinstance(untaped, ad.Tensor)
    assert taped.data.tobytes() == untaped.data.tobytes()
    assert untaped.parents == ()


def test_non_finite_under_no_grad_names_predict_noise():
    model = _model_with_live_head(33)
    model.params["embed.proj_b"].data[0] = np.nan
    grids = _forecast_grids(34)
    with pytest.raises(ad.NonFiniteError, match="'add'"):
        model.predict_noise(stack_grids(grids), step=3)  # taped: the op is named
    with ad.no_grad():
        with pytest.raises(ad.NonFiniteError, match="predict_noise"):
            model.predict_noise(stack_grids(grids), step=3)


def test_latent_grid_carries_key_mask_biases_through_encode():
    backbone = Backbone(CFG, Rng(35))
    hist = make_segment(4, n_players=3, rng=Rng(36))
    hist.visibility[1, 2] = False
    batch = stack_grids(event_grid(hist, 6))
    embedded = backbone.embed(batch)
    encoded = backbone.encode(batch)
    vis = batch.visibility
    np.testing.assert_array_equal(batch.spatial_bias[:, :, 0, 0, :],
                                  np.where(vis, 0.0, MASK_SCORE))
    np.testing.assert_array_equal(batch.temporal_bias[:, :, 0, 0, :],
                                  np.where(np.swapaxes(vis, 1, 2), 0.0, MASK_SCORE))
    assert embedded.batch is batch and encoded.batch is batch


def _tape(out):
    """Every node reachable from `out` through its parents."""
    nodes, stack, seen = [], [out], set()
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node.parents)
    return nodes


def test_grad_mode_tape_keeps_one_score_buffer_per_attention():
    model = _model_with_live_head(37)
    hist = make_segment(6, n_players=3, rng=Rng(38))
    fut = make_segment(3, n_players=3, rng=Rng(39))
    grids = [build_token_grid(hist, fut)] * 2
    nodes = _tape(model.predict_noise(stack_grids(grids), step=[2, 5]))
    B, L, W, E, heads = 2, 9, 3, CFG.n_entities, CFG.heads
    # spatial, temporal, and the last temporal sublayer's future queries
    scores = {(B, L, heads, E, E), (B, E, heads, L, L), (B, E, heads, W, L)}
    assert [n.op for n in nodes if n.data.shape in scores] == []
    attention = [n for n in nodes if n.op == "attention"]
    assert len(attention) == 2 * CFG.layers
    # each sublayer is one tape node, the only one its parameters feed
    sublayer = {id(p) for name, p in model.params.items()
                if name.startswith("layer")}
    feeding = [n for n in nodes if sublayer & {id(p) for p in n.parents}]
    assert [id(n) for n in feeding] == [id(n) for n in attention]
    arrays = [cell.cell_contents for n in nodes if n.backward_fn
              for cell in n.backward_fn.__closure__ or ()
              if isinstance(cell.cell_contents, np.ndarray)]
    held = {id(a) for a in arrays if a.shape in scores}
    assert len(held) == len(attention)
    d = CFG.d
    assert [a.shape for a in [n.data for n in nodes] + arrays
            if a.ndim > 2 and a.shape[-2:] == (d, d)] == []


def test_forward_equals_the_op_chain_bitwise_under_no_grad(monkeypatch):
    model = _model_with_live_head(41)
    grids = _forecast_grids(42)
    events = EventModel(CFG, Rng(43))
    event_grids = [event_grid(make_segment(n, n_players=3, rng=Rng(44 + n)),
                              CFG.l_max) for n in (5, 9)]
    event_grids[1].visibility[3:, 1] = False

    def run():
        with ad.no_grad():
            types, subs = events.logits(event_grids)
            return [model.predict_noise(stack_grids(grids),
                                        step=[4, 9]).data.tobytes(),
                    types.data.tobytes(),
                    *(subs[t].data.tobytes() for t in sorted(subs))]

    fused = run()
    monkeypatch.setattr(ad, "attention_block", attention_block_chain)
    assert run() == fused


# ---------------------------------------------------------------------------
# future rows only
# ---------------------------------------------------------------------------


def _full_row_output(model, grids, step):
    """The oracle: every row through every sublayer and the head."""
    latent = model.backbone.encode(stack_grids(grids), diffusion_step=step)
    p = model.params
    x = ad.layer_norm(latent.h, p["head.ln_g"], p["head.ln_b"])
    return ad.matmul(x, p["head.w"]) + p["head.b"]


def _masked_loss(out, grids, seed):
    """Criterion 1's loss: squared error on the target slots only."""
    target = np.stack([g.noise_target for g in grids])
    eps = Rng(seed).normal(out.shape)
    m = ad.Tensor(np.broadcast_to(target[..., None], out.shape).astype(float).copy())
    md = ad.mul(out - ad.Tensor(eps), m)
    return ad.mul(ad.sum_(ad.mul(md, md)), ad.as_tensor(1.0 / target.sum()))


def _mixed_history_grids(seed):
    """Joint and single-team grids; the last has a longer history than the
    others."""
    grids = _forecast_grids(seed)
    hist = make_segment(6, n_players=3, rng=Rng(seed + 2))
    fut = make_segment(2, n_players=3, rng=Rng(seed + 3))
    return grids + [build_token_grid(hist, fut, target_side=0)]


def test_predict_noise_rejects_mixed_history_lengths():
    # the rows it computes start at one H; a batch of several used to start
    # at the smallest, which every caller's one-H batches never needed
    model = _model_with_live_head(40)
    grids = _forecast_grids(41)                 # 5 + 2 frames
    hist = make_segment(6, n_players=3, rng=Rng(43))
    grids.append(build_token_grid(hist, make_segment(1, n_players=3, rng=Rng(44)),
                                  target_side=0))
    calls = model.calls
    with pytest.raises(ValueError) as err:
        model.predict_noise(stack_grids(grids), step=[4, 9, 17])
    assert str(err.value) == "cannot batch grids of differing history lengths [5, 6]"
    assert model.calls == calls


def _one_history_batches(grids, steps):
    """Split a batch into the one-history-length batches predict_noise takes."""
    for H in sorted({g.history_len for g in grids}):
        keep = [i for i, g in enumerate(grids) if g.history_len == H]
        yield H, [grids[i] for i in keep], [steps[i] for i in keep]


@pytest.mark.parametrize("make_grids", [_forecast_grids, _mixed_history_grids])
def test_predict_noise_rows_match_the_full_row_computation(make_grids):
    model = _model_with_live_head(40)
    grids = make_grids(41)
    steps = [4, 9, 17][:len(grids)]
    for H, batch, batch_steps in _one_history_batches(grids, steps):
        for grad_mode in (True, False):
            with contextlib.nullcontext() if grad_mode else ad.no_grad():
                oracle = _full_row_output(model, batch, batch_steps).data
                out = model.predict_noise(stack_grids(batch),
                                          step=batch_steps).data
            assert out.shape == oracle.shape
            assert out[:, H:].tobytes() == oracle[:, H:].tobytes()
            assert not out[:, :H].any()
            assert not np.signbit(out[:, :H]).any()


@pytest.mark.parametrize("make_grids", [_forecast_grids, _mixed_history_grids])
def test_predict_noise_gradients_match_the_full_row_computation(make_grids):
    model = _model_with_live_head(42)
    for j, prm in enumerate(model.params.values()):   # no zero-initialized layer
        prm.data = prm.data + 0.05 * Rng(43, ("jitter", j)).normal(prm.data.shape)
    grids = make_grids(44)
    steps = [3, 11, 20][:len(grids)]

    def grads(forward):
        for prm in model.params.values():
            prm.zero_grad()
        losses = [_masked_loss(forward(batch, batch_steps), batch, 45 + H)
                  for H, batch, batch_steps in _one_history_batches(grids, steps)]
        ad.backward(sum(losses[1:], losses[0]))
        return {prm.name: prm.grad.copy() for prm in model.params.values()}

    oracle = grads(lambda g, s: _full_row_output(model, g, s))
    fast = grads(lambda g, s: model.predict_noise(stack_grids(g), step=s))
    assert all(np.abs(g).max() > 0 for g in oracle.values())
    for name, g in oracle.items():
        assert fast[name].tobytes() == g.tobytes(), name


@pytest.mark.parametrize("W", [1, 2, 3, 5])
def test_future_rows_are_the_full_rows_bitwise_from_two_frames_on(W):
    # one future frame leaves one query row, which takes another
    # matrix-product path: its rows agree to rounding, not bit for bit
    model = _model_with_live_head(40)
    hist = make_segment(6, n_players=3, rng=Rng(41))
    fut = make_segment(W, n_players=3, rng=Rng(42))
    grids = [build_token_grid(hist, fut), build_token_grid(hist, fut, target_side=1)]
    with ad.no_grad():
        oracle = _full_row_output(model, grids, [4, 9]).data[:, 6:]
        out = model.predict_noise(stack_grids(grids), step=[4, 9]).data[:, 6:]
    if W >= 2:
        assert out.tobytes() == oracle.tobytes()
    else:
        assert np.abs(out - oracle).max() <= 1e-14 * np.abs(oracle).max()
