"""Backbone: token grid construction, embeddings, attention masking, and
checkpoint round trips."""

import re

import numpy as np
import pytest

from gentac import autodiff as ad
from gentac.backbone import (MASK_SCORE, Backbone, ModelConfig, TokenGrid,
                             TrajectoryModel, assign_parameters, build_token_grid,
                             load_checkpoint, save_checkpoint,
                             sinusoidal_embedding)
from gentac.data import Segment
from gentac.rng import Rng


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
    grid = build_token_grid(hist, fut, "forecast_joint")
    assert grid.coords.shape == (105, 23, 2)
    assert grid.noise_target.sum() == 5 * 23
    assert not grid.noise_target[:100].any()


def test_single_team_grid_targets_one_team_only():
    hist = make_segment(100, rng=Rng(0))
    fut = make_segment(5, rng=Rng(1))
    grid = build_token_grid(hist, fut, "forecast_single", target_side=0)
    assert grid.noise_target.sum() == 5 * 11
    assert grid.noise_target[100:, :11].all()
    # opponent and ball futures carry the conditioning ground truth
    assert not grid.noise_target[:, 11:].any()
    np.testing.assert_array_equal(grid.coords[100:, 11:], fut.coords[:, 11:])


def test_event_grid_pads_and_masks():
    hist = make_segment(80, rng=Rng(0))
    grid = build_token_grid(hist, None, "event", l_max=250)
    assert grid.coords.shape == (250, 23, 2)
    assert grid.visibility[:80].all()
    assert not grid.visibility[80:].any()
    assert (~grid.noise_target).all()


def test_event_grid_truncates_to_most_recent():
    hist = make_segment(300, rng=Rng(0))
    grid = build_token_grid(hist, None, "event", l_max=250)
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
        build_token_grid(hist, fut, "forecast_joint")


def test_untracked_entities_are_not_targets():
    hist = make_segment(10, n_players=3, rng=Rng(2))
    fut = make_segment(2, n_players=3, rng=Rng(3))
    hist.visibility[:, 4] = False
    fut.visibility[:, 4] = False
    grid = build_token_grid(hist, fut, "forecast_joint")
    assert not grid.noise_target[:, 4].any()
    assert grid.noise_target[10:, 0].all()


# ---------------------------------------------------------------------------
# embedding
# ---------------------------------------------------------------------------

CFG = ModelConfig(d=16, layers=2, heads=4, n_players=3, l_max=32)


def test_embed_additivity_with_zero_inputs():
    backbone = Backbone(CFG, Rng(1))
    hist = make_segment(6, n_players=3)
    grid = build_token_grid(hist, None, "event", l_max=8)
    backbone.params["embed.proj_b"].data[:] = 0.0
    latent = backbone.embed(grid)
    p = backbone.params
    expected = (p["embed.temporal"].data[0]
                + p["embed.group"].data[0]
                + p["embed.entity"].data[0])
    np.testing.assert_allclose(latent.h.data[0, 0, 0], expected, atol=1e-12)


def test_embed_same_group_entities_differ_only_by_entity_row():
    backbone = Backbone(CFG, Rng(1))
    hist = make_segment(4, n_players=3)
    grid = build_token_grid(hist, None, "event", l_max=6)
    latent = backbone.embed(grid)
    p = backbone.params
    delta = latent.h.data[0, 2, 0] - latent.h.data[0, 2, 1]
    expected = p["embed.entity"].data[0] - p["embed.entity"].data[1]
    np.testing.assert_allclose(delta, expected, atol=1e-12)


def test_embed_output_shape():
    cfg = ModelConfig(d=256, layers=1, heads=8, n_players=11, l_max=128)
    backbone = Backbone(cfg, Rng(0))
    hist = make_segment(100, rng=Rng(5))
    fut = make_segment(5, rng=Rng(6))
    grid = build_token_grid(hist, fut, "forecast_joint")
    assert backbone.embed(grid).h.shape == (1, 105, 23, 256)


def test_embed_rejects_overlong_grid():
    backbone = Backbone(CFG, Rng(1))
    hist = make_segment(40, n_players=3)
    with pytest.raises(ValueError, match="temporal table"):
        backbone.embed(build_token_grid(hist, make_segment(2, n_players=3),
                                        "forecast_joint"))


def test_step_embedding_shifts_every_token_globally():
    backbone = Backbone(CFG, Rng(1))
    hist = make_segment(4, n_players=3, rng=Rng(7))
    grid = build_token_grid(hist, None, "event", l_max=6)
    base = backbone.embed(grid).h.data
    stepped = backbone.embed(grid, diffusion_step=11).h.data
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
    grid = build_token_grid(hist, None, "event", l_max=4)
    latent = backbone.embed(grid)
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
    grid = build_token_grid(hist, None, "event", l_max=8)
    out1 = backbone.encode(grid).h.data

    perturbed = hist.copy()
    perturbed.coords[:, 2] += 123.456      # arbitrary perturbation, masked
    perturbed.coords[4, :] -= 77.7
    grid2 = build_token_grid(perturbed, None, "event", l_max=8)
    out2 = backbone.encode(grid2).h.data

    visible = grid.visibility
    assert out1[0][visible].tobytes() == out2[0][visible].tobytes()


def test_attention_rows_sum_to_one_over_visible_keys():
    backbone = Backbone(CFG, Rng(9))
    hist = make_segment(5, n_players=3, rng=Rng(10))
    hist.visibility[:, 3] = False
    grid = build_token_grid(hist, None, "event", l_max=8)
    latent = backbone.embed(grid)

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
    grid = build_token_grid(hist, None, "event", l_max=1)
    latent = backbone.embed(grid)
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
    grid = build_token_grid(hist, None, "event", l_max=8)
    np.testing.assert_array_equal(backbone.encode(grid).h.data,
                                  backbone.embed(grid).h.data)


def test_encode_output_shape():
    backbone = Backbone(CFG, Rng(15))
    hist = make_segment(6, n_players=3, rng=Rng(16))
    fut = make_segment(2, n_players=3, rng=Rng(17))
    grid = build_token_grid(hist, fut, "forecast_joint")
    assert backbone.encode(grid).h.shape == (1, 8, 7, 16)


def test_permutation_covariance_within_team():
    backbone = Backbone(CFG, Rng(18))
    hist = make_segment(5, n_players=3, rng=Rng(19))
    grid = build_token_grid(hist, None, "event", l_max=8)
    out = backbone.encode(grid).h.data[0]

    # swap player slots 0 and 1 of team0 in both the input and the entity table
    swapped = hist.copy()
    swapped.coords[:, [0, 1]] = swapped.coords[:, [1, 0]]
    entity = backbone.params["embed.entity"]
    original = entity.data.copy()
    entity.data[[0, 1]] = entity.data[[1, 0]]
    try:
        grid2 = build_token_grid(swapped, None, "event", l_max=8)
        out2 = backbone.encode(grid2).h.data[0]
    finally:
        entity.data = original
    np.testing.assert_allclose(out2[:, [1, 0]], out[:, [0, 1]], atol=1e-10)


def test_batched_encode_matches_individual():
    backbone = Backbone(CFG, Rng(20))
    grids = []
    for i in range(3):
        hist = make_segment(5, n_players=3, rng=Rng(30 + i))
        grids.append(build_token_grid(hist, None, "event", l_max=8))
    batched = backbone.encode(grids).h.data
    for i, g in enumerate(grids):
        single = backbone.encode(g).h.data[0]
        np.testing.assert_allclose(batched[i], single, atol=1e-12)


def test_trajectory_head_counts_evaluations():
    model = TrajectoryModel(CFG, Rng(21))
    hist = make_segment(5, n_players=3, rng=Rng(22))
    fut = make_segment(2, n_players=3, rng=Rng(23))
    grid = build_token_grid(hist, fut, "forecast_joint")
    assert model.calls == 0
    out = model.predict_noise(grid, step=3)
    assert out.shape == (1, 7, 7, 2)
    assert model.calls == 1
    model.predict_noise([grid, grid, grid], step=3)
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
    return [build_token_grid(hist, fut, "forecast_joint"),
            build_token_grid(hist, fut, "forecast_single", target_side=1)]


def test_predict_noise_is_bit_identical_under_no_grad():
    model = _model_with_live_head(29)
    grids = _forecast_grids(30)
    taped = model.predict_noise(grids, step=[4, 9])
    with ad.no_grad():
        untaped = model.predict_noise(grids, step=[4, 9])
    assert np.abs(taped.data).max() > 0
    assert isinstance(untaped, ad.Tensor)
    assert taped.data.tobytes() == untaped.data.tobytes()
    assert untaped.parents == ()


def test_non_finite_under_no_grad_names_predict_noise():
    model = _model_with_live_head(33)
    model.params["embed.proj_b"].data[0] = np.nan
    grids = _forecast_grids(34)
    with pytest.raises(ad.NonFiniteError, match="'add'"):
        model.predict_noise(grids, step=3)          # taped: the op is named
    with ad.no_grad():
        with pytest.raises(ad.NonFiniteError, match="predict_noise"):
            model.predict_noise(grids, step=3)


def test_latent_grid_carries_key_mask_biases_through_encode():
    backbone = Backbone(CFG, Rng(35))
    hist = make_segment(4, n_players=3, rng=Rng(36))
    hist.visibility[1, 2] = False
    grid = build_token_grid(hist, None, "event", l_max=6)
    embedded = backbone.embed(grid)
    encoded = backbone.encode(grid)
    vis = embedded.visibility
    np.testing.assert_array_equal(embedded.spatial_bias.data[:, :, 0, 0, :],
                                  np.where(vis, 0.0, MASK_SCORE))
    np.testing.assert_array_equal(embedded.temporal_bias.data[:, :, 0, 0, :],
                                  np.where(np.swapaxes(vis, 1, 2), 0.0, MASK_SCORE))
    np.testing.assert_array_equal(encoded.spatial_bias.data,
                                  embedded.spatial_bias.data)
    np.testing.assert_array_equal(encoded.temporal_bias.data,
                                  embedded.temporal_bias.data)
