"""Event heads: taxonomy shape, pooling, routed classification arithmetic,
teacher-routed gradients, grounding, and forecast summaries."""

import math

import numpy as np
import pytest

from gentac import autodiff as ad
from gentac.backbone import ModelConfig, TrajectoryModel
from gentac.data import PitchSpec, Segment, clip_to_segment, normalize
from gentac.diffusion import RolloutConfig, make_schedule
from gentac.events import (TAXONOMY, EventModel, classify, event_grid,
                           forecast_event, ground_event, hierarchical_loss,
                           hierarchical_loss_batch, summarize_predictions,
                           _sorted_quantile)
from gentac.fixtures import event_class_clips
from gentac.rng import Rng

CFG = ModelConfig(d=16, layers=1, heads=4, n_players=2, l_max=16)


def make_segment(frames, n_players=2, rng=None):
    E = 2 * n_players + 1
    coords = rng.normal((frames, E, 2)) * 0.3 if rng else np.zeros((frames, E, 2))
    return Segment(coords, np.ones((frames, E), dtype=bool), 25.0, n_players,
                   tuple(f"A{i}" for i in range(n_players)),
                   tuple(f"B{i}" for i in range(n_players)), normalized=True)


# ---------------------------------------------------------------------------
# taxonomy
# ---------------------------------------------------------------------------

def test_taxonomy_has_five_types_fifteen_subtypes():
    assert len(TAXONOMY.types) == 5
    assert len(TAXONOMY.all_subtypes) == 15
    for s in TAXONOMY.all_subtypes:
        assert sum(s in TAXONOMY.subtypes[t] for t in TAXONOMY.types) == 1


def test_taxonomy_expected_members():
    assert TAXONOMY.subtypes["transition"] == ("ball_win", "progression")
    assert TAXONOMY.subtypes["threat"] == (
        "goal", "shot_off_target", "shot_saved", "clearance", "defended")
    assert TAXONOMY.subtypes["set_piece"] == (
        "corner", "free_kick", "penalty", "throw_in", "kick_off", "goal_kick")


# ---------------------------------------------------------------------------
# attention pooling
# ---------------------------------------------------------------------------

def test_pool_uniform_scores_give_mean_of_visible():
    model = EventModel(CFG, Rng(0))
    # zero the scoring MLP so every token scores identically
    model.params["pool.w2"].data[:] = 0.0
    model.params["pool.b2"].data[:] = 0.0
    h = Rng(1).normal((1, 4, 5, CFG.d))
    vis = np.ones((1, 4, 5), dtype=bool)
    vis[0, 2, 3] = False
    z = model.attention_pool(ad.Tensor(h), vis).data[0]
    expected = h[0][vis[0]].mean(axis=0)
    np.testing.assert_allclose(z, expected, atol=1e-12)


def test_pool_single_visible_token_passes_through():
    model = EventModel(CFG, Rng(0))
    h = Rng(2).normal((1, 3, 4, CFG.d))
    vis = np.zeros((1, 3, 4), dtype=bool)
    vis[0, 1, 2] = True
    z = model.attention_pool(ad.Tensor(h), vis).data[0]
    np.testing.assert_allclose(z, h[0, 1, 2], atol=1e-12)


def test_pool_weights_ignore_masked_tokens_bitwise():
    model = EventModel(CFG, Rng(0))
    h = Rng(3).normal((1, 3, 4, CFG.d))
    vis = np.ones((1, 3, 4), dtype=bool)
    vis[0, 0, 0] = False
    z1 = model.attention_pool(ad.Tensor(h), vis).data
    h2 = h.copy()
    h2[0, 0, 0] += 1e6
    z2 = model.attention_pool(ad.Tensor(h2), vis).data
    assert z1.tobytes() == z2.tobytes()


def test_pool_rejects_fully_masked_sample():
    model = EventModel(CFG, Rng(0))
    h = Rng(4).normal((1, 2, 3, CFG.d))
    with pytest.raises(ValueError, match="no visible"):
        model.attention_pool(ad.Tensor(h), np.zeros((1, 2, 3), dtype=bool))


# ---------------------------------------------------------------------------
# classification arithmetic
# ---------------------------------------------------------------------------

def test_classify_routes_through_argmax_type():
    type_logits = np.array([0.0, 0.0, 0.0, 0.0, 50.0])  # -> threat
    sub_logits = {t: np.zeros(len(TAXONOMY.subtypes[t])) for t in TAXONOMY.types}
    sub_logits["threat"] = np.array([0.0, 9.0, 0.0, 0.0, 0.0])
    pred = classify(type_logits, sub_logits)
    assert pred.predicted_type == "threat"
    assert pred.predicted_subtype == "shot_off_target"


def test_classify_uniform_heads_combined_pattern():
    type_logits = np.zeros(5)
    sub_logits = {t: np.zeros(len(TAXONOMY.subtypes[t])) for t in TAXONOMY.types}
    pred = classify(type_logits, sub_logits)
    expected = {
        "build": 1 / 5,
        "ball_win": 1 / 10, "progression": 1 / 10,
        "stoppage": 1 / 5,
        "corner": 1 / 30, "free_kick": 1 / 30, "penalty": 1 / 30,
        "throw_in": 1 / 30, "kick_off": 1 / 30, "goal_kick": 1 / 30,
        "goal": 1 / 25, "shot_off_target": 1 / 25, "shot_saved": 1 / 25,
        "clearance": 1 / 25, "defended": 1 / 25,
    }
    for name, value in expected.items():
        i = TAXONOMY.combined_index(name)
        assert pred.combined[i] == pytest.approx(value, abs=1e-15)
    # spot-check the documented pattern: build 1/5, transition 1/10, threat 1/25
    assert pred.combined[TAXONOMY.combined_index("build")] == pytest.approx(0.2)
    assert pred.combined[TAXONOMY.combined_index("ball_win")] == pytest.approx(0.1)
    assert pred.combined[TAXONOMY.combined_index("goal")] == pytest.approx(0.04)


def test_classify_probability_vectors_are_distributions():
    rng = Rng(5)
    type_logits = rng.child("t").normal((5,)) * 3
    sub_logits = {t: rng.child(t).normal((len(TAXONOMY.subtypes[t]),)) * 3
                  for t in TAXONOMY.types}
    pred = classify(type_logits, sub_logits)
    assert abs(pred.type_probs.sum() - 1.0) < 1e-10
    for t in TAXONOMY.types:
        assert abs(pred.subtype_probs[t].sum() - 1.0) < 1e-10
    assert abs(pred.combined.sum() - 1.0) < 1e-10


def test_routing_consistency_combined_vs_routed():
    rng = Rng(6)
    for trial in range(25):
        type_logits = rng.child("t", trial).normal((5,)) * 2
        sub_logits = {t: rng.child(t, trial).normal((len(TAXONOMY.subtypes[t]),)) * 2
                      for t in TAXONOMY.types}
        pred = classify(type_logits, sub_logits)
        members = TAXONOMY.subtypes[pred.predicted_type]
        idx = [TAXONOMY.combined_index(s) for s in members]
        best = members[int(np.argmax(pred.combined[idx]))]
        assert best == pred.predicted_subtype


# ---------------------------------------------------------------------------
# hierarchical loss
# ---------------------------------------------------------------------------

def _one_hot_prediction(y_type, y_sub):
    type_logits = np.full(5, -40.0)
    type_logits[TAXONOMY.type_index(y_type)] = 40.0
    sub_logits = {t: np.full(len(TAXONOMY.subtypes[t]), -40.0)
                  for t in TAXONOMY.types}
    sub_logits[y_type][TAXONOMY.subtype_index(y_type, y_sub)] = 40.0
    return classify(type_logits, sub_logits)


def test_loss_zero_for_perfect_prediction():
    pred = _one_hot_prediction("threat", "goal")
    assert hierarchical_loss(pred, ("threat", "goal"), lam=1.0) < 1e-10


def test_loss_uniform_type_head_is_ln5():
    pred = classify(np.zeros(5),
                    {t: np.zeros(len(TAXONOMY.subtypes[t])) for t in TAXONOMY.types})
    loss = hierarchical_loss(pred, ("build", "build"), lam=0.0)
    assert loss == pytest.approx(math.log(5), abs=1e-10)


def test_loss_lambda_zero_reduces_to_type_loss():
    pred = classify(np.array([1.0, 0.5, -2.0, 0.0, 0.3]),
                    {t: np.ones(len(TAXONOMY.subtypes[t])) for t in TAXONOMY.types})
    full = hierarchical_loss(pred, ("transition", "ball_win"), lam=0.0)
    expected = -math.log(pred.type_probs[TAXONOMY.type_index("transition")])
    assert full == pytest.approx(expected, abs=1e-12)


def test_loss_rejects_label_outside_taxonomy():
    pred = _one_hot_prediction("build", "build")
    with pytest.raises(ValueError):
        hierarchical_loss(pred, ("threat", "build"), lam=1.0)


def test_teacher_routing_gradient_isolation():
    model = EventModel(CFG, Rng(7))
    seg = make_segment(6, rng=Rng(8))
    grids = [event_grid(seg, CFG.l_max)]
    type_logits, sub_logits = model.logits(grids)
    loss = hierarchical_loss_batch(type_logits, sub_logits,
                                   [("threat", "clearance")], lam=1.0)
    for p in model.params.values():
        p.zero_grad()
    ad.backward(loss)
    # the true type's subtype head learns; all the other heads stay at zero
    assert np.abs(model.params["heads.sub_threat_w"].grad).max() > 0
    for t in ("build", "transition", "interruption", "set_piece"):
        assert np.abs(model.params[f"heads.sub_{t}_w"].grad).max() == 0.0
        assert np.abs(model.params[f"heads.sub_{t}_b"].grad).max() == 0.0
    # the shared trunk learns through the pooled vector
    assert np.abs(model.params["pool.w1"].grad).max() > 0
    assert np.abs(model.params["embed.proj_w"].grad).max() > 0


def test_batch_loss_matches_scalar_definition():
    model = EventModel(CFG, Rng(9))
    segs = [make_segment(5, rng=Rng(10 + i)) for i in range(3)]
    labels = [("build", "build"), ("threat", "goal"),
              ("set_piece", "corner")]
    grids = [event_grid(s, CFG.l_max) for s in segs]
    type_logits, sub_logits = model.logits(grids)
    batch_loss = float(hierarchical_loss_batch(
        type_logits, sub_logits, labels, lam=1.0).data)
    manual = 0.0
    for b, lab in enumerate(labels):
        pred = classify(type_logits.data[b],
                        {t: v.data[b] for t, v in sub_logits.items()})
        manual += hierarchical_loss(pred, lab, lam=1.0)
    assert batch_loss == pytest.approx(manual / 3, rel=1e-10)


# ---------------------------------------------------------------------------
# grounding
# ---------------------------------------------------------------------------

def test_ground_event_deterministic():
    model = EventModel(ModelConfig(d=16, layers=1, heads=4, n_players=3,
                                   l_max=16), Rng(11))
    clip = event_class_clips(1, seed=12, duration_s=0.5)[0]
    a = ground_event(clip, model)
    b = ground_event(clip, model)
    assert a.combined.tobytes() == b.combined.tobytes()
    assert a.predicted_subtype == b.predicted_subtype


def test_ground_event_rejects_empty_clip():
    from gentac.data import TrajectoryClip
    model = EventModel(CFG, Rng(13))
    with pytest.raises(ValueError, match="empty"):
        ground_event(TrajectoryClip([], 25.0, 2), model)


# ---------------------------------------------------------------------------
# forecast summaries
# ---------------------------------------------------------------------------

def test_sorted_quantile_matches_numpy_linear():
    rng = Rng(14)
    for trial in range(30):
        v = rng.child("v", trial).normal((int(rng.child("n", trial).integers(1, 40)),))
        for q in (0.1, 0.5, 0.9):
            assert _sorted_quantile(v, q) == pytest.approx(
                float(np.quantile(v, q, method="linear")), abs=1e-12)


def test_summary_collapses_for_single_sample():
    probs = np.full((1, 15), 1 / 15)
    s = summarize_predictions(probs, [("build", "build")])
    np.testing.assert_array_equal(s.median, probs[0])
    np.testing.assert_array_equal(s.p10, probs[0])
    np.testing.assert_array_equal(s.p90, probs[0])
    np.testing.assert_array_equal(s.minimum, probs[0])
    np.testing.assert_array_equal(s.maximum, probs[0])


def test_summary_zero_variance_for_constant_classifier():
    probs = np.tile(np.linspace(0.01, 0.12, 15), (6, 1))
    s = summarize_predictions(probs, [("build", "build")] * 6)
    np.testing.assert_allclose(s.maximum - s.minimum, 0.0, atol=1e-15)
    np.testing.assert_allclose(s.p90 - s.p10, 0.0, atol=1e-15)


def test_summary_quantiles_match_sort_oracle():
    rng = Rng(15)
    raw = np.abs(rng.normal((20, 15)))
    probs = raw / raw.sum(axis=1, keepdims=True)
    s = summarize_predictions(probs, [("build", "build")] * 20)
    for j in range(15):
        col = np.sort(probs[:, j])

        def oracle(q):
            pos = q * (len(col) - 1)
            lo = int(math.floor(pos))
            hi = min(lo + 1, len(col) - 1)
            return col[lo] + (pos - lo) * (col[hi] - col[lo])

        assert s.median[j] == oracle(0.5)
        assert s.p10[j] == oracle(0.1)
        assert s.p90[j] == oracle(0.9)
        assert s.minimum[j] == col[0]
        assert s.maximum[j] == col[-1]


def test_forecast_event_end_to_end_shapes():
    cfg = ModelConfig(d=8, layers=1, heads=2, n_players=2, l_max=32)
    traj = TrajectoryModel(cfg, Rng(16))
    events = EventModel(cfg, Rng(17))
    schedule = make_schedule(5)
    hist = make_segment(10, rng=Rng(18))
    config = RolloutConfig(window=0.2, history=0.4, horizon=0.4, samples=3,
                           fps=25.0)
    summary = forecast_event(hist, config, traj, schedule, events,
                             Rng(19, ("fe",)), event_input_frames=8)
    assert summary.per_sample.shape == (3, 15)
    np.testing.assert_allclose(summary.per_sample.sum(axis=1), 1.0, atol=1e-9)
    assert len(summary.routed) == 3


@pytest.mark.parametrize("frames", [0, -3])
def test_forecast_event_rejects_fewer_than_one_input_frame(frames):
    # 0 used to classify the whole future and -3 to drop its first 3 frames
    cfg = ModelConfig(d=8, layers=1, heads=2, n_players=2, l_max=32)
    config = RolloutConfig(window=0.2, history=0.4, horizon=0.4, samples=1,
                           fps=25.0)
    with pytest.raises(ValueError, match="event_input_frames must be at least 1"):
        forecast_event(make_segment(10, rng=Rng(18)), config,
                       TrajectoryModel(cfg, Rng(16)), make_schedule(2),
                       EventModel(cfg, Rng(17)), Rng(19, ("fe",)),
                       event_input_frames=frames)


def test_logits_are_bit_identical_under_no_grad():
    model = EventModel(CFG, Rng(40))
    grids = [event_grid(make_segment(n, rng=Rng(41 + n)), CFG.l_max)
             for n in (5, 9)]
    grids[1].visibility[3:, 1] = False
    type_taped, sub_taped = model.logits(grids)
    with ad.no_grad():
        type_free, sub_free = model.logits(grids)
    assert type_free.parents == ()
    assert type_taped.data.tobytes() == type_free.data.tobytes()
    for t in TAXONOMY.types:
        assert sub_taped[t].data.tobytes() == sub_free[t].data.tobytes()


def test_classify_probabilities_are_the_textbook_softmax_bitwise():
    rng = np.random.default_rng(42)
    type_logits = rng.normal(size=5) * 4.0
    sub_logits = {t: rng.normal(size=len(TAXONOMY.subtypes[t])) * 4.0
                  for t in TAXONOMY.types}

    def reference(x):
        e = np.exp(x - x.max(axis=-1, keepdims=True))
        return e / e.sum(axis=-1, keepdims=True)

    pred = classify(type_logits, sub_logits)
    assert pred.type_probs.tobytes() == reference(type_logits).tobytes()
    for t in TAXONOMY.types:
        assert pred.subtype_probs[t].tobytes() == reference(sub_logits[t]).tobytes()
