"""Diffusion: schedule construction, forward marginals, the training
objective, reverse sampling, and the causal rollout contract."""

import math

import numpy as np
import pytest

from gentac import autodiff as ad
from gentac.backbone import ANCHOR_SCALE, ModelConfig, TrajectoryModel
from gentac.data import Segment
from gentac.diffusion import (DRAWS_PER_WINDOW, DiffusionSchedule,
                              RolloutConfig, condition_tagging,
                              diffusion_loss, denoise_step, forward_noise,
                              make_schedule, rollout, sample_windows_batch)
from gentac.fixtures import constant_velocity_clips, event_class_clips
from gentac.rng import Rng
from helpers import (OwnHistoryPerRow, league_clips, oracle_sampler_mse,
                     reference_sample_windows_batch)

# value computed by an independent pure-python running-product loop over the
# linearly spaced betas (1e-4 .. 0.02, 100 steps)
ALPHA_BAR_100 = 0.3635632480554922


def make_segment(frames, n_players=2, rng=None, fps=25.0):
    E = 2 * n_players + 1
    coords = rng.normal((frames, E, 2)) * 0.3 if rng else np.zeros((frames, E, 2))
    return Segment(coords, np.ones((frames, E), dtype=bool), fps, n_players,
                   tuple(f"A{i}" for i in range(n_players)),
                   tuple(f"B{i}" for i in range(n_players)), normalized=True)


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------

def test_schedule_single_step():
    s = make_schedule(1, 0.01, 0.01)
    np.testing.assert_allclose(s.alpha_bars, [0.99])


def test_schedule_constant_beta_is_geometric():
    s = make_schedule(7, 0.03, 0.03)
    np.testing.assert_allclose(s.alpha_bars,
                               [(1 - 0.03) ** k for k in range(1, 8)],
                               rtol=1e-14)


def test_schedule_matches_running_product_oracle():
    s = make_schedule(100, 1e-4, 0.02)
    assert abs(s.alpha_bar(100) - ALPHA_BAR_100) < 1e-15
    assert s.beta(1) == 1e-4 and s.beta(100) == 0.02


def test_schedule_is_strictly_decreasing_in_bounds():
    s = make_schedule(100)
    assert (np.diff(s.alpha_bars) < 0).all()
    assert ((s.betas > 0) & (s.betas < 1)).all()


@pytest.mark.parametrize("args", [(0, 0.1, 0.2), (10, 0.0, 0.1),
                                  (10, 0.2, 0.1), (10, 0.5, 1.0)])
def test_schedule_rejects_bad_bounds(args):
    with pytest.raises(ValueError):
        make_schedule(*args)


# ---------------------------------------------------------------------------
# forward noising
# ---------------------------------------------------------------------------

def test_forward_noise_decomposition():
    schedule = make_schedule(100)
    x = Rng(0).uniform(-1, 1, (5, 3, 2))
    for s in (1, 50, 100):
        x_s, eps = forward_noise(x, s, schedule, Rng(1, ("fwd", s)))
        ab = schedule.alpha_bar(s)
        # removing the drawn noise leaves exactly sqrt(alpha_bar) * x
        np.testing.assert_allclose(x_s - math.sqrt(1 - ab) * eps,
                                   math.sqrt(ab) * x, atol=1e-12)


def test_forward_noise_of_zero_signal():
    schedule = make_schedule(100)
    x_s, eps = forward_noise(np.zeros((4, 2)), 60, schedule, Rng(2))
    ab = schedule.alpha_bar(60)
    np.testing.assert_allclose(x_s, math.sqrt(1 - ab) * eps, atol=1e-15)


def test_forward_noise_rejects_out_of_range_step():
    schedule = make_schedule(10)
    for s in (0, 11):
        with pytest.raises(ValueError):
            forward_noise(np.zeros(3), s, schedule, Rng(0))


def test_forward_noise_marginal_statistics():
    schedule = make_schedule(100)
    x0 = 0.41
    n = 10_000
    s = 37
    draws, _ = forward_noise(np.full(n, x0), s, schedule, Rng(5, ("mc",)))
    ab = schedule.alpha_bar(s)
    mean_se = math.sqrt(1 - ab) / math.sqrt(n)
    assert abs(draws.mean() - math.sqrt(ab) * x0) < 3 * mean_se
    assert abs(draws.var() - (1 - ab)) < 0.05 * (1 - ab)


# ---------------------------------------------------------------------------
# training loss
# ---------------------------------------------------------------------------

class _StubModel:
    """Test double standing in for the denoiser: emits a fixed value."""

    def __init__(self, value=0.0):
        self.value = value
        self.calls = 0

    def predict_noise(self, batch, step):
        self.calls += len(batch.coords)
        return ad.Tensor(np.full(batch.coords.shape, self.value))


def _loss_batch(rng_seed=0, n_items=6, H=6, w=3):
    rng = Rng(rng_seed, ("batch",))
    return [(make_segment(H, rng=rng.child("h", i)),
             make_segment(w, rng=rng.child("f", i)), None)
            for i in range(n_items)]


class InvertingOracle:
    """Recovers the clean target exactly: it knows the clean futures and
    maps them into the scaled displacement from the anchor of each batch
    item it is handed, ANCHOR_SCALE * (clean - anchor)."""

    def __init__(self, batch):
        self.futures = {h.coords.tobytes(): f.coords for h, f, _ in batch}
        self.calls = 0

    def predict_noise(self, batch, step):
        self.calls += len(batch.coords)
        (H,) = batch.history_lens
        out = np.zeros(batch.coords.shape)
        for b, (coords, target, anchor) in enumerate(
                zip(batch.coords, batch.noise_target, batch.anchor)):
            clean = self.futures[coords[:H].tobytes()]
            x0 = ANCHOR_SCALE * (clean - anchor)
            out[b, H:][target[H:]] = x0[target[H:]]
        return ad.Tensor(out)


def _clean_second_moment(batch):
    """Mean squared clean target of fully visible joint windows: every
    coordinate is a target, anchored at the history's last frame."""
    return float(np.mean([(ANCHOR_SCALE * (f.coords - h.coords[-1])) ** 2
                          for h, f, _ in batch]))


def test_loss_zero_for_oracle_network():
    schedule = make_schedule(100)
    batch = _loss_batch()
    oracle = InvertingOracle(batch)
    loss = diffusion_loss(oracle, batch, schedule, Rng(9, ("loss",)))
    assert float(loss.data) < 1e-24


def test_loss_of_zero_network_is_noise_second_moment():
    # the zero network predicts "stay at the anchor", so it scores the
    # second moment of the clean scaled displacement, whatever the noise
    schedule = make_schedule(100)
    batch = _loss_batch(n_items=10, H=6, w=5)
    loss = diffusion_loss(_StubModel(0.0), batch, schedule, Rng(4, ("l",)))
    assert float(loss.data) == pytest.approx(_clean_second_moment(batch),
                                             rel=1e-12)


def test_loss_excludes_conditioning_coordinates():
    # a network wrong ONLY outside the target mask scores the same as the
    # zero network, because masked positions never enter the objective
    schedule = make_schedule(100)
    batch = _loss_batch(n_items=4)
    l_zero = diffusion_loss(_StubModel(0.0), batch, schedule, Rng(8, ("m",)))

    class HistoryGarbage(_StubModel):
        def predict_noise(self, batch, step):
            self.calls += len(batch.coords)
            out = np.zeros(batch.coords.shape)
            out[~batch.noise_target] = 1e3
            return ad.Tensor(out)

    l_garbage = diffusion_loss(HistoryGarbage(), batch, schedule, Rng(8, ("m",)))
    assert float(l_zero.data) == pytest.approx(float(l_garbage.data), abs=1e-12)


def test_loss_checks_for_targets_before_the_network_runs():
    # it used to run the whole forward first: the stub counted its calls
    batch = _loss_batch(n_items=2)
    for history, future, _ in batch:
        history.visibility[:] = False
        future.visibility[:] = False
    stub = _StubModel(0.0)
    with pytest.raises(ValueError, match="no noise-target coordinates"):
        diffusion_loss(stub, batch, make_schedule(10), Rng(2, ("empty",)))
    assert stub.calls == 0


def test_draws_share_one_history_encoding_at_per_row_precision():
    # the reference runs the same draws with every row encoding its own copy
    # of the history; only the order of floating-point sums differs
    cfg = ModelConfig(d=8, layers=2, heads=2, n_players=2, l_max=16)
    model = TrajectoryModel(cfg, Rng(5))
    for name, p in model.params.items():   # a zero head passes no gradient
        p.data = p.data + 0.3 * Rng(6, ("perturb", name)).normal(p.data.shape)
    batch = _loss_batch(rng_seed=3, n_items=3, H=6, w=3)
    batch[1][0].visibility[:2, 1] = False    # a hidden history key
    schedule = make_schedule(50)

    def loss_and_grads(net):
        for p in model.params.values():
            p.zero_grad()
        loss = diffusion_loss(net, batch, schedule, Rng(7, ("shared",)))
        ad.backward(loss)
        return float(loss.data), {n: p.grad.copy() for n, p in model.params.items()}

    calls = model.calls
    shared, grads = loss_and_grads(model)
    assert model.calls - calls == DRAWS_PER_WINDOW * len(batch)
    ref, ref_grads = loss_and_grads(OwnHistoryPerRow(model))
    assert abs(shared - ref) <= 1e-13 * abs(ref)
    for name, g in ref_grads.items():
        assert np.abs(grads[name] - g).max() <= 1e-13 * np.abs(g).max(), name
    assert all(np.abs(g).max() > 0 for g in ref_grads.values())


def test_untrained_model_loss_near_one_and_decreases():
    cfg = ModelConfig(d=8, layers=1, heads=2, n_players=2, l_max=16)
    model = TrajectoryModel(cfg, Rng(3))
    schedule = make_schedule(100)
    clips = _loss_batch(rng_seed=2, n_items=32, H=8, w=4)

    first = diffusion_loss(model, clips[:8], schedule, Rng(0, ("t", 0)))
    # the zero-init head outputs exactly 0 -> the clean target's second moment
    moment = _clean_second_moment(clips[:8])
    assert float(first.data) == pytest.approx(moment, rel=1e-12)

    from gentac.training import AdamState, TrainConfig, optimizer_step
    config = TrainConfig(task="forecast", lr_peak=3e-3, d=8, layers=1,
                         heads=2, n_players=2, l_max=16, warmup_ratio=0.05)
    state = AdamState()
    losses = []
    for step in range(200):
        batch = [clips[i] for i in Rng(1, ("pick", step)).integers(0, 32, (8,))]
        for p in model.params.values():
            p.zero_grad()
        loss = diffusion_loss(model, batch, schedule, Rng(0, ("t", step)))
        ad.backward(loss)
        optimizer_step(list(model.params.values()), config, state, 3e-3)
        losses.append(float(loss.data))
    smoothed = np.convolve(losses, np.ones(25) / 25, mode="valid")
    assert smoothed[-1] < smoothed[0]
    # monotone decrease up to SGD jitter on coarse segments
    drops = np.diff(smoothed[:: max(len(smoothed) // 6, 1)])
    assert (drops <= 0.05 * moment).all(), f"smoothed curve rebounded: {drops}"


# ---------------------------------------------------------------------------
# reverse updates
# ---------------------------------------------------------------------------

def test_denoise_final_step_is_deterministic():
    schedule = make_schedule(100)
    x = np.array([0.3, -0.8])
    eps_hat = np.array([0.1, 0.2])
    a = denoise_step(x, eps_hat, 1, schedule, Rng(0, ("a",)))
    b = denoise_step(x, eps_hat, 1, schedule, Rng(999, ("b",)))
    np.testing.assert_array_equal(a, b)


def test_denoise_zero_inputs_pure_rescale():
    schedule = make_schedule(100)
    x = np.array([0.5, -0.25])
    out = denoise_step(x, np.zeros(2), 1, schedule, Rng(0))
    np.testing.assert_allclose(out, x / math.sqrt(1 - schedule.beta(1)),
                               rtol=1e-15)


def test_denoise_matches_update_formula_with_frozen_noise():
    schedule = make_schedule(50)
    s = 20
    x = np.array([0.4])
    eps_hat = np.array([-0.3])
    z = Rng(7, ("z",)).child("noise", s).normal((1,))
    out = denoise_step(x, eps_hat, s, schedule, Rng(7, ("z", "noise", s)))
    beta, ab = schedule.beta(s), schedule.alpha_bar(s)
    expected = (x - beta / math.sqrt(1 - ab) * eps_hat) / math.sqrt(1 - beta) \
        + math.sqrt(beta) * z
    np.testing.assert_allclose(out, expected, rtol=1e-14)


def test_oracle_sampler_reconstruction_improves_with_steps():
    vals = {S: oracle_sampler_mse(S, n_chains=4000) for S in (10, 100, 1000)}
    assert vals[100] < vals[10]
    assert vals[1000] < vals[100]
    assert vals[1000] < 0.1 * vals[10]


# ---------------------------------------------------------------------------
# window sampling and rollout
# ---------------------------------------------------------------------------

CFG = ModelConfig(d=8, layers=1, heads=2, n_players=2, l_max=64)


def test_sample_window_runs_S_network_calls_and_freezes_conditioning():
    model = TrajectoryModel(CFG, Rng(0))
    schedule = make_schedule(25)
    hist = make_segment(6, rng=Rng(1))
    before = hist.coords.copy()
    (out,), _ = sample_windows_batch([hist], [np.zeros((3, 5, 2))], model,
                                     schedule, [Rng(2, ("w",))])
    assert model.calls == 25
    assert out.coords.shape == (3, 5, 2)
    assert np.isfinite(out.coords).all()
    assert hist.coords.tobytes() == before.tobytes()


def test_sample_window_single_team_keeps_opponent_truth_bitwise():
    model = TrajectoryModel(CFG, Rng(0))
    schedule = make_schedule(10)
    hist = make_segment(6, rng=Rng(3))
    fut = make_segment(3, rng=Rng(4))
    (out,), _ = sample_windows_batch([hist], [fut], model, schedule,
                                     [Rng(5, ("w",))], target_side=0)
    # opponent players and ball are conditioning: bit-identical to the truth
    assert out.coords[:, 2:].tobytes() == fut.coords[:, 2:].tobytes()
    assert not np.array_equal(out.coords[:, :2], fut.coords[:, :2])


def _live_model(seed):
    model = TrajectoryModel(CFG, Rng(seed))
    model.params["head.w"].data = 4.0 * Rng(seed, ("head",)).normal((CFG.d, 2))
    return model


def _window_inputs(w, target_side, seed, shared=False):
    """K = 3 six-frame histories, their window futures and chain streams;
    `shared`: one history for all three, as in a rollout's first window."""
    if shared:
        histories = [make_segment(6, rng=Rng(seed, "h"))] * 3
    else:
        histories = [make_segment(6, rng=Rng(seed, ("h", k))) for k in range(3)]
    if target_side is None:
        futures = [np.zeros((w, 5, 2))] * 3
    else:
        futures = [make_segment(w, rng=Rng(seed, ("f", k))) for k in range(3)]
    return histories, futures, [Rng(seed, ("chain", k)) for k in range(3)]


def _same(run, other):
    """Whether two (futures, clamped count) results are equal bit for bit."""
    return run[1] == other[1] and all(
        a.coords.tobytes() == b.coords.tobytes()
        and a.visibility.tobytes() == b.visibility.tobytes()
        for a, b in zip(run[0], other[0]))


@pytest.mark.parametrize("w, target_side, shared", [
    pytest.param(w, side, shared, id=f"{w}-{side}" + "-shared" * shared)
    for shared in (False, True) for w in (1, 5) for side in (None, 0)])
def test_window_batch_equals_the_fresh_grid_step_loop(w, target_side, shared):
    model = _live_model(50)
    schedule = make_schedule(6)
    runs = [_window_inputs(w, target_side, seed, shared) for seed in (51, 52)]
    histories, _, _ = runs[1]
    histories[1].visibility[2, 3] = False       # one hidden key: masks apply
    # two calls in a row: the second must not reuse anything of the first
    got = [sample_windows_batch(h, f, model, schedule, r, target_side)
           for h, f, r in runs]
    for (h, f, r), out in zip(runs, got):
        expected = reference_sample_windows_batch(h, f, _live_model(50),
                                                  schedule, r, target_side)
        assert expected[1] > 0                  # the clip fires
        assert _same(out, expected)


def test_a_parameter_changed_between_calls_reaches_the_next_call():
    schedule = make_schedule(4)
    h, f, r = _window_inputs(3, None, 53)
    model = _live_model(54)
    before = sample_windows_batch(h, f, model, schedule, r)
    model.params["embed.temporal"].data[:6] += 0.25   # the history frames
    after = sample_windows_batch(h, f, model, schedule, r)
    fresh = _live_model(54)
    fresh.params["embed.temporal"].data[:6] += 0.25
    assert _same(after, sample_windows_batch(h, f, fresh, schedule, r))
    assert _same(after, reference_sample_windows_batch(h, f, fresh, schedule, r))
    assert not _same(after, before)


def test_a_window_needs_one_history_future_and_stream_per_chain():
    # a short list used to cut the chains silently to its length
    h, f, r = _window_inputs(2, None, 55)
    model = _live_model(56)
    for futures, rngs, counts in ((f, r[:2], "3 futures and 2"),
                                  (f[:2], r[:2], "2 futures and 2")):
        with pytest.raises(ValueError, match=f"^3 histories, {counts} rngs: "
                                             "need one of each per chain$"):
            sample_windows_batch(h, futures, model, make_schedule(2), rngs)
    assert model.calls == 0


def test_equal_histories_are_encoded_once_per_window():
    model = _live_model(57)
    rows, encode_history = [], model.backbone.encode_history

    def recording(batch):
        cache = encode_history(batch)
        rows.append([kv.shape[1] for kv in cache])
        return cache

    model.backbone.encode_history = recording
    shared = _window_inputs(2, None, 58, shared=True)
    hidden = [h.copy() for h in shared[0]]
    hidden[2].visibility[1, 0] = False      # equal coordinates, one key hidden
    for h, f, r in (shared, _window_inputs(2, None, 58), (hidden, *shared[1:])):
        sample_windows_batch(h, f, model, make_schedule(3), r)
    assert rows == [[n] * CFG.layers for n in (1, 3, 3)]


@pytest.mark.parametrize("K", [1, 3])
def test_one_denoise_step_per_reverse_step_for_any_k(monkeypatch, K):
    steps = []

    def recording(x_s, eps_hat, s, schedule, rng):
        steps.append(s)
        return denoise_step(x_s, eps_hat, s, schedule, rng)

    monkeypatch.setattr("gentac.diffusion.denoise_step", recording)
    h, f, r = _window_inputs(2, 1, 59)
    sample_windows_batch(h[:K], f[:K], _live_model(60), make_schedule(4), r[:K],
                         target_side=1)
    assert steps == [4, 3, 2, 1]


def test_window_futures_do_not_share_memory():
    h, f, r = _window_inputs(2, None, 61, shared=True)
    futures, _ = sample_windows_batch(h, f, _live_model(62), make_schedule(2), r)
    before = [fut.coords.copy() for fut in futures]
    futures[0].coords[...] = 0.0
    futures[0].visibility[...] = False
    for fut, old in zip(futures[1:], before[1:]):
        assert fut.coords.tobytes() == old.tobytes() and fut.visibility.all()
    assert not any(np.shares_memory(fut.coords, x.coords)
                   for fut in futures for x in h)


def test_rollout_window_count_and_network_evals():
    model = TrajectoryModel(CFG, Rng(0))
    schedule = make_schedule(8)
    hist = make_segment(25, rng=Rng(6))
    config = RolloutConfig(window=0.2, history=1.0, horizon=1.0, samples=3,
                           fps=25.0)
    out = rollout(hist, config, model, schedule, Rng(7, ("r",)))
    assert config.n_windows == 5
    assert out.network_evals == 3 * 5 * 8  # K * q * S
    assert all(len(s) == 25 for s in out.samples)
    assert all(s.coords.shape == (25, 5, 2) for s in out.samples)


def test_rollout_seed_determinism_and_sample_divergence():
    schedule = make_schedule(6)
    hist = make_segment(10, rng=Rng(8))
    config = RolloutConfig(window=0.2, history=0.4, horizon=0.4, samples=2,
                           fps=25.0)

    def run():
        model = TrajectoryModel(CFG, Rng(0))
        return rollout(hist, config, model, schedule, Rng(11, ("det",)))

    a, b = run(), run()
    for sa, sb in zip(a.samples, b.samples):
        assert sa.coords.tobytes() == sb.coords.tobytes()
    assert not np.array_equal(a.samples[0].coords, a.samples[1].coords)
    assert a.seeds[0] != a.seeds[1]


def test_rollout_checks_the_temporal_table_before_any_window():
    # 25 history frames and two 5-frame windows need 35 rows of a 30-row
    # table; the second window's grid used to fail after the first had run
    model = TrajectoryModel(ModelConfig(d=8, layers=1, heads=2, n_players=2,
                                        l_max=30), Rng(0))
    config = RolloutConfig(window=0.2, history=1.0, horizon=0.4, samples=2,
                           fps=25.0)
    with pytest.raises(ValueError) as err:
        rollout(make_segment(25, rng=Rng(6)), config, model, make_schedule(4),
                Rng(7, ("r",)))
    assert str(err.value) == "grid length 35 exceeds temporal table 30"
    assert model.calls == 0


def test_rollout_on_a_zero_frame_history_fails_by_name():
    config = RolloutConfig(window=0.2, history=0.0, horizon=0.2, fps=25.0)
    with pytest.raises(ValueError) as err:
        rollout(make_segment(0), config, TrajectoryModel(CFG, Rng(0)),
                make_schedule(4), Rng(8, ("r",)))
    assert str(err.value) == "a forecast grid needs at least one history frame"


def test_rollout_rejects_bad_horizon():
    # 0.44 s quantizes cleanly to 11 frames, not a multiple of the 5-frame window
    with pytest.raises(ValueError, match="multiple"):
        RolloutConfig(window=0.2, history=1.0, horizon=0.44,
                      fps=25.0).validate()


@pytest.mark.parametrize("horizon", [0.0, -0.4])
def test_rollout_rejects_a_horizon_shorter_than_one_window(horizon):
    # 0 s would sample no window at all and -0.4 s "minus two windows";
    # both used to validate and produce empty futures
    config = RolloutConfig(window=0.2, history=0.4, horizon=horizon, fps=25.0)
    with pytest.raises(ValueError, match="shorter than the 5-frame window"):
        config.validate()


def test_rollout_frame_quantization_guard():
    # 0.218 s is 5.45 frames at 25 fps: 0.45 frames from the nearest integer
    with pytest.raises(ValueError, match="0.4 frames"):
        RolloutConfig(window=0.218, history=1.0, horizon=0.872,
                      fps=25.0).validate()


def test_rollout_single_team_needs_truth():
    model = TrajectoryModel(CFG, Rng(0))
    schedule = make_schedule(4)
    hist = make_segment(10, rng=Rng(9))
    config = RolloutConfig(window=0.2, history=0.4, horizon=0.4, samples=1,
                           setting="opponent", target_side=1, fps=25.0)
    with pytest.raises(ValueError, match="future"):
        rollout(hist, config, model, schedule, Rng(0))


@pytest.mark.parametrize("setting", ["unconditioned", "league", "objective"])
def test_joint_settings_take_no_target_side(setting):
    # sample --target-side 1 under the joint setting used to exit 0 and
    # write joint futures while its manifest recorded the side
    config = RolloutConfig(window=0.2, history=0.4, horizon=0.4,
                           setting=setting, target_side=1, fps=25.0)
    with pytest.raises(ValueError) as err:
        config.validate()
    assert str(err.value) == (f"setting '{setting}' predicts both sides and "
                              f"takes no target_side")


def test_rollout_opponent_conditioning_passes_truth_through():
    model = TrajectoryModel(CFG, Rng(0))
    schedule = make_schedule(4)
    hist = make_segment(10, rng=Rng(10))
    truth = make_segment(10, rng=Rng(11))
    config = RolloutConfig(window=0.2, history=0.4, horizon=0.4, samples=2,
                           setting="opponent", target_side=0, fps=25.0)
    out = rollout(hist, config, model, schedule, Rng(13, ("oc",)),
                  truth_future=truth)
    for s in out.samples:
        assert s.coords[:, 2:].tobytes() == truth.coords[:10, 2:].tobytes()


# ---------------------------------------------------------------------------
# conditioning subsets
# ---------------------------------------------------------------------------

def test_condition_tagging_league_filter():
    a = league_clips(constant_velocity_clips(4, seed=0), "alpha")
    b = league_clips(constant_velocity_clips(4, seed=1), "beta")
    subset = condition_tagging(a + b, "league", "alpha")
    assert len(subset) == 4
    assert all(c.metadata["league"] == "alpha" for c in subset)


def test_condition_tagging_objective_offense():
    clips = event_class_clips(9, seed=2)
    offense = condition_tagging(clips, "objective", "offense")
    assert offense and all(c.metadata["event_subtype"] == "goal"
                           for c in offense)


def test_condition_tagging_unknown_team_errors():
    clips = constant_velocity_clips(3, seed=3)
    with pytest.raises(ValueError, match="no clips match"):
        condition_tagging(clips, "team", "nonexistent")


def test_rollout_reports_how_often_the_clamp_fires():
    # the untrained head predicts zero displacement, "stay at the anchor",
    # which the clip never moves; a head bias of 3 normalized units of
    # displacement puts every implied position off the [-1, 1] pitch square
    schedule = make_schedule(8)
    hist = make_segment(10, rng=Rng(12))
    config = RolloutConfig(window=0.2, history=0.4, horizon=0.4, samples=2,
                           fps=25.0)
    off_pitch = TrajectoryModel(CFG, Rng(0))
    off_pitch.params["head.b"].data[:] = 3.0 * ANCHOR_SCALE

    clamped = rollout(hist, config, off_pitch, schedule, Rng(13, ("clamp",)))
    untrained = rollout(hist, config, TrajectoryModel(CFG, Rng(0)), schedule,
                        Rng(13, ("clamp",)))
    assert clamped.clamped_coords > 0
    assert untrained.clamped_coords == 0


def test_sampler_non_finite_network_output_names_predict_noise():
    model = TrajectoryModel(CFG, Rng(0))
    model.params["head.b"].data[:] = np.nan
    with pytest.raises(ad.NonFiniteError, match="predict_noise"):
        sample_windows_batch([make_segment(6, rng=Rng(14))],
                             [np.zeros((2, 5, 2))], model, make_schedule(3),
                             [Rng(15, ("w",))])
    # the sampler's inference context is closed again after the error
    assert ad.add(ad.Tensor([1.0]), ad.Tensor([2.0])).parents != ()
