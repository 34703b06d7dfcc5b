"""Diffusion: schedule construction, forward marginals, the training
objective, reverse sampling, and the causal rollout contract."""

import math

import numpy as np
import pytest

from gentac import autodiff as ad
from gentac.backbone import ModelConfig, TrajectoryModel
from gentac.data import Segment
from gentac.diffusion import (DiffusionSchedule, RolloutConfig,
                              condition_tagging, diffusion_loss, denoise_step,
                              forward_noise, make_schedule, rollout,
                              sample_window)
from gentac.fixtures import constant_velocity_clips, event_class_clips
from gentac.rng import Rng
from helpers import oracle_sampler_mse

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
    """Test double standing in for the denoiser: emits a fixed value, or the
    exact injected noise when that is supplied per grid."""

    def __init__(self, value=0.0, exact=None):
        self.value = value
        self.exact = exact  # list of [L x E x 2] noise arrays, grid-aligned
        self.calls = 0
        self.seen = []

    def predict_noise(self, grids, step):
        grids = grids if isinstance(grids, list) else [grids]
        self.calls += len(grids)
        self.seen.append((step, [g.coords.copy() for g in grids]))
        if self.exact is not None:
            out = np.stack([self.exact[id(g)] for g in grids])
            return ad.Tensor(out)
        shape = (len(grids),) + grids[0].coords.shape
        return ad.Tensor(np.full(shape, self.value))


def _loss_batch(rng_seed=0, n_items=6, H=6, w=3):
    rng = Rng(rng_seed, ("batch",))
    return [(make_segment(H, rng=rng.child("h", i)),
             make_segment(w, rng=rng.child("f", i)),
             "forecast_joint", None) for i in range(n_items)]


class InvertingOracle:
    """Recovers the injected noise exactly: it knows the clean futures and
    inverts the forward corruption of whatever grid it is handed."""

    def __init__(self, schedule, batch):
        self.schedule = schedule
        self.futures = {h.coords.tobytes(): f.coords for h, f, _, _ in batch}
        self.calls = 0

    def predict_noise(self, grids, step):
        grids = grids if isinstance(grids, list) else [grids]
        self.calls += len(grids)
        steps = [step] * len(grids) if np.ndim(step) == 0 else list(step)
        out = np.zeros((len(grids),) + grids[0].coords.shape)
        for b, (g, s) in enumerate(zip(grids, steps)):
            ab = self.schedule.alpha_bar(int(s))
            clean = self.futures[g.coords[: g.history_len].tobytes()]
            mask = g.noise_target[g.history_len:]
            x_s = g.coords[g.history_len:]
            eps = (x_s - math.sqrt(ab) * clean) / math.sqrt(1 - ab)
            out[b, g.history_len:][mask] = eps[mask]
        return ad.Tensor(out)


def test_loss_zero_for_oracle_network():
    schedule = make_schedule(100)
    batch = _loss_batch()
    oracle = InvertingOracle(schedule, batch)
    loss = diffusion_loss(oracle, batch, schedule, Rng(9, ("loss",)))
    assert float(loss.data) < 1e-24


def test_loss_of_zero_network_is_noise_second_moment():
    schedule = make_schedule(100)
    batch = _loss_batch(n_items=10, H=6, w=5)
    loss = diffusion_loss(_StubModel(0.0), batch, schedule, Rng(4, ("l",)))
    assert 0.8 < float(loss.data) < 1.3


def test_loss_excludes_conditioning_coordinates():
    # a network wrong ONLY outside the target mask scores the same as the
    # zero network, because masked positions never enter the objective
    schedule = make_schedule(100)
    batch = _loss_batch(n_items=4)
    l_zero = diffusion_loss(_StubModel(0.0), batch, schedule, Rng(8, ("m",)))

    class HistoryGarbage(_StubModel):
        def predict_noise(self, grids, step):
            grids = grids if isinstance(grids, list) else [grids]
            self.calls += len(grids)
            shape = (len(grids),) + grids[0].coords.shape
            out = np.zeros(shape)
            for b, g in enumerate(grids):
                out[b, ~g.noise_target] = 1e3
            return ad.Tensor(out)

    l_garbage = diffusion_loss(HistoryGarbage(), batch, schedule, Rng(8, ("m",)))
    assert float(l_zero.data) == pytest.approx(float(l_garbage.data), abs=1e-12)


def test_untrained_model_loss_near_one_and_decreases():
    cfg = ModelConfig(d=8, layers=1, heads=2, n_players=2, l_max=16)
    model = TrajectoryModel(cfg, Rng(3))
    schedule = make_schedule(100)
    clips = _loss_batch(rng_seed=2, n_items=32, H=8, w=4)

    first = diffusion_loss(model, clips[:8], schedule, Rng(0, ("t", 0)))
    assert 0.8 < float(first.data) < 1.3  # zero-init head -> E||eps||^2

    from gentac.training import AdamState, TrainConfig, optimizer_step
    config = TrainConfig(task="forecast", lr_peak=3e-3, d=8, layers=1,
                         heads=2, n_players=2, l_max=16, warmup_ratio=0.05)
    state = AdamState()
    losses = []
    for step in range(200):
        batch = [clips[i] for i in Rng(1, ("pick", step)).integers(0, 32, (8,))]
        for p in model.parameters():
            p.zero_grad()
        loss = diffusion_loss(model, batch, schedule, Rng(0, ("t", step)))
        ad.backward(loss)
        optimizer_step(model.parameters(), config, state, 3e-3)
        losses.append(float(loss.data))
    smoothed = np.convolve(losses, np.ones(25) / 25, mode="valid")
    assert smoothed[-1] < smoothed[0]
    # monotone decrease up to SGD jitter on coarse segments
    drops = np.diff(smoothed[:: max(len(smoothed) // 6, 1)])
    assert (drops <= 0.05).all(), f"smoothed curve rebounded: {drops}"


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
    out = sample_window(hist, None, model, schedule, Rng(2, ("w",)),
                        task="forecast_joint", window_frames=3)
    assert model.calls == 25
    assert out.coords.shape == (3, 5, 2)
    assert np.isfinite(out.coords).all()
    assert hist.coords.tobytes() == before.tobytes()


def test_sample_window_single_team_keeps_opponent_truth_bitwise():
    model = TrajectoryModel(CFG, Rng(0))
    schedule = make_schedule(10)
    hist = make_segment(6, rng=Rng(3))
    fut = make_segment(3, rng=Rng(4))
    out = sample_window(hist, fut, model, schedule, Rng(5, ("w",)),
                        task="forecast_single", target_side=0)
    # opponent players and ball are conditioning: bit-identical to the truth
    assert out.coords[:, 2:].tobytes() == fut.coords[:, 2:].tobytes()
    assert not np.array_equal(out.coords[:, :2], fut.coords[:, :2])


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


def test_rollout_rejects_bad_horizon():
    # 0.44 s quantizes cleanly to 11 frames, not a multiple of the 5-frame window
    with pytest.raises(ValueError, match="multiple"):
        RolloutConfig(window=0.2, history=1.0, horizon=0.44,
                      fps=25.0).validate()


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
    a = constant_velocity_clips(4, seed=0, league="alpha")
    b = constant_velocity_clips(4, seed=1, league="beta")
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
    # the untrained head predicts zero noise, so at high noise levels the
    # implied clean signal x_s / sqrt(alpha_bar) leaves the pitch square
    schedule = make_schedule(8)
    hist = make_segment(10, rng=Rng(12))
    config = RolloutConfig(window=0.2, history=0.4, horizon=0.4, samples=2,
                           fps=25.0)
    clamped = rollout(hist, config, TrajectoryModel(CFG, Rng(0)), schedule,
                      Rng(13, ("clamp",)))
    free = rollout(hist, config, TrajectoryModel(CFG, Rng(0)), schedule,
                   Rng(13, ("clamp",)), clamp_signal=False)
    assert clamped.clamped_coords > 0
    assert free.clamped_coords == 0


def test_sampler_non_finite_network_output_names_predict_noise():
    model = TrajectoryModel(CFG, Rng(0))
    model.params["head.b"].data[:] = np.nan
    with pytest.raises(ad.NonFiniteError, match="predict_noise"):
        sample_window(make_segment(6, rng=Rng(14)), None, model,
                      make_schedule(3), Rng(15, ("w",)),
                      task="forecast_joint", window_frames=2)
    # the sampler's inference context is closed again after the error
    assert ad.add(ad.Tensor([1.0]), ad.Tensor([2.0])).parents != ()
