"""Acceptance gate: every exit criterion at its stated tolerance, one
pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s`. Criteria 5, 6, 9, and 12
train small models from scratch; the whole gate takes roughly 15-25 minutes
on a commodity CPU. Everything is seeded and deterministic. Every test here
carries the `acceptance` marker, so `pytest -m "not acceptance"` skips them,
and `conftest.py` runs them after the rest of the suite. Criterion 5, which
alone takes most of the gate's time, is defined last so the others report
first.
"""

import json
import math
import pathlib
import time

import numpy as np
import pytest

from gentac import autodiff as ad
from gentac import data, metrics
from gentac.backbone import (ModelConfig, TrajectoryModel, build_token_grid,
                             save_checkpoint)
from gentac.cli import run as cli_run
from gentac.data import PitchSpec, denormalize_xy, window
from gentac.diffusion import (RolloutConfig, diffusion_loss, forward_noise,
                              make_schedule, rollout)
from gentac.events import (TAXONOMY, EventModel, classify, forecast_event,
                           ground_event, hierarchical_loss)
from gentac.fixtures import (constant_velocity_clips, event_class_clips,
                             two_style_league_clips)
from gentac.metrics import (ade, arrival_time, dominant_region, fde,
                            hull_area, structure)
from gentac.rng import Rng
from gentac.training import (TrainSplit, desk_event_config,
                             desk_forecast_config, finetune, split_clips,
                             train, _forecast_segments)
from helpers import oracle_sampler_mse

pytestmark = pytest.mark.acceptance

FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "tracking_sample.json"
PITCH = PitchSpec(105.0, 68.0)


def passed(n, text):
    print(f"\nACCEPTANCE {n:2d} PASS  {text}")


# ---------------------------------------------------------------------------
# 1. gradient fidelity
# ---------------------------------------------------------------------------

def test_criterion_01_gradient_fidelity():
    """Full model (d=8, M=2, N=3, L=12): analytic vs central differences,
    relative error < 1e-4 on every parameter coordinate, within 30 s."""
    started = time.time()
    cfg = ModelConfig(d=8, layers=2, heads=2, n_players=3, l_max=16)
    model = TrajectoryModel(cfg, Rng(7, ("gradcheck",)))
    # randomize every parameter (the noise head ships zero-initialized, which
    # would otherwise zero out upstream gradients and weaken the check)
    for j, p in enumerate(model.parameters()):
        p.data = p.data + 0.05 * Rng(91, ("jitter", j)).normal(p.data.shape)

    rng = Rng(13, ("inputs",))
    L, E = 12, cfg.n_entities
    coords = rng.child("coords").uniform(-1, 1, (L, E, 2))
    vis = np.ones((L, E), dtype=bool)
    vis[3, 2] = False
    target = np.zeros((L, E), dtype=bool)
    target[9:, :] = True
    from gentac.backbone import TokenGrid

    grid = TokenGrid(coords, vis, target, history_len=9)
    epsilon = rng.child("eps").normal((L, E, 2))
    weight = 1.0 / (2.0 * target.sum())

    def loss_value():
        eps_hat = model.predict_noise(grid, step=37)
        diff = eps_hat - ad.Tensor(epsilon[None])
        m = ad.Tensor(np.broadcast_to(target[None, :, :, None],
                                      diff.shape).astype(float).copy())
        md = ad.mul(diff, m)
        return ad.mul(ad.sum_(ad.mul(md, md)), ad.as_tensor(weight))

    for p in model.parameters():
        p.zero_grad()
    ad.backward(loss_value())

    h = 1e-5
    worst = 0.0
    worst_at = ""
    n_coords = 0
    for p in model.parameters():
        analytic = p.grad
        it = np.nditer(p.data, flags=["multi_index"])
        for _ in it:
            i = it.multi_index
            orig = p.data[i]
            p.data[i] = orig + h
            fp = float(loss_value().data)
            p.data[i] = orig - h
            fm = float(loss_value().data)
            p.data[i] = orig
            fd = (fp - fm) / (2 * h)
            m = max(abs(fd), abs(analytic[i]))
            rel = 0.0 if m < 1e-10 else abs(fd - analytic[i]) / m
            n_coords += 1
            if rel > worst:
                worst, worst_at = rel, f"{p.name}{i}"
    elapsed = time.time() - started
    assert worst < 1e-4, f"{worst_at}: rel err {worst}"
    assert elapsed < 30.0, f"gradient check took {elapsed:.1f}s"
    passed(1, f"worst rel err {worst:.2e} over {n_coords} coordinates "
              f"({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 2. diffusion marginal
# ---------------------------------------------------------------------------

def test_criterion_02_forward_marginal():
    """5 steps of the S=100 schedule: 1e4 draws match the closed-form mean
    within 3 sigma and variance within 5%, under 10 s."""
    started = time.time()
    schedule = make_schedule(100, 1e-4, 0.02)
    x0 = 0.37
    n = 10_000
    for s in (1, 25, 50, 75, 100):
        draws, _ = forward_noise(np.full(n, x0), s, schedule,
                                 Rng(5, ("marginal", s)))
        ab = schedule.alpha_bar(s)
        mean_se = math.sqrt(1.0 - ab) / math.sqrt(n)
        mean_err = abs(draws.mean() - math.sqrt(ab) * x0)
        var_err = abs(draws.var() - (1.0 - ab))
        assert mean_err < 3 * mean_se, f"s={s}: mean off by {mean_err}"
        assert var_err < 0.05 * (1.0 - ab), f"s={s}: variance off by {var_err}"
    elapsed = time.time() - started
    assert elapsed < 10.0
    passed(2, f"5 steps x 1e4 draws within 3-sigma mean / 5% variance "
              f"({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 3. conditioning immutability
# ---------------------------------------------------------------------------

def test_criterion_03_conditioning_immutability():
    """5-window single-team rollout: every non-target coordinate is
    bit-identical to its conditioning value; evals = K * q * S exactly."""
    cfg = ModelConfig(d=8, layers=1, heads=2, n_players=2, l_max=64)
    model = TrajectoryModel(cfg, Rng(3))
    S, K = 6, 3
    schedule = make_schedule(S)
    rng = Rng(17, ("immutability",))
    E = cfg.n_entities
    hist = data.Segment(rng.child("h").uniform(-0.9, 0.9, (25, E, 2)),
                        np.ones((25, E), dtype=bool), 25.0, 2,
                        ("A0", "A1"), ("B0", "B1"), normalized=True)
    truth = data.Segment(rng.child("t").uniform(-0.9, 0.9, (25, E, 2)),
                         np.ones((25, E), dtype=bool), 25.0, 2,
                         ("A0", "A1"), ("B0", "B1"), normalized=True)
    config = RolloutConfig(window=0.2, history=1.0, horizon=1.0, samples=K,
                           setting="opponent", target_side=0, fps=25.0)
    out = rollout(hist, config, model, schedule, rng.child("roll"),
                  truth_future=truth)

    assert config.n_windows == 5
    assert out.network_evals == K * 5 * S, \
        f"evals {out.network_evals} != {K * 5 * S}"
    for sample in out.samples:
        # opponent players and the ball are conditioning: bit-identical
        assert sample.coords[:, 2:].tobytes() == truth.coords[:, 2:].tobytes()
        # the shared history prefix is untouched in the chain
    assert out.history.coords.tobytes() == hist.coords.tobytes()
    passed(3, f"non-target slots bit-identical; evals = {K}*5*{S} "
              f"= {out.network_evals}")


# ---------------------------------------------------------------------------
# 4. oracle sampler convergence
# ---------------------------------------------------------------------------

def test_criterion_04_oracle_sampler_convergence():
    """Perfect noise oracle on a scalar toy: reconstruction MSE at S=1000 is
    below 10% of the MSE at S=10 (and decreases through S=100)."""
    vals = {S: oracle_sampler_mse(S, n_chains=8000) for S in (10, 100, 1000)}
    assert vals[100] < vals[10]
    assert vals[1000] < vals[100]
    assert vals[1000] < 0.1 * vals[10], f"ratio {vals[1000] / vals[10]:.3f}"
    passed(4, "MSE(S) = " + ", ".join(f"{S}: {vals[S]:.2e}" for S in vals)
              + f"; ratio {vals[1000] / vals[10]:.3f} < 0.1")


# ---------------------------------------------------------------------------
# 6. conditioning effect direction
# ---------------------------------------------------------------------------

def test_criterion_06_league_conditioning_direction(tmp_path):
    """League-fine-tuned model beats the base model on delta |stretch index|
    for its own league (direction only)."""
    from gentac.diffusion import condition_tagging

    clips = two_style_league_clips(400, seed=31, n_players=3,
                                   history_s=1.0, future_s=2.0)
    split = split_clips(clips, 0.1, seed=0)
    config = desk_forecast_config(epochs=12, seed=6, fixed_start=True,
                                  early_stop_patience=12)
    base_model, _ = train(split, config)
    ckpt = tmp_path / "base.ckpt"
    save_checkpoint(ckpt, base_model.params, base_model.config.to_dict())

    alpha_clips = condition_tagging(split.train, "league", "alpha")
    tuned_model, _ = finetune(
        str(ckpt), split_clips(alpha_clips, 0.1, seed=1),
        desk_forecast_config(epochs=8, seed=7, fixed_start=True,
                             lr_peak=2e-4, early_stop_patience=8))

    alpha_valid = [c for c in split.valid
                   if c.metadata["league"] == "alpha"][:8]
    schedule = config.schedule()
    rollout_cfg = RolloutConfig(window=0.2, history=1.0, horizon=1.0,
                                samples=4, fps=25.0)

    def mean_stretch_dev(model, tag):
        vals = []
        for i, (seg, _) in enumerate(_forecast_segments(alpha_valid, config)):
            hist, fut = window(seg, 0, 25, 25)
            sample_set = rollout(hist, rollout_cfg, model, schedule,
                                 Rng(55, ("c6", tag, i)))
            truth_m = denormalize_xy(fut.coords, PITCH)
            samples_m = [denormalize_xy(s.coords, PITCH)
                         for s in sample_set.samples]
            hist_m = denormalize_xy(hist.coords[-1], PITCH)
            report = metrics.structure_deviation(
                samples_m, truth_m, 25.0, 3, horizons=(1,),
                history_last=hist_m)
            vals.append(report[1]["stretch_index"][1])
        return float(np.mean(vals))

    base_dev = mean_stretch_dev(base_model, "base")
    tuned_dev = mean_stretch_dev(tuned_model, "tuned")
    assert tuned_dev < base_dev, \
        f"fine-tuned {tuned_dev:.3f} not below base {base_dev:.3f}"
    passed(6, f"delta|SI| on own league: base {base_dev:.3f} -> "
              f"fine-tuned {tuned_dev:.3f}")


# ---------------------------------------------------------------------------
# 7. metric oracles
# ---------------------------------------------------------------------------

def test_criterion_07_metric_oracles():
    """Hull area within 1% of Monte-Carlo rejection on 50 sets; Frobenius,
    ADE, FDE within 1e-12 of loop oracles; static dominant region matches a
    brute-force Voronoi scan within one boundary cell row; the symmetric
    two-player case gives 3570 m^2 within one cell row."""
    from test_metrics import mc_hull_area

    rng = Rng(7)
    for trial in range(50):
        n = int(rng.child("n", trial).integers(3, 40))
        pts = rng.child("p", trial).normal((n, 2)) * 10
        exact = hull_area(pts)
        approx = mc_hull_area(pts, n_shots=120_000, seed=trial)
        if exact > 1e-9:
            assert abs(exact - approx) / exact < 0.01, f"hull set {trial}"

    pred = rng.child("pred").normal((12, 5, 2)) * 10
    truth = rng.child("truth").normal((12, 5, 2)) * 10
    loop_ade = np.mean([np.mean([math.hypot(*(pred[t, e] - truth[t, e]))
                                 for t in range(12)]) for e in range(5)])
    loop_fde = np.mean([math.hypot(*(pred[-1, e] - truth[-1, e]))
                        for e in range(5)])
    assert abs(ade(pred, truth) - loop_ade) < 1e-12
    assert abs(fde(pred, truth) - loop_fde) < 1e-12

    pts = rng.child("frob").normal((8, 2)) * 7
    loop_frob = math.sqrt(sum(
        (pts[i, 0] - pts[j, 0]) ** 2 + (pts[i, 1] - pts[j, 1]) ** 2
        for i in range(8) for j in range(8)))
    assert abs(structure(pts).frobenius_norm - loop_frob) < 1e-12

    # static dominant region vs brute-force nearest-neighbor Voronoi scan
    defenders = np.array([[-20.0, 5.0], [-5.0, -10.0], [10.0, 12.0]])
    attackers = np.array([[15.0, -5.0], [-30.0, -20.0], [40.0, 8.0]])
    area = dominant_region(defenders, attackers, pitch=PITCH, grid_res=1.0)
    xs = -PITCH.length / 2 + (np.arange(105) + 0.5)
    ys = -PITCH.width / 2 + (np.arange(68) + 0.5)
    count = 0
    for y in ys:
        for x in xs:
            dd = min(math.hypot(x - p[0], y - p[1]) for p in defenders)
            da = min(math.hypot(x - p[0], y - p[1]) for p in attackers)
            count += dd < da - 1e-9
    assert abs(area - count) <= 68.0

    sym = dominant_region(np.array([[-10.0, 0.25]]), np.array([[10.0, 0.25]]),
                          pitch=PITCH, grid_res=1.0)
    assert abs(sym - 3570.0) <= 68.0
    passed(7, f"hull MC within 1%; loop oracles within 1e-12; Voronoi "
              f"|{area:.0f} - {count}| <= 68; symmetric case {sym:.0f} m^2")


# ---------------------------------------------------------------------------
# 8. structure invariants
# ---------------------------------------------------------------------------

def test_criterion_08_structure_invariants():
    """Translation invariance of shape metrics at 1e-12; Kuramoto 1 for
    parallel and 0 for opposed motion; all outputs in documented ranges."""
    rng = Rng(8, ("c8",))
    for trial in range(20):
        pts = np.stack([rng.child("x", trial).uniform(-40, 40, (11,)),
                        rng.child("y", trial).uniform(-30, 30, (11,))], axis=1)
        shift = rng.child("s", trial).uniform(-10, 10, (2,))
        a, b = structure(pts), structure(pts + shift)
        assert abs(a.stretch_index - b.stretch_index) <= 1e-12
        assert abs(a.team_width - b.team_width) <= 1e-12
        assert abs(a.team_length - b.team_length) <= 1e-12
        assert abs(a.frobenius_norm - b.frobenius_norm) <= 1e-10
        assert abs(a.surface_area - b.surface_area) <= 1e-9
        prev = pts - rng.child("v", trial).normal((11, 2)) * 0.2
        s = structure(pts, prev_positions=prev, fps=25.0)
        assert 0.0 <= s.stretch_index <= 62.5
        assert 0.0 <= s.surface_area <= 7140.0
        assert 0.0 <= s.team_width <= 68.0
        assert 0.0 <= s.team_length <= 105.0
        assert 0.0 <= s.kuramoto_order <= 1.0

    parallel = structure(rng.child("pp").normal((6, 2)),
                         velocities=np.tile([[3.0, -1.0]], (6, 1)))
    assert abs(parallel.kuramoto_order - 1.0) <= 1e-12
    opposed = structure(rng.child("op").normal((4, 2)),
                        velocities=np.array([[2.0, 0.0], [2.0, 0.0],
                                             [-2.0, 0.0], [-2.0, 0.0]]))
    assert abs(opposed.kuramoto_order) <= 1e-12
    passed(8, "translation invariance at 1e-12; Kuramoto 1/0 for "
              "parallel/opposed; ranges hold")


# ---------------------------------------------------------------------------
# 9. event head
# ---------------------------------------------------------------------------

def test_criterion_09_event_head():
    """500-clip separable fixture reaches top-1 >= 95% within 5 minutes;
    uniform-logit combined distribution matches the 1/5-1/10-1/25 pattern
    exactly; uniform type head scores ln 5 within 1e-10."""
    clips = event_class_clips(500, seed=5, duration_s=1.0)
    split = split_clips(clips, 0.2, seed=0)
    config = desk_event_config(l_max=25, epochs=25, seed=3,
                               early_stop_patience=25)
    started = time.time()
    model, result = train(split, config)
    train_time = time.time() - started
    assert train_time <= 300.0, f"event training took {train_time:.0f}s"

    hits = 0
    for clip in split.valid:
        pred = ground_event(clip, model)
        hits += pred.predicted_subtype == clip.metadata["event_subtype"]
    top1 = hits / len(split.valid)
    assert top1 >= 0.95, f"top-1 subtype accuracy {top1:.3f}"

    uniform = classify(np.zeros(5), {t: np.zeros(len(TAXONOMY.subtypes[t]))
                                     for t in TAXONOMY.types})
    assert uniform.combined[TAXONOMY.combined_index("build")] == pytest.approx(1 / 5, abs=1e-15)
    for s in ("ball_win", "progression"):
        assert uniform.combined[TAXONOMY.combined_index(s)] == pytest.approx(1 / 10, abs=1e-15)
    for s in TAXONOMY.subtypes["threat"]:
        assert uniform.combined[TAXONOMY.combined_index(s)] == pytest.approx(1 / 25, abs=1e-15)

    loss = hierarchical_loss(uniform, ("build", "build"), lam=0.0)
    assert abs(loss - math.log(5)) <= 1e-10
    passed(9, f"top-1 {top1:.3f} in {train_time:.0f}s; uniform combined "
              f"pattern exact; type CE = ln 5 within 1e-10")


# ---------------------------------------------------------------------------
# 10. event forecasting plumbing
# ---------------------------------------------------------------------------

def test_criterion_10_event_forecast_summary():
    """forecast_event with K=20 reproduces the box-plot statistics (median,
    10-90%, min/max) of a sort-based quantile oracle exactly."""
    cfg = ModelConfig(d=8, layers=1, heads=2, n_players=2, l_max=32)
    traj = TrajectoryModel(cfg, Rng(16))
    events = EventModel(cfg, Rng(17))
    schedule = make_schedule(4)
    rng = Rng(18, ("c10",))
    E = cfg.n_entities
    hist = data.Segment(rng.child("h").uniform(-0.8, 0.8, (10, E, 2)),
                        np.ones((10, E), dtype=bool), 25.0, 2,
                        ("A0", "A1"), ("B0", "B1"), normalized=True)
    config = RolloutConfig(window=0.2, history=0.4, horizon=0.4, samples=20,
                           fps=25.0)
    summary = forecast_event(hist, config, traj, schedule, events,
                             rng.child("fe"), event_input_frames=10)
    assert summary.per_sample.shape == (20, 15)

    def oracle(col, q):
        v = np.sort(col)
        pos = q * (len(v) - 1)
        lo = int(math.floor(pos))
        hi = min(lo + 1, len(v) - 1)
        return v[lo] + (pos - lo) * (v[hi] - v[lo])

    for j in range(15):
        col = summary.per_sample[:, j]
        assert summary.median[j] == oracle(col, 0.5)
        assert summary.p10[j] == oracle(col, 0.1)
        assert summary.p90[j] == oracle(col, 0.9)
        assert summary.minimum[j] == col.min()
        assert summary.maximum[j] == col.max()
    passed(10, "K=20 summary equals the sort-based quantile oracle exactly")


# ---------------------------------------------------------------------------
# 11. format fixpoint
# ---------------------------------------------------------------------------

def test_criterion_11_format_fixpoint():
    """The sample-listing fixture byte-compares equal after canonical
    re-serialization; 1000 fuzzed clips round-trip."""
    raw = FIXTURE.read_text()
    assert data.serialize_clip(data.parse_clip(raw)) == raw
    assert FIXTURE.read_bytes() == data.serialize_clip(
        data.parse_clip(FIXTURE.read_bytes())).encode("utf-8")

    from test_data import random_clip

    rng = Rng(123, ("fuzz",))
    for i in range(1000):
        clip = random_clip(rng.child("clip", i))
        text = data.serialize_clip(clip)
        assert data.serialize_clip(data.parse_clip(text)) == text
    passed(11, "sample listing byte-identical; 1000 fuzzed round trips")


# ---------------------------------------------------------------------------
# 12. end-to-end reproducibility
# ---------------------------------------------------------------------------

def test_criterion_12_reproducibility(tmp_path):
    """Two end-to-end runs (fixtures -> train -> sample -> evaluate) with one
    seed produce byte-identical reports."""

    def pipeline(root):
        root.mkdir()
        fx = root / "fx"
        assert cli_run(["make-fixtures", "--kind", "constant-velocity",
                        "--n", "8", "--out", str(fx), "--players", "3",
                        "--duration", "2.0", "--seed", "5"]) == 0
        ckpt = root / "model.ckpt"
        assert cli_run(["train-traj", "--data", str(fx), "--out", str(ckpt),
                        "--epochs", "1", "--d", "8", "--layers", "1",
                        "--heads", "2", "--n-players", "3", "--l-max", "32",
                        "--history-frames", "10", "--window-frames", "5",
                        "--max-history-frames", "10", "--batch-size", "4",
                        "--seed", "5"]) == 0
        hist = root / "history.json"
        clip = data.load_clip(sorted(fx.glob("fixture_*.json"))[0])
        head = data.TrajectoryClip(clip.frames[:10], clip.fps,
                                   clip.players_per_team, clip.sport,
                                   dict(clip.metadata))
        data.save_clip(head, hist)
        samples = root / "samples"
        assert cli_run(["sample", "--history", str(hist), "--checkpoint",
                        str(ckpt), "--window", "0.2", "--horizon", "0.4",
                        "--k", "2", "--steps", "4", "--out", str(samples),
                        "--seed", "5"]) == 0
        truth = root / "truth"
        truth.mkdir()
        tail = data.TrajectoryClip(clip.frames[:20], clip.fps,
                                   clip.players_per_team, clip.sport,
                                   dict(clip.metadata))
        data.save_clip(tail, truth / "history.json")
        report = root / "report"
        assert cli_run(["evaluate-traj", "--pred", str(samples), "--truth",
                        str(truth), "--k", "2", "--horizons", "0.4",
                        "--out", str(report), "--seed", "5"]) == 0
        out = {}
        for p in sorted(root.rglob("*")):
            if p.is_file():
                out[str(p.relative_to(root))] = p.read_bytes()
        return out

    first = pipeline(tmp_path / "run1")
    second = pipeline(tmp_path / "run2")
    assert set(first) == set(second)
    diffs = [k for k in first if first[k] != second[k]]
    assert not diffs, f"differing outputs: {diffs}"
    passed(12, f"{len(first)} output files byte-identical across two runs")


# ---------------------------------------------------------------------------
# 5. synthetic forecasting skill (placed last: the slowest criterion)
# ---------------------------------------------------------------------------

def test_criterion_05_synthetic_forecasting_skill():
    """Desk config (d=32, M=2) trained <= 10 min on 2000 constant-velocity
    clips: avgADE(K=8) at 1 s is at most half the frozen-last-position
    baseline and within twice the analytic optimum (the jitter floor)."""
    jitter = 0.15
    clips = constant_velocity_clips(2000, seed=77, n_players=3,
                                    duration_s=3.0, jitter=jitter)
    split = split_clips(clips, 0.05, seed=0)
    config = desk_forecast_config(epochs=22, batch_size=16, seed=5,
                                  early_stop_patience=22)
    started = time.time()
    model, result = train(split, config)
    train_time = time.time() - started
    assert train_time <= 600.0, f"training took {train_time:.0f}s"

    schedule = config.schedule()
    eval_segs = _forecast_segments(split.valid[:8], config)
    rollout_cfg = RolloutConfig(window=0.2, history=1.0, horizon=1.0,
                                samples=8, fps=25.0)
    model_avg, baseline_avg = [], []
    for i, (seg, _) in enumerate(eval_segs):
        hist, fut = window(seg, 0, 25, 25)
        sample_set = rollout(hist, rollout_cfg, model, schedule,
                             Rng(123, ("c5-eval", i)))
        truth_m = denormalize_xy(fut.coords, PITCH)
        samples_m = [denormalize_xy(s.coords, PITCH)
                     for s in sample_set.samples]
        report = metrics.aggregate_over_k(samples_m, truth_m, fps=25.0,
                                          horizons=(1,))
        model_avg.append(report.avg_ade[1])
        frozen = np.repeat(denormalize_xy(hist.coords[-1:], PITCH), 25, axis=0)
        baseline_avg.append(ade(frozen, truth_m))

    avg_ade = float(np.mean(model_avg))
    baseline = float(np.mean(baseline_avg))
    # the optimum forecaster predicts the clean path; its ADE against the
    # jittered truth is E||N(0, jitter^2 I_2)|| = jitter * sqrt(pi/2),
    # cross-checked here by simulation
    mc = np.linalg.norm(jitter * Rng(1, ("opt",)).normal((200_000, 2)),
                        axis=1).mean()
    optimum = jitter * math.sqrt(math.pi / 2)
    assert abs(mc - optimum) < 0.01 * optimum
    assert avg_ade <= 0.5 * baseline, \
        f"avgADE {avg_ade:.3f} vs 0.5x baseline {0.5 * baseline:.3f}"
    assert avg_ade <= 2.0 * optimum, \
        f"avgADE {avg_ade:.3f} vs 2x optimum {2 * optimum:.3f}"
    passed(5, f"avgADE {avg_ade:.3f} m <= min(0.5x{baseline:.2f}, "
              f"2x{optimum:.3f}) after {train_time:.0f}s training")
