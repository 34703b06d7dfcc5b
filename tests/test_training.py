"""Trainer: schedules, optimizer updates, early stopping, checkpoint
selection, fine-tuning, and bitwise reproducibility."""

import math

import numpy as np
import pytest

from gentac import autodiff as ad
from gentac import data, training
from gentac.backbone import ModelConfig, load_checkpoint, save_checkpoint
from gentac.diffusion import DRAWS_PER_WINDOW, diffusion_loss
from gentac.fixtures import constant_velocity_clips, event_class_clips
from gentac.rng import Rng
from gentac.training import (AdamState, TrainConfig, TrainSplit, finetune,
                             clip_gradients, desk_event_config,
                             desk_forecast_config, load_model, lr_at,
                             optimizer_step, split_clips, train)
from helpers import league_clips


# ---------------------------------------------------------------------------
# learning-rate schedule
# ---------------------------------------------------------------------------

CFG = TrainConfig(task="forecast", lr_peak=1e-3, warmup_ratio=0.02)


def test_lr_zero_at_step_zero():
    assert lr_at(0, 1000, CFG) == 0.0


def test_lr_peak_at_warmup_end():
    warmup = int(CFG.warmup_ratio * 1000)
    assert lr_at(warmup, 1000, CFG) == pytest.approx(CFG.lr_peak)


def test_lr_zero_at_total():
    assert lr_at(1000, 1000, CFG) == pytest.approx(0.0, abs=1e-18)


def test_lr_curve_is_continuous_with_peak_max():
    total = 500
    values = [lr_at(s, total, CFG) for s in range(total + 1)]
    assert max(values) == pytest.approx(CFG.lr_peak)
    deltas = np.abs(np.diff(values))
    assert deltas.max() < CFG.lr_peak / (CFG.warmup_ratio * total) + 1e-12


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

def test_zero_gradient_zero_decay_is_noop():
    p = ad.Parameter(np.array([1.0, -2.0]), "p")
    cfg = TrainConfig(task="event", weight_decay=0.0)
    optimizer_step([p], cfg, AdamState(), lr=1e-3)
    np.testing.assert_array_equal(p.data, [1.0, -2.0])


def test_gradient_clipping_rescales_global_norm():
    a = ad.Parameter(np.zeros(2), "a")
    b = ad.Parameter(np.zeros(1), "b")
    a.grad = np.array([6.0, 0.0])
    b.grad = np.array([8.0])
    norm = clip_gradients([a, b], 1.0)  # global norm 10
    assert norm == pytest.approx(10.0)
    np.testing.assert_allclose(a.grad, [0.6, 0.0], atol=1e-15)
    np.testing.assert_allclose(b.grad, [0.8], atol=1e-15)


def test_quadratic_converges_in_500_steps():
    p = ad.Parameter(np.array([1.0]), "p")
    cfg = TrainConfig(task="event", lr_peak=0.05, grad_clip=1.0)
    state = AdamState()
    for _ in range(500):
        p.zero_grad()
        loss = ad.sum_(ad.mul(p, p))
        ad.backward(loss)
        optimizer_step([p], cfg, state, lr=0.05)
    assert abs(float(p.data[0])) < 1e-3


def test_forecast_task_applies_decoupled_decay():
    p = ad.Parameter(np.array([10.0]), "p")
    p.grad = np.zeros(1)
    cfg = TrainConfig(task="forecast", weight_decay=0.1)
    optimizer_step([p], cfg, AdamState(), lr=0.01)
    # zero gradient: only the decay term moves the weight
    assert float(p.data[0]) == pytest.approx(10.0 - 0.01 * 0.1 * 10.0)


def test_event_task_has_no_decay():
    # the desk event config runs plain Adam
    cfg = desk_event_config()
    assert cfg.weight_decay == 0.0
    p = ad.Parameter(np.array([10.0]), "p")
    p.grad = np.zeros(1)
    optimizer_step([p], cfg, AdamState(), lr=0.01)
    assert float(p.data[0]) == 10.0


def test_decoupled_decay_comes_from_the_config():
    # a config's weight_decay used to be recorded for the event task and
    # ignored; it applies to either task
    p = ad.Parameter(np.array([10.0]), "p")
    p.grad = np.zeros(1)
    cfg = TrainConfig(task="event", weight_decay=0.1)
    optimizer_step([p], cfg, AdamState(), lr=0.01)
    assert float(p.data[0]) == pytest.approx(10.0 - 0.01 * 0.1 * 10.0)


# ---------------------------------------------------------------------------
# training loops
# ---------------------------------------------------------------------------

def tiny_forecast_config(**over):
    base = dict(d=8, layers=1, heads=2, n_players=3, l_max=40, epochs=2,
                batch_size=4, history_frames=10, window_frames=5,
                max_history_frames=10, seed=3)
    base.update(over)
    return desk_forecast_config(**base)


def tiny_event_config(**over):
    base = dict(d=8, layers=1, heads=2, n_players=3, l_max=24, epochs=2,
                batch_size=4, seed=3)
    base.update(over)
    return desk_event_config(**base)


def test_max_history_frames_below_history_frames_fails_in_one_line():
    # it used to be accepted, and training then drew 25-frame histories only
    with pytest.raises(ValueError, match="^max_history_frames 10 is below "
                                         "history_frames 25$"):
        TrainConfig(task="forecast", history_frames=25, max_history_frames=10)
    for longest in (None, 25, 45):
        TrainConfig(task="forecast", history_frames=25,
                    max_history_frames=longest)


class _RecordingModel:
    """Stands in for the forecaster: records each batch it is handed."""

    def __init__(self):
        self.batches = []

    def predict_noise(self, batch, step):
        self.batches.append(batch)
        return ad.Tensor(np.zeros(batch.coords.shape))


@pytest.mark.parametrize("batch_size", range(1, 10))
def test_a_step_reads_windows_for_its_loss_terms_in_draws(batch_size):
    config = tiny_forecast_config(batch_size=batch_size)
    segments = training._forecast_segments(
        constant_velocity_clips(4, seed=2, duration_s=1.0), config)
    windows = training._forecast_batch(segments, config, Rng(1, ("step",)))
    assert len(windows) == math.ceil(batch_size / DRAWS_PER_WINDOW)
    model = _RecordingModel()
    diffusion_loss(model, windows, config.schedule(), Rng(2, ("noise",)))
    (batch,) = model.batches
    M = DRAWS_PER_WINDOW
    assert batch.draws == M and len(batch.coords) == M * len(windows)
    H = config.history_frames
    for i, (history, _, _) in enumerate(windows):
        run = batch.coords[i * M:(i + 1) * M]
        assert all(np.array_equal(row[:H], history.coords) for row in run)
        assert not np.array_equal(run[0, H:], run[1, H:])   # own noise
    # the forecaster encodes each window's history once
    forecaster = training.MODELS["forecast"](config.model_config(), Rng(3))
    cache = forecaster.backbone.encode_history(batch)
    assert [kv.shape[1] for kv in cache] == [len(windows)] * config.layers


def test_a_training_clip_walks_its_frames_for_its_rosters_once(monkeypatch):
    # narrowing a clip to the model's team size used to walk its frames for
    # the rosters and check their sizes, and densifying it did both again
    walks = []

    def recording(clip, walk=data._entity_ids):
        walks.append(clip)
        return walk(clip)

    monkeypatch.setattr(data, "_entity_ids", recording)
    config = tiny_forecast_config(n_players=4)
    (clip,) = constant_velocity_clips(1, seed=2, duration_s=0.2)
    seg = training._normalized(clip, config)
    assert len(walks) == 1 and seg.players_per_team == 4 and seg.normalized
    assert clip.players_per_team == 3                # the clip is unchanged
    with pytest.raises(ValueError, match="^team0 roster of 3 exceeds 2 "
                                         "players per team$"):
        training._normalized(clip, tiny_forecast_config(n_players=2))
    assert len(walks) == 2


def test_split_keeps_clips_whole():
    clips = constant_velocity_clips(10, seed=0, duration_s=1.0)
    split = split_clips(clips, 0.3, seed=1)
    assert len(split.valid) == 3
    assert len(split.train) == 7
    assert {id(c) for c in split.train}.isdisjoint({id(c) for c in split.valid})


def tiny_task(task, n_clips, seed, valid_fraction, **over):
    """(split, config) for a tiny run of `task` on its own fixture kind."""
    if task == "forecast":
        clips = constant_velocity_clips(n_clips, seed=seed, duration_s=1.0)
        config = tiny_forecast_config(**over)
    else:
        clips = event_class_clips(n_clips, seed=seed, duration_s=0.6)
        config = tiny_event_config(l_max=15, **over)
    return split_clips(clips, valid_fraction, seed=0), config


@pytest.mark.parametrize("task", ["forecast", "event"])
def test_train_returns_best_validation_checkpoint(task):
    split, config = tiny_task(task, 10, 1, 0.3, epochs=3)
    model, result = train(split, config)
    metrics = [row[2] for row in result.log]
    # the forecaster keeps its lowest validation loss, the event head its
    # highest accuracy
    assert result.best_metric == (min if task == "forecast" else max)(metrics)
    assert result.log[result.best_epoch][2] == result.best_metric
    for name, p in model.params.items():
        assert p.data.tobytes() == result.params[name].tobytes()


@pytest.mark.parametrize("task", ["forecast", "event"])
def test_patience_zero_stops_after_first_non_improvement(task):
    split, config = tiny_task(task, 8, 2, 0.25, epochs=30,
                              early_stop_patience=0, lr_peak=0.0)
    # zero learning rate: the selection key can never improve after epoch 0
    model, result = train(split, config)
    assert len(result.log) == 2
    assert result.best_epoch == 0


@pytest.mark.parametrize("task", ["forecast", "event"])
def test_training_is_bitwise_reproducible(task):
    split, config = tiny_task(task, 8, 4, 0.25)

    def run():
        model, result = train(split, config)
        return {k: v.tobytes() for k, v in result.params.items()}, result.log

    p1, log1 = run()
    p2, log2 = run()
    assert log1 == log2
    assert p1 == p2


def test_event_training_improves_on_separable_classes():
    clips = event_class_clips(60, seed=5, duration_s=0.6)
    split = split_clips(clips, 0.25, seed=0)
    cfg = tiny_event_config(d=16, layers=2, epochs=16, batch_size=8,
                            lr_peak=2e-3, l_max=15, early_stop_patience=16)
    model, result = train(split, cfg)
    assert result.best_metric >= 0.75, f"accuracy stuck at {result.best_metric}"


def test_event_log_reports_accuracy_metric():
    clips = event_class_clips(16, seed=6, duration_s=0.6)
    split = split_clips(clips, 0.25, seed=0)
    model, result = train(split, tiny_event_config(l_max=15))
    csv = result.log_csv()
    assert csv.splitlines()[0] == "epoch,train_loss,valid_metric,learning_rate"
    assert len(csv.splitlines()) == len(result.log) + 1
    for row in result.log:
        assert 0.0 <= row[2] <= 1.0


# ---------------------------------------------------------------------------
# fine-tuning
# ---------------------------------------------------------------------------

def test_finetune_zero_epochs_returns_base_weights(tmp_path):
    clips = constant_velocity_clips(8, seed=7, duration_s=1.0)
    split = split_clips(clips, 0.25, seed=0)
    cfg = tiny_forecast_config(epochs=1)
    model, result = train(split, cfg)
    ckpt = tmp_path / "base.ckpt"
    save_checkpoint(ckpt, model.params, model.config.to_dict())

    tuned, tuned_result = finetune(*load_model(str(ckpt), "forecast"), split,
                                   tiny_forecast_config(epochs=0))
    for name, p in model.params.items():
        assert tuned.params[name].data.tobytes() == p.data.tobytes()
    # as for `train`, a run of no epochs logs the worst forecast metric
    assert tuned_result.best_metric == math.inf
    assert tuned_result.log == [] and tuned_result.best_epoch == -1


def test_finetune_rejects_incompatible_config(tmp_path):
    clips = constant_velocity_clips(8, seed=8, duration_s=1.0)
    split = split_clips(clips, 0.25, seed=0)
    model, _ = train(split, tiny_forecast_config(epochs=1))
    ckpt = tmp_path / "base.ckpt"
    save_checkpoint(ckpt, model.params, model.config.to_dict())
    with pytest.raises(ValueError, match="incompatible"):
        finetune(*load_model(str(ckpt), "forecast"), split,
                 tiny_forecast_config(epochs=1, d=16))


def test_finetune_trains_only_on_filtered_subset(tmp_path):
    from gentac.diffusion import condition_tagging
    alpha = league_clips(constant_velocity_clips(6, seed=9, duration_s=1.0), "alpha")
    beta = league_clips(constant_velocity_clips(6, seed=10, duration_s=1.0), "beta")
    subset = condition_tagging(alpha + beta, "league", "alpha")
    assert all(c.metadata["league"] == "alpha" for c in subset)
    split = split_clips(subset, 0.3, seed=0)
    model, _ = train(split, tiny_forecast_config(epochs=1))
    ckpt = tmp_path / "base.ckpt"
    save_checkpoint(ckpt, model.params, model.config.to_dict())
    tuned, result = finetune(*load_model(str(ckpt), "forecast"), split,
                             tiny_forecast_config(epochs=1))
    assert len(result.log) == 1


def test_a_forecaster_checkpoint_records_its_attention_layout(tmp_path):
    clips = constant_velocity_clips(8, seed=11, duration_s=1.0)
    model, result = train(split_clips(clips, 0.25, seed=0),
                          tiny_forecast_config(epochs=1))
    path = tmp_path / "model.ckpt"
    training.save_model(path, model, result)
    _, extra, _ = load_checkpoint(path)
    assert extra["attention_layout"] == training.ATTENTION_LAYOUT == "history-once"
    load_model(path, "forecast")
    # the same header without the layout: a forecaster trained before it
    del extra["attention_layout"]
    old = tmp_path / "old.ckpt"
    save_checkpoint(old, model.params, model.config.to_dict(), extra=extra)
    with pytest.raises(ValueError) as err:
        load_model(old, "forecast")
    assert str(err.value) == (f"{old} records no 'attention_layout' "
                              f"'history-once'; it was written before "
                              f"history-once encoding")
    # a library checkpoint records no task and loads on its geometry alone
    library = tmp_path / "library.ckpt"
    save_checkpoint(library, model.params, model.config.to_dict())
    assert load_model(library, "forecast")[1] == model.config.to_dict()
