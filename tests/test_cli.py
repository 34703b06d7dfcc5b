"""Command-line surface: subcommand contracts, manifests, exit codes."""

import json
import pathlib

import numpy as np
import pytest

from gentac import data
from gentac.backbone import ModelConfig, TrajectoryModel, save_checkpoint
from gentac.cli import main, run
from gentac.diffusion import RolloutConfig, rollout
from gentac.fixtures import constant_velocity_clips
from gentac.rng import Rng
from gentac.training import (TrainConfig, desk_forecast_config, load_model,
                             save_model, split_clips, train)
from helpers import league_clips


def make_checkpoint(tmp_path, steps=4, drop=None):
    """A small forecaster trained one epoch on a `steps`-step desk schedule
    and saved with its sampling contract, without parameter `drop`."""
    clips = constant_velocity_clips(8, seed=1, duration_s=2.0)
    cfg = desk_forecast_config(d=8, layers=1, heads=2, n_players=3, l_max=64,
                               epochs=1, batch_size=4, history_frames=10,
                               window_frames=5, max_history_frames=10, seed=2,
                               diffusion_steps=steps)
    model, result = train(split_clips(clips, 0.25, seed=0), cfg)
    model.params.pop(drop, None)
    path = tmp_path / f"base{steps}.ckpt"
    save_model(path, model, result)
    return path


def test_unknown_subcommand_exits_2(capsys):
    assert run(["frobnicate"]) == 2


def test_missing_required_flag_exits_2():
    assert run(["sample", "--history", "x.json"]) == 2


def test_runtime_failure_exits_1_with_single_line(tmp_path, capsys):
    code = run(["resample", "--input", str(tmp_path / "absent"),
                "--out", str(tmp_path / "out"), "--fps", "25"])
    assert code == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("gentac: error:")
    assert "\n" not in err


def test_make_fixtures_writes_clips_and_manifest(tmp_path):
    out = tmp_path / "fx"
    assert run(["make-fixtures", "--kind", "constant-velocity", "--n", "4",
                "--out", str(out), "--seed", "7", "--players", "3"]) == 0
    clips = sorted(out.glob("fixture_*.json"))
    clips = [c for c in clips if not c.name.endswith(".meta.json")]
    assert len(clips) == 4
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 7
    assert manifest["command"] == "make-fixtures"
    assert len(manifest["outputs"]) >= 4
    # the fixtures parse back under the strict reader
    clip = data.load_clip(clips[0])
    assert len(clip) == 75


def test_ingest_resample_refine_chain(tmp_path):
    raw = tmp_path / "raw"
    assert run(["make-fixtures", "--kind", "constant-velocity", "--n", "2",
                "--out", str(raw), "--players", "3"]) == 0
    canon = tmp_path / "canon"
    assert run(["ingest", "--input", str(raw), "--out", str(canon)]) == 0
    res = tmp_path / "res"
    assert run(["resample", "--input", str(canon), "--out", str(res),
                "--fps", "12.5"]) == 0
    clip = data.load_clip(sorted(res.glob("fixture_*.json"))[0], fps=12.5)
    assert clip.fps == 12.5
    ref = tmp_path / "ref"
    assert run(["refine", "--input", str(res), "--out", str(ref)]) == 0
    assert (ref / "manifest.json").exists()


def test_sample_writes_k_futures_and_manifest(tmp_path):
    ckpt = make_checkpoint(tmp_path)
    hist_dir = tmp_path / "hist"
    hist_dir.mkdir()
    clip = constant_velocity_clips(1, seed=9, duration_s=0.4)[0]
    hist_path = hist_dir / "history.json"
    data.save_clip(clip, hist_path)

    out = tmp_path / "samples"
    code = run(["sample", "--history", str(hist_path), "--checkpoint",
                str(ckpt), "--horizon", "0.4", "--k", "3",
                "--out", str(out), "--seed", "11"])
    assert code == 0
    files = sorted(out.glob("history_k*.json"))
    files = [f for f in files if not f.name.endswith(".meta.json")]
    assert [f.name for f in files] == ["history_k0.json", "history_k1.json",
                                       "history_k2.json"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 11
    assert "checkpoint_hash" in manifest
    assert hist_path.name in manifest["inputs"]
    sample = data.load_clip(files[0])
    assert len(sample) == 10  # 0.4 s horizon at 25 fps


def test_sample_is_deterministic_across_runs(tmp_path):
    ckpt = make_checkpoint(tmp_path)
    clip = constant_velocity_clips(1, seed=10, duration_s=0.4)[0]
    hist_path = tmp_path / "history.json"
    data.save_clip(clip, hist_path)

    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run(["sample", "--history", str(hist_path), "--checkpoint",
                    str(ckpt), "--horizon", "0.2", "--k", "2",
                    "--out", str(out), "--seed", "3"]) == 0
        outs.append(out)
    for k in range(2):
        a = (outs[0] / f"history_k{k}.json").read_bytes()
        b = (outs[1] / f"history_k{k}.json").read_bytes()
        assert a == b
    ma = json.loads((outs[0] / "manifest.json").read_text())["outputs"]
    mb = json.loads((outs[1] / "manifest.json").read_text())["outputs"]
    assert list(ma.values()) == list(mb.values())


def test_sample_rejects_a_horizon_shorter_than_one_window(tmp_path, capsys):
    ckpt = make_checkpoint(tmp_path, steps=2)
    hist_path = tmp_path / "history.json"
    data.save_clip(constant_velocity_clips(1, seed=10, duration_s=0.4)[0],
                   hist_path)
    out = tmp_path / "out"
    code = run(["sample", "--history", str(hist_path), "--checkpoint",
                str(ckpt), "--horizon", "0", "--k", "1", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err.strip()
    assert err == ("gentac: error: horizon of 0 frames is shorter than the "
                   "5-frame window")
    assert not out.exists()


def test_sample_rejects_checkpoint_without_anchor_embedding(tmp_path, capsys):
    # a forecaster saved before futures were anchored has no anchor embedding
    ckpt = make_checkpoint(tmp_path, steps=2, drop="embed.anchor_w")
    hist_path = tmp_path / "history.json"
    data.save_clip(constant_velocity_clips(1, seed=10, duration_s=0.4)[0],
                   hist_path)
    code = run(["sample", "--history", str(hist_path), "--checkpoint",
                str(ckpt), "--horizon", "0.2", "--k", "1",
                "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err.strip()
    assert err == ("gentac: error: checkpoint is missing parameter "
                   "'embed.anchor_w'")


def test_sample_uses_the_schedule_and_window_train_traj_recorded(tmp_path):
    # sample used to rebuild its schedule and window from its own flag
    # defaults (beta_end 0.02, 0.2 s), not the desk schedule (beta_end 0.2)
    # and the 10-frame window this model was trained on; three epochs give
    # futures that move, so the window shows in their bytes
    fx = tiny_fixtures(tmp_path)
    ckpt = tmp_path / "model.ckpt"
    argv = [*TINY_TRAJ]
    argv[argv.index("--epochs") + 1] = "3"
    argv[argv.index("--window-frames") + 1] = "10"
    assert run(["train-traj", "--data", str(fx), "--out", str(ckpt),
                *argv]) == 0
    trained = TrainConfig(**json.loads(
        (tmp_path / "model.ckpt.manifest.json").read_text())["config"])
    assert (trained.diffusion_steps, trained.beta_end) == (100, 0.2)
    hist_path = tmp_path / "history.json"
    data.save_clip(constant_velocity_clips(1, seed=10, duration_s=0.4)[0],
                   hist_path)
    out = tmp_path / "samples"
    assert run(["sample", "--history", str(hist_path), "--checkpoint",
                str(ckpt), "--horizon", "0.4", "--k", "2", "--out", str(out),
                "--seed", "6"]) == 0
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert (config["steps"], config["beta_start"], config["beta_end"],
            config["window"]) == (100, 1e-4, 0.2, 0.4)

    # the library rollout under that run's schedule and window
    model, _ = load_model(ckpt, "forecast")
    clip = data.load_clip(hist_path)
    rollout_cfg = RolloutConfig(
        window=trained.window_frames / clip.fps, history=len(clip) / clip.fps,
        horizon=0.4, samples=2, fps=clip.fps).validate()
    hist = data.normalize(clip, data.PitchSpec.for_sport("soccer"))
    sample_set = rollout(hist, rollout_cfg, model, trained.schedule(),
                         Rng(6, ("sample",)))
    library = tmp_path / "library"
    library.mkdir()
    for i, future in enumerate(sample_set.to_clips(
            sport="soccer", metadata={"players_per_team": 3,
                                      "stem": "history"})):
        future.metadata["sample_index"] = i
        data.save_clip(future, library / f"history_k{i}.json")
    for name in ("history_k0.json", "history_k0.meta.json",
                 "history_k1.json", "history_k1.meta.json"):
        assert (out / name).read_bytes() == (library / name).read_bytes()


@pytest.mark.parametrize("command", ["sample", "forecast-event"])
@pytest.mark.parametrize("extra, missing", [
    ({"task": "forecast", "best_epoch": 0},
     "records no 'diffusion_steps'; it was written before checkpoints "
     "carried their schedule"),
    (None, "records no task, so no schedule or window; sampling needs one "
           "written by train-traj"),
], ids=["pre-contract", "library"])
def test_sampling_rejects_a_checkpoint_without_its_schedule(
        tmp_path, capsys, command, extra, missing):
    # train-traj used to record only the task and best epoch; the library
    # records nothing: sampling either under a guessed schedule is refused
    model = TrajectoryModel(ModelConfig(d=8, layers=1, heads=2, n_players=3,
                                        l_max=64), Rng(4))
    ckpt = tmp_path / "old.ckpt"
    save_checkpoint(ckpt, model.params, model.config.to_dict(), extra=extra)
    paths = {"history": tmp_path / "history.json",
             "event": event_checkpoint(tmp_path)}
    data.save_clip(constant_velocity_clips(1, seed=16, duration_s=0.4)[0],
                   paths["history"])
    argv = [command, "--checkpoint", str(ckpt), *ROLLOUT]
    if command == "forecast-event":
        argv += ["--event-checkpoint", "{event}"]
    out = tmp_path / "out"
    assert run([a.format(**paths) for a in argv] + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == f"gentac: error: {ckpt} {missing}\n"
    assert not out.exists()


def test_sampling_rejects_a_checkpoint_from_before_history_once_encoding(
        tmp_path, capsys):
    # its weights were fit to history rows that saw the step and the future
    model = TrajectoryModel(ModelConfig(d=8, layers=1, heads=2, n_players=3,
                                        l_max=64), Rng(4))
    ckpt = tmp_path / "old.ckpt"
    save_checkpoint(ckpt, model.params, model.config.to_dict(), extra={
        "task": "forecast", "best_epoch": 0, "diffusion_steps": 4,
        "beta_start": 1e-4, "beta_end": 0.2, "window_frames": 5})
    history = tmp_path / "history.json"
    data.save_clip(constant_velocity_clips(1, seed=16, duration_s=0.4)[0], history)
    out = tmp_path / "out"
    argv = ["sample", "--checkpoint", str(ckpt), *ROLLOUT, "--out", str(out)]
    assert run([a.format(history=history) for a in argv]) == 1
    assert capsys.readouterr().err == (
        f"gentac: error: {ckpt} records no 'attention_layout' 'history-once'; "
        f"it was written before history-once encoding\n")
    assert not out.exists()


def test_evaluate_traj_produces_report(tmp_path):
    truth_dir = tmp_path / "truth"
    pred_dir = tmp_path / "pred"
    truth_dir.mkdir()
    pred_dir.mkdir()
    clips = constant_velocity_clips(2, seed=12, duration_s=2.0)
    rng = Rng(13)
    for i, clip in enumerate(clips):
        data.save_clip(clip, truth_dir / f"clip{i}.json")
        seg = data.clip_to_segment(clip)
        T = 25
        for k in range(2):
            fut = seg.coords[-T:] + 0.2 * rng.child("n", i, k).normal((T,) + seg.coords.shape[1:])
            pred = data.segment_to_clip(
                data.Segment(fut, seg.visibility[-T:], clip.fps,
                             clip.players_per_team,
                             seg.roster0, seg.roster1,
                             normalized=False),
                metadata={"players_per_team": clip.players_per_team})
            data.save_clip(pred, pred_dir / f"clip{i}_k{k}.json")

    out = tmp_path / "report"
    assert run(["evaluate-traj", "--pred", str(pred_dir), "--truth",
                str(truth_dir), "--k", "2", "--horizons", "1",
                "--out", str(out)]) == 0
    report = (out / "trajectory_report.csv").read_text().splitlines()
    assert report[0] == "horizon_s,aggregate,ADE,FDE,dSI,dSA,dTW,dTL,dFN,dCD,dSO"
    assert len(report) == 3  # min and avg rows for the single horizon
    min_row = report[1].split(",")
    avg_row = report[2].split(",")
    assert min_row[1] == "min" and avg_row[1] == "avg"
    assert 0.0 < float(min_row[2]) <= float(avg_row[2]) < 2.0


def test_train_traj_cli_writes_checkpoint_log_manifest(tmp_path):
    fx = tmp_path / "fx"
    assert run(["make-fixtures", "--kind", "constant-velocity", "--n", "6",
                "--out", str(fx), "--players", "3", "--duration", "1.0"]) == 0
    ckpt = tmp_path / "model.ckpt"
    assert run(["train-traj", "--data", str(fx), "--out", str(ckpt),
                "--epochs", "1", "--d", "8", "--layers", "1", "--heads", "2",
                "--n-players", "3", "--l-max", "32", "--history-frames", "10",
                "--window-frames", "5", "--max-history-frames", "10",
                "--batch-size", "4"]) == 0
    assert ckpt.exists()
    log = (tmp_path / "model.log.csv").read_text().splitlines()
    assert log[0] == "epoch,train_loss,valid_metric,learning_rate"
    manifest = json.loads((tmp_path / "model.ckpt.manifest.json").read_text())
    assert "checkpoint_hash" in manifest


def test_evaluate_event_writes_predictions_and_metrics(tmp_path):
    from gentac.backbone import ModelConfig
    from gentac.events import EventModel

    fx = tmp_path / "fx"
    assert run(["make-fixtures", "--kind", "event-classes", "--n", "6",
                "--out", str(fx), "--players", "3", "--duration", "0.6"]) == 0
    model = EventModel(ModelConfig(d=8, layers=1, heads=2, n_players=3,
                                   l_max=15), Rng(14))
    ckpt = tmp_path / "event.ckpt"
    save_checkpoint(ckpt, model.params, model.config.to_dict(),
                    extra={"task": "event"})
    out = tmp_path / "eval"
    assert run(["evaluate-event", "--data", str(fx), "--checkpoint",
                str(ckpt), "--out", str(out)]) == 0
    pred_lines = (out / "predictions.csv").read_text().splitlines()
    assert len(pred_lines) == 7  # header + one row per clip
    header = pred_lines[0].split(",")
    assert header[:3] == ["clip", "true_type", "true_subtype"]
    assert "pred_type" in header and "subtype_hit@5" in header
    records = json.loads((out / "predictions.json").read_text())
    assert len(records) == 6
    assert (out / "event_metrics.csv").exists()


def forecast_event_argv(tmp_path, steps=4):
    """forecast-event options for a small forecaster trained on a
    `steps`-step schedule, an untrained event head and a 0.4 s history clip;
    the caller adds --out."""
    from gentac.events import EventModel

    ckpt = make_checkpoint(tmp_path, steps)
    event_model = EventModel(ModelConfig(d=8, layers=1, heads=2, n_players=3,
                                         l_max=32), Rng(15))
    event_ckpt = tmp_path / "event.ckpt"
    save_checkpoint(event_ckpt, event_model.params,
                    event_model.config.to_dict(), extra={"task": "event"})
    clip = constant_velocity_clips(1, seed=16, duration_s=0.4)[0]
    hist_path = tmp_path / "history.json"
    data.save_clip(clip, hist_path)
    return ["forecast-event", "--history", str(hist_path),
            "--checkpoint", str(ckpt), "--event-checkpoint", str(event_ckpt),
            "--horizon", "0.4", "--k", "3", "--event-frames", "10"]


def test_forecast_event_cli(tmp_path):
    out = tmp_path / "forecast"
    assert run(forecast_event_argv(tmp_path) + ["--out", str(out)]) == 0
    lines = (out / "event_forecast.csv").read_text().splitlines()
    assert lines[0] == "subtype,median,p10,p90,min,max"
    assert len(lines) == 16  # 15 subtypes
    medians = [float(l.split(",")[1]) for l in lines[1:]]
    assert abs(sum(medians)) <= 1.5  # sane probability mass


def test_forecast_event_single_team_needs_truth(tmp_path, capsys):
    code = run(forecast_event_argv(tmp_path)
               + ["--target-side", "0", "--out", str(tmp_path / "forecast")])
    assert code == 1
    err = capsys.readouterr().err.strip()
    assert err == ("gentac: error: --target-side needs --truth, the future "
                   "it conditions on")
    assert not (tmp_path / "forecast").exists()


def sampling_argv(tmp_path, command):
    """`command`'s options as in forecast_event_argv, less the event head's
    for `sample`; the caller adds --out."""
    argv = forecast_event_argv(tmp_path, steps=2)
    if command == "sample":
        argv = ["sample", *argv[1:argv.index("--event-checkpoint")],
                *argv[argv.index("--horizon"):argv.index("--event-frames")]]
    return argv


@pytest.mark.parametrize("command", ["sample", "forecast-event"])
def test_sampling_rejects_truth_without_a_target_side(tmp_path, capsys, command):
    # --truth without a single-team setting used to be dropped: not read,
    # not listed among the manifest's inputs
    argv = sampling_argv(tmp_path, command)
    truth = tmp_path / "truth.json"
    data.save_clip(constant_velocity_clips(1, seed=17, duration_s=0.4)[0], truth)
    out = tmp_path / "out"
    capsys.readouterr()
    assert run(argv + ["--truth", str(truth), "--out", str(out)]) == 1
    assert capsys.readouterr().err == \
        "gentac: error: --truth needs --target-side, the side to generate\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["sample", "forecast-event"])
def test_sampling_takes_no_setting(tmp_path, command):
    # league and objective sampled like unconditioned, team like opponent:
    # styles come from finetune --filter, the side from --target-side
    out = tmp_path / "out"
    assert run(sampling_argv(tmp_path, command) + ["--out", str(out)]) == 0
    assert run(sampling_argv(tmp_path, command)
               + ["--setting", "league", "--out", str(tmp_path / "o2")]) == 2


def test_forecast_event_rejects_zero_event_frames(tmp_path, capsys):
    argv = forecast_event_argv(tmp_path, steps=2)
    argv[argv.index("--event-frames") + 1] = "0"
    out = tmp_path / "forecast"
    assert run(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err.strip()
    assert err == "gentac: error: event_input_frames must be at least 1, got 0"
    assert not (out / "event_forecast.csv").exists()


def test_forecast_event_manifest_records_schedule_and_inputs(tmp_path):
    # two forecasters trained on 2 and 3 diffusion steps: each run records
    # the schedule its checkpoint carries
    manifests = []
    for steps in (2, 3):
        out = tmp_path / f"steps{steps}"
        argv = forecast_event_argv(tmp_path, steps)
        assert run(argv + ["--out", str(out)]) == 0
        manifests.append(json.loads((out / "manifest.json").read_text()))
    assert manifests[0]["config"]["steps"] == 2
    assert manifests[1]["config"]["steps"] == 3
    assert manifests[0]["config_hash"] != manifests[1]["config_hash"]
    assert {"beta_start", "beta_end"} <= set(manifests[0]["config"])
    # the event head, the truth future and the sidecars load_clip read with
    # them are inputs: others give other outputs
    assert set(manifests[0]["inputs"]) == {"history.json", "history.meta.json",
                                           "event.ckpt"}
    truth = tmp_path / "truth.json"
    data.save_clip(constant_velocity_clips(1, seed=17, duration_s=0.4)[0], truth)
    out = tmp_path / "single"
    assert run(argv + ["--target-side", "0", "--truth", str(truth),
                       "--out", str(out)]) == 0
    single = json.loads((out / "manifest.json").read_text())
    assert set(single["inputs"]) == {"history.json", "history.meta.json",
                                     "truth.json", "truth.meta.json",
                                     "event.ckpt"}
    assert (single["config"]["setting"], single["config"]["target_side"]) == \
        ("opponent", 0)
    assert (manifests[0]["config"]["setting"],
            manifests[0]["config"]["target_side"]) == ("unconditioned", None)


def test_main_returns_int_when_given_argv(tmp_path):
    assert isinstance(main(["make-fixtures", "--kind", "circular", "--n",
                            "0", "--out", str(tmp_path / "empty")]), int)


# ---------------------------------------------------------------------------
# train configuration: desk config, base geometry, --config file, given flags
# ---------------------------------------------------------------------------

TINY_TRAJ = ["--epochs", "1", "--d", "8", "--layers", "1", "--heads", "2",
             "--n-players", "3", "--l-max", "32", "--history-frames", "10",
             "--window-frames", "5", "--max-history-frames", "10",
             "--batch-size", "4"]


def tiny_fixtures(tmp_path):
    fx = tmp_path / "fx"
    assert run(["make-fixtures", "--kind", "constant-velocity", "--n", "6",
                "--out", str(fx), "--players", "3", "--duration", "1.0"]) == 0
    return fx


def test_config_file_seed_and_sport_hold_unless_flags_are_given(tmp_path):
    fx = tmp_path / "court"
    fx.mkdir()
    for i, clip in enumerate(constant_velocity_clips(
            6, seed=5, duration_s=1.0, sport="basketball")):
        data.save_clip(clip, fx / f"clip{i}.json")
    config = tmp_path / "train.json"
    config.write_text(json.dumps({"seed": 7, "sport": "basketball"}))
    ckpt = tmp_path / "file.ckpt"
    assert run(["train-traj", "--data", str(fx), "--out", str(ckpt),
                "--config", str(config), *TINY_TRAJ]) == 0
    manifest = json.loads((tmp_path / "file.ckpt.manifest.json").read_text())
    assert manifest["seed"] == 7
    assert manifest["config"]["sport"] == "basketball"

    ckpt = tmp_path / "flags.ckpt"
    assert run(["train-traj", "--data", str(fx), "--out", str(ckpt),
                "--config", str(config), "--seed", "3", "--sport", "soccer",
                *TINY_TRAJ]) == 0
    manifest = json.loads((tmp_path / "flags.ckpt.manifest.json").read_text())
    assert manifest["seed"] == 3
    assert manifest["config"]["sport"] == "soccer"


def test_config_file_with_unknown_key_fails_naming_file_and_key(tmp_path, capsys):
    fx = tiny_fixtures(tmp_path)
    config = tmp_path / "train.json"
    config.write_text(json.dumps({"epochs": 1, "base_checkpoint": "b.ckpt"}))
    ckpt = tmp_path / "model.ckpt"
    assert run(["train-traj", "--data", str(fx), "--out", str(ckpt),
                "--config", str(config), *TINY_TRAJ]) == 1
    err = capsys.readouterr().err.strip()
    assert err == (f"gentac: error: {config}: unknown config key "
                   f"'base_checkpoint'")
    assert not ckpt.exists()


# ---------------------------------------------------------------------------
# checkpoints of the wrong task
# ---------------------------------------------------------------------------

def event_checkpoint(tmp_path):
    from gentac.events import EventModel

    model = EventModel(ModelConfig(d=8, layers=1, heads=2, n_players=3,
                                   l_max=32), Rng(15))
    path = tmp_path / "event.ckpt"
    save_checkpoint(path, model.params, model.config.to_dict(),
                    extra={"task": "event"})
    return path


ROLLOUT = ["--history", "{history}", "--horizon", "0.4", "--k", "1"]


@pytest.mark.parametrize("argv, task, wanted", [
    (["sample", "--checkpoint", "{event}", *ROLLOUT], "event", "forecast"),
    (["evaluate-event", "--data", "{history}", "--checkpoint", "{forecast}"],
     "forecast", "event"),
    (["forecast-event", "--checkpoint", "{event}", "--event-checkpoint",
      "{event}", *ROLLOUT], "event", "forecast"),
    (["forecast-event", "--checkpoint", "{forecast}", "--event-checkpoint",
      "{forecast}", *ROLLOUT], "forecast", "event"),
], ids=["sample", "evaluate-event", "forecast-event-traj",
        "forecast-event-event"])
def test_wrong_task_checkpoint_fails_naming_file(tmp_path, capsys, argv, task,
                                                 wanted):
    paths = {"forecast": make_checkpoint(tmp_path, steps=2),
             "event": event_checkpoint(tmp_path),
             "history": tmp_path / "history.json"}
    data.save_clip(constant_velocity_clips(1, seed=16, duration_s=0.4)[0],
                   paths["history"])
    out = tmp_path / "out"
    assert run([a.format(**paths) for a in argv] + ["--out", str(out)]) == 1
    err = capsys.readouterr().err.strip()
    assert err == (f"gentac: error: {paths[task]} holds a {task} model, "
                   f"not a {wanted} model")
    assert not out.exists()


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------

def test_ingest_keeps_the_sidecar_team_size(tmp_path):
    raw = tmp_path / "raw"
    assert run(["make-fixtures", "--kind", "constant-velocity", "--n", "1",
                "--out", str(raw), "--players", "3", "--duration", "0.4"]) == 0
    canon = tmp_path / "canon"
    assert run(["ingest", "--input", str(raw), "--out", str(canon)]) == 0
    meta = json.loads((canon / "fixture_0000.meta.json").read_text())
    assert meta["players_per_team"] == 3
    assert data.load_clip(canon / "fixture_0000.json").players_per_team == 3


# ---------------------------------------------------------------------------
# manifests list every file their command wrote
# ---------------------------------------------------------------------------

def _subcommands():
    from gentac.cli import build_parser

    parser = build_parser()
    sub = next(a for a in parser._actions if a.dest == "command")
    return set(sub.choices)


@pytest.fixture(scope="module")
def cli_chain(tmp_path_factory):
    """Every subcommand run once, each into its own output; returns
    command -> (exit code, manifest path, files the command wrote there,
    argv)."""
    w = tmp_path_factory.mktemp("chain")
    small = ["--d", "8", "--layers", "1", "--heads", "2", "--n-players", "3"]
    history = ["--history-frames", "10", "--max-history-frames", "10",
               "--batch-size", "4"]
    rollout_opts = ["--history", str(w / "hist" / "fixture_0000.json"),
                    "--checkpoint", str(w / "traj" / "m.ckpt"),
                    "--horizon", "0.4", "--k", "2"]
    chain = {
        "make-fixtures": ["--kind", "two-style-league", "--n", "6",
                          "--players", "3", "--out", str(w / "raw")],
        "ingest": ["--input", str(w / "raw"), "--out", str(w / "canon")],
        "resample": ["--input", str(w / "canon"), "--out", str(w / "res"),
                     "--fps", "12.5"],
        "refine": ["--input", str(w / "res"), "--out", str(w / "ref")],
        "train-traj": ["--data", str(w / "canon"), "--out",
                       str(w / "traj" / "m.ckpt"), "--epochs", "1", *small,
                       "--l-max", "64", *history, "--window-frames", "5",
                       "--diffusion-steps", "2"],
        "train-event": ["--data", str(w / "ev"), "--out",
                        str(w / "event" / "m.ckpt"), "--epochs", "1", *small,
                        "--l-max", "15", "--batch-size", "4"],
        "finetune": ["--data", str(w / "canon"), "--base",
                     str(w / "traj" / "m.ckpt"), "--filter", "league=alpha",
                     "--out", str(w / "tuned" / "m.ckpt"), "--epochs", "1",
                     "--valid-fraction", "0.34", *history],
        "sample": [*rollout_opts, "--out", str(w / "samp")],
        "evaluate-traj": ["--pred", str(w / "samp"), "--truth",
                          str(w / "hist"), "--k", "2", "--horizons", "0.2",
                          "--out", str(w / "evtraj")],
        "evaluate-event": ["--data", str(w / "ev"), "--checkpoint",
                           str(w / "event" / "m.ckpt"), "--out",
                           str(w / "evev")],
        "forecast-event": [*rollout_opts, "--event-checkpoint",
                           str(w / "event" / "m.ckpt"), "--event-frames", "10",
                           "--out", str(w / "fe")],
    }
    # inputs the chain needs but whose manifests are not under test
    assert run(["make-fixtures", "--kind", "event-classes", "--n", "6",
                "--players", "3", "--duration", "0.6", "--out",
                str(w / "ev")]) == 0
    assert run(["make-fixtures", "--kind", "constant-velocity", "--n", "1",
                "--players", "3", "--duration", "0.8", "--out",
                str(w / "hist")]) == 0
    written = {}
    for command, argv in chain.items():
        out = pathlib.Path(argv[argv.index("--out") + 1])
        code = run([command, *argv])
        if out.suffix == ".ckpt":
            written[command] = (code, out.with_name(out.name + ".manifest.json"),
                                {out.name, out.stem + ".log.csv"}, argv)
        else:
            written[command] = (code, out / "manifest.json",
                                {p.name for p in out.iterdir()
                                 if p.name != "manifest.json"}
                                if out.is_dir() else set(), argv)
    return written


@pytest.mark.parametrize("command", ["ingest", "resample", "refine",
                                     "evaluate-traj", "evaluate-event"])
def test_commands_that_draw_no_random_numbers_take_no_seed(cli_chain, command):
    code, manifest_path, _, argv = cli_chain[command]
    assert code == 0
    assert json.loads(manifest_path.read_text())["seed"] is None
    assert run([command, *argv, "--seed", "1"]) == 2


@pytest.mark.parametrize("flag", ["--history-frames", "--window-frames",
                                  "--max-history-frames", "--diffusion-steps"])
def test_train_event_takes_no_forecast_geometry(cli_chain, flag):
    assert run(["train-event", *cli_chain["train-event"][3], flag, "10"]) == 2


def test_make_fixtures_takes_no_sport(tmp_path):
    # the generators draw soccer geometry: --sport basketball used to exit 0
    # and write clips that normalize rejects on a basketball court
    out = tmp_path / "fx"
    assert run(["make-fixtures", "--kind", "constant-velocity", "--n", "2",
                "--sport", "basketball", "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("kind, flag", [("two-style-league", "--duration"),
                                        ("circular", "--jitter")])
def test_make_fixtures_rejects_a_flag_its_kind_ignores(tmp_path, capsys, kind, flag):
    # --duration 9 on a two-style league used to exit 0 and write 3 s clips
    out = tmp_path / "fx"
    assert run(["make-fixtures", "--kind", kind, "--n", "1", flag, "9",
                "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"gentac: error: {flag} does not apply to --kind {kind}\n")
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["--k", "0"], "--k must be at least 1, got 0"),
    (["--horizons", ""], "--horizons must list at least one horizon, got ''"),
], ids=["k-zero", "no-horizons"])
def test_evaluate_traj_rejects_an_empty_selection(tmp_path, capsys, argv, message):
    # --k 0 used to fail with "list index out of range"; --horizons "" exited
    # 0 with a header-only report
    truth = tmp_path / "truth"
    for d in (truth, tmp_path / "pred"):
        d.mkdir()
    data.save_clip(constant_velocity_clips(1, seed=18, duration_s=0.4)[0],
                   truth / "clip0.json")
    data.save_clip(constant_velocity_clips(1, seed=19, duration_s=0.4)[0],
                   tmp_path / "pred" / "clip0_k0.json")
    out = tmp_path / "report"
    assert run(["evaluate-traj", "--pred", str(tmp_path / "pred"), "--truth",
                str(truth), "--out", str(out), *argv]) == 1
    assert capsys.readouterr().err == f"gentac: error: {message}\n"
    assert not out.exists()


def test_evaluate_traj_rejects_fewer_predictions_than_k(tmp_path, capsys):
    # the default --k 20 over two predictions used to report minADE over K = 2
    truth = tmp_path / "truth"
    pred = tmp_path / "pred"
    for d in (truth, pred):
        d.mkdir()
    data.save_clip(constant_velocity_clips(1, seed=18, duration_s=0.4)[0],
                   truth / "clip0.json")
    for k in range(2):
        data.save_clip(constant_velocity_clips(1, seed=19 + k,
                                               duration_s=0.4)[0],
                       pred / f"clip0_k{k}.json")
    out = tmp_path / "report"
    assert run(["evaluate-traj", "--pred", str(pred), "--truth", str(truth),
                "--horizons", "0.2", "--out", str(out)]) == 1
    assert capsys.readouterr().err == \
        "gentac: error: clip0 has 2 predictions, fewer than --k 20\n"
    assert not out.exists()


@pytest.mark.parametrize("flag, message", [
    ("--duration", "{out}/fixture_0000.json holds no frames"),
    ("--players", "n_players=0 leaves the teams with no players"),
])
def test_make_fixtures_rejects_an_empty_scene(tmp_path, capsys, flag, message):
    # both used to exit 0: a file holding {} and clips with only a ball
    out = tmp_path / "fx"
    assert run(["make-fixtures", "--kind", "constant-velocity", "--n", "2",
                flag, "0", "--out", str(out)]) == 1
    assert capsys.readouterr().err == \
        f"gentac: error: {message.format(out=out)}\n"
    assert not out.exists()


@pytest.mark.parametrize("text, message", [
    ("{}", "{clip} holds no frames"),
    ('{"0": {"ball": [0.0, 0.0], "team0": {}, "team1": {}}, '
     '"1": {"ball": [0.5, 0.0], "team0": {}, "team1": {}}}',
     "{clip}: team0 has no players"),
    ('{"0": {"ball": [0.0, 0.0], "team0": {"A": [1.0, 2.0]}, "team1": {}}}',
     "{clip}: team1 has no players"),
], ids=["no-frames", "no-players", "one-team"])
def test_ingest_rejects_an_empty_scene(tmp_path, capsys, text, message):
    # two good clips are read before the empty one; they used to be written
    # to --out, with no manifest, before the empty clip failed
    raw = tmp_path / "raw"
    raw.mkdir()
    for i, good in enumerate(constant_velocity_clips(2, seed=22, duration_s=0.4)):
        data.save_clip(good, raw / f"a{i}.json")
    clip = raw / "empty.json"
    clip.write_text(text)
    out = tmp_path / "canon"
    assert run(["ingest", "--input", str(raw), "--out", str(out)]) == 1
    assert capsys.readouterr().err == \
        f"gentac: error: {message.format(clip=clip)}\n"
    assert not out.exists()


def test_refine_rejects_gamma_outside_its_range(tmp_path, capsys):
    # --gamma 0 used to fail inside the smoother with "float division by zero"
    raw = tmp_path / "raw"
    assert run(["make-fixtures", "--kind", "constant-velocity", "--n", "1",
                "--out", str(raw)]) == 0
    capsys.readouterr()
    assert run(["refine", "--input", str(raw), "--out", str(tmp_path / "ref"),
                "--gamma", "0"]) == 1
    assert capsys.readouterr().err == \
        "gentac: error: RefineParams.ema_gamma must lie in (0, 1], got 0.0\n"


@pytest.mark.parametrize("command", sorted(_subcommands()))
def test_manifest_lists_every_file_written(cli_chain, command):
    code, manifest_path, files, _ = cli_chain[command]
    assert code == 0
    manifest = json.loads(manifest_path.read_text())
    assert manifest["command"] == command
    assert set(manifest["outputs"]) == files


@pytest.mark.parametrize("command", ["ingest", "resample", "refine", "train-traj",
                                     "evaluate-traj", "evaluate-event"])
def test_manifest_inputs_hash_the_sidecars_read(cli_chain, tmp_path, command):
    # rerun on a copy of the clip directories, before and after editing one
    # sidecar that load_clip applies: the manifest's inputs must tell them apart
    import shutil

    argv = list(cli_chain[command][3])
    copies = []
    for i, arg in enumerate(argv[:-1]):
        if arg in ("--input", "--data", "--pred", "--truth"):
            copy = tmp_path / arg.strip("-")
            shutil.copytree(argv[i + 1], copy)
            argv[i + 1] = str(copy)
            copies.append(copy)
    out_at = argv.index("--out") + 1
    out_name = pathlib.Path(argv[out_at]).name

    def inputs_after_run(name):
        out = tmp_path / name / out_name
        argv[out_at] = str(out)
        assert run([command, *argv]) == 0
        manifest = out / "manifest.json" if out.is_dir() else \
            out.with_name(out.name + ".manifest.json")
        return json.loads(manifest.read_text())["inputs"]

    before = inputs_after_run("before")
    sidecar = sorted(copies[0].glob("*.meta.json"))[0]
    meta = json.loads(sidecar.read_text())
    sidecar.write_text(json.dumps({**meta, "note": "edited"}))
    after = inputs_after_run("after")
    assert sidecar.name in before
    assert after[sidecar.name] != before[sidecar.name]
    assert {k: v for k, v in after.items() if k != sidecar.name} == \
        {k: v for k, v in before.items() if k != sidecar.name}


# ---------------------------------------------------------------------------
# finetune
# ---------------------------------------------------------------------------

def test_finetune_reads_task_and_geometry_from_base(tmp_path):
    from gentac.diffusion import condition_tagging
    from gentac.training import finetune

    clips_dir = tmp_path / "clips"
    clips_dir.mkdir()
    clips = (league_clips(constant_velocity_clips(4, seed=20, duration_s=1.0), "alpha")
             + league_clips(constant_velocity_clips(4, seed=21, duration_s=1.0), "beta"))
    for i, clip in enumerate(clips):
        data.save_clip(clip, clips_dir / f"clip{i}.json")
    base = tmp_path / "base.ckpt"
    assert run(["train-traj", "--data", str(clips_dir), "--out", str(base),
                *TINY_TRAJ]) == 0

    tuned = tmp_path / "tuned.ckpt"
    non_geometry = ["--epochs", "1", "--history-frames", "10",
                    "--max-history-frames", "10", "--batch-size", "4"]
    assert run(["finetune", "--data", str(clips_dir), "--base", str(base),
                "--filter", "league=alpha", "--out", str(tuned),
                *non_geometry]) == 0
    manifest = json.loads((tmp_path / "tuned.ckpt.manifest.json").read_text())
    assert manifest["command"] == "finetune"
    assert "base.ckpt" in manifest["inputs"]
    assert manifest["config"]["filter"] == "league=alpha"
    assert manifest["config"]["task"] == "forecast"

    # the library on the same subset, split and config writes the same bytes
    loaded = [data.load_clip(p) for p in sorted(clips_dir.glob("clip?.json"))]
    cfg = desk_forecast_config(d=8, layers=1, heads=2, n_players=3, l_max=32,
                               epochs=1, history_frames=10, window_frames=5,
                               max_history_frames=10, batch_size=4)
    split = split_clips(condition_tagging(loaded, "league", "alpha"), 0.2,
                        seed=cfg.seed)
    model, result = finetune(*load_model(str(base), "forecast"), split, cfg)
    library = tmp_path / "library.ckpt"
    save_model(library, model, result)
    assert tuned.read_bytes() == library.read_bytes()


@pytest.mark.parametrize("flag", ["--d", "--layers", "--heads", "--n-players",
                                  "--l-max"])
def test_finetune_takes_no_geometry(tmp_path, flag):
    # --d 16 on a d=8 base exited 1 and --d 8 was a no-op: the base decides
    assert run(["finetune", "--data", str(tmp_path), "--base",
                str(tmp_path / "base.ckpt"), "--out", str(tmp_path / "t.ckpt"),
                flag, "8"]) == 2


@pytest.mark.parametrize("flag", ["--history-frames", "--max-history-frames"])
def test_finetune_of_an_event_base_takes_no_history_flags(cli_chain, tmp_path,
                                                          capsys, flag):
    # both flags used to exit 0, ignored by event training, and the manifest
    # recorded the history length
    base = cli_chain["train-event"][3][3]
    out = tmp_path / "tuned.ckpt"
    capsys.readouterr()
    assert run(["finetune", "--data", cli_chain["train-event"][3][1], "--base",
                base, "--out", str(out), "--epochs", "1", flag, "7"]) == 1
    assert capsys.readouterr().err == (
        f"gentac: error: {base} holds an event model, which takes no {flag}\n")
    assert not out.exists()


@pytest.mark.parametrize("key", ["history_frames", "diffusion_steps"])
def test_train_event_config_file_takes_no_forecaster_key(cli_chain, tmp_path,
                                                         capsys, key):
    # {"history_frames": 7, "diffusion_steps": 3, "epochs": 1} used to exit 0,
    # and the manifest recorded both
    config = tmp_path / "event.json"
    config.write_text(json.dumps({key: 7, "epochs": 1}))
    out = tmp_path / "event.ckpt"
    capsys.readouterr()
    assert run(["train-event", "--data", cli_chain["train-event"][3][1],
                "--out", str(out), "--config", str(config)]) == 1
    assert capsys.readouterr().err == (
        f"gentac: error: {config}: the event task takes no forecaster key "
        f"'{key}'\n")
    assert not out.exists()


def test_finetune_rejects_base_without_task(tmp_path, capsys):
    fx = tiny_fixtures(tmp_path)
    model = TrajectoryModel(ModelConfig(d=8, layers=1, heads=2, n_players=3,
                                        l_max=32), Rng(4))
    base = tmp_path / "untagged.ckpt"
    save_checkpoint(base, model.params, model.config.to_dict())
    out = tmp_path / "tuned.ckpt"
    assert run(["finetune", "--data", str(fx), "--base", str(base),
                "--out", str(out), "--epochs", "1"]) == 1
    err = capsys.readouterr().err.strip()
    assert err == (f"gentac: error: {base} records no task; finetune needs a "
                   f"checkpoint written by train-traj or train-event")
    assert not out.exists()


def test_finetune_keeps_the_base_schedule_and_window(tmp_path):
    fx = tiny_fixtures(tmp_path)
    base = tmp_path / "base.ckpt"
    assert run(["train-traj", "--data", str(fx), "--out", str(base),
                *TINY_TRAJ, "--diffusion-steps", "3"]) == 0
    tuned = tmp_path / "tuned.ckpt"
    assert run(["finetune", "--data", str(fx), "--base", str(base),
                "--out", str(tuned), "--epochs", "1", "--history-frames", "10",
                "--max-history-frames", "10", "--batch-size", "4"]) == 0
    _, fixed = load_model(tuned, "forecast")
    assert (fixed["diffusion_steps"], fixed["window_frames"]) == (3, 5)
    for flag in ("--diffusion-steps", "--window-frames"):
        assert run(["finetune", "--data", str(fx), "--base", str(base),
                    "--out", str(tuned), flag, "4"]) == 2


@pytest.mark.parametrize("key, value, recorded", [
    ("diffusion_steps", 50, 100), ("beta_end", 0.02, 0.2),
    ("window_frames", 10, 5)])
def test_finetune_rejects_a_config_that_contradicts_the_base(
        tmp_path, capsys, key, value, recorded):
    fx = tiny_fixtures(tmp_path)
    base = tmp_path / "base.ckpt"
    assert run(["train-traj", "--data", str(fx), "--out", str(base),
                *TINY_TRAJ]) == 0
    config = tmp_path / "tune.json"
    config.write_text(json.dumps({key: value}))
    out = tmp_path / "tuned.ckpt"
    capsys.readouterr()
    assert run(["finetune", "--data", str(fx), "--base", str(base),
                "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"gentac: error: config {key}={value!r} is incompatible with the "
        f"base checkpoint's {recorded!r}\n")
    assert not out.exists()


def test_finetune_rejects_a_pre_contract_base(tmp_path, capsys):
    fx = tiny_fixtures(tmp_path)
    model = TrajectoryModel(ModelConfig(d=8, layers=1, heads=2, n_players=3,
                                        l_max=32), Rng(4))
    base = tmp_path / "old.ckpt"
    save_checkpoint(base, model.params, model.config.to_dict(),
                    extra={"task": "forecast", "best_epoch": 0})
    out = tmp_path / "tuned.ckpt"
    capsys.readouterr()
    assert run(["finetune", "--data", str(fx), "--base", str(base),
                "--out", str(out), "--epochs", "1"]) == 1
    assert capsys.readouterr().err == (
        f"gentac: error: {base} records no 'diffusion_steps'; it was written "
        f"before checkpoints carried their schedule\n")
    assert not out.exists()
