"""Command-line surface: subcommand contracts, manifests, exit codes."""

import json
import pathlib

import numpy as np
import pytest

from gentac import data
from gentac.backbone import save_checkpoint
from gentac.cli import main, run
from gentac.fixtures import constant_velocity_clips
from gentac.rng import Rng
from gentac.training import TrainSplit, desk_forecast_config, split_clips, train


def make_checkpoint(tmp_path, clips=None, epochs=1):
    clips = clips or constant_velocity_clips(8, seed=1, duration_s=2.0)
    cfg = desk_forecast_config(d=8, layers=1, heads=2, n_players=3, l_max=64,
                               epochs=epochs, batch_size=4, history_frames=10,
                               window_frames=5, max_history_frames=10, seed=2)
    model, result = train(split_clips(clips, 0.25, seed=0), cfg)
    path = tmp_path / "base.ckpt"
    save_checkpoint(path, model.params, model.config.to_dict(),
                    extra={"task": "forecast"})
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
                str(ckpt), "--window", "0.2", "--horizon", "0.4", "--k", "3",
                "--steps", "5", "--out", str(out), "--seed", "11"])
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
                    str(ckpt), "--window", "0.2", "--horizon", "0.2",
                    "--k", "2", "--steps", "4", "--out", str(out),
                    "--seed", "3"]) == 0
        outs.append(out)
    for k in range(2):
        a = (outs[0] / f"history_k{k}.json").read_bytes()
        b = (outs[1] / f"history_k{k}.json").read_bytes()
        assert a == b
    ma = json.loads((outs[0] / "manifest.json").read_text())["outputs"]
    mb = json.loads((outs[1] / "manifest.json").read_text())["outputs"]
    assert list(ma.values()) == list(mb.values())


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
                             tuple(clip.roster(0)), tuple(clip.roster(1)),
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


def forecast_event_argv(tmp_path):
    """forecast-event options for a small trained forecaster, an untrained
    event head and a 0.4 s history clip; the caller adds --out."""
    from gentac.backbone import ModelConfig
    from gentac.events import EventModel

    ckpt = make_checkpoint(tmp_path)
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
            "--window", "0.2", "--horizon", "0.4", "--k", "3",
            "--event-frames", "10"]


def test_forecast_event_cli(tmp_path):
    out = tmp_path / "forecast"
    assert run(forecast_event_argv(tmp_path)
               + ["--steps", "4", "--out", str(out)]) == 0
    lines = (out / "event_forecast.csv").read_text().splitlines()
    assert lines[0] == "subtype,median,p10,p90,min,max"
    assert len(lines) == 16  # 15 subtypes
    medians = [float(l.split(",")[1]) for l in lines[1:]]
    assert abs(sum(medians)) <= 1.5  # sane probability mass


def test_forecast_event_single_team_needs_truth(tmp_path, capsys):
    code = run(forecast_event_argv(tmp_path)
               + ["--setting", "team", "--target-side", "0",
                  "--out", str(tmp_path / "forecast")])
    assert code == 1
    err = capsys.readouterr().err.strip()
    assert err == "gentac: error: setting 'team' needs --truth"


def test_forecast_event_manifest_records_schedule_and_inputs(tmp_path):
    argv = forecast_event_argv(tmp_path)
    manifests = []
    for steps in ("2", "3"):
        out = tmp_path / f"steps{steps}"
        assert run(argv + ["--steps", steps, "--out", str(out)]) == 0
        manifests.append(json.loads((out / "manifest.json").read_text()))
    assert manifests[0]["config"]["steps"] == 2
    assert manifests[1]["config"]["steps"] == 3
    assert manifests[0]["config_hash"] != manifests[1]["config_hash"]
    assert {"beta_start", "beta_end"} <= set(manifests[0]["config"])
    # the event head and the truth future are inputs: others give other outputs
    assert set(manifests[0]["inputs"]) == {"history.json", "event.ckpt"}
    truth = tmp_path / "truth.json"
    data.save_clip(constant_velocity_clips(1, seed=17, duration_s=0.4)[0], truth)
    out = tmp_path / "single"
    assert run(argv + ["--setting", "team", "--target-side", "0", "--truth",
                       str(truth), "--steps", "2", "--out", str(out)]) == 0
    inputs = json.loads((out / "manifest.json").read_text())["inputs"]
    assert set(inputs) == {"history.json", "truth.json", "event.ckpt"}


def test_main_returns_int_when_given_argv():
    assert isinstance(main(["make-fixtures", "--kind", "circular", "--n",
                            "0", "--out", "/tmp/gentac-empty-fixture"]), int)
