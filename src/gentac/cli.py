"""The ``gentac`` command line: ingest/refine data, train, sample, evaluate.

Every subcommand validates its paths up front, runs exactly one action, and
writes a manifest next to its outputs recording the seed, the effective
config hash, git-style content hashes of all inputs, and the checkpoint hash
when one is involved. Outputs carry no timestamps, so identical manifests
mean byte-identical outputs.

Exit codes: 0 success, 1 runtime failure (single-line diagnostic on stderr),
2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import sys

import numpy as np

from . import __version__, data, fixtures, metrics
from .backbone import ModelConfig, assign_parameters, load_checkpoint, \
    save_checkpoint
from .diffusion import RolloutConfig, condition_tagging, make_schedule, rollout
from .events import forecast_event, ground_event
from .rng import Rng
from .training import MODELS, TrainConfig, desk_event_config, \
    desk_forecast_config, finetune, split_clips, train


def git_blob_hash(path) -> str:
    """sha1 of "blob <size>\\0" + content, as git computes it."""
    blob = pathlib.Path(path).read_bytes()
    h = hashlib.sha1()
    h.update(f"blob {len(blob)}\0".encode("ascii"))
    h.update(blob)
    return h.hexdigest()


def _config_hash(config: dict) -> str:
    return hashlib.sha256(
        json.dumps(config, sort_keys=True, default=str).encode("utf-8")
    ).hexdigest()


def _sha256(path) -> str:
    return hashlib.sha256(pathlib.Path(path).read_bytes()).hexdigest()


def write_manifest(target, command, seed, config, inputs, outputs,
                   checkpoint=None):
    """Record what produced the outputs. Files are keyed by basename so the
    manifest bytes do not depend on where the run directory lives."""
    target = pathlib.Path(target)
    manifest = {
        "tool": f"gentac {__version__}",
        "command": command,
        "seed": seed,
        "config": config,
        "config_hash": _config_hash(config),
        "inputs": {pathlib.Path(p).name: git_blob_hash(p) for p in inputs},
        "outputs": {pathlib.Path(p).name: _sha256(p) for p in outputs},
    }
    if checkpoint is not None:
        manifest["checkpoint_hash"] = _sha256(checkpoint)
    path = target / "manifest.json" if target.is_dir() else \
        target.with_name(target.name + ".manifest.json")
    path.write_text(json.dumps(manifest, indent=1, sort_keys=True), "utf-8")
    return path


def _clip_paths(path):
    p = pathlib.Path(path)
    if p.is_dir():
        found = sorted(q for q in p.glob("*.json")
                       if not q.name.endswith(".meta.json")
                       and not q.name.endswith("manifest.json"))
        if not found:
            raise FileNotFoundError(f"no clip files under {p}")
        return found
    if not p.exists():
        raise FileNotFoundError(f"{p} does not exist")
    return [p]


def _load_clips(path, sport, fps=None):
    return [data.load_clip(p, fps=fps, sport=sport) for p in _clip_paths(path)]


def _load_file_config(path):
    if path is None:
        return {}
    obj = json.loads(pathlib.Path(path).read_text("utf-8"))
    if not isinstance(obj, dict):
        raise ValueError("config file must hold a JSON object")
    return obj


def _train_config(args, task) -> TrainConfig:
    base = desk_forecast_config() if task == "forecast" else desk_event_config()
    merged = {**base.__dict__, **_load_file_config(args.config)}
    for key in merged:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    merged["task"] = task
    return TrainConfig(**merged)


def _float_list(text):
    return tuple(float(v) for v in text.split(",") if v)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_ingest(args):
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    inputs = _clip_paths(args.input)
    for p in inputs:
        clip = data.parse_clip(
            p.read_text("utf-8"), fps=args.fps, sport=args.sport,
            on_duplicate="collect" if args.repair_duplicates else "error")
        if args.repair_duplicates:
            clip = data.resolve_duplicates(clip)
        meta = p.with_suffix(".meta.json")
        if meta.exists():
            clip.metadata = json.loads(meta.read_text("utf-8"))
        target = out / p.name
        data.save_clip(clip, target)
        written.append(target)
        if (out / meta.name).exists():
            written.append(out / meta.name)
    write_manifest(out, "ingest", args.seed,
                   {"sport": args.sport, "fps": args.fps,
                    "repair_duplicates": args.repair_duplicates},
                   inputs, written)
    return 0


def cmd_resample(args):
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    inputs = _clip_paths(args.input)
    written = []
    for p in inputs:
        clip = data.load_clip(p, fps=args.fps_in, sport=args.sport)
        target = out / p.name
        data.save_clip(data.resample(clip, args.fps), target)
        written.append(target)
    write_manifest(out, "resample", args.seed,
                   {"fps": args.fps, "sport": args.sport}, inputs, written)
    return 0


def cmd_refine(args):
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    params = data.RefineParams(max_gap=args.max_gap, v_max=args.v_max,
                               anomaly_count=args.anomaly_count,
                               ema_gamma=args.gamma)
    inputs = _clip_paths(args.input)
    written = []
    for p in inputs:
        clip = data.load_clip(p, sport=args.sport, on_duplicate="collect")
        target = out / p.name
        data.save_clip(data.refine(clip, params), target)
        written.append(target)
    write_manifest(out, "refine", args.seed, params.__dict__, inputs, written)
    return 0


def _write_train_outputs(args, model, result, inputs):
    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_checkpoint(out, model.params, model.config.to_dict(),
                    extra={"task": result.config.task,
                           "best_epoch": result.best_epoch})
    log_path = out.with_name(out.stem + ".log.csv")
    log_path.write_text(result.log_csv(), "utf-8")
    write_manifest(out, args.command, result.config.seed,
                   result.config.__dict__, inputs, [out, log_path],
                   checkpoint=out)
    return 0


def cmd_train(args):
    cfg = _train_config(args, args.task)
    inputs = _clip_paths(args.data)
    clips = _load_clips(args.data, cfg.sport)
    split = split_clips(clips, args.valid_fraction, seed=cfg.seed)
    model, result = train(split, cfg)
    return _write_train_outputs(args, model, result, inputs)


def cmd_finetune(args):
    cfg = _train_config(args, args.task)
    inputs = _clip_paths(args.data) + [pathlib.Path(args.base)]
    clips = _load_clips(args.data, cfg.sport)
    if args.filter:
        setting, _, value = args.filter.partition("=")
        if not value:
            raise ValueError("--filter must look like league=NAME")
        clips = condition_tagging(clips, setting, value)
        cfg = TrainConfig(**{**cfg.__dict__,
                             "condition_setting": setting,
                             "condition_value": value})
    split = split_clips(clips, args.valid_fraction, seed=cfg.seed)
    model, result = finetune(args.base, split, cfg)
    return _write_train_outputs(args, model, result, inputs)


def _load_model(path, task):
    config, _, arrays = load_checkpoint(path)
    model = MODELS[task](ModelConfig.from_dict(config), Rng(0, ("load",)))
    assign_parameters(model.params, arrays)
    return model


def _rollout_inputs(args, model):
    """(history, truth future or None, RolloutConfig, schedule, manifest
    config, input paths) from the sampling options shared by `sample` and
    `forecast-event`."""
    n_players = model.config.n_players
    pitch = data.PitchSpec.for_sport(args.sport)
    history_path = pathlib.Path(args.history)
    clip = data.with_players_per_team(
        data.load_clip(history_path, sport=args.sport), n_players)
    hist = data.normalize(clip, pitch)
    config = RolloutConfig(
        window=args.window, history=len(clip) / clip.fps, horizon=args.horizon,
        samples=args.k, setting=args.setting, target_side=args.target_side,
        fps=clip.fps).validate()
    truth = None
    inputs = [history_path]
    if config.single_team:
        if not args.truth:
            raise ValueError(f"setting '{args.setting}' needs --truth")
        truth = data.normalize(data.with_players_per_team(
            data.load_clip(args.truth, sport=args.sport), n_players), pitch)
        inputs.append(pathlib.Path(args.truth))
    schedule = make_schedule(args.steps, args.beta_start, args.beta_end)
    manifest_config = {**config.__dict__, "steps": args.steps,
                       "beta_start": args.beta_start, "beta_end": args.beta_end}
    return hist, truth, config, schedule, manifest_config, inputs


def cmd_sample(args):
    model = _load_model(args.checkpoint, "forecast")
    hist, truth, config, schedule, manifest_config, inputs = \
        _rollout_inputs(args, model)
    rng = Rng(args.seed, ("sample",))
    sample_set = rollout(hist, config, model, schedule, rng, truth_future=truth)

    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stem = pathlib.Path(args.history).stem
    written = []
    clips_out = sample_set.to_clips(
        sport=args.sport,
        metadata={"players_per_team": model.config.n_players, "stem": stem})
    for i, clip_out in enumerate(clips_out):
        clip_out.metadata["sample_index"] = i
        target = out / f"{stem}_k{i}.json"
        data.save_clip(clip_out, target)
        written.append(target)
        written.append(target.with_suffix(".meta.json"))
    write_manifest(out, "sample", args.seed, manifest_config, inputs, written,
                   checkpoint=args.checkpoint)
    return 0


def _fmt10(v):
    return f"{v:.10g}"


def cmd_evaluate_traj(args):
    pred_dir = pathlib.Path(args.pred)
    truth_dir = pathlib.Path(args.truth)
    horizons = _float_list(args.horizons)
    out = pathlib.Path(args.out or pred_dir)
    out.mkdir(parents=True, exist_ok=True)

    truth_paths = {p.stem: p for p in _clip_paths(truth_dir)}
    groups = {}
    for p in _clip_paths(pred_dir):
        stem, _, k = p.stem.rpartition("_k")
        if not k.isdigit() or stem not in truth_paths:
            continue
        groups.setdefault(stem, []).append((int(k), p))
    if not groups:
        raise ValueError("no prediction files matching truth clips")

    geo_reports = []
    struct_reports = []
    inputs = []
    for stem, entries in sorted(groups.items()):
        entries.sort()
        samples = []
        for _, p in entries[: args.k]:
            clip = data.load_clip(p, sport=args.sport)
            samples.append(data.clip_to_segment(clip))
            inputs.append(p)
        truth_clip = data.load_clip(truth_paths[stem], sport=args.sport)
        inputs.append(truth_paths[stem])
        truth_seg = data.clip_to_segment(truth_clip)
        T = len(samples[0])
        truth_coords = truth_seg.coords[-T:]
        history_last = truth_seg.coords[-T - 1] if len(truth_seg) > T else None
        fps = truth_clip.fps
        sample_coords = [s.coords for s in samples]
        geo_reports.append(metrics.aggregate_over_k(
            sample_coords, truth_coords, fps, horizons))
        struct_reports.append(metrics.structure_deviation(
            sample_coords, truth_coords, fps, truth_clip.players_per_team,
            horizons, history_last=history_last))

    geo = metrics.average_geometric_reports(geo_reports)
    rows = ["horizon_s,aggregate,ADE,FDE,dSI,dSA,dTW,dTL,dFN,dCD,dSO"]
    for h in horizons:
        for agg, geo_idx in (("min", 0), ("avg", 1)):
            g = geo.row(h)
            ade_v, fde_v = (g[0], g[2]) if agg == "min" else (g[1], g[3])
            struct_avg = []
            for m in metrics.STRUCTURE_METRICS:
                vals = [r[h][m][geo_idx] for r in struct_reports]
                struct_avg.append(float(np.mean(vals)))
            rows.append(",".join([_fmt10(h), agg, _fmt10(ade_v), _fmt10(fde_v),
                                  *(_fmt10(v) for v in struct_avg)]))
    report_path = out / "trajectory_report.csv"
    report_path.write_text("\n".join(rows) + "\n", "utf-8")
    write_manifest(out, "evaluate-traj", args.seed,
                   {"k": args.k, "horizons": list(horizons)},
                   inputs, [report_path])
    print(report_path)
    return 0


def cmd_evaluate_event(args):
    model = _load_model(args.checkpoint, "event")
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    inputs = _clip_paths(args.data)
    clips = [data.with_players_per_team(c, model.config.n_players)
             for c in _load_clips(args.data, args.sport)]

    taxonomy = model.taxonomy
    predictions, labels, rows, records = [], [], [], []
    header = (["clip", "true_type", "true_subtype"]
              + [f"p_type_{t}" for t in taxonomy.types]
              + [f"p_{s}" for s in taxonomy.all_subtypes]
              + ["pred_type", "pred_subtype", "type_hit@1", "subtype_hit@1",
                 "subtype_hit@3", "subtype_hit@5"])
    rows.append(",".join(header))
    for path, clip in zip(inputs, clips):
        pred = ground_event(clip, model)
        true_type = clip.metadata.get("event_type", "")
        true_sub = clip.metadata.get("event_subtype", "")
        hits = ["", "", "", ""]
        if true_type and true_sub:
            predictions.append(pred)
            labels.append((true_type, true_sub))
            si = taxonomy.combined_index(true_sub)
            order = np.argsort(-pred.combined)
            hits = [str(int(pred.predicted_type == true_type)),
                    str(int(si == order[0])),
                    str(int(si in order[:3])),
                    str(int(si in order[:5]))]
        rows.append(",".join(
            [path.stem, true_type, true_sub]
            + [_fmt10(v) for v in pred.type_probs]
            + [_fmt10(v) for v in pred.combined]
            + [pred.predicted_type, pred.predicted_subtype] + hits))
        records.append({
            "clip": path.stem, "true_type": true_type, "true_subtype": true_sub,
            "type_probs": [float(v) for v in pred.type_probs],
            "combined_probs": [float(v) for v in pred.combined],
            "predicted_type": pred.predicted_type,
            "predicted_subtype": pred.predicted_subtype,
        })

    pred_csv = out / "predictions.csv"
    pred_csv.write_text("\n".join(rows) + "\n", "utf-8")
    pred_json = out / "predictions.json"
    pred_json.write_text(json.dumps(records, indent=1, sort_keys=True), "utf-8")
    written = [pred_csv, pred_json]

    if predictions:
        report = metrics.event_metrics(predictions, labels, taxonomy)
        lines = ["metric,key,value"]
        for k, v in report.type_accuracy.items():
            lines.append(f"type_accuracy,@{k},{_fmt10(v)}")
        for k, v in report.subtype_accuracy.items():
            lines.append(f"subtype_accuracy,@{k},{_fmt10(v)}")
        for k, d in report.type_recall.items():
            for t, v in d.items():
                lines.append(f"type_recall@{k},{t},{_fmt10(v)}")
            lines.append(f"type_recall@{k},macro,{_fmt10(report.type_macro_recall[k])}")
        for k, d in report.subtype_recall.items():
            for s, v in d.items():
                if not np.isnan(v):
                    lines.append(f"subtype_recall@{k},{s},{_fmt10(v)}")
            lines.append(f"subtype_recall@{k},macro,{_fmt10(report.subtype_macro_recall[k])}")
        lines.append(f"type_precision@1,macro,{_fmt10(report.type_macro_precision)}")
        lines.append(f"type_f1@1,macro,{_fmt10(report.type_macro_f1)}")
        metrics_csv = out / "event_metrics.csv"
        metrics_csv.write_text("\n".join(lines) + "\n", "utf-8")
        written.append(metrics_csv)

    write_manifest(out, "evaluate-event", args.seed, {"sport": args.sport},
                   inputs, written, checkpoint=args.checkpoint)
    print(pred_csv)
    return 0


def cmd_forecast_event(args):
    traj_model = _load_model(args.checkpoint, "forecast")
    event_model = _load_model(args.event_checkpoint, "event")
    hist, truth, config, schedule, manifest_config, inputs = \
        _rollout_inputs(args, traj_model)
    summary = forecast_event(hist, config, traj_model, schedule, event_model,
                             Rng(args.seed, ("forecast-event",)),
                             truth_future=truth,
                             event_input_frames=args.event_frames)
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    lines = ["subtype,median,p10,p90,min,max"]
    for j, name in enumerate(summary.subtype_labels):
        lines.append(",".join([name, _fmt10(summary.median[j]),
                               _fmt10(summary.p10[j]), _fmt10(summary.p90[j]),
                               _fmt10(summary.minimum[j]),
                               _fmt10(summary.maximum[j])]))
    summary_path = out / "event_forecast.csv"
    summary_path.write_text("\n".join(lines) + "\n", "utf-8")
    write_manifest(out, "forecast-event", args.seed,
                   {**manifest_config, "event_frames": args.event_frames},
                   [*inputs, pathlib.Path(args.event_checkpoint)],
                   [summary_path], checkpoint=args.checkpoint)
    print(summary_path)
    return 0


def cmd_make_fixtures(args):
    kwargs = {}
    if args.players is not None:
        kwargs["n_players"] = args.players
    if args.duration is not None and args.kind != "two-style-league":
        kwargs["duration_s"] = args.duration
    if args.jitter is not None and args.kind != "circular":
        kwargs["jitter"] = args.jitter
    paths = fixtures.make_fixture_set(args.kind, args.n, args.out,
                                      seed=args.seed, **kwargs)
    out = pathlib.Path(args.out)
    meta_paths = [p.with_suffix(".meta.json") for p in paths
                  if p.with_suffix(".meta.json").exists()]
    write_manifest(out, "make-fixtures", args.seed,
                   {"kind": args.kind, "n": args.n, **kwargs},
                   [], paths + meta_paths)
    print(out)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="gentac",
        description="generative multi-agent trajectory engine for team sports")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--sport", default="soccer", choices=sorted(data.SPORTS))

    p = sub.add_parser("ingest", help="canonicalize raw clip files")
    common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--fps", type=float, default=25.0)
    p.add_argument("--repair-duplicates", action="store_true")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("resample", help="linear temporal resampling")
    common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--fps", type=float, required=True)
    p.add_argument("--fps-in", type=float, default=None)
    p.set_defaults(func=cmd_resample)

    p = sub.add_parser("refine", help="repair and smooth tracking")
    common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--max-gap", type=int, default=12)
    p.add_argument("--v-max", type=float, default=12.0)
    p.add_argument("--anomaly-count", type=int, default=3)
    p.add_argument("--gamma", type=float, default=0.85)
    p.set_defaults(func=cmd_refine)

    def train_opts(p):
        common(p)
        p.add_argument("--data", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--config", default=None,
                       help="JSON file of TrainConfig fields")
        p.add_argument("--valid-fraction", type=float, default=0.2)
        for key, typ in (("lr_peak", float), ("epochs", int),
                         ("batch_size", int), ("d", int), ("layers", int),
                         ("heads", int), ("n_players", int), ("l_max", int),
                         ("history_frames", int), ("window_frames", int),
                         ("max_history_frames", int),
                         ("early_stop_patience", int),
                         ("diffusion_steps", int)):
            p.add_argument(f"--{key.replace('_', '-')}", dest=key, type=typ,
                           default=None)

    p = sub.add_parser("train-traj", help="train the diffusion forecaster")
    train_opts(p)
    p.set_defaults(func=cmd_train, task="forecast")

    p = sub.add_parser("train-event", help="train the event classifier")
    train_opts(p)
    p.set_defaults(func=cmd_train, task="event")

    p = sub.add_parser("finetune", help="continue training from a checkpoint")
    train_opts(p)
    p.add_argument("--task", choices=sorted(MODELS), default="forecast")
    p.add_argument("--base", required=True)
    p.add_argument("--filter", default=None,
                   help="subset filter, e.g. league=alpha or objective=offense")
    p.set_defaults(func=cmd_finetune)

    def sampling_opts(p):
        common(p)
        p.add_argument("--history", required=True, help="clip file; the whole file is the observed context")
        p.add_argument("--checkpoint", required=True)
        p.add_argument("--window", type=float, default=0.2)
        p.add_argument("--horizon", type=float, required=True)
        p.add_argument("--k", type=int, default=20)
        p.add_argument("--setting", default="unconditioned",
                       choices=("unconditioned", "opponent", "team", "league",
                                "objective"))
        p.add_argument("--target-side", type=int, default=None)
        p.add_argument("--truth", default=None,
                       help="aligned future clip for single-team settings")
        p.add_argument("--steps", type=int, default=100)
        p.add_argument("--beta-start", type=float, default=1e-4)
        p.add_argument("--beta-end", type=float, default=0.02)

    p = sub.add_parser("sample", help="roll out K stochastic futures")
    sampling_opts(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("evaluate-traj", help="geometric + structural report")
    common(p)
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--k", type=int, default=20)
    p.add_argument("--horizons", default="1,2,3,4,5")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_evaluate_traj)

    p = sub.add_parser("evaluate-event", help="ground clips and score them")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate_event)

    p = sub.add_parser("forecast-event",
                       help="sample futures and classify each one")
    sampling_opts(p)
    p.add_argument("--event-checkpoint", required=True)
    p.add_argument("--event-frames", type=int, default=100)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_forecast_event)

    p = sub.add_parser("make-fixtures", help="generate synthetic clip sets")
    common(p)
    p.add_argument("--kind", required=True,
                   choices=sorted(fixtures.FIXTURE_KINDS))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--players", type=int, default=None)
    p.add_argument("--duration", type=float, default=None)
    p.add_argument("--jitter", type=float, default=None)
    p.set_defaults(func=cmd_make_fixtures)

    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 1
    except Exception as e:  # single-line diagnostic, non-zero exit
        print(f"gentac: error: {e}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    code = run(sys.argv[1:] if argv is None else argv)
    if argv is None:
        sys.exit(code)
    return code
