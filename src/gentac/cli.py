"""The ``gentac`` command line: ingest/refine data, train, sample, evaluate.

Every subcommand validates its paths up front, runs exactly one action, and
writes a manifest next to its outputs recording the seed (null for the
commands that draw no random numbers, which take no --seed), the effective
config hash, git-style content hashes of every file it read, the
checkpoint hash when one is involved, and every file it wrote; clip
sidecars count among both. Outputs carry no timestamps, so identical
manifests mean byte-identical outputs.

Each job has one path: `ingest`, `resample` and `refine` share one per-clip
loop; `train-traj`, `train-event` and `finetune` share one train command,
and finetune takes its task and geometry from the `--base` checkpoint; every
command that reads a checkpoint loads it through `training.load_model`.

A forecaster's checkpoint carries the noise schedule and window it was
trained on (`training.SAMPLING_CONTRACT`): `sample` and `forecast-event` use
them and take no flag for either, and `finetune` keeps them.

`sample` and `forecast-event` generate both sides, or with `--target-side`
one, on the other side's and the ball's true future from `--truth` (each
flag needs the other); styles come from `finetune --filter`.

Exit codes: 0 success, 1 runtime failure (single-line diagnostic on stderr),
2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import pathlib
import sys

import numpy as np

from . import __version__, data, fixtures, metrics
from .diffusion import RolloutConfig, condition_tagging, rollout
from .events import TAXONOMY, forecast_event, ground_event
from .rng import Rng
from .training import SAMPLING_CONTRACT, TrainConfig, desk_event_config, \
    desk_forecast_config, finetune, load_model, save_model, split_clips, train


def git_blob_hash(path) -> str:
    """sha1 of "blob <size>\\0" + content, as git computes it."""
    blob = pathlib.Path(path).read_bytes()
    h = hashlib.sha1()
    h.update(f"blob {len(blob)}\0".encode("ascii"))
    h.update(blob)
    return h.hexdigest()


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
        "config_hash": hashlib.sha256(json.dumps(
            config, sort_keys=True, default=str).encode("utf-8")).hexdigest(),
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


def _with_sidecars(clip_paths):
    """The clip paths, each followed by the sidecar `data.load_clip` read
    beside it, when one exists: a manifest's inputs for those clips."""
    paths = []
    for p in clip_paths:
        paths.append(p)
        if data.sidecar_path(p).exists():
            paths.append(data.sidecar_path(p))
    return paths


# the TrainConfig fields that only forecaster training reads
_FORECAST_ONLY = ("history_frames", "max_history_frames", "fixed_start",
                  *SAMPLING_CONTRACT)


def _train_config(args, fixed) -> TrainConfig:
    """The task's desk config, then the fields a base checkpoint `fixed`
    (at least the task), then the `--config` file, then the flags given."""
    task = fixed["task"]
    desk = desk_forecast_config() if task == "forecast" else desk_event_config()
    merged = {**desk.__dict__, **fixed}
    if args.config is not None:
        file_config = json.loads(pathlib.Path(args.config).read_text("utf-8"))
        if not isinstance(file_config, dict):
            raise ValueError(f"{args.config} must hold a JSON object")
        for key in file_config:
            if key not in merged:
                raise ValueError(f"{args.config}: unknown config key '{key}'")
            if task == "event" and key in _FORECAST_ONLY:
                raise ValueError(f"{args.config}: the event task takes no "
                                 f"forecaster key '{key}'")
        merged.update(file_config)
    for key in merged:
        value = getattr(args, key, None)
        if value is not None:
            if task == "event" and key in _FORECAST_ONLY:
                raise ValueError(f"{args.base} holds an event model, which "
                                 f"takes no --{key.replace('_', '-')}")
            merged[key] = value
    merged["task"] = task
    return TrainConfig(**merged)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _map_clips(args, config, transform, fps, on_duplicate):
    """Write `transform(clip)` of every input clip under `args.out`, with a
    manifest listing every file written, sidecars included. `args.out` is
    made once every clip is transformed: a clip that fails writes nothing."""
    inputs = _clip_paths(args.input)
    clips = [transform(data.load_clip(p, fps=fps, sport=args.sport,
                                      on_duplicate=on_duplicate))
             for p in inputs]
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for p, clip in zip(inputs, clips):
        written += data.save_clip(clip, out / p.name)
    write_manifest(out, args.command, None, config,
                   _with_sidecars(inputs), written)
    return 0


def cmd_ingest(args):
    repair = args.repair_duplicates
    return _map_clips(
        args, {"sport": args.sport, "fps": args.fps, "repair_duplicates": repair},
        data.resolve_duplicates if repair else (lambda clip: clip),
        args.fps, "collect" if repair else "error")


def cmd_resample(args):
    return _map_clips(args, {"fps": args.fps, "sport": args.sport},
                      lambda clip: data.resample(clip, args.fps),
                      args.fps_in, "error")


def cmd_refine(args):
    params = data.RefineParams(max_gap=args.max_gap, v_max=args.v_max,
                               anomaly_count=args.anomaly_count,
                               ema_gamma=args.gamma)
    return _map_clips(args, params.__dict__,
                      lambda clip: data.refine(clip, params), None, "collect")


def cmd_train(args):
    """`train-traj`, `train-event` and `finetune`; finetune reads its task,
    geometry and a forecaster's schedule and window from `--base`."""
    finetuning = args.command == "finetune"
    base, fixed = load_model(args.base, None) if finetuning else \
        (None, {"task": args.task})
    cfg = _train_config(args, fixed)
    clip_paths = _clip_paths(args.data)
    clips = [data.load_clip(p, sport=cfg.sport) for p in clip_paths]
    inputs = _with_sidecars(clip_paths)
    if finetuning and args.filter:
        setting, _, value = args.filter.partition("=")
        if not value:
            raise ValueError("--filter must look like league=NAME")
        clips = condition_tagging(clips, setting, value)
    split = split_clips(clips, args.valid_fraction, seed=cfg.seed)
    manifest_config = dict(cfg.__dict__)
    if finetuning:
        model, result = finetune(base, fixed, split, cfg)
        inputs.append(pathlib.Path(args.base))
        manifest_config["filter"] = args.filter
    else:
        model, result = train(split, cfg)

    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_model(out, model, result)
    log_path = out.with_name(out.stem + ".log.csv")
    log_path.write_text(result.log_csv(), "utf-8")
    write_manifest(out, args.command, cfg.seed, manifest_config, inputs,
                   [out, log_path], checkpoint=out)
    return 0


def _rollout_inputs(args, model, fixed):
    """(history, truth future or None, RolloutConfig, schedule, manifest
    config, input paths) from the sampling options shared by `sample` and
    `forecast-event`, and the schedule and window the checkpoint `fixed`."""
    if args.target_side is not None and args.truth is None:
        raise ValueError("--target-side needs --truth, the future it conditions on")
    if args.truth is not None and args.target_side is None:
        raise ValueError("--truth needs --target-side, the side to generate")
    if "task" not in fixed:
        raise ValueError(f"{args.checkpoint} records no task, so no schedule or "
                         f"window; sampling needs one written by train-traj")
    trained = TrainConfig(**fixed)
    n_players = model.config.n_players
    pitch = data.PitchSpec.for_sport(args.sport)
    history_path = pathlib.Path(args.history)
    clip = data.with_players_per_team(
        data.load_clip(history_path, sport=args.sport), n_players)
    hist = data.normalize(clip, pitch)
    config = RolloutConfig(
        window=trained.window_frames / clip.fps, history=len(clip) / clip.fps,
        horizon=args.horizon, samples=args.k,
        setting="unconditioned" if args.target_side is None else "opponent",
        target_side=args.target_side, fps=clip.fps).validate()
    truth = None
    inputs = [history_path]
    if config.single_team:
        truth = data.normalize(data.with_players_per_team(
            data.load_clip(args.truth, sport=args.sport), n_players), pitch)
        inputs.append(pathlib.Path(args.truth))
    manifest_config = {**config.__dict__, "steps": trained.diffusion_steps,
                       "beta_start": trained.beta_start,
                       "beta_end": trained.beta_end}
    return (hist, truth, config, trained.schedule(), manifest_config,
            _with_sidecars(inputs))


def cmd_sample(args):
    model, fixed = load_model(args.checkpoint, "forecast")
    hist, truth, config, schedule, manifest_config, inputs = \
        _rollout_inputs(args, model, fixed)
    sample_set = rollout(hist, config, model, schedule,
                         Rng(args.seed, ("sample",)), truth_future=truth)

    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stem = pathlib.Path(args.history).stem
    written = []
    clips_out = sample_set.to_clips(
        sport=args.sport,
        metadata={"players_per_team": model.config.n_players, "stem": stem})
    for i, clip_out in enumerate(clips_out):
        clip_out.metadata["sample_index"] = i
        written += data.save_clip(clip_out, out / f"{stem}_k{i}.json")
    write_manifest(out, "sample", args.seed, manifest_config, inputs, written,
                   checkpoint=args.checkpoint)
    return 0


def _fmt10(v):
    return f"{v:.10g}"


def cmd_evaluate_traj(args):
    pred_dir = pathlib.Path(args.pred)
    horizons = tuple(float(v) for v in args.horizons.split(",") if v)
    if args.k < 1:
        raise ValueError(f"--k must be at least 1, got {args.k}")
    if not horizons:
        raise ValueError(f"--horizons must list at least one horizon, "
                         f"got '{args.horizons}'")
    truth_paths = {p.stem: p for p in _clip_paths(args.truth)}
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
        if len(entries) < args.k:
            raise ValueError(f"{stem} has {len(entries)} predictions, "
                             f"fewer than --k {args.k}")
        paths = [p for _, p in sorted(entries)[:args.k]]
        sample_coords = [data.clip_to_segment(
            data.load_clip(p, sport=args.sport)).coords for p in paths]
        truth_clip = data.load_clip(truth_paths[stem], sport=args.sport)
        inputs += [*paths, truth_paths[stem]]
        truth_seg = data.clip_to_segment(truth_clip)
        T = len(sample_coords[0])
        truth_coords = truth_seg.coords[-T:]
        history_last = truth_seg.coords[-T - 1] if len(truth_seg) > T else None
        geo_reports.append(metrics.aggregate_over_k(
            sample_coords, truth_coords, truth_clip.fps, horizons))
        struct_reports.append(metrics.structure_deviation(
            sample_coords, truth_coords, truth_clip.fps,
            truth_clip.players_per_team,
            horizons, history_last=history_last))

    geo = metrics.average_geometric_reports(geo_reports)
    rows = ["horizon_s,aggregate,ADE,FDE,dSI,dSA,dTW,dTL,dFN,dCD,dSO"]
    for h in horizons:
        g = geo.row(h)  # minADE, avgADE, minFDE, avgFDE
        for agg, i in (("min", 0), ("avg", 1)):
            struct_avg = [float(np.mean([r[h][m][i] for r in struct_reports]))
                          for m in metrics.STRUCTURE_METRICS]
            rows.append(",".join([_fmt10(h), agg, _fmt10(g[i]), _fmt10(g[i + 2]),
                                  *map(_fmt10, struct_avg)]))
    out = pathlib.Path(args.out or pred_dir)
    out.mkdir(parents=True, exist_ok=True)
    report_path = out / "trajectory_report.csv"
    report_path.write_text("\n".join(rows) + "\n", "utf-8")
    write_manifest(out, "evaluate-traj", None,
                   {"k": args.k, "horizons": list(horizons)},
                   _with_sidecars(inputs), [report_path])
    print(report_path)
    return 0


def cmd_evaluate_event(args):
    model, _ = load_model(args.checkpoint, "event")
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    inputs = _clip_paths(args.data)
    clips = [data.with_players_per_team(data.load_clip(p, sport=args.sport),
                                        model.config.n_players)
             for p in inputs]

    predictions, labels, records = [], [], []
    rows = [",".join(["clip", "true_type", "true_subtype",
                      *(f"p_type_{t}" for t in TAXONOMY.types),
                      *(f"p_{s}" for s in TAXONOMY.all_subtypes),
                      "pred_type", "pred_subtype", "type_hit@1",
                      "subtype_hit@1", "subtype_hit@3", "subtype_hit@5"])]
    for path, clip in zip(inputs, clips):
        pred = ground_event(clip, model)
        true_type = clip.metadata.get("event_type", "")
        true_sub = clip.metadata.get("event_subtype", "")
        hits = ["", "", "", ""]
        if true_type and true_sub:
            predictions.append(pred)
            labels.append((true_type, true_sub))
            si = TAXONOMY.combined_index(true_sub)
            hits = [str(int(pred.predicted_type == true_type))] + [
                str(metrics.topk_hit(pred.combined, si, k)) for k in (1, 3, 5)]
        records.append({
            "clip": path.stem, "true_type": true_type, "true_subtype": true_sub,
            "type_probs": [float(v) for v in pred.type_probs],
            "combined_probs": [float(v) for v in pred.combined],
            "predicted_type": pred.predicted_type,
            "predicted_subtype": pred.predicted_subtype,
        })
        probs = records[-1]["type_probs"] + records[-1]["combined_probs"]
        rows.append(",".join([path.stem, true_type, true_sub, *map(_fmt10, probs),
                              pred.predicted_type, pred.predicted_subtype, *hits]))

    pred_csv = out / "predictions.csv"
    pred_csv.write_text("\n".join(rows) + "\n", "utf-8")
    pred_json = out / "predictions.json"
    pred_json.write_text(json.dumps(records, indent=1, sort_keys=True), "utf-8")
    written = [pred_csv, pred_json]

    if predictions:
        report = metrics.event_metrics(predictions, labels)
        lines = ["metric,key,value"]
        for name, by_k in (("type_accuracy", report.type_accuracy),
                           ("subtype_accuracy", report.subtype_accuracy)):
            lines += [f"{name},@{k},{_fmt10(v)}" for k, v in by_k.items()]
        # a subtype with no labelled clip has no recall row; a type keeps its nan
        for name, by_k, macro in (
                ("type_recall", report.type_recall, report.type_macro_recall),
                ("subtype_recall", report.subtype_recall,
                 report.subtype_macro_recall)):
            for k, per_class in by_k.items():
                lines += [f"{name}@{k},{c},{_fmt10(v)}"
                          for c, v in per_class.items()
                          if name == "type_recall" or not np.isnan(v)]
                lines.append(f"{name}@{k},macro,{_fmt10(macro[k])}")
        lines.append(f"type_precision@1,macro,{_fmt10(report.type_macro_precision)}")
        lines.append(f"type_f1@1,macro,{_fmt10(report.type_macro_f1)}")
        metrics_csv = out / "event_metrics.csv"
        metrics_csv.write_text("\n".join(lines) + "\n", "utf-8")
        written.append(metrics_csv)

    write_manifest(out, "evaluate-event", None, {"sport": args.sport},
                   _with_sidecars(inputs), written, checkpoint=args.checkpoint)
    print(pred_csv)
    return 0


def cmd_forecast_event(args):
    traj_model, fixed = load_model(args.checkpoint, "forecast")
    event_model, _ = load_model(args.event_checkpoint, "event")
    hist, truth, config, schedule, manifest_config, inputs = \
        _rollout_inputs(args, traj_model, fixed)
    summary = forecast_event(hist, config, traj_model, schedule, event_model,
                             Rng(args.seed, ("forecast-event",)),
                             truth_future=truth,
                             event_input_frames=args.event_frames)
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    columns = (summary.median, summary.p10, summary.p90, summary.minimum,
               summary.maximum)
    lines = ["subtype,median,p10,p90,min,max"] + [
        ",".join([name, *(_fmt10(c[j]) for c in columns)])
        for j, name in enumerate(summary.subtype_labels)]
    summary_path = out / "event_forecast.csv"
    summary_path.write_text("\n".join(lines) + "\n", "utf-8")
    write_manifest(out, "forecast-event", args.seed,
                   {**manifest_config, "event_frames": args.event_frames},
                   [*inputs, pathlib.Path(args.event_checkpoint)],
                   [summary_path], checkpoint=args.checkpoint)
    print(summary_path)
    return 0


def cmd_make_fixtures(args):
    """A flag the kind's generator has no parameter for is an error, and so
    is an empty scene: the generators reject no players, `make_fixture_set`
    no frames."""
    accepted = inspect.signature(fixtures.FIXTURE_KINDS[args.kind]).parameters
    kwargs = {}
    for flag, key in (("players", "n_players"), ("duration", "duration_s"),
                      ("jitter", "jitter")):
        value = getattr(args, flag)
        if value is None:
            continue
        if key not in accepted:
            raise ValueError(f"--{flag} does not apply to --kind {args.kind}")
        kwargs[key] = value
    paths = fixtures.make_fixture_set(args.kind, args.n, args.out,
                                      seed=args.seed, **kwargs)
    out = pathlib.Path(args.out)
    write_manifest(out, "make-fixtures", args.seed,
                   {"kind": args.kind, "n": args.n, **kwargs},
                   [], _with_sidecars(paths))
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

    # no abbreviations: `finetune --d 8` would otherwise set --data
    def command(name, func, help, *option_groups):
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.set_defaults(func=func)
        for add in option_groups:
            add(p)
        return p

    # --seed only where random numbers are drawn: fixtures, training, sampling
    def seed_opt(p):
        p.add_argument("--seed", type=int, default=0)

    def sport_opt(p):
        p.add_argument("--sport", default="soccer", choices=sorted(data.SPORTS))

    def clip_io(p):
        p.add_argument("--input", required=True)
        p.add_argument("--out", required=True)

    p = command("ingest", cmd_ingest, "canonicalize raw clip files", sport_opt,
                clip_io)
    p.add_argument("--fps", type=float, default=25.0)
    p.add_argument("--repair-duplicates", action="store_true")

    p = command("resample", cmd_resample, "linear temporal resampling",
                sport_opt, clip_io)
    p.add_argument("--fps", type=float, required=True)
    p.add_argument("--fps-in", type=float, default=None)

    p = command("refine", cmd_refine, "repair and smooth tracking", sport_opt,
                clip_io)
    p.add_argument("--max-gap", type=int, default=12)
    p.add_argument("--v-max", type=float, default=12.0)
    p.add_argument("--anomaly-count", type=int, default=3)
    p.add_argument("--gamma", type=float, default=0.85)

    def train_opts(p, *flags):
        seed_opt(p)
        sport_opt(p)
        p.set_defaults(seed=None, sport=None)  # unset: the config's value
        p.add_argument("--data", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--config", default=None,
                       help="JSON file of TrainConfig fields; flags given "
                            "on the command line override it")
        p.add_argument("--valid-fraction", type=float, default=0.2)
        for key, typ in (("lr_peak", float), ("epochs", int),
                         ("batch_size", int), ("early_stop_patience", int),
                         *flags):
            p.add_argument(f"--{key.replace('_', '-')}", dest=key, type=typ,
                           default=None)

    # a finetune keeps its base's geometry, window and schedule; the event
    # task reads no history length
    geometry_flags = (("d", int), ("layers", int), ("heads", int),
                      ("n_players", int), ("l_max", int))
    history_flags = (("history_frames", int), ("max_history_frames", int))
    p = command("train-traj", cmd_train, "train the diffusion forecaster")
    train_opts(p, *geometry_flags, *history_flags, ("window_frames", int),
               ("diffusion_steps", int))
    p.set_defaults(task="forecast")

    p = command("train-event", cmd_train, "train the event classifier")
    train_opts(p, *geometry_flags)
    p.set_defaults(task="event")

    # the task comes from --base: _train_config rejects these on an event one
    p = command("finetune", cmd_train, "continue training from a checkpoint")
    train_opts(p, *history_flags)
    p.add_argument("--base", required=True,
                   help="checkpoint whose task, geometry, schedule and window "
                        "to continue")
    p.add_argument("--filter", default=None,
                   help="subset filter, e.g. league=alpha or objective=offense")

    def sampling_opts(p):
        seed_opt(p)
        sport_opt(p)
        p.add_argument("--history", required=True, help="clip file; the whole file is the observed context")
        p.add_argument("--checkpoint", required=True)
        p.add_argument("--horizon", type=float, required=True)
        p.add_argument("--k", type=int, default=20)
        p.add_argument("--target-side", type=int, default=None, choices=(0, 1),
                       help="generate this side only, conditioned on --truth")
        p.add_argument("--truth", default=None,
                       help="aligned future clip; its other side and ball "
                            "condition a --target-side rollout")

    p = command("sample", cmd_sample, "roll out K stochastic futures",
                sampling_opts)
    p.add_argument("--out", required=True)

    p = command("evaluate-traj", cmd_evaluate_traj,
                "geometric + structural report", sport_opt)
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--k", type=int, default=20)
    p.add_argument("--horizons", default="1,2,3,4,5")
    p.add_argument("--out", default=None)

    p = command("evaluate-event", cmd_evaluate_event,
                "ground clips and score them", sport_opt)
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)

    p = command("forecast-event", cmd_forecast_event,
                "sample futures and classify each one", sampling_opts)
    p.add_argument("--event-checkpoint", required=True)
    p.add_argument("--event-frames", type=int, default=100)
    p.add_argument("--out", required=True)

    # the generators draw soccer-scale geometry, so there is no --sport
    p = command("make-fixtures", cmd_make_fixtures,
                "generate synthetic clip sets", seed_opt)
    p.add_argument("--kind", required=True,
                   choices=sorted(fixtures.FIXTURE_KINDS))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--players", type=int, default=None)
    p.add_argument("--duration", type=float, default=None)
    p.add_argument("--jitter", type=float, default=None)

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
