"""The benchmark's tracer (perfbench/tracing.py) wraps gentac's entry points
by name, so merging, renaming or bypassing one silently zeroes its per-layer
metric. Run the training loop, a rollout and the evaluate path under the
tracer and check their spans."""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

# run in a fresh interpreter: the tracer rebinds names in gentac's modules;
# {body} fills `names` with the span names each traced run recorded
SCRIPT = """
import json, sys
sys.path[:0] = [{src!r}, {perfbench!r}]
import gentac
# the tracer reaches each module as an attribute of the package
from gentac import (autodiff, backbone, data, diffusion, events, metrics,
                    rng, training)
from gentac.fixtures import constant_velocity_clips, event_class_clips
import tracing

tracer = tracing.Tracer()
tracing.install(tracer, gentac)
names = {{}}
{body}
print(json.dumps(names))
"""

TRAIN_BODY = """
for task, clips, config in (
        ("forecast", constant_velocity_clips(6, seed=1, duration_s=1.0),
         training.desk_forecast_config(
             d=8, layers=1, heads=2, n_players=3, l_max=40, epochs=1,
             batch_size=4, history_frames=10, window_frames=5,
             max_history_frames=10)),
        ("event", event_class_clips(6, seed=2, duration_s=0.6),
         training.desk_event_config(
             d=8, layers=1, heads=2, n_players=3, l_max=15, epochs=1,
             batch_size=4))):
    tracer.spans.clear()
    training.train(training.split_clips(clips, 0.3, seed=0), config)
    names[task] = sorted({span[2] for span in tracer.spans})
"""

SAMPLE_BODY = """
model = backbone.TrajectoryModel(
    backbone.ModelConfig(d=8, layers=1, heads=2, n_players=3, l_max=40),
    rng.Rng(4))
clip = constant_velocity_clips(1, seed=5, duration_s=1.0)[0]
segment = data.normalize(data.clip_to_segment(clip),
                         data.PitchSpec.for_sport("soccer"))
history, _ = data.window(segment, 0, 10, 10)
config = diffusion.RolloutConfig(window=0.2, history=0.4, horizon=0.4,
                                 samples=2)
tracer.spans.clear()
diffusion.rollout(history, config, model, diffusion.make_schedule(3),
                  rng.Rng(6, ("sample",)))
names["sample"] = sorted({span[2] for span in tracer.spans})
names["predict_noise_calls"] = sum(span[2] == "backbone.predict_noise"
                                   for span in tracer.spans)
"""

EVALUATE_BODY = """
clip = constant_velocity_clips(1, seed=3, duration_s=1.0)[0]
n = clip.players_per_team
coords = data.clip_to_segment(data.refine(clip)).coords
metrics.structure_deviation([coords[1:]], coords[1:], clip.fps, n,
                            horizons=(0.5,), history_last=coords[0])
epv = metrics.synthetic_epv(data.PitchSpec())
now, vel = coords[-1], (coords[-1] - coords[-2]) * clip.fps
att, dfn = now[:n], now[n:2 * n]
metrics.obet(att, dfn, epv)
metrics.depth_threat(att, dfn, epv)
metrics.width_threat(att, dfn, epv)
metrics.dominant_region(dfn, att, vel[n:2 * n], vel[:n], epv.pitch)
names["evaluate"] = sorted({span[2] for span in tracer.spans})
"""


def traced_span_names(body):
    script = SCRIPT.format(src=str(ROOT / "src"),
                           perfbench=str(ROOT / "perfbench"), body=body)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_tracer_records_training_spans_for_both_tasks():
    names = traced_span_names(TRAIN_BODY)
    for task in ("forecast", "event"):
        assert {"training.train", "training.optimizer_step",
                "autodiff.backward"} <= set(names[task]), task
    # the attention op is not a traced autodiff op: its forward time is
    # predict_noise's self time, so that span must stay
    assert {"diffusion.loss", "backbone.predict_noise"} <= set(names["forecast"])


def test_tracer_records_sampling_spans():
    names = traced_span_names(SAMPLE_BODY)
    assert {"diffusion.rollout", "diffusion.sample_windows_batch",
            "diffusion.denoise_step", "backbone.predict_noise",
            "backbone.build_token_grid"} <= set(names["sample"])
    # K = 2 chains share one network call per window and reverse step:
    # 2 windows x 3 steps
    assert names["predict_noise_calls"] == 2 * 3


def test_tracer_records_evaluate_path_spans():
    names = traced_span_names(EVALUATE_BODY)
    assert {"data.refine", "metrics.structure_deviation", "metrics.obet",
            "metrics.zone_threat",
            "metrics.dominant_region"} <= set(names["evaluate"])
