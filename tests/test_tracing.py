"""The benchmark's tracer (perfbench/tracing.py) wraps gentac's entry points
by name, so merging, renaming or bypassing one silently zeroes its per-layer
metric. Train both tasks under the tracer and check the training spans."""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

# run in a fresh interpreter: the tracer rebinds names in gentac's modules
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
    names[task] = sorted({{span[2] for span in tracer.spans}})
print(json.dumps(names))
"""


def test_tracer_records_training_spans_for_both_tasks():
    script = SCRIPT.format(src=str(ROOT / "src"),
                           perfbench=str(ROOT / "perfbench"))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    names = json.loads(proc.stdout.strip().splitlines()[-1])
    for task in ("forecast", "event"):
        assert {"training.train", "training.optimizer_step",
                "autodiff.backward"} <= set(names[task]), task
    assert "diffusion.loss" in names["forecast"]
