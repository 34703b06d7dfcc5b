"""The quick demos run end to end as scripts. Demos 02 and 04 train models
for tens of seconds and are run by hand."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, expected", [
    ("01_data_pipeline.py", "25 -> 12.5 -> 25 fps: 75 -> 38 -> 75 frames"),
    ("03_metrics_tour.py", "defensive dominant region"),
])
def test_demo_runs_and_prints_its_key_line(script, expected):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, str(ROOT / "demos" / script)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert any(line.startswith(expected) for line in done.stdout.splitlines())
