"""Train a small forecaster on synthetic motion and sample K futures.

Takes a couple of minutes on a laptop CPU:

    python3 demos/02_train_and_sample.py
"""

import numpy as np

from gentac.data import PitchSpec, denormalize_xy, window
from gentac.diffusion import RolloutConfig, rollout
from gentac.fixtures import constant_velocity_clips
from gentac.metrics import ade, aggregate_over_k
from gentac.rng import Rng
from gentac.training import (desk_forecast_config, split_clips, train,
                             _forecast_segments)

clips = constant_velocity_clips(400, seed=11, n_players=3, duration_s=3.0,
                                jitter=0.15)
split = split_clips(clips, 0.1, seed=0)
config = desk_forecast_config(epochs=8, seed=1)
print(f"training {config.d}-wide, {config.layers}-layer model "
      f"on {len(split.train)} clips ...")
model, result = train(split, config)
for epoch, train_loss, val_loss, lr in result.log:
    print(f"  epoch {epoch}: train {train_loss:.4f}  valid {val_loss:.4f}")

# --- sample K futures from one held-out history ----------------------------
pitch = PitchSpec.for_sport("soccer")
seg = _forecast_segments(split.valid[:1], config)[0]
hist, fut = window(seg, 0, 25, 25)

rollout_cfg = RolloutConfig(window=0.2, history=1.0, horizon=1.0, samples=4,
                            fps=25.0)
sample_set = rollout(hist, rollout_cfg, model, config.schedule(),
                     Rng(7, ("demo",)))
print(f"\nrollout: {rollout_cfg.n_windows} windows x {config.diffusion_steps} "
      f"reverse steps, {sample_set.network_evals} network evaluations, "
      f"{sample_set.clamped_coords} target coordinates clamped")

truth_m = denormalize_xy(fut.coords, pitch)
samples_m = [denormalize_xy(s.coords, pitch) for s in sample_set.samples]
report = aggregate_over_k(samples_m, truth_m, fps=25.0, horizons=(1,))
frozen = np.repeat(denormalize_xy(hist.coords[-1:], pitch), 25, axis=0)
print(f"1 s horizon: minADE {report.min_ade[1]:.2f} m, "
      f"avgADE {report.avg_ade[1]:.2f} m, "
      f"frozen-last-position baseline {ade(frozen, truth_m):.2f} m")
# constant-velocity fixtures have one right answer, so a well-fit model's
# K futures may barely differ; the spread is reported, not promised
spread = np.mean([np.linalg.norm(a - b, axis=-1).mean()
                  for a in samples_m for b in samples_m]) / 2
print(f"inter-sample spread {spread:.2f} m")
