"""Synthetic clip generators for tests, demos, and desk-scale experiments.

Three families:

- constant-velocity clips: every entity moves on a straight line with small
  Gaussian tracking jitter, so the best possible forecast error is the
  jitter floor and a frozen-last-position baseline is easy to compute.
- two-style league clips: formations hold steady through the history, then
  contract ("alpha" league) or expand ("beta") at a fixed rate. History
  alone cannot tell the leagues apart, which is exactly what makes
  league-conditioned fine-tuning measurable.
- event-class clips: separable motion patterns (converge on a point, hold a
  spread shape, sweep upfield) labeled with taxonomy subtypes.
"""

from __future__ import annotations

import numpy as np

from .data import Frame, PitchSpec, TrajectoryClip
from .rng import Rng


def _clip_from_positions(positions, fps, n_players, sport, metadata):
    """positions: [F x E x 2] with entities team0 players, team1 players, ball."""
    F, E, _ = positions.shape
    n = n_players
    frames = []
    for t in range(F):
        team0 = {f"A{i + 1}": tuple(positions[t, i]) for i in range(n)}
        team1 = {f"B{i + 1}": tuple(positions[t, n + i]) for i in range(n)}
        frames.append(Frame(t, tuple(positions[t, 2 * n]), team0, team1))
    meta = {"players_per_team": n, **metadata}
    return TrajectoryClip(frames, fps, n, sport, meta)


def _clamp_to_pitch(positions, pitch: PitchSpec, margin=0.25):
    positions[..., 0] = np.clip(positions[..., 0],
                                -pitch.length / 2 + margin,
                                pitch.length / 2 - margin)
    positions[..., 1] = np.clip(positions[..., 1],
                                -pitch.width / 2 + margin,
                                pitch.width / 2 - margin)
    return positions


def _start(kind, seed, n_players, sport):
    """(pitch, root random stream) of generator `kind`. Every generator starts
    here, so a scene without players is rejected before any draw."""
    if n_players < 1:
        raise ValueError(f"n_players={n_players} leaves the teams with no players")
    return PitchSpec.for_sport(sport), Rng(seed, ("fixtures", kind))


SPEED_RANGE = (2.0, 8.0)   # m/s, constant-velocity entities
STYLE_RATE = 0.35          # 1/s, formation contraction/expansion after the history
STYLE_HISTORY_S = 1.0      # s of steady formation in a two-style league clip
STYLE_FUTURE_S = 2.0       # s of contraction/expansion after it


def constant_velocity_clips(n_clips, seed=0, n_players=3, fps=25.0,
                            duration_s=3.0, jitter=0.15, sport="soccer"):
    """Straight-line motion plus iid Gaussian jitter per observation.

    Starts and headings are drawn so the whole noiseless path stays inside
    the pitch; jittered observations are clamped to the boundary.
    """
    pitch, rng = _start("constant_velocity", seed, n_players, sport)
    F = int(round(duration_s * fps))
    E = 2 * n_players + 1
    clips = []
    for c in range(n_clips):
        r = rng.child("clip", c)
        starts = np.empty((E, 2))
        vels = np.empty((E, 2))
        for e in range(E):
            re = r.child("entity", e)
            for attempt in range(200):
                start = np.array([
                    re.child("sx", attempt).uniform(-pitch.length / 2 + 2,
                                                    pitch.length / 2 - 2),
                    re.child("sy", attempt).uniform(-pitch.width / 2 + 2,
                                                    pitch.width / 2 - 2)])
                speed = re.child("speed", attempt).uniform(*SPEED_RANGE)
                angle = re.child("angle", attempt).uniform(0, 2 * np.pi)
                vel = speed * np.array([np.cos(angle), np.sin(angle)])
                end = start + vel * duration_s
                if (abs(end[0]) < pitch.length / 2 - 1 and
                        abs(end[1]) < pitch.width / 2 - 1):
                    starts[e], vels[e] = start, vel
                    break
            else:
                starts[e], vels[e] = np.zeros(2), np.zeros(2)
        t = np.arange(F)[:, None, None] / fps
        clean = starts[None] + vels[None] * t
        noise = jitter * r.child("noise").normal((F, E, 2))
        positions = _clamp_to_pitch(clean + noise, pitch)
        clips.append(_clip_from_positions(
            positions, fps, n_players, sport,
            {"kind": "constant_velocity", "jitter": jitter}))
    return clips


def circular_motion_clips(n_clips, seed=0, n_players=3, fps=25.0,
                          duration_s=3.0, sport="soccer"):
    """Entities orbit random centers at constant angular velocity."""
    pitch, rng = _start("circular", seed, n_players, sport)
    F = int(round(duration_s * fps))
    E = 2 * n_players + 1
    clips = []
    for c in range(n_clips):
        r = rng.child("clip", c)
        centers = np.stack([
            r.child("cx").uniform(-pitch.length / 2 + 12, pitch.length / 2 - 12, (E,)),
            r.child("cy").uniform(-pitch.width / 2 + 12, pitch.width / 2 - 12, (E,)),
        ], axis=1)
        radii = r.child("radius").uniform(2.0, 8.0, (E,))
        omegas = r.child("omega").uniform(0.5, 1.5, (E,)) \
            * np.where(r.child("dir").uniform(shape=(E,)) < 0.5, -1.0, 1.0)
        phases = r.child("phase").uniform(0, 2 * np.pi, (E,))
        t = np.arange(F)[:, None] / fps
        ang = phases[None, :] + omegas[None, :] * t
        positions = np.stack([
            centers[:, 0][None, :] + radii[None, :] * np.cos(ang),
            centers[:, 1][None, :] + radii[None, :] * np.sin(ang),
        ], axis=-1)
        positions = _clamp_to_pitch(positions, pitch)
        clips.append(_clip_from_positions(
            positions, fps, n_players, sport, {"kind": "circular"}))
    return clips


def two_style_league_clips(n_clips, seed=0, n_players=3, fps=25.0,
                           jitter=0.05, sport="soccer"):
    """Half "alpha" clips (formations contract after the STYLE_HISTORY_S
    history) and half "beta" (they expand) for STYLE_FUTURE_S. The history
    segments are statistically identical across leagues, so the style is
    only learnable from the future."""
    pitch, rng = _start("two_style", seed, n_players, sport)
    H = int(round(STYLE_HISTORY_S * fps))
    F = H + int(round(STYLE_FUTURE_S * fps))
    clips = []
    for c in range(n_clips):
        league = "alpha" if c % 2 == 0 else "beta"
        sign = -1.0 if league == "alpha" else 1.0
        r = rng.child("clip", c)
        entities = []
        for team in range(2):
            rt = r.child("team", team)
            center = np.array([rt.child("cx").uniform(-20, 20),
                               rt.child("cy").uniform(-12, 12)])
            drift = np.array([rt.child("dx").uniform(-1.5, 1.5),
                              rt.child("dy").uniform(-1.0, 1.0)])
            offsets = np.stack([
                rt.child("ox").uniform(-9, 9, (n_players,)),
                rt.child("oy").uniform(-7, 7, (n_players,)),
            ], axis=1)
            t = np.arange(F)[:, None, None] / fps
            future_t = (np.arange(F) - H + 1).clip(min=0) / fps
            scale = 1.0 + sign * STYLE_RATE * future_t
            pos = (center[None, None] + drift[None, None] * t
                   + offsets[None] * scale[:, None, None])
            entities.append(pos)
        ball = entities[0][:, :1].mean(axis=1, keepdims=True) + np.array([1.0, 0.5])
        positions = np.concatenate([entities[0], entities[1], ball], axis=1)
        positions += jitter * r.child("noise").normal(positions.shape)
        positions = _clamp_to_pitch(positions, pitch)
        clips.append(_clip_from_positions(
            positions, fps, n_players, sport,
            {"kind": "two_style", "league": league,
             "history_frames": H}))
    return clips


EVENT_CLASS_LABELS = {
    "converge": ("threat", "goal"),
    "spread": ("build", "build"),
    "sweep": ("transition", "ball_win"),
}


def event_class_clips(n_clips, seed=0, n_players=3, fps=25.0,
                      duration_s=2.0, jitter=0.05, sport="soccer"):
    """Separable motion classes with taxonomy labels for classifier tests.

    converge: a scattered scene collapses onto one focus point in the box.
    spread: a wide scattered formation holding its ground.
    sweep: a tight line formation translating quickly upfield.

    The classes differ in per-frame geometry as well as motion, so a small
    classifier can reach high accuracy quickly.
    """
    pitch, rng = _start("event_classes", seed, n_players, sport)
    kinds = tuple(EVENT_CLASS_LABELS)
    F = int(round(duration_s * fps))
    E = 2 * n_players + 1
    clips = []
    for c in range(n_clips):
        kind = kinds[c % len(kinds)]
        r = rng.child("clip", c)
        starts = np.stack([
            r.child("sx").uniform(-pitch.length / 2 + 8, pitch.length / 2 - 8, (E,)),
            r.child("sy").uniform(-pitch.width / 2 + 5, pitch.width / 2 - 5, (E,)),
        ], axis=1)
        t = np.arange(F)[:, None, None] / fps
        if kind == "converge":
            focus = np.array([r.child("fx").uniform(25, 42),
                              r.child("fy").uniform(-10, 10)])
            lam = np.minimum(t / max(duration_s, 1e-9), 1.0)
            positions = starts[None] * (1 - lam) + focus[None, None] * lam
        elif kind == "spread":
            positions = np.broadcast_to(starts[None], (F, E, 2)).copy()
        else:  # sweep
            anchor_x = r.child("ax").uniform(-35, 10)
            line = np.stack([
                np.full(E, anchor_x) + r.child("lx").uniform(-1, 1, (E,)),
                np.linspace(-pitch.width / 2 + 6, pitch.width / 2 - 6, E)
                + r.child("ly").uniform(-1, 1, (E,)),
            ], axis=1)
            vel = np.array([r.child("vx").uniform(6.0, 9.0),
                            r.child("vy").uniform(-0.5, 0.5)])
            positions = line[None] + vel[None, None] * t
        positions = positions + jitter * r.child("noise").normal((F, E, 2))
        positions = _clamp_to_pitch(positions, pitch)
        etype, esub = EVENT_CLASS_LABELS[kind]
        clips.append(_clip_from_positions(
            positions, fps, n_players, sport,
            {"kind": f"event_{kind}", "event_type": etype,
             "event_subtype": esub}))
    return clips


FIXTURE_KINDS = {
    "constant-velocity": constant_velocity_clips,
    "circular": circular_motion_clips,
    "two-style-league": two_style_league_clips,
    "event-classes": event_class_clips,
}


def make_fixture_set(kind, n_clips, out_dir, seed=0, **kwargs):
    """Generate `n_clips` of `kind` and write them (plus metadata sidecars)
    under out_dir as fixture_0000.json, ... Returns the written paths. An
    empty scene (`data.check_scene`) is rejected before any file is written."""
    import pathlib

    from .data import check_scene, save_clip

    if kind not in FIXTURE_KINDS:
        raise ValueError(f"unknown fixture kind '{kind}'; "
                         f"choose from {sorted(FIXTURE_KINDS)}")
    out = pathlib.Path(out_dir)
    clips = FIXTURE_KINDS[kind](n_clips, seed=seed, **kwargs)
    paths = [out / f"fixture_{i:04d}.json" for i in range(len(clips))]
    for clip, path in zip(clips, paths):
        check_scene(clip, path)
    out.mkdir(parents=True, exist_ok=True)
    for clip, path in zip(clips, paths):
        save_clip(clip, path)
    return paths
