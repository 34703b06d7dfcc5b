"""Tracking data: format fixpoints, resampling against closed-form
interpolation, refinement repairs, normalization, windowing, augmentation."""

import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gentac import data
from gentac.data import (Frame, PitchSpec, RefineParams, TrajectoryClip,
                         clip_to_segment, count_windows, flip_augment,
                         normalize, parse_clip, refine, resample,
                         serialize_clip, window, with_players_per_team)
from gentac.rng import Rng

FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "tracking_sample.json"


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_sample_listing_positions():
    clip = parse_clip(FIXTURE.read_text())
    assert len(clip) == 2
    f0, f1 = clip.frames
    assert f0.index == 13590
    assert f0.ball == (6.50, 4.20)
    assert f0.team0["Player1"] == (-0.74, -30.28)
    assert f0.team0["Player11"] == (-42.91, 0.74)
    assert f0.team1["Player15"] == (-25.95, 10.47)
    assert f1.ball is None  # [null, null] means missing
    assert f1.team1["Player16"] == (18.11, -0.70)


def test_parse_null_ball_is_missing():
    raw = '{"7": {"ball": [null, null], "team0": {}, "team1": {}}}'
    clip = parse_clip(raw)
    assert clip.frames[0].ball is None


def test_parse_empty_map_is_empty_clip():
    clip = parse_clip("{}")
    assert len(clip) == 0


def test_parse_rejects_malformed_frame_key():
    with pytest.raises(data.ClipFormatError, match="frame key"):
        parse_clip('{"abc": {"ball": [0, 0], "team0": {}, "team1": {}}}')


def test_parse_rejects_non_numeric_coordinate():
    with pytest.raises(data.ClipFormatError, match="non-numeric"):
        parse_clip('{"1": {"ball": [0, "x"], "team0": {}, "team1": {}}}')


def test_parse_rejects_duplicate_player():
    raw = ('{"1": {"ball": [0, 0], '
           '"team0": {"P1": [1, 1], "P1": [2, 2]}, "team1": {}}}')
    with pytest.raises(data.DuplicatePlayerError):
        parse_clip(raw)
    clip = parse_clip(raw, on_duplicate="collect")
    assert clip.frames[0].team0["P1"] == [(1.0, 1.0), (2.0, 2.0)]


def test_parse_rejects_half_null_position():
    with pytest.raises(data.ClipFormatError):
        parse_clip('{"1": {"ball": [1.0, null], "team0": {}, "team1": {}}}')


def test_parse_rejects_oversized_roster():
    frames = {"1": {"ball": [0, 0],
                    "team0": {f"P{i}": [0, 0] for i in range(12)},
                    "team1": {}}}
    with pytest.raises(data.ClipFormatError, match="roster"):
        parse_clip(json.dumps(frames))


# ---------------------------------------------------------------------------
# serialization fixpoints
# ---------------------------------------------------------------------------

def test_serialize_parse_fixpoint_on_sample_listing():
    raw = FIXTURE.read_text()
    assert serialize_clip(parse_clip(raw)) == raw


def test_all_missing_ball_serializes_nulls():
    clip = TrajectoryClip(
        [Frame(0, None, {"P1": (1.0, 2.0)}, {}),
         Frame(1, None, {"P1": (1.5, 2.0)}, {})], 25.0, 11)
    text = serialize_clip(clip)
    assert '"ball": [null, null]' in text
    clip2 = parse_clip(text)
    assert clip2.frames[0].ball is None


def random_clip(rng, n_frames=None, n_players=None):
    n_frames = n_frames or int(rng.child("F").integers(1, 6))
    n_players = n_players or int(rng.child("N").integers(1, 4))
    frames = []
    for t in range(n_frames):
        r = rng.child("frame", t)

        def pos(rr):
            if rr.child("missing").uniform() < 0.2:
                return None
            return (round(float(rr.child("x").uniform(-52.5, 52.5)), 2),
                    round(float(rr.child("y").uniform(-34, 34)), 2))

        team0 = {f"A{i}": pos(r.child("a", i)) for i in range(n_players)}
        team1 = {f"B{i}": pos(r.child("b", i)) for i in range(n_players)}
        frames.append(Frame(t, pos(r.child("ball")), team0, team1))
    return TrajectoryClip(frames, 25.0, 11)


def test_fuzz_round_trip_1000_clips():
    rng = Rng(123, ("fuzz",))
    for i in range(1000):
        clip = random_clip(rng.child("clip", i))
        text = serialize_clip(clip)
        again = serialize_clip(parse_clip(text))
        assert text == again, f"clip {i} failed the round trip"


# ---------------------------------------------------------------------------
# resampling
# ---------------------------------------------------------------------------

def linear_clip(v=(2.0, 1.0), start=(0.0, 0.0), frames=11, fps=12.5):
    out = []
    for t in range(frames):
        p = (start[0] + v[0] * t / fps, start[1] + v[1] * t / fps)
        out.append(Frame(t, p, {"A1": p}, {"B1": p}))
    return TrajectoryClip(out, fps, 11)


def test_resample_doubles_with_exact_midpoints():
    clip = linear_clip(fps=12.5)
    out = resample(clip, 25.0)
    assert out.fps == 25.0
    assert len(out) == 21
    src = [f.ball for f in clip.frames]
    for k, f in enumerate(out.frames):
        assert f.index == k
        if k % 2 == 0:
            assert f.ball == src[k // 2]
        else:
            a, b = src[k // 2], src[k // 2 + 1]
            assert f.ball == ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)


def test_resample_identity_at_same_fps():
    clip = linear_clip(fps=25.0)
    out = resample(clip, 25.0)
    assert [f.ball for f in out.frames] == [f.ball for f in clip.frames]


def test_resample_against_closed_form_interpolation():
    rng = Rng(5, ("resample",))
    fps_in, fps_out = 10.0, 25.0
    F = 14
    walk = np.cumsum(rng.child("steps").normal((F, 2)) * 0.5, axis=0)
    frames = [Frame(t, (float(walk[t, 0]), float(walk[t, 1])), {}, {})
              for t in range(F)]
    clip = TrajectoryClip(frames, fps_in, 11)
    out = resample(clip, fps_out)

    span = (F - 1) / fps_in
    assert len(out) == int(math.floor(span * fps_out + 1e-9)) + 1
    for k, f in enumerate(out.frames):
        t = k / fps_out
        j = min(int(t * fps_in), F - 2)
        if abs(j / fps_in - t) < 1e-9:
            expected = walk[j]
        else:
            w = (t - j / fps_in) * fps_in
            expected = walk[j] * (1 - w) + walk[j + 1] * w
        assert abs(f.ball[0] - expected[0]) < 1e-9
        assert abs(f.ball[1] - expected[1]) < 1e-9


def test_resample_missing_when_either_bracket_missing():
    frames = [
        Frame(0, (0.0, 0.0), {}, {}),
        Frame(1, None, {}, {}),
        Frame(2, (2.0, 0.0), {}, {}),
    ]
    clip = TrajectoryClip(frames, 10.0, 11)
    out = resample(clip, 20.0)
    # instants between frames 0-1 and 1-2 touch the missing observation
    assert out.frames[0].ball == (0.0, 0.0)
    assert out.frames[1].ball is None
    assert out.frames[2].ball is None
    assert out.frames[3].ball is None
    assert out.frames[4].ball == (2.0, 0.0)


def test_resample_rejects_single_frame():
    clip = TrajectoryClip([Frame(0, (0, 0), {}, {})], 25.0, 11)
    with pytest.raises(ValueError):
        resample(clip, 10.0)


def test_resample_endpoints_exact_never_extrapolates():
    clip = linear_clip(frames=7, fps=25.0)
    out = resample(clip, 7.0)
    assert out.frames[0].ball == clip.frames[0].ball
    last_t = (len(out) - 1) / 7.0
    assert last_t <= (len(clip) - 1) / 25.0 + 1e-12


# ---------------------------------------------------------------------------
# refinement
# ---------------------------------------------------------------------------

def const_velocity_clip(frames=40, fps=25.0, v=(3.0, 1.0)):
    out = []
    for t in range(frames):
        p = (-20 + v[0] * t / fps, -10 + v[1] * t / fps)
        q = (5 + v[0] * t / fps, 3 - v[1] * t / fps)
        out.append(Frame(t, p, {"A1": p, "A2": q}, {"B1": q}))
    return TrajectoryClip(out, fps, 11)


def test_refine_identity_for_gamma_one_on_clean_clip():
    clip = const_velocity_clip()
    out = refine(clip, RefineParams(ema_gamma=1.0))
    for f_in, f_out in zip(clip.frames, out.frames):
        assert abs(f_in.ball[0] - f_out.ball[0]) < 1e-9
        assert abs(f_in.ball[1] - f_out.ball[1]) < 1e-9


def test_refine_near_identity_on_linear_motion_default_gamma():
    clip = const_velocity_clip()
    out = refine(clip)
    for f_in, f_out in zip(clip.frames, out.frames):
        assert abs(f_in.ball[0] - f_out.ball[0]) < 1e-9


def test_refine_fills_three_frame_gap_collinearly():
    clip = const_velocity_clip()
    for t in (10, 11, 12):
        clip.frames[t].team0["A1"] = None
    out = refine(clip, RefineParams(ema_gamma=1.0))
    for t in (10, 11, 12):
        expected = (-20 + 3.0 * t / 25.0, -10 + 1.0 * t / 25.0)
        got = out.frames[t].team0["A1"]
        assert abs(got[0] - expected[0]) < 1e-9
        assert abs(got[1] - expected[1]) < 1e-9


def test_refine_leaves_long_gaps_missing():
    clip = const_velocity_clip()
    for t in range(10, 25):
        clip.frames[t].team0["A1"] = None
    out = refine(clip, RefineParams(max_gap=5, ema_gamma=1.0))
    assert out.frames[15].team0["A1"] is None


def test_refine_repairs_mass_teleport():
    clip = const_velocity_clip(frames=30)
    j = 14
    frame = clip.frames[j]
    frame.ball = (frame.ball[0] + 30.0, frame.ball[1])
    for pid in list(frame.team0):
        x, y = frame.team0[pid]
        frame.team0[pid] = (x + 30.0, y)
    for pid in list(frame.team1):
        x, y = frame.team1[pid]
        frame.team1[pid] = (x + 30.0, y)

    params = RefineParams(v_max=12.0, anomaly_count=3, ema_gamma=1.0)
    out = refine(clip, params)

    seg = clip_to_segment(out)
    for t in range(len(out) - 1):
        both = seg.visibility[t] & seg.visibility[t + 1]
        d = np.linalg.norm(seg.coords[t + 1, both] - seg.coords[t, both], axis=-1)
        assert (d * out.fps <= params.v_max + 1e-9).all(), f"speed spike at {t}"


def test_refine_duplicate_resolution_prefers_track_continuity():
    clip = const_velocity_clip(frames=6)
    true_pos = clip.frames[3].team0["A1"]
    clip.frames[3].team0["A1"] = [(true_pos[0] + 25.0, true_pos[1] - 9.0),
                                  (true_pos[0] + 0.05, true_pos[1])]
    out = refine(clip, RefineParams(ema_gamma=1.0))
    got = out.frames[3].team0["A1"]
    assert abs(got[0] - (true_pos[0] + 0.05)) < 1e-6


def test_refine_duplicate_tie_breaks_by_coordinate_sum():
    frames = [Frame(0, None, {"A1": [(4.0, 4.0), (2.0, 2.0)]}, {})]
    out = refine(TrajectoryClip(frames, 25.0, 11), RefineParams(ema_gamma=1.0))
    assert out.frames[0].team0["A1"] == (2.0, 2.0)


def test_refine_idempotent_on_smooth_repaired_clip():
    clip = const_velocity_clip(frames=50)
    for t in (20, 21):
        clip.frames[t].team0["A2"] = None
    once = refine(clip)
    twice = refine(once)
    seg1, seg2 = clip_to_segment(once), clip_to_segment(twice)
    assert np.array_equal(seg1.visibility, seg2.visibility)
    assert np.abs(seg1.coords - seg2.coords).max() < 1e-9


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def test_normalize_center_and_corner():
    pitch = PitchSpec(105.0, 68.0)
    xy = data.normalize_xy(np.array([[0.0, 0.0], [52.5, 34.0]]), pitch)
    np.testing.assert_allclose(xy, [[0.0, 0.0], [1.0, 1.0]], atol=1e-15)


def test_normalize_round_trip_random_points():
    pitch = PitchSpec(105.0, 68.0)
    pts = Rng(7).normal((100, 2)) * 20.0
    back = data.denormalize_xy(data.normalize_xy(pts, pitch), pitch)
    assert np.abs(back - pts).max() < 1e-12


def test_normalize_rejects_out_of_bounds():
    frames = [Frame(0, (60.0, 0.0), {}, {})]
    clip = TrajectoryClip(frames, 25.0, 11)
    with pytest.raises(ValueError, match="bounds"):
        normalize(clip_to_segment(clip), PitchSpec(105.0, 68.0))


def test_normalize_allows_slack():
    frames = [Frame(0, (52.9, 0.0), {}, {})]
    seg = normalize(clip_to_segment(TrajectoryClip(frames, 25.0, 11)),
                    PitchSpec(105.0, 68.0))
    assert seg.normalized


# ---------------------------------------------------------------------------
# windowing
# ---------------------------------------------------------------------------

def test_window_frame_counts_at_25fps():
    clip = const_velocity_clip(frames=15 * 25)
    hist, fut = window(clip, 0, 100, 125)  # 4 s history, 5 s future
    assert len(hist) == 100
    assert len(fut) == 125


def test_window_empty_future():
    clip = const_velocity_clip(frames=30)
    hist, fut = window(clip, 3, 20, 0)
    assert len(hist) == 20
    assert len(fut) == 0


def test_window_rejects_overrun():
    clip = const_velocity_clip(frames=30)
    with pytest.raises(ValueError):
        window(clip, 0, 25, 10)


@given(st.integers(10, 400), st.integers(1, 40), st.integers(0, 40),
       st.integers(1, 20))
@settings(max_examples=200, deadline=None)
def test_window_counting_matches_enumeration(clip_len, h, f, stride):
    expected = len([s for s in range(0, clip_len + 1, stride)
                    if s + h + f <= clip_len])
    assert count_windows(clip_len, h, f, stride) == expected


# ---------------------------------------------------------------------------
# augmentation
# ---------------------------------------------------------------------------

def _normalized_segment():
    clip = const_velocity_clip(frames=20)
    return normalize(clip_to_segment(clip), PitchSpec(105.0, 68.0))


def test_flip_p0_is_identity():
    seg = _normalized_segment()
    out = flip_augment(seg, 0.0, 0.0, Rng(0))
    assert np.array_equal(out.coords, seg.coords)


def test_flip_p1_negates_both_axes():
    seg = _normalized_segment()
    seg.coords[0, 0] = [0.3, -0.5]
    out = flip_augment(seg, 1.0, 1.0, Rng(0))
    np.testing.assert_allclose(out.coords[0, 0], [-0.3, 0.5], atol=1e-15)


def test_double_flip_with_same_draws_is_identity():
    seg = _normalized_segment()
    once = flip_augment(seg, 1.0, 1.0, Rng(0))
    twice = flip_augment(once, 1.0, 1.0, Rng(0))
    np.testing.assert_allclose(twice.coords, seg.coords, atol=1e-15)


def test_flip_preserves_pairwise_distances():
    seg = _normalized_segment()
    out = flip_augment(seg, 1.0, 0.5, Rng(3))
    for t in (0, 5, 19):
        a = seg.coords[t][:, None, :] - seg.coords[t][None, :, :]
        b = out.coords[t][:, None, :] - out.coords[t][None, :, :]
        np.testing.assert_allclose(np.linalg.norm(a, axis=-1),
                                   np.linalg.norm(b, axis=-1), atol=1e-12)


def test_flip_rejects_meter_space():
    clip = const_velocity_clip(frames=5)
    with pytest.raises(ValueError):
        flip_augment(clip_to_segment(clip), 0.5, 0.5, Rng(0))


# ---------------------------------------------------------------------------
# EPV grid file io
# ---------------------------------------------------------------------------

def test_epv_grid_round_trip(tmp_path):
    grid = np.abs(Rng(1).normal((8, 12)))
    path = tmp_path / "epv.txt"
    data.save_epv_grid(grid, path)
    loaded = data.load_epv_grid(path)
    np.testing.assert_allclose(loaded, grid, rtol=1e-9)


def test_epv_grid_rejects_header_mismatch(tmp_path):
    path = tmp_path / "epv.txt"
    path.write_text("2 3\n1 2 3\n")
    with pytest.raises(ValueError):
        data.load_epv_grid(path)


def test_epv_grid_rejects_negative(tmp_path):
    path = tmp_path / "epv.txt"
    path.write_text("1 2\n-1 2\n")
    with pytest.raises(ValueError):
        data.load_epv_grid(path)


def test_with_players_per_team_leaves_the_input_clip_unchanged():
    clip = TrajectoryClip(
        [Frame(0, (0.0, 0.0), {"A": (1.0, 2.0)}, {"B": (3.0, 4.0)})],
        25.0, 11)
    narrowed = with_players_per_team(clip, 3)
    assert narrowed.players_per_team == 3
    assert clip.players_per_team == 11
    assert narrowed.frames == clip.frames
    with pytest.raises(ValueError):
        with_players_per_team(clip, 0)
