"""Tracking data: format fixpoints, resampling against closed-form
interpolation, refinement repairs, normalization, windowing, augmentation."""

import json
import math
import pathlib

import numpy as np
import pytest

from gentac import data
from gentac.data import (Frame, PitchSpec, RefineParams, TrajectoryClip,
                         clip_to_segment, flip_augment,
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


def reference_resample(clip, target_fps):
    """Per-entity, per-instant resampling: the dict-series formulation that
    `resample` densified, kept as its bitwise oracle."""
    frames = sorted(clip.frames, key=lambda f: f.index)
    pos = np.array([f.index - frames[0].index for f in frames], dtype=np.float64)
    ratio = clip.fps / target_fps
    n_out = int(math.floor(pos[-1] / ratio + 1e-9)) + 1
    roster0 = sorted({pid for f in frames for pid in f.team0})
    roster1 = sorted({pid for f in frames for pid in f.team1})

    def sample(values, u):
        j = int(np.searchsorted(pos, u, side="right")) - 1
        j = min(max(j, 0), len(pos) - 1)
        if abs(pos[j] - u) < 1e-9:
            return values[j]
        if j + 1 >= len(pos):
            return values[-1] if abs(pos[-1] - u) < 1e-9 else None
        a, b = values[j], values[j + 1]
        if a is None or b is None:
            return None
        w = (u - pos[j]) / (pos[j + 1] - pos[j])
        return ((1.0 - w) * a[0] + w * b[0], (1.0 - w) * a[1] + w * b[1])

    ball = [f.ball for f in frames]
    team0 = {pid: [f.team0.get(pid) for f in frames] for pid in roster0}
    team1 = {pid: [f.team1.get(pid) for f in frames] for pid in roster1}
    out = []
    for k in range(n_out):
        u = k * ratio
        out.append(Frame(k, sample(ball, u),
                         {pid: sample(team0[pid], u) for pid in roster0},
                         {pid: sample(team1[pid], u) for pid in roster1}))
    return TrajectoryClip(out, float(target_fps), clip.players_per_team,
                          clip.sport, dict(clip.metadata))


def gappy_clip(rng, fps):
    """Frames with index gaps, shuffled, ~20% of observations missing (some
    ids absent from a frame altogether) and some -0.0 coordinates."""
    n_frames = int(rng.child("F").integers(2, 14))
    n_players = int(rng.child("N").integers(1, 4))
    steps = rng.child("steps").integers(1, 4, n_frames)
    indices = 100 + np.cumsum(steps) - steps[0]

    def pos(rr):
        if rr.child("missing").uniform() < 0.2:
            return None
        x, y = (round(float(v), 2) for v in rr.child("xy").uniform(-30, 30, 2))
        return (-0.0 if rr.child("zero").uniform() < 0.1 else x, y)

    frames = []
    for t, index in enumerate(indices.tolist()):
        r = rng.child("frame", t)
        team0 = {f"A{i}": pos(r.child("a", i)) for i in range(n_players)
                 if r.child("a_absent", i).uniform() > 0.1}
        team1 = {f"B{i}": pos(r.child("b", i)) for i in range(n_players)}
        frames.append(Frame(index, pos(r.child("ball")), team0, team1))
    order = rng.child("order").permutation(n_frames)
    return TrajectoryClip([frames[i] for i in order], fps, 11,
                          metadata={"tag": "x"})


def position_bytes(pos):
    return None if pos is None else np.array(pos, dtype=np.float64).tobytes()


@pytest.mark.parametrize("fps_in, fps_out", [(50.0, 25.0), (12.5, 25.0),
                                              (25.0, 30.0)])
def test_resample_matches_per_entity_reference_bitwise(fps_in, fps_out):
    rng = Rng(31, ("resample-fuzz", fps_in, fps_out))
    for i in range(200):
        clip = gappy_clip(rng.child("clip", i), fps_in)
        got, want = resample(clip, fps_out), reference_resample(clip, fps_out)
        assert (got.fps, got.players_per_team, got.sport, got.metadata) == \
            (want.fps, want.players_per_team, want.sport, want.metadata)
        assert len(got) == len(want), f"clip {i}"
        for g, w in zip(got.frames, want.frames):
            assert g.index == w.index
            assert position_bytes(g.ball) == position_bytes(w.ball), f"clip {i}"
            for gt, wt in ((g.team0, w.team0), (g.team1, w.team1)):
                assert list(gt) == list(wt)
                assert [position_bytes(v) for v in gt.values()] == \
                    [position_bytes(v) for v in wt.values()], f"clip {i}"


@pytest.mark.parametrize("target_fps", [25.0, 50.0])  # exact instants, midpoints
def test_resample_rejects_unresolved_duplicates(target_fps):
    frames = [Frame(0, None, {"A1": [(4.0, 4.0), (2.0, 2.0)]}, {}),
              Frame(1, None, {"A1": (3.0, 3.0)}, {})]
    with pytest.raises(ValueError, match="refine first"):
        resample(TrajectoryClip(frames, 25.0, 11), target_fps)


def test_interpolate_matches_per_frame_loop_bitwise():
    rng = Rng(32, ("interpolate",))
    for i in range(100):
        r = rng.child("case", i)
        F = int(r.child("F").integers(2, 30))
        track = np.round(r.child("track").normal((F, 2)) * 20, 2)
        track[r.child("zero").uniform(0.0, 1.0, (F, 2)) < 0.1] = -0.0
        is_known = r.child("known").uniform(0.0, 1.0, F) < 0.5
        is_known[int(r.child("one").integers(0, F))] = True
        known, frames = np.flatnonzero(is_known), np.flatnonzero(~is_known)
        want = np.empty((frames.size, 2))
        for n, f in enumerate(frames):
            j = np.searchsorted(known, f)
            if j == 0:
                want[n] = track[known[0]]
            elif j == known.size:
                want[n] = track[known[-1]]
            else:
                left, right = known[j - 1], known[j]
                w = (f - left) / (right - left)
                want[n] = track[left] + w * (track[right] - track[left])
        got = data._interpolate(track, known, frames)
        assert got.tobytes() == want.tobytes(), f"case {i}"


def test_interpolate_holds_negative_zero_at_the_ends():
    track = np.array([[0.0, 0.0], [-0.0, -0.0], [0.0, 0.0], [-0.0, 1.0],
                      [0.0, 0.0]])
    out = data._interpolate(track, np.array([1, 3]), np.array([0, 2, 4]))
    assert np.signbit(out[0]).all()              # held first known value
    assert np.signbit(out[2]).tolist() == [True, False]  # held last one
    # through refine: a leading gap holds the first observation, sign and all
    frames = [Frame(t, None, {"A1": None if t < 2 else (-0.0, t * 0.1)}, {})
              for t in range(6)]
    repaired = refine(TrajectoryClip(frames, 25.0, 11),
                      RefineParams(ema_gamma=1.0))
    assert [math.copysign(1.0, f.team0["A1"][0]) for f in repaired.frames] \
        == [-1.0] * 6


def test_resample_rejects_single_frame():
    clip = TrajectoryClip([Frame(0, (0, 0), {}, {})], 25.0, 11)
    with pytest.raises(ValueError):
        resample(clip, 10.0)


def test_resample_rejects_duplicate_frame_indices():
    # two frames at index 2 used to resample through the later one: the ball
    # read 5.0 at frame 2, where the two frames give 2.0 and 5.0
    frames = [Frame(0, (0.0, 0.0), {}, {}), Frame(2, (2.0, 0.0), {}, {}),
              Frame(2, (5.0, 0.0), {}, {}), Frame(4, (4.0, 0.0), {}, {})]
    with pytest.raises(ValueError, match="^resample: frame index 2 occurs twice$"):
        resample(TrajectoryClip(frames, 25.0, 11), 12.5)


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


@pytest.mark.parametrize("shifts, expected", [
    # run at the start: frame 0 holds frame 1
    ({0: 30.0}, lambda clean: np.concatenate([clean[1:2], clean[1:]])),
    # run of three pairs in the middle: frames 5 and 6 interpolate 4 -> 7
    ({5: 30.0, 6: 60.0}, lambda clean: clean),
    # run at the end: the last frame holds the one before it
    ({11: 30.0}, lambda clean: np.concatenate([clean[:11], clean[10:11]])),
    # every pair anomalous: frames 0..10 hold the last frame, still shifted
    ({t: 30.0 for t in range(1, 12, 2)},
     lambda clean: np.broadcast_to(clean[11] + [30.0, 0.0], clean.shape)),
], ids=["start", "middle", "end", "every_pair"])
def test_refine_reconstructs_anomalous_runs(shifts, expected):
    clip = const_velocity_clip(frames=12)
    clean = clip_to_segment(clip)
    for t, dx in shifts.items():
        frame = clip.frames[t]
        frame.ball = (frame.ball[0] + dx, frame.ball[1])
        for team in (frame.team0, frame.team1):
            for pid, (x, y) in team.items():
                team[pid] = (x + dx, y)
    out = clip_to_segment(refine(clip, RefineParams(ema_gamma=1.0)))
    vis = clean.visibility
    assert np.array_equal(out.visibility, vis)
    np.testing.assert_allclose(out.coords[vis], expected(clean.coords)[vis],
                               rtol=0, atol=1e-9)


@pytest.mark.parametrize("field, value", [
    ("max_gap", -1), ("v_max", 0.0), ("v_max", -12.0), ("anomaly_count", 0),
    ("ema_gamma", 0.0), ("ema_gamma", -0.5), ("ema_gamma", 1.5)])
def test_refine_params_reject_values_that_break_refine(field, value):
    # ema_gamma = 0 used to divide by zero, -0.5 to move positions by
    # kilometres, and anomaly_count = 0 or v_max = 0 to freeze the clip
    with pytest.raises(ValueError, match=rf"^RefineParams\.{field} must"):
        RefineParams(**{field: value})


def test_anomalous_pair_flags_match_the_per_frame_loop():
    def loop(coords, vis, fps, v_max, anomaly_count):
        flags = np.zeros(max(len(coords) - 1, 0), dtype=bool)
        for t in range(len(coords) - 1):
            both = vis[t] & vis[t + 1]
            if both.any():
                d = np.linalg.norm(coords[t + 1, both] - coords[t, both], axis=-1)
                flags[t] = int((d * fps > v_max).sum()) >= anomaly_count
        return flags

    rng = Rng(60, ("anomaly",))
    for case in range(200):
        r = rng.child(case)
        shape = (int(r.child("F").integers(0, 12)), int(r.child("E").integers(1, 6)))
        coords = 0.6 * r.child("xy").normal(shape + (2,))
        vis = r.child("vis").uniform(shape=shape) < 0.8
        count = int(r.child("count").integers(1, 4))
        got = data._anomalous_pairs(coords, vis, 25.0, 12.0, count)
        assert np.array_equal(got, loop(coords, vis, 25.0, 12.0, count)), case


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


def oracle_ema_smooth(coords, vis, gamma):
    """`data._ema_smooth` before it ran one recursion per clip: a Python
    recursion per observed run and per direction."""
    if gamma >= 1.0:
        return
    beta = 1.0 - gamma
    pad = min(64, max(1, int(math.ceil(math.log(1e-15) / math.log(beta)))))

    def ema(x):
        y = np.empty_like(x)
        acc = x[0].copy()
        y[0] = acc
        for t in range(1, len(x)):
            acc = gamma * x[t] + beta * acc
            y[t] = acc
        return y

    for e in range(coords.shape[1]):
        for start, stop in data._runs(vis[:, e]):
            run = coords[start:stop, e]
            if len(run) < 2:
                continue
            p = min(pad, len(run) - 1)
            left = 2 * run[0] - run[p:0:-1]
            right = 2 * run[-1] - run[-2:-p - 2:-1]
            ext = np.concatenate([left, run, right])
            fwd = ema(ext)
            bwd = ema(ext[::-1])[::-1]
            coords[start:stop, e] = 0.5 * (fwd[p:p + len(run)] + bwd[p:p + len(run)])


def ema_cases():
    """(coords, vis): one hand-made clip of 90 frames with several runs of
    different lengths per entity (gaps longer than any `max_gap`), runs of
    1 and 2 frames and an entity never visible, then fuzzed masks."""
    rng = Rng(35, ("ema",))
    coords = np.round(rng.child("hand").normal((90, 6, 2)) * 20, 2)
    vis = np.zeros((90, 6), dtype=bool)
    vis[:, 0] = True
    for start, stop in ((0, 20), (35, 37), (40, 41), (45, 90)):
        vis[start:stop, 1] = True                   # entity 2 is never seen
    vis[10:12, 3] = True
    vis[[0, 5, 89], 4] = True
    for start, stop in ((3, 70), (72, 74), (80, 88)):
        vis[start:stop, 5] = True
    yield coords, vis
    for i in range(30):
        r = rng.child("fuzz", i)
        F, E = int(r.child("F").integers(1, 120)), int(r.child("E").integers(1, 8))
        keep = r.child("keep").uniform(0.0, 1.0, (F, E)) < r.child("p").uniform(0.3, 1.0)
        yield np.round(r.child("xy").normal((F, E, 2)) * 20, 2), keep


@pytest.mark.parametrize("gamma", [0.85, 0.5, 1.0])
def test_ema_smooth_matches_the_per_run_oracle_bit_for_bit(gamma):
    for i, (coords, vis) in enumerate(ema_cases()):
        got, want = coords.copy(), coords.copy()
        data._ema_smooth(got, vis, gamma)
        oracle_ema_smooth(want, vis, gamma)
        assert got.tobytes() == want.tobytes(), f"case {i}"
        assert np.array_equal(got[~vis], coords[~vis])
        if i == 0:                                  # the filter did run
            assert (got.tobytes() != coords.tobytes()) == (gamma < 1.0)


def oracle_segment_to_clip(seg, sport="soccer", metadata=None, start_index=0):
    """`data.segment_to_clip` before it built its frames from lists: one
    tuple of numpy scalars per visible slot."""
    coords = seg.coords
    if seg.normalized:
        coords = data.denormalize_xy(coords, PitchSpec.for_sport(sport))
    n = seg.players_per_team
    frames = []
    for t in range(len(seg)):
        team0 = {pid: (tuple(coords[t, i]) if seg.visibility[t, i] else None)
                 for i, pid in enumerate(seg.roster0)}
        team1 = {pid: (tuple(coords[t, n + i]) if seg.visibility[t, n + i] else None)
                 for i, pid in enumerate(seg.roster1)}
        ball = tuple(coords[t, 2 * n]) if seg.visibility[t, 2 * n] else None
        frames.append(Frame(start_index + t, ball, team0, team1))
    return TrajectoryClip(frames, seg.fps, n, sport, metadata or {})


def test_segment_to_clip_matches_the_per_element_oracle():
    rng = Rng(36, ("segment-to-clip",))
    for i in range(200):
        r = rng.child("case", i)
        F, n = int(r.child("F").integers(1, 12)), int(r.child("n").integers(1, 5))
        rosters = [tuple(f"{side}{k}" for k in range(int(r.child(side).integers(0, n + 1))))
                   for side in "AB"]                # short rosters leave slots unused
        normalized = bool(r.child("norm").uniform() < 0.5)
        coords = r.child("xy").uniform(-1.0, 1.0, (F, 2 * n + 1, 2))
        coords = coords if normalized else np.round(coords * 40, 2)
        coords[r.child("zero").uniform(0.0, 1.0, coords.shape) < 0.1] = -0.0
        vis = r.child("vis").uniform(0.0, 1.0, (F, 2 * n + 1)) < 0.8
        seg = data.Segment(coords, vis, 25.0, n, *rosters, normalized=normalized)
        got = data.segment_to_clip(seg, "basketball", {"tag": i}, start_index=7)
        want = oracle_segment_to_clip(seg, "basketball", {"tag": i}, start_index=7)
        assert serialize_clip(got) == serialize_clip(want), f"case {i}"
        assert got == want
        for f, g in zip(got.frames, want.frames):
            for pos, ref in zip([f.ball, *f.team0.values(), *f.team1.values()],
                                [g.ball, *g.team0.values(), *g.team1.values()]):
                assert position_bytes(pos) == position_bytes(ref)
                assert pos is None or {type(v) for v in pos} == {float}


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


def test_clip_to_segment_matches_slot_by_slot_densify_bitwise():
    frames = [Frame(0, (0.5, -1.25), {"A1": (1.0, 2.0), "A2": (3, 4)},
                    {"B1": (-5.5, 6.25)}),
              Frame(1, None, {"A2": (3.1, 4.2)}, {"B1": None}),
              Frame(2, (0.75, -1.0), {"A1": None, "A2": (3.2, 4.4)}, {})]
    seg = clip_to_segment(TrajectoryClip(frames, 25.0, 3))
    coords, vis = np.zeros((3, 7, 2)), np.zeros((3, 7), dtype=bool)
    for t, f in enumerate(frames):           # slots: A1 A2 pad B1 pad pad ball
        for slot, pos in ((0, f.team0.get("A1")), (1, f.team0.get("A2")),
                          (3, f.team1.get("B1")), (6, f.ball)):
            if pos is not None:
                coords[t, slot], vis[t, slot] = pos, True
    assert (seg.roster0, seg.roster1) == (("A1", "A2"), ("B1",))
    assert seg.coords.tobytes() == coords.tobytes()
    assert seg.visibility.tobytes() == vis.tobytes()


def test_clip_to_segment_rejects_duplicates_and_oversized_rosters():
    dup = [Frame(0, None, {"A1": [(4.0, 4.0), (2.0, 2.0)]}, {})]
    with pytest.raises(ValueError, match="duplicate detections"):
        clip_to_segment(TrajectoryClip(dup, 25.0, 11))
    crowded = [Frame(0, None, {}, {"B1": (1.0, 1.0), "B2": (2.0, 2.0)})]
    with pytest.raises(ValueError, match="team1 roster of 2 exceeds 1"):
        clip_to_segment(TrajectoryClip(crowded, 25.0, 1))
