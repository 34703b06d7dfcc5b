"""Metric suite against independent oracles: loop-based displacement errors,
Monte-Carlo hull areas, manual control grids, Voronoi partitions, and
hand-counted confusion tables."""

import math

import numpy as np
import pytest

from gentac import metrics
from gentac.data import SPORTS, PitchSpec
from gentac.events import TAXONOMY, classify
from gentac.metrics import (EpvGrid, GeometricReport, StructureVector, ade,
                            aggregate_over_k, convex_hull,
                            defensive_disruption, depth_threat,
                            dominant_region, event_metrics, fde, hull_area, obet,
                            polygon_area, structure, structure_deviation,
                            synthetic_epv, width_threat)
from gentac.rng import Rng

PITCH = PitchSpec(105.0, 68.0)


# ---------------------------------------------------------------------------
# displacement errors
# ---------------------------------------------------------------------------

def test_ade_fde_zero_for_exact_prediction():
    truth = Rng(0).normal((10, 4, 2))
    assert ade(truth, truth) == 0.0
    assert fde(truth, truth) == 0.0


def test_ade_fde_constant_offset_is_hypotenuse():
    truth = Rng(1).normal((8, 3, 2))
    pred = truth + np.array([3.0, 4.0])
    assert ade(pred, truth) == pytest.approx(5.0, abs=1e-12)
    assert fde(pred, truth) == pytest.approx(5.0, abs=1e-12)


def test_ade_fde_against_double_loop_oracle():
    rng = Rng(2)
    pred = rng.child("p").normal((12, 5, 2)) * 10
    truth = rng.child("t").normal((12, 5, 2)) * 10
    acc = 0.0
    for e in range(5):
        per_frame = 0.0
        for t in range(12):
            dx = pred[t, e, 0] - truth[t, e, 0]
            dy = pred[t, e, 1] - truth[t, e, 1]
            per_frame += math.sqrt(dx * dx + dy * dy)
        acc += per_frame / 12
    assert abs(ade(pred, truth) - acc / 5) < 1e-12
    final = np.mean([math.hypot(*(pred[-1, e] - truth[-1, e])) for e in range(5)])
    assert abs(fde(pred, truth) - final) < 1e-12


def test_ade_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        ade(np.zeros((3, 2, 2)), np.zeros((4, 2, 2)))


def test_entity_mask_restricts_the_average():
    truth = np.zeros((4, 2, 2))
    pred = truth.copy()
    pred[:, 1] += [3.0, 4.0]
    assert ade(pred, truth, entity_mask=[True, False]) == 0.0
    assert ade(pred, truth, entity_mask=[False, True]) == pytest.approx(5.0)


@pytest.mark.parametrize("mask", [[False, False], [True], [True, False, True]],
                         ids=["selects-none", "too-short", "too-long"])
@pytest.mark.parametrize("metric", [ade, fde])
def test_entity_mask_needs_one_flag_per_entity_and_a_selection(metric, mask):
    # an all-False mask used to return NaN with a "Mean of empty slice"
    # warning, and a mask of the wrong length failed in numpy's indexing
    truth = np.zeros((4, 2, 2))
    with pytest.raises(ValueError, match="^entity_mask"):
        metric(truth + 1.0, truth, entity_mask=mask)


# ---------------------------------------------------------------------------
# aggregation over K
# ---------------------------------------------------------------------------

def test_aggregate_single_sample_min_equals_avg():
    truth = Rng(3).normal((50, 4, 2))
    pred = truth + 0.5
    rep = aggregate_over_k([pred], truth, fps=25.0, horizons=(1, 2))
    for h in (1, 2):
        assert rep.min_ade[h] == rep.avg_ade[h]
        assert rep.min_fde[h] == rep.avg_fde[h]


def test_aggregate_perfect_sample_among_k_gives_zero_min():
    truth = Rng(4).normal((25, 3, 2))
    rep = aggregate_over_k([truth + 1.0, truth.copy(), truth - 2.0],
                           truth, fps=25.0, horizons=(1,))
    assert rep.min_ade[1] == 0.0
    assert rep.min_fde[1] == 0.0
    assert rep.avg_ade[1] > 0.0


def test_aggregate_matches_sort_and_mean_oracle():
    rng = Rng(5)
    truth = rng.child("t").normal((50, 3, 2)) * 5
    samples = [truth + rng.child("s", k).normal((50, 3, 2)) for k in range(3)]
    rep = aggregate_over_k(samples, truth, fps=25.0, horizons=(1, 2))
    for h in (1, 2):
        n = 25 * h
        ades = sorted(ade(s[:n], truth[:n]) for s in samples)
        assert rep.min_ade[h] == pytest.approx(ades[0], abs=1e-12)
        assert rep.avg_ade[h] == pytest.approx(np.mean(ades), abs=1e-12)


def test_min_ade_non_increasing_when_samples_appended():
    rng = Rng(6)
    truth = rng.child("t").normal((25, 3, 2))
    samples = [truth + rng.child("s", k).normal((25, 3, 2)) for k in range(6)]
    prev = math.inf
    for k in range(1, 7):
        rep = aggregate_over_k(samples[:k], truth, fps=25.0, horizons=(1,))
        assert rep.min_ade[1] <= prev + 1e-15
        prev = rep.min_ade[1]


# ---------------------------------------------------------------------------
# convex hull
# ---------------------------------------------------------------------------

def mc_hull_area(points, n_shots=200_000, seed=0):
    """Monte-Carlo rejection estimate: sample the bounding box, count hits
    inside the hull (point-in-convex-polygon test)."""
    pts = np.asarray(points)
    hull = convex_hull(pts)
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    box = np.prod(hi - lo)
    if box == 0 or len(hull) < 3:
        return 0.0
    rng = Rng(seed, ("mc-hull",))
    shots = np.stack([rng.child("x").uniform(lo[0], hi[0], (n_shots,)),
                      rng.child("y").uniform(lo[1], hi[1], (n_shots,))], axis=1)
    inside = np.ones(n_shots, dtype=bool)
    for i in range(len(hull)):
        a, b = hull[i], hull[(i + 1) % len(hull)]
        cross = ((b[0] - a[0]) * (shots[:, 1] - a[1])
                 - (b[1] - a[1]) * (shots[:, 0] - a[0]))
        inside &= cross >= 0
    return box * inside.mean()


def test_hull_of_unit_square():
    square = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5]])
    hull = convex_hull(square)
    assert len(hull) == 4
    assert polygon_area(hull) == pytest.approx(1.0, abs=1e-15)


def test_hull_degenerate_collinear():
    line = np.array([[0, 0], [1, 1], [2, 2]])
    assert hull_area(line) == 0.0


def test_hull_area_within_1pct_of_monte_carlo_on_50_sets():
    rng = Rng(7)
    for trial in range(50):
        n = int(rng.child("n", trial).integers(3, 40))
        pts = rng.child("p", trial).normal((n, 2)) * 10
        exact = hull_area(pts)
        approx = mc_hull_area(pts, n_shots=120_000, seed=trial)
        if exact > 1e-9:
            assert abs(exact - approx) / exact < 0.01, f"set {trial}"


# ---------------------------------------------------------------------------
# structure vector
# ---------------------------------------------------------------------------

def test_structure_all_coincident():
    pts = np.tile([[3.0, -2.0]], (5, 1))
    s = structure(pts)
    assert s.stretch_index == 0.0
    assert s.surface_area == 0.0
    assert s.team_width == 0.0
    assert s.team_length == 0.0
    assert s.frobenius_norm == 0.0
    assert s.degenerate_hull


def test_structure_unit_square():
    pts = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
    s = structure(pts)
    assert s.surface_area == pytest.approx(1.0, abs=1e-12)
    assert s.team_width == pytest.approx(1.0)
    assert s.team_length == pytest.approx(1.0)
    assert s.stretch_index == pytest.approx(math.sqrt(2) / 2, abs=1e-12)


def test_structure_frobenius_counts_ordered_pairs():
    pts = np.array([[0.0, 0.0], [3.0, 4.0]])
    s = structure(pts)
    # sum over ordered pairs (i, j): two pairs at distance 5 -> sqrt(50)
    assert s.frobenius_norm == pytest.approx(math.sqrt(50.0), abs=1e-12)


def test_kuramoto_parallel_motion_is_one():
    pts = Rng(8).normal((6, 2))
    vel = np.tile([[2.0, 1.0]], (6, 1))
    s = structure(pts, velocities=vel)
    assert s.kuramoto_order == pytest.approx(1.0, abs=1e-12)


def test_kuramoto_balanced_opposition_is_zero():
    pts = Rng(9).normal((4, 2))
    vel = np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [-1.0, 0.0]])
    s = structure(pts, velocities=vel)
    assert s.kuramoto_order == pytest.approx(0.0, abs=1e-12)


def test_kuramoto_ignores_slow_players():
    pts = Rng(10).normal((3, 2))
    vel = np.array([[1.0, 0.0], [0.01, -0.02], [1.0, 0.0]])
    s = structure(pts, velocities=vel)
    assert s.kuramoto_order == pytest.approx(1.0, abs=1e-12)


def test_kuramoto_static_team_flagged_degenerate():
    pts = Rng(11).normal((3, 2))
    s = structure(pts, velocities=np.zeros((3, 2)))
    assert s.kuramoto_order == 1.0
    assert s.degenerate_kuramoto


def test_centroid_displacement_from_previous_frame():
    prev = np.zeros((4, 2))
    pts = prev + np.array([0.3, 0.4])
    s = structure(pts, prev_positions=prev, fps=25.0)
    assert s.centroid_displacement == pytest.approx(0.5, abs=1e-12)


def test_structure_outputs_within_documented_ranges():
    rng = Rng(12)
    for trial in range(30):
        pts = np.stack([rng.child("x", trial).uniform(-52.5, 52.5, (11,)),
                        rng.child("y", trial).uniform(-34.0, 34.0, (11,))], axis=1)
        prev = pts - rng.child("v", trial).normal((11, 2)) * 0.2
        s = structure(pts, prev_positions=prev, fps=25.0)
        assert 0.0 <= s.stretch_index <= 62.5
        assert 0.0 <= s.surface_area <= 7140.0
        assert 0.0 <= s.team_width <= 68.0
        assert 0.0 <= s.team_length <= 105.0
        assert 0.0 <= s.kuramoto_order <= 1.0


def test_shape_metrics_translation_invariant():
    rng = Rng(13)
    pts = rng.child("p").normal((9, 2)) * 8
    shift = np.array([17.3, -6.1])
    a, b = structure(pts), structure(pts + shift)
    assert abs(a.stretch_index - b.stretch_index) <= 1e-12
    assert abs(a.surface_area - b.surface_area) <= 1e-10
    assert abs(a.team_width - b.team_width) <= 1e-12
    assert abs(a.team_length - b.team_length) <= 1e-12
    assert abs(a.frobenius_norm - b.frobenius_norm) <= 1e-11


def test_shape_metrics_invariant_under_axis_flips():
    pts = Rng(14).normal((7, 2)) * 9
    flipped = pts * np.array([-1.0, 1.0])
    a, b = structure(pts), structure(flipped)
    assert a.surface_area == pytest.approx(b.surface_area, abs=1e-10)
    assert a.stretch_index == pytest.approx(b.stretch_index, abs=1e-12)
    assert a.frobenius_norm == pytest.approx(b.frobenius_norm, abs=1e-11)
    # width and length are axis-bound and unchanged by axis-aligned flips
    assert a.team_width == pytest.approx(b.team_width, abs=1e-12)
    assert a.team_length == pytest.approx(b.team_length, abs=1e-12)


# ---------------------------------------------------------------------------
# structure deviation over samples
# ---------------------------------------------------------------------------

def test_deviation_zero_for_exact_prediction():
    truth = Rng(15).normal((25, 7, 2)) * 5
    report = structure_deviation([truth.copy()], truth, fps=25.0, n_players=3,
                                 horizons=(1,))
    for m, (mn, avg) in report[1].items():
        assert mn == 0.0 and avg == 0.0


def test_deviation_rigid_translation_spares_shape_metrics():
    rng = Rng(16)
    base = rng.normal((25, 7, 2)) * 4
    truth = base.copy()
    pred = base + np.array([5.0, -3.0])  # constant shift, constant velocity
    report = structure_deviation([pred], truth, fps=25.0, n_players=3,
                                 horizons=(1,), history_last=None)
    for m in ("stretch_index", "surface_area", "team_width", "team_length",
              "frobenius_norm"):
        assert report[1][m][1] < 1e-9, m
    # identical frame-to-frame motion: centroid displacement also matches
    assert report[1]["centroid_displacement"][1] < 1e-9


def test_deviation_matches_manual_two_sample_computation():
    rng = Rng(17)
    truth = rng.child("t").normal((4, 5, 2)) * 6
    s1 = truth + rng.child("a").normal((4, 5, 2))
    s2 = truth + rng.child("b").normal((4, 5, 2))
    report = structure_deviation([s1, s2], truth, fps=25.0, n_players=2,
                                 horizons=(4 / 25.0,))
    teams = (slice(0, 2), slice(2, 4))

    def manual(sample):
        devs = []
        for t in range(4):
            row = {}
            for m in metrics.STRUCTURE_METRICS:
                per_team = []
                for sl in teams:
                    prev_s = sample[t - 1, sl] if t else None
                    prev_t = truth[t - 1, sl] if t else None
                    va = getattr(structure(sample[t, sl], prev_s, fps=25.0), m)
                    vb = getattr(structure(truth[t, sl], prev_t, fps=25.0), m)
                    per_team.append(abs(va - vb) if va is not None and vb is not None
                                    else np.nan)
                row[m] = np.mean(per_team)
            devs.append(row)
        return {m: np.nanmean([d[m] for d in devs])
                for m in metrics.STRUCTURE_METRICS}

    m1, m2 = manual(s1), manual(s2)
    h = 4 / 25.0
    for m in metrics.STRUCTURE_METRICS:
        vals = [m1[m], m2[m]]
        assert report[h][m][0] == pytest.approx(np.min(vals), abs=1e-12)
        assert report[h][m][1] == pytest.approx(np.mean(vals), abs=1e-12)


@pytest.mark.parametrize("shape", [(5, 7, 2), (3, 7, 2), (4, 6, 2), (4, 8, 2)])
def test_deviation_rejects_a_sample_shaped_unlike_the_truth(shape):
    truth = Rng(22).normal((4, 7, 2)) * 5
    sample = Rng(23).normal(shape) * 5
    with pytest.raises(ValueError, match=r"^shape mismatch"):
        structure_deviation([truth.copy(), sample], truth, fps=25.0,
                            n_players=3, horizons=(0.1,))


@pytest.mark.parametrize("case, message", [
    ({"n_players": 4}, r"^two teams of 4 players do not fit the truth's 7 entities$"),
    ({"truth": np.zeros((4, 5, 2)), "samples": [np.zeros((4, 5, 2))]},
     r"^two teams of 3 players do not fit the truth's 5 entities$"),
    ({"samples": []}, r"^need at least one sample$"),
    ({"history_last": np.zeros((6, 2))}, r"^history_last must be \[E x 2\] = \(7, 2\), got \(6, 2\)$"),
    ({"history_last": np.zeros(14)}, r"^history_last must be \[E x 2\]"),
    ({"truth": np.zeros((4, 7))}, r"^truth must be \[T x E x 2\]"),
    ({"horizons": (0.01,)}, r"^horizon 0.01s shorter than one frame$"),
    ({"horizons": (0.1, 0.04)}, r"^horizon 0.04s covers one frame, .* need history_last$"),
], ids=["players-past-entities", "team-past-entities", "no-samples",
        "history-rows", "history-flat", "truth-2d", "zero-frame-horizon",
        "one-frame-horizon-without-history"])
def test_deviation_rejects_malformed_input_in_one_line(case, message):
    truth = Rng(24).normal((4, 7, 2)) * 5
    kwargs = {"samples": [truth + 1.0], "truth": truth, "fps": 25.0,
              "n_players": 3, "horizons": (0.1,), **case}
    with pytest.raises(ValueError, match=message):
        structure_deviation(**kwargs)


def test_deviation_one_frame_horizon_with_history_last_is_finite():
    truth = Rng(25).normal((4, 7, 2)) * 5
    report = structure_deviation([truth + 1.0], truth, fps=25.0, n_players=3,
                                 horizons=(0.04,), history_last=truth[0] - 0.5)
    assert all(np.isfinite(v).all() for v in report[0.04].values())


# The per-frame structure suite the one-pass kernel replaced, kept as the
# oracle: `structure` and `structure_deviation` must match it bit for bit.

def oracle_hull_area(points):
    pts = np.unique(np.asarray(points, dtype=np.float64), axis=0)
    if len(pts) < 3:
        return 0.0
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]

    def half(seq):
        chain = []
        for p in seq:
            while len(chain) >= 2:
                o, a = chain[-2], chain[-1]
                if (a[0] - o[0]) * (p[1] - o[1]) - (a[1] - o[1]) * (p[0] - o[0]) <= 0:
                    chain.pop()
                else:
                    break
            chain.append(p)
        return chain

    v = np.array(half(pts)[:-1] + half(pts[::-1])[:-1])
    if len(v) < 3:
        return 0.0
    x, y = v[:, 0], v[:, 1]
    return float(abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))) / 2.0)


def oracle_structure(positions, prev_positions=None, velocities=None, fps=None,
                     v_eps=metrics.KURAMOTO_SPEED_EPS):
    pts = np.asarray(positions, dtype=np.float64)
    c = pts.mean(axis=0)
    stretch = float(np.linalg.norm(pts - c, axis=1).mean())
    degenerate_hull = len(np.unique(pts, axis=0)) < 3
    area = 0.0 if degenerate_hull else oracle_hull_area(pts)
    width = float(pts[:, 1].max() - pts[:, 1].min())
    length = float(pts[:, 0].max() - pts[:, 0].min())
    diff = pts[:, None, :] - pts[None, :, :]
    frob = float(np.sqrt((diff ** 2).sum()))
    displacement = None
    if prev_positions is not None:
        prev = np.asarray(prev_positions, dtype=np.float64)
        displacement = float(np.linalg.norm(c - prev.mean(axis=0)))
    if velocities is None and prev_positions is not None:
        velocities = (pts - np.asarray(prev_positions)) * fps
    kuramoto, degenerate_kuramoto = None, False
    if velocities is not None:
        vel = np.asarray(velocities, dtype=np.float64)
        speed = np.linalg.norm(vel, axis=1)
        moving = speed >= v_eps
        if not moving.any():
            kuramoto, degenerate_kuramoto = 1.0, True
        else:
            headings = vel[moving] / speed[moving, None]
            kuramoto = float(np.linalg.norm(headings.sum(axis=0)) / moving.sum())
    return StructureVector(stretch, area, width, length, frob, displacement,
                           kuramoto, degenerate_hull, degenerate_kuramoto)


def oracle_structure_deviation(samples, truth, fps, n_players, horizons,
                               history_last=None):
    truth = np.asarray(truth)
    slices = [slice(team * n_players, (team + 1) * n_players) for team in (0, 1)]

    def per_frame_metrics(coords):
        prevs = [history_last, *coords[:-1]]
        return [[oracle_structure(frame[sl], None if prev is None else prev[sl],
                                  fps=fps) for sl in slices]
                for frame, prev in zip(np.asarray(coords), prevs)]

    truth_rows = per_frame_metrics(truth)
    per_sample = []
    for s in samples:
        frame_dev = {m: [] for m in metrics.STRUCTURE_METRICS}
        for pred, true in zip(per_frame_metrics(s), truth_rows):
            for m in metrics.STRUCTURE_METRICS:
                pairs = [(getattr(a, m), getattr(b, m)) for a, b in zip(pred, true)]
                vals = [abs(a - b) for a, b in pairs if a is not None and b is not None]
                frame_dev[m].append(np.mean(vals) if vals else np.nan)
        per_sample.append({m: np.array(v) for m, v in frame_dev.items()})
    report = {}
    for h in horizons:
        n = min(int(round(h * fps)), truth.shape[0])
        report[h] = {}
        for m in metrics.STRUCTURE_METRICS:
            means = [float(np.nanmean(ps[m][:n])) for ps in per_sample]
            report[h][m] = (float(np.min(means)), float(np.mean(means)))
    return report


def shape_scene(kind, n_players, k, seed):
    """(truth [T x E x 2], K samples): one extra entity stands for the ball."""
    rng = Rng(seed, ("shape", kind, n_players, k))
    E = 2 * n_players + 1
    truth = rng.child("t").normal((6, E, 2)) * 8
    if kind == "static":                 # nobody moves: degenerate Kuramoto
        truth[:] = truth[0]
    elif kind == "coincident":           # players share spots: fewer distinct
        truth[:, 1::2] = truth[:, 0:E - 1:2]
    elif kind == "collinear":            # on one line: hull area 0, not degenerate
        truth[..., 1] = 0.5 * truth[..., 0] - 3.0
    elif kind == "rounded":              # whole metres: ties in the sort
        truth = np.round(truth)
    scale = (0.0, 0.02, 1.5)
    samples = []
    for i in range(k):
        s = truth + rng.child("s", i).normal(truth.shape) * scale[i % 3]
        samples.append(np.round(s) if kind == "rounded" else s)
    return truth, samples


def same_bits(a, b):
    return a == b or (a is not None and b is not None
                      and math.isnan(a) and math.isnan(b))


@pytest.mark.parametrize("n_players", [1, 2, 3, 5, 8, 9, 11])
@pytest.mark.parametrize("k", [1, 4])
@pytest.mark.parametrize("kind", ["random", "static", "coincident", "collinear",
                                  "rounded"])
def test_structure_suite_matches_the_per_frame_oracle_bit_for_bit(n_players, k,
                                                                   kind):
    truth, samples = shape_scene(kind, n_players, k, 25)
    fps, horizons = 25.0, (0.08, 0.2, 1)
    for history in (None, truth[0] - 0.3):
        got = structure_deviation(samples, truth, fps, n_players, horizons, history)
        want = oracle_structure_deviation(samples, truth, fps, n_players,
                                          horizons, history)
        assert got.keys() == want.keys()
        for h in horizons:
            for m in metrics.STRUCTURE_METRICS:
                assert all(map(same_bits, got[h][m], want[h][m])), (h, m)
    team = slice(0, n_players)
    for t in range(len(truth)):
        frame, prev = truth[t, team], truth[t - 1, team]
        vel = samples[0][t, team] - frame
        for args in ((frame,), (frame, prev, None, 25.0), (frame, None, vel),
                     (frame, prev, vel)):
            assert structure(*args) == oracle_structure(*args)
        assert np.array_equal(convex_hull(frame), convex_hull(frame[::-1]))
        assert hull_area(frame) == oracle_hull_area(frame)


# ---------------------------------------------------------------------------
# EPV-weighted control metrics
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("sport", sorted(SPORTS))
def test_lattice_tiles_the_pitch(sport):
    # the outer cell edges sit on the pitch's edges, and the cells' areas add
    # up to the pitch's: a defender alone on the pitch holds all of it
    pitch = PitchSpec.for_sport(sport)
    cells = metrics.lattice(pitch)
    for span, centers in ((pitch.length, cells[0, :, 0]), (pitch.width, cells[:, 0, 1])):
        n = len(centers)
        assert n == max(1, round(span))
        width = span / n
        assert -span / 2 + n * width == span / 2    # n cells end on the end line
        np.testing.assert_allclose(np.diff(centers), width, rtol=0, atol=1e-12)
        assert centers[0] - width / 2 == pytest.approx(-span / 2, rel=0, abs=1e-12)
        assert centers[-1] + width / 2 == pytest.approx(span / 2, rel=0, abs=1e-12)
    area = dominant_region(np.zeros((1, 2)), np.array([[1e4, 1e4]]), pitch=pitch)
    assert area == pytest.approx(pitch.area, rel=1e-12)


def test_soccer_lattice_is_the_whole_metre_grid_bit_for_bit():
    xs = -52.5 + (np.arange(105) + 0.5) * 1.0
    ys = -34.0 + (np.arange(68) + 0.5) * 1.0
    expected = np.stack(np.meshgrid(xs, ys), axis=-1)
    assert metrics.lattice(PitchSpec.for_sport("soccer")).tobytes() == expected.tobytes()


def test_lattice_is_built_once_per_pitch_and_read_only():
    soccer = metrics.lattice(PitchSpec.for_sport("soccer"))
    assert metrics.lattice(PitchSpec(105, 68)) is soccer    # equal pitches
    assert metrics.lattice(PitchSpec(105.0, 67.0)) is not soccer
    with pytest.raises(ValueError, match="read-only"):
        soccer[0, 0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        soccer.reshape(-1, 2)[0] = 1.0
    assert synthetic_epv(PITCH).cells is soccer
    assert EpvGrid(np.ones((68, 105)), PITCH).cells is soccer


def uniform_epv():
    return EpvGrid(np.ones((68, 105)), PITCH)


def test_obet_mirror_symmetric_teams_is_half():
    attackers = np.array([[-10.0, 5.0], [-20.0, -8.0], [-5.0, 0.25]])
    defenders = attackers * np.array([-1.0, 1.0])  # mirrored about x = 0
    epv = uniform_epv()
    assert obet(attackers, defenders, epv) == pytest.approx(0.5, abs=1e-12)


def test_obet_is_one_when_attackers_own_every_cell():
    attackers = np.array([[0.0, 0.0], [20.0, 10.0]])
    defenders = np.array([[500.0, 500.0]])  # too far to control anything
    assert obet(attackers, defenders, uniform_epv()) == 1.0


def test_obet_four_cell_toy_manual():
    pitch = PitchSpec(2.0, 2.0)
    epv = EpvGrid(np.array([[1.0, 2.0], [3.0, 4.0]]), pitch)
    # attacker sits in the cell worth 4, defender in the cell worth 1;
    # the cells worth 2 and 3 split by distance
    attackers = np.array([[0.5, 0.5]])     # cell centers: (+-0.5, +-0.5)
    defenders = np.array([[-0.5, -0.5]])
    # manual assignment: (0.5,0.5)->atk(4), (-0.5,-0.5)->def(1),
    # (0.5,-0.5): equidistant -> tie, (-0.5,0.5): equidistant -> tie
    value = obet(attackers, defenders, epv)
    assert value == pytest.approx(4.0 / 5.0, abs=1e-12)


def test_obet_complementarity():
    rng = Rng(18)
    attackers = np.stack([rng.child("ax").uniform(-50, 50, (4,)),
                          rng.child("ay").uniform(-30, 30, (4,))], axis=1)
    defenders = np.stack([rng.child("dx").uniform(-50, 50, (4,)),
                          rng.child("dy").uniform(-30, 30, (4,))], axis=1)
    epv = synthetic_epv(PITCH)
    a = obet(attackers, defenders, epv)
    d = obet(defenders, attackers, epv)
    assert a + d == pytest.approx(1.0, abs=1e-9)


def test_obet_requires_players():
    with pytest.raises(ValueError):
        obet(np.zeros((0, 2)), np.array([[0.0, 0.0]]), uniform_epv())


def test_zone_threat_full_control_is_one():
    attackers = np.array([[0.0, 0.0]])
    defenders = np.array([[200.0, 200.0]])  # far off-pitch: no control
    epv = synthetic_epv(PITCH)
    assert depth_threat(attackers, defenders, epv) == pytest.approx(1.0, abs=1e-9)
    assert width_threat(attackers, defenders, epv) == pytest.approx(1.0, abs=1e-9)


def test_zone_threat_no_control_is_zero():
    attackers = np.array([[200.0, 200.0]])
    defenders = np.array([[0.0, 0.0]])
    epv = synthetic_epv(PITCH)
    assert depth_threat(attackers, defenders, epv) == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("cells_per_zone", [2, 4, 8])
def test_zone_threat_two_zone_manual(cells_per_zone):
    m = cells_per_zone
    pitch = PitchSpec(32.0 * m, 1.0)   # 32m x 1 m cells, m per strip along x
    values = np.where(np.arange(32 * m) < 16 * m, 1.0, 3.0)[None]
    epv = EpvGrid(values, pitch)       # left half worth 1 a cell, right 3
    # the players' midpoint x = 1 m is a cell edge, so no cell ties: the
    # defender owns the left half plus the first cell of strip 16, the
    # attacker the other m - 1 cells of strip 16 and strips 17..31
    attackers = np.array([[8.0 * m + 1.0, 0.0]])
    defenders = np.array([[-8.0 * m + 1.0, 0.0]])
    # a right strip holds 3m of the 64m EPV mass
    expected = (15 * 1.0 + (m - 1) / m) * 3 / 64
    assert depth_threat(attackers, defenders, epv) == pytest.approx(expected, abs=1e-12)
    # the one cell row falls in one strip along y, all of the mass
    assert width_threat(attackers, defenders, epv) == pytest.approx(
        (16 * m - 1) / (32 * m), abs=1e-12)


def test_zone_threat_leaves_empty_zones_out():
    pitch = PitchSpec(4.0, 1.0)
    epv = EpvGrid(np.array([[1.0, 1.0, 2.0, 4.0]]), pitch)
    attackers = np.array([[1.5, 0.0]])   # owns the two right cells
    defenders = np.array([[-1.5, 0.0]])  # owns the two left cells
    # each cell falls in its own strip of the 32 along x (28 stay empty): the
    # attacker holds the cells worth 2 and 4 of the 8
    value = depth_threat(attackers, defenders, epv)
    assert value == pytest.approx((0 * 2 / 8) + (1.0 * 6 / 8), abs=1e-12)
    # the one cell row falls in one of the 32 strips along y; 31 stay empty
    assert width_threat(attackers, defenders, epv) == pytest.approx(0.5, abs=1e-12)


def test_epv_grid_rejects_a_shape_unlike_its_pitch_lattice():
    with pytest.raises(ValueError, match=r"\(10, 10\).*\(68, 105\)"):
        EpvGrid(np.ones((10, 10)), PitchSpec())
    with pytest.raises(ValueError, match=r"\(68, 105\).*\(15, 29\)"):
        EpvGrid(np.ones((68, 105)), PitchSpec.for_sport("basketball"))


def test_epv_resampling_preserves_constant_grids():
    raw = np.full((34, 52), 3.7)
    grid = metrics.epv_from_matrix(raw, PITCH)
    assert grid.values.shape == (68, 105)
    np.testing.assert_allclose(grid.values, 3.7, atol=1e-12)


def test_load_epv_round_trips_through_the_grid_file(tmp_path):
    from gentac.data import save_epv_grid

    matrix = np.round(Rng(41, ("epv",)).uniform(0.0, 1.0, (12, 16)), 4)
    path = tmp_path / "epv.txt"
    save_epv_grid(matrix, path)
    loaded = metrics.load_epv(path, PITCH)
    direct = metrics.epv_from_matrix(matrix, PITCH)
    assert loaded.values.tobytes() == direct.values.tobytes()
    assert loaded.pitch == direct.pitch
    assert loaded.cells.tobytes() == direct.cells.tobytes()


# The batched formulas the control kernels replaced, kept as oracles: the
# per-player kernels must match them bit for bit, not merely to a tolerance.

def batched_nearest_distance(cells, players):
    return np.linalg.norm(cells[:, None, :] - players[None, :, :], axis=-1).min(axis=1)


def arrival_time(distance, v_along):
    """The in-place arrival kernel on arrays of any broadcastable shapes, on
    copies of its inputs; scalars in give a scalar out."""
    D, v = np.broadcast_arrays(np.asarray(distance, dtype=np.float64),
                               np.asarray(v_along, dtype=np.float64))
    t, v0, w1, w2, w3 = (np.empty(D.shape) for _ in range(5))
    np.copyto(v0, v)
    metrics._arrival_into(t.reshape(-1), D.reshape(-1), v0.reshape(-1),
                          w1.reshape(-1), w2.reshape(-1), w3.reshape(-1))
    return t[()]


def oracle_arrival_time(distance, v_along, accel=metrics.ARRIVAL_ACCEL,
                        vmax=metrics.ARRIVAL_VMAX):
    """The arrival kernel before it worked in place: both branches of every
    np.where evaluated on fresh arrays."""
    D = np.asarray(distance, dtype=np.float64)
    v0 = np.clip(np.asarray(v_along, dtype=np.float64), -vmax, vmax)
    t_brake = np.where(v0 < 0, -v0 / accel, 0.0)
    D_eff = D + np.where(v0 < 0, v0 ** 2 / (2 * accel), 0.0)
    v_start = np.maximum(v0, 0.0)
    d_acc = (vmax ** 2 - v_start ** 2) / (2 * accel)
    t_short = (np.sqrt(v_start ** 2 + 2 * accel * D_eff) - v_start) / accel
    t_long = (vmax - v_start) / accel + (D_eff - d_acc) / vmax
    return t_brake + np.where(D_eff <= d_acc, t_short, t_long)


def batched_min_arrival(cells, players, velocities):
    velocities = np.zeros_like(players) if velocities is None else velocities
    delta = cells[None, :, :] - players[:, None, :]         # [P x C x 2]
    dist = np.linalg.norm(delta, axis=-1)
    with np.errstate(invalid="ignore", divide="ignore"):
        unit = np.where(dist[..., None] > 0, delta / np.maximum(dist, 1e-300)[..., None], 0.0)
    v_along = (velocities[:, None, :] * unit).sum(axis=-1)
    return oracle_arrival_time(dist, v_along).min(axis=0)


def batched_control(attackers, defenders, epv):
    cells = epv.cells.reshape(-1, 2)
    da = batched_nearest_distance(cells, np.asarray(attackers, dtype=float))
    dd = batched_nearest_distance(cells, np.asarray(defenders, dtype=float))
    out = np.zeros(len(cells), dtype=int)
    out[da < dd - metrics.TIE_EPS] = 1
    out[dd < da - metrics.TIE_EPS] = -1
    return out.reshape(epv.values.shape)


def oracle_obet(attackers, defenders, epv):
    control = batched_control(attackers, defenders, epv)
    atk, dfn = epv.values[control == 1].sum(), epv.values[control == -1].sum()
    return float(atk / (atk + dfn))


def oracle_zone_threat(attackers, defenders, epv, axis):
    n_zones = metrics.N_ZONES
    control = batched_control(attackers, defenders, epv)
    span = (epv.pitch.length, epv.pitch.width)[axis]
    coord = epv.cells[..., axis]
    zone = np.minimum(((coord + span / 2) / span * n_zones).astype(int), n_zones - 1)
    total = epv.values.sum()
    value = 0.0
    for z in range(n_zones):
        if (zone == z).any():
            share = (control[zone == z] == 1).sum() / (zone == z).sum()
            value += share * (epv.values[zone == z].sum() / total)
    return float(value)


def control_cases():
    """(name, pitch, attackers, defenders, atk vel, def vel): fuzzed players
    on and off the pitch, players on cell centres, mirrored teams (exact
    distance ties), and None, zero and random velocities. "1.0" in a name is
    the lattice's nominal 1 m cell."""
    for sport in ("soccer", "basketball", "american_football", "ice_hockey"):
        pitch = PitchSpec.for_sport(sport)
        half = np.array([pitch.length, pitch.width]) / 2
        rng = Rng(40, (sport, 1.0))
        cells = metrics.lattice(pitch).reshape(-1, 2)
        atk = rng.child("a").uniform(-1.1, 1.1, (5, 2)) * half
        dfn = rng.child("d").uniform(-1.1, 1.1, (4, 2)) * half
        vel = rng.child("v").normal((5, 2)) * 4.0
        yield f"{sport}-1.0-fuzzed", pitch, atk, dfn, vel, vel[:4]
        yield (f"{sport}-1.0-mirrored", pitch, atk,
               atk * np.array([-1.0, 1.0]), None, np.zeros((5, 2)))
        idx = rng.child("i").integers(0, len(cells), (6,))
        yield (f"{sport}-1.0-cell-centres", pitch, cells[idx[:3]],
               cells[idx[3:]], vel[:3], None)
    # dx * dx underflows to 0 at the (0, 0.5) cell centre: a zero distance
    # whose offset is not zero still has no heading toward that cell
    near = np.array([[1e-170, 0.5], [-3e-160, 0.5]])
    yield ("soccer-1.0-underflow", PitchSpec.for_sport("soccer"), near,
           np.array([[5.0, 5.0]]), np.array([[3.0, 1.0], [-2.0, 4.0]]), None)
    # both offsets underflow at the (0, 0) centre of a 105 x 67 m pitch: the
    # quotients are -inf there, yet the speed toward that cell is still 0
    yield ("odd-1.0-underflow", PitchSpec(105.0, 67.0),
           np.array([[1e-170, 1e-170]]), np.array([[5.0, 5.0]]),
           np.array([[3.0, 1.0]]), None)


@pytest.mark.parametrize("case", list(control_cases()), ids=lambda c: c[0])
def test_control_kernels_match_the_batched_oracles_bit_for_bit(case):
    _, pitch, atk, dfn, v_atk, v_dfn = case
    epv = synthetic_epv(pitch)
    cells = epv.cells.reshape(-1, 2)
    for players, vel in ((atk, v_atk), (dfn, v_dfn)):
        assert np.array_equal(metrics._nearest_distance(epv.cells, players).ravel(),
                              batched_nearest_distance(cells, players))
        assert np.array_equal(metrics._min_arrival(cells, players, vel),
                              batched_min_arrival(cells, players, vel))
    assert np.array_equal(metrics._nearest_control(atk, dfn, epv),
                          batched_control(atk, dfn, epv))
    td = batched_min_arrival(cells, dfn, v_dfn)
    ta = batched_min_arrival(cells, atk, v_atk)
    cell_area = pitch.area / len(cells)
    for region, first, second in ((dominant_region(dfn, atk, v_dfn, v_atk, pitch), td, ta),
                                  (dominant_region(atk, dfn, v_atk, v_dfn, pitch), ta, td)):
        n_cells = int((first < second - metrics.TIE_EPS).sum())
        assert region == pytest.approx(n_cells * cell_area, rel=1e-12)


def test_control_cache_follows_new_players_on_the_same_grid():
    epv = synthetic_epv(PITCH)
    rng = Rng(41)
    frames = [(rng.child("a", t).uniform(-40, 40, (3, 2)),
               rng.child("d", t).uniform(-40, 40, (3, 2))) for t in range(3)]
    for att, dfn in frames + frames[:1]:
        assert obet(att, dfn, epv) == oracle_obet(att, dfn, epv)
        assert depth_threat(att, dfn, epv) == oracle_zone_threat(att, dfn, epv, 0)
        assert width_threat(att, dfn, epv) == oracle_zone_threat(att, dfn, epv, 1)


def test_control_caches_are_per_grid():
    # one lattice shape, different values: neither the control field nor
    # the zone tables of one grid may leak into the other
    steep = synthetic_epv(PITCH)
    flat = EpvGrid(np.sqrt(steep.values), PITCH)
    att = np.array([[10.0, 5.0], [30.0, -8.0]])
    dfn = np.array([[20.0, 0.0], [-5.0, 12.0]])
    for epv in (steep, flat, steep):
        assert obet(att, dfn, epv) == oracle_obet(att, dfn, epv)
        assert depth_threat(att, dfn, epv) == oracle_zone_threat(att, dfn, epv, 0)
    assert depth_threat(att, dfn, steep) != depth_threat(att, dfn, flat)


def test_control_cache_sees_players_mutated_in_place():
    epv = synthetic_epv(PITCH)
    att = np.array([[10.0, 5.0], [30.0, -8.0]])
    dfn = np.array([[20.0, 0.0], [-5.0, 12.0]])
    before = obet(att, dfn, epv)
    att[0] = [45.0, 0.0]
    assert obet(att, dfn, epv) == oracle_obet(att, dfn, epv) != before
    assert width_threat(att, dfn, epv) == oracle_zone_threat(att, dfn, epv, 1)


def test_control_field_is_read_only():
    control = metrics._nearest_control(np.array([[0.0, 0.0]]),
                                       np.array([[9.0, 9.0]]), uniform_epv())
    with pytest.raises(ValueError):
        control[0, 0] = -1


def test_epv_grid_keeps_a_read_only_copy_of_its_values():
    raw = synthetic_epv(PITCH).values.copy()
    epv = EpvGrid(raw, PITCH)
    att, dfn = np.array([[10.0, 5.0]]), np.array([[20.0, 0.0]])
    before = obet(att, dfn, epv)
    raw[:, 60:] = 0.0                     # the caller's array stays writeable
    assert obet(att, dfn, epv) == before
    assert obet(att + 1.0, dfn, epv) == oracle_obet(att + 1.0, dfn, epv)
    with pytest.raises(ValueError):
        epv.values[0, 0] = 1.0


def test_zone_threat_requires_players():
    with pytest.raises(ValueError, match="both teams"):
        depth_threat(np.array([[0.0, 0.0]]), np.zeros((0, 2)), uniform_epv())


def test_disruption_no_change_is_zero():
    assert defensive_disruption(500.0, 500.0, PITCH) == 0.0


def test_disruption_expansion_at_clip_boundary():
    assert defensive_disruption(100.0, 171.4, PITCH) == pytest.approx(1.0)


def test_disruption_against_direct_formula():
    rng = Rng(19)
    for trial in range(50):
        a = float(rng.child("a", trial).uniform(0, 2000))
        b = float(rng.child("b", trial).uniform(0, 2000))
        expected = np.clip(100.0 * (b - a) / 7140.0, -1.0, 1.0)
        assert defensive_disruption(a, b, PITCH) == pytest.approx(expected,
                                                                  abs=1e-12)


# ---------------------------------------------------------------------------
# dominant region
# ---------------------------------------------------------------------------

def test_arrival_time_from_rest_matches_kinematics():
    # short sprint: pure acceleration; long run: acceleration then cap
    a, vmax = 3.0, 8.0
    d_acc = vmax ** 2 / (2 * a)
    assert arrival_time(5.0, 0.0) == pytest.approx(math.sqrt(2 * 5.0 / a))
    long = arrival_time(30.0, 0.0)
    assert long == pytest.approx(vmax / a + (30.0 - d_acc) / vmax)


def test_arrival_time_moving_away_brakes_first():
    t_away = arrival_time(10.0, -4.0)
    t_rest = arrival_time(10.0, 0.0)
    t_toward = arrival_time(10.0, 4.0)
    assert t_toward < t_rest < t_away


@pytest.mark.parametrize("distance, v_along", [
    (5.0, 0.0), (10.0, -4.0), (0.0, 9.0), (3.0, -20.0),
    (np.array([0.0, 1e-310, 64 / 6, 10.67, 500.0]), np.array([0.0, -0.0, 8.0, -8.0, 3.0])),
    (np.linspace(0.0, 80.0, 200), 0.0),
    (30.0, np.linspace(-12.0, 12.0, 97)),
    (np.linspace(0.0, 40.0, 50)[:, None], np.linspace(-9.0, 9.0, 7)[None, :]),
], ids=["rest", "away", "zero-distance", "clipped", "edges", "distances",
        "speeds", "broadcast"])
def test_arrival_time_matches_the_oracle_bit_for_bit(distance, v_along):
    got, want = arrival_time(distance, v_along), oracle_arrival_time(distance, v_along)
    assert type(got) is type(want) and np.shape(got) == np.shape(want)
    assert np.array_equal(got, want)


def test_arrival_time_monotone_in_distance():
    d = np.linspace(0.0, 80.0, 300)
    t = arrival_time(d, 0.0)
    assert (np.diff(t) > 0).all()


def test_dominant_region_mirror_symmetric_split():
    defenders = np.array([[-10.0, 0.25]])
    attackers = np.array([[10.0, 0.25]])
    area = dominant_region(defenders, attackers, pitch=PITCH)
    assert abs(area - 3570.0) <= 68.0  # within one boundary cell row


def test_dominant_region_identical_position_ties_excluded():
    # every cell is a tie, so neither side holds any
    p = np.array([[3.0, 1.0]])
    v = np.array([[2.0, -1.0]])
    assert dominant_region(p, p, pitch=PITCH) == 0.0
    assert dominant_region(p, p, v, v, pitch=PITCH) == 0.0


def test_dominant_partition_covers_the_pitch():
    # random players tie on no cell, so the two regions share the pitch
    rng = Rng(20)
    for sport in sorted(SPORTS):
        pitch = PitchSpec.for_sport(sport)
        half = np.array([pitch.length, pitch.width]) / 2
        defenders = rng.child("d", sport).uniform(-1.0, 1.0, (5, 2)) * half
        attackers = rng.child("a", sport).uniform(-1.0, 1.0, (5, 2)) * half
        total = (dominant_region(defenders, attackers, pitch=pitch)
                 + dominant_region(attackers, defenders, pitch=pitch))
        assert total == pytest.approx(pitch.area, rel=1e-12), sport


def test_static_dominant_region_matches_voronoi_oracle():
    rng = Rng(21)
    for trial in range(5):
        defenders = np.stack([rng.child("dx", trial).uniform(-45, 45, (4,)),
                              rng.child("dy", trial).uniform(-30, 30, (4,))], axis=1)
        attackers = np.stack([rng.child("ax", trial).uniform(-45, 45, (4,)),
                              rng.child("ay", trial).uniform(-30, 30, (4,))], axis=1)
        area = dominant_region(defenders, attackers, pitch=PITCH)

        # brute-force nearest-neighbor scan over the same lattice
        xs = -PITCH.length / 2 + (np.arange(105) + 0.5)
        ys = -PITCH.width / 2 + (np.arange(68) + 0.5)
        count = 0
        for y in ys:
            for x in xs:
                dd = min(math.hypot(x - p[0], y - p[1]) for p in defenders)
                da = min(math.hypot(x - p[0], y - p[1]) for p in attackers)
                if dd < da - 1e-9:
                    count += 1
        assert abs(area - count) <= 68.0  # one boundary cell row


@pytest.mark.parametrize("defenders, attackers, def_vel, atk_vel, side", [
    (np.zeros((2, 3)), [[1.0, 1.0]], None, None, "defender"),
    ([[0.0, 0.0]], np.zeros(2), None, None, "attacker"),
    ([[0.0, 0.0], [1.0, 1.0]], [[5.0, 5.0]], np.zeros((1, 2)), None, "defender"),
    ([[0.0, 0.0]], [[5.0, 5.0]], None, np.zeros((1, 3)), "attacker"),
    ([[0.0, 0.0]], [[5.0, 5.0]], None, np.zeros(2), "attacker"),
], ids=["three-columns", "flat-players", "fewer-velocities", "velocity-columns",
        "flat-velocities"])
def test_dominant_region_rejects_malformed_players_in_one_line(
        defenders, attackers, def_vel, atk_vel, side):
    message = rf"^{side} positions and velocities must be \[N x 2\] with one row per player"
    with pytest.raises(ValueError, match=message) as err:
        dominant_region(defenders, attackers, def_vel, atk_vel, PITCH)
    assert "\n" not in str(err.value)


@pytest.mark.parametrize("defenders, attackers, def_vel, atk_vel, side", [
    ([[0.0, 0.0], [np.nan, 3.0]], [[5.0, 5.0]], None, None, "defender"),
    ([[0.0, 0.0]], [[5.0, np.inf]], None, None, "attacker"),
    ([[0.0, 0.0]], [[5.0, 5.0]], [[np.inf, 0.0]], None, "defender"),
    ([[0.0, 0.0]], [[5.0, 5.0]], None, [[0.0, np.nan]], "attacker"),
], ids=["nan-defender", "inf-attacker", "inf-defender-velocity",
        "nan-attacker-velocity"])
def test_dominant_region_rejects_non_finite_players_in_one_line(
        defenders, attackers, def_vel, atk_vel, side):
    # one NaN defender used to give 0.0 m^2 and an infinite velocity 3500 m^2
    with pytest.raises(ValueError,
                       match=rf"^{side} positions and velocities must be finite$"):
        dominant_region(defenders, attackers, def_vel, atk_vel, PITCH)


@pytest.mark.parametrize("metric", [obet, depth_threat, width_threat])
@pytest.mark.parametrize("side", ["attacker", "defender"])
def test_control_metrics_reject_non_finite_players_in_one_line(metric, side):
    # depth_threat used to give 0.0 with one NaN attacker
    epv = synthetic_epv(PITCH)
    att, dfn = np.array([[10.0, 5.0], [30.0, -8.0]]), np.array([[20.0, 0.0]])
    metric(att, dfn, epv)                   # a finite field is cached first
    bad = att.copy() if side == "attacker" else dfn.copy()
    bad[0, 1] = np.nan
    players = (bad, dfn) if side == "attacker" else (att, bad)
    with pytest.raises(ValueError, match=rf"^{side} positions must be finite$"):
        metric(*players, epv)
    assert metric(att, dfn, epv) == metric(att, dfn, synthetic_epv(PITCH))


def test_velocity_shifts_the_contested_boundary():
    # sprinting toward the halfway line wins the contested cell just past it
    t_def = float(arrival_time(11.0, 6.0))
    t_atk = float(arrival_time(9.0, 0.0))
    assert t_def < t_atk
    # region-level: the sprint gains front cells but cedes rear cells (the
    # model brakes before reversing), so the partition must reshape
    defenders = np.array([[-10.0, 0.25]])
    attackers = np.array([[10.0, 0.25]])
    static = dominant_region(defenders, attackers, pitch=PITCH)
    moving = dominant_region(defenders, attackers,
                             def_velocities=np.array([[6.0, 0.0]]),
                             atk_velocities=np.array([[0.0, 0.0]]),
                             pitch=PITCH)
    assert moving != static


@pytest.mark.parametrize("call", [
    lambda a: structure(a["pos"], a["prev"], fps=25.0),
    lambda a: structure(a["pos"], velocities=a["vel"]),
    lambda a: structure_deviation(a["samples"], a["truth"], 25.0, 3, (0.2,),
                                  history_last=a["history"]),
    lambda a: dominant_region(a["pos"], a["prev"], a["vel"], a["v"][:6].reshape(3, 2),
                              PITCH),
], ids=["structure-prev", "structure-velocities", "structure_deviation",
        "dominant_region"])
def test_public_metrics_leave_their_arguments_unchanged(call):
    # the kernels write into work arrays of their own, never into the caller's
    rng = Rng(26)
    truth = rng.child("t").normal((5, 7, 2)) * 8
    args = {"truth": truth, "samples": [truth + rng.child("s", k).normal((5, 7, 2))
                                        for k in range(2)],
            "history": truth[0] - 0.5, "pos": truth[1, :3].copy(),
            "prev": truth[0, :3].copy(), "vel": rng.child("u").normal((3, 2)) * 5,
            "v": rng.child("v").normal((50,)) * 6}
    before = {k: [x.copy() for x in v] if isinstance(v, list) else v.copy()
              for k, v in args.items()}
    call(args)
    for k, v in args.items():
        assert np.array_equal(np.asarray(v), np.asarray(before[k])), k


# ---------------------------------------------------------------------------
# event metrics
# ---------------------------------------------------------------------------

def one_hot_pred(y_type, y_sub):
    tl = np.full(5, -30.0)
    tl[TAXONOMY.type_index(y_type)] = 30.0
    sub = {t: np.full(len(TAXONOMY.subtypes[t]), -30.0) for t in TAXONOMY.types}
    sub[y_type][TAXONOMY.subtype_index(y_type, y_sub)] = 30.0
    return classify(tl, sub)


def test_event_metrics_all_correct():
    labels = [("threat", "goal"), ("build", "build"),
              ("transition", "progression")]
    preds = [one_hot_pred(*lab) for lab in labels]
    rep = event_metrics(preds, labels)
    assert rep.type_accuracy[1] == 1.0
    assert rep.subtype_accuracy[1] == 1.0
    assert rep.subtype_accuracy[5] == 1.0
    assert rep.type_macro_recall[1] == 1.0
    assert rep.type_macro_precision == 1.0
    assert rep.type_macro_f1 == 1.0


def test_event_metrics_constant_predictor_on_balanced_pair():
    labels = [("build", "build"), ("threat", "goal")] * 5
    preds = [one_hot_pred("build", "build")] * 10
    rep = event_metrics(preds, labels)
    assert rep.type_accuracy[1] == pytest.approx(0.5)
    assert rep.type_recall[1]["build"] == 1.0
    assert rep.type_recall[1]["threat"] == 0.0
    assert rep.type_macro_recall[1] == pytest.approx(0.5)


def test_event_metrics_hand_counted_confusion():
    # 10 predictions, counted by hand:
    # truth:      b  b  b  t  t  t  t  s  s  s   (b=build, t=threat, s=set_piece)
    # predicted:  b  b  t  t  t  b  t  s  s  t
    cases = [("build", "build", "build", "build"),
             ("build", "build", "build", "build"),
             ("build", "build", "threat", "goal"),
             ("threat", "goal", "threat", "goal"),
             ("threat", "goal", "threat", "shot_saved"),
             ("threat", "shot_saved", "build", "build"),
             ("threat", "clearance", "threat", "clearance"),
             ("set_piece", "corner", "set_piece", "corner"),
             ("set_piece", "throw_in", "set_piece", "throw_in"),
             ("set_piece", "penalty", "threat", "goal")]
    labels = [(c[0], c[1]) for c in cases]
    preds = [one_hot_pred(c[2], c[3]) for c in cases]
    rep = event_metrics(preds, labels)
    # type hits: rows 0,1,3,4,6,7,8 -> 7/10
    assert rep.type_accuracy[1] == pytest.approx(0.7)
    # subtype hits: rows 0,1,3,6,7,8 -> 6/10
    assert rep.subtype_accuracy[1] == pytest.approx(0.6)
    # per-class recall@1: build 2/3, threat 3/4, set_piece 2/3
    assert rep.type_recall[1]["build"] == pytest.approx(2 / 3)
    assert rep.type_recall[1]["threat"] == pytest.approx(3 / 4)
    assert rep.type_recall[1]["set_piece"] == pytest.approx(2 / 3)
    # precision@1: build 2/3, threat 3/5, set_piece 2/2
    assert rep.type_precision_at_1["build"] == pytest.approx(2 / 3)
    assert rep.type_precision_at_1["threat"] == pytest.approx(3 / 5)
    assert rep.type_precision_at_1["set_piece"] == pytest.approx(1.0)
    macro_p = np.mean([2 / 3, 3 / 5, 1.0])
    assert rep.type_macro_precision == pytest.approx(macro_p)


def test_event_metrics_rejects_empty():
    with pytest.raises(ValueError):
        event_metrics([], [])


def test_topk_recall_counts_membership():
    # predictor puts truth second: top-1 misses, top-3 hits
    tl = np.array([1.0, 2.0, -5.0, -5.0, -5.0])  # argmax transition
    sub = {t: np.zeros(len(TAXONOMY.subtypes[t])) for t in TAXONOMY.types}
    pred = classify(tl, sub)
    rep = event_metrics([pred], [("build", "build")])
    assert rep.type_accuracy[1] == 0.0
    assert rep.type_accuracy[3] == 1.0
