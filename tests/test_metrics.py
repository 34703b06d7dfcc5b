"""Metric suite against independent oracles: loop-based displacement errors,
Monte-Carlo hull areas, manual control grids, Voronoi partitions, and
hand-counted confusion tables."""

import math

import numpy as np
import pytest

from gentac import metrics
from gentac.data import PitchSpec
from gentac.events import TAXONOMY, classify
from gentac.metrics import (EpvGrid, GeometricReport, StructureVector, ade,
                            aggregate_over_k, arrival_time, convex_hull,
                            defensive_disruption, depth_threat,
                            dominant_partition, dominant_region,
                            event_metrics, fde, hull_area, obet,
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
                                 horizons=(4 / 25.0,), teams=(0,))
    sl = slice(0, 2)

    def manual(sample):
        devs = []
        prev_s, prev_t = None, None
        for t in range(4):
            a = structure(sample[t, sl], prev_s, fps=25.0)
            b = structure(truth[t, sl], prev_t, fps=25.0)
            row = {}
            for m in metrics.STRUCTURE_METRICS:
                va, vb = getattr(a, m), getattr(b, m)
                row[m] = abs(va - vb) if va is not None and vb is not None else np.nan
            devs.append(row)
            prev_s, prev_t = sample[t, sl], truth[t, sl]
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


# ---------------------------------------------------------------------------
# EPV-weighted control metrics
# ---------------------------------------------------------------------------

def uniform_epv(resolution=1.0):
    ny = int(round(PITCH.width / resolution))
    nx = int(round(PITCH.length / resolution))
    return EpvGrid(np.ones((ny, nx)), PITCH, resolution)


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
    epv = EpvGrid(np.array([[1.0, 2.0], [3.0, 4.0]]), pitch, 1.0)
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


@pytest.mark.parametrize("n_zones", [2, 4, 8])
def test_zone_threat_two_zone_manual(n_zones):
    pitch = PitchSpec(4.0, 1.0)
    epv = EpvGrid(np.array([[1.0, 1.0, 2.0, 4.0]]), pitch, 1.0)
    attackers = np.array([[1.5, 0.0]])   # owns the two right cells
    defenders = np.array([[-1.5, 0.0]])  # owns the two left cells
    # two zones along x: left zone epv 2 (cells 1+1), right zone epv 6
    # attacker controls all of the right zone, none of the left; finer
    # zones split the same cells (8 zones leave every other zone empty)
    value = depth_threat(attackers, defenders, epv, n_zones=n_zones)
    assert value == pytest.approx((0 * 2 / 8) + (1.0 * 6 / 8), abs=1e-12)
    # the one cell row falls in one of the 32 strips along y; 31 stay empty
    assert width_threat(attackers, defenders, epv) == pytest.approx(0.5, abs=1e-12)


def test_epv_grid_rejects_a_shape_unlike_its_pitch_lattice():
    with pytest.raises(ValueError, match=r"\(10, 10\).*\(68, 105\)"):
        EpvGrid(np.ones((10, 10)), PitchSpec(), 1.0)
    with pytest.raises(ValueError, match=r"\(68, 105\).*\(34, 52\)"):
        EpvGrid(np.ones((68, 105)), PitchSpec(), 2.0)


def test_epv_resampling_preserves_constant_grids():
    raw = np.full((34, 52), 3.7)
    grid = metrics.epv_from_matrix(raw, PITCH, 1.0)
    assert grid.values.shape == (68, 105)
    np.testing.assert_allclose(grid.values, 3.7, atol=1e-12)


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


def test_arrival_time_monotone_in_distance():
    d = np.linspace(0.0, 80.0, 300)
    t = arrival_time(d, 0.0)
    assert (np.diff(t) > 0).all()


def test_dominant_region_mirror_symmetric_split():
    defenders = np.array([[-10.0, 0.25]])
    attackers = np.array([[10.0, 0.25]])
    area = dominant_region(defenders, attackers, pitch=PITCH, grid_res=1.0)
    assert abs(area - 3570.0) <= 68.0  # within one boundary cell row


def test_dominant_region_identical_position_ties_excluded():
    p = np.array([[3.0, 1.0]])
    n_def, n_atk, n_tie, cell = dominant_partition(p, p, None, None, PITCH, 1.0)
    assert n_def == 0 and n_atk == 0
    assert n_tie == 105 * 68
    assert dominant_region(p, p, pitch=PITCH) == 0.0


def test_dominant_partition_covers_the_pitch():
    rng = Rng(20)
    defenders = np.stack([rng.child("dx").uniform(-50, 50, (5,)),
                          rng.child("dy").uniform(-32, 32, (5,))], axis=1)
    attackers = np.stack([rng.child("ax").uniform(-50, 50, (5,)),
                          rng.child("ay").uniform(-32, 32, (5,))], axis=1)
    n_def, n_atk, n_tie, cell = dominant_partition(
        defenders, attackers, None, None, PITCH, 1.0)
    assert (n_def + n_atk + n_tie) * cell == PITCH.area


def test_static_dominant_region_matches_voronoi_oracle():
    rng = Rng(21)
    for trial in range(5):
        defenders = np.stack([rng.child("dx", trial).uniform(-45, 45, (4,)),
                              rng.child("dy", trial).uniform(-30, 30, (4,))], axis=1)
        attackers = np.stack([rng.child("ax", trial).uniform(-45, 45, (4,)),
                              rng.child("ay", trial).uniform(-30, 30, (4,))], axis=1)
        area = dominant_region(defenders, attackers, pitch=PITCH, grid_res=1.0)

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
    rep = event_metrics(preds, labels, TAXONOMY)
    assert rep.type_accuracy[1] == 1.0
    assert rep.subtype_accuracy[1] == 1.0
    assert rep.subtype_accuracy[5] == 1.0
    assert rep.type_macro_recall[1] == 1.0
    assert rep.type_macro_precision == 1.0
    assert rep.type_macro_f1 == 1.0


def test_event_metrics_constant_predictor_on_balanced_pair():
    labels = [("build", "build"), ("threat", "goal")] * 5
    preds = [one_hot_pred("build", "build")] * 10
    rep = event_metrics(preds, labels, TAXONOMY)
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
    rep = event_metrics(preds, labels, TAXONOMY)
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
        event_metrics([], [], TAXONOMY)


def test_topk_recall_counts_membership():
    # predictor puts truth second: top-1 misses, top-3 hits
    tl = np.array([1.0, 2.0, -5.0, -5.0, -5.0])  # argmax transition
    sub = {t: np.zeros(len(TAXONOMY.subtypes[t])) for t in TAXONOMY.types}
    pred = classify(tl, sub)
    rep = event_metrics([pred], [("build", "build")], TAXONOMY)
    assert rep.type_accuracy[1] == 0.0
    assert rep.type_accuracy[3] == 1.0
