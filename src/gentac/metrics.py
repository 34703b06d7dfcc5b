"""Evaluation mathematics: geometric accuracy, collective structure, and
EPV-weighted offense/defense metrics.

Geometric accuracy is ADE/FDE per entity, averaged over predicted entities,
with min/avg aggregation over the K sampled futures. Collective structure is
the seven-indicator team-shape suite (stretch index, convex-hull surface
area, width, length, Frobenius norm of pairwise distances, centroid
displacement, Kuramoto order), reported as |metric(pred) - metric(truth)|
per frame and time-averaged per horizon. Offense/defense metrics weight
spatial control by an expected-possession-value (EPV) grid: off-ball
expected threat, depth/width threat over 32 zones, defensive shape
disruption, and the velocity-aware defensive dominant region.

Conventions: the attacking team plays toward +x. Every control metric runs
on one cell lattice, `lattice(pitch, resolution)`: 1 m cells over the pitch by
default, cell centers at half-cell offsets. The EPV grid file is bilinearly
resampled onto that lattice on load.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import PitchSpec, load_epv_grid

STRUCTURE_METRICS = ("stretch_index", "surface_area", "team_width",
                     "team_length", "frobenius_norm",
                     "centroid_displacement", "kuramoto_order")

KURAMOTO_SPEED_EPS = 0.1   # m/s; slower players carry no heading
ARRIVAL_ACCEL = 3.0        # m/s^2 toward the target cell
ARRIVAL_VMAX = 8.0         # m/s speed cap
TIE_EPS = 1e-9


# ---------------------------------------------------------------------------
# geometric accuracy
# ---------------------------------------------------------------------------

def ade(pred: np.ndarray, truth: np.ndarray, entity_mask=None) -> float:
    """Mean Euclidean distance over all forecast steps, averaged over the
    predicted entities. pred/truth are [T x E x 2] in meters."""
    pred, truth = np.asarray(pred), np.asarray(truth)
    if pred.shape != truth.shape:
        raise ValueError(f"shape mismatch {pred.shape} vs {truth.shape}")
    if pred.shape[0] == 0:
        raise ValueError("empty prediction")
    d = np.linalg.norm(pred - truth, axis=-1)      # [T x E]
    per_entity = d.mean(axis=0)
    if entity_mask is not None:
        per_entity = per_entity[np.asarray(entity_mask, dtype=bool)]
    return float(per_entity.mean())


def fde(pred: np.ndarray, truth: np.ndarray, entity_mask=None) -> float:
    """Euclidean distance at the final forecast step, entity-averaged."""
    pred, truth = np.asarray(pred), np.asarray(truth)
    if pred.shape != truth.shape:
        raise ValueError(f"shape mismatch {pred.shape} vs {truth.shape}")
    if pred.shape[0] == 0:
        raise ValueError("empty prediction")
    d = np.linalg.norm(pred[-1] - truth[-1], axis=-1)
    if entity_mask is not None:
        d = d[np.asarray(entity_mask, dtype=bool)]
    return float(d.mean())


@dataclass
class GeometricReport:
    """Per-horizon min/avg ADE and FDE over K samples, in meters."""

    horizons: tuple                 # seconds
    min_ade: dict
    avg_ade: dict
    min_fde: dict
    avg_fde: dict

    def row(self, horizon):
        return (self.min_ade[horizon], self.avg_ade[horizon],
                self.min_fde[horizon], self.avg_fde[horizon])


def aggregate_over_k(samples, truth, fps, horizons=(1, 2, 3, 4, 5),
                     entity_mask=None) -> GeometricReport:
    """Best-of-K and mean-of-K displacement errors at horizon prefixes.

    `samples` is a list of [T x E x 2] arrays sharing the truth's shape; a
    horizon of h seconds evaluates the first round(h * fps) frames.
    """
    if not samples:
        raise ValueError("need at least one sample")
    truth = np.asarray(truth)
    min_ade, avg_ade, min_fde, avg_fde = {}, {}, {}, {}
    for h in horizons:
        n = min(int(round(h * fps)), truth.shape[0])
        if n < 1:
            raise ValueError(f"horizon {h}s shorter than one frame")
        ades = [ade(s[:n], truth[:n], entity_mask) for s in samples]
        fdes = [fde(s[:n], truth[:n], entity_mask) for s in samples]
        min_ade[h], avg_ade[h] = float(np.min(ades)), float(np.mean(ades))
        min_fde[h], avg_fde[h] = float(np.min(fdes)), float(np.mean(fdes))
    return GeometricReport(tuple(horizons), min_ade, avg_ade, min_fde, avg_fde)


def average_geometric_reports(reports) -> GeometricReport:
    horizons = reports[0].horizons
    def avg(get):
        return {h: float(np.mean([get(r)[h] for r in reports])) for h in horizons}
    return GeometricReport(horizons,
                           avg(lambda r: r.min_ade), avg(lambda r: r.avg_ade),
                           avg(lambda r: r.min_fde), avg(lambda r: r.avg_fde))


# ---------------------------------------------------------------------------
# convex hull
# ---------------------------------------------------------------------------

def convex_hull(points: np.ndarray) -> np.ndarray:
    """Hull vertices in counter-clockwise order (monotone chain)."""
    pts = np.unique(np.asarray(points, dtype=np.float64), axis=0)
    if len(pts) <= 2:
        return pts
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

    lower = half(pts)
    upper = half(pts[::-1])
    return np.array(lower[:-1] + upper[:-1])


def polygon_area(vertices: np.ndarray) -> float:
    """Shoelace area of a simple polygon given in order."""
    v = np.asarray(vertices, dtype=np.float64)
    if len(v) < 3:
        return 0.0
    x, y = v[:, 0], v[:, 1]
    return float(abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))) / 2.0)


def hull_area(points: np.ndarray) -> float:
    return polygon_area(convex_hull(points))


# ---------------------------------------------------------------------------
# collective structure
# ---------------------------------------------------------------------------

@dataclass
class StructureVector:
    stretch_index: float
    surface_area: float
    team_width: float
    team_length: float
    frobenius_norm: float
    centroid_displacement: float | None   # needs the previous frame
    kuramoto_order: float | None          # needs velocities
    degenerate_hull: bool = False         # fewer than 3 distinct players
    degenerate_kuramoto: bool = False     # nobody above the speed threshold


def structure(positions: np.ndarray, prev_positions: np.ndarray | None = None,
              velocities: np.ndarray | None = None, fps: float | None = None,
              v_eps: float = KURAMOTO_SPEED_EPS) -> StructureVector:
    """All seven shape indicators for one team at one instant.

    positions is [N x 2] for the visible players. Velocities come either
    directly or as finite differences from `prev_positions` (requires fps).
    Kuramoto averages unit heading vectors of players moving at least v_eps;
    a fully static team reports R = 1 with the degenerate flag set.
    """
    pts = np.asarray(positions, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ValueError("need at least one visible player")
    c = pts.mean(axis=0)
    stretch = float(np.linalg.norm(pts - c, axis=1).mean())
    degenerate_hull = len(np.unique(pts, axis=0)) < 3
    area = 0.0 if degenerate_hull else hull_area(pts)
    width = float(pts[:, 1].max() - pts[:, 1].min())
    length = float(pts[:, 0].max() - pts[:, 0].min())
    diff = pts[:, None, :] - pts[None, :, :]
    frob = float(np.sqrt((diff ** 2).sum()))

    displacement = None
    if prev_positions is not None:
        prev = np.asarray(prev_positions, dtype=np.float64)
        displacement = float(np.linalg.norm(c - prev.mean(axis=0)))

    if velocities is None and prev_positions is not None:
        if fps is None:
            raise ValueError("finite-difference velocities need fps")
        velocities = (pts - np.asarray(prev_positions)) * fps

    kuramoto = None
    degenerate_kuramoto = False
    if velocities is not None:
        vel = np.asarray(velocities, dtype=np.float64)
        speed = np.linalg.norm(vel, axis=1)
        moving = speed >= v_eps
        if not moving.any():
            kuramoto = 1.0
            degenerate_kuramoto = True
        else:
            headings = vel[moving] / speed[moving, None]
            kuramoto = float(np.linalg.norm(headings.sum(axis=0)) / moving.sum())

    return StructureVector(stretch, area, width, length, frob,
                           displacement, kuramoto,
                           degenerate_hull, degenerate_kuramoto)


def structure_deviation(samples, truth, fps, n_players,
                        horizons=(1, 2, 3, 4, 5), teams=(0, 1),
                        history_last=None):
    """|metric(pred) - metric(truth)| per frame, time-averaged per horizon,
    then min/avg over the K samples.

    Returns {horizon: {metric: (min_over_k, avg_over_k)}}. Each sample must
    have the truth's [T x E x 2] shape. Deviations are averaged over the
    evaluated teams. `history_last` is the [E x 2] frame preceding the
    future, so displacement is defined at the first frame.
    """
    truth = np.asarray(truth)
    slices = [slice(team * n_players, (team + 1) * n_players) for team in teams]

    def per_frame_metrics(coords):
        coords = np.asarray(coords)
        if coords.shape != truth.shape:
            raise ValueError(f"shape mismatch {coords.shape} vs {truth.shape}")
        # [frame][team]; a frame's predecessor gives displacement and headings
        prevs = [history_last, *coords[:-1]]
        return [[structure(frame[sl], None if prev is None else prev[sl], fps=fps)
                 for sl in slices] for frame, prev in zip(coords, prevs)]

    truth_rows = per_frame_metrics(truth)
    per_sample = []
    for s in samples:
        frame_dev = {m: [] for m in STRUCTURE_METRICS}
        for pred, true in zip(per_frame_metrics(s), truth_rows):
            for m in STRUCTURE_METRICS:
                pairs = [(getattr(a, m), getattr(b, m)) for a, b in zip(pred, true)]
                vals = [abs(a - b) for a, b in pairs if a is not None and b is not None]
                frame_dev[m].append(np.mean(vals) if vals else np.nan)
        per_sample.append({m: np.array(v) for m, v in frame_dev.items()})

    report = {}
    for h in horizons:
        n = min(int(round(h * fps)), truth.shape[0])
        report[h] = {}
        for m in STRUCTURE_METRICS:
            means = [float(np.nanmean(ps[m][:n])) for ps in per_sample]
            report[h][m] = (float(np.min(means)), float(np.mean(means)))
    return report


# ---------------------------------------------------------------------------
# EPV grids and control
# ---------------------------------------------------------------------------

def lattice(pitch: PitchSpec, resolution: float = 1.0) -> np.ndarray:
    """Centers of the control cells, [ny x nx x 2] as (x, y) in meters: cell
    [iy, ix] is centered at (-L/2 + (ix + 0.5) res, -W/2 + (iy + 0.5) res)."""
    ny = int(round(pitch.width / resolution))
    nx = int(round(pitch.length / resolution))
    xs = -pitch.length / 2 + (np.arange(nx) + 0.5) * resolution
    ys = -pitch.width / 2 + (np.arange(ny) + 0.5) * resolution
    return np.stack(np.meshgrid(xs, ys), axis=-1)


@dataclass
class EpvGrid:
    """EPV sampled on the metric control lattice.

    values[iy, ix] holds the EPV of the cell centered at cells[iy, ix], the
    `lattice` of the pitch at this resolution. The attacking team plays
    toward +x, so threat should grow with ix.
    """

    values: np.ndarray
    pitch: PitchSpec
    resolution: float = 1.0
    cells: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if (self.values < 0).any() or not np.isfinite(self.values).all():
            raise ValueError("EPV values must be finite and non-negative")
        self.cells = lattice(self.pitch, self.resolution)
        if self.values.shape != self.cells.shape[:2]:
            raise ValueError(f"EPV grid shape {self.values.shape} does not match "
                             f"the pitch's {self.cells.shape[:2]} lattice")


def _bilinear(values, yq, xq):
    ny, nx = values.shape
    x0 = np.clip(np.floor(xq).astype(int), 0, nx - 1)
    x1 = np.clip(x0 + 1, 0, nx - 1)
    y0 = np.clip(np.floor(yq).astype(int), 0, ny - 1)
    y1 = np.clip(y0 + 1, 0, ny - 1)
    fx = np.clip(xq - x0, 0.0, 1.0)
    fy = np.clip(yq - y0, 0.0, 1.0)
    top = values[y0, x0] * (1 - fx) + values[y0, x1] * fx
    bot = values[y1, x0] * (1 - fx) + values[y1, x1] * fx
    return top * (1 - fy) + bot * fy


def epv_from_matrix(matrix: np.ndarray, pitch: PitchSpec,
                    resolution: float = 1.0) -> EpvGrid:
    """Resample a raw (rows = y cells, cols = x cells) matrix onto the
    control lattice with bilinear interpolation."""
    matrix = np.asarray(matrix, dtype=np.float64)
    ny, nx = lattice(pitch, resolution).shape[:2]
    xs = (np.arange(nx) + 0.5) / nx * matrix.shape[1] - 0.5
    ys = (np.arange(ny) + 0.5) / ny * matrix.shape[0] - 0.5
    xq, yq = np.meshgrid(xs, ys)
    return EpvGrid(_bilinear(matrix, yq, xq), pitch, resolution)


def load_epv(path, pitch: PitchSpec, resolution: float = 1.0) -> EpvGrid:
    return epv_from_matrix(load_epv_grid(path), pitch, resolution)


def synthetic_epv(pitch: PitchSpec, resolution: float = 1.0,
                  scale: float = 20.0) -> EpvGrid:
    """Stand-in grid for tests and demos when no real EPV file is supplied:
    exp(-distance to the +x goal / scale), normalized to [0, 1]. This is a
    synthetic placeholder, not fitted to any possession data."""
    cells = lattice(pitch, resolution)
    gx, gy = pitch.length / 2, 0.0
    d = np.hypot(cells[..., 0] - gx, cells[..., 1] - gy)
    v = np.exp(-d / scale)
    v = (v - v.min()) / (v.max() - v.min())
    return EpvGrid(v, pitch, resolution)


def _nearest_control(attackers, defenders, epv: EpvGrid):
    """+1 attacker-controlled, -1 defender-controlled, 0 tie, per cell."""
    cells = epv.cells.reshape(-1, 2)

    def min_dist(players):
        players = np.asarray(players, dtype=np.float64)
        d = np.linalg.norm(cells[:, None, :] - players[None, :, :], axis=-1)
        return d.min(axis=1)

    da = min_dist(attackers)
    dd = min_dist(defenders)
    out = np.zeros(len(cells), dtype=int)
    out[da < dd - TIE_EPS] = 1
    out[dd < da - TIE_EPS] = -1
    return out.reshape(epv.values.shape)


def obet(attackers, defenders, epv: EpvGrid) -> float:
    """Off-ball expected threat: fraction of controlled EPV held by the
    attacking team, each cell controlled by the nearest player."""
    if len(attackers) == 0 or len(defenders) == 0:
        raise ValueError("both teams must have players on the pitch")
    control = _nearest_control(attackers, defenders, epv)
    atk = epv.values[control == 1].sum()
    dfn = epv.values[control == -1].sum()
    total = atk + dfn
    if total <= 0:
        raise ValueError("no EPV mass in controlled cells")
    return float(atk / total)


def _zone_threat(attackers, defenders, epv: EpvGrid, axis: int,
                 n_zones: int = 32) -> float:
    """Sum over zones along `axis` (0 = x, 1 = y) of the attacker-held share
    of the zone's cells times the zone's share of the EPV mass."""
    control = _nearest_control(attackers, defenders, epv)
    span = (epv.pitch.length, epv.pitch.width)[axis]
    coord = epv.cells[..., axis]
    zone = np.minimum(((coord + span / 2) / span * n_zones).astype(int), n_zones - 1)
    total_epv = epv.values.sum()
    if total_epv <= 0:
        raise ValueError("EPV grid has no mass")
    n_cells = np.bincount(zone.ravel(), minlength=n_zones)
    n_atk = np.bincount(zone[control == 1], minlength=n_zones)
    value = 0.0
    for z in np.flatnonzero(n_cells):
        # a weighted bincount would add the zone's cells in another order
        epv_z = epv.values[zone == z].sum()
        value += (n_atk[z] / n_cells[z]) * (epv_z / total_epv)
    return float(value)


def depth_threat(attackers, defenders, epv: EpvGrid, n_zones: int = 32) -> float:
    """Attacking control weighted by zone EPV across 32 strips along x."""
    return _zone_threat(attackers, defenders, epv, 0, n_zones)


def width_threat(attackers, defenders, epv: EpvGrid, n_zones: int = 32) -> float:
    """Same weighting across 32 strips along y."""
    return _zone_threat(attackers, defenders, epv, 1, n_zones)


def defensive_disruption(area_before: float, area_after: float,
                         pitch: PitchSpec) -> float:
    """clip(100 * (area_after - area_before) / pitch area, -1, 1)."""
    if area_before < 0 or area_after < 0:
        raise ValueError("areas must be non-negative")
    return float(np.clip(100.0 * (area_after - area_before) / pitch.area,
                         -1.0, 1.0))


# ---------------------------------------------------------------------------
# dominant region
# ---------------------------------------------------------------------------

def arrival_time(distance, v_along, accel=ARRIVAL_ACCEL, vmax=ARRIVAL_VMAX):
    """Time to cover `distance` starting at signed speed `v_along` toward
    the target, accelerating at `accel` up to `vmax`.

    A player moving away first brakes to a stop (drifting further away),
    then accelerates toward the target from rest. Vectorized over arrays.
    """
    D = np.asarray(distance, dtype=np.float64)
    v0 = np.clip(np.asarray(v_along, dtype=np.float64), -vmax, vmax)
    t_brake = np.where(v0 < 0, -v0 / accel, 0.0)
    D_eff = D + np.where(v0 < 0, v0 ** 2 / (2 * accel), 0.0)
    v_start = np.maximum(v0, 0.0)
    d_acc = (vmax ** 2 - v_start ** 2) / (2 * accel)
    t_short = (np.sqrt(v_start ** 2 + 2 * accel * D_eff) - v_start) / accel
    t_long = (vmax - v_start) / accel + (D_eff - d_acc) / vmax
    return t_brake + np.where(D_eff <= d_acc, t_short, t_long)


def _min_arrival(cells, players, velocities):
    """Earliest arrival per cell over the players; None velocities are zero."""
    players = np.asarray(players, dtype=np.float64)
    velocities = (np.zeros_like(players) if velocities is None
                  else np.asarray(velocities, dtype=np.float64))
    delta = cells[None, :, :] - players[:, None, :]         # [P x C x 2]
    dist = np.linalg.norm(delta, axis=-1)
    with np.errstate(invalid="ignore", divide="ignore"):
        unit = np.where(dist[..., None] > 0, delta / np.maximum(dist, 1e-300)[..., None], 0.0)
    v_along = (velocities[:, None, :] * unit).sum(axis=-1)
    times = arrival_time(dist, v_along)
    return times.min(axis=0)


def dominant_partition(defenders, attackers, def_velocities, atk_velocities,
                       pitch: PitchSpec, grid_res: float = 1.0):
    """(defensive cells, attacking cells, tie cells, cell area).

    A cell belongs to the side whose earliest arrival beats the other by
    more than the tie tolerance; exact ties belong to neither."""
    if len(defenders) == 0 or len(attackers) == 0:
        raise ValueError("need at least one player per side")
    cells = lattice(pitch, grid_res).reshape(-1, 2)
    td = _min_arrival(cells, defenders, def_velocities)
    ta = _min_arrival(cells, attackers, atk_velocities)
    n_def = int((td < ta - TIE_EPS).sum())
    n_atk = int((ta < td - TIE_EPS).sum())
    n_tie = len(cells) - n_def - n_atk
    return n_def, n_atk, n_tie, grid_res ** 2


def dominant_region(defenders, attackers, def_velocities=None,
                    atk_velocities=None, pitch: PitchSpec = PitchSpec(),
                    grid_res: float = 1.0) -> float:
    """Pitch area (m^2) the defending team reaches before any attacker."""
    n_def, _, _, cell_area = dominant_partition(
        defenders, attackers, def_velocities, atk_velocities, pitch, grid_res)
    return n_def * cell_area


# ---------------------------------------------------------------------------
# event classification metrics
# ---------------------------------------------------------------------------

@dataclass
class EventMetricsReport:
    type_accuracy: dict        # k -> overall accuracy on the 5 types
    subtype_accuracy: dict     # k -> overall accuracy on the 15 subtypes
    type_recall: dict          # k -> {class: recall}
    subtype_recall: dict       # k -> {class: recall}
    type_macro_recall: dict    # k -> macro average
    subtype_macro_recall: dict
    type_precision_at_1: dict  # class -> precision of top-1 predictions
    type_macro_precision: float
    type_f1_at_1: dict
    type_macro_f1: float
    n_samples: int


def _topk_hits(scores, true_idx, k):
    order = np.argsort(-scores)
    return int(true_idx in order[:k])


def event_metrics(predictions, labels, taxonomy) -> EventMetricsReport:
    """Accuracy, per-class recall, and macro P/R/F1 from EventPredictions.

    Subtype ranking uses the combined p(type) * p(subtype | type) 15-vector;
    type ranking uses the 5-way head. Precision@1 of a never-predicted class
    counts as zero in the macro average.
    """
    if len(predictions) == 0 or len(predictions) != len(labels):
        raise ValueError("predictions and labels must align and be non-empty")
    types = taxonomy.types
    subtypes = taxonomy.all_subtypes
    type_ks, sub_ks = (1, 3), (1, 3, 5)

    type_hits = {k: [] for k in type_ks}
    sub_hits = {k: [] for k in sub_ks}
    per_type_hits = {k: {t: [] for t in types} for k in type_ks}
    per_sub_hits = {k: {s: [] for s in subtypes} for k in sub_ks}
    confusion_pred = {t: 0 for t in types}
    confusion_correct = {t: 0 for t in types}
    true_counts = {t: 0 for t in types}

    for pred, (y_type, y_sub) in zip(predictions, labels):
        ti = taxonomy.type_index(y_type)
        si = taxonomy.combined_index(y_sub)
        for k in type_ks:
            hit = _topk_hits(pred.type_probs, ti, k)
            type_hits[k].append(hit)
            per_type_hits[k][y_type].append(hit)
        for k in sub_ks:
            hit = _topk_hits(pred.combined, si, k)
            sub_hits[k].append(hit)
            per_sub_hits[k][y_sub].append(hit)
        top1 = types[int(np.argmax(pred.type_probs))]
        confusion_pred[top1] += 1
        true_counts[y_type] += 1
        if top1 == y_type:
            confusion_correct[top1] += 1

    def mean_or_nan(xs):
        return float(np.mean(xs)) if xs else math.nan

    type_recall = {k: {t: mean_or_nan(per_type_hits[k][t]) for t in types}
                   for k in type_ks}
    subtype_recall = {k: {s: mean_or_nan(per_sub_hits[k][s]) for s in subtypes}
                      for k in sub_ks}

    def macro(d):
        vals = [v for v in d.values() if not math.isnan(v)]
        return float(np.mean(vals)) if vals else math.nan

    precision = {t: (confusion_correct[t] / confusion_pred[t]
                     if confusion_pred[t] else 0.0) for t in types}
    recall1 = type_recall[1]
    f1 = {}
    for t in types:
        p, r = precision[t], recall1[t]
        r = 0.0 if math.isnan(r) else r
        f1[t] = 0.0 if p + r == 0 else 2 * p * r / (p + r)
    present = [t for t in types if true_counts[t] > 0]

    return EventMetricsReport(
        type_accuracy={k: mean_or_nan(type_hits[k]) for k in type_ks},
        subtype_accuracy={k: mean_or_nan(sub_hits[k]) for k in sub_ks},
        type_recall=type_recall,
        subtype_recall=subtype_recall,
        type_macro_recall={k: macro({t: type_recall[k][t] for t in present})
                           for k in type_ks},
        subtype_macro_recall={k: macro(subtype_recall[k]) for k in sub_ks},
        type_precision_at_1=precision,
        type_macro_precision=float(np.mean([precision[t] for t in present])),
        type_f1_at_1=f1,
        type_macro_f1=float(np.mean([f1[t] for t in present])),
        n_samples=len(predictions),
    )
