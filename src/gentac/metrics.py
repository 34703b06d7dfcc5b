"""Evaluation mathematics: geometric accuracy, collective structure, and
EPV-weighted offense/defense metrics.

Geometric accuracy is ADE/FDE per entity, averaged over predicted entities,
with min/avg aggregation over the K sampled futures. Collective structure is
the seven-indicator team-shape suite (stretch index, convex-hull surface
area, width, length, Frobenius norm of pairwise distances, centroid
displacement, Kuramoto order), reported as |metric(pred) - metric(truth)|
per frame and time-averaged per horizon; `structure_deviation` computes the
suite in one pass over the truth and the K samples x frames x teams, and
`structure` is the one-frame call into the same kernel. Offense/defense
metrics weight spatial control by an expected-possession-value (EPV) grid:
off-ball expected threat, depth/width threat over N_ZONES zones, defensive
shape disruption, and the velocity-aware defensive dominant region.

Conventions: the attacking team plays toward +x. Every control metric runs
on one cell lattice per pitch, `lattice(pitch)`: the nearest whole number of
cells to one per metre along each axis, stretched to tile the pitch exactly
(1 m x 1 m on a 105 x 68 m soccer pitch), cell centers at half-cell offsets.
It is built once per pitch and shared, read-only, by every caller and every
`EpvGrid` of that pitch. The EPV grid file is bilinearly resampled onto that
lattice on load, and `EpvGrid.values` is read-only. The nearest-player
control field is computed once per grid and player set, from each player's
offsets per axis, and shared by OBET and the depth/width zone threats;
TIE_EPS compares distances. The dominant region's arrival kernel works in
place on a few [cells] work arrays per side. Player positions and velocities
must be finite.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .data import PitchSpec, load_epv_grid
from .events import TAXONOMY

STRUCTURE_METRICS = ("stretch_index", "surface_area", "team_width",
                     "team_length", "frobenius_norm",
                     "centroid_displacement", "kuramoto_order")

KURAMOTO_SPEED_EPS = 0.1   # m/s; slower players carry no heading
ARRIVAL_ACCEL = 3.0        # m/s^2 toward the target cell
ARRIVAL_VMAX = 8.0         # m/s speed cap
TIE_EPS = 1e-9             # m; compared against distances, not squared ones
SYNTHETIC_EPV_SCALE = 20.0  # m; decay length of the stand-in EPV grid
N_ZONES = 32               # strips per axis of the depth/width zone threats


# ---------------------------------------------------------------------------
# geometric accuracy
# ---------------------------------------------------------------------------

def _checked(pred, truth, entity_mask):
    """(pred, truth, entity selector): the checks `ade` and `fde` share. The
    selector keeps every entity, or those `entity_mask` flags, one per entity
    and at least one."""
    pred, truth = np.asarray(pred), np.asarray(truth)
    if pred.shape != truth.shape:
        raise ValueError(f"shape mismatch {pred.shape} vs {truth.shape}")
    if pred.shape[0] == 0:
        raise ValueError("empty prediction")
    if entity_mask is None:
        return pred, truth, slice(None)
    mask = np.asarray(entity_mask, dtype=bool)
    if mask.shape != pred.shape[1:2]:
        raise ValueError(f"entity_mask must hold one flag per entity "
                         f"{pred.shape[1:2]}, got shape {mask.shape}")
    if not mask.any():
        raise ValueError("entity_mask selects no entity")
    return pred, truth, mask


def ade(pred: np.ndarray, truth: np.ndarray, entity_mask=None) -> float:
    """Mean Euclidean distance over all forecast steps, averaged over the
    predicted entities. pred/truth are [T x E x 2] in meters."""
    pred, truth, entities = _checked(pred, truth, entity_mask)
    d = np.linalg.norm(pred - truth, axis=-1)      # [T x E]
    return float(d.mean(axis=0)[entities].mean())


def fde(pred: np.ndarray, truth: np.ndarray, entity_mask=None) -> float:
    """Euclidean distance at the final forecast step, entity-averaged."""
    pred, truth, entities = _checked(pred, truth, entity_mask)
    d = np.linalg.norm(pred[-1] - truth[-1], axis=-1)
    return float(d[entities].mean())


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

def _sorted_distinct(pts: np.ndarray):
    """Rows of each [B x N x 2] point set sorted by (x, y), and a [B x N] mask
    of each sorted row's first occurrence: `np.unique(pts[b], axis=0)` is
    `ordered[b][first[b]]`, with -0.0 == 0.0 and NaN rows kept apart."""
    order = np.lexsort((pts[..., 1], pts[..., 0]), axis=-1)
    ordered = np.take_along_axis(pts, order[..., None], axis=1)
    first = np.ones(order.shape, dtype=bool)
    first[:, 1:] = (ordered[:, 1:] != ordered[:, :-1]).any(axis=2)
    return ordered, first


def _monotone_chain(pts: list) -> list:
    """Hull vertices, counter-clockwise, of distinct [x, y] points sorted by
    (x, y) (Andrew's monotone chain, on Python floats)."""
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

    return half(pts)[:-1] + half(pts[::-1])[:-1]


def convex_hull(points: np.ndarray) -> np.ndarray:
    """Hull vertices in counter-clockwise order (monotone chain)."""
    ordered, first = _sorted_distinct(np.asarray(points, dtype=np.float64)[None])
    pts = ordered[0][first[0]]
    return pts if len(pts) <= 2 else np.array(_monotone_chain(pts.tolist()))


def polygon_area(vertices: np.ndarray) -> float:
    """Shoelace area of a simple polygon given in order."""
    v = np.asarray(vertices, dtype=np.float64)
    if len(v) < 3:
        return 0.0
    x, y = v[:, 0], v[:, 1]
    return float(abs(np.dot(x, np.concatenate((y[1:], y[:1])))
                     - np.dot(y, np.concatenate((x[1:], x[:1])))) / 2.0)


def hull_area(points: np.ndarray) -> float:
    return polygon_area(convex_hull(points))


def _hull_areas(pts: np.ndarray):
    """([B] hull areas, [B] fewer-than-3-distinct flags) of [B x N x 2] sets,
    one chain per set (collinear sets keep area 0)."""
    ordered, first = _sorted_distinct(pts)
    degenerate = first.sum(axis=1) < 3
    area = np.zeros(len(pts))
    for b in np.flatnonzero(~degenerate):
        area[b] = polygon_area(_monotone_chain(ordered[b][first[b]].tolist()))
    return area, degenerate


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


def _norm_rows(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a C-contiguous [B x 2] array, bit for bit
    np.linalg.norm of the row alone (a BLAS dot, then sqrt)."""
    return np.sqrt(np.vecdot(v, v))


def _structure_rows(pts, prev=None, vel=None) -> dict:
    """The seven indicators of B teams at once, {name: [B] array}, plus the
    two degenerate flags. pts and vel are [B x N x 2], prev [B x M x 2];
    displacement needs prev and Kuramoto needs vel. Each row adds in the
    order a one-team computation would: player means and sums run over the
    player axis in order, with a 0.0 heading for slow players (adding 0.0
    is exact), and flat-vector norms are BLAS dots. C order keeps each row's
    reductions on the inner axis."""
    pts, prev, vel = (None if a is None else np.ascontiguousarray(a)
                      for a in (pts, prev, vel))
    c = pts.mean(axis=1)
    rows = {"stretch_index": np.linalg.norm(pts - c[:, None], axis=2).mean(axis=1)}
    rows["surface_area"], rows["degenerate_hull"] = _hull_areas(pts)
    rows["team_width"] = pts[..., 1].max(axis=1) - pts[..., 1].min(axis=1)
    rows["team_length"] = pts[..., 0].max(axis=1) - pts[..., 0].min(axis=1)
    diff = pts[:, :, None, :] - pts[:, None, :, :]
    rows["frobenius_norm"] = np.sqrt((diff ** 2).reshape(len(pts), -1).sum(axis=1))
    if prev is not None:
        rows["centroid_displacement"] = _norm_rows(c - prev.mean(axis=1))
    if vel is not None:
        speed = np.linalg.norm(vel, axis=2)
        moving = speed >= KURAMOTO_SPEED_EPS
        headings = np.divide(vel, speed[..., None], out=np.zeros_like(vel),
                             where=moving[..., None])
        n_moving = moving.sum(axis=1)
        still = n_moving == 0
        kuramoto = _norm_rows(headings.sum(axis=1)) / np.maximum(n_moving, 1)
        kuramoto[still] = 1.0
        rows["kuramoto_order"], rows["degenerate_kuramoto"] = kuramoto, still
    return rows


def structure(positions: np.ndarray, prev_positions: np.ndarray | None = None,
              velocities: np.ndarray | None = None,
              fps: float | None = None) -> StructureVector:
    """All seven shape indicators for one team at one instant.

    positions is [N x 2] for the visible players. Velocities come either
    directly or as finite differences from `prev_positions` (requires fps).
    Kuramoto averages unit heading vectors of players moving at least
    KURAMOTO_SPEED_EPS; a fully static team reports R = 1 with the
    degenerate flag set.
    """
    pts = np.asarray(positions, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ValueError("need at least one visible player")
    prev = None if prev_positions is None else np.asarray(prev_positions, dtype=np.float64)
    if velocities is None and prev is not None:
        if fps is None:
            raise ValueError("finite-difference velocities need fps")
        velocities = (pts - prev) * fps
    vel = None if velocities is None else np.asarray(velocities, dtype=np.float64)
    rows = _structure_rows(pts[None], None if prev is None else prev[None],
                           None if vel is None else vel[None])
    value = {m: float(rows[m][0]) if m in rows else None for m in STRUCTURE_METRICS}
    return StructureVector(**value, degenerate_hull=bool(rows["degenerate_hull"][0]),
                           degenerate_kuramoto=vel is not None
                           and bool(rows["degenerate_kuramoto"][0]))


def structure_deviation(samples, truth, fps, n_players,
                        horizons=(1, 2, 3, 4, 5), history_last=None):
    """|metric(pred) - metric(truth)| per frame, time-averaged per horizon,
    then min/avg over the K samples.

    Returns {horizon: {metric: (min_over_k, avg_over_k)}}. Each sample must
    have the truth's [T x E x 2] shape, whose first 2 x n_players entities
    are the two teams; deviations are averaged over both. `history_last` is
    the [E x 2] frame preceding the future, so displacement is defined at
    the first frame; a horizon of one frame needs it, and one shorter than a
    frame raises. The truth and the samples run through one `_structure_rows`
    pass.
    """
    truth = np.asarray(truth, dtype=np.float64)
    if len(samples) == 0:
        raise ValueError("need at least one sample")
    if truth.ndim != 3 or truth.shape[0] < 1 or truth.shape[2] != 2:
        raise ValueError(f"truth must be [T x E x 2] with T >= 1, got {truth.shape}")
    T, E = truth.shape[:2]
    if n_players < 1 or 2 * n_players > E:
        raise ValueError(f"two teams of {n_players} players do not fit the "
                         f"truth's {E} entities")
    if history_last is not None and np.shape(history_last) != (E, 2):
        raise ValueError(f"history_last must be [E x 2] = ({E}, 2), "
                         f"got {np.shape(history_last)}")
    for s in samples:
        if np.shape(s) != truth.shape:
            raise ValueError(f"shape mismatch {np.shape(s)} vs {truth.shape}")
    frames = {h: min(int(round(h * fps)), T) for h in horizons}
    for h, n in frames.items():
        if n < 1:
            raise ValueError(f"horizon {h}s shorter than one frame")
        if n == 1 and history_last is None:
            raise ValueError(f"horizon {h}s covers one frame, where displacement "
                             f"and Kuramoto order need history_last")

    coords = np.stack([truth, *(np.asarray(s, dtype=np.float64) for s in samples)])
    first = coords[:, 0] if history_last is None else np.broadcast_to(
        np.asarray(history_last, dtype=np.float64), coords[:, 0].shape)
    prev = np.concatenate([first[:, None], coords[:, :-1]], axis=1)
    players = np.arange(2 * n_players).reshape(2, n_players)
    pts, prev = coords[:, :, players], prev[:, :, players]   # [K+1, T, 2, N, 2]
    vel = (pts - prev) * fps
    flat = (-1, n_players, 2)
    rows = _structure_rows(pts.reshape(flat), prev.reshape(flat), vel.reshape(flat))

    dev = {}
    for m in STRUCTURE_METRICS:
        per_team = rows[m].reshape(pts.shape[:3])
        dev[m] = np.abs(per_team[1:] - per_team[0]).mean(axis=2)   # [K x T]
        if history_last is None and m in ("centroid_displacement", "kuramoto_order"):
            dev[m][:, 0] = np.nan

    report = {}
    for h, n in frames.items():
        report[h] = {}
        for m in STRUCTURE_METRICS:
            means = np.nanmean(dev[m][:, :n], axis=1)
            report[h][m] = (float(np.min(means)), float(np.mean(means)))
    return report


# ---------------------------------------------------------------------------
# EPV grids and control
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=8)
def lattice(pitch: PitchSpec) -> np.ndarray:
    """Centers of the control cells, [ny x nx x 2] as (x, y) in meters. The
    nx = max(1, round(L / 1 m)) cells along x are L / nx wide, so their edges
    run from -L/2 to +L/2, and cell [iy, ix] is centered at
    (-L/2 + (ix + 0.5) L / nx, -W/2 + (iy + 0.5) W / ny); likewise along y.
    Built once per pitch: equal pitches get the same read-only array."""
    centers = []
    for span in (pitch.length, pitch.width):
        n = max(1, round(span))
        centers.append(-span / 2 + (np.arange(n) + 0.5) * (span / n))
    cells = np.stack(np.meshgrid(*centers), axis=-1)
    cells.flags.writeable = False
    return cells


@dataclass
class EpvGrid:
    """EPV sampled on the metric control lattice.

    values[iy, ix] holds the EPV of the cell centered at cells[iy, ix], the
    `lattice` of the pitch. The attacking team plays toward +x, so threat
    should grow with ix. `values` is a read-only copy of the array given, so
    the control field and zone tables cached here stay valid.
    """

    values: np.ndarray
    pitch: PitchSpec
    cells: np.ndarray = field(init=False, repr=False)
    _control: tuple = field(init=False, repr=False, compare=False, default=None)
    _zones: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        self.values = np.array(self.values, dtype=np.float64)
        self.values.flags.writeable = False
        if (self.values < 0).any() or not np.isfinite(self.values).all():
            raise ValueError("EPV values must be finite and non-negative")
        self.cells = lattice(self.pitch)
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


def epv_from_matrix(matrix: np.ndarray, pitch: PitchSpec) -> EpvGrid:
    """Resample a raw (rows = y cells, cols = x cells) matrix onto the
    control lattice with bilinear interpolation."""
    matrix = np.asarray(matrix, dtype=np.float64)
    ny, nx = lattice(pitch).shape[:2]
    xs = (np.arange(nx) + 0.5) / nx * matrix.shape[1] - 0.5
    ys = (np.arange(ny) + 0.5) / ny * matrix.shape[0] - 0.5
    xq, yq = np.meshgrid(xs, ys)
    return EpvGrid(_bilinear(matrix, yq, xq), pitch)


def load_epv(path, pitch: PitchSpec) -> EpvGrid:
    return epv_from_matrix(load_epv_grid(path), pitch)


def synthetic_epv(pitch: PitchSpec) -> EpvGrid:
    """Stand-in grid for tests and demos when no real EPV file is supplied:
    exp(-distance to the +x goal / SYNTHETIC_EPV_SCALE), normalized to
    [0, 1]. This is a synthetic placeholder, not fitted to any possession
    data."""
    cells = lattice(pitch)
    gx, gy = pitch.length / 2, 0.0
    d = np.hypot(cells[..., 0] - gx, cells[..., 1] - gy)
    v = np.exp(-d / SYNTHETIC_EPV_SCALE)
    v = (v - v.min()) / (v.max() - v.min())
    return EpvGrid(v, pitch)


def _nearest_distance(cells, players):
    """Distance from each center of the lattice `cells` to its nearest player:
    a running minimum of dx*dx + dy*dy, then one sqrt. A lattice's x repeats
    along its rows and its y along its columns, so each player's squared
    offsets are computed once per axis (nx + ny values) and added by
    broadcast. Bit for bit norm(cells - p, axis=-1).min(), since a length-2
    norm is sqrt(dx*dx + dy*dy) and sqrt is monotone."""
    cx, cy = cells[0, :, 0], cells[:, 0, 1]
    d2 = np.full(cells.shape[:2], np.inf)
    for px, py in np.asarray(players, dtype=np.float64):
        dx, dy = cx - px, cy - py
        np.minimum(d2, (dx * dx)[None, :] + (dy * dy)[:, None], out=d2)
    return np.sqrt(d2)


def _check_finite(what, *arrays):
    """One line naming the side when one of its values is NaN or infinite,
    which would poison every cell's minimum and count as no control."""
    if not all(np.isfinite(a).all() for a in arrays if a is not None):
        raise ValueError(f"{what} must be finite")


def _nearest_control(attackers, defenders, epv: EpvGrid):
    """+1 attacker-controlled, -1 defender-controlled, 0 tie, per cell. The
    read-only field is cached on `epv` for the last player values, so OBET and
    both zone threats of a frame share one."""
    atk, dfn = (np.asarray(p, dtype=np.float64) for p in (attackers, defenders))
    if len(atk) == 0 or len(dfn) == 0:
        raise ValueError("both teams must have players on the pitch")
    key = (atk.shape, atk.tobytes(), dfn.shape, dfn.tobytes())
    if epv._control is None or epv._control[0] != key:
        _check_finite("attacker positions", atk)
        _check_finite("defender positions", dfn)
        da, dd = (_nearest_distance(epv.cells, p) for p in (atk, dfn))
        out = np.zeros(epv.values.shape, dtype=int)
        out[da < dd - TIE_EPS] = 1
        out[dd < da - TIE_EPS] = -1
        out.flags.writeable = False
        epv._control = (key, out)
    return epv._control[1]


def obet(attackers, defenders, epv: EpvGrid) -> float:
    """Off-ball expected threat: fraction of controlled EPV held by the
    attacking team, each cell controlled by the nearest player."""
    control = _nearest_control(attackers, defenders, epv)
    atk = epv.values[control == 1].sum()
    dfn = epv.values[control == -1].sum()
    total = atk + dfn
    if total <= 0:
        raise ValueError("no EPV mass in controlled cells")
    return float(atk / total)


def _zone_threat(attackers, defenders, epv: EpvGrid, axis: int) -> float:
    """Sum over the N_ZONES zones along `axis` (0 = x, 1 = y) of the
    attacker-held share of the zone's cells times the zone's share of the
    EPV mass. The zone tables are built once per grid and axis."""
    control = _nearest_control(attackers, defenders, epv)
    if axis not in epv._zones:
        span = (epv.pitch.length, epv.pitch.width)[axis]
        coord = epv.cells[..., axis]
        zone = np.minimum(((coord + span / 2) / span * N_ZONES).astype(int), N_ZONES - 1)
        total_epv = epv.values.sum()
        if total_epv <= 0:
            raise ValueError("EPV grid has no mass")
        n_cells = np.bincount(zone.ravel(), minlength=N_ZONES)
        # a weighted bincount would add the zone's cells in another order
        epv._zones[axis] = zone, [
            (z, n_cells[z], epv.values[zone == z].sum() / total_epv)
            for z in np.flatnonzero(n_cells)]
    zone, table = epv._zones[axis]
    n_atk = np.bincount(zone[control == 1], minlength=N_ZONES)
    value = 0.0
    for z, n_z, share in table:
        value += (n_atk[z] / n_z) * share
    return float(value)


def depth_threat(attackers, defenders, epv: EpvGrid) -> float:
    """Attacking control weighted by zone EPV across N_ZONES strips along x."""
    return _zone_threat(attackers, defenders, epv, 0)


def width_threat(attackers, defenders, epv: EpvGrid) -> float:
    """Same weighting across N_ZONES strips along y."""
    return _zone_threat(attackers, defenders, epv, 1)


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

def _arrival_into(t, D, v0, w1, w2, w3):
    """t <- the time to cover distance D starting at signed speed v0 toward
    the target, accelerating at ARRIVAL_ACCEL up to ARRIVAL_VMAX; a player
    moving away first brakes to a stop (drifting further away), then
    accelerates from rest. In place on 1-D arrays: v0 is overwritten, w1..w3
    are work arrays.

    max then min is np.clip in two fast passes. b = max(-v0, 0) is -v0
    where the player moves away and a zero elsewhere, so b / accel and
    D + b ** 2 / (2 accel) are the braking time and the effective distance
    bit for bit; the short-sprint time is computed on the cells that take
    it only."""
    accel, vmax = ARRIVAL_ACCEL, ARRIVAL_VMAX
    np.maximum(v0, -vmax, out=v0)
    np.minimum(v0, vmax, out=v0)
    np.negative(v0, out=w1)
    np.maximum(w1, 0.0, out=w1)
    np.divide(w1, accel, out=t)                         # braking time
    np.square(w1, out=w1)
    np.divide(w1, 2 * accel, out=w1)
    np.add(D, w1, out=w1)                               # effective distance
    np.maximum(v0, 0.0, out=v0)                         # start speed
    np.square(v0, out=w2)
    np.subtract(vmax ** 2, w2, out=w3)
    np.divide(w3, 2 * accel, out=w3)                    # distance to reach vmax
    short = np.flatnonzero(w1 <= w3)
    t_short = (np.sqrt(w2[short] + 2 * accel * w1[short]) - v0[short]) / accel
    np.subtract(w1, w3, out=w3)
    np.divide(w3, vmax, out=w3)
    np.subtract(vmax, v0, out=v0)
    np.divide(v0, accel, out=v0)
    np.add(v0, w3, out=v0)                              # accelerate, then cruise
    v0[short] = t_short
    np.add(t, v0, out=t)


def _min_arrival(cells, players, velocities):
    """Earliest arrival per cell over the players; None velocities are zero.
    One set of [cells] work arrays serves every player. The speed toward a
    cell is v . (offset / distance), and 0 at distance 0. A nonzero distance
    is at least 2.2e-162 (the root of the least subnormal), so this is the
    division by max(distance, 1e-300) bit for bit."""
    players = np.asarray(players, dtype=np.float64)
    velocities = (np.zeros_like(players) if velocities is None
                  else np.asarray(velocities, dtype=np.float64))
    cx, cy = cells[:, 0], cells[:, 1]
    best = np.full(len(cells), np.inf)
    dist, v_along, t, w1, w2, w3 = (np.empty(len(cells)) for _ in range(6))
    for (px, py), (vx, vy) in zip(players, velocities, strict=True):
        np.subtract(cx, px, out=w1)
        np.subtract(cy, py, out=w2)
        np.multiply(w1, w1, out=dist)
        np.multiply(w2, w2, out=w3)
        np.add(dist, w3, out=dist)
        np.sqrt(dist, out=dist)
        with np.errstate(invalid="ignore", divide="ignore"):
            np.divide(w1, dist, out=w1)                 # unit vector toward
            np.divide(w2, dist, out=w2)                 # the cell
            np.multiply(w1, vx, out=w1)
            np.multiply(w2, vy, out=w2)
        np.add(w1, w2, out=v_along)
        np.copyto(v_along, 0.0, where=dist == 0)
        _arrival_into(t, dist, v_along, w1, w2, w3)
        np.minimum(best, t, out=best)
    return best


def _side(players, velocities, name):
    """A side's positions and velocities as finite [N x 2] float arrays."""
    p = np.asarray(players, dtype=np.float64)
    if p.size == 0:
        raise ValueError("need at least one player per side")
    v = None if velocities is None else np.asarray(velocities, dtype=np.float64)
    if p.ndim != 2 or p.shape[1] != 2 or (v is not None and v.shape != p.shape):
        raise ValueError(f"{name} positions and velocities must be [N x 2] with one "
                         f"row per player, got {p.shape} and "
                         f"{None if v is None else v.shape}")
    _check_finite(f"{name} positions and velocities", p, v)
    return p, v


def dominant_region(defenders, attackers, def_velocities=None,
                    atk_velocities=None, pitch: PitchSpec = PitchSpec()) -> float:
    """Pitch area (m^2) the defending team reaches before any attacker: the
    dominant region of Taki & Hasegawa (2000), "Visualization of dominant
    region in team games", with the arrival model of `_arrival_into`.

    A cell of `lattice(pitch)` counts when the defenders' earliest arrival
    beats the attackers' by more than TIE_EPS; ties belong to neither side.
    Each counted cell adds (L / nx)(W / ny), so the cells of the pitch add
    up to its area. None velocities are zero."""
    defenders, def_velocities = _side(defenders, def_velocities, "defender")
    attackers, atk_velocities = _side(attackers, atk_velocities, "attacker")
    cells = lattice(pitch)
    ny, nx = cells.shape[:2]
    cells = cells.reshape(-1, 2)
    td = _min_arrival(cells, defenders, def_velocities)
    ta = _min_arrival(cells, attackers, atk_velocities)
    return int((td < ta - TIE_EPS).sum()) * ((pitch.length / nx) * (pitch.width / ny))


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


def topk_hit(scores, true_idx, k) -> int:
    """1 if `true_idx` is among the `k` highest `scores`, else 0."""
    order = np.argsort(-scores)
    return int(true_idx in order[:k])


def event_metrics(predictions, labels) -> EventMetricsReport:
    """Accuracy, per-class recall, and macro P/R/F1 from EventPredictions.

    Subtype ranking uses the combined p(type) * p(subtype | type) 15-vector;
    type ranking uses the 5-way head. Precision@1 of a never-predicted class
    counts as zero in the macro average.
    """
    if len(predictions) == 0 or len(predictions) != len(labels):
        raise ValueError("predictions and labels must align and be non-empty")
    types = TAXONOMY.types
    subtypes = TAXONOMY.all_subtypes
    type_ks, sub_ks = (1, 3), (1, 3, 5)

    type_hits = {k: [] for k in type_ks}
    sub_hits = {k: [] for k in sub_ks}
    per_type_hits = {k: {t: [] for t in types} for k in type_ks}
    per_sub_hits = {k: {s: [] for s in subtypes} for k in sub_ks}
    confusion_pred = {t: 0 for t in types}
    confusion_correct = {t: 0 for t in types}
    true_counts = {t: 0 for t in types}

    for pred, (y_type, y_sub) in zip(predictions, labels):
        ti = TAXONOMY.type_index(y_type)
        si = TAXONOMY.combined_index(y_sub)
        for k in type_ks:
            hit = topk_hit(pred.type_probs, ti, k)
            type_hits[k].append(hit)
            per_type_hits[k][y_type].append(hit)
        for k in sub_ks:
            hit = topk_hit(pred.combined, si, k)
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
