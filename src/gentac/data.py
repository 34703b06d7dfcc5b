"""Frame-level tracking data: parsing, refinement, resampling, windowing.

Clip file format
----------------
A clip is UTF-8 JSON: a top-level object mapping decimal frame-index strings
to frame objects with exactly the keys "ball", "team0" and "team1". Positions
are two-element arrays of numbers in meters, rounded to two decimals, with
``[null, null]`` for a missing observation:

    {
      "13590": {"ball": [6.50, 4.20], "team0": {"Player1": [-0.74, -30.28], ...}, "team1": {...}},
      "13591": {"ball": [null, null], "team0": {...}, "team1": {...}}
    }

The origin sits at the center spot, so a standard soccer pitch bounds x to
[-52.5, 52.5] and y to [-34, 34]. `serialize_clip` emits a canonical form
(frames in index order, players in lexicographic order, two-decimal fixed
formatting) and `parse_clip(serialize_clip(c))` reproduces the clip exactly.

Optional clip metadata (team/league/objective/event tags) travels in a
sidecar ``<stem>.meta.json`` so the clip format itself stays pure.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .rng import Rng


class ClipFormatError(ValueError):
    """Input does not follow the documented clip format."""


class DuplicatePlayerError(ClipFormatError):
    """A player id occurs more than once within one team in one frame."""


SPORTS = {
    # players per team, pitch length x width in meters, standard frame rate
    "soccer": {"players": 11, "length": 105.0, "width": 68.0, "fps": 25.0},
    "basketball": {"players": 5, "length": 28.65, "width": 15.24, "fps": 5.0},
    "american_football": {"players": 11, "length": 109.73, "width": 48.76, "fps": 10.0},
    "ice_hockey": {"players": 6, "length": 60.96, "width": 25.91, "fps": 30.0},
}

BOUNDS_SLACK = 0.5  # meters of tolerance outside the nominal pitch


@dataclass(frozen=True)
class PitchSpec:
    length: float = 105.0
    width: float = 68.0

    def __post_init__(self):
        if self.length <= 0 or self.width <= 0:
            raise ValueError("pitch dimensions must be positive")

    @classmethod
    def for_sport(cls, sport: str) -> "PitchSpec":
        if sport not in SPORTS:
            raise ValueError(f"unknown sport '{sport}'")
        s = SPORTS[sport]
        return cls(s["length"], s["width"])

    @property
    def area(self) -> float:
        return self.length * self.width


@dataclass
class Frame:
    """One instant: ball plus per-team player positions, None when untracked.

    Team dict values are (x, y) tuples or None. A value may transiently be a
    list of candidate positions when a file carried duplicate detections;
    `refine` collapses those, strict parsing rejects them.
    """

    index: int
    ball: tuple | None
    team0: dict
    team1: dict


@dataclass
class TrajectoryClip:
    frames: list
    fps: float
    players_per_team: int
    sport: str = "soccer"
    metadata: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.frames)

    def roster(self, team: int) -> list:
        """Sorted ids of every player that appears in any frame of `team`."""
        ids = set()
        for f in self.frames:
            ids.update((f.team0 if team == 0 else f.team1).keys())
        return sorted(ids)

    def has_unresolved_duplicates(self) -> bool:
        for f in self.frames:
            for team in (f.team0, f.team1):
                if any(isinstance(v, list) for v in team.values()):
                    return True
        return False


@dataclass
class Segment:
    """Dense array view of a clip span.

    coords is [frames x entities x 2] float64, visibility [frames x entities]
    bool. Entity axis order: team0 player slots (N), team1 player slots (N),
    ball last. Missing observations are zero-filled with visibility False;
    the mask, not the zeros, carries the information.
    """

    coords: np.ndarray
    visibility: np.ndarray
    fps: float
    players_per_team: int
    roster0: tuple
    roster1: tuple
    normalized: bool = False

    def __len__(self):
        return self.coords.shape[0]

    @property
    def n_entities(self):
        return self.coords.shape[1]

    def copy(self) -> "Segment":
        return replace(self, coords=self.coords.copy(),
                       visibility=self.visibility.copy())


# ---------------------------------------------------------------------------
# parsing / serialization
# ---------------------------------------------------------------------------

def _parse_position(value, where):
    if (not isinstance(value, (list, tuple))) or len(value) != 2:
        raise ClipFormatError(f"{where}: position must be a two-element array")
    x, y = value
    if x is None and y is None:
        return None
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (x, y)):
        raise ClipFormatError(f"{where}: non-numeric coordinate {value!r}")
    return (float(x), float(y))


def _parse_team(pairs, where, on_duplicate):
    team = {}
    for pid, value in pairs:
        pos = _parse_position(value, f"{where}.{pid}")
        if pid in team:
            if on_duplicate == "error":
                raise DuplicatePlayerError(f"{where}: duplicate player id '{pid}'")
            prev = team[pid]
            cands = prev if isinstance(prev, list) else ([] if prev is None else [prev])
            if pos is not None:
                cands.append(pos)
            team[pid] = cands if len(cands) > 1 else (cands[0] if cands else None)
        else:
            team[pid] = pos
    return team


def parse_clip(text, fps=25.0, sport="soccer", on_duplicate="error") -> TrajectoryClip:
    """Parse clip-format text (or bytes) into a TrajectoryClip.

    `on_duplicate` is "error" (reject files with repeated player ids inside a
    frame) or "collect" (keep all candidate positions for `refine` to
    resolve). Frame order in the result follows the integer frame index.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    try:
        top = json.loads(text, object_pairs_hook=lambda p: p)
    except json.JSONDecodeError as e:
        raise ClipFormatError(f"invalid JSON: {e}") from e
    if not isinstance(top, list):
        raise ClipFormatError("top level must be an object of frames")

    frames = []
    seen_keys = set()
    for key, frame_obj in top:
        if not isinstance(key, str) or not key.lstrip("-").isdigit():
            raise ClipFormatError(f"malformed frame key {key!r}")
        if key in seen_keys:
            raise ClipFormatError(f"duplicate frame key {key!r}")
        seen_keys.add(key)
        index = int(key)
        obj = dict_from_pairs(frame_obj, f"frame {key}")
        for required in ("ball", "team0", "team1"):
            if required not in obj:
                raise ClipFormatError(f"frame {key}: missing '{required}'")
        ball = _parse_position(obj["ball"], f"frame {key}.ball")
        team0 = _parse_team(obj["team0"], f"frame {key}.team0", on_duplicate)
        team1 = _parse_team(obj["team1"], f"frame {key}.team1", on_duplicate)
        frames.append(Frame(index, ball, team0, team1))

    frames.sort(key=lambda f: f.index)
    sport_cfg = SPORTS.get(sport)
    if sport_cfg is None:
        raise ValueError(f"unknown sport '{sport}'")
    clip = TrajectoryClip(frames, float(fps), sport_cfg["players"], sport)
    for team in (0, 1):
        n_ids = len(clip.roster(team))
        if n_ids > clip.players_per_team:
            raise ClipFormatError(
                f"team{team} roster has {n_ids} ids, more than "
                f"{clip.players_per_team} allowed for {sport}")
    return clip


def dict_from_pairs(pairs, where):
    if not isinstance(pairs, list):
        raise ClipFormatError(f"{where}: must be an object")
    out = {}
    for k, v in pairs:
        if k in out and k in ("ball", "team0", "team1"):
            raise ClipFormatError(f"{where}: duplicate key '{k}'")
        out[k] = v
    return out


def _fmt(v: float) -> str:
    s = f"{v:.2f}"
    return "0.00" if s == "-0.00" else s


def _pos_json(pos) -> str:
    if pos is None:
        return "[null, null]"
    return f"[{_fmt(pos[0])}, {_fmt(pos[1])}]"


def serialize_clip(clip: TrajectoryClip) -> str:
    """Canonical clip text: frames in index order, players sorted, 2-decimal."""
    if clip.has_unresolved_duplicates():
        raise ValueError("clip carries unresolved duplicate detections; refine first")
    lines = []
    for f in sorted(clip.frames, key=lambda fr: fr.index):
        parts = [f'"ball": {_pos_json(f.ball)}']
        for name, team in (("team0", f.team0), ("team1", f.team1)):
            inner = ", ".join(f'"{pid}": {_pos_json(team[pid])}' for pid in sorted(team))
            parts.append(f'"{name}": {{{inner}}}')
        lines.append(f'  "{f.index}": {{{", ".join(parts)}}}')
    return "{\n" + ",\n".join(lines) + "\n}\n"


def load_clip(path, fps=None, sport="soccer", on_duplicate="error") -> TrajectoryClip:
    """Read a clip file plus its optional `<stem>.meta.json` sidecar."""
    import pathlib

    path = pathlib.Path(path)
    if fps is None:
        fps = SPORTS[sport]["fps"]
    clip = parse_clip(path.read_text("utf-8"), fps=fps, sport=sport,
                      on_duplicate=on_duplicate)
    meta_path = path.with_suffix(".meta.json")
    if meta_path.exists():
        clip.metadata = json.loads(meta_path.read_text("utf-8"))
        if "fps" in clip.metadata:
            clip.fps = float(clip.metadata["fps"])
        if "players_per_team" in clip.metadata:
            clip = with_players_per_team(
                clip, int(clip.metadata["players_per_team"]))
    return clip


def with_players_per_team(clip: TrajectoryClip, n: int) -> TrajectoryClip:
    """A copy of `clip` with a roster capacity of `n` slots per team
    (desk-scale models use fewer than the sport's regulation count). The
    frames are shared, not copied; `clip` itself is left unchanged."""
    for team in (0, 1):
        ids = len(clip.roster(team))
        if ids > n:
            raise ValueError(
                f"team{team} roster of {ids} exceeds {n} players per team")
    return replace(clip, players_per_team=int(n))


def save_clip(clip: TrajectoryClip, path):
    import pathlib

    path = pathlib.Path(path)
    path.write_text(serialize_clip(clip), "utf-8")
    if clip.metadata:
        meta = dict(clip.metadata)
        meta["fps"] = clip.fps  # the clip object is authoritative
        meta["players_per_team"] = clip.players_per_team
        path.with_suffix(".meta.json").write_text(
            json.dumps(meta, sort_keys=True, indent=1), "utf-8")


# ---------------------------------------------------------------------------
# entity table helpers
# ---------------------------------------------------------------------------

def _entity_ids(clip):
    """(roster0, roster1); entity axis = roster0 slots, roster1 slots, ball."""
    return tuple(clip.roster(0)), tuple(clip.roster(1))


def clip_to_segment(clip: TrajectoryClip) -> Segment:
    """Densify a clip into a Segment in meters (zero-filled where missing)."""
    if clip.has_unresolved_duplicates():
        raise ValueError("clip carries unresolved duplicate detections; refine first")
    roster0, roster1 = _entity_ids(clip)
    n = clip.players_per_team
    n_ent = 2 * n + 1
    F = len(clip.frames)
    coords = np.zeros((F, n_ent, 2))
    vis = np.zeros((F, n_ent), dtype=bool)
    for t, f in enumerate(clip.frames):
        for slot, pid in enumerate(roster0):
            pos = f.team0.get(pid)
            if pos is not None:
                coords[t, slot] = pos
                vis[t, slot] = True
        for slot, pid in enumerate(roster1):
            pos = f.team1.get(pid)
            if pos is not None:
                coords[t, n + slot] = pos
                vis[t, n + slot] = True
        if f.ball is not None:
            coords[t, 2 * n] = f.ball
            vis[t, 2 * n] = True
    return Segment(coords, vis, clip.fps, n, roster0, roster1, normalized=False)


def segment_to_clip(seg: Segment, pitch: PitchSpec | None = None,
                    sport="soccer", metadata=None,
                    start_index=0) -> TrajectoryClip:
    """Inverse of clip_to_segment; denormalizes first when needed."""
    coords = seg.coords
    if seg.normalized:
        if pitch is None:
            pitch = PitchSpec.for_sport(sport)
        coords = denormalize_xy(coords, pitch)
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


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def normalize_xy(xy: np.ndarray, pitch: PitchSpec) -> np.ndarray:
    """Meters -> [-1, 1]^2 about the center spot: x' = 2x/L, y' = 2y/W."""
    out = np.array(xy, dtype=np.float64, copy=True)
    out[..., 0] *= 2.0 / pitch.length
    out[..., 1] *= 2.0 / pitch.width
    return out


def denormalize_xy(xy: np.ndarray, pitch: PitchSpec) -> np.ndarray:
    out = np.array(xy, dtype=np.float64, copy=True)
    out[..., 0] *= pitch.length / 2.0
    out[..., 1] *= pitch.width / 2.0
    return out


def normalize(clip_or_segment, pitch: PitchSpec) -> Segment:
    """Normalized-coordinate Segment; rejects positions beyond bounds + slack."""
    seg = (clip_to_segment(clip_or_segment)
           if isinstance(clip_or_segment, TrajectoryClip) else clip_or_segment)
    if seg.normalized:
        return seg
    vx = np.abs(seg.coords[..., 0][seg.visibility])
    vy = np.abs(seg.coords[..., 1][seg.visibility])
    if (vx > pitch.length / 2 + BOUNDS_SLACK).any() or \
       (vy > pitch.width / 2 + BOUNDS_SLACK).any():
        raise ValueError("position outside pitch bounds plus slack")
    coords = normalize_xy(seg.coords, pitch)
    coords[~seg.visibility] = 0.0
    return replace(seg, coords=coords, normalized=True)


# ---------------------------------------------------------------------------
# resampling
# ---------------------------------------------------------------------------

def resample(clip: TrajectoryClip, target_fps: float) -> TrajectoryClip:
    """Linear temporal resampling onto a uniform grid at `target_fps`.

    Output frames are indexed 0..M-1 and contiguous. A target instant is
    interpolated between the nearest existing source frames; it is missing iff
    either bracketing source observation is missing. Endpoints land exactly on
    the first and last source frames; nothing is extrapolated.
    """
    if len(clip.frames) < 2:
        raise ValueError("resample needs at least 2 frames")
    if target_fps <= 0:
        raise ValueError("target_fps must be positive")

    frames = sorted(clip.frames, key=lambda f: f.index)
    # work in source-frame units so ratio resampling stays exact
    pos = np.array([f.index - frames[0].index for f in frames], dtype=np.float64)
    ratio = clip.fps / target_fps
    n_out = int(math.floor(pos[-1] / ratio + 1e-9)) + 1

    roster0, roster1 = _entity_ids(clip)

    def series(getter):
        return [getter(f) for f in frames]

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

    entity_series = {"ball": series(lambda f: f.ball)}
    for pid in roster0:
        entity_series[("t0", pid)] = series(lambda f, p=pid: f.team0.get(p))
    for pid in roster1:
        entity_series[("t1", pid)] = series(lambda f, p=pid: f.team1.get(p))

    out = []
    for k in range(n_out):
        u = k * ratio
        ball = sample(entity_series["ball"], u)
        team0 = {pid: sample(entity_series[("t0", pid)], u) for pid in roster0}
        team1 = {pid: sample(entity_series[("t1", pid)], u) for pid in roster1}
        out.append(Frame(k, ball, team0, team1))
    return TrajectoryClip(out, float(target_fps), clip.players_per_team,
                          clip.sport, dict(clip.metadata))


# ---------------------------------------------------------------------------
# refinement
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RefineParams:
    """Defaults sized for soccer at 25 fps; exposed because other sports may
    need different gap and speed limits."""

    max_gap: int = 12          # frames (~0.5 s at 25 fps)
    v_max: float = 12.0        # m/s; faster than any sustained sprint
    anomaly_count: int = 3     # entities jumping together flag the frame pair
    ema_gamma: float = 0.85    # weight on the current sample; 1.0 disables


def resolve_duplicates(clip: TrajectoryClip) -> TrajectoryClip:
    """Collapse duplicate detections only (stage 1 of `refine`)."""
    frames = []
    last_seen = {}
    for f in sorted(clip.frames, key=lambda fr: fr.index):
        new_teams = []
        for ti, team in enumerate((f.team0, f.team1)):
            resolved = {}
            for pid, val in team.items():
                if isinstance(val, list):
                    anchor = last_seen.get((ti, pid))
                    if anchor is not None:
                        val = min(val, key=lambda p: (
                            (p[0] - anchor[0]) ** 2 + (p[1] - anchor[1]) ** 2,
                            p[0] + p[1]))
                    else:
                        val = min(val, key=lambda p: p[0] + p[1])
                resolved[pid] = val
                if val is not None:
                    last_seen[(ti, pid)] = val
            new_teams.append(resolved)
        frames.append(Frame(f.index, f.ball, new_teams[0], new_teams[1]))
    return TrajectoryClip(frames, clip.fps, clip.players_per_team, clip.sport,
                          dict(clip.metadata))


def _runs(mask):
    """(start, stop) of each run of True in a 1-D boolean mask."""
    edges = np.flatnonzero(np.diff(np.concatenate(([0], mask.astype(int), [0]))))
    return zip(edges[::2].tolist(), edges[1::2].tolist())


def _fill_gaps(coords, vis, max_gap):
    """Linear fill of missing runs <= max_gap; boundary runs hold the nearest
    observed value. Longer runs, and entities never observed, stay missing."""
    F = coords.shape[0]
    for e in range(coords.shape[1]):
        for start, stop in _runs(~vis[:, e]):
            if stop - start > max_gap or stop - start == F:
                continue
            left, right = start - 1, stop
            if left < 0:
                coords[start:stop, e] = coords[right, e]
            elif right >= F:
                coords[start:stop, e] = coords[left, e]
            else:
                for k in range(start, stop):
                    w = (k - left) / (right - left)
                    coords[k, e] = coords[left, e] + w * (coords[right, e] - coords[left, e])
            vis[start:stop, e] = True


def _anomalous_pairs(coords, vis, fps, v_max, anomaly_count):
    F = coords.shape[0]
    flags = np.zeros(max(F - 1, 0), dtype=bool)
    for t in range(F - 1):
        both = vis[t] & vis[t + 1]
        if not both.any():
            continue
        d = np.linalg.norm(coords[t + 1, both] - coords[t, both], axis=-1)
        flags[t] = int((d * fps > v_max).sum()) >= anomaly_count
    return flags


def _reconstruct_spans(coords, vis, pair_flags):
    """Interpolate entity positions across runs of anomalous frame pairs."""
    F = coords.shape[0]
    suspect = np.zeros(F, dtype=bool)
    n_pairs = len(pair_flags)
    for start, stop in _runs(pair_flags):
        if start == 0:
            # also a run over every pair: the last frame stays trusted
            suspect[0:stop] = True
        elif stop == n_pairs:
            suspect[start + 1:F] = True
        else:
            suspect[start + 1:stop] = True

    if not suspect.any():
        return
    ok = ~suspect
    for e in range(coords.shape[1]):
        good = np.flatnonzero(ok & vis[:, e])
        if good.size == 0:
            continue
        for f in np.flatnonzero(suspect & vis[:, e]):
            i = np.searchsorted(good, f)
            if i == 0:
                coords[f, e] = coords[good[0], e]
            elif i == good.size:
                coords[f, e] = coords[good[-1], e]
            else:
                left, right = good[i - 1], good[i]
                w = (f - left) / (right - left)
                coords[f, e] = coords[left, e] + w * (coords[right, e] - coords[left, e])


def _ema_smooth(coords, vis, gamma):
    """Bidirectional EMA, forward and backward passes averaged.

    Each observed run is extended by odd reflection before filtering so the
    filter starts in steady state; straight-line motion is a fixed point,
    which keeps clean tracking untouched.
    """
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
        for start, stop in _runs(vis[:, e]):
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


def refine(clip: TrajectoryClip, params: RefineParams = RefineParams()) -> TrajectoryClip:
    """Track repair pipeline, applied in order:

    1. duplicate identity resolution (nearest to the id's last known position,
       ties by lower coordinate sum)
    2. linear interpolation of missing runs up to `max_gap` frames
    3. anomaly scan: a frame pair is anomalous when at least `anomaly_count`
       entities move faster than `v_max` between its frames
    4. reconstruction of anomalous spans by interpolation from the nearest
       trusted frames
    5. bidirectional exponential moving average smoothing (factor `ema_gamma`)

    Refinement is total: it never raises on clip content.
    """
    clip = resolve_duplicates(clip)
    seg = clip_to_segment(clip)
    coords, vis = seg.coords, seg.visibility

    _fill_gaps(coords, vis, params.max_gap)
    flags = _anomalous_pairs(coords, vis, clip.fps, params.v_max, params.anomaly_count)
    _reconstruct_spans(coords, vis, flags)
    _ema_smooth(coords, vis, params.ema_gamma)

    seg = replace(seg, coords=coords, visibility=vis)
    start = clip.frames[0].index if clip.frames else 0
    out = segment_to_clip(seg, sport=clip.sport, metadata=dict(clip.metadata),
                          start_index=start)
    out.fps = clip.fps
    return out


# ---------------------------------------------------------------------------
# windowing / augmentation
# ---------------------------------------------------------------------------

def window(source, start: int, history_len: int, future_len: int):
    """Split [start, start+history_len+future_len) into (history, future)."""
    seg = clip_to_segment(source) if isinstance(source, TrajectoryClip) else source
    if start < 0 or history_len < 0 or future_len < 0:
        raise ValueError("window bounds must be non-negative")
    end = start + history_len + future_len
    if end > len(seg):
        raise ValueError(
            f"window [{start}, {end}) exceeds clip length {len(seg)}")
    mid = start + history_len
    hist = replace(seg, coords=seg.coords[start:mid].copy(),
                   visibility=seg.visibility[start:mid].copy())
    fut = replace(seg, coords=seg.coords[mid:end].copy(),
                  visibility=seg.visibility[mid:end].copy())
    return hist, fut


def count_windows(clip_len: int, history_len: int, future_len: int, stride: int) -> int:
    usable = clip_len - history_len - future_len
    if usable < 0:
        return 0
    return usable // stride + 1


def flip_augment(seg: Segment, p_horizontal: float, p_vertical: float,
                 rng: Rng) -> Segment:
    """Mirror normalized coordinates about each pitch axis with the given
    probabilities; one draw per axis, applied to every frame and entity."""
    if not seg.normalized:
        raise ValueError("flip_augment expects normalized coordinates")
    sx = -1.0 if rng.uniform() < p_horizontal else 1.0
    sy = -1.0 if rng.uniform() < p_vertical else 1.0
    coords = seg.coords * np.array([sx, sy])
    return replace(seg, coords=coords, visibility=seg.visibility.copy())


# ---------------------------------------------------------------------------
# EPV grid file io (consumed by metrics)
# ---------------------------------------------------------------------------

def load_epv_grid(path) -> np.ndarray:
    """Read the EPV grid text format: header line "rows cols", then `rows`
    whitespace-separated lines of `cols` reals (rows indexed by y cell)."""
    import pathlib

    lines = pathlib.Path(path).read_text("utf-8").strip().splitlines()
    if not lines:
        raise ValueError("empty EPV grid file")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError("EPV grid header must be 'rows cols'")
    rows, cols = int(head[0]), int(head[1])
    values = np.loadtxt(lines[1:], dtype=np.float64, ndmin=2)
    if values.shape != (rows, cols):
        raise ValueError(f"EPV grid body {values.shape} disagrees with header {(rows, cols)}")
    if not np.isfinite(values).all() or (values < 0).any():
        raise ValueError("EPV grid values must be finite and non-negative")
    return values


def save_epv_grid(grid: np.ndarray, path):
    import pathlib

    grid = np.asarray(grid, dtype=np.float64)
    body = "\n".join(" ".join(f"{v:.10g}" for v in row) for row in grid)
    pathlib.Path(path).write_text(
        f"{grid.shape[0]} {grid.shape[1]}\n{body}\n", "utf-8")
