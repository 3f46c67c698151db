"""Frame-to-frame association of convective systems and motion forecasting.

Association is greedy nearest-centroid matching with a distance gate:
transparent, order-independent (ties broken deterministically), and
adequate at 10-minute cadence where a cell moves far less than the spacing
between distinct systems. Splits and merges are not modeled; they appear
as one track ending and another starting.

Motion is a least-squares linear fit of centroid latitude and longitude
over the trailing ``fit_window`` observations, which smooths the labeling
jitter of centroids. Bearings are the direction of motion *toward*,
clockwise from north (westward motion = 270 degrees).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geogrid import KM_PER_DEG, RegionBox, haversine_km
from .convection import CSObject

DEFAULT_MAX_GAP_KM = 50.0
DEFAULT_FIT_WINDOW = 6
HORIZON_STEP_S = 600
HORIZON_MAX_S = 86400


class UndefinedMotionError(ValueError):
    """Motion requested from a track with fewer than two observations."""


@dataclass
class Track:
    """A time-ordered chain of observations of one convective system."""

    track_id: int
    observations: list[CSObject] = field(default_factory=list)

    def add(self, obs: CSObject) -> None:
        if self.observations and obs.time <= self.observations[-1].time:
            raise ValueError(f"track {self.track_id}: observation times must strictly increase")
        self.observations.append(obs)

    @property
    def last(self) -> CSObject:
        return self.observations[-1]

    def up_to(self, time) -> "Track":
        """View of this track restricted to observations at or before ``time``."""
        return Track(self.track_id, [o for o in self.observations if o.time <= time])


@dataclass(frozen=True)
class MotionVector:
    speed_mps: float
    bearing_deg: float | None  # undefined when speed is 0


def associate(
    prev: list[CSObject],
    next: list[CSObject],
    max_gap_km: float = DEFAULT_MAX_GAP_KM,
) -> list[tuple[int, int]]:
    """Greedy one-to-one matching of objects across consecutive frames.

    Candidate pairs within ``max_gap_km`` are taken in ascending centroid
    distance, ties broken by (prev id, next id), each object used at most
    once. Returns (prev_id, next_id) pairs.
    """
    candidates = []
    for p in prev:
        for n in next:
            d = haversine_km(p.centroid_lat, p.centroid_lon, n.centroid_lat, n.centroid_lon)
            if d <= max_gap_km:
                candidates.append((d, p.id, n.id))
    candidates.sort()
    used_prev: set[int] = set()
    used_next: set[int] = set()
    pairs: list[tuple[int, int]] = []
    for _, pid, nid in candidates:
        if pid in used_prev or nid in used_next:
            continue
        used_prev.add(pid)
        used_next.add(nid)
        pairs.append((pid, nid))
    pairs.sort()
    return pairs


def _slope(t: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of y(t); exactly 0.0 for a constant series."""
    tc = t - t.mean()
    return float((tc * (y - y[0])).sum() / (tc * tc).sum())


def motion_vector(track: Track, fit_window: int = DEFAULT_FIT_WINDOW) -> MotionVector:
    """Fitted (speed m/s, bearing deg) over the trailing observations."""
    obs = track.observations[-fit_window:]
    if len(obs) < 2:
        raise UndefinedMotionError(f"track {track.track_id}: need >= 2 observations for motion")
    t0 = obs[0].time
    t = np.array([(o.time - t0).total_seconds() for o in obs])
    lat = np.array([o.centroid_lat for o in obs])
    lon = np.array([o.centroid_lon for o in obs])
    dlat_per_s = _slope(t, lat)
    dlon_per_s = _slope(t, lon)
    lat_ref = float(lat.mean())
    north_kms = dlat_per_s * KM_PER_DEG
    east_kms = dlon_per_s * KM_PER_DEG * math.cos(math.radians(lat_ref))
    speed = math.hypot(north_kms, east_kms) * 1000.0
    if speed == 0.0:
        return MotionVector(0.0, None)
    bearing = math.degrees(math.atan2(east_kms, north_kms)) % 360.0
    return MotionVector(speed, bearing)


def _displacement_deg(motion: MotionVector, horizon_s: float, lat_ref: float) -> tuple[float, float]:
    """(dlat, dlon) a point at ``lat_ref`` drifts over ``horizon_s``."""
    if motion.speed_mps == 0.0 or motion.bearing_deg is None:
        return 0.0, 0.0
    dist_km = motion.speed_mps * horizon_s / 1000.0
    theta = math.radians(motion.bearing_deg)
    north_km = dist_km * math.cos(theta)
    east_km = dist_km * math.sin(theta)
    return north_km / KM_PER_DEG, east_km / (KM_PER_DEG * math.cos(math.radians(lat_ref)))


def time_to_region(
    track: Track,
    region: RegionBox,
    fit_window: int = DEFAULT_FIT_WINDOW,
    step_s: int = HORIZON_STEP_S,
    max_s: int = HORIZON_MAX_S,
) -> int | None:
    """Smallest forecast horizon at which the track's bbox meets ``region``.

    Horizons are multiples of ``step_s`` up to ``max_s`` (the one-day
    warning cap). Returns None when no horizon intersects, i.e. the cell
    is not approaching.
    """
    motion = motion_vector(track, fit_window)
    bbox = track.last.bbox
    lat_ref = (bbox.lat_min + bbox.lat_max) / 2.0
    for h in range(step_s, max_s + 1, step_s):
        dlat, dlon = _displacement_deg(motion, h, lat_ref)
        if bbox.translated(dlat, dlon).intersects(region):
            return h
        if motion.speed_mps == 0.0:
            return None  # stationary: later horizons are identical
    return None


class Tracker:
    """Sequential frame-by-frame track builder (one instance per stack)."""

    def __init__(self, max_gap_km: float = DEFAULT_MAX_GAP_KM, fit_window: int = DEFAULT_FIT_WINDOW):
        self.max_gap_km = max_gap_km
        self.fit_window = fit_window
        self.tracks: list[Track] = []
        self._live: dict[int, Track] = {}  # current-frame object id -> track
        self._prev: list[CSObject] = []
        self._next_track_id = 1

    def update(self, objects: list[CSObject]) -> None:
        """Advance one frame with its detected objects."""
        pairs = associate(self._prev, objects, self.max_gap_km)
        matched_next = {nid: pid for pid, nid in pairs}
        live_now: dict[int, Track] = {}
        for obj in objects:
            pid = matched_next.get(obj.id)
            if pid is not None and pid in self._live:
                track = self._live[pid]
            else:
                track = Track(self._next_track_id)
                self._next_track_id += 1
                self.tracks.append(track)
            track.add(obj)
            live_now[obj.id] = track
        self._live = live_now
        self._prev = objects


def build_tracks(
    frames: list[list[CSObject]],
    max_gap_km: float = DEFAULT_MAX_GAP_KM,
    fit_window: int = DEFAULT_FIT_WINDOW,
) -> list[Track]:
    """Run a fresh Tracker over per-frame object lists."""
    tracker = Tracker(max_gap_km, fit_window)
    for objects in frames:
        tracker.update(objects)
    return tracker.tracks
