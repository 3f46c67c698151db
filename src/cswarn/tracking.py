"""Frame-to-frame association of convective systems and motion forecasting.

Association is greedy nearest-centroid matching with a distance gate:
transparent, order-independent (ties broken deterministically), and
adequate at 10-minute cadence where a cell moves far less than the spacing
between distinct systems. Splits and merges are not modeled; they appear
as one track ending and another starting. A BT frame with no finite cell
was not observed, so association skips it as a dropped frame
(``convection._observed``); as a clear sky it would end every track.

Motion is a least-squares linear fit of centroid latitude and longitude
over the trailing ``fit_window`` observations, which smooths the labeling
jitter of centroids. Bearings are the direction of motion *toward*,
clockwise from north (westward motion = 270 degrees). A forecast's time to
a region is the first horizon at which the moved last bbox meets it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .geogrid import KM_PER_DEG, RegionBox, haversine_km
from .convection import CSObject

DEFAULT_MAX_GAP_KM = 50.0
DEFAULT_FIT_WINDOW = 6
HORIZON_STEP_S = 600
HORIZON_MAX_S = 86400

# Every forecast horizon (s), read-only and shared by every forecast.
_HORIZONS = np.arange(HORIZON_STEP_S, HORIZON_MAX_S + 1, HORIZON_STEP_S, dtype=np.float64)
_HORIZONS.setflags(write=False)


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


class ForecastPath(NamedTuple):
    """A bbox moved along one motion fit: the forecast horizons (s) and
    the box's four edges at each of them, as parallel float64 arrays."""

    horizons: np.ndarray
    lat_min: np.ndarray
    lat_max: np.ndarray
    lon_min: np.ndarray
    lon_max: np.ndarray


def forecast(track: Track, fit_window: int = DEFAULT_FIT_WINDOW) -> ForecastPath:
    """The last bbox moved along one motion fit, at every forecast horizon.

    Horizons are multiples of HORIZON_STEP_S up to HORIZON_MAX_S (the
    one-day warning cap). A stationary track gets only the first horizon,
    since every later one is identical. Each edge is computed with the
    same IEEE operations, in the same order, as moving the bbox one
    horizon at a time by the displacement of the motion over that horizon
    (``tests/oracles.py``, ``displacement_deg`` and
    ``horizon_loop_time_to_region``), so it is bit-equal to that loop.
    """
    motion = motion_vector(track, fit_window)
    bbox = track.last.bbox
    lat_ref = (bbox.lat_min + bbox.lat_max) / 2.0
    if motion.speed_mps == 0.0 or motion.bearing_deg is None:
        horizons = _HORIZONS[:1]
        dlat = dlon = np.zeros(1)
    else:
        horizons = _HORIZONS
        dist_km = motion.speed_mps * horizons / 1000.0
        theta = math.radians(motion.bearing_deg)
        dlat = dist_km * math.cos(theta) / KM_PER_DEG
        dlon = dist_km * math.sin(theta) / (KM_PER_DEG * math.cos(math.radians(lat_ref)))
    return ForecastPath(horizons, bbox.lat_min + dlat, bbox.lat_max + dlat,
                        bbox.lon_min + dlon, bbox.lon_max + dlon)


@lru_cache(maxsize=256)
def _region_edges(regions: tuple[RegionBox, ...]) -> np.ndarray:
    """The (lat_min, lat_max, lon_min, lon_max) rows of ``regions``' edges,
    read-only; found once and kept for the 256 region tuples used last."""
    edges = np.array([(r.lat_min, r.lat_max, r.lon_min, r.lon_max) for r in regions], np.float64)
    edges = edges.reshape(-1, 4).T.copy()
    edges.setflags(write=False)
    return edges


def time_to_region(path: ForecastPath, regions: Sequence[RegionBox]) -> list[int | None]:
    """Each region's first horizon of a :func:`forecast` path whose bbox
    meets it (closed intervals, as :meth:`RegionBox.intersects`), or None
    when none does; one test over every horizon and region at once."""
    lat_min, lat_max, lon_min, lon_max = _region_edges(tuple(regions))
    hit = ((path.lat_min[:, None] <= lat_max) & (lat_min <= path.lat_max[:, None])
           & (path.lon_min[:, None] <= lon_max) & (lon_min <= path.lon_max[:, None]))
    first = hit.argmax(axis=0)
    return [int(path.horizons[i]) if hit[i, j] else None for j, i in enumerate(first.tolist())]


def build_tracks(
    frames: list[list[CSObject]], max_gap_km: float = DEFAULT_MAX_GAP_KM
) -> list[Track]:
    """Chain per-frame object lists into tracks, frame by frame.

    An object continues the track of the previous-frame object it is
    associated with; any other object starts a new track. Track ids count
    up from 1 in order of first appearance.
    """
    tracks: list[Track] = []
    live: dict[int, Track] = {}  # previous-frame object id -> track
    prev: list[CSObject] = []
    for objects in frames:
        matched = {nid: pid for pid, nid in associate(prev, objects, max_gap_km)}
        live_now: dict[int, Track] = {}
        for obj in objects:
            if obj.id in matched:
                track = live[matched[obj.id]]
            else:
                track = Track(len(tracks) + 1)
                tracks.append(track)
            track.add(obj)
            live_now[obj.id] = track
        live, prev = live_now, objects
    return tracks
