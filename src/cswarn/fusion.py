"""Decision-level fusion of per-region indicators into warning levels.

Each decision epoch looks back over a trailing window (default 3 h) and
condenses every sensor into one indicator per region: deep-cloud cover,
coldest cloud top, wind severity, rain intensity and persistence, and the
forecast time for any tracked system to reach the region. A small, fixed
table of monotone rules then maps indicators to a warning level, so every
issued warning is attributable to named evidence rather than an opaque
score.

Missing data degrades gracefully: an unobserved variable keeps its quiet
default (zero cover, no wind, no rain, nothing approaching), which can
never satisfy a rule. A region nobody observed therefore stays at NONE.

Wind severity for a region is taken from the region itself *and* from the
footprint of any tracked system forecast to reach it: a severe gust ring
measured around an offshore cell counts toward the coastal region it is
bearing down on. Without that, wind evidence would only register after
landfall, which is exactly too late for an early warning.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timedelta
from enum import IntEnum
from typing import Mapping, Sequence

from .convection import CSObject
from .geogrid import GridGeometry, GridStack, RegionBox, region_indices
from .precip import EmptyWindowError, RainStats, region_rain_stats
from .tracking import (
    DEFAULT_FIT_WINDOW,
    HORIZON_MAX_S,
    Track,
    build_tracks,
    time_to_region,
)
from .wind import WindCategory, categorize_grid, region_max_category

DEFAULT_WINDOW_S = 10800
DEFAULT_EPOCH_S = 1800
LEAD_TIME_CAP_S = 86400


class WarnLevel(IntEnum):
    NONE = 0
    WATCH = 1
    WARNING = 2
    SEVERE = 3


@dataclass(frozen=True)
class RegionIndicators:
    """Everything the rule table sees for one region at one epoch."""

    region: str
    epoch: datetime
    deep_cloud_fraction: float
    min_bt_K: float | None
    wind_cat: WindCategory
    wind_no_observation: bool
    max_rain_mmh: float
    rain_persistence_h: float
    approach_s: int | None
    source_count: Mapping[str, int]
    rain_stats: RainStats | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.deep_cloud_fraction <= 1.0:
            raise ValueError(f"deep_cloud_fraction {self.deep_cloud_fraction} outside [0, 1]")
        if self.approach_s is not None and self.approach_s <= 0:
            raise ValueError(f"approach_s must be > 0 when finite, got {self.approach_s}")
        if self.max_rain_mmh < 0 or self.rain_persistence_h < 0:
            raise ValueError("rain indicators must be >= 0")


@dataclass(frozen=True)
class RuleSet:
    """Thresholds for the three-rule warning table.

    - R1 WATCH: substantial deep-cloud cover, or at least moderate wind.
    - R2 WARNING: deep cloud with heavy rain now, or a severe-wind system
      forecast to arrive.
    - R3 SEVERE: deep cloud, heavy rain persisting, and severe wind all
      at once.
    """

    min_cloud_fraction: float = 0.2
    r_heavy_mmh: float = 8.0
    min_persistence_h: float = 3.0

    def evaluate(self, ind: RegionIndicators) -> list[tuple[str, WarnLevel]]:
        cloud = ind.deep_cloud_fraction >= self.min_cloud_fraction
        heavy = ind.max_rain_mmh >= self.r_heavy_mmh
        persistent = ind.rain_persistence_h >= self.min_persistence_h
        severe_wind = ind.wind_cat >= WindCategory.SEVERE
        approaching = ind.approach_s is not None
        triggered: list[tuple[str, WarnLevel]] = []
        if cloud or ind.wind_cat >= WindCategory.MODERATE:
            triggered.append(("R1", WarnLevel.WATCH))
        if (cloud and heavy) or (severe_wind and approaching):
            triggered.append(("R2", WarnLevel.WARNING))
        if cloud and heavy and persistent and severe_wind:
            triggered.append(("R3", WarnLevel.SEVERE))
        return triggered


@dataclass(frozen=True)
class WarningReport:
    region: str
    epoch: datetime
    level: WarnLevel
    lead_time_s: int | None
    triggered_rules: tuple[str, ...]
    indicators: RegionIndicators

    def __post_init__(self) -> None:
        if self.level >= WarnLevel.WATCH and not self.triggered_rules:
            raise ValueError(f"{self.region}: level {self.level.name} without triggered rules")


def decide(ind: RegionIndicators, rules: RuleSet | None = None) -> WarningReport:
    """Apply the rule table; level is the highest satisfied rule's level."""
    rules = rules or RuleSet()
    triggered = rules.evaluate(ind)
    level = max((lv for _, lv in triggered), default=WarnLevel.NONE)
    lead: int | None = None
    if ind.approach_s is not None:
        lead = min(max(int(ind.approach_s), 0), LEAD_TIME_CAP_S)
    return WarningReport(
        region=ind.region,
        epoch=ind.epoch,
        level=level,
        lead_time_s=lead,
        triggered_rules=tuple(rid for rid, _ in triggered),
        indicators=ind,
    )


@dataclass(frozen=True)
class FrameDetections:
    """Detected objects of one BT frame plus the frame's geometry."""

    time: datetime
    geometry: GridGeometry
    objects: tuple[CSObject, ...]


def _cloud_stats(
    detections: Sequence[FrameDetections],
    region: RegionBox,
    window_start: datetime,
    epoch: datetime,
) -> tuple[float, float | None, int]:
    """(max cover fraction, min BT of touching objects, frames covering the region)."""
    best_fraction = 0.0
    min_bt: float | None = None
    frames_seen = 0
    for frame in detections:
        if not window_start < frame.time <= epoch:
            continue
        window = region_indices(frame.geometry, region)
        if window is None:
            continue
        frames_seen += 1
        # Region cells form a contiguous index block, so membership is a
        # bounds check per pixel.
        rows, cols = window
        n_cells = (rows.stop - rows.start) * (cols.stop - cols.start)
        inside = 0
        for obj in frame.objects:
            hits = int(
                (
                    (obj.rows >= rows.start) & (obj.rows < rows.stop)
                    & (obj.cols >= cols.start) & (obj.cols < cols.stop)
                ).sum()
            )
            if hits:
                inside += hits
                if obj.min_bt is not None and (min_bt is None or obj.min_bt < min_bt):
                    min_bt = obj.min_bt
        best_fraction = max(best_fraction, inside / n_cells)
    return best_fraction, min_bt, frames_seen


def build_indicators(
    epoch: datetime,
    region: RegionBox,
    detections: Sequence[FrameDetections],
    tracks: Sequence[Track],
    wind_cat_stacks: Sequence[GridStack],
    rain_stats: RainStats | None,
    window_s: int = DEFAULT_WINDOW_S,
    fit_window: int = DEFAULT_FIT_WINDOW,
) -> RegionIndicators:
    """Condense all sensors into one region's indicators at ``epoch``.

    ``detections`` and ``tracks`` should already be restricted to data at
    or before ``epoch`` (the engine handles that); ``rain_stats`` is the
    trailing-window summary for this region, or None when rain was not
    observed.
    """
    window_start = epoch - timedelta(seconds=window_s)
    fraction, min_bt, bt_frames = _cloud_stats(detections, region, window_start, epoch)

    approach: int | None = None
    approaching_bboxes: list[RegionBox] = []
    for track in tracks:
        if len(track.observations) < 2:
            continue
        if not window_start < track.last.time <= epoch:
            continue
        t = time_to_region(track, region, fit_window=fit_window, max_s=HORIZON_MAX_S)
        if t is not None:
            approach = t if approach is None else min(approach, t)
            approaching_bboxes.append(track.last.bbox)

    samples = [region_max_category(wind_cat_stacks, region, window_start, epoch)]
    samples += [
        region_max_category(wind_cat_stacks, bbox, window_start, epoch)
        for bbox in approaching_bboxes
    ]
    wind_cat = max(s.category for s in samples)

    source_count = {
        "bt": 1 if bt_frames else 0,
        "wind": samples[0].sources,
        "rain": 1 if rain_stats is not None and rain_stats.missing_fraction < 1.0 else 0,
    }

    return RegionIndicators(
        region=region.name,
        epoch=epoch,
        deep_cloud_fraction=fraction,
        min_bt_K=min_bt,
        wind_cat=wind_cat,
        wind_no_observation=all(s.sources == 0 for s in samples),
        max_rain_mmh=rain_stats.max_rate_mmh if rain_stats else 0.0,
        rain_persistence_h=rain_stats.persistence_h if rain_stats else 0.0,
        approach_s=approach,
        source_count=source_count,
        rain_stats=rain_stats,
    )


class FusionEngine:
    """Precomputes detections, tracks, and wind categories, then answers
    per-epoch warning queries. One instance per data set; epochs may be
    queried in any order once constructed."""

    def __init__(
        self,
        regions: Sequence[RegionBox],
        bt: GridStack | None = None,
        rain: GridStack | None = None,
        wind_speed: Mapping[str, GridStack] | None = None,
        *,
        t_deep: float = 220.0,
        min_area_px: int = 4,
        bins: tuple[float, float, float] = (5.0, 10.0, 15.0),
        rules: RuleSet | None = None,
        window_s: int = DEFAULT_WINDOW_S,
        max_gap_km: float = 50.0,
        fit_window: int = DEFAULT_FIT_WINDOW,
    ):
        names = [r.name for r in regions]
        dupes = {n for n in names if names.count(n) > 1}
        if dupes:
            raise ValueError(f"duplicate region names: {sorted(dupes)}")
        self.regions = sorted(regions, key=lambda r: r.name)
        self.rules = rules or RuleSet()
        self.window_s = window_s
        self.fit_window = fit_window
        self.rain = rain
        self.r_heavy = self.rules.r_heavy_mmh

        from .convection import detect  # local import keeps module load light

        self.detections: list[FrameDetections] = []
        if bt is not None:
            for frame in bt:
                objs = detect(frame, t_deep=t_deep, min_area_px=min_area_px)
                self.detections.append(FrameDetections(frame.time, frame.geometry, tuple(objs)))
        self.tracks = build_tracks(
            [list(d.objects) for d in self.detections], max_gap_km, fit_window
        )
        self.frame_times = [d.time for d in self.detections]

        self.wind_cat_stacks: list[GridStack] = []
        for _, stack in sorted((wind_speed or {}).items()):
            self.wind_cat_stacks.append(GridStack([categorize_grid(f, bins) for f in stack]))

    def _tracks_at(self, epoch: datetime) -> list[Track]:
        return [t.up_to(epoch) for t in self.tracks if t.observations[0].time <= epoch]

    def rain_stats_at(self, epoch: datetime, region: RegionBox) -> RainStats | None:
        if self.rain is None:
            return None
        start = epoch - timedelta(seconds=self.window_s)
        try:
            return region_rain_stats(self.rain, region, start, epoch, self.r_heavy)
        except EmptyWindowError:
            return None

    def run_epoch(self, epoch: datetime) -> list[WarningReport]:
        """One WarningReport per region, ordered by region name."""
        detections = [d for d in self.detections if d.time <= epoch]
        tracks = self._tracks_at(epoch)
        reports = []
        for region in self.regions:
            ind = build_indicators(
                epoch,
                region,
                detections,
                tracks,
                self.wind_cat_stacks,
                self.rain_stats_at(epoch, region),
                window_s=self.window_s,
                fit_window=self.fit_window,
            )
            reports.append(decide(ind, self.rules))
        return reports

    def run(self, start: datetime, end: datetime, epoch_s: int = DEFAULT_EPOCH_S) -> list[WarningReport]:
        """Reports for every epoch start, start+epoch_s, ... up to end."""
        reports: list[WarningReport] = []
        epoch = start
        while epoch <= end:
            reports.extend(self.run_epoch(epoch))
            epoch += timedelta(seconds=epoch_s)
        return reports

