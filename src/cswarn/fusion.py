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

An epoch is evaluated for all regions at once, so what does not depend on
the region is computed once per epoch: the window's BT frames, and each
live track's motion fit and forecast path. A path holds the track's bbox
edges at every horizon as arrays, so its first hit on a region is one
vectorised test. A track's footprint wind is looked up once per epoch
too, and only when its path reaches a region. A BT stack has one
geometry, so a region's BT cell window is found once per epoch, not once
per frame.

What depends only on one frame and fixed parameters is computed once per
frame, not once per engine or epoch: a BT frame's detections, a wind
frame's categories, and a rain or wind frame's reduction over a region's
cell window (see ``geogrid._per_frame``). Engines rebuilt on overlapping
trailing windows, as a nowcast does at every new frame, share them.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timedelta
from enum import IntEnum
from typing import Mapping, Sequence

from .convection import DEFAULT_MIN_AREA_PX, DEFAULT_T_DEEP_K, CSObject, detect
from .geogrid import GridStack, RegionBox, _per_frame, region_indices
from .precip import R_HEAVY_DEFAULT_MMH, EmptyWindowError, RainStats, region_rain_stats
from .tracking import (
    DEFAULT_FIT_WINDOW,
    DEFAULT_MAX_GAP_KM,
    Track,
    build_tracks,
    forecast,
    time_to_region,
)
from .wind import DEFAULT_BINS, RegionCategory, WindCategory, categorize_grid, region_max_category

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
    r_heavy_mmh: float = R_HEAVY_DEFAULT_MMH
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


def _cloud_stats(
    frames: Sequence[Sequence[CSObject]],
    window: tuple[slice, slice],
    region: RegionBox,
) -> tuple[float, float | None]:
    """(max cover fraction, min BT of touching objects) over the objects of
    each frame, for the region's BT cell window."""
    best_fraction = 0.0
    min_bt: float | None = None
    # Region cells form a contiguous index block, so membership is a
    # bounds check per pixel.
    rows, cols = window
    n_cells = (rows.stop - rows.start) * (cols.stop - cols.start)
    for objects in frames:
        inside = 0
        for obj in objects:
            # A cell centre in the window lies in its object's bbox
            # (centres +- half a cell, from the same lats/lons), so an
            # object whose bbox misses the region has no hits.
            if not obj.bbox.intersects(region):
                continue
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
    return best_fraction, min_bt


def build_indicators(
    epoch: datetime,
    regions: Sequence[RegionBox],
    bt: GridStack | None,
    detections: Sequence[Sequence[CSObject]],
    tracks: Sequence[Track],
    wind_cat_stacks: Sequence[GridStack],
    rain_stats: Mapping[str, RainStats | None],
    window_s: int = DEFAULT_WINDOW_S,
    fit_window: int = DEFAULT_FIT_WINDOW,
) -> list[RegionIndicators]:
    """Condense all sensors into each region's indicators at ``epoch``.

    ``bt`` is the BT stack, or None when BT was not observed, and
    ``detections`` the objects detected in each of its frames. ``bt`` and
    ``tracks`` may extend past ``epoch``; only frames and observations in
    the trailing window count. ``rain_stats`` maps a region name to its
    trailing-window summary; a missing or None entry means rain was not
    observed there.
    """
    window_start = epoch - timedelta(seconds=window_s)
    frames = [objects for frame, objects in zip(bt or (), detections)
              if window_start < frame.time <= epoch]
    observed = [t.up_to(epoch) for t in tracks]
    live = [t for t in observed if len(t.observations) >= 2 and window_start < t.last.time]
    paths = [forecast(t, fit_window) for t in live]
    # A live track's footprint wind, looked up when its path first hits a region.
    footprint_wind: list[RegionCategory | None] = [None] * len(live)

    out = []
    for region in regions:
        window = region_indices(bt.geometry, region) if frames else None
        fraction, min_bt = (0.0, None) if window is None else _cloud_stats(frames, window, region)

        approach: int | None = None
        samples = [region_max_category(wind_cat_stacks, region, window_start, epoch)]
        for i, path in enumerate(paths):
            h = time_to_region(path, region)
            if h is not None:
                approach = h if approach is None else min(approach, h)
                if footprint_wind[i] is None:
                    footprint_wind[i] = region_max_category(
                        wind_cat_stacks, live[i].last.bbox, window_start, epoch
                    )
                samples.append(footprint_wind[i])

        stats = rain_stats.get(region.name)
        source_count = {
            "bt": 0 if window is None else 1,
            "wind": samples[0].sources,
            "rain": 1 if stats is not None and stats.missing_fraction < 1.0 else 0,
        }
        out.append(RegionIndicators(
            region=region.name,
            epoch=epoch,
            deep_cloud_fraction=fraction,
            min_bt_K=min_bt,
            wind_cat=max(s.category for s in samples),
            wind_no_observation=all(s.sources == 0 for s in samples),
            max_rain_mmh=stats.max_rate_mmh if stats else 0.0,
            rain_persistence_h=stats.persistence_h if stats else 0.0,
            approach_s=approach,
            source_count=source_count,
            rain_stats=stats,
        ))
    return out


class FusionEngine:
    """Builds tracks from the detections of every BT frame and categorizes
    every wind frame, then answers per-epoch warning queries in any order.

    A frame's detections (for ``t_deep`` and ``min_area_px``) and wind
    categories (for ``bins``) are computed by the first engine that needs
    them and shared, as tuples and read-only grids, with every later
    engine given the same frame objects and parameters. Building an engine
    per trailing window therefore costs tracking, not detection, for the
    frames earlier engines already saw."""

    def __init__(
        self,
        regions: Sequence[RegionBox],
        bt: GridStack | None = None,
        rain: GridStack | None = None,
        wind_speed: Mapping[str, GridStack] | None = None,
        *,
        t_deep: float = DEFAULT_T_DEEP_K,
        min_area_px: int = DEFAULT_MIN_AREA_PX,
        bins: tuple[float, float, float] = DEFAULT_BINS,
        rules: RuleSet | None = None,
        window_s: int = DEFAULT_WINDOW_S,
        max_gap_km: float = DEFAULT_MAX_GAP_KM,
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
        self.bt = bt
        self.rain = rain

        # The objects detected in each BT frame, in frame order: a tuple per
        # frame, shared with every engine given the frame and parameters.
        detect_key = ("detect", t_deep, min_area_px)
        self.detections = [
            _per_frame(frame, detect_key,
                       lambda: tuple(detect(frame, t_deep=t_deep, min_area_px=min_area_px)))
            for frame in bt or ()
        ]
        self.tracks = build_tracks(self.detections, max_gap_km)

        categorize_key = ("categorize", tuple(bins))
        self.wind_cat_stacks: list[GridStack] = []
        for _, stack in sorted((wind_speed or {}).items()):
            self.wind_cat_stacks.append(GridStack([
                _per_frame(f, categorize_key, lambda: categorize_grid(f, bins)) for f in stack
            ]))

    def rain_stats_at(self, epoch: datetime, region: RegionBox) -> RainStats | None:
        """Trailing-window rain summary of ``region``, or None when rain was
        not observed there: no stack, a one-frame stack (it has no cadence
        to turn rates into depths), no frame in the window, or a region
        off the rain grid."""
        if self.rain is None or len(self.rain) < 2:
            return None
        start = epoch - timedelta(seconds=self.window_s)
        try:
            return region_rain_stats(self.rain, region, start, epoch, self.rules.r_heavy_mmh)
        except EmptyWindowError:
            return None

    def run_epoch(self, epoch: datetime) -> list[WarningReport]:
        """One WarningReport per region, ordered by region name."""
        rain_stats = {r.name: self.rain_stats_at(epoch, r) for r in self.regions}
        indicators = build_indicators(
            epoch,
            self.regions,
            self.bt,
            self.detections,
            self.tracks,
            self.wind_cat_stacks,
            rain_stats,
            window_s=self.window_s,
            fit_window=self.fit_window,
        )
        return [decide(ind, self.rules) for ind in indicators]

    def run(self, start: datetime, end: datetime, epoch_s: int = DEFAULT_EPOCH_S) -> list[WarningReport]:
        """Reports for every epoch start, start+epoch_s, ... up to end."""
        reports: list[WarningReport] = []
        epoch = start
        while epoch <= end:
            reports.extend(self.run_epoch(epoch))
            epoch += timedelta(seconds=epoch_s)
        return reports

