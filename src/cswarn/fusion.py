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

An epoch is evaluated for all regions at once. What depends only on one
frame and fixed parameters is computed once per frame and shared by every
engine, epoch and caller given that frame (``geogrid._per_frame``): a BT
frame's detections (kept by :func:`convection.detect`, so frames a caller
detected first are not labeled again here), a wind speed frame's category
ranks (one byte a cell, for the engine's bins), and each frame's table
over the regions' cell windows, laid out once per grid geometry
(``geogrid.region_windows``). A BT table holds each window's object cover
and coldest touching object, a rain table its missing count, max rate and
cell rates, and a wind table its max rank.
An epoch bisects the frame times and reduces its frames' tables for all
regions at once, in one ``precip.region_rain_stats`` and one
``wind.region_max_category`` call. Each live track's forecast path is
tested against every region in one ``tracking.time_to_region`` call, and
the footprint wind of the tracks that reach some region is one more wind
call, over their last bboxes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime, timedelta
from enum import IntEnum
from typing import Mapping, Sequence

import numpy as np

from .convection import DEFAULT_MIN_AREA_PX, DEFAULT_T_DEEP_K, _frame_objects, _observed
from .geogrid import (GeoGrid, GridStack, RegionBox, Variable, WindowLayout, _per_frame,
                      region_windows)
from .precip import R_HEAVY_DEFAULT_MMH, RainStats, region_rain_stats
from .tracking import (
    DEFAULT_FIT_WINDOW,
    DEFAULT_MAX_GAP_KM,
    Track,
    build_tracks,
    forecast,
    time_to_region,
)
from .wind import DEFAULT_BINS, WindCategory, _check_bins, region_max_category

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


def _cloud_table(frame: GeoGrid, layout: WindowLayout, t_deep: float,
                 min_area_px: int) -> tuple[np.ndarray, np.ndarray]:
    """A BT frame's retained-object cover of each window of ``layout``, and
    the min BT of the objects touching it (+inf when none), read-only."""
    # Each pixel's owning object's min_bt (always set by detect), +inf off-object.
    owner_bt = np.full(frame.values.size, np.inf)
    for obj in _frame_objects(frame, t_deep, min_area_px):
        owner_bt[obj.rows * frame.geometry.ncols + obj.cols] = obj.min_bt
    cold = owner_bt[layout.cells]
    cover = np.divide(layout.reduce(np.add, (cold < np.inf).astype(np.int64), 0), layout.n_cells,
                      out=np.zeros(layout.n_cells.size), where=layout.n_cells > 0)
    cover.setflags(write=False)
    return cover, layout.reduce(np.minimum, cold, np.inf)


def build_indicators(
    epoch: datetime,
    regions: Sequence[RegionBox],
    bt: GridStack | None,
    tracks: Sequence[Track],
    wind_stacks: Sequence[GridStack],
    rain_stats: Mapping[str, RainStats | None],
    window_s: int = DEFAULT_WINDOW_S,
    fit_window: int = DEFAULT_FIT_WINDOW,
    t_deep: float = DEFAULT_T_DEEP_K,
    min_area_px: int = DEFAULT_MIN_AREA_PX,
    bins: Sequence[float] = DEFAULT_BINS,
) -> list[RegionIndicators]:
    """Condense all sensors into each region's indicators at ``epoch``.

    ``bt`` is the BT stack, or None when BT was not observed; its objects
    are those :func:`detect` finds with ``t_deep`` and ``min_area_px``.
    ``wind_stacks`` are the wind speed stacks, graded with ``bins``.
    ``bt`` and ``tracks`` may extend past ``epoch``; only frames and
    observations in the trailing window count. ``rain_stats`` maps a
    region name to its trailing-window summary; a missing or None entry
    means rain was not observed there.
    """
    regions = tuple(regions)
    window_start = epoch - timedelta(seconds=window_s)
    fraction, min_bt = np.zeros(len(regions)), np.full(len(regions), np.inf)
    bt_seen = np.zeros(len(regions), dtype=bool)
    frames = bt.between(window_start, epoch) if bt is not None else []
    if frames:
        layout = region_windows(bt.geometry, regions)
        key = ("cloud table", t_deep, min_area_px, layout.key)
        for f in frames:
            cover, cold = _per_frame(f, key, lambda: _cloud_table(f, layout, t_deep, min_area_px))
            fraction, min_bt = np.maximum(fraction, cover), np.minimum(min_bt, cold)
        if _observed(frames, [_frame_objects(f, t_deep, min_area_px) for f in frames]):
            bt_seen = layout.n_cells > 0
    ranks, sources = region_max_category(wind_stacks, regions, window_start, epoch, bins)

    observed = [t.up_to(epoch) for t in tracks]
    live = [t for t in observed if len(t.observations) >= 2 and window_start < t.last.time]
    arrivals = [time_to_region(forecast(t, fit_window), regions) for t in live]
    # Each track reaching some region: its arrivals and its last bbox's wind.
    reach = [(t, hits) for t, hits in zip(live, arrivals) if any(h is not None for h in hits)]
    footprints = []
    if reach:
        foot = region_max_category(wind_stacks, [t.last.bbox for t, _ in reach],
                                   window_start, epoch, bins)
        footprints = list(zip([hits for _, hits in reach], *(a.tolist() for a in foot)))

    out = []
    for j, (region, cover, cold, seen, rank, n_wind) in enumerate(zip(
            regions, fraction.tolist(), min_bt.tolist(), bt_seen.tolist(), ranks.tolist(),
            sources.tolist())):
        reaching = [(hits[j], r, n) for hits, r, n in footprints if hits[j] is not None]
        stats = rain_stats.get(region.name)
        out.append(RegionIndicators(
            region=region.name,
            epoch=epoch,
            deep_cloud_fraction=cover,
            min_bt_K=cold if cold < math.inf else None,
            wind_cat=WindCategory(max([rank, *(r for _, r, _ in reaching)])),
            wind_no_observation=n_wind == 0 and all(n == 0 for _, _, n in reaching),
            max_rain_mmh=stats.max_rate_mmh if stats else 0.0,
            rain_persistence_h=stats.persistence_h if stats else 0.0,
            approach_s=min((h for h, _, _ in reaching), default=None),
            source_count={"bt": int(seen), "wind": n_wind,
                          "rain": int(stats is not None and stats.missing_fraction < 1.0)},
            rain_stats=stats,
        ))
    return out


class FusionEngine:
    """Builds tracks from the detections of every BT frame, keeps the wind
    speed stacks sorted by source, then answers per-epoch warning queries
    in any order.

    A frame's detections (for ``t_deep`` and ``min_area_px``), a wind
    frame's category ranks (for ``bins``, one ``int8`` a cell) and tables
    over the regions' windows are computed by the first caller that needs
    them and shared, as frozen objects, tuples and read-only arrays, with
    every later engine given the same frame objects, parameters and
    regions. Building an engine on frames already passed to
    :func:`convection.detect`, or per trailing window, therefore costs
    tracking, not detection, for the frames seen before. ``window_s`` must
    be > 0 and ``fit_window`` >= 2, as for the CLI, and ``bins`` must
    increase when wind is given."""

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
        if window_s <= 0:
            raise ValueError(f"window_s must be > 0, got {window_s}")
        if fit_window < 2:
            raise ValueError(f"fit_window must be >= 2, got {fit_window}")
        self.regions = sorted(regions, key=lambda r: r.name)
        self.rules = rules or RuleSet()
        self.window_s = window_s
        self.fit_window = fit_window
        self.t_deep = t_deep
        self.min_area_px = min_area_px
        self.bt = bt
        # A one-frame rain stack has no cadence to turn rates into depths,
        # so its rain is not observed.
        self.rain = rain if rain is not None and len(rain) >= 2 else None

        self.detections = [_frame_objects(frame, t_deep, min_area_px) for frame in bt or ()]
        self.tracks = build_tracks(_observed(bt or (), self.detections), max_gap_km)

        self.wind = [stack for _, stack in sorted((wind_speed or {}).items())]
        for stack in self.wind:
            if stack.variable is not Variable.WIND_SPEED:
                raise TypeError(f"wind_speed needs WIND_SPEED stacks, got {stack.variable.value}")
        self.bins = _check_bins(bins) if self.wind else tuple(bins)

    def rain_stats_at(self, epoch: datetime, region: RegionBox) -> RainStats | None:
        """Trailing-window rain summary of ``region``, or None when rain was
        not observed there: no usable stack, no frame in the window, or a
        region off the rain grid."""
        if self.rain is None:
            return None
        start = epoch - timedelta(seconds=self.window_s)
        return region_rain_stats(self.rain, [region], start, epoch, self.rules.r_heavy_mmh)[0]

    def run_epoch(self, epoch: datetime) -> list[WarningReport]:
        """One WarningReport per region, ordered by region name."""
        start = epoch - timedelta(seconds=self.window_s)
        rain = ([None] * len(self.regions) if self.rain is None else
                region_rain_stats(self.rain, self.regions, start, epoch, self.rules.r_heavy_mmh))
        indicators = build_indicators(
            epoch, self.regions, self.bt, self.tracks, self.wind,
            {r.name: s for r, s in zip(self.regions, rain)}, self.window_s, self.fit_window,
            self.t_deep, self.min_area_px, self.bins)
        return [decide(ind, self.rules) for ind in indicators]

    def run(self, start: datetime, end: datetime, epoch_s: int = DEFAULT_EPOCH_S) -> list[WarningReport]:
        """Reports for every epoch start, start+epoch_s, ... up to end."""
        if epoch_s <= 0:
            raise ValueError(f"epoch_s must be > 0, got {epoch_s}")
        reports: list[WarningReport] = []
        epoch = start
        while epoch <= end:
            reports.extend(self.run_epoch(epoch))
            epoch += timedelta(seconds=epoch_s)
        return reports
