"""Rainfall accumulation, heavy-rain flagging, and per-region persistence.

Frame timestamps mark the start of the interval each rate applies to, so
an accumulation window [t0, t1) sums rate * dt over frames with
t0 <= t < t1; splitting a window at any frame boundary is then exactly
additive. Missing cells contribute zero water but are surfaced through a
per-cell missing fraction; inventing rainfall by interpolation is worse
than under-counting with a flag.

Decision-time statistics (:func:`region_rain_stats`) use a trailing
window (start, end], the same convention the fusion stage applies to all
sensors at an epoch.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime

import numpy as np

from .geogrid import GeoGrid, GridStack, RegionBox, Variable, _per_frame, region_indices

R_HEAVY_DEFAULT_MMH = 8.0


class EmptyWindowError(ValueError):
    """An accumulation or stats window contains no frames."""


@dataclass(frozen=True)
class Accumulation:
    """Accumulated depth plus per-cell data availability."""

    grid: GeoGrid            # RAIN_ACCUM, mm
    missing_fraction: np.ndarray  # per cell, fraction of window frames missing

    def __post_init__(self) -> None:
        self.missing_fraction.setflags(write=False)


@dataclass(frozen=True)
class RainStats:
    """Per-region rainfall summary over one window."""

    region: str
    window_start: datetime
    window_end: datetime
    max_rate_mmh: float
    accum_mm: float
    persistence_h: float
    missing_fraction: float


def accumulate(stack: GridStack, start: datetime, end: datetime) -> Accumulation:
    """Cellwise sum of rate * dt (mm) over frames with start <= t < end.

    Each frame's rate applies for the stack's nominal cadence
    (:meth:`GridStack.cadence_s`), so a one-frame stack raises ValueError.
    Missing cells count as zero depth.
    """
    if stack.variable is not Variable.RAIN_RATE:
        raise TypeError(f"accumulate needs RAIN_RATE frames, got {stack.variable.value}")
    frames = [f for f in stack if start <= f.time < end]
    if not frames:
        raise EmptyWindowError(f"no rain frames in [{start}, {end})")
    dt_h = stack.cadence_s() / 3600.0
    total = np.zeros(frames[0].values.shape)
    missing = np.zeros(frames[0].values.shape)
    for f in frames:
        finite = f.finite_mask
        total += np.where(finite, f.values, 0.0) * dt_h
        missing += ~finite
    grid = frames[0].with_values(total, variable=Variable.RAIN_ACCUM, time=end)
    return Accumulation(grid, missing / len(frames))


def _window_rain(frame: GeoGrid, window: tuple[slice, slice]) -> tuple[int, int, float, np.ndarray]:
    """One frame's rain over a region window: missing and finite cell
    counts, the max finite rate (0.0 when none), and the rates with
    missing cells as 0.0, read-only."""
    block = frame.values[window]
    finite = block != frame.nodata
    vals = block[finite]
    filled = np.where(finite, block, 0.0)
    filled.setflags(write=False)
    return int((~finite).sum()), int(vals.size), float(vals.max()) if vals.size else 0.0, filled


def region_rain_stats(
    stack: GridStack,
    region: RegionBox,
    start: datetime,
    end: datetime,
    r_heavy: float = R_HEAVY_DEFAULT_MMH,
) -> RainStats:
    """Rainfall summary over region cells and frames with start < t <= end.

    - max_rate_mmh: max finite rate over all (cell, frame) samples.
    - accum_mm: accumulated depth of the wettest cell in the region.
    - persistence_h: longest run of consecutive frames whose region-max
      rate reaches ``r_heavy``, converted to hours.
    - missing_fraction: missing share of all (cell, frame) samples.

    Each frame's rate applies for the stack's nominal cadence
    (:meth:`GridStack.cadence_s`). Frames whose region cells are all
    missing interrupt a heavy run, and so does a spacing above that
    interval (a dropped frame): rain that was not observed never counts
    as heavy. Raises EmptyWindowError when the window holds no samples:
    no frames, or a region outside the rain grid. A one-frame stack has
    no cadence and raises ValueError.

    A frame's reduction over the region's cells (missing and finite
    counts, max rate, rates with missing cells as zero) is computed once
    per frame and cell window, and every later call on that frame reuses
    it. ``r_heavy`` and the cadence are applied per call, in the order a
    fresh reduction would apply them, so the results are bit-identical.
    """
    if stack.variable is not Variable.RAIN_RATE:
        raise TypeError(f"region_rain_stats needs RAIN_RATE frames, got {stack.variable.value}")
    window = region_indices(stack.geometry, region)
    if window is None:
        raise EmptyWindowError(f"region {region.name!r} is outside the rain grid extent")
    frames = stack.between(start, end)
    if not frames:
        raise EmptyWindowError(f"no rain frames in ({start}, {end}]")
    frame_s = stack.cadence_s()
    dt_h = frame_s / 3600.0

    rows, cols = window
    key = ("rain window", rows.start, rows.stop, cols.start, cols.stop)
    max_rate = 0.0
    missing = 0
    longest = run = 0
    accum = np.zeros(frames[0].values[window].shape)
    for prev, f in zip([None, *frames], frames):
        n_missing, n_finite, frame_max, filled = _per_frame(f, key, lambda: _window_rain(f, window))
        missing += n_missing
        max_rate = max(max_rate, frame_max)
        accum += filled * dt_h
        if prev is not None and (f.time - prev.time).total_seconds() > frame_s:
            run = 0  # a dropped frame was not observed
        run = run + 1 if n_finite > 0 and frame_max >= r_heavy else 0
        longest = max(longest, run)
    # A window whose edges fall inside frame intervals can admit more frame
    # coverage than its own span; persistence never exceeds the window.
    window_h = (end - start).total_seconds() / 3600.0
    persistence_h = min(longest * dt_h, window_h)

    return RainStats(
        region=region.name,
        window_start=start,
        window_end=end,
        max_rate_mmh=max_rate,
        accum_mm=float(accum.max()),
        persistence_h=persistence_h,
        missing_fraction=missing / (len(frames) * accum.size),
    )
