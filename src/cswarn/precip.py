"""Rainfall accumulation, heavy-rain flagging, and per-region persistence.

Frame timestamps mark the start of the interval each rate applies to, so
an accumulation window [t0, t1) sums rate * dt over frames with
t0 <= t < t1; splitting a window at any frame boundary is then exactly
additive. Missing cells contribute zero water but are surfaced through a
per-cell missing fraction; inventing rainfall by interpolation is worse
than under-counting with a flag.

Decision-time statistics (:func:`region_rain_stats`, for many regions at
once) use a trailing window (start, end], the same convention the fusion
stage applies to all sensors at an epoch.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from typing import Sequence

import numpy as np

from .geogrid import (GeoGrid, GridStack, RegionBox, Variable, WindowLayout, _per_frame,
                      region_windows)

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


def _rain_table(frame: GeoGrid, layout: WindowLayout) -> tuple[np.ndarray, ...]:
    """One frame's rain over each window of ``layout``: the missing cell
    count, the max finite rate (NaN when none), and the window cells' rates
    with missing cells as 0.0, all read-only."""
    block = frame.values.ravel()[layout.cells]
    finite = block != frame.nodata
    # + 0.0 turns -0.0 into 0.0: numpy's fmax breaks a tie of 0.0 and -0.0
    # one way on its scalar path and the other on its vector path, and a
    # loop's running max(0.0, -0.0) keeps 0.0.
    top = layout.reduce(np.fmax, np.where(finite, block, np.nan) + 0.0, np.nan)
    filled = np.where(finite, block, 0.0)
    filled.setflags(write=False)
    return layout.reduce(np.add, (~finite).astype(np.int64), 0), top, filled


def region_rain_stats(
    stack: GridStack,
    regions: Sequence[RegionBox],
    start: datetime,
    end: datetime,
    r_heavy: float = R_HEAVY_DEFAULT_MMH,
) -> list[RainStats | None]:
    """Rainfall summary of each of ``regions`` over its cells and the
    frames with start < t <= end, in region order; None for a region with
    no samples: one off the rain grid, or no frame in the window.

    - max_rate_mmh: max finite rate over all (cell, frame) samples.
    - accum_mm: accumulated depth of the wettest cell in the region.
    - persistence_h: longest run of consecutive frames whose region-max
      rate reaches ``r_heavy``, converted to hours.
    - missing_fraction: missing share of all (cell, frame) samples.

    Each frame's rate applies for the stack's nominal cadence
    (:meth:`GridStack.cadence_s`), which a one-frame stack lacks
    (ValueError). Frames whose region cells are all missing interrupt a
    heavy run, and so does a spacing above that interval (a dropped
    frame): rain that was not observed never counts as heavy. Each
    frame's table over all the windows is computed once per frame and
    layout (``geogrid._per_frame``); ``r_heavy`` and the cadence are
    applied per call, cell by cell in frame order, one frame at a time,
    so a call's memory does not grow with its window.
    """
    if stack.variable is not Variable.RAIN_RATE:
        raise TypeError(f"region_rain_stats needs RAIN_RATE frames, got {stack.variable.value}")
    frames = stack.between(start, end)
    if not frames:
        return [None] * len(regions)
    frame_s = stack.cadence_s()
    dt_h = frame_s / 3600.0

    layout = region_windows(stack.geometry, tuple(regions))
    key = ("rain table", layout.key)
    n_missing, top, filled = zip(
        *[_per_frame(f, key, lambda: _rain_table(f, layout)) for f in frames])
    accum = np.zeros(layout.cells.size)
    depth = np.empty_like(accum)
    for rates in filled:
        accum += np.multiply(rates, dt_h, out=depth)
    top = np.array(top)
    # A window with no finite cell (NaN max) is not observed, so not heavy.
    longest = run = [0] * len(regions)
    for prev, f, heavy in zip([None, *frames], frames, (top >= r_heavy).tolist()):
        if prev is not None and (f.time - prev.time).total_seconds() > frame_s:
            run = [0] * len(regions)  # a dropped frame was not observed
        run = [(n + 1) * h for n, h in zip(run, heavy)]
        longest = list(map(max, longest, run))
    # A window whose edges fall inside frame intervals can admit more frame
    # coverage than its own span; persistence never exceeds the window.
    window_h = (end - start).total_seconds() / 3600.0
    per_region = zip(regions, np.fmax.reduce(top, axis=0, initial=0.0).tolist(),
                     layout.reduce(np.maximum, accum, 0.0).tolist(), longest,
                     np.sum(n_missing, axis=0).tolist(), layout.n_cells.tolist())
    return [RainStats(region.name, start, end, rate, wettest, min(frames_run * dt_h, window_h),
                      missing / (len(frames) * cells)) if cells else None
            for region, rate, wettest, frames_run, missing, cells in per_region]
