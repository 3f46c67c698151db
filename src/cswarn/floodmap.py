"""Radar change-detection flood mapping and warning verification.

Flooding smooths a wind-roughened land/sea surface, so flooded cells
darken in C-band backscatter: the decibel ratio of a post-event image
over a pre-event reference drops. Cells at or below the ratio threshold
(default -3 dB) are flagged, tiny 8-connected specks are removed, and the
result is a boolean flood mask. Brightening changes are deliberately
ignored.

Verification compares the mask against previously issued warnings per
region: a region counts as flooded when at least ``f_flood`` of its cells
are flagged, and as warned when any report at or before the flood time
reached WARNING. Hits, misses, and false alarms summarize into the usual
POD and FAR scores.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from typing import Mapping, Sequence

import numpy as np

from .convection import label_array
from .fusion import WarnLevel, WarningReport
from .geogrid import DEFAULT_NODATA, DEFAULT_UNITS, GeoGrid, RegionBox, Variable, region_windows

THRESHOLD_DB_DEFAULT = -3.0
MIN_REGION_PX_DEFAULT = 8
F_FLOOD_DEFAULT = 0.01


class NoWarningsError(ValueError):
    """Validation attempted with no warning issued before the flood time."""


@dataclass(frozen=True)
class FloodMask:
    """Boolean flood grid, stamped with the flood and reference times."""

    grid: GeoGrid
    flood_time: datetime
    reference_time: datetime | None = None

    def __post_init__(self) -> None:
        if self.grid.variable is not Variable.FLOOD_MASK:
            raise ValueError(f"flood mask must be FLOOD_MASK, got {self.grid.variable.value}")
        if self.reference_time is not None and not self.flood_time > self.reference_time:
            raise ValueError("flood time must be after the reference time")


def log_ratio_db(flood: GeoGrid, ref: GeoGrid) -> GeoGrid:
    """Cellwise 10*log10(flood/ref) in dB; a cell that is nodata in either
    grid is ``DEFAULT_NODATA``.

    An NRCS grid holds only positive backscatter outside its nodata
    cells, so every cell that is data in both grids has a ratio. Where the
    quotient of two such doubles overflows, underflows or is subnormal, the
    dB value is ``10 * (log10(flood) - log10(ref))`` instead. The ratio lies
    within 10**±632, so its dB value is within ±6,320 and never equals the
    default sentinel, where an NRCS sentinel such as 0.0 would equal the
    0 dB of an unchanged cell.
    """
    for grid, label in ((flood, "flood"), (ref, "reference")):
        if grid.variable is not Variable.NRCS:
            raise TypeError(f"{label} grid must be NRCS, got {grid.variable.value}")
    if flood.geometry != ref.geometry:
        raise ValueError("flood and reference grids have different geometry")
    valid = flood.finite_mask & ref.finite_mask
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        quotient = flood.values / ref.values
        ratio = 10.0 * np.log10(quotient)
        far = valid & ~((quotient >= np.finfo(float).tiny) & (quotient < np.inf))
    if far.any():
        ratio[far] = 10.0 * (np.log10(flood.values[far]) - np.log10(ref.values[far]))
    out = np.where(valid, ratio, DEFAULT_NODATA)
    return GeoGrid(Variable.LOG_RATIO, DEFAULT_UNITS[Variable.LOG_RATIO], flood.time,
                   flood.geometry, out, DEFAULT_NODATA)


def flood_mask(
    ratio_db: GeoGrid,
    threshold_db: float = THRESHOLD_DB_DEFAULT,
    min_region_px: int = MIN_REGION_PX_DEFAULT,
    reference_time: datetime | None = None,
) -> FloodMask:
    """Threshold the ratio grid and drop specks below ``min_region_px``;
    nodata propagates (as ``DEFAULT_NODATA`` when the ratio's sentinel is
    0 or 1)."""
    if min_region_px < 1:
        raise ValueError("min_region_px must be >= 1")
    flooded = ratio_db.finite_mask & (ratio_db.values <= threshold_db)
    labels, count = label_array(flooded)
    if count:
        sizes = np.bincount(labels.ravel(), minlength=count + 1)
        keep = sizes >= min_region_px
        keep[0] = False
        flooded = keep[labels]
    grid = ratio_db._with_values_unchecked(flooded, Variable.FLOOD_MASK)
    return FloodMask(grid=grid, flood_time=ratio_db.time, reference_time=reference_time)


def flooded_regions(
    mask: FloodMask,
    regions: Sequence[RegionBox],
    f_flood: float = F_FLOOD_DEFAULT,
) -> dict[str, bool]:
    """Region name -> whether its flooded-cell fraction reaches ``f_flood``;
    False for a region off the mask's grid."""
    layout = region_windows(mask.grid.geometry, tuple(regions))
    wet = (mask.grid.values.ravel()[layout.cells] == 1.0).astype(np.int64)
    return {r.name: n > 0 and k / n >= f_flood for r, k, n in zip(
        regions, layout.reduce(np.add, wet, 0).tolist(), layout.n_cells.tolist())}


@dataclass(frozen=True)
class ValidationScore:
    """Contingency counts of warnings vs observed flooding."""

    hits: int
    misses: int
    false_alarms: int
    correct_negatives: int
    outcomes: Mapping[str, str]  # region -> hit | miss | false_alarm | quiet
    flooded: Mapping[str, bool]
    warned: Mapping[str, bool]

    @property
    def pod(self) -> float | None:
        events = self.hits + self.misses
        return self.hits / events if events else None

    @property
    def far(self) -> float | None:
        warned = self.hits + self.false_alarms
        return self.false_alarms / warned if warned else None


def validate(
    warnings: Sequence[WarningReport],
    mask: FloodMask,
    regions: Sequence[RegionBox],
    f_flood: float = F_FLOOD_DEFAULT,
) -> ValidationScore:
    """Score warnings issued at or before the flood time against the mask;
    a region counts as warned once any of them reached WARNING."""
    prior = [w for w in warnings if w.epoch <= mask.flood_time]
    if not prior:
        raise NoWarningsError(
            f"no warnings issued at or before the flood time {mask.flood_time}"
        )
    warned = {r.name: False for r in regions}
    for w in prior:
        if w.region in warned and w.level >= WarnLevel.WARNING:
            warned[w.region] = True
    flooded = flooded_regions(mask, regions, f_flood)

    outcomes: dict[str, str] = {}
    hits = misses = false_alarms = quiet = 0
    for region in regions:
        name = region.name
        if flooded[name] and warned[name]:
            outcomes[name] = "hit"
            hits += 1
        elif flooded[name]:
            outcomes[name] = "miss"
            misses += 1
        elif warned[name]:
            outcomes[name] = "false_alarm"
            false_alarms += 1
        else:
            outcomes[name] = "quiet"
            quiet += 1
    return ValidationScore(
        hits=hits,
        misses=misses,
        false_alarms=false_alarms,
        correct_negatives=quiet,
        outcomes=outcomes,
        flooded=flooded,
        warned=warned,
    )
