"""Wind retrieval from radar backscatter and wind-severity categorization.

A geophysical model function (GMF) maps wind speed and viewing geometry to
expected NRCS; inverting it by bisection retrieves speed from measured
backscatter. The GMF contract required here: deterministic, sigma0 strictly
increasing in speed on [0, 25] m/s at every valid geometry, and positive
for any positive speed. The shipped models are looked up by name, so the
engine can select one from config.

Two models ship:

- ``synth1``: sigma0 = 0.001 * (1 + v)^1.5, geometry independent. A
  synthetic anchor for tests with closed-form values.
- ``cmod5n``: the C-band CMOD5.N model (equivalent-neutral wind), using
  the 28 published coefficients. Its sigma0 is exactly 0 at v = 0, the
  one tolerated edge of the positivity rule.

Severity bins follow the operational categories none / weak / moderate /
severe with boundaries at 5, 10, and 15 m/s, half-open so every speed
maps to exactly one category (15 m/s is severe). A region's severity over
a window is its max over every source, cell and frame, found for many
regions at once from the wind speed stacks (:func:`region_max_category`).
Each speed frame is categorized once per set of bins, the first time a
table needs it, and only its ranks are kept: one read-only ``int8`` array
per frame, -1 where the frame holds nodata (``geogrid._per_frame``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime
from enum import IntEnum
from typing import Callable, Iterable, Sequence

import numpy as np

from .geogrid import (GeoGrid, GridStack, RegionBox, Variable, WindowLayout, _per_frame,
                      region_windows)

V_MAX_DEFAULT = 25.0
V_FORWARD_LIMIT = 60.0
INVERT_TOL_MPS = 1e-4
DEFAULT_BINS = (5.0, 10.0, 15.0)


class WindCategory(IntEnum):
    NONE = 0
    WEAK = 1
    MODERATE = 2
    SEVERE = 3


@dataclass(frozen=True)
class GmfGeometry:
    """Radar viewing geometry: incidence and wind-minus-look azimuth."""

    incidence_deg: float = 35.0
    rel_azimuth_deg: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.incidence_deg < 90.0:
            raise ValueError(f"incidence_deg must be in (0, 90), got {self.incidence_deg}")
        if not 0.0 <= self.rel_azimuth_deg < 360.0:
            raise ValueError(f"rel_azimuth_deg must be in [0, 360), got {self.rel_azimuth_deg}")


@dataclass(frozen=True)
class Gmf:
    """Named forward model sigma0(v, incidence, azimuth), array-capable."""

    name: str
    fn: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    incidence_min: float = 0.0
    incidence_max: float = 90.0

    def sigma0(self, v, incidence_deg, rel_azimuth_deg) -> np.ndarray:
        return self.fn(np.asarray(v, dtype=np.float64),
                       np.asarray(incidence_deg, dtype=np.float64),
                       np.asarray(rel_azimuth_deg, dtype=np.float64))


def _synth1(v: np.ndarray, incidence_deg: np.ndarray, rel_azimuth_deg: np.ndarray) -> np.ndarray:
    return 0.001 * (1.0 + v) ** 1.5


# CMOD5.N coefficients c1..c28 (C-band VV, equivalent-neutral wind).
_C5N = np.array([
    0.0,  # pad so coefficients are 1-indexed like the published table
    -0.6878, -0.7957, 0.3380, -0.1728, 0.0000, 0.0040, 0.1103, 0.0159,
    6.7329, 2.7713, -2.2885, 0.4971, -0.7250, 0.0450, 0.0066, 0.3222,
    0.0120, 22.7000, 2.0813, 3.0000, 8.3659, -3.3428, 1.3236, 6.2437,
    2.3893, 0.3249, 4.1590, 1.6930,
])
_C5N_THETM = 40.0
_C5N_THETHR = 25.0
_C5N_ZPOW = 1.6


def _cmod5n(v: np.ndarray, incidence_deg: np.ndarray, rel_azimuth_deg: np.ndarray) -> np.ndarray:
    c = _C5N
    v, theta, phi = np.broadcast_arrays(v, incidence_deg, rel_azimuth_deg)
    v = v.astype(np.float64)

    y0, pn = c[19], c[20]
    a = y0 - (y0 - 1.0) / pn
    b = 1.0 / (pn * (y0 - 1.0) ** (pn - 1.0))

    cs_fi = np.cos(np.radians(phi))
    cs_2fi = 2.0 * cs_fi * cs_fi - 1.0
    x = (theta - _C5N_THETM) / _C5N_THETHR
    xx = x * x

    a0 = c[1] + c[2] * x + c[3] * xx + c[4] * x * xx
    a1 = c[5] + c[6] * x
    a2 = c[7] + c[8] * x
    gam = c[9] + c[10] * x + c[11] * xx
    s0 = c[12] + c[13] * x

    s = a2 * v
    a3 = 1.0 / (1.0 + np.exp(-np.maximum(s, s0)))
    below = s < s0
    with np.errstate(invalid="ignore"):
        damp = np.where(below & (s0 > 0), (np.where(below, s, s0) / s0) ** (s0 * (1.0 - a3)), 1.0)
    a3 = np.where(below, a3 * damp, a3)
    b0 = (a3 ** gam) * 10.0 ** (a0 + a1 * v)

    b1 = c[15] * v * (0.5 + x - np.tanh(4.0 * (x + c[16] + c[17] * v)))
    b1 = (c[14] * (1.0 + x) - b1) / (np.exp(0.34 * (v - c[18])) + 1.0)

    v0 = c[21] + c[22] * x + c[23] * xx
    d1 = c[24] + c[25] * x + c[26] * xx
    d2 = c[27] + c[28] * x
    y = v / v0 + 1.0
    y = np.where(y < y0, a + b * (y - 1.0) ** pn, y)
    b2 = (-d1 + d2 * y) * np.exp(-y)

    return b0 * (1.0 + b1 * cs_fi + b2 * cs_2fi) ** _C5N_ZPOW


SYNTH1 = Gmf("synth1", _synth1)
CMOD5N = Gmf("cmod5n", _cmod5n, incidence_min=18.0, incidence_max=58.0)

_REGISTRY: dict[str, Gmf] = {gmf.name: gmf for gmf in (SYNTH1, CMOD5N)}


def get_gmf(name: str) -> Gmf:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown GMF {name!r}; registered: {sorted(_REGISTRY)}") from None


def registered_gmfs() -> list[str]:
    return sorted(_REGISTRY)


def _check_geometry(gmf: Gmf, geom: GmfGeometry) -> None:
    if not gmf.incidence_min <= geom.incidence_deg <= gmf.incidence_max:
        raise ValueError(
            f"{gmf.name}: incidence {geom.incidence_deg} outside "
            f"[{gmf.incidence_min}, {gmf.incidence_max}] deg"
        )


def gmf_forward(gmf: Gmf, v: float, geom: GmfGeometry) -> float:
    """Model sigma0 (linear) for wind speed ``v`` at ``geom``."""
    if not 0.0 <= v <= V_FORWARD_LIMIT:
        raise ValueError(f"wind speed {v} outside [0, {V_FORWARD_LIMIT}] m/s")
    _check_geometry(gmf, geom)
    return float(gmf.sigma0(v, geom.incidence_deg, geom.rel_azimuth_deg))


@dataclass(frozen=True)
class InversionResult:
    """Retrieved speed plus which end of [0, v_max] clipped, if any."""

    speed_mps: float
    clipped: str | None = None  # "low" | "high" | None


def _invert_core(
    gmf: Gmf,
    sigma0: np.ndarray,
    incidence_deg: np.ndarray,
    rel_azimuth_deg: np.ndarray,
    v_max: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized bisection; returns (speed, clipped_low, clipped_high)."""
    shape = sigma0.shape
    zeros = np.zeros(shape)
    s_lo = gmf.sigma0(zeros, incidence_deg, rel_azimuth_deg)
    s_hi = gmf.sigma0(np.full(shape, v_max), incidence_deg, rel_azimuth_deg)
    low = sigma0 < s_lo
    high = sigma0 > s_hi
    lo = np.zeros(shape)
    hi = np.full(shape, v_max)
    n_iter = math.ceil(math.log2(v_max / INVERT_TOL_MPS))
    for _ in range(n_iter):
        mid = 0.5 * (lo + hi)
        rising = gmf.sigma0(mid, incidence_deg, rel_azimuth_deg) < sigma0
        lo = np.where(rising, mid, lo)
        hi = np.where(rising, hi, mid)
    v = 0.5 * (lo + hi)
    v = np.where(low, 0.0, np.where(high, v_max, v))
    return v, low, high


def gmf_invert(
    gmf: Gmf,
    sigma0: float,
    geom: GmfGeometry,
    v_max: float = V_MAX_DEFAULT,
) -> InversionResult:
    """Bisection inversion of the GMF to |dv| <= ``INVERT_TOL_MPS``.

    sigma0 below the model range returns 0 flagged "low"; above returns
    ``v_max`` flagged "high" (the one-day-scale storms of interest cap at
    25 m/s by default).
    """
    _check_geometry(gmf, geom)
    v, low, high = _invert_core(
        gmf,
        np.asarray(float(sigma0)),
        np.asarray(geom.incidence_deg),
        np.asarray(geom.rel_azimuth_deg),
        v_max,
    )
    clipped = "low" if bool(low) else "high" if bool(high) else None
    return InversionResult(float(v), clipped)


def retrieve_wind_grid(
    nrcs: GeoGrid,
    geom: GmfGeometry,
    gmf: Gmf,
    v_max: float = V_MAX_DEFAULT,
) -> GeoGrid:
    """Cellwise GMF inversion of an NRCS grid seen at one viewing
    geometry; nodata propagates."""
    if nrcs.variable is not Variable.NRCS:
        raise TypeError(f"retrieve_wind_grid needs an NRCS grid, got {nrcs.variable.value}")
    _check_geometry(gmf, geom)
    finite = nrcs.finite_mask
    # nodata cells hold the sentinel; feed a harmless stand-in and mask after.
    sigma0 = np.where(finite, nrcs.values, 1.0)
    # The bisection is elementwise and every cell shares one geometry, so
    # each distinct value is inverted once and its speed scattered back.
    distinct, inverse = np.unique(sigma0, return_inverse=True)
    v, _, _ = _invert_core(gmf, distinct, np.full(distinct.shape, geom.incidence_deg),
                           np.full(distinct.shape, geom.rel_azimuth_deg), v_max)
    out = np.where(finite, v[inverse.reshape(sigma0.shape)], nrcs.nodata)
    return nrcs.with_values(out, variable=Variable.WIND_SPEED)


def _check_bins(bins: Sequence[float]) -> tuple[float, float, float]:
    """``bins`` as a tuple of three increasing edges."""
    b1, b2, b3 = bins
    if not b1 < b2 < b3:
        raise ValueError(f"category bins must increase, got {bins}")
    return b1, b2, b3


def categorize(v: float, bins: Sequence[float] = DEFAULT_BINS) -> WindCategory:
    """Severity of one speed; bins are half-open, top bin closed below."""
    if v < 0:
        raise ValueError(f"wind speed must be >= 0, got {v}")
    b1, b2, b3 = _check_bins(bins)
    if v < b1:
        return WindCategory.NONE
    if v < b2:
        return WindCategory.WEAK
    if v < b3:
        return WindCategory.MODERATE
    return WindCategory.SEVERE


def categorize_grid(wind: GeoGrid, bins: Sequence[float] = DEFAULT_BINS) -> GeoGrid:
    """Per-cell category ranks (0..3) as a grid; nodata propagates (as
    ``DEFAULT_NODATA`` when the speed sentinel is a rank)."""
    if wind.variable is not Variable.WIND_SPEED:
        raise TypeError(f"categorize_grid needs a WIND_SPEED grid, got {wind.variable.value}")
    # A cell's rank is the number of edges at or below it: three
    # comparisons cost far less than np.digitize's search.
    ranks = np.add.reduce([wind.values >= b for b in _check_bins(bins)], dtype=np.int8)
    return wind._with_values_unchecked(ranks, Variable.WIND_CAT)


def region_max_category(
    sources: Iterable[GridStack],
    regions: Sequence[RegionBox],
    window_start: datetime,
    window_end: datetime,
    bins: Sequence[float],
) -> tuple[np.ndarray, np.ndarray]:
    """Max category rank for ``bins`` over all wind speed ``sources``,
    region cells and frames with ``window_start < t <= window_end``, and
    the number of sources with a finite cell there, as arrays in region
    order: a region nobody observed gets rank 0 (NONE) from 0 sources.
    Each frame's max rank per window is computed once per frame, bins and
    layout (``geogrid._per_frame``)."""
    bins = tuple(bins)
    best = observed = np.zeros(len(regions), dtype=np.int64)
    for stack in sources:
        if stack.variable is not Variable.WIND_SPEED:
            raise TypeError(f"expected WIND_SPEED stacks, got {stack.variable.value}")
        layout = region_windows(stack.geometry, tuple(regions))
        seen = np.full(best.size, -1, dtype=np.int8)
        key = ("rank table", bins, layout.key)
        for f in stack.between(window_start, window_end):
            seen = np.maximum(seen, _per_frame(f, key, lambda: _rank_table(f, bins, layout)))
        best, observed = np.maximum(best, seen), observed + (seen >= 0)
    return best, observed


def _ranks(frame: GeoGrid, bins: tuple[float, ...]) -> np.ndarray:
    """A speed frame's category rank per cell, -1 where the frame holds
    nodata, as a read-only ``int8`` array."""
    grid = categorize_grid(frame, bins)
    with np.errstate(invalid="ignore"):  # a sentinel such as 1e20 has no int8 value
        ranks = grid.values.astype(np.int8)
    np.copyto(ranks, -1, where=grid.values == grid.nodata)
    ranks.setflags(write=False)
    return ranks


def _rank_table(frame: GeoGrid, bins: tuple[float, ...], layout: WindowLayout) -> np.ndarray:
    """Each window's max category rank, -1 where no cell is finite."""
    ranks = _per_frame(frame, ("ranks", bins), lambda: _ranks(frame, bins))
    return layout.reduce(np.maximum, ranks.ravel()[layout.cells], -1)
