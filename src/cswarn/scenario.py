"""Synthetic multi-sensor scenario generation with exact ground truth.

Real satellite archives do not ship with this engine, so end-to-end tests
run on generated data whose every property is known analytically. A
scenario is a warm background plus moving storm cells; each cell carries:

- a Gaussian brightness-temperature depression (elliptical radii allowed,
  so a squall line can be long north-south and narrow east-west),
- a gust ring: wind speed peaking on an ellipse at 0.55 of the cloud
  radius, well inside the detectable cloud extent,
- a rain bump whose center trails the cell by ``rain_lag_s`` of travel,
  so a fixed ground point sees the wind arrive first and the rain peak
  roughly half an hour later.

Cells move at constant velocity (converted to fixed degree rates at the
birth latitude). The truth record stores exact centroids per frame, the
first time each region is touched by a cell's detectable bounding box,
which regions flood, and notices for cells leaving the grid.

Everything is deterministic for a given (spec, seed); noise is optional
and off by default.
"""

from __future__ import annotations

import csv
import io
import math
import os
import sys
from dataclasses import dataclass
from datetime import datetime, timedelta
from functools import partial
from typing import Callable, Mapping

import numpy as np

from .geogrid import (
    DEFAULT_UNITS,
    KM_PER_DEG,
    WIND_SPEED_MAX_MPS,
    GeoGrid,
    GridGeometry,
    GridStack,
    RegionBox,
    Variable,
    _check_region_name,
    _csv_rows,
    _finite_float,
    _read_ini,
    _read_section,
    _write_atomic,
    format_time,
    parse_time,
    region_indices,
)
from .convection import DEFAULT_T_DEEP_K
from .wind import SYNTH1

RING_RHO = 0.55     # gust ring center, in units of the cloud radius
RING_SIGMA = 0.12   # gust ring width, same units
# exp(x) rounds to +0.0 in IEEE double for every x below the log of half the
# smallest subnormal, ln(2**-1075) = -745.13..., and numpy's exp is slow
# there. The gust ring takes exp only at or above this whole number and
# writes +0.0 below it, which changes no byte.
EXP_ZERO_BELOW = math.floor((sys.float_info.min_exp - sys.float_info.mant_dig - 1) * math.log(2.0))


@dataclass(frozen=True)
class CellSpec:
    """One synthetic storm cell."""

    name: str
    lat: float
    lon: float
    speed_mps: float
    bearing_deg: float
    min_bt_K: float = 200.0
    radius_km: float = 40.0
    radius_ns_km: float | None = None  # defaults to radius_km (circular)
    wind_peak_mps: float = 0.0
    rain_peak_mmh: float = 0.0
    birth_s: int = 0
    death_s: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.speed_mps <= 60.0:
            raise ValueError(f"cell {self.name}: speed must be in [0, 60] m/s")
        if self.min_bt_K < 180.0:
            raise ValueError(f"cell {self.name}: min BT must be >= 180 K")
        if self.wind_peak_mps < 0 or self.rain_peak_mmh < 0:
            raise ValueError(f"cell {self.name}: peaks must be >= 0")
        if self.wind_peak_mps > WIND_SPEED_MAX_MPS:
            raise ValueError(f"cell {self.name}: wind peak must be <= "
                             f"{WIND_SPEED_MAX_MPS:g} m/s")
        if self.radius_km <= 0 or (self.radius_ns_km is not None and self.radius_ns_km <= 0):
            raise ValueError(f"cell {self.name}: radii must be > 0")
        if not 0.0 <= self.bearing_deg < 360.0:
            raise ValueError(f"cell {self.name}: bearing must be in [0, 360)")
        if self.birth_s < 0 or (self.death_s is not None and self.death_s <= self.birth_s):
            raise ValueError(f"cell {self.name}: bad lifetime")

    def deg_rates(self) -> tuple[float, float]:
        """(dlat, dlon) per second at the birth latitude."""
        theta = math.radians(self.bearing_deg)
        north_kms = self.speed_mps * math.cos(theta) / 1000.0
        east_kms = self.speed_mps * math.sin(theta) / 1000.0
        return (
            north_kms / KM_PER_DEG,
            east_kms / (KM_PER_DEG * math.cos(math.radians(self.lat))),
        )

    def position(self, t_s: float) -> tuple[float, float]:
        """Centroid (lat, lon) at scenario time ``t_s`` (seconds)."""
        dlat, dlon = self.deg_rates()
        dt = t_s - self.birth_s
        return self.lat + dlat * dt, self.lon + dlon * dt

    def sigmas_deg(self) -> tuple[float, float]:
        """(sigma_lat, sigma_lon) in degrees, fixed at the birth latitude."""
        ns = self.radius_ns_km if self.radius_ns_km is not None else self.radius_km
        return (
            ns / KM_PER_DEG,
            self.radius_km / (KM_PER_DEG * math.cos(math.radians(self.lat))),
        )

    def alive(self, t_s: float) -> bool:
        return t_s >= self.birth_s and (self.death_s is None or t_s <= self.death_s)


@dataclass(frozen=True)
class ScenarioSpec:
    geometry: GridGeometry
    start_time: datetime
    duration_s: int
    cells: tuple[CellSpec, ...] = ()
    regions: tuple[RegionBox, ...] = ()
    flooded_regions: frozenset[str] = frozenset()
    bt_cadence_s: int = 600
    rain_cadence_s: int = 1800
    wind_sources: tuple[tuple[str, int], ...] = (("lr", 1800),)
    rain_lag_s: int = 1800
    background_bt_K: float = 280.0
    noise_std: float = 0.0

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError("duration_s must be > 0")
        for label, cadence in (("bt", self.bt_cadence_s), ("rain", self.rain_cadence_s)):
            if cadence <= 0:
                raise ValueError(f"{label} cadence must be > 0")
        names = [r.name for r in self.regions]
        if len(set(names)) != len(names):
            raise ValueError("duplicate region names")
        cell_names = [c.name for c in self.cells]
        if len(set(cell_names)) != len(cell_names):
            raise ValueError("duplicate cell names")
        source_names = [n for n, _ in self.wind_sources]
        if len(set(source_names)) != len(source_names):
            raise ValueError("duplicate wind source names")
        for name, cadence in self.wind_sources:
            # Each source is written as wind_<name>.gsf, next to nrcs.gsf.
            if name in ("", "nrcs") or "/" in name or os.sep in name:
                raise ValueError(f"bad wind source name {name!r}: empty, 'nrcs' or a path")
            if cadence <= 0:
                raise ValueError("wind cadence must be > 0")
        unknown = self.flooded_regions - set(names)
        if unknown:
            raise ValueError(f"flooded regions not defined: {sorted(unknown)}")
        if self.rain_lag_s < 0 or self.noise_std < 0:
            raise ValueError("rain_lag_s and noise_std must be >= 0")
        if not 100.0 < self.background_bt_K <= 400.0:
            raise ValueError("background BT out of physical range")

    def frame_seconds(self, cadence_s: int) -> list[int]:
        return list(range(0, self.duration_s + 1, cadence_s))

    @property
    def end_time(self) -> datetime:
        return self.start_time + timedelta(seconds=self.duration_s)


@dataclass(frozen=True)
class CentroidSample:
    time: datetime
    cell: str
    lat: float
    lon: float
    speed_mps: float
    bearing_deg: float


@dataclass(frozen=True)
class TruthRecord:
    """Exact scenario ground truth, the oracle for every downstream test."""

    centroids: tuple[CentroidSample, ...]
    intersections: Mapping[str, datetime]  # region -> first bbox contact
    flooded: frozenset[str]
    notices: tuple[str, ...] = ()


@dataclass(frozen=True)
class ScenarioData:
    bt: GridStack
    rain: GridStack
    wind: Mapping[str, GridStack]
    nrcs: GridStack | None
    truth: TruthRecord


def _rho2(
    geometry: GridGeometry, cell: CellSpec, clat: float, clon: float, out: np.ndarray
) -> np.ndarray:
    """Squared normalized elliptical distance of every grid cell center, into ``out``."""
    sig_lat, sig_lon = cell.sigmas_deg()
    dlat = (geometry.lats()[:, None] - clat) / sig_lat
    dlon = (geometry.lons()[None, :] - clon) / sig_lon
    return np.add(dlat * dlat, dlon * dlon, out=out)


def _gaussian(
    geometry: GridGeometry, cell: CellSpec, clat: float, clon: float, out: np.ndarray
) -> np.ndarray:
    """The cell's unit Gaussian ``exp(-rho2 / 2)`` around (clat, clon), into ``out``."""
    np.multiply(_rho2(geometry, cell, clat, clon, out), -0.5, out=out)
    return np.exp(out, out=out)


def _detected_bbox(
    geometry: GridGeometry, bt_field: np.ndarray, t_deep: float
) -> RegionBox | None:
    """Bounding box of cells at or under ``t_deep``, padded by half a cell."""
    deep = bt_field <= t_deep
    rows, cols = np.flatnonzero(deep.any(axis=1)), np.flatnonzero(deep.any(axis=0))
    if rows.size == 0:
        return None
    lats = geometry.lats()
    lons = geometry.lons()
    return RegionBox(
        "truth",
        float(lats[rows].min()) - geometry.dlat / 2.0,
        float(lats[rows].max()) + geometry.dlat / 2.0,
        float(lons[cols].min()) - geometry.dlon / 2.0,
        float(lons[cols].max()) + geometry.dlon / 2.0,
    )


def generate(spec: ScenarioSpec, seed: int = 0) -> ScenarioData:
    """Render all sensor stacks for ``spec`` plus the exact truth record.

    Deterministic for a given (spec, seed). The truth record's bounding
    boxes use the same rendered fields a detector at the default deep-cloud
    threshold would see (noise-free), so with noise_std = 0 they match
    detection exactly.

    Every stack goes through one frame loop: fill the frame, paint each
    live cell in place into one buffer and fold it in place into the frame,
    add noise and clip, and copy the frame into a grid, so a frame costs no
    grid-sized temporaries beyond its own values and its noise. BT is drawn
    first: a cell whose centroid is off the grid at a BT time is truncated
    from that time on in every product. The gust ring, whose exponent falls
    far below -745 on most of a large grid, takes ``exp`` only where the
    exponent is at least ``EXP_ZERO_BELOW`` and writes the ``+0.0`` that
    ``exp`` would round to everywhere else.
    """
    rng = np.random.default_rng(seed)
    geom = spec.geometry
    shape = (geom.nrows, geom.ncols)
    field, frame = np.empty(shape), np.empty(shape)
    extent = RegionBox("extent",
                       geom.lat_min - geom.dlat / 2.0, geom.lat_max + geom.dlat / 2.0,
                       geom.lon_min - geom.dlon / 2.0, geom.lon_max + geom.dlon / 2.0)
    exit_s: dict[str, int] = {}
    notices: list[str] = []
    centroids: list[CentroidSample] = []
    intersections: dict[str, datetime] = {}

    def render(variable: Variable, cadence: int, background: float, fold: Callable,
               lo: float, hi: float, draw: Callable[[CellSpec, int, datetime], bool]) -> GridStack:
        """One stack: ``draw(cell, t_s, time)`` paints a live cell into
        ``field`` and says whether to fold it into the frame."""
        frames: list[GeoGrid] = []
        for t_s in spec.frame_seconds(cadence):
            time = spec.start_time + timedelta(seconds=t_s)
            frame.fill(background)
            for cell in spec.cells:
                live = cell.alive(t_s) and t_s < exit_s.get(cell.name, t_s + 1)
                if live and draw(cell, t_s, time):
                    fold(frame, field, out=frame)
            if spec.noise_std > 0:
                np.clip(frame + rng.normal(0.0, spec.noise_std, shape), lo, hi, out=frame)
            frames.append(GeoGrid(variable=variable, units=DEFAULT_UNITS[variable], time=time,
                                  geometry=geom, values=frame))
        return GridStack(frames)

    def bt(cell: CellSpec, t_s: int, time: datetime) -> bool:
        clat, clon = cell.position(t_s)
        if not extent.contains(clat, clon):
            exit_s[cell.name] = t_s
            notices.append(f"cell {cell.name} left the grid at {format_time(time)}; truncated")
            return False
        np.multiply(_gaussian(geom, cell, clat, clon, field),
                    spec.background_bt_K - cell.min_bt_K, out=field)
        np.subtract(spec.background_bt_K, field, out=field)
        centroids.append(CentroidSample(time, cell.name, clat, clon, cell.speed_mps,
                                        cell.bearing_deg))
        bbox = _detected_bbox(geom, field, DEFAULT_T_DEEP_K)
        if bbox is not None:
            for region in spec.regions:
                if region.name not in intersections and bbox.intersects(region):
                    intersections[region.name] = time
        return True

    def rain(cell: CellSpec, t_s: int, time: datetime) -> bool:
        # Lagged behind the cell track.
        if cell.rain_peak_mmh <= 0:
            return False
        clat, clon = cell.position(max(cell.birth_s, t_s - spec.rain_lag_s))
        np.multiply(_gaussian(geom, cell, clat, clon, field), cell.rain_peak_mmh, out=field)
        return True

    def wind(cell: CellSpec, t_s: int, time: datetime) -> bool:
        # peak * exp(-(rho - RING_RHO)**2 / (2 * RING_SIGMA**2)): a gust
        # ring around the current centroid.
        if cell.wind_peak_mps <= 0:
            return False
        np.sqrt(_rho2(geom, cell, *cell.position(t_s), field), out=field)
        np.square(np.subtract(field, RING_RHO, out=field), out=field)
        np.divide(field, -(2.0 * RING_SIGMA**2), out=field)
        keep = field >= EXP_ZERO_BELOW
        np.exp(field, out=field, where=keep)
        np.copyto(field, 0.0, where=~keep)
        np.multiply(field, cell.wind_peak_mps, out=field)
        return True

    bt_stack = render(Variable.BT, spec.bt_cadence_s, spec.background_bt_K, np.minimum,
                      100.0, 400.0, bt)
    rain_stack = render(Variable.RAIN_RATE, spec.rain_cadence_s, 0.0, np.maximum,
                        0.0, np.inf, rain)
    wind_stacks = {source: render(Variable.WIND_SPEED, cadence, 0.0, np.maximum, 0.0,
                                  WIND_SPEED_MAX_MPS, wind)
                   for source, cadence in spec.wind_sources}

    # Radar backscatter consistent with the first wind source.
    nrcs = None
    if spec.wind_sources:
        nrcs = GridStack([f.with_values(SYNTH1.sigma0(f.values, 35.0, 0.0), variable=Variable.NRCS)
                          for f in wind_stacks[spec.wind_sources[0][0]]])
    truth = TruthRecord(tuple(centroids), intersections, frozenset(spec.flooded_regions),
                        tuple(notices))
    return ScenarioData(bt_stack, rain_stack, wind_stacks, nrcs, truth)


def _central_half(s: slice) -> slice:
    """The middle of an index range with its outer quarters dropped (at least one index)."""
    n = s.stop - s.start
    return slice(s.start + n // 4, s.start + max(n // 4 + 1, n - n // 4))


def truth_flood_grid(spec: ScenarioSpec) -> GeoGrid:
    """FLOOD_MASK grid at scenario end: the central quarter of every
    region named in ``flooded_regions`` is flooded, everything else dry."""
    geom = spec.geometry
    values = np.zeros((geom.nrows, geom.ncols))
    by_name = {r.name: r for r in spec.regions}
    for name in sorted(spec.flooded_regions):
        window = region_indices(geom, by_name[name])
        if window is not None:
            values[tuple(_central_half(s) for s in window)] = 1.0
    return GeoGrid(
        variable=Variable.FLOOD_MASK, units="bool", time=spec.end_time,
        geometry=geom, values=values,
    )


# ---------------------------------------------------------------------------
# The committed 24-hour coastal squall case
# ---------------------------------------------------------------------------

def paper_replay_spec() -> ScenarioSpec:
    """The engine's reference case: one long squall line born offshore,
    sweeping due west at 8 m/s across a 6 x 7 degree coastal domain over
    24 hours, flooding the four regions in its path (TT, DN, QN1, QN2)."""
    geometry = GridGeometry(
        lat_min=14.0, lon_min=103.0, dlat=0.05, dlon=0.05, nrows=120, ncols=140
    )
    regions = (
        RegionBox("NA", 18.8, 19.8, 103.8, 105.8),
        RegionBox("HT", 18.0, 18.7, 105.2, 106.6),
        RegionBox("QB", 17.3, 17.9, 105.6, 107.0),
        RegionBox("QT", 16.7, 17.2, 106.2, 107.4),
        RegionBox("TT", 16.1, 16.6, 107.0, 108.2),
        RegionBox("DN", 15.8, 16.05, 107.6, 108.4),
        RegionBox("QN1", 15.2, 15.75, 107.2, 108.6),
        RegionBox("QN2", 14.5, 15.15, 107.4, 109.0),
    )
    squall = CellSpec(
        name="squall",
        lat=15.55,
        lon=109.7,
        speed_mps=8.0,
        bearing_deg=270.0,
        min_bt_K=200.0,
        radius_km=40.0,
        radius_ns_km=143.0,
        wind_peak_mps=20.0,
        rain_peak_mmh=10.0,
    )
    return ScenarioSpec(
        geometry=geometry,
        start_time=parse_time("2020-10-05T00:00:00Z"),
        duration_s=86400,
        cells=(squall,),
        regions=regions,
        flooded_regions=frozenset({"TT", "DN", "QN1", "QN2"}),
        bt_cadence_s=600,
        rain_cadence_s=1800,
        wind_sources=(("lr", 1800),),
        rain_lag_s=1800,
    )


# ---------------------------------------------------------------------------
# Truth record CSV
# ---------------------------------------------------------------------------

_TRUTH_HEADER = ["record", "time", "name", "lat", "lon", "speed_mps", "bearing_deg", "note"]


def write_truth_csv(truth: TruthRecord, path) -> None:
    """Write ``truth`` as CSV (CRLF line ends), atomically."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(_TRUTH_HEADER)
    for s in truth.centroids:
        writer.writerow(
            ["centroid", format_time(s.time), s.cell,
             repr(s.lat), repr(s.lon), repr(s.speed_mps), repr(s.bearing_deg), ""]
        )
    for name in sorted(truth.intersections):
        writer.writerow(
            ["intersection", format_time(truth.intersections[name]), name, "", "", "", "", ""]
        )
    for name in sorted(truth.flooded):
        writer.writerow(["flooded", "", name, "", "", "", "", ""])
    for note in truth.notices:
        writer.writerow(["notice", "", "", "", "", "", "", note])
    _write_atomic(path, buf.getvalue())


_TRUTH_KINDS = ("centroid", "intersection", "flooded", "notice")


def _truth_kind(text: str) -> str:
    if text not in _TRUTH_KINDS:
        raise ValueError(f"unknown truth record kind {text!r}")
    return text


def read_truth_csv(path) -> TruthRecord:
    """The truth record of a truth CSV; a bad cell fails as ``FILE:LINE: column: why``."""
    centroids: list[CentroidSample] = []
    intersections: dict[str, datetime] = {}
    flooded: set[str] = set()
    notices: list[str] = []
    for cell in _csv_rows(path, _TRUTH_HEADER, "truth"):
        kind = cell("record", _truth_kind)
        if kind == "centroid":
            centroids.append(CentroidSample(
                cell("time", parse_time), cell("name"), cell("lat", float), cell("lon", float),
                cell("speed_mps", float), cell("bearing_deg", float)))
        elif kind == "intersection":
            intersections[cell("name")] = cell("time", parse_time)
        elif kind == "flooded":
            flooded.add(cell("name"))
        else:
            notices.append(cell("note"))
    return TruthRecord(tuple(centroids), intersections, frozenset(flooded), tuple(notices))


# ---------------------------------------------------------------------------
# Scenario spec file (INI)
# ---------------------------------------------------------------------------

def _wind_sources(text: str) -> tuple[tuple[str, int], ...]:
    """Comma-separated ``name:cadence_s`` entries."""
    sources = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        name, sep, cadence = item.partition(":")
        if sep != ":":
            raise ValueError(f"wind_sources entries are name:cadence_s, got {item!r}")
        sources.append((name.strip(), int(cadence)))
    return tuple(sources)


def _names(text: str) -> frozenset[str]:
    return frozenset(n.strip() for n in text.split(",") if n.strip())


# Keys of each section kind: file key -> (field, parser). A key the file
# leaves out is not passed, so its default applies; the _REQUIRED keys
# have none.
_GEOMETRY_KEYS = ("lat_min", "lon_min", "dlat", "dlon", "nrows", "ncols")
_SCENARIO_KEYS = {
    "lat_min": ("lat_min", _finite_float),
    "lon_min": ("lon_min", _finite_float),
    "dlat": ("dlat", _finite_float),
    "dlon": ("dlon", _finite_float),
    "nrows": ("nrows", int),
    "ncols": ("ncols", int),
    "start": ("start_time", parse_time),
    "duration_s": ("duration_s", int),
    "bt_cadence_s": ("bt_cadence_s", int),
    "rain_cadence_s": ("rain_cadence_s", int),
    "rain_lag_s": ("rain_lag_s", int),
    "background_bt": ("background_bt_K", _finite_float),
    "noise_std": ("noise_std", _finite_float),
    "wind_sources": ("wind_sources", _wind_sources),
    "flooded": ("flooded_regions", _names),
}
_CELL_KEYS = {
    "lat": ("lat", _finite_float),
    "lon": ("lon", _finite_float),
    "speed_mps": ("speed_mps", _finite_float),
    "bearing_deg": ("bearing_deg", _finite_float),
    "min_bt": ("min_bt_K", _finite_float),
    "radius_km": ("radius_km", _finite_float),
    "radius_ns_km": ("radius_ns_km", _finite_float),
    "wind_peak": ("wind_peak_mps", _finite_float),
    "rain_peak": ("rain_peak_mmh", _finite_float),
    "birth_s": ("birth_s", int),
    "death_s": ("death_s", int),
}
_REGION_KEYS = {key: (key, _finite_float) for key in ("lat_min", "lat_max", "lon_min", "lon_max")}
_SCENARIO_REQUIRED = {*_GEOMETRY_KEYS, "start", "duration_s"}
_CELL_REQUIRED = {"lat", "lon", "speed_mps", "bearing_deg"}


def read_scenario(path) -> ScenarioSpec:
    """Parse a scenario spec file; see the project README for the layout.

    Sections: one [scenario], any number of [cell NAME] and [region NAME].
    Unknown keys are rejected so typos fail loudly instead of silently
    running defaults, and every fault names the file.
    """
    parser = _read_ini(path)
    if "scenario" not in parser:
        raise ValueError(f"{path}: missing [scenario] section")

    cells: list[CellSpec] = []
    regions: list[RegionBox] = []
    for section in parser.sections():
        if section == "scenario":
            continue
        kind, _, name = section.partition(" ")
        name = name.strip()
        if kind == "cell" and name:
            cells.append(_read_section(path, parser[section], _CELL_KEYS, _CELL_REQUIRED,
                                       partial(CellSpec, name)))
        elif kind == "region" and name:
            regions.append(_read_section(path, parser[section], _REGION_KEYS, set(_REGION_KEYS),
                                         lambda **box: RegionBox(_check_region_name(name), **box)))
        else:
            raise ValueError(f"{path}: unknown section [{section}]")

    def spec(**fields) -> ScenarioSpec:
        geometry = GridGeometry(**{key: fields.pop(key) for key in _GEOMETRY_KEYS})
        return ScenarioSpec(geometry=geometry, cells=tuple(cells), regions=tuple(regions),
                            **fields)

    return _read_section(path, parser["scenario"], _SCENARIO_KEYS, _SCENARIO_REQUIRED, spec)
