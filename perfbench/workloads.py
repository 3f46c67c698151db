"""Workload definitions: scenario layouts built from a seed, and sizes.

Three workloads, each built to load a different set of modules:

- ``replay_cli``: the built-in 24 h coastal-squall replay, run as six
  ``python -m cswarn.cli`` processes. Text GSF I/O dominates.
- ``scaled_batch``: a grid 3x finer per axis than the replay, a few large
  long-lived squall lines and a few dozen regions, run in process with no
  file I/O. Labeling and per-(frame, region) windowing dominate.
- ``crowded_nowcast``: many small short-lived noisy cells and many small
  regions, run in process as an operational loop that rebuilds the fusion
  engine on a trailing window at every new BT frame. Approach forecasts
  and engine construction dominate.

Every layout is a pure function of (seed, size). Seeds jitter positions,
speeds and lifetimes but never the counts or sizes that set the amount of
work, so run-to-run spread across seeds stays small.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace

from cswarn import scenario as sc
from cswarn.geogrid import KM_PER_DEG, GridGeometry, RegionBox, parse_time

START = "2020-10-05T00:00:00Z"
EPOCH_S = 1800          # engine default decision cadence
WINDOW_S = 10800        # engine default trailing window
FIT_WINDOW = 6          # engine default motion-fit window
SQUALL_MIN_BT_K = 200.0

# Fraction of a Gaussian cell's sigma inside which BT is at or below the
# default 220 K detection threshold, for the 280 K background and
# SQUALL_MIN_BT_K: exp(-rho^2 / 2) >= 60 / 80.
_DETECT_RHO = math.sqrt(2.0 * math.log(80.0 / 60.0))


# ---------------------------------------------------------------------------
# replay_cli
# ---------------------------------------------------------------------------

# Darkening applied to the truth-flooded cells of the planted post-event
# backscatter image, well past the default -3 dB change threshold.
FLOOD_DARKEN_DB = -6.0

# SHA-256 of the walkthrough's outputs on the built-in replay. Any change
# to these bytes is an output change that has to be explained.
REPLAY_DIGESTS = {
    "objects.csv": "5fad555679fd68dfb5b5abb887b36e7c510331199fae8d572951ea65ca90b797",
    "tracks.csv": "1fbb393d770772fb01da46b2674f13ade76f171c22c6f3f6f75123e11fad00ce",
    "warnings.csv": "3c2aac7546025c3258d7c7651d66df80554d07ded218d2bcec8397e7b69a2062",
    "rain_stats.csv": "b4068e8f6d4813952093fe5a1e12d6ecffeca653c1648d0991e5cb2794e432f5",
    "validation.csv": "91a3dfd76152739e415171132b4c6a39a61e7b83e8f64fce3f27c320d250a841",
}
# The same for the smoke-size replay: the replay's domain, regions and
# squall on a 0.1 degree grid over 12 h.
SMOKE_REPLAY_DIGESTS = {
    "objects.csv": "2d1cf9a697683b54016f8b70e957522619b5f6be7d01e0fdab0f2ebd2d57e225",
    "tracks.csv": "5647817df4c550acc45744ce886a13198ce619c32dcf916b2d770054b550b41b",
    "warnings.csv": "3644144e3ef1df275ec497c4ce5d8af5f62b933b71d1fa67c4519f1d41d7d217",
    "rain_stats.csv": "edf7aa3390a347da1d78867f186f9a33204669a3c8cf289a48e7640464b04169",
    "validation.csv": "91a3dfd76152739e415171132b4c6a39a61e7b83e8f64fce3f27c320d250a841",
}

REPLAY_LEAD_REGION = "DN"
REPLAY_MIN_LEAD_S = 7200


def replay_spec(size: str) -> sc.ScenarioSpec:
    spec = sc.paper_replay_spec()
    if size == "smoke":
        geom = GridGeometry(lat_min=14.0, lon_min=103.0, dlat=0.1, dlon=0.1, nrows=60, ncols=70)
        spec = replace(spec, geometry=geom, duration_s=43200)
    return spec


def replay_digests(size: str) -> dict[str, str]:
    return REPLAY_DIGESTS if size == "full" else SMOKE_REPLAY_DIGESTS


# ---------------------------------------------------------------------------
# scaled_batch
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Layout:
    """A generated scenario spec plus what the benchmark needs to know."""

    spec: sc.ScenarioSpec
    expected_reached: frozenset[str] | None  # regions the layout puts in a squall's path
    epochs: int

    def stamp(self) -> dict:
        s = self.spec
        g = s.geometry
        frames = {
            "bt": len(s.frame_seconds(s.bt_cadence_s)),
            "rain": len(s.frame_seconds(s.rain_cadence_s)),
        }
        for name, cadence in s.wind_sources:
            frames[f"wind_{name}"] = len(s.frame_seconds(cadence))
        return {
            "grid": [g.nrows, g.ncols],
            "dlat_deg": g.dlat,
            "frames_per_stack": frames,
            "regions": len(s.regions),
            "cells": len(s.cells),
            "epochs": self.epochs,
            "duration_s": s.duration_s,
            "noise_std": s.noise_std,
        }


def scaled_layout(seed: int, size: str) -> Layout:
    """Squall lines in separate latitude bands sweeping west; regions sit
    either inside a band (reached, flooded) or midway between bands
    (never reached, dry)."""
    rnd = random.Random(f"scaled_batch:{seed}")
    if size == "full":
        nrows, ncols, step = 300, 330, 0.05 / 3.0
        bands, columns, duration_s = 3, 5, 86400
    else:
        nrows, ncols, step = 60, 70, 0.1
        bands, columns, duration_s = 2, 2, 43200
    lat_min, lon_min = 14.0, 103.0
    geom = GridGeometry(lat_min=lat_min, lon_min=lon_min, dlat=step, dlon=step,
                        nrows=nrows, ncols=ncols)
    lat_span = (nrows - 1) * step
    lon_max = lon_min + (ncols - 1) * step
    band_h = lat_span / bands
    # Detectable half-height of each squall: 0.32 of its band, so bands
    # never touch and the regions midway between them are never reached.
    radius_ns_km = 0.32 * band_h * KM_PER_DEG / _DETECT_RHO

    cells: list[sc.CellSpec] = []
    regions: list[RegionBox] = []
    reached: set[str] = set()
    centers = []
    for b in range(bands):
        lat_c = lat_min + band_h * (b + 0.5) + rnd.uniform(-0.05, 0.05) * band_h
        centers.append(lat_c)
        cells.append(sc.CellSpec(
            name=f"squall{b}",
            lat=lat_c,
            lon=lon_max - 0.06 * (lon_max - lon_min) + rnd.uniform(-0.02, 0.02),
            speed_mps=rnd.uniform(7.5, 8.5) * 86400.0 / duration_s,
            bearing_deg=270.0,
            min_bt_K=SQUALL_MIN_BT_K,
            radius_km=40.0 if size == "full" else 60.0,
            radius_ns_km=radius_ns_km,
            wind_peak_mps=20.0,
            rain_peak_mmh=10.0,
        ))
    reg_h = 0.25 * band_h
    reg_w = 0.5 * (lon_max - lon_min) / (columns + 1)
    col_step = 0.78 * (lon_max - lon_min) / columns
    for c in range(columns):
        lon_c = lon_min + 0.08 * (lon_max - lon_min) + col_step * (c + 0.5) + rnd.uniform(-0.1, 0.1) * reg_w
        for b, lat_c in enumerate(centers):
            name = f"B{b}C{c}"
            regions.append(RegionBox(name, lat_c - reg_h / 2, lat_c + reg_h / 2,
                                     lon_c - reg_w / 2, lon_c + reg_w / 2))
            reached.add(name)
        for b in range(bands - 1):
            lat_c = (centers[b] + centers[b + 1]) / 2.0
            name = f"G{b}C{c}"
            regions.append(RegionBox(name, lat_c - reg_h / 4, lat_c + reg_h / 4,
                                     lon_c - reg_w / 2, lon_c + reg_w / 2))
    spec = sc.ScenarioSpec(
        geometry=geom,
        start_time=parse_time(START),
        duration_s=duration_s,
        cells=tuple(cells),
        regions=tuple(regions),
        flooded_regions=frozenset(reached),
    )
    return Layout(spec, frozenset(reached), duration_s // EPOCH_S + 1)


# ---------------------------------------------------------------------------
# crowded_nowcast
# ---------------------------------------------------------------------------

def crowded_layout(seed: int, size: str) -> Layout:
    """Many small short-lived cells on random tracks over many small
    regions, with BT noise. The flooded set is whatever the truth record
    says was reached, fixed after generation (see ``with_reached_flooded``)."""
    rnd = random.Random(f"crowded_nowcast:{seed}")
    if size == "full":
        nrows, ncols, step = 90, 110, 0.03
        n_cells, n_regions, duration_s = 12, 24, 43200
    else:
        nrows, ncols, step = 50, 60, 0.06
        n_cells, n_regions, duration_s = 4, 8, 5 * 3600
    lat_min, lon_min = 14.0, 103.0
    geom = GridGeometry(lat_min=lat_min, lon_min=lon_min, dlat=step, dlon=step,
                        nrows=nrows, ncols=ncols)
    lat_max = lat_min + (nrows - 1) * step
    lon_max = lon_min + (ncols - 1) * step
    # Births are evenly staggered and every cell lives ``life_s`` and stays
    # on the grid, so the number of live cells per epoch is the same for
    # every seed; seeds move positions, headings, sizes and intensities.
    life_s = 2 * 3600
    spacing_s = (duration_s - life_s) // n_cells // 600 * 600
    max_speed_mps = 10.0
    reach = life_s * max_speed_mps / 1000.0 / KM_PER_DEG  # farthest drift, degrees
    cells = []
    for i in range(n_cells):
        birth = i * spacing_s
        cells.append(sc.CellSpec(
            name=f"c{i:02d}",
            lat=rnd.uniform(lat_min + reach + 0.1, lat_max - reach - 0.1),
            lon=rnd.uniform(lon_min + reach + 0.1, lon_max - reach - 0.1),
            speed_mps=rnd.uniform(5.0, max_speed_mps),
            bearing_deg=rnd.uniform(0.0, 359.0),
            min_bt_K=rnd.uniform(195.0, 210.0),
            radius_km=rnd.uniform(12.0, 20.0),
            wind_peak_mps=rnd.uniform(10.0, 22.0),
            rain_peak_mmh=rnd.uniform(4.0, 14.0),
            birth_s=birth,
            death_s=birth + life_s,
        ))
    regions = []
    for i in range(n_regions):
        h = rnd.uniform(0.1, 0.2)
        w = rnd.uniform(0.12, 0.25)
        la = rnd.uniform(lat_min, lat_max - h)
        lo = rnd.uniform(lon_min, lon_max - w)
        regions.append(RegionBox(f"R{i:02d}", la, la + h, lo, lo + w))
    spec = sc.ScenarioSpec(
        geometry=geom,
        start_time=parse_time(START),
        duration_s=duration_s,
        cells=tuple(cells),
        regions=tuple(regions),
        noise_std=0.5,
    )
    epochs = (duration_s - WINDOW_S) // spec.bt_cadence_s + 1
    return Layout(spec, None, epochs)


def with_reached_flooded(spec: sc.ScenarioSpec, truth: sc.TruthRecord) -> sc.ScenarioSpec:
    """The spec with every region the truth record says was reached flooded."""
    return replace(spec, flooded_regions=frozenset(truth.intersections))


def layout(workload: str, seed: int, size: str) -> Layout:
    if workload == "scaled_batch":
        return scaled_layout(seed, size)
    if workload == "crowded_nowcast":
        return crowded_layout(seed, size)
    spec = replay_spec(size)
    return Layout(spec, frozenset(spec.flooded_regions), spec.duration_s // EPOCH_S + 1)
