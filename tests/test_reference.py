"""The engine against an independent reference route, end to end.

``oracles.reference_indicators`` builds each region's indicators cell by
cell and frame by frame, with no windows, memo or tables. On drawn data
with dropped frames, one-frame rain stacks, regions partly and wholly off
each grid, a one-cell region, nodata patches and -0.0 rain cells, every
field of every region's indicators must be bit-equal to
``FusionEngine.run_epoch``: both routes apply the same float operations
to each value in the same order, so no tolerance is needed.
"""

from __future__ import annotations

from datetime import timedelta

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cswarn.fusion import FusionEngine
from cswarn.geogrid import DEFAULT_NODATA, GridGeometry, GridStack, RegionBox, Variable

from conftest import T0, make_grid
from oracles import cell_lat, cell_lon, reference_indicators

BT_GEOM = GridGeometry(lat_min=10.0, lon_min=100.0, dlat=0.1, dlon=0.1, nrows=12, ncols=14)
# Rain and the first wind stack cover only part of the BT grid, on other
# spacings; the second wind stack shares the BT geometry.
RAIN_GEOM = GridGeometry(lat_min=10.25, lon_min=100.0, dlat=0.2, dlon=0.2, nrows=5, ncols=5)
WIND_GEOM = GridGeometry(lat_min=10.0, lon_min=100.45, dlat=0.15, dlon=0.15, nrows=6, ncols=6)
WINDOW_S = 3600
FIT_WINDOW = 3
R_HEAVY = 8.0


def bt_values(rng, k: int) -> np.ndarray:
    """Warm noise, two cold blocks drifting east one cell per frame, gaps."""
    values = rng.uniform(230.0, 290.0, size=(BT_GEOM.nrows, BT_GEOM.ncols))
    for r0, c0 in ((2, k % 11), (7, (3 + k) % 11)):
        values[r0:r0 + 3, c0:c0 + 3] = rng.uniform(190.0, 215.0, size=(3, 3))
    values[rng.uniform(size=values.shape) < 0.03] = DEFAULT_NODATA
    return values


def rates(rng, geometry: GridGeometry, hi: float) -> np.ndarray:
    """Rates with nodata cells and cells of 0.0 and -0.0; now and then a
    dry frame (only 0.0 and -0.0) or a frame with no finite cell at all."""
    values = rng.uniform(0.0, hi, size=(geometry.nrows, geometry.ncols))
    if rng.uniform() < 0.2:
        values[:] = 0.0
    values[rng.uniform(size=values.shape) < 0.2] = 0.0
    values[rng.uniform(size=values.shape) < 0.3] = -0.0
    values[rng.uniform(size=values.shape) < 0.15] = DEFAULT_NODATA
    if rng.uniform() < 0.1:
        values[:] = DEFAULT_NODATA
    return values


def stack(variable, geometry, cadence_s, count, drop, values):
    frames = [make_grid(values(k), variable=variable, geometry=geometry,
                        time=T0 + timedelta(seconds=cadence_s * k))
              for k in range(count) if k not in drop]
    return GridStack(frames) if frames else None


def one_cell_region(row: int, col: int) -> RegionBox:
    lat, lon = cell_lat(BT_GEOM, row), cell_lon(BT_GEOM, col)
    return RegionBox("one", lat - 0.02, lat + 0.02, lon - 0.02, lon + 0.02)


# At least eight regions in all: numpy takes its vector paths from eight
# elements on, and those break a tie of 0.0 and -0.0 the other way.
boxes = st.lists(
    st.tuples(st.floats(9.6, 11.5), st.floats(0.05, 0.9), st.floats(99.6, 101.5),
              st.floats(0.05, 0.9)),
    min_size=6, max_size=10)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n_bt=st.integers(3, 14),
       bt_drop=st.sets(st.integers(1, 13), max_size=3),
       n_rain=st.integers(1, 7), rain_drop=st.sets(st.integers(0, 6), max_size=3),
       wind_drop=st.sets(st.integers(0, 6), max_size=3),
       one_cell=st.tuples(st.integers(0, 11), st.integers(0, 13)), drawn=boxes)
def test_engine_equals_reference_route(seed, n_bt, bt_drop, n_rain, rain_drop, wind_drop,
                                       one_cell, drawn):
    rng = np.random.default_rng(seed)
    bt = stack(Variable.BT, BT_GEOM, 600, n_bt, bt_drop, lambda k: bt_values(rng, k))
    rain = stack(Variable.RAIN_RATE, RAIN_GEOM, 1200, n_rain, rain_drop,
                 lambda k: rates(rng, RAIN_GEOM, 14.0))
    wind = {name: stack(Variable.WIND_SPEED, geom, 1200, 7, wind_drop,
                        lambda k: rates(rng, geom, 22.0))
            for name, geom in (("a", WIND_GEOM), ("b", BT_GEOM))}
    regions = [RegionBox(f"d{i}", lat, lat + dlat, lon, lon + dlon)
               for i, (lat, dlat, lon, dlon) in enumerate(drawn)]
    regions += [one_cell_region(*one_cell), RegionBox("off", 20.0, 21.0, 100.0, 101.0)]
    engine = FusionEngine(regions, bt=bt, rain=rain,
                          wind_speed={k: s for k, s in wind.items() if s is not None},
                          window_s=WINDOW_S, fit_window=FIT_WINDOW)
    epochs = [f.time for f in bt or ()] + [T0 + timedelta(seconds=5000)]
    for epoch in epochs:
        got = [report.indicators for report in engine.run_epoch(epoch)]
        want = reference_indicators(epoch, engine.regions, engine.bt, engine.detections,
                                    engine.tracks, rain, engine.wind, engine.bins,
                                    WINDOW_S, FIT_WINDOW, R_HEAVY)
        for region, g, w in zip(engine.regions, got, want, strict=True):
            assert repr(g) == repr(w)
            assert repr(engine.rain_stats_at(epoch, region)) == repr(w.rain_stats)
