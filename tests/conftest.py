"""Shared helpers for building small grids and stacks in tests."""

from __future__ import annotations

from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from cswarn.geogrid import DEFAULT_UNITS, GeoGrid, GridGeometry, GridStack, Variable

T0 = datetime(2020, 10, 5, 0, 0, 0, tzinfo=timezone.utc)

GEOM_4X4 = GridGeometry(lat_min=10.0, lon_min=20.0, dlat=1.0, dlon=1.0, nrows=4, ncols=4)


def make_grid(values, variable=Variable.BT, geometry=None, time=T0, units=None, nodata=-9999.0):
    """GeoGrid from a nested list or array, with sane defaults."""
    values = np.asarray(values, dtype=float)
    if geometry is None:
        geometry = GridGeometry(
            lat_min=10.0,
            lon_min=20.0,
            dlat=1.0,
            dlon=1.0,
            nrows=values.shape[0],
            ncols=values.shape[1],
        )
    return GeoGrid(
        variable=variable,
        units=units if units is not None else DEFAULT_UNITS[variable],
        time=time,
        geometry=geometry,
        values=values,
        nodata=nodata,
    )


def make_stack(frames, variable=Variable.RAIN_RATE, geometry=None, t0=T0, dt_s=1800, **kw):
    """GridStack of array frames at a fixed cadence starting at t0."""
    grids = [
        make_grid(np.asarray(frame, dtype=float), variable=variable, geometry=geometry,
                  time=t0 + timedelta(seconds=i * dt_s), **kw)
        for i, frame in enumerate(frames)
    ]
    return GridStack(grids)


@pytest.fixture
def bt_grid_4x4():
    """4x4 BT grid, uniform 280 K, 1 degree cells from (10N, 20E)."""
    return make_grid(np.full((4, 4), 280.0), geometry=GEOM_4X4)
