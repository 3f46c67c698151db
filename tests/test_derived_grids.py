"""Derived grids that skip validation equal fully validated ones.

``convective_mask``, ``wind.categorize_grid`` and ``floodmap.flood_mask``
build their grids through ``GeoGrid._with_values_unchecked``, which skips
the copy and the checks of the constructor. Each is checked here against a
per-cell loop whose values go through the full constructor. Data read from
a file or rendered from a spec must still be validated, so only those
three functions may call the unchecked path, and a malformed grid from
either source still fails with its message.
"""

from __future__ import annotations

import ast
import io
import re
from datetime import timedelta, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cswarn import scenario as sc
from cswarn.convection import DEFAULT_T_DEEP_K, convective_mask
from cswarn.floodmap import flood_mask
from cswarn.geogrid import (
    DEFAULT_NODATA,
    DEFAULT_UNITS,
    GeoGrid,
    GridGeometry,
    GridStack,
    GsfError,
    Variable,
    parse_gsf,
)
from cswarn.wind import DEFAULT_BINS, categorize_grid

from conftest import T0, gsf_text, make_grid

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cswarn"
UNCHECKED = "_with_values_unchecked"


# The values each derived variable holds; a source sentinel among them
# would read as data, so the derived grid takes the default sentinel.
HELD = {Variable.FLOOD_MASK: [0.0, 1.0], Variable.WIND_CAT: [0.0, 1.0, 2.0, 3.0]}


def derived_nodata(source: GeoGrid, variable: Variable) -> float:
    return DEFAULT_NODATA if source.nodata in HELD[variable] else source.nodata


def validated_like(source: GeoGrid, variable: Variable, values: list[list[float]]) -> GeoGrid:
    """A grid of ``values`` on ``source``'s geometry and time, with the
    derived sentinel, through every check of the constructor."""
    return GeoGrid(variable=variable, units=DEFAULT_UNITS[variable], time=source.time,
                   geometry=source.geometry, values=np.array(values),
                   nodata=derived_nodata(source, variable))


def assert_same_grid(got: GeoGrid, want: GeoGrid) -> None:
    assert type(got) is GeoGrid
    assert (got.variable, got.units, got.time, got.geometry) == (
        want.variable, want.units, want.time, want.geometry)
    assert got.nodata == want.nodata
    assert got.values.dtype == np.float64 and got.values.shape == want.values.shape
    assert got.values.tobytes() == want.values.tobytes()
    assert not got.values.flags.writeable
    with pytest.raises(ValueError):
        got.values[0, 0] = 1.0


@st.composite
def grids(draw, variable: Variable, special: list[float], lo: float, hi: float):
    """A small grid of ``variable`` mixing nodata cells, the ``special``
    values and any value in [lo, hi], at a time given off UTC."""
    nrows, ncols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    nodata = draw(st.sampled_from([-9999.0, -1.0, 1e9, 0.0, 1.0, 3.0]))
    cell = st.one_of(st.just(nodata), st.sampled_from([v for v in special if lo <= v <= hi]),
                     st.floats(lo, hi, allow_nan=False, allow_infinity=False))
    values = [[draw(cell) for _ in range(ncols)] for _ in range(nrows)]
    offset = timezone(timedelta(hours=draw(st.integers(-12, 12))))
    time = (T0 + timedelta(seconds=draw(st.integers(0, 86400)))).astimezone(offset)
    geometry = GridGeometry(lat_min=draw(st.floats(-60.0, 60.0)), lon_min=draw(st.floats(-180.0, 180.0)),
                            dlat=0.05, dlon=0.1, nrows=nrows, ncols=ncols)
    return make_grid(values, variable=variable, geometry=geometry, time=time, nodata=nodata)


def edges_and_neighbours(values) -> list[float]:
    return [x for v in values for x in (np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf))]


class TestConvectiveMaskOracle:
    @settings(max_examples=200, deadline=None)
    @given(grids(Variable.BT, edges_and_neighbours([DEFAULT_T_DEEP_K, 210.5]), 100.0, 400.0),
           st.sampled_from([DEFAULT_T_DEEP_K, 210.5]))
    def test_equals_a_validated_per_cell_mask(self, bt, t_deep):
        want = validated_like(bt, Variable.FLOOD_MASK, [
            [derived_nodata(bt, Variable.FLOOD_MASK) if v == bt.nodata
             else (1.0 if v <= t_deep else 0.0) for v in row]
            for row in bt.values.tolist()
        ])
        assert_same_grid(convective_mask(bt, t_deep), want)


class TestCategorizeGridOracle:
    @settings(max_examples=200, deadline=None)
    @given(grids(Variable.WIND_SPEED, edges_and_neighbours([0.0, *DEFAULT_BINS, 100.0]), 0.0, 100.0),
           st.sampled_from([DEFAULT_BINS, (0.5, 2.0, 99.5)]))
    def test_equals_validated_per_cell_ranks(self, wind, bins):
        want = validated_like(wind, Variable.WIND_CAT, [
            [derived_nodata(wind, Variable.WIND_CAT) if v == wind.nodata
             else float(sum(v >= b for b in bins)) for v in row]
            for row in wind.values.tolist()
        ])
        assert_same_grid(categorize_grid(wind, bins), want)


class TestFloodMaskOracle:
    @settings(max_examples=200, deadline=None)
    @given(grids(Variable.LOG_RATIO, edges_and_neighbours([-3.0, 0.0, 1.0]), -20.0, 20.0))
    def test_equals_a_validated_per_cell_mask(self, ratio):
        # One-pixel specks are kept, so each cell is its own threshold.
        want = validated_like(ratio, Variable.FLOOD_MASK, [
            [derived_nodata(ratio, Variable.FLOOD_MASK) if v == ratio.nodata
             else (1.0 if v <= -3.0 else 0.0) for v in row]
            for row in ratio.values.tolist()
        ])
        assert_same_grid(flood_mask(ratio, -3.0, min_region_px=1).grid, want)


def one_frame_gsf(variable: Variable, values: list[list[str]]) -> str:
    """GSF text of a one-frame 2x2 stack of ``variable`` holding ``values``."""
    text = gsf_text(GridStack([make_grid([[0.0, 0.0], [0.0, 0.0]], variable=Variable.FLOOD_MASK)]))
    head = text.split("\n")[:11]
    head[1] = f"variable={variable.value}"
    head[2] = f"units={DEFAULT_UNITS[variable]}"
    return "\n".join(head + [" ".join(row) for row in values]) + "\n"


class TestMalformedInputStillFails:
    @pytest.mark.parametrize("variable, bad, message", [
        (Variable.FLOOD_MASK, "0.5", "FLOOD_MASK values must be 0 or 1"),
        (Variable.WIND_CAT, "4.0", "WIND_CAT values must be ranks 0..3"),
        (Variable.FLOOD_MASK, "nan", "grid values must be finite (use the nodata sentinel for gaps)"),
        (Variable.WIND_SPEED, "-1.0", "WIND_SPEED values outside [0, 100] m/s (min=-1.0, max=0.0)"),
        (Variable.BT, "450.0", "BT values outside [100, 400] K (min=0.0, max=450.0)"),
    ])
    def test_parser_rejects_a_bad_value(self, variable, bad, message):
        text = one_frame_gsf(variable, [["0.0", bad], ["0.0", "0.0"]])
        with pytest.raises(GsfError) as exc:
            parse_gsf(io.StringIO(text))
        assert str(exc.value) == f"line 1: invalid frame: {message}"

    def test_parser_accepts_the_same_frame_when_valid(self):
        stack = parse_gsf(io.StringIO(one_frame_gsf(Variable.WIND_CAT, [["0.0", "3.0"], ["-9999.0", "1.0"]])))
        assert stack[0].values.tolist() == [[0.0, 3.0], [-9999.0, 1.0]]

    def test_scenario_rejects_wind_above_its_bound(self):
        """The cell spec is refused before anything renders; before, the
        first rendered WIND_SPEED grid raised, or the noise clip capped it."""
        with pytest.raises(ValueError, match=re.escape("cell A: wind peak must be <= 100 m/s")):
            sc.CellSpec("A", 15.0, 104.2, 8.0, 270.0, wind_peak_mps=150.0)
        assert sc.CellSpec("A", 15.0, 104.2, 8.0, 270.0, wind_peak_mps=100.0).wind_peak_mps == 100.0


def unchecked_references() -> list[tuple[str, str, bool]]:
    """(module, enclosing function, used as a call) for every mention of
    the unchecked constructor in ``cswarn``, except its definition."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calls = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}

        def visit(node, where):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if child.name == UNCHECKED:
                        continue
                    visit(child, child.name)
                    continue
                named = (isinstance(child, ast.Attribute) and child.attr == UNCHECKED
                         or isinstance(child, ast.Name) and child.id == UNCHECKED
                         or isinstance(child, ast.Constant) and child.value == UNCHECKED)
                if named:
                    found.append((path.stem, where, id(child) in calls))
                visit(child, where)

        visit(tree, "<module>")
    return found


def test_only_the_derived_grids_skip_validation():
    assert sorted(unchecked_references()) == [
        ("convection", "convective_mask", True),
        ("floodmap", "flood_mask", True),
        ("wind", "categorize_grid", True),
    ]
    definitions = [
        (path.stem, node.name)
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == UNCHECKED
    ]
    assert definitions == [("geogrid", UNCHECKED)]
