"""Grid model, GSF serialization, and region windows."""

from __future__ import annotations

import io
import math
import re
import tracemalloc
from datetime import timedelta, timezone
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cswarn import geogrid
from cswarn.geogrid import (
    DEFAULT_NODATA,
    EARTH_RADIUS_KM,
    KM_PER_DEG,
    GeoGrid,
    GridGeometry,
    GridStack,
    GsfError,
    RegionBox,
    Variable,
    format_time,
    haversine_km,
    parse_gsf,
    parse_time,
    read_gsf,
    read_regions,
    region_indices,
    write_gsf,
    write_regions,
)

from conftest import GEOM_4X4, T0, gsf_text, make_grid, make_stack
from oracles import gsf_payload_loop, region_cells, translated


class TestConstants:
    def test_km_per_deg(self):
        assert KM_PER_DEG == 111.195

    def test_earth_radius_consistent_with_km_per_deg(self):
        assert EARTH_RADIUS_KM == pytest.approx(KM_PER_DEG * 180.0 / math.pi, rel=1e-15)


class TestTime:
    def test_format_round_trip(self):
        assert parse_time(format_time(T0)) == T0

    def test_parse_z_suffix(self):
        dt = parse_time("2020-10-05T06:30:00Z")
        assert dt.tzinfo == timezone.utc
        assert dt.hour == 6 and dt.minute == 30

    def test_format_is_utc_z(self):
        assert format_time(T0) == "2020-10-05T00:00:00Z"


class TestDistances:
    def test_haversine_zero(self):
        assert haversine_km(16.0, 106.0, 16.0, 106.0) == 0.0

    def test_haversine_one_degree_lon_at_equator(self):
        assert haversine_km(0.0, 0.0, 0.0, 1.0) == pytest.approx(KM_PER_DEG, rel=1e-12)

    def test_haversine_one_degree_lat(self):
        assert haversine_km(10.0, 20.0, 11.0, 20.0) == pytest.approx(KM_PER_DEG, rel=1e-9)

    def test_haversine_symmetry(self):
        a = haversine_km(15.0, 105.0, 17.5, 108.25)
        b = haversine_km(17.5, 108.25, 15.0, 105.0)
        assert a == b


class TestGridGeometry:
    def test_rows_run_north_to_south(self):
        lats = GEOM_4X4.lats()
        assert lats.tolist() == [13.0, 12.0, 11.0, 10.0]

    def test_lons_run_west_to_east(self):
        assert GEOM_4X4.lons().tolist() == [20.0, 21.0, 22.0, 23.0]

    def test_axes_are_found_once_and_read_only(self):
        geom = GridGeometry(lat_min=10.0, lon_min=20.0, dlat=0.5, dlon=0.25, nrows=3, ncols=2)
        for axis in (geom.lats, geom.lons, geom.cell_areas_km2):
            assert axis() is axis()
            with pytest.raises(ValueError):
                axis()[0] = 0.0
        dy = 0.5 * KM_PER_DEG
        assert geom.cell_areas_km2().tolist() == [
            dy * (0.25 * KM_PER_DEG * math.cos(math.radians(lat))) for lat in (11.0, 10.5, 10.0)]

    def test_invalid_spacing_rejected(self):
        with pytest.raises(ValueError):
            GridGeometry(lat_min=10.0, lon_min=20.0, dlat=0.0, dlon=1.0, nrows=2, ncols=2)
        with pytest.raises(ValueError):
            GridGeometry(lat_min=10.0, lon_min=20.0, dlat=1.0, dlon=1.0, nrows=0, ncols=2)


class TestGeoGridValidation:
    def test_shape_must_match(self):
        with pytest.raises(ValueError):
            GeoGrid(
                variable=Variable.BT, units="K", time=T0,
                geometry=GridGeometry(lat_min=10.0, lon_min=20.0, dlat=1.0, dlon=1.0, nrows=3, ncols=3),
                values=np.full((2, 2), 280.0),
            )

    @pytest.mark.parametrize(
        "variable,bad",
        [
            (Variable.BT, 90.0),
            (Variable.BT, 410.0),
            (Variable.RAIN_RATE, -1.0),
            (Variable.WIND_SPEED, 150.0),
            (Variable.NRCS, 0.0),
            (Variable.FLOOD_MASK, 0.5),
            (Variable.WIND_CAT, 2.5),
        ],
    )
    def test_out_of_bounds_values_rejected(self, variable, bad):
        values = np.full((2, 2), bad)
        with pytest.raises(ValueError):
            make_grid(values, variable=variable)

    def test_nodata_sentinel_always_allowed(self):
        values = np.array([[280.0, DEFAULT_NODATA], [DEFAULT_NODATA, 300.0]])
        grid = make_grid(values)
        assert grid.finite_mask.tolist() == [[True, False], [False, True]]

    @pytest.mark.parametrize("variable", [Variable.FLOOD_MASK, Variable.WIND_CAT])
    def test_negative_zero_is_rank_zero(self, variable):
        grid = make_grid(np.array([[-0.0, 1.0], [0.0, DEFAULT_NODATA]]), variable=variable)
        assert grid.values[0, 0] == 0.0

    @pytest.mark.parametrize(
        "variable,bad,message",
        [
            (Variable.FLOOD_MASK, 0.5, "FLOOD_MASK values must be 0 or 1"),
            (Variable.WIND_CAT, 4.0, "WIND_CAT values must be ranks 0..3"),
        ],
    )
    def test_value_off_the_ranks_names_them(self, variable, bad, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make_grid(np.array([[0.0, bad], [1.0, DEFAULT_NODATA]]), variable=variable)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            make_grid(np.array([[280.0, float("nan")], [280.0, 280.0]]))

    def test_values_are_frozen_copies(self):
        source = np.full((2, 2), 280.0)
        grid = make_grid(source)
        source[0, 0] = 300.0
        assert grid.values[0, 0] == 280.0
        with pytest.raises(ValueError):
            grid.values[0, 0] = 290.0


    def test_grids_and_stacks_compare_by_identity(self):
        a = make_grid(np.full((2, 2), 280.0))
        b = make_grid(np.full((2, 2), 280.0))
        assert a.geometry == b.geometry
        assert a != b and a == a
        stack = GridStack([a])
        assert stack != GridStack([a]) and stack == stack
        assert len({a, b, a, stack, stack}) == 3


class TestRegionBox:
    BOX = RegionBox("DN", 15.8, 16.05, 107.6, 108.4)

    def test_bounds_are_closed(self):
        assert self.BOX.contains(15.8, 107.6)
        assert self.BOX.contains(16.05, 108.4)
        assert not self.BOX.contains(16.051, 108.0)

    def test_intersects_touching_edges(self):
        other = RegionBox("X", 16.05, 17.0, 108.0, 109.0)
        assert self.BOX.intersects(other)
        apart = RegionBox("Y", 16.06, 17.0, 108.0, 109.0)
        assert not self.BOX.intersects(apart)

    def test_translated(self):
        moved = translated(self.BOX, 0.1, -0.2)
        assert moved.lat_min == pytest.approx(15.9)
        assert moved.lon_max == pytest.approx(108.2)
        assert moved.name == self.BOX.name

    def test_inverted_or_empty_bounds_rejected(self):
        with pytest.raises(ValueError):
            RegionBox("bad", 16.0, 15.0, 107.0, 108.0)
        with pytest.raises(ValueError):
            RegionBox("flat", 15.0, 15.0, 107.0, 108.0)


GOLDEN_FRAME = (
    "GSF1\n"
    "variable=BT\n"
    "units=K\n"
    "time=2020-10-05T00:00:00Z\n"
    "nrows=2\n"
    "ncols=2\n"
    "lat_min=10.0\n"
    "lon_min=20.0\n"
    "dlat=1.0\n"
    "dlon=1.0\n"
    "nodata=-9999.0\n"
    "200.5 201.0\n"
    "202.0 203.0\n"
)


class TestGsfSerialization:
    def golden_stack(self):
        return make_stack([[[200.5, 201.0], [202.0, 203.0]]], variable=Variable.BT)

    def test_canonical_form(self):
        assert gsf_text(self.golden_stack()) == GOLDEN_FRAME

    def test_frames_separated_by_dashes(self):
        stack = make_stack(
            [[[200.5, 201.0], [202.0, 203.0]], [[210.0, 211.0], [212.0, 213.0]]],
            variable=Variable.BT,
        )
        text = gsf_text(stack)
        assert "\n---\n" in text
        assert text.endswith("\n")
        assert text.count("GSF1") == 2

    def test_parse_recovers_values_exactly(self):
        stack = parse_gsf(io.StringIO(GOLDEN_FRAME))
        assert len(stack.frames) == 1
        frame = stack.frames[0]
        assert frame.variable == Variable.BT
        assert frame.units == "K"
        assert frame.time == T0
        assert frame.values.tolist() == [[200.5, 201.0], [202.0, 203.0]]

    def test_row_zero_is_northernmost(self):
        frame = parse_gsf(io.StringIO(GOLDEN_FRAME)).frames[0]
        assert frame.geometry.lats().tolist() == [11.0, 10.0]

    def test_reserialization_is_byte_identical(self):
        assert gsf_text(parse_gsf(io.StringIO(GOLDEN_FRAME))) == GOLDEN_FRAME

    def test_shortest_decimals_survive_round_trip(self):
        tricky = [[0.1, 1e-17], [123456.789012345, 2.5000000000000004]]
        stack = make_stack([tricky], variable=Variable.RAIN_RATE)
        back = parse_gsf(io.StringIO(gsf_text(stack)))
        assert np.array_equal(back.frames[0].values, np.asarray(tricky))

    def test_file_round_trip(self, tmp_path):
        stack = self.golden_stack()
        path = tmp_path / "bt.gsf"
        write_gsf(stack, path)
        assert path.read_text(encoding="utf-8") == GOLDEN_FRAME
        back = read_gsf(path)
        assert gsf_text(back) == GOLDEN_FRAME


class TestGsfErrors:
    def test_missing_magic(self):
        with pytest.raises(GsfError, match="GSF1"):
            parse_gsf(io.StringIO(GOLDEN_FRAME.replace("GSF1\n", "GSF2\n")))

    def test_missing_header_key_names_line(self):
        broken = GOLDEN_FRAME.replace("nodata=-9999.0\n", "")
        with pytest.raises(GsfError, match="line 11"):
            parse_gsf(io.StringIO(broken))

    def test_header_keys_must_be_in_order(self):
        swapped = GOLDEN_FRAME.replace(
            "nrows=2\nncols=2\n", "ncols=2\nnrows=2\n"
        )
        with pytest.raises(GsfError, match="line 5"):
            parse_gsf(io.StringIO(swapped))

    def test_short_data_row_names_line(self):
        broken = GOLDEN_FRAME.replace("200.5 201.0\n", "200.5\n")
        with pytest.raises(GsfError, match="line 12"):
            parse_gsf(io.StringIO(broken))

    def test_non_numeric_value(self):
        broken = GOLDEN_FRAME.replace("200.5", "oops")
        with pytest.raises(GsfError, match="line 12"):
            parse_gsf(io.StringIO(broken))

    def test_bad_time_names_its_line(self):
        broken = GOLDEN_FRAME.replace("time=2020-10-05T00:00:00Z", "time=yesterday")
        with pytest.raises(GsfError, match=r"^line 4: .*'yesterday'"):
            parse_gsf(io.StringIO(broken))

    def test_bad_integer_names_its_line(self):
        broken = GOLDEN_FRAME.replace("nrows=2", "nrows=two")
        with pytest.raises(GsfError, match=r"^line 5: .*'two'"):
            parse_gsf(io.StringIO(broken))

    def test_bad_float_names_its_line(self):
        broken = GOLDEN_FRAME.replace("lat_min=10.0", "lat_min=x")
        with pytest.raises(GsfError, match=r"^line 7: .*'x'"):
            parse_gsf(io.StringIO(broken))

    def test_unknown_variable(self):
        broken = GOLDEN_FRAME.replace("variable=BT", "variable=VORTICITY")
        with pytest.raises(GsfError, match="VORTICITY"):
            parse_gsf(io.StringIO(broken))

    def test_duplicate_frame_times_rejected(self):
        text = GOLDEN_FRAME + "---\n" + GOLDEN_FRAME
        with pytest.raises(GsfError, match="strictly increasing"):
            parse_gsf(io.StringIO(text))

    def test_unsorted_frame_times_rejected(self):
        earlier = GOLDEN_FRAME.replace("2020-10-05T00:00:00Z", "2020-10-04T00:00:00Z")
        with pytest.raises(GsfError, match="strictly increasing"):
            parse_gsf(io.StringIO(GOLDEN_FRAME + "---\n" + earlier))


class TestGsfStreaming:
    """Writing and reading hold one line or one frame of text, never the
    whole file."""

    def peak_bytes(self, fn, *args):
        tracemalloc.start()
        try:
            result = fn(*args)
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_write_and_read_peaks_stay_below_the_file_size(self, tmp_path):
        rng = np.random.default_rng(0)
        stack = make_stack([rng.uniform(180.0, 300.0, size=(100, 120)) for _ in range(20)],
                           variable=Variable.BT)
        path = tmp_path / "bt.gsf"
        _, write_peak = self.peak_bytes(write_gsf, stack, path)
        size = path.stat().st_size
        assert size > 4_000_000
        assert write_peak < size / 4
        back, read_peak = self.peak_bytes(read_gsf, path)
        value_bytes = sum(f.values.nbytes for f in back)
        assert read_peak < value_bytes + size / 2
        assert all(np.array_equal(a.values, b.values) for a, b in zip(stack, back))


def two_frames(first: str, second: str) -> str:
    """GOLDEN_FRAME twice, ten minutes apart, with one header line of each
    frame replaced by ``first`` and ``second`` (``key=value`` lines)."""
    key = first.partition("=")[0] + "="
    old = next(line for line in GOLDEN_FRAME.splitlines() if line.startswith(key))
    later = GOLDEN_FRAME.replace("2020-10-05T00:00:00Z", "2020-10-05T00:10:00Z")
    return GOLDEN_FRAME.replace(old, first) + "---\n" + later.replace(old, second)


class TestGsfGeometryReuse:
    """A stack read back holds one geometry object when its frames' six
    geometry values are the same numbers, with the bytes and errors of a
    geometry per frame."""

    def test_read_back_stack_holds_one_geometry(self, tmp_path):
        rng = np.random.default_rng(4)
        stack = make_stack([rng.uniform(180.0, 300.0, size=(3, 4)) for _ in range(6)],
                           variable=Variable.BT, dt_s=600)
        path = tmp_path / "bt.gsf"
        write_gsf(stack, path)
        back = read_gsf(path)
        assert len({id(f.geometry) for f in back}) == 1
        assert len({id(f.geometry.lats()) for f in back}) == 1
        again = tmp_path / "again.gsf"
        write_gsf(back, again)
        assert again.read_bytes() == path.read_bytes()

    def test_zero_and_negative_zero_keep_their_own_geometry(self):
        text = two_frames("lat_min=0.0", "lat_min=-0.0")
        back = parse_gsf(io.StringIO(text))
        assert back[0].geometry is not back[1].geometry
        assert gsf_text(back) == text

    def test_nan_geometry_still_differs(self):
        with pytest.raises(GsfError) as exc:
            parse_gsf(io.StringIO(two_frames("dlat=nan", "dlat=nan")))
        assert str(exc.value) == "frame 1 geometry differs from frame 0"

    def test_differing_geometry_error_is_unchanged(self):
        with pytest.raises(GsfError) as exc:
            parse_gsf(io.StringIO(two_frames("dlat=1.0", "dlat=2.0")))
        assert str(exc.value) == "frame 1 geometry differs from frame 0"

    def test_equal_values_written_differently_share_one_geometry(self):
        back = parse_gsf(io.StringIO(two_frames("dlat=1.0", "dlat=1.00")))
        assert back[0].geometry is back[1].geometry
        assert gsf_text(back) == two_frames("dlat=1.0", "dlat=1.0")


class TestGridStack:
    def test_mixed_geometry_rejected(self):
        g1 = make_grid(np.full((2, 2), 280.0))
        g2 = make_grid(np.full((3, 2), 280.0), time=T0 + timedelta(seconds=600))
        with pytest.raises(ValueError, match="geometry"):
            GridStack([g1, g2])

    def test_mixed_variable_rejected(self):
        g1 = make_grid(np.full((2, 2), 280.0))
        g2 = make_grid(np.full((2, 2), 5.0), variable=Variable.RAIN_RATE,
                       time=T0 + timedelta(seconds=600))
        with pytest.raises(ValueError, match="variable"):
            GridStack([g1, g2])

    def test_between_is_trailing_half_open(self):
        stack = make_stack([np.zeros((2, 2))] * 3, dt_s=1800)
        t1 = T0 + timedelta(seconds=1800)
        picked = stack.between(T0, t1)
        assert [g.time for g in picked] == [t1]
        picked = stack.between(T0 - timedelta(seconds=1), T0)
        assert [g.time for g in picked] == [T0]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(1, 3600), min_size=1, max_size=12),
           st.integers(-600, 30000), st.integers(-600, 30000))
    def test_between_equals_a_scan_of_every_frame(self, gaps, lo_s, hi_s):
        times = [T0 + timedelta(seconds=s) for s in np.cumsum(gaps).tolist()]
        stack = GridStack([make_grid(np.full((1, 1), 280.0), time=t) for t in times])
        # Window ends on frame times as well as between them.
        start, end = (times[s % len(times)] if s % 3 == 0 else T0 + timedelta(seconds=s)
                      for s in (lo_s, hi_s))
        assert stack.between(start, end) == [f for f in stack.frames if start < f.time <= end]

    def test_cadence(self):
        stack = make_stack([np.zeros((2, 2))] * 3, dt_s=600)
        assert stack.cadence_s() == 600.0

    def test_cadence_is_smallest_spacing_across_a_gap(self):
        grids = list(make_stack([np.zeros((2, 2))] * 5, dt_s=600))
        assert GridStack(grids[:2] + grids[3:]).cadence_s() == 600.0

    def test_cadence_of_one_frame_raises(self):
        with pytest.raises(ValueError, match="single frame"):
            make_stack([np.zeros((2, 2))]).cadence_s()


@st.composite
def random_stacks(draw):
    nrows = draw(st.integers(1, 5))
    ncols = draw(st.integers(1, 5))
    dlat = draw(st.sampled_from([0.05, 0.25, 1.0]))
    dlon = draw(st.sampled_from([0.05, 0.25, 1.0]))
    lat_min = draw(st.floats(-60.0, 50.0, allow_nan=False, allow_infinity=False))
    lon_min = draw(st.floats(-180.0, 170.0, allow_nan=False, allow_infinity=False))
    nframes = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    frames = []
    for _ in range(nframes):
        values = rng.uniform(150.0, 350.0, size=(nrows, ncols))
        values[rng.uniform(size=(nrows, ncols)) < 0.15] = DEFAULT_NODATA
        frames.append(values)
    geometry = GridGeometry(lat_min=lat_min, lon_min=lon_min, dlat=dlat, dlon=dlon,
                            nrows=nrows, ncols=ncols)
    return make_stack(frames, variable=Variable.BT, geometry=geometry, dt_s=600)


class TestGsfRoundTripProperty:
    @settings(max_examples=60, deadline=None)
    @given(random_stacks())
    def test_parse_serialize_round_trip(self, stack):
        text = gsf_text(stack)
        back = parse_gsf(io.StringIO(text))
        assert gsf_text(back) == text
        for a, b in zip(stack.frames, back.frames):
            assert a.time == b.time
            assert np.array_equal(a.values, b.values)


def gsf_outcome(text: str, newline: str = "\n"):
    """parse_gsf's frames, values as raw bytes, or its GsfError text."""
    try:
        stack = parse_gsf(io.StringIO(text, newline=newline))
    except GsfError as exc:
        return str(exc)
    return [(f.variable, f.units, f.time, f.geometry, f.nodata, f.values.shape, f.values.tobytes())
            for f in stack]


def reference_outcome(text: str, newline: str = "\n"):
    """gsf_outcome with every payload read by the per-token oracle."""
    with mock.patch.object(geogrid, "_parse_payload", gsf_payload_loop):
        return gsf_outcome(text, newline)


# Tokens and separators where numpy's reader and ``float`` may part ways.
ODD_TOKENS = ["1_0", "\u0662\u0660\u0660", "#x", "#", "nan", "-nan", "inf", "-Infinity",
              "1e400", "0x10", "-0.0", "+.5", "5.", "1e-320", "2", "1,5", '"3"', "\x00", "\u200b7"]
ODD_SEPARATORS = [" ", "  ", "\t", "\u2003", "\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u3000",
                  "\r", "\r\n", "\n"]
BLANK_LINES = ["", " ", "\t", "\x0c", "\r", "\u2003"]


@st.composite
def mutated_gsf_texts(draw):
    """Canonical text of a random BT or LOG_RATIO stack (any finite
    LOG_RATIO bits, so 17-digit and subnormal tokens occur), with up to
    four payload mutations."""
    variable = draw(st.sampled_from([Variable.BT, Variable.LOG_RATIO]))
    nrows, ncols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    frames = []
    for _ in range(draw(st.integers(1, 2))):
        if variable is Variable.BT:
            values = rng.uniform(150.0, 350.0, size=(nrows, ncols))
        else:
            values = rng.integers(0, 2**64, size=(nrows, ncols), dtype=np.uint64).view(np.float64)
            values[~np.isfinite(values)] = 0.0
        values[rng.uniform(size=(nrows, ncols)) < 0.1] = DEFAULT_NODATA
        frames.append(values)
    lines = gsf_text(make_stack(frames, variable=variable)).split("\n")[:-1]
    data = [i for i, line in enumerate(lines) if line not in ("GSF1", "---") and "=" not in line]
    dropped = set()
    for _ in range(draw(st.integers(0, 4))):
        i, other = draw(st.sampled_from(data)), draw(st.sampled_from(data))
        if dropped & {i, other}:
            continue
        toks = lines[i].split(" ")
        kind = draw(st.sampled_from(["token", "insert", "separator", "move", "blank", "drop",
                                     "dup", "crlf"]))
        if kind == "token":
            toks[draw(st.integers(0, len(toks) - 1))] = draw(st.sampled_from(ODD_TOKENS))
            lines[i] = " ".join(toks)
        elif kind == "insert":
            toks.insert(draw(st.integers(0, len(toks))), draw(st.sampled_from(ODD_TOKENS)))
            lines[i] = " ".join(toks)
        elif kind == "separator":
            j = draw(st.integers(0, len(toks)))
            lines[i] = " ".join(toks[:j]) + draw(st.sampled_from(ODD_SEPARATORS)) + " ".join(toks[j:])
        elif kind == "move" and i != other:  # a ragged pair with the right total
            lines[other] += " " + toks.pop()
            lines[i] = " ".join(toks)
        elif kind == "blank":
            lines[i] = draw(st.sampled_from(BLANK_LINES))
        elif kind == "drop":
            dropped.add(i)
        elif kind == "dup":
            lines[i] += "\n" + lines[i]
        elif kind == "crlf":
            lines[i] += "\r"
    return "".join(line + "\n" for i, line in enumerate(lines) if i not in dropped)


LOG_RATIO_FRAME = GOLDEN_FRAME.replace("variable=BT\nunits=K\n", "variable=LOG_RATIO\nunits=dB\n")
GOLDEN_PAYLOAD = "200.5 201.0\n202.0 203.0\n"
FINITE = "line 1: invalid frame: grid values must be finite (use the nodata sentinel for gaps)"


class TestGsfPayloadOracle:
    """Frame payloads parse to the per-token oracle's value bits, or to its
    exact GsfError text."""

    @pytest.mark.parametrize(
        "payload,newline,expected",
        [
            ("1_0 201.0\n202.0 203.0\n", "\n", [[10.0, 201.0], [202.0, 203.0]]),
            ("\u0662\u0660\u0660 201.0\n202.0 203.0\n", "\n", [[200.0, 201.0], [202.0, 203.0]]),
            ("200.5\u2003201.0\n202.0 203.0\n", "\n", [[200.5, 201.0], [202.0, 203.0]]),
            ("200.5\t201.0\n202.0 203.0\n", "\n", [[200.5, 201.0], [202.0, 203.0]]),
            ("200.5 201.0\r\n202.0 203.0\r\n", "", [[200.5, 201.0], [202.0, 203.0]]),
            ("200.5 201.0 #x\n202.0 203.0\n", "\n", "line 12: payload error: expected 2 values, got 3"),
            ("200.5 #x\n202.0 203.0\n", "\n", "line 12: bad value: could not convert string to float: '#x'"),
            ("200.5 201.0 202.0\n203.0\n", "\n", "line 12: payload error: expected 2 values, got 3"),
            ("200.5 201.0\n\n", "\n", "line 13: payload error: expected 2 values, got 0"),
            ("\n\t\n", "\n", "line 12: payload error: expected 2 values, got 0"),
            ("nan 201.0\n202.0 203.0\n", "\n", FINITE),
            ("inf 201.0\n202.0 203.0\n", "\n", FINITE),
            ("1e400 201.0\n202.0 203.0\n", "\n", FINITE),
            ("0x10 201.0\n202.0 203.0\n", "\n", "line 12: bad value: could not convert string to float: '0x10'"),
        ],
        ids=["underscore", "arabic_indic", "em_space", "tab", "crlf", "hash_extra", "hash_token",
             "ragged_pair", "blank_line", "all_blank", "nan", "inf", "overflow", "hex"],
    )
    def test_cases_match_the_oracle(self, payload, newline, expected):
        text = LOG_RATIO_FRAME.replace(GOLDEN_PAYLOAD, payload)
        got = gsf_outcome(text, newline)
        assert got == reference_outcome(text, newline)
        if isinstance(expected, str):
            assert got == expected
        else:
            assert got[0][-1] == np.array(expected).tobytes()

    def test_zero_row_frame_matches_the_oracle(self):
        text = LOG_RATIO_FRAME.replace("nrows=2", "nrows=0").replace(GOLDEN_PAYLOAD, "")
        got = gsf_outcome(text)
        assert got == reference_outcome(text)
        assert got == "line 1: invalid frame: grid shape must be >= 1x1, got 0x2"

    @settings(max_examples=300, deadline=None)
    @given(mutated_gsf_texts(), st.sampled_from(["\n", ""]))
    def test_mutated_frames_match_the_oracle(self, text, newline):
        assert gsf_outcome(text, newline) == reference_outcome(text, newline)

    def test_reader_rounds_17_digit_and_subnormal_tokens_like_float(self):
        rng = np.random.default_rng(17)
        n = 10_000
        digits = rng.integers(10**16, 10**17, size=n)
        exps = rng.integers(-340, 309, size=n)
        tokens = [f"{d // 10**16}.{d % 10**16:016d}e{e}" for d, e in zip(digits.tolist(), exps.tolist())]
        subnormal = rng.integers(1, 2**52, size=n, dtype=np.uint64).view(np.float64).tolist()
        tokens += [repr(x) if k % 2 else f"{x:.17g}" for k, x in enumerate(subnormal)]
        signs = rng.uniform(size=2 * n) < 0.5
        tokens = ["-" + t if neg else t for t, neg in zip(tokens, signs)]
        lines = [" ".join(tokens[k:k + 100]) for k in range(0, 2 * n, 100)]

        loaded = []
        loadtxt = np.loadtxt

        def spy(*args, **kwargs):
            loaded.append(loadtxt(*args, **kwargs))
            return loaded[-1]

        with mock.patch.object(np, "loadtxt", spy):
            values = geogrid._parse_payload(lines, 100, 1)
        assert len(loaded) == 1 and values is loaded[0]  # numpy's reader, not the loop
        expected = np.array([[float(t) for t in line.split()] for line in lines])
        assert values.shape == expected.shape
        assert values.tobytes() == expected.tobytes()


class TestRegionIndices:
    def grid_16(self):
        return make_grid(np.arange(16, dtype=float).reshape(4, 4) + 200.0, geometry=GEOM_4X4)

    def window(self, grid, box):
        """The block region_indices selects, checked against the per-cell oracle."""
        window = region_indices(grid.geometry, box)
        cells = region_cells(grid.geometry, box)
        if window is None:
            assert cells == set()
            return None
        rows, cols = window
        assert {(r, c) for r in range(rows.start, rows.stop)
                for c in range(cols.start, cols.stop)} == cells
        block = grid.values[window]
        assert np.shares_memory(block, grid.values)
        return block

    def test_northeast_quadrant(self):
        box = RegionBox("NE", 12.0, 13.0, 22.0, 23.0)
        block = self.window(self.grid_16(), box)
        assert block.tolist() == [[202.0, 203.0], [206.0, 207.0]]

    def test_bounds_are_closed_on_cell_centers(self):
        box = RegionBox("row", 11.0, 12.0, 20.0, 23.0)
        block = self.window(self.grid_16(), box)
        assert block.tolist() == [[204.0, 205.0, 206.0, 207.0],
                                  [208.0, 209.0, 210.0, 211.0]]

    def test_box_on_the_extent_selects_everything(self):
        grid = self.grid_16()
        geom = grid.geometry
        box = RegionBox("extent", geom.lat_min, geom.lat_max, geom.lon_min, geom.lon_max)
        assert np.array_equal(self.window(grid, box), grid.values)

    def test_far_box_is_none(self):
        box = RegionBox("far", 50.0, 51.0, 20.0, 21.0)
        assert self.window(self.grid_16(), box) is None

    @pytest.mark.parametrize("seed", range(8))
    def test_random_boxes_match_oracle(self, seed):
        rng = np.random.default_rng(seed)
        geom = GridGeometry(
            lat_min=float(rng.uniform(10, 12)), lon_min=float(rng.uniform(100, 102)),
            dlat=float(rng.choice([0.1, 0.3])), dlon=float(rng.choice([0.1, 0.3])),
            nrows=int(rng.integers(1, 9)), ncols=int(rng.integers(1, 9)))
        grid = make_grid(rng.uniform(150, 350, size=(geom.nrows, geom.ncols)), geometry=geom)
        for _ in range(20):
            lat0, lon0 = rng.uniform(9.5, 15.0), rng.uniform(99.5, 105.0)
            box = RegionBox("B", lat0, lat0 + rng.uniform(0.01, 2.0),
                            lon0, lon0 + rng.uniform(0.01, 2.0))
            self.window(grid, box)


class TestRegionsFile:
    def test_round_trip(self, tmp_path):
        regions = [
            RegionBox("DN", 15.8, 16.05, 107.6, 108.4),
            RegionBox("TT", 16.1, 16.6, 107.0, 108.2),
        ]
        path = tmp_path / "regions.txt"
        write_regions(regions, path)
        assert read_regions(path) == regions

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "regions.txt"
        path.write_text(
            "# watch boxes\n\nDN 15.8 16.05 107.6 108.4\n  # trailing comment line\n",
            encoding="utf-8",
        )
        regions = read_regions(path)
        assert len(regions) == 1
        assert regions[0] == RegionBox("DN", 15.8, 16.05, 107.6, 108.4)

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "regions.txt"
        path.write_text("DN 15.8 16.05 107.6\n", encoding="utf-8")
        with pytest.raises(ValueError, match=":1:"):
            read_regions(path)
