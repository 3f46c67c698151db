"""Synthetic multi-sensor scenarios and their ground-truth records."""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import math
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cswarn import scenario
from cswarn.convection import detect
from cswarn.geogrid import GridGeometry, KM_PER_DEG, RegionBox, format_time
from cswarn.scenario import (
    CellSpec,
    ScenarioSpec,
    generate,
    paper_replay_spec,
    read_scenario,
    read_truth_csv,
    truth_flood_grid,
    write_truth_csv,
)
from cswarn.tracking import build_tracks, motion_vector
from cswarn.wind import SYNTH1, WindCategory, categorize

from conftest import T0, gsf_text
from oracles import cell_lat, cell_lon, render_reference

GEOM = GridGeometry(lat_min=15.0, lon_min=105.0, dlat=0.05, dlon=0.05, nrows=40, ncols=40)


def small_spec(cells=(), duration_s=3600, **kw):
    return ScenarioSpec(geometry=GEOM, start_time=T0, duration_s=duration_s,
                        cells=tuple(cells), **kw)


def storm(lat=16.0, lon=106.0, speed=0.0, bearing=270.0, **kw):
    return CellSpec(name="storm", lat=lat, lon=lon, speed_mps=speed,
                    bearing_deg=bearing, **kw)


class TestSpecValidation:
    def test_speed_capped(self):
        with pytest.raises(ValueError):
            storm(speed=61.0)

    def test_min_bt_floor(self):
        with pytest.raises(ValueError):
            storm(min_bt_K=170.0)

    def test_negative_peaks_rejected(self):
        with pytest.raises(ValueError):
            storm(rain_peak_mmh=-1.0)

    def test_flooded_names_must_be_regions(self):
        with pytest.raises(ValueError):
            small_spec(flooded_regions=frozenset({"ghost"}))

    def test_duplicate_cell_names_rejected(self):
        with pytest.raises(ValueError):
            small_spec(cells=(storm(), storm()))

    def test_frame_seconds_cover_duration_inclusive(self):
        spec = small_spec(duration_s=3000)
        assert spec.frame_seconds(600) == [0, 600, 1200, 1800, 2400, 3000]
        assert spec.end_time == T0 + timedelta(seconds=3000)


class TestGenerateBasics:
    def test_zero_cell_spec_is_quiet(self):
        data = generate(small_spec())
        for frame in data.bt.frames:
            assert np.all(frame.values == 280.0)
        for frame in data.rain.frames:
            assert np.all(frame.values == 0.0)
        for stack in data.wind.values():
            for frame in stack.frames:
                assert np.all(frame.values == 0.0)
        assert data.truth.centroids == ()
        assert data.truth.intersections == {}

    def test_stationary_cell_repeats_and_detects(self):
        data = generate(small_spec(cells=[storm(speed=0.0)]))
        first = data.bt.frames[0].values
        for frame in data.bt.frames[1:]:
            assert np.array_equal(frame.values, first)
        assert float(first.min()) == 200.0
        assert len(detect(data.bt.frames[0])) == 1

    def test_centroid_truth_follows_constant_velocity(self):
        data = generate(small_spec(cells=[storm(speed=10.0, bearing=270.0)],
                                   duration_s=3000))
        samples = [s for s in data.truth.centroids if s.cell == "storm"]
        assert len(samples) == 6
        assert all(s.speed_mps == 10.0 and s.bearing_deg == 270.0 for s in samples)
        lons = [s.lon for s in samples]
        assert all(b < a for a, b in zip(lons, lons[1:]))
        step_deg = 10.0 * 600.0 / 1000.0 / (KM_PER_DEG * math.cos(math.radians(16.0)))
        assert lons[0] - lons[1] == pytest.approx(step_deg, rel=1e-9)

    def test_detection_recovers_truth_motion(self):
        data = generate(small_spec(cells=[storm(speed=10.0, bearing=270.0)],
                                   duration_s=3000))
        frames = [detect(frame) for frame in data.bt.frames]
        tracks = build_tracks(frames)
        assert len(tracks) == 1
        mv = motion_vector(tracks[0])
        assert abs(mv.speed_mps - 10.0) / 10.0 <= 0.05
        err = abs(mv.bearing_deg - 270.0) % 360.0
        assert min(err, 360.0 - err) <= 5.0

    def test_rain_center_trails_by_the_lag(self):
        spec = small_spec(cells=[storm(speed=10.0, bearing=270.0, rain_peak_mmh=10.0)],
                          duration_s=7200, rain_lag_s=1800)
        data = generate(spec)
        cell = spec.cells[0]
        frame = next(f for f in data.rain.frames
                     if (f.time - T0).total_seconds() == 5400)
        r, c = np.unravel_index(np.argmax(frame.values), frame.values.shape)
        lagged_lat, lagged_lon = cell.position(5400 - 1800)
        assert cell_lat(frame.geometry, int(r)) == pytest.approx(lagged_lat, abs=GEOM.dlat)
        assert cell_lon(frame.geometry, int(c)) == pytest.approx(lagged_lon, abs=GEOM.dlon)

    def test_wind_ring_peaks_at_requested_speed(self):
        spec = small_spec(cells=[storm(wind_peak_mps=20.0)])
        data = generate(spec)
        peak = max(float(f.values.max()) for f in data.wind["lr"].frames)
        # The ring maximum falls between grid-cell centres, so the sampled
        # peak sits just below the configured speed.
        assert 19.5 <= peak <= 20.0
        assert categorize(peak) == WindCategory.SEVERE

    def test_nrcs_is_forward_model_of_wind(self):
        spec = small_spec(cells=[storm(wind_peak_mps=15.0)])
        data = generate(spec)
        for wind_frame, nrcs_frame in zip(data.wind["lr"].frames, data.nrcs.frames):
            expected = SYNTH1.sigma0(wind_frame.values, 35.0, 0.0)
            assert np.array_equal(nrcs_frame.values, expected)

    def test_cell_leaving_grid_truncates_with_notice(self):
        west = storm(lat=16.0, lon=105.3, speed=20.0, bearing=270.0)
        data = generate(small_spec(cells=[west], duration_s=21600))
        assert any("storm" in n and "left the grid" in n for n in data.truth.notices)
        last = data.bt.frames[-1].values
        assert np.all(last == 280.0)

    def test_intersections_match_detection_brute_force(self):
        region = RegionBox("W", 15.7, 16.3, 105.2, 105.6)
        spec = small_spec(cells=[storm(speed=10.0, bearing=270.0)],
                          duration_s=14400, regions=(region,))
        data = generate(spec)
        first = None
        for frame in data.bt.frames:
            if any(obj.bbox.intersects(region) for obj in detect(frame)):
                first = frame.time
                break
        assert first is not None
        assert data.truth.intersections["W"] == first


class TestDeterminismAndNoise:
    def test_identical_seed_gives_identical_bytes(self):
        spec = small_spec(cells=[storm(speed=10.0, bearing=270.0, wind_peak_mps=18.0,
                                       rain_peak_mmh=9.0)],
                          duration_s=3600, noise_std=0.5)
        a = generate(spec, seed=7)
        b = generate(spec, seed=7)
        assert gsf_text(a.bt) == gsf_text(b.bt)
        assert gsf_text(a.rain) == gsf_text(b.rain)
        assert gsf_text(a.nrcs) == gsf_text(b.nrcs)

    def test_different_seed_changes_noisy_output(self):
        spec = small_spec(cells=[storm()], noise_std=0.5)
        a = generate(spec, seed=1)
        b = generate(spec, seed=2)
        assert gsf_text(a.bt) != gsf_text(b.bt)

    def test_noise_free_output_ignores_seed(self):
        spec = small_spec(cells=[storm()])
        a = generate(spec, seed=1)
        b = generate(spec, seed=2)
        assert gsf_text(a.bt) == gsf_text(b.bt)


def assert_same_render(got, want):
    """Equal bit for bit: every stack's frame times, variables, units and
    value bytes, and the truth record down to each float's repr."""
    assert list(got.wind) == list(want.wind)
    pairs = [(got.bt, want.bt), (got.rain, want.rain), (got.nrcs, want.nrcs),
             *((got.wind[k], want.wind[k]) for k in want.wind)]
    for a, b in pairs:
        if b is None:
            assert a is None
            continue
        assert [(f.time, f.variable, f.units) for f in a] == [(f.time, f.variable, f.units) for f in b]
        assert [f.values.tobytes() for f in a] == [f.values.tobytes() for f in b]
    assert repr(got.truth) == repr(want.truth)


@st.composite
def scenario_specs(draw):
    """Small specs with 0-3 cells, circular or elliptical, with and without
    rain and wind peaks, born late or dying early, some fast enough to
    leave the grid; noise on or off; 0-2 wind sources; 1-3 regions."""
    step = draw(st.sampled_from([0.05, 0.1, 0.2]))
    geom = GridGeometry(lat_min=15.0, lon_min=105.0, dlat=step, dlon=step,
                        nrows=draw(st.integers(4, 24)), ncols=draw(st.integers(4, 24)))
    duration = draw(st.sampled_from([1800, 3600, 7200]))
    cells = []
    for i in range(draw(st.integers(0, 3))):
        birth = draw(st.sampled_from([0, 0, 600, 1800]))
        cells.append(CellSpec(
            name=f"c{i}",
            lat=draw(st.floats(geom.lat_min - step, geom.lat_max + step)),
            lon=draw(st.floats(geom.lon_min - step, geom.lon_max + step)),
            speed_mps=draw(st.sampled_from([0.0, 8.0, 60.0]) | st.floats(0.0, 60.0)),
            bearing_deg=draw(st.floats(0.0, 359.9)),
            min_bt_K=draw(st.floats(180.0, 230.0) | st.floats(230.0, 275.0)),
            radius_km=draw(st.floats(3.0, 120.0)),
            radius_ns_km=draw(st.none() | st.floats(3.0, 150.0)),
            wind_peak_mps=draw(st.just(0.0) | st.floats(0.5, 60.0)),
            rain_peak_mmh=draw(st.just(0.0) | st.floats(0.1, 50.0)),
            birth_s=birth,
            death_s=draw(st.none() | st.sampled_from([birth + 600, birth + 1800])),
        ))
    regions = tuple(
        RegionBox(f"R{i}", lat, lat + step * geom.nrows / 3, lon, lon + step * geom.ncols / 3)
        for i, (lat, lon) in enumerate(draw(st.lists(
            st.tuples(st.floats(geom.lat_min, geom.lat_max), st.floats(geom.lon_min, geom.lon_max)),
            min_size=1, max_size=3)))
    )
    wind_sources = draw(st.sampled_from([(), (("lr", 1800),), (("lr", 1800), ("hr", 600))]))
    return ScenarioSpec(
        geometry=geom, start_time=T0, duration_s=duration, cells=tuple(cells), regions=regions,
        wind_sources=wind_sources,
        bt_cadence_s=draw(st.sampled_from([600, 900])),
        rain_cadence_s=draw(st.sampled_from([600, 1800])),
        rain_lag_s=draw(st.sampled_from([0, 1800])),
        background_bt_K=draw(st.sampled_from([280.0, 300.0])),
        noise_std=draw(st.sampled_from([0.0, 0.0, 0.5, 3.0])),
    )


# Two overlapping storms (one circular, one elliptical), a third that is
# born late, dies early and runs off the west edge; noise on.
CROSSING = small_spec(
    cells=(storm(speed=5.0, rain_peak_mmh=12.0, wind_peak_mps=25.0),
           CellSpec("squall", 16.05, 106.1, 8.0, 270.0, min_bt_K=195.0, radius_km=20.0,
                    radius_ns_km=90.0, wind_peak_mps=18.0, rain_peak_mmh=6.0),
           CellSpec("runner", 15.9, 105.2, 60.0, 265.0, rain_peak_mmh=3.0, wind_peak_mps=40.0,
                    birth_s=600, death_s=6000)),
    duration_s=7200, regions=(RegionBox("W", 15.7, 16.3, 105.2, 105.6),), noise_std=0.5,
)


# Two cells that leave the grid at the same BT frame: their notices come
# in spec order, which is not their names' order.
SAME_FRAME_EXITS = small_spec(
    cells=(CellSpec("z", 16.6, 105.4, 60.0, 270.0, wind_peak_mps=20.0, rain_peak_mmh=5.0),
           CellSpec("a", 15.2, 105.42, 60.0, 270.0, radius_km=15.0, wind_peak_mps=30.0,
                    rain_peak_mmh=2.0)),
    regions=(RegionBox("W", 15.7, 16.3, 105.2, 105.6),), noise_std=0.5,
)

# A cell whose centroid is off the grid at 00:10 but which leaves at the
# 00:15 BT frame, a time that is no rain or wind time: exits are found on
# the BT cadence only, so the 00:10 rain and wind frames still hold it.
EXIT_BETWEEN_PRODUCTS = small_spec(
    cells=(CellSpec("east", 15.9, 106.9, 30.0, 90.0, radius_km=20.0, wind_peak_mps=25.0,
                    rain_peak_mmh=6.0),
           CellSpec("still", 15.6, 105.9, 0.0, 0.0, rain_peak_mmh=3.0)),
    duration_s=5400, regions=(RegionBox("E", 15.7, 16.1, 106.6, 107.0),),
    bt_cadence_s=900, rain_cadence_s=600, wind_sources=(("lr", 1800), ("hr", 600)), rain_lag_s=0,
)

# One gust ring on a grid wide enough that its exponent runs from 0 past
# the subnormal band of exp (-745.13 < x < -708.40) and on below
# EXP_ZERO_BELOW, through cells that land in each band; noise off.
RING_UNDERFLOW = small_spec(
    cells=(storm(radius_km=25.0, radius_ns_km=27.0, wind_peak_mps=30.0),),
    wind_sources=(("lr", 1800), ("hr", 600)),
)

# A 5 km cell on a grid of 0.2-degree cells 4.8 degrees across: its BT and
# rain Gaussians underflow to zero over most of the grid; noise on.
GAUSSIAN_UNDERFLOW = ScenarioSpec(
    geometry=GridGeometry(lat_min=13.0, lon_min=104.0, dlat=0.2, dlon=0.2, nrows=24, ncols=24),
    start_time=T0, duration_s=3600,
    cells=(CellSpec("dot", 15.3, 106.3, 10.0, 45.0, radius_km=5.0, wind_peak_mps=20.0,
                    rain_peak_mmh=30.0),),
    regions=(RegionBox("R", 15.0, 15.6, 106.0, 106.6),), noise_std=0.5,
)


def birth_rho2(spec):
    """The squared normalized distance of every grid cell from the first
    cell at its birth position."""
    cell, geom = spec.cells[0], spec.geometry
    return scenario._rho2(geom, cell, cell.lat, cell.lon, np.empty((geom.nrows, geom.ncols)))


class TestRenderingOracle:
    """generate renders each cell in place into one buffer; the oracle keeps
    the whole-array formulas that allocate per operation. Equal bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(scenario_specs(), st.integers(0, 2**16))
    @example(CROSSING, 3)
    @example(dataclasses.replace(CROSSING, noise_std=0.0), 0)
    @example(SAME_FRAME_EXITS, 1)
    @example(EXIT_BETWEEN_PRODUCTS, 0)
    @example(RING_UNDERFLOW, 0)
    @example(GAUSSIAN_UNDERFLOW, 4)
    def test_generate_equals_the_reference(self, spec, seed):
        assert_same_render(generate(spec, seed=seed), render_reference(spec, seed))

    def test_underflow_examples_reach_their_bands(self):
        rho = np.sqrt(birth_rho2(RING_UNDERFLOW))
        exponent = -((rho - scenario.RING_RHO) ** 2) / (2.0 * scenario.RING_SIGMA**2)
        ring = np.exp(exponent)
        assert exponent.max() > -1.0
        assert ((ring > 0.0) & (ring < np.finfo(np.float64).tiny)).any()
        assert (exponent < scenario.EXP_ZERO_BELOW).any()
        assert (np.exp(-birth_rho2(GAUSSIAN_UNDERFLOW) / 2.0) == 0.0).mean() > 0.5

    @pytest.mark.parametrize("size", [4, 67])
    def test_exp_is_plus_zero_below_the_ring_threshold(self, size):
        """The ring writes +0.0 where its exponent is below EXP_ZERO_BELOW
        instead of taking exp there; exp itself rounds those to +0.0."""
        assert scenario.EXP_ZERO_BELOW == -746
        for x in (-746.0, -800.0, -1e300, -np.inf):
            out = np.exp(np.full(size, x))
            assert out.tolist() == [0.0] * size and not np.signbit(out).any()
        assert np.exp(np.full(size, scenario.EXP_ZERO_BELOW + 1.0)).min() > 0.0

    def test_exit_examples_leave_where_they_should(self):
        assert generate(SAME_FRAME_EXITS).truth.notices == (
            "cell z left the grid at 2020-10-05T00:20:00Z; truncated",
            "cell a left the grid at 2020-10-05T00:20:00Z; truncated")
        data = generate(EXIT_BETWEEN_PRODUCTS)
        assert data.truth.notices == ("cell east left the grid at 2020-10-05T00:15:00Z; truncated",)
        assert EXIT_BETWEEN_PRODUCTS.cells[0].position(600)[1] > GEOM.lon_max + GEOM.dlon / 2
        assert data.rain.frames[1].values.max() > 3.0
        assert data.wind["hr"].frames[1].values.max() > 0.0

    def test_at_the_scaled_grid_size(self):
        geom = GridGeometry(lat_min=14.0, lon_min=103.0, dlat=0.05 / 3.0, dlon=0.05 / 3.0,
                            nrows=300, ncols=330)
        cells = tuple(
            CellSpec(f"squall{i}", lat, 108.2, 8.0, 270.0, min_bt_K=195.0, radius_km=25.0,
                     radius_ns_km=60.0, wind_peak_mps=22.0, rain_peak_mmh=12.0)
            for i, lat in enumerate((14.8, 16.0, 17.6))
        )
        spec = ScenarioSpec(geometry=geom, start_time=T0, duration_s=5400, cells=cells,
                            regions=(RegionBox("A", 15.8, 16.2, 107.6, 108.0),))
        data = generate(spec, seed=5)
        assert data.truth.intersections
        assert_same_render(data, render_reference(spec, 5))


class TestTruthCsv:
    def test_round_trip(self, tmp_path):
        spec = small_spec(cells=[storm(speed=10.0, bearing=270.0)],
                          duration_s=3000,
                          regions=(RegionBox("W", 15.7, 16.3, 105.2, 105.6),))
        truth = generate(spec).truth
        path = tmp_path / "truth.csv"
        write_truth_csv(truth, path)
        back = read_truth_csv(path)
        assert back.centroids == truth.centroids
        assert back.intersections == truth.intersections
        assert back.flooded == truth.flooded
        assert back.notices == truth.notices

    def written_truth(self, tmp_path):
        spec = small_spec(cells=[storm(speed=10.0, bearing=270.0)], duration_s=3000,
                          regions=(RegionBox("W", 15.7, 16.3, 105.2, 105.6),))
        path = tmp_path / "truth.csv"
        write_truth_csv(generate(spec).truth, path)
        return path

    @pytest.mark.parametrize("column, value, why", [
        ("lat", "abc", "could not convert string to float: 'abc'"),
        ("time", "noon", "bad timestamp 'noon': Invalid isoformat string: 'noon'"),
        ("record", "cloud", "unknown truth record kind 'cloud'"),
    ])
    def test_bad_cell_names_file_line_and_column(self, tmp_path, column, value, why):
        """``lat = abc`` used to fail as ``could not convert string to
        float: 'abc'``, naming no file, line or column."""
        path = self.written_truth(tmp_path)
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        rows[0][column] = value
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        with pytest.raises(ValueError) as err:
            read_truth_csv(path)
        assert str(err.value) == f"{path}:2: {column}: {why}"

    def test_byte_that_is_not_utf8_names_file_and_line(self, tmp_path):
        path = self.written_truth(tmp_path)
        lines = path.read_bytes().split(b"\r\n")
        lines[2] += b"\xff"
        path.write_bytes(b"\r\n".join(lines))
        with pytest.raises(ValueError) as err:
            read_truth_csv(path)
        assert str(err.value) == f"{path}: line 3: byte 0xff is not UTF-8 (invalid start byte)"

    def test_row_of_the_wrong_width_names_file_and_line(self, tmp_path):
        path = self.written_truth(tmp_path)
        path.write_text(path.read_text(encoding="utf-8") + "flooded,,W\n", encoding="utf-8")
        lines = path.read_text(encoding="utf-8").count("\n")
        with pytest.raises(ValueError) as err:
            read_truth_csv(path)
        assert str(err.value) == f"{path}:{lines}: expected 8 columns"

    def test_write_that_fails_midway_leaves_the_old_file(self, tmp_path, monkeypatch):
        """The writer used to open (and truncate) the target first."""
        truth = generate(small_spec(cells=[storm(speed=10.0)], duration_s=3000)).truth
        path = tmp_path / "truth.csv"
        path.write_text("old\n", encoding="utf-8")
        calls = []

        def format_time(t):
            calls.append(t)
            if len(calls) > 2:
                raise OSError("disk full")
            return t.isoformat()

        monkeypatch.setattr(scenario, "format_time", format_time)
        with pytest.raises(OSError, match="disk full"):
            write_truth_csv(truth, path)
        assert len(calls) == 3
        assert path.read_text(encoding="utf-8") == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["truth.csv"]

    def test_rows_end_in_crlf(self, tmp_path):
        path = tmp_path / "truth.csv"
        write_truth_csv(generate(small_spec(cells=[storm()], duration_s=600)).truth, path)
        data = path.read_bytes()
        assert data.startswith(b"record,time,name,lat,lon,speed_mps,bearing_deg,note\r\n")
        assert data.count(b"\r\n") == data.count(b"\n") == 3  # header, two frames


class TestScenarioFile:
    VALID = """\
[scenario]
lat_min = 15.0
lon_min = 105.0
dlat = 0.05
dlon = 0.05
nrows = 40
ncols = 40
start = 2020-10-05T00:00:00Z
duration_s = 3600
flooded = W
wind_sources = lr:1800, hr:3600

[cell storm]
lat = 16.0
lon = 106.0
speed_mps = 10.0
bearing_deg = 270.0
wind_peak = 18.0
rain_peak = 9.0

[region W]
lat_min = 15.7
lat_max = 16.3
lon_min = 105.2
lon_max = 105.6
"""

    def write(self, tmp_path, text):
        path = tmp_path / "scenario.ini"
        path.write_text(text, encoding="utf-8")
        return path

    def test_valid_file_parses(self, tmp_path):
        spec = read_scenario(self.write(tmp_path, self.VALID))
        assert spec.geometry == GEOM
        assert spec.start_time == T0
        assert spec.duration_s == 3600
        assert spec.flooded_regions == frozenset({"W"})
        assert spec.wind_sources == (("lr", 1800), ("hr", 3600))
        assert len(spec.cells) == 1 and spec.cells[0].name == "storm"
        assert spec.cells[0].wind_peak_mps == 18.0
        assert len(spec.regions) == 1

    def test_absent_optional_keys_take_the_dataclass_defaults(self, tmp_path):
        text = """\
[scenario]
lat_min = 15.0
lon_min = 105.0
dlat = 0.05
dlon = 0.05
nrows = 40
ncols = 40
start = 2020-10-05T00:00:00Z
duration_s = 3600

[cell storm]
lat = 16.0
lon = 106.0
speed_mps = 10.0
bearing_deg = 270.0
"""
        spec = read_scenario(self.write(tmp_path, text))
        assert spec == small_spec(cells=[storm(speed=10.0)])

    def test_unknown_key_rejected(self, tmp_path):
        path = self.write(tmp_path, self.VALID.replace("duration_s = 3600",
                                                       "duration_s = 3600\nbogus = 1"))
        with pytest.raises(ValueError, match="bogus"):
            read_scenario(path)

    def test_missing_required_key_rejected(self, tmp_path):
        path = self.write(tmp_path, self.VALID.replace("duration_s = 3600\n", ""))
        with pytest.raises(ValueError, match="duration_s"):
            read_scenario(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = self.write(tmp_path, self.VALID + "\n[volcano X]\nlat = 1\n")
        with pytest.raises(ValueError, match="volcano"):
            read_scenario(path)

    @pytest.mark.parametrize("old, new, section", [
        ("lat = 16.0", "lat = north", "[cell storm]"),
        ("speed_mps = 10.0", "speed_mps = 80", "[cell storm]"),
        ("duration_s = 3600", "duration_s = long", "[scenario]"),
        ("start = 2020-10-05T00:00:00Z", "start = yesterday", "[scenario]"),
        ("lat_max = 16.3", "lat_max = 16,3", "[region W]"),
    ])
    def test_bad_value_names_file_and_section(self, tmp_path, old, new, section):
        assert old in self.VALID
        path = self.write(tmp_path, self.VALID.replace(old, new))
        with pytest.raises(ValueError) as info:
            read_scenario(path)
        assert str(info.value).startswith(f"{path}: {section} ")

    @pytest.mark.parametrize("old, new, section", [
        ("lat = 16.0", "lat = nan", "[cell storm]"),
        ("dlat = 0.05", "dlat = inf", "[scenario]"),
        ("lat_max = 16.3", "lat_max = -inf", "[region W]"),
    ])
    def test_non_finite_value_names_file_section_and_key(self, tmp_path, old, new, section):
        assert old in self.VALID
        path = self.write(tmp_path, self.VALID.replace(old, new))
        with pytest.raises(ValueError) as info:
            read_scenario(path)
        key, value = new.split(" = ")
        assert str(info.value) == f"{path}: {section} bad {key}: {value!r} is not a finite number"

    def test_generated_spec_runs(self, tmp_path):
        spec = read_scenario(self.write(tmp_path, self.VALID))
        data = generate(spec)
        assert set(data.wind) == {"lr", "hr"}
        assert len(detect(data.bt.frames[0])) == 1


class TestTruthFloodGrid:
    def test_flooded_regions_get_wet_blocks(self):
        region = RegionBox("W", 15.7, 16.3, 105.2, 105.6)
        spec = small_spec(regions=(region,), flooded_regions=frozenset({"W"}))
        grid = truth_flood_grid(spec)
        assert grid.time == spec.end_time
        rows_any = np.any(grid.values == 1.0)
        assert rows_any
        lats = grid.geometry.lats()
        lons = grid.geometry.lons()
        wet_rows, wet_cols = np.nonzero(grid.values == 1.0)
        assert all(region.contains(lats[r], lons[c])
                   for r, c in zip(wet_rows, wet_cols))

    def test_dry_when_nothing_flooded(self):
        spec = small_spec(regions=(RegionBox("W", 15.7, 16.3, 105.2, 105.6),))
        grid = truth_flood_grid(spec)
        assert np.all(grid.values == 0.0)


def render_digest(data) -> str:
    """SHA-256 of every stack's name, frame times, units and value bytes,
    in stack order, and of the truth record's repr with ``flooded`` sorted
    (a frozenset's repr order depends on the string hash seed)."""
    h = hashlib.sha256()
    stacks = {"bt": data.bt, "rain": data.rain, **{f"wind_{k}": v for k, v in data.wind.items()},
              "nrcs": data.nrcs}
    for name, stack in stacks.items():
        h.update(f"{name}\n".encode())
        for frame in stack or ():
            h.update(f"{format_time(frame.time)} {frame.units}\n".encode())
            h.update(frame.values.tobytes())
    h.update(repr(dataclasses.replace(data.truth, flooded=sorted(data.truth.flooded))).encode())
    return h.hexdigest()


# The replay's render, pinned bit for bit: every stack and the truth record.
REPLAY_RENDER_SHA256 = "d1eb2af3cc51ec58028ec7874ec3a7821c160a3e126825ef380b49bd8532e6a2"


class TestPaperReplaySpec:
    def test_render_is_pinned(self):
        assert render_digest(generate(paper_replay_spec())) == REPLAY_RENDER_SHA256

    def test_grid_and_timing(self):
        spec = paper_replay_spec()
        geom = spec.geometry
        assert (geom.nrows, geom.ncols) == (120, 140)
        assert geom.dlat == geom.dlon == 0.05
        assert spec.duration_s == 86400
        assert spec.bt_cadence_s == 600
        assert spec.flooded_regions == frozenset({"TT", "DN", "QN1", "QN2"})
        assert len(spec.regions) == 8

    def test_generated_extremes_and_lead_headroom(self):
        spec = paper_replay_spec()
        data = generate(spec, seed=0)
        bt_min = min(float(f.values.min()) for f in data.bt.frames)
        assert bt_min == 200.0
        wind_peak = max(float(f.values.max()) for f in data.wind["lr"].frames)
        assert categorize(wind_peak) == WindCategory.SEVERE
        arrival = data.truth.intersections["DN"]
        assert (arrival - spec.start_time).total_seconds() > 7200
