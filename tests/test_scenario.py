"""Synthetic multi-sensor scenarios and their ground-truth records."""

from __future__ import annotations

import math
from datetime import timedelta

import numpy as np
import pytest

from cswarn.convection import detect
from cswarn.geogrid import GridGeometry, KM_PER_DEG, RegionBox
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
from oracles import cell_lat, cell_lon

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


class TestPaperReplaySpec:
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
