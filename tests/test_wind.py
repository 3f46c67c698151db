"""Geophysical model functions, wind retrieval, and category summaries."""

from __future__ import annotations

from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cswarn.geogrid import GridGeometry, RegionBox, Variable
from cswarn.wind import (
    CMOD5N,
    SYNTH1,
    Gmf,
    GmfGeometry,
    WindCategory,
    categorize,
    categorize_grid,
    get_gmf,
    gmf_forward,
    gmf_invert,
    region_max_category,
    registered_gmfs,
    retrieve_wind_grid,
)

from conftest import T0, make_grid, make_stack
from oracles import cell_lat, cell_lon, region_cells

GEOM = GmfGeometry(incidence_deg=35.0, rel_azimuth_deg=0.0)


class TestCategories:
    def test_enum_is_ordered(self):
        assert [c.value for c in WindCategory] == [0, 1, 2, 3]
        assert WindCategory.SEVERE > WindCategory.MODERATE > WindCategory.WEAK > WindCategory.NONE

    @pytest.mark.parametrize("v,expected", [
        (0.0, WindCategory.NONE),
        (4.999, WindCategory.NONE),
        (5.0, WindCategory.WEAK),
        (9.999, WindCategory.WEAK),
        (10.0, WindCategory.MODERATE),
        (14.999, WindCategory.MODERATE),
        (15.0, WindCategory.SEVERE),
        (25.0, WindCategory.SEVERE),
    ])
    def test_bin_edges_are_lower_inclusive(self, v, expected):
        assert categorize(v) == expected

    def test_negative_speed_rejected(self):
        with pytest.raises(ValueError):
            categorize(-0.1)

    def test_custom_bins(self):
        assert categorize(12.0, bins=(10.0, 20.0, 30.0)) == WindCategory.WEAK

    def test_categorize_monotone(self):
        rng = np.random.default_rng(5)
        speeds = np.sort(rng.uniform(0.0, 40.0, size=200))
        cats = [categorize(float(v)).value for v in speeds]
        assert cats == sorted(cats)

    def test_categorize_grid_with_nodata(self):
        wind = make_grid([[3.0, 7.0], [-9999.0, 16.0]], variable=Variable.WIND_SPEED)
        cat = categorize_grid(wind)
        assert cat.variable == Variable.WIND_CAT
        assert cat.values.tolist() == [[0.0, 1.0], [-9999.0, 3.0]]


class TestForwardModels:
    def test_synth1_anchor_points(self):
        assert gmf_forward(SYNTH1, 0.0, GEOM) == 0.001
        assert gmf_forward(SYNTH1, 24.0, GEOM) == pytest.approx(0.125, rel=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(st.floats(0.0, 59.0), st.floats(0.01, 0.99))
    def test_synth1_strictly_increasing(self, v, frac):
        hi = v + frac
        assert gmf_forward(SYNTH1, hi, GEOM) > gmf_forward(SYNTH1, v, GEOM)

    def test_speed_domain_enforced(self):
        with pytest.raises(ValueError):
            gmf_forward(SYNTH1, -1.0, GEOM)
        with pytest.raises(ValueError):
            gmf_forward(SYNTH1, 61.0, GEOM)

    def test_incidence_range_enforced(self):
        with pytest.raises(ValueError, match="incidence"):
            gmf_forward(CMOD5N, 10.0, GmfGeometry(incidence_deg=10.0))

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            GmfGeometry(incidence_deg=90.0)
        with pytest.raises(ValueError):
            GmfGeometry(rel_azimuth_deg=360.0)

    @pytest.mark.parametrize("geom", [
        GmfGeometry(20.0, 0.0), GmfGeometry(35.0, 45.0),
        GmfGeometry(50.0, 180.0), GmfGeometry(35.0, 90.0),
    ])
    def test_cmod5n_positive_and_increasing(self, geom):
        speeds = np.arange(0.5, 25.5, 0.5)
        sigma = np.array([gmf_forward(CMOD5N, float(v), geom) for v in speeds])
        assert np.all(sigma > 0.0)
        assert np.all(np.diff(sigma) > 0.0)

    def test_sigma0_accepts_arrays(self):
        v = np.array([2.0, 10.0, 20.0])
        out = SYNTH1.sigma0(v, 35.0, 0.0)
        assert out.shape == (3,)
        assert np.all(np.diff(out) > 0)


class TestRegistry:
    def test_builtins_present(self):
        assert registered_gmfs() == ["cmod5n", "synth1"]
        assert get_gmf("synth1") is SYNTH1
        assert get_gmf("cmod5n") is CMOD5N

    def test_unknown_name_lists_alternatives(self):
        with pytest.raises(KeyError, match="synth1"):
            get_gmf("missing")

    def test_custom_model_round_trips(self):
        def cubic(v, incidence_deg, rel_azimuth_deg):
            return 1e-3 * (1.0 + np.asarray(v, dtype=float)) ** 3

        gmf = Gmf("cubic-test", cubic)
        for v in np.arange(0.0, 25.5, 0.5):
            sigma = gmf_forward(gmf, float(v), GEOM)
            back = gmf_invert(gmf, sigma, GEOM)
            assert abs(back.speed_mps - v) <= 1e-3
            assert back.clipped is None


class TestInversion:
    @pytest.mark.parametrize("gmf_name", ["synth1", "cmod5n"])
    def test_round_trip_within_tolerance(self, gmf_name):
        gmf = get_gmf(gmf_name)
        for v in np.arange(0.0, 25.5, 0.5):
            sigma = gmf_forward(gmf, float(v), GEOM)
            back = gmf_invert(gmf, sigma, GEOM)
            assert abs(back.speed_mps - float(v)) <= 1e-3

    def test_clip_high(self):
        sigma_hi = gmf_forward(SYNTH1, 25.0, GEOM) * 1.5
        result = gmf_invert(SYNTH1, sigma_hi, GEOM, v_max=25.0)
        assert result.speed_mps == 25.0
        assert result.clipped == "high"

    def test_clip_low(self):
        sigma_lo = gmf_forward(SYNTH1, 0.0, GEOM) * 0.5
        result = gmf_invert(SYNTH1, sigma_lo, GEOM)
        assert result.speed_mps == 0.0
        assert result.clipped == "low"

    def test_interior_result_not_flagged(self):
        sigma = gmf_forward(SYNTH1, 12.3, GEOM)
        result = gmf_invert(SYNTH1, sigma, GEOM)
        assert result.clipped is None
        assert result.speed_mps == pytest.approx(12.3, abs=1e-3)

    def test_zero_sigma0_clips_low(self):
        result = gmf_invert(SYNTH1, 0.0, GEOM)
        assert result.speed_mps == 0.0
        assert result.clipped == "low"

    def test_results_always_inside_cap(self):
        rng = np.random.default_rng(9)
        for sigma in rng.uniform(1e-6, 1.0, size=50):
            result = gmf_invert(SYNTH1, float(sigma), GEOM, v_max=25.0)
            assert 0.0 <= result.speed_mps <= 25.0


class TestRetrieveWindGrid:
    def test_constant_field(self):
        sigma = gmf_forward(SYNTH1, 12.3, GEOM)
        nrcs = make_grid(np.full((3, 3), sigma), variable=Variable.NRCS)
        wind = retrieve_wind_grid(nrcs, GEOM, SYNTH1)
        assert wind.variable == Variable.WIND_SPEED
        assert np.allclose(wind.values, 12.3, atol=1e-3)

    def test_nodata_holes_preserved(self):
        sigma = gmf_forward(SYNTH1, 8.0, GEOM)
        values = np.full((3, 3), sigma)
        values[1, 1] = -9999.0
        nrcs = make_grid(values, variable=Variable.NRCS)
        wind = retrieve_wind_grid(nrcs, GEOM, SYNTH1)
        assert wind.values[1, 1] == wind.nodata
        assert np.isclose(wind.values[0, 0], 8.0, atol=1e-3)

    def test_varying_field_round_trips(self):
        rng = np.random.default_rng(2)
        truth = rng.uniform(1.0, 24.0, size=(5, 5))
        sigma = SYNTH1.sigma0(truth, 35.0, 0.0)
        nrcs = make_grid(sigma, variable=Variable.NRCS)
        wind = retrieve_wind_grid(nrcs, GEOM, SYNTH1)
        assert np.allclose(wind.values, truth, atol=1e-3)

    def test_wrong_variable_rejected(self):
        bt = make_grid(np.full((2, 2), 280.0))
        with pytest.raises(TypeError):
            retrieve_wind_grid(bt, GEOM, SYNTH1)


class TestRegionMaxCategory:
    REGION = RegionBox("R", 10.5, 12.5, 20.5, 22.5)

    def cat_stack(self, frames, t0=T0):
        return make_stack(frames, variable=Variable.WIND_CAT, t0=t0, dt_s=1800)

    def one(self, sources, region, start, end):
        """The (rank, sources) entry of ``region`` alone."""
        ranks, observed = region_max_category(sources, [region], start, end)
        return int(ranks[0]), int(observed[0])

    def test_max_over_frames_and_sources(self):
        a = self.cat_stack([np.full((4, 4), 1.0), np.full((4, 4), 2.0)])
        b = self.cat_stack([np.zeros((4, 4)), np.zeros((4, 4))])
        window_end = T0 + timedelta(seconds=3600)
        rank, sources = self.one([a, b], self.REGION, T0 - timedelta(seconds=1), window_end)
        assert rank == WindCategory.MODERATE
        assert sources == 2

    def test_only_cells_inside_region_count(self):
        values = np.zeros((4, 4))
        values[0, 3] = 3.0      # outside the region block
        stack = self.cat_stack([values])
        rank, _ = self.one([stack], self.REGION, T0 - timedelta(seconds=1), T0)
        assert rank == WindCategory.NONE

    def test_window_is_trailing_half_open(self):
        a = self.cat_stack([np.full((4, 4), 3.0), np.zeros((4, 4))])
        start = T0
        end = T0 + timedelta(seconds=1800)
        rank, _ = self.one([a], self.REGION, start, end)
        assert rank == WindCategory.NONE   # the severe frame at T0 is excluded

    def test_all_nodata_counts_no_source(self):
        stack = self.cat_stack([np.full((4, 4), -9999.0)])
        rank, sources = self.one([stack], self.REGION, T0 - timedelta(seconds=1), T0)
        assert sources == 0
        assert rank == WindCategory.NONE

    def test_sources_count_stacks_with_a_finite_region_cell(self):
        values = np.full((4, 4), -9999.0)
        values[0, 3] = 3.0      # finite, but outside the region block
        blind = self.cat_stack([values])
        seeing = self.cat_stack([np.full((4, 4), 1.0)])
        window = (T0 - timedelta(seconds=1), T0)
        assert self.one([blind], self.REGION, *window)[1] == 0
        assert self.one([blind, seeing, seeing], self.REGION, *window) == (WindCategory.WEAK, 2)

    def test_region_off_the_grid_counts_no_source(self):
        stack = self.cat_stack([np.full((4, 4), 3.0)])
        far = RegionBox("far", 50.0, 51.0, 20.0, 21.0)
        assert self.one([stack], far, T0 - timedelta(seconds=1), T0) == (WindCategory.NONE, 0)

    def test_empty_window_counts_no_source(self):
        stack = self.cat_stack([np.zeros((4, 4))])
        _, sources = self.one([stack], self.REGION,
                              T0 + timedelta(seconds=3600), T0 + timedelta(seconds=7200))
        assert sources == 0

    def test_more_sources_never_lower_the_category(self):
        quiet = self.cat_stack([np.zeros((4, 4))])
        windy = self.cat_stack([np.full((4, 4), 2.0)])
        end = T0
        start = T0 - timedelta(seconds=1)
        alone, _ = self.one([quiet], self.REGION, start, end)
        both, _ = self.one([quiet, windy], self.REGION, start, end)
        assert both >= alone

    def test_no_source_gives_rank_0_from_0_sources(self):
        ranks, sources = region_max_category([], [self.REGION, self.REGION], T0, T0)
        assert ranks.tolist() == [0, 0] and sources.tolist() == [0, 0]

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_per_cell_scan(self, seed):
        # At least eight boxes per call, so numpy's vector paths run, among
        # them one off the grid and one around a single cell center.
        rng = np.random.default_rng(seed)
        geom = GridGeometry(
            lat_min=float(rng.uniform(10, 12)), lon_min=float(rng.uniform(100, 102)),
            dlat=float(rng.choice([0.1, 0.3])), dlon=float(rng.choice([0.1, 0.3])),
            nrows=int(rng.integers(2, 8)), ncols=int(rng.integers(2, 8)))
        stacks = []
        for k in range(int(rng.integers(1, 4))):
            frames = []
            for _ in range(6):
                frame = rng.integers(0, 4, size=(geom.nrows, geom.ncols)).astype(float)
                frame[rng.uniform(size=frame.shape) < rng.uniform(0.2, 0.9)] = -9999.0
                frames.append(frame)
            stacks.append(make_stack(frames, variable=Variable.WIND_CAT, geometry=geom,
                                     t0=T0 + timedelta(seconds=600 * k), dt_s=1800))
        boxes = [RegionBox("off", geom.lat_min - 5.0, geom.lat_min - 4.0,
                           geom.lon_min, geom.lon_min + 1.0)]
        r, c = int(rng.integers(geom.nrows)), int(rng.integers(geom.ncols))
        lat, lon = cell_lat(geom, r), cell_lon(geom, c)
        boxes.append(RegionBox("one", lat - geom.dlat / 4, lat + geom.dlat / 4,
                               lon - geom.dlon / 4, lon + geom.dlon / 4))
        for i in range(int(rng.integers(6, 12))):
            lat0 = geom.lat_min + rng.uniform(-0.2, 0.6) * geom.nrows * geom.dlat
            lon0 = geom.lon_min + rng.uniform(-0.2, 0.6) * geom.ncols * geom.dlon
            boxes.append(RegionBox(f"B{i}", lat0, lat0 + rng.uniform(0.1, 1.5),
                                   lon0, lon0 + rng.uniform(0.1, 1.5)))
        start = T0 + timedelta(seconds=int(rng.integers(-2, 4)) * 1800)
        end = T0 + timedelta(seconds=int(rng.integers(4, 12)) * 1800)

        ranks, sources = region_max_category(stacks, boxes, start, end)
        assert len(boxes) >= 8 and len(region_cells(geom, boxes[1])) == 1
        assert (ranks[0], sources[0]) == (0, 0)
        for box, rank, n in zip(boxes, ranks.tolist(), sources.tolist()):
            cells = region_cells(geom, box)
            seen = [[f.values[rc] for f in stack if start < f.time <= end for rc in cells
                     if f.values[rc] != -9999.0] for stack in stacks]
            assert rank == int(max((max(v) for v in seen if v), default=0.0))
            assert n == sum(1 for v in seen if v)
