"""Geophysical model functions, wind retrieval, and category summaries."""

from __future__ import annotations

import warnings
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cswarn import geogrid
from cswarn.geogrid import DEFAULT_NODATA, GridGeometry, RegionBox, Variable
from cswarn.wind import (
    CMOD5N,
    DEFAULT_BINS,
    SYNTH1,
    V_MAX_DEFAULT,
    Gmf,
    GmfGeometry,
    WindCategory,
    _invert_core,
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

    @pytest.mark.parametrize("nodata", [0.0, -0.0, 1.0, 3.0])
    def test_categorize_grid_sentinel_that_is_a_rank(self, nodata):
        # A speed sentinel equal to a rank would make that rank read as
        # missing; the ranks use the default sentinel instead.
        wind = make_grid([[20.0, nodata], [7.0, 12.0]], variable=Variable.WIND_SPEED,
                         nodata=nodata)
        cat = categorize_grid(wind)
        assert cat.nodata == DEFAULT_NODATA
        assert cat.values.tolist() == [[3.0, DEFAULT_NODATA], [1.0, 2.0]]
        assert cat.finite_mask.tolist() == wind.finite_mask.tolist()

    def test_categorize_grid_keeps_a_sentinel_no_rank_equals(self):
        wind = make_grid([[20.0, 2.5]], variable=Variable.WIND_SPEED, nodata=2.5)
        assert categorize_grid(wind).values.tolist() == [[3.0, 2.5]]


    def test_a_sentinel_outside_int8_ranks_as_missing(self):
        # The ranks are cast from the category grid, whose sentinel 1e20
        # has no int8 value; the cast must neither warn nor leak it.
        speeds = [[20.0, 2.0, 7.0], [12.0, 16.0, 0.5]]
        ranks = {}
        for nodata in (DEFAULT_NODATA, 1e20):
            values = np.array(speeds)
            values[0, 1] = values[1, 2] = nodata
            stack = make_stack([values], variable=Variable.WIND_SPEED, nodata=nodata)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                best, observed = region_max_category([stack], [RegionBox("all", 0, 90, 0, 90)],
                                                     T0 - timedelta(seconds=1), T0, DEFAULT_BINS)
            assert (best.tolist(), observed.tolist()) == ([3], [1])
            ranks[nodata] = geogrid._FRAME_MEMO[stack[0]][("ranks", DEFAULT_BINS)]
        assert ranks[1e20].dtype == np.int8
        assert ranks[1e20].tolist() == ranks[DEFAULT_NODATA].tolist() == [[3, -1, 1], [2, 3, -1]]


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

    @settings(max_examples=40, deadline=None)
    @given(gmf=st.sampled_from([SYNTH1, CMOD5N]), data=st.data())
    def test_equals_each_cell_inverted_alone(self, gmf, data):
        # Few distinct values, repeated, with nodata, and some past either
        # end of the model range, so both clips show up.
        pool = data.draw(st.lists(st.one_of(
            st.floats(1e-5, 0.5), st.sampled_from([1e-12, 1.0, 50.0])), min_size=1, max_size=5))
        nodata = data.draw(st.sampled_from([-9999.0, 1.0]))
        nrows, ncols = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
        values = data.draw(st.lists(st.sampled_from([*pool, nodata]),
                                    min_size=nrows * ncols, max_size=nrows * ncols))
        incidence = st.floats(max(gmf.incidence_min, 1.0), min(gmf.incidence_max, 89.0))
        geom = GmfGeometry(data.draw(incidence), data.draw(st.floats(0.0, 359.0)))
        nrcs = make_grid(np.reshape(values, (nrows, ncols)), variable=Variable.NRCS, nodata=nodata)
        got = retrieve_wind_grid(nrcs, geom, gmf).values
        want = np.array([
            [nodata if v == nodata else float(_invert_core(
                gmf, np.asarray(v), np.asarray(geom.incidence_deg),
                np.asarray(geom.rel_azimuth_deg), V_MAX_DEFAULT)[0]) for v in row]
            for row in nrcs.values.tolist()])
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


# A speed inside each category of DEFAULT_BINS, by rank.
SPEED_OF_RANK = (2.0, 7.0, 12.0, 20.0)


def speeds_of_ranks(ranks) -> np.ndarray:
    """Wind speeds that grade to ``ranks``; nodata cells stay nodata."""
    ranks = np.asarray(ranks, dtype=float)
    nodata = ranks == -9999.0
    return np.where(nodata, -9999.0, np.take(SPEED_OF_RANK, np.where(nodata, 0, ranks).astype(int)))


class TestRegionMaxCategory:
    REGION = RegionBox("R", 10.5, 12.5, 20.5, 22.5)

    def speed_stack(self, rank_frames, t0=T0):
        """A wind speed stack whose cells grade to ``rank_frames``."""
        return make_stack([speeds_of_ranks(r) for r in rank_frames],
                          variable=Variable.WIND_SPEED, t0=t0, dt_s=1800)

    def one(self, sources, region, start, end):
        """The (rank, sources) entry of ``region`` alone."""
        ranks, observed = region_max_category(sources, [region], start, end, DEFAULT_BINS)
        return int(ranks[0]), int(observed[0])

    def test_max_over_frames_and_sources(self):
        a = self.speed_stack([np.full((4, 4), 1.0), np.full((4, 4), 2.0)])
        b = self.speed_stack([np.zeros((4, 4)), np.zeros((4, 4))])
        window_end = T0 + timedelta(seconds=3600)
        rank, sources = self.one([a, b], self.REGION, T0 - timedelta(seconds=1), window_end)
        assert rank == WindCategory.MODERATE
        assert sources == 2

    def test_only_cells_inside_region_count(self):
        values = np.zeros((4, 4))
        values[0, 3] = 3.0      # outside the region block
        stack = self.speed_stack([values])
        rank, _ = self.one([stack], self.REGION, T0 - timedelta(seconds=1), T0)
        assert rank == WindCategory.NONE

    def test_window_is_trailing_half_open(self):
        a = self.speed_stack([np.full((4, 4), 3.0), np.zeros((4, 4))])
        start = T0
        end = T0 + timedelta(seconds=1800)
        rank, _ = self.one([a], self.REGION, start, end)
        assert rank == WindCategory.NONE   # the severe frame at T0 is excluded

    def test_all_nodata_counts_no_source(self):
        stack = self.speed_stack([np.full((4, 4), -9999.0)])
        rank, sources = self.one([stack], self.REGION, T0 - timedelta(seconds=1), T0)
        assert sources == 0
        assert rank == WindCategory.NONE

    def test_sources_count_stacks_with_a_finite_region_cell(self):
        values = np.full((4, 4), -9999.0)
        values[0, 3] = 3.0      # finite, but outside the region block
        blind = self.speed_stack([values])
        seeing = self.speed_stack([np.full((4, 4), 1.0)])
        window = (T0 - timedelta(seconds=1), T0)
        assert self.one([blind], self.REGION, *window)[1] == 0
        assert self.one([blind, seeing, seeing], self.REGION, *window) == (WindCategory.WEAK, 2)

    def test_region_off_the_grid_counts_no_source(self):
        stack = self.speed_stack([np.full((4, 4), 3.0)])
        far = RegionBox("far", 50.0, 51.0, 20.0, 21.0)
        assert self.one([stack], far, T0 - timedelta(seconds=1), T0) == (WindCategory.NONE, 0)

    def test_empty_window_counts_no_source(self):
        stack = self.speed_stack([np.zeros((4, 4))])
        _, sources = self.one([stack], self.REGION,
                              T0 + timedelta(seconds=3600), T0 + timedelta(seconds=7200))
        assert sources == 0

    def test_more_sources_never_lower_the_category(self):
        quiet = self.speed_stack([np.zeros((4, 4))])
        windy = self.speed_stack([np.full((4, 4), 2.0)])
        end = T0
        start = T0 - timedelta(seconds=1)
        alone, _ = self.one([quiet], self.REGION, start, end)
        both, _ = self.one([quiet, windy], self.REGION, start, end)
        assert both >= alone

    def test_no_source_gives_rank_0_from_0_sources(self):
        ranks, sources = region_max_category([], [self.REGION, self.REGION], T0, T0, DEFAULT_BINS)
        assert ranks.tolist() == [0, 0] and sources.tolist() == [0, 0]

    @pytest.mark.parametrize("variable", [Variable.WIND_CAT, Variable.NRCS])
    def test_only_speed_stacks_accepted(self, variable):
        stack = make_stack([np.full((4, 4), 1.0)], variable=variable)
        with pytest.raises(TypeError, match=f"expected WIND_SPEED stacks, got {variable.value}"):
            region_max_category([stack], [self.REGION], T0 - timedelta(seconds=1), T0,
                                DEFAULT_BINS)

    def test_bins_grade_the_speeds(self):
        stack = make_stack([np.full((4, 4), 8.0)], variable=Variable.WIND_SPEED)
        window = (T0 - timedelta(seconds=1), T0)
        for bins, want in ((DEFAULT_BINS, WindCategory.WEAK), ((3.0, 6.0, 9.0), WindCategory.MODERATE),
                           ((1.0, 2.0, 8.0), WindCategory.SEVERE)):
            ranks, _ = region_max_category([stack], [self.REGION], *window, bins)
            assert ranks.tolist() == [want]
        with pytest.raises(ValueError, match="category bins must increase"):
            region_max_category([stack], [self.REGION], *window, (5.0, 5.0, 6.0))

    @pytest.mark.parametrize("nodata", [3.0, 0.0, -9999.0])
    def test_a_speed_equal_to_a_rank_sentinel_still_counts(self, nodata):
        # 20 m/s is severe everywhere; the sentinel never shows up as a cell.
        stack = make_stack([np.full((4, 4), 20.0)], variable=Variable.WIND_SPEED, nodata=nodata)
        rank, sources = self.one([stack], self.REGION, T0 - timedelta(seconds=1), T0)
        assert (rank, sources) == (WindCategory.SEVERE, 1)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_per_cell_scan(self, seed):
        # At least eight boxes per call, so numpy's vector paths run, among
        # them one off the grid and one around a single cell center.
        rng = np.random.default_rng(seed)
        geom = GridGeometry(
            lat_min=float(rng.uniform(10, 12)), lon_min=float(rng.uniform(100, 102)),
            dlat=float(rng.choice([0.1, 0.3])), dlon=float(rng.choice([0.1, 0.3])),
            nrows=int(rng.integers(2, 8)), ncols=int(rng.integers(2, 8)))
        bins = [DEFAULT_BINS, (3.0, 6.0, 9.0)][seed % 2]
        stacks = []
        for k in range(int(rng.integers(1, 4))):
            frames = []
            for _ in range(6):
                # Any speed, and each bin edge and its neighbours.
                frame = rng.uniform(0.0, 30.0, size=(geom.nrows, geom.ncols))
                edges = [x for b in bins for x in (np.nextafter(b, 0.0), b, np.nextafter(b, 99.0))]
                pick = rng.uniform(size=frame.shape) < 0.3
                frame[pick] = rng.choice(edges, size=int(pick.sum()))
                frame[rng.uniform(size=frame.shape) < rng.uniform(0.2, 0.9)] = -9999.0
                frames.append(frame)
            stacks.append(make_stack(frames, variable=Variable.WIND_SPEED, geometry=geom,
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

        ranks, sources = region_max_category(stacks, boxes, start, end, bins)
        assert len(boxes) >= 8 and len(region_cells(geom, boxes[1])) == 1
        assert (ranks[0], sources[0]) == (0, 0)
        for box, rank, n in zip(boxes, ranks.tolist(), sources.tolist()):
            cells = region_cells(geom, box)
            seen = [[categorize(f.values[rc], bins) for f in stack if start < f.time <= end
                     for rc in cells if f.values[rc] != -9999.0] for stack in stacks]
            assert rank == max((max(v) for v in seen if v), default=0)
            assert n == sum(1 for v in seen if v)
