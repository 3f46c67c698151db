"""Rain accumulation and per-region persistence."""

from __future__ import annotations

import tracemalloc
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cswarn.geogrid import GridGeometry, GridStack, RegionBox, Variable
from cswarn.precip import (
    EmptyWindowError,
    accumulate,
    region_rain_stats,
)

from conftest import T0, make_stack
from oracles import cell_lat, cell_lon, region_cells

REGION = RegionBox("R", 10.5, 12.5, 20.5, 22.5)


def rain_stack(frames, dt_s=1800, geometry=None):
    return make_stack(frames, variable=Variable.RAIN_RATE, dt_s=dt_s, geometry=geometry)


def t(seconds):
    return T0 + timedelta(seconds=seconds)


class TestAccumulate:
    def test_two_half_hour_frames_at_ten(self):
        stack = rain_stack([np.full((3, 3), 10.0)] * 2)
        acc = accumulate(stack, T0, t(3600))
        assert np.allclose(acc.grid.values, 10.0)
        assert acc.grid.variable == Variable.RAIN_ACCUM

    def test_all_zero_frames(self):
        stack = rain_stack([np.zeros((3, 3))] * 4)
        acc = accumulate(stack, T0, t(7200))
        assert np.all(acc.grid.values == 0.0)

    def test_empty_window_raises(self):
        stack = rain_stack([np.zeros((3, 3))] * 2)
        with pytest.raises(EmptyWindowError):
            accumulate(stack, t(86400), t(90000))

    def test_nodata_counts_as_zero_but_is_recorded(self):
        frame = np.full((2, 2), 6.0)
        hole = frame.copy()
        hole[0, 0] = -9999.0
        stack = rain_stack([frame, hole])
        acc = accumulate(stack, T0, t(3600))
        assert acc.grid.values[0, 0] == pytest.approx(3.0)   # one live half hour
        assert acc.grid.values[1, 1] == pytest.approx(6.0)
        assert acc.missing_fraction[0, 0] == pytest.approx(0.5)
        assert acc.missing_fraction[1, 1] == 0.0

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_per_cell_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        frames = [rng.uniform(0.0, 30.0, size=(4, 4)) for _ in range(6)]
        for frame in frames:
            frame[rng.uniform(size=(4, 4)) < 0.2] = -9999.0
        stack = rain_stack(frames)
        acc = accumulate(stack, T0, t(6 * 1800))
        dt_h = 0.5
        for r in range(4):
            for c in range(4):
                expected = sum(f[r, c] * dt_h for f in frames if f[r, c] != -9999.0)
                assert acc.grid.values[r, c] == pytest.approx(expected, rel=1e-12)

    def test_additivity_is_exact(self):
        # Rates quantized to 0.25 mm/h keep every partial sum exactly
        # representable, so the split must reproduce the whole bit for bit.
        rng = np.random.default_rng(17)
        frames = [rng.integers(0, 120, size=(4, 4)) * 0.25 for _ in range(8)]
        stack = rain_stack(frames)
        mid = t(4 * 1800)
        left = accumulate(stack, T0, mid).grid.values
        right = accumulate(stack, mid, t(8 * 1800)).grid.values
        whole = accumulate(stack, T0, t(8 * 1800)).grid.values
        assert np.array_equal(left + right, whole)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 7))
    def test_additivity_property(self, seed, split):
        rng = np.random.default_rng(seed)
        frames = [rng.integers(0, 200, size=(3, 3)) * 0.25 for _ in range(8)]
        stack = rain_stack(frames)
        mid = t(split * 1800)
        left = accumulate(stack, T0, mid).grid.values
        right = accumulate(stack, mid, t(8 * 1800)).grid.values
        whole = accumulate(stack, T0, t(8 * 1800)).grid.values
        assert np.array_equal(left + right, whole)

    def test_conservation_against_injected_integral(self):
        rng = np.random.default_rng(23)
        rates = [float(rng.uniform(0, 40)) for _ in range(12)]
        stack = rain_stack([np.full((2, 2), r) for r in rates], dt_s=600)
        acc = accumulate(stack, T0, t(12 * 600))
        integral = sum(r * 600.0 / 3600.0 for r in rates)
        assert abs(acc.grid.values[0, 0] - integral) <= 1e-9 * max(integral, 1.0)


class TestRegionRainStats:
    def heavy_frame(self, rate=9.0):
        values = np.zeros((4, 4))
        values[1, 1] = rate     # inside REGION
        return values

    def test_six_heavy_half_hours_give_three_hours(self):
        stack = rain_stack([self.heavy_frame()] * 6)
        stats = region_rain_stats(stack, [REGION], t(-1800), t(5 * 1800))[0]
        assert stats.persistence_h == pytest.approx(3.0)
        assert stats.max_rate_mmh == pytest.approx(9.0)

    def test_alternating_heavy_and_zero(self):
        frames = [self.heavy_frame() if i % 2 == 0 else np.zeros((4, 4)) for i in range(6)]
        stack = rain_stack(frames)
        stats = region_rain_stats(stack, [REGION], t(-1800), t(5 * 1800))[0]
        assert stats.persistence_h == pytest.approx(0.5)

    def test_zero_rain_zeroes_all_stats(self):
        stack = rain_stack([np.zeros((4, 4))] * 4)
        stats = region_rain_stats(stack, [REGION], t(-1800), t(3 * 1800))[0]
        assert stats.max_rate_mmh == 0.0
        assert stats.accum_mm == 0.0
        assert stats.persistence_h == 0.0

    def test_heavy_cells_outside_region_do_not_count(self):
        values = np.zeros((4, 4))
        values[0, 3] = 50.0     # outside REGION
        stack = rain_stack([values] * 2)
        stats = region_rain_stats(stack, [REGION], t(-1800), t(1800))[0]
        assert stats.max_rate_mmh == 0.0
        assert stats.persistence_h == 0.0

    def test_accum_is_wettest_cell_depth(self):
        values = np.zeros((4, 4))
        values[1, 1] = 12.0
        values[2, 2] = 4.0
        stack = rain_stack([values] * 2)
        stats = region_rain_stats(stack, [REGION], t(-1800), t(1800))[0]
        assert stats.accum_mm == pytest.approx(12.0)    # 12 mm/h over two half hours

    def test_missing_fraction_counts_region_samples(self):
        # The region block is 2x2, so two frames contribute 8 samples.
        frame = self.heavy_frame()
        hole = frame.copy()
        hole[1, 1] = -9999.0
        stack = rain_stack([frame, hole])
        stats = region_rain_stats(stack, [REGION], t(-1800), t(1800))[0]
        assert stats.missing_fraction == pytest.approx(1.0 / 8.0)

    def test_all_missing_frame_breaks_a_run(self):
        gap = np.full((4, 4), -9999.0)
        frames = [self.heavy_frame(), self.heavy_frame(), gap,
                  self.heavy_frame(), self.heavy_frame(), self.heavy_frame()]
        stack = rain_stack(frames)
        stats = region_rain_stats(stack, [REGION], t(-1800), t(5 * 1800))[0]
        assert stats.persistence_h == pytest.approx(1.5)

    def test_dropped_frame_breaks_a_run(self):
        # Six heavy half hours with the third frame missing from the stack:
        # the gap is not observed, so the longest run is the last three.
        grids = list(rain_stack([self.heavy_frame()] * 6))
        stack = GridStack(grids[:2] + grids[3:])
        stats = region_rain_stats(stack, [REGION], t(-1800), t(5 * 1800))[0]
        assert stats.persistence_h == pytest.approx(1.5)
        assert stats.max_rate_mmh == pytest.approx(9.0)
        assert stats.accum_mm == pytest.approx(9.0 * 0.5 * 5)

    def test_trailing_zero_frame_keeps_longest_run(self):
        frames = [self.heavy_frame()] * 4 + [np.zeros((4, 4))]
        with_tail = region_rain_stats(rain_stack(frames), [REGION],
                                      t(-1800), t(4 * 1800))[0]
        without = region_rain_stats(rain_stack(frames[:4]), [REGION],
                                    t(-1800), t(3 * 1800))[0]
        assert with_tail.persistence_h == without.persistence_h

    def test_persistence_bounded_by_window(self):
        stack = rain_stack([self.heavy_frame()] * 6)
        stats = region_rain_stats(stack, [REGION], t(-1800), t(5 * 1800))[0]
        window_h = (stats.window_end - stats.window_start).total_seconds() / 3600.0
        assert stats.persistence_h <= window_h

    def test_misaligned_window_clamps_persistence(self):
        stack = rain_stack([self.heavy_frame()] * 6)
        stats = region_rain_stats(stack, [REGION],
                                  t(0) - timedelta(seconds=1), t(5 * 1800))[0]
        window_h = (stats.window_end - stats.window_start).total_seconds() / 3600.0
        assert stats.persistence_h == pytest.approx(window_h)

    def test_region_outside_extent_is_not_observed(self):
        stack = rain_stack([np.full((3, 3), 9.0)] * 2)
        far = RegionBox("far", 50.0, 51.0, 20.0, 21.0)
        assert region_rain_stats(stack, [far], t(-1800), t(1800)) == [None]
        near, off = region_rain_stats(stack, [REGION, far], t(-1800), t(1800))
        assert near.max_rate_mmh == 9.0 and off is None

    def test_empty_window_is_not_observed(self):
        stack = rain_stack([np.full((4, 4), 9.0)] * 2)
        assert region_rain_stats(stack, [REGION, REGION], t(3600), t(7200)) == [None, None]

    def test_one_frame_stack_has_no_cadence(self):
        stack = rain_stack([np.full((4, 4), 9.0)])
        with pytest.raises(ValueError, match="cadence"):
            region_rain_stats(stack, [REGION], t(-1800), T0)

    def test_persistence_monotone_in_threshold(self):
        rng = np.random.default_rng(5)
        frames = [rng.uniform(0.0, 40.0, size=(4, 4)) for _ in range(10)]
        stack = rain_stack(frames)
        persistence = [
            region_rain_stats(stack, [REGION], t(-1800), t(9 * 1800), r_heavy=r)[0].persistence_h
            for r in np.linspace(0.0, 45.0, 16)
        ]
        assert persistence == sorted(persistence, reverse=True)
        assert persistence[0] == pytest.approx(5.0)   # every frame reaches 0 mm/h
        assert persistence[-1] == 0.0                 # no rate reaches 45 mm/h

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_per_sample_brute_force(self, seed):
        # At least eight boxes per call, so numpy's vector paths run, among
        # them one off the grid and one around a single cell center.
        rng = np.random.default_rng(seed)
        geom = GridGeometry(
            lat_min=float(rng.uniform(10, 12)), lon_min=float(rng.uniform(100, 102)),
            dlat=float(rng.choice([0.1, 0.3])), dlon=float(rng.choice([0.1, 0.3])),
            nrows=int(rng.integers(2, 8)), ncols=int(rng.integers(2, 8)))
        frames = []
        for _ in range(8):
            frame = rng.uniform(0.0, 20.0, size=(geom.nrows, geom.ncols))
            frame[rng.uniform(size=frame.shape) < 0.3] = -9999.0
            frame[rng.uniform(size=frame.shape) < 0.1] = -0.0
            frames.append(frame)
        stack = rain_stack(frames, geometry=geom)
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
        start, end = t(int(rng.integers(-2, 4)) * 1800), t(7 * 1800)
        window = [f for i, f in enumerate(frames) if start < t(i * 1800) <= end]

        all_stats = region_rain_stats(stack, boxes, start, end, r_heavy=12.0)
        assert len(all_stats) == len(boxes) >= 8
        assert all_stats[0] is None and len(region_cells(geom, boxes[1])) == 1
        for box, stats in zip(boxes, all_stats):
            cells = region_cells(geom, box)
            if not cells:
                assert stats is None
                continue
            samples = [[f[r, c] for r, c in cells] for f in window]
            live = [[v for v in frame if v != -9999.0] for frame in samples]
            longest = run = 0
            for vals in live:
                run = run + 1 if vals and max(vals) >= 12.0 else 0
                longest = max(longest, run)
            depth = {cell: sum(f[cell] * 0.5 for f in window if f[cell] != -9999.0)
                     for cell in cells}
            assert stats.region == box.name
            assert stats.max_rate_mmh == max((max(v) for v in live if v), default=0.0)
            assert stats.accum_mm == pytest.approx(max(depth.values()), rel=1e-12)
            assert stats.persistence_h == pytest.approx(
                min(longest * 0.5, (end - start).total_seconds() / 3600.0))
            missing = sum(len(frame) - len(vals) for frame, vals in zip(samples, live))
            assert stats.missing_fraction == pytest.approx(missing / (len(window) * len(cells)))


def test_call_memory_does_not_grow_with_the_window():
    # Once the frames' tables are memoised, a call adds each frame's depth
    # into one accumulator: 24 frames cost less than one more window-cells
    # float64 array than 6 frames do.
    geom = GridGeometry(lat_min=0.0, lon_min=0.0, dlat=0.1, dlon=0.1, nrows=60, ncols=70)
    rng = np.random.default_rng(2)
    stack = rain_stack([rng.uniform(0.0, 20.0, size=(60, 70)) for _ in range(24)], geometry=geom)
    boxes = [RegionBox(f"B{i}", 0.0, 6.0, 0.7 * i, 0.7 * i + 1.4) for i in range(8)]
    windows = [(t(17 * 1800), t(23 * 1800)), (t(-1800), t(23 * 1800))]
    for start, end in windows:
        region_rain_stats(stack, boxes, start, end)
    cells = sum(len(region_cells(geom, box)) for box in boxes)
    peaks = []
    tracemalloc.start()
    try:
        for start, end in windows:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            region_rain_stats(stack, boxes, start, end)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    assert peaks[1] - peaks[0] < cells * 8, (peaks, cells * 8)
