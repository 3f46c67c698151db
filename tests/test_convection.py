"""Deep-convection masking, connected-component labeling, object stats."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cswarn.convection import (
    CSObject,
    convective_mask,
    detect,
    label_array,
    label_components,
    summarize,
)
from cswarn.geogrid import DEFAULT_NODATA, GridGeometry, RegionBox, Variable
from cswarn.scenario import CellSpec, ScenarioSpec, generate

from conftest import T0, make_grid
from oracles import blob_stats, union_find_components


def bt_from_mask(mask, cold=210.0, warm=280.0, geometry=None):
    """BT grid that is cold exactly where ``mask`` is truthy."""
    mask = np.asarray(mask, dtype=bool)
    return make_grid(np.where(mask, cold, warm), geometry=geometry)


# Masks whose runs join in an order other than raster order: the first
# run of a component is not always the first run to meet the others.
RUN_ORDER_MASKS = {
    "U": [
        "#...#",
        "#...#",
        "#...#",
        "#####",
    ],
    "W": [
        "#.......#",
        "#...#...#",
        ".#.#.#.#.",
        "..#...#..",
    ],
    "spiral": [
        "#########",
        "........#",
        "#######.#",
        "#.....#.#",
        "#.###.#.#",
        "#.#...#.#",
        "#.#####.#",
        "#.......#",
        "#########",
    ],
    "comb": [
        "#.#.#.#.#.#",
        "#.#.#.#.#.#",
        "#.#.#.#.#.#",
        "###########",
    ],
    "last_column": [
        "....#..#",
        "#......#",
        "..##...#",
        "......#.",
        "#.#.....",
        ".......#",
    ],
    "checkerboard": [
        "#.#.#.#.",
        ".#.#.#.#",
        "#.#.#.#.",
        ".#.#.#.#",
        "#.#.#.#.",
    ],
}


def squall_frame():
    """A 300x330 BT frame with three noisy squalls, as in the scaled batch."""
    step = 0.05 / 3.0
    geom = GridGeometry(lat_min=14.0, lon_min=103.0, dlat=step, dlon=step, nrows=300, ncols=330)
    cells = tuple(
        CellSpec(f"squall{b}", 14.0 + 1.65 * (b + 0.5), 108.0 - 0.3 * b, speed_mps=8.0,
                 bearing_deg=270.0, radius_km=40.0, radius_ns_km=45.0)
        for b in range(3)
    )
    spec = ScenarioSpec(geometry=geom, start_time=T0, duration_s=600, cells=cells,
                        noise_std=4.0)
    return generate(spec, seed=3).bt[-1]


def mask_from_art(rows):
    return np.array([[ch == "#" for ch in row] for row in rows], dtype=bool)


def assert_labels_match_union_find(mask) -> int:
    """Labels equal the union-find oracle's partition, numbered in its
    first-pixel order; returns the component count."""
    labels, count = label_array(mask)
    expected = union_find_components(mask)
    assert labels.dtype == np.int32
    assert labels.shape == mask.shape
    assert count == len(expected)
    want = np.zeros(mask.shape, dtype=np.int32)
    for label_id, pixels in enumerate(expected, start=1):
        rows, cols = zip(*pixels)
        want[list(rows), list(cols)] = label_id
    np.testing.assert_array_equal(labels, want)
    return count


class TestConvectiveMask:
    def test_threshold_examples(self):
        bt = make_grid([[210.0, 225.0], [220.0, 280.0]])
        mask = convective_mask(bt, t_deep=220.0)
        assert mask.values.tolist() == [[1.0, 0.0], [1.0, 0.0]]

    def test_threshold_is_inclusive(self):
        bt = make_grid([[220.0, 220.0000001], [219.9999999, 280.0]])
        mask = convective_mask(bt)
        assert mask.values.tolist() == [[1.0, 0.0], [1.0, 0.0]]

    def test_nodata_propagates(self):
        bt = make_grid([[210.0, -9999.0], [-9999.0, 280.0]])
        mask = convective_mask(bt)
        assert mask.values.tolist() == [[1.0, -9999.0], [-9999.0, 0.0]]

    def test_all_nodata_stays_all_nodata(self):
        bt = make_grid(np.full((3, 3), -9999.0))
        mask = convective_mask(bt)
        assert np.all(mask.values == -9999.0)

    def test_wrong_variable_rejected(self):
        rain = make_grid(np.zeros((2, 2)), variable=Variable.RAIN_RATE)
        with pytest.raises(TypeError):
            convective_mask(rain)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**16), st.sampled_from([-9999.0, 0.0, -0.0, 1.0, 215.0]),
           st.floats(150.0, 300.0))
    def test_values_equal_the_float_mask_formula(self, seed, nodata, t_deep):
        # The mask is written straight from the comparison, with no float
        # copy of it; its bytes are those of the float-mask formula. A BT
        # sentinel of 0 or 1 would read as a mask value, so the mask then
        # holds the default sentinel.
        rng = np.random.default_rng(seed)
        values = rng.choice([150.0, 215.0, 220.0, 260.0, t_deep, nodata], size=(7, 40))
        bt = make_grid(values, nodata=nodata)
        mask_nodata = DEFAULT_NODATA if nodata in (0.0, 1.0) else nodata
        want = np.where(bt.finite_mask, (bt.values <= t_deep).astype(np.float64), mask_nodata)
        mask = convective_mask(bt, t_deep)
        assert mask.values.tobytes() == want.tobytes()
        assert mask.nodata == mask_nodata
        assert mask.finite_mask.tolist() == bt.finite_mask.tolist()

    @pytest.mark.parametrize("nodata", [-9999.0, 0.0, 1.0])
    def test_bt_sentinel_that_is_a_mask_value_hides_no_cloud(self, nodata):
        # A 9-cell 200 K cloud in a 6x6 frame with a gap: one object
        # whatever the BT sentinel, 1 included.
        values = np.full((6, 6), 280.0)
        values[1:4, 1:4] = 200.0
        values[5, 5] = nodata
        objects = detect(make_grid(values, nodata=nodata))
        assert [(o.pixel_count, o.min_bt) for o in objects] == [(9, 200.0)]

    def test_mask_monotone_in_threshold(self):
        rng = np.random.default_rng(7)
        bt = make_grid(rng.uniform(180.0, 300.0, size=(8, 8)))
        cold = convective_mask(bt, t_deep=210.0).values == 1.0
        warm = convective_mask(bt, t_deep=240.0).values == 1.0
        assert np.all(warm[cold])


class TestLabelArray:
    def test_two_separate_blobs(self):
        mask = np.zeros((7, 7), dtype=bool)
        mask[0:3, 0:3] = True
        mask[4:7, 4:7] = True
        labels, count = label_array(mask)
        assert count == 2
        assert set(np.unique(labels[0:3, 0:3])) == {1}
        assert set(np.unique(labels[4:7, 4:7])) == {2}
        assert np.all(labels[~mask] == 0)

    def test_diagonal_pixels_are_one_component(self):
        mask = np.array([[1, 0], [0, 1]], dtype=bool)
        labels, count = label_array(mask)
        assert count == 1
        assert labels[0, 0] == labels[1, 1] == 1

    def test_ids_follow_raster_order_of_first_pixel(self):
        mask = np.zeros((3, 6), dtype=bool)
        mask[2, 0] = True       # first pixel in raster order is (0, 4)
        mask[0, 4] = True
        labels, count = label_array(mask)
        assert count == 2
        assert labels[0, 4] == 1
        assert labels[2, 0] == 2

    def test_empty_mask(self):
        labels, count = label_array(np.zeros((4, 4), dtype=bool))
        assert count == 0
        assert np.all(labels == 0)

    def test_full_mask_is_single_component(self):
        labels, count = label_array(np.ones((5, 5), dtype=bool))
        assert count == 1
        assert np.all(labels == 1)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 40), st.integers(0, 2**31 - 1), st.floats(0.1, 0.7))
    @example(1, 1, 0, 0.5)
    @example(1, 40, 1, 0.5)
    @example(40, 1, 2, 0.5)
    def test_partition_matches_union_find(self, nrows, ncols, seed, density):
        rng = np.random.default_rng(seed)
        assert_labels_match_union_find(rng.uniform(size=(nrows, ncols)) < density)

    @pytest.mark.parametrize("name", sorted(RUN_ORDER_MASKS))
    def test_run_order_masks_match_union_find(self, name):
        assert_labels_match_union_find(mask_from_art(RUN_ORDER_MASKS[name]))

    def test_full_size_scenario_frame_matches_union_find(self):
        mask = convective_mask(squall_frame()).values == 1.0
        count = assert_labels_match_union_find(mask)
        assert count > 3   # noise splits specks off the three squalls


class TestLabelComponents:
    def test_small_blobs_dropped(self):
        mask = np.zeros((5, 5), dtype=bool)
        mask[0:2, 0:2] = True   # 4 px, kept at min_area_px=4
        mask[4, 4] = True       # 1 px, dropped
        grid = convective_mask(bt_from_mask(mask))
        objects = label_components(grid, min_area_px=4)
        assert len(objects) == 1
        assert objects[0].pixel_count == 4

    def test_surviving_ids_are_renumbered_contiguously(self):
        mask = np.zeros((5, 9), dtype=bool)
        mask[4, 0] = True       # raster-last single pixel, dropped
        mask[0:2, 2:4] = True   # kept
        mask[3:5, 6:8] = True   # kept
        grid = convective_mask(bt_from_mask(mask))
        objects = label_components(grid, min_area_px=4)
        assert [o.id for o in objects] == [1, 2]
        assert objects[0].centroid_lon < objects[1].centroid_lon

    def test_bbox_pads_half_cell_and_contains_centroid(self):
        mask = np.zeros((4, 4), dtype=bool)
        mask[1:3, 1:3] = True
        grid = convective_mask(bt_from_mask(mask))
        obj = label_components(grid, min_area_px=4)[0]
        assert obj.bbox.lat_min == pytest.approx(10.5)
        assert obj.bbox.lat_max == pytest.approx(12.5)
        assert obj.bbox.lon_min == pytest.approx(20.5)
        assert obj.bbox.lon_max == pytest.approx(22.5)
        assert obj.bbox.contains(obj.centroid_lat, obj.centroid_lon)

    @pytest.mark.parametrize("seed, min_area_px", [(0, 1), (1, 1), (2, 3), (3, 3)])
    def test_members_are_raster_sorted_union_find_components(self, seed, min_area_px):
        rng = np.random.default_rng(seed)
        mask = rng.uniform(size=(17, 23)) < 0.45
        objects = label_components(convective_mask(bt_from_mask(mask)), min_area_px=min_area_px)
        kept = [p for p in union_find_components(mask) if len(p) >= min_area_px]
        assert [o.id for o in objects] == list(range(1, len(kept) + 1))
        for obj, pixels in zip(objects, kept, strict=True):
            rows, cols = map(list, zip(*sorted(pixels)))
            assert obj.rows.tolist() == rows
            assert obj.cols.tolist() == cols
            assert obj.pixel_count == len(pixels)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 9), st.integers(1, 12), st.sampled_from([-9999.0, 0.0, 1.0, 2.0]),
           st.data())
    def test_mask_grid_with_any_sentinel_equals_union_find(self, nrows, ncols, nodata, data):
        # FLOOD_MASK grids built directly, not through convective_mask, so
        # the sentinel may be 0 or 1; the edge columns are often set, so
        # runs start at column 0 and end at the last column.
        cell = st.sampled_from([0.0, 1.0, nodata])
        values = np.array(data.draw(st.lists(st.lists(cell, min_size=ncols, max_size=ncols),
                                             min_size=nrows, max_size=nrows)))
        for col in data.draw(st.sets(st.sampled_from([0, ncols - 1]))):
            values[:, col] = 1.0
        grid = make_grid(values, variable=Variable.FLOOD_MASK, nodata=nodata)
        objects = label_components(grid, min_area_px=1)
        want = union_find_components(grid.finite_mask & (grid.values != 0.0))
        assert [o.id for o in objects] == list(range(1, len(want) + 1))
        for obj, pixels in zip(objects, want, strict=True):
            rows, cols = map(list, zip(*sorted(pixels)))
            assert (obj.rows.tolist(), obj.cols.tolist()) == (rows, cols)

    def test_member_pixels_are_read_only(self):
        rng = np.random.default_rng(5)
        bt = bt_from_mask(rng.uniform(size=(12, 12)) < 0.45)
        labeled = label_components(convective_mask(bt), min_area_px=1)
        assert len(labeled) > 1
        for obj in labeled + summarize(bt, labeled):
            for pixels in (obj.rows, obj.cols):
                with pytest.raises(ValueError):
                    pixels[0] = 0

    def test_object_count_antitone_in_min_area(self):
        rng = np.random.default_rng(11)
        mask = rng.uniform(size=(16, 16)) < 0.4
        grid = convective_mask(bt_from_mask(mask))
        counts = [len(label_components(grid, min_area_px=k)) for k in (1, 2, 4, 8)]
        assert counts == sorted(counts, reverse=True)


class TestAreaAndStats:
    def equatorial_geometry(self):
        return GridGeometry(lat_min=0.0, lon_min=20.0, dlat=0.1, dlon=0.1, nrows=3, ncols=3)

    def test_single_cell_area_at_equator(self):
        values = np.full((3, 3), 280.0)
        values[2, 0] = 210.0    # row 2 sits at lat 0.0
        bt = make_grid(values, geometry=self.equatorial_geometry())
        obj = detect(bt, min_area_px=1)[0]
        assert obj.area_km2 == pytest.approx((0.1 * 111.195) ** 2, rel=1e-12)

    def test_cell_area_shrinks_with_cos_latitude(self):
        geom = GridGeometry(lat_min=60.0, lon_min=20.0, dlat=0.1, dlon=0.1, nrows=3, ncols=3)
        values = np.full((3, 3), 280.0)
        values[2, 0] = 210.0    # row 2 sits at lat 60.0
        bt = make_grid(values, geometry=geom)
        obj = detect(bt, min_area_px=1)[0]
        expected = (0.1 * 111.195) * (0.1 * 111.195 * math.cos(math.radians(60.0)))
        assert obj.area_km2 == pytest.approx(expected, rel=1e-12)

    def test_summarize_fills_bt_stats(self):
        values = np.full((4, 4), 280.0)
        values[1, 1] = 200.0
        values[1, 2] = 210.0
        values[2, 1] = 205.0
        values[2, 2] = 215.0
        bt = make_grid(values)
        obj = detect(bt, min_area_px=4)[0]
        assert obj.min_bt == 200.0
        assert obj.mean_bt == pytest.approx(207.5)

    @pytest.mark.parametrize("seed", range(6))
    def test_stats_match_exhaustive_oracle(self, seed):
        rng = np.random.default_rng(seed)
        mask = rng.uniform(size=(10, 10)) < 0.35
        cold = rng.uniform(185.0, 219.0, size=(10, 10))
        values = np.where(mask, cold, 285.0)
        bt = make_grid(values, geometry=GridGeometry(
            lat_min=14.0, lon_min=105.0, dlat=0.05, dlon=0.05, nrows=10, ncols=10))
        objects = detect(bt, min_area_px=1)
        components = union_find_components(mask)
        assert len(objects) == len(components)
        for obj, pixels in zip(objects, components):
            ref = blob_stats(bt, pixels)
            assert obj.pixel_count == ref["pixel_count"]
            assert obj.centroid_lat == pytest.approx(ref["centroid_lat"], rel=1e-12)
            assert obj.centroid_lon == pytest.approx(ref["centroid_lon"], rel=1e-12)
            assert obj.min_bt == pytest.approx(ref["min_bt"], rel=1e-12)
            assert obj.mean_bt == pytest.approx(ref["mean_bt"], rel=1e-12)
            assert obj.area_km2 == pytest.approx(ref["area_km2"], rel=1e-10)

    @pytest.mark.parametrize("seed", range(6))
    def test_means_are_ndarray_mean_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        values = np.where(rng.uniform(size=(30, 40)) < 0.5, rng.uniform(185.0, 219.0, (30, 40)), 285.0)
        geom = GridGeometry(lat_min=rng.uniform(-40, 40), lon_min=rng.uniform(90, 130),
                            dlat=0.03, dlon=0.07, nrows=30, ncols=40)
        bt = make_grid(values, geometry=geom)
        for obj in detect(bt, min_area_px=1):
            assert obj.centroid_lat == float(geom.lats()[obj.rows].mean())
            assert obj.centroid_lon == float(geom.lons()[obj.cols].mean())
            assert obj.mean_bt == float(bt.values[obj.rows, obj.cols].mean())

    @pytest.mark.parametrize("value, width", [(185.05, 6), (185.06, 6), (203.7, 3)])
    def test_uniform_cold_blob_mean_equals_its_min(self, value, width):
        # The float mean of these equal values rounds below the value.
        values = np.full((3, 8), 280.0)
        values[1, 1:1 + width] = value
        (obj,) = detect(make_grid(values), min_area_px=3)
        assert obj.min_bt == obj.mean_bt == value

    def test_pixel_counts_partition_the_mask(self):
        rng = np.random.default_rng(3)
        mask = rng.uniform(size=(20, 20)) < 0.45
        bt = bt_from_mask(mask, geometry=GridGeometry(
            lat_min=10.0, lon_min=100.0, dlat=0.1, dlon=0.1, nrows=20, ncols=20))
        objects = detect(bt, min_area_px=1)
        assert sum(o.pixel_count for o in objects) == int(mask.sum())


class TestCSObjectValidation:
    def test_centroid_must_sit_inside_bbox(self):
        with pytest.raises(ValueError):
            CSObject(
                id=1, time=T0, pixel_count=4, area_km2=100.0,
                centroid_lat=20.0, centroid_lon=20.0,
                bbox=RegionBox("cs1", 10.0, 11.0, 19.0, 21.0),
            )

    def test_min_bt_cannot_exceed_mean_bt(self):
        with pytest.raises(ValueError):
            CSObject(
                id=1, time=T0, pixel_count=4, area_km2=100.0,
                centroid_lat=10.5, centroid_lon=20.0,
                bbox=RegionBox("cs1", 10.0, 11.0, 19.0, 21.0),
                min_bt=215.0, mean_bt=210.0,
            )


class TestDetect:
    def test_quiet_scene_yields_nothing(self):
        bt = make_grid(np.full((6, 6), 280.0))
        assert detect(bt) == []

    def test_detection_threshold_drives_object_count(self):
        values = np.full((6, 6), 280.0)
        values[1:3, 1:3] = 230.0
        bt = make_grid(values)
        assert detect(bt, t_deep=220.0) == []
        assert len(detect(bt, t_deep=230.0)) == 1

    def test_objects_share_frame_time(self):
        values = np.full((6, 6), 280.0)
        values[0:2, 0:2] = 210.0
        values[4:6, 4:6] = 210.0
        bt = make_grid(values)
        objects = detect(bt)
        assert len(objects) == 2
        assert all(o.time == bt.time for o in objects)

    @settings(max_examples=200, deadline=None)
    @given(shape=st.one_of(st.tuples(st.just(1), st.integers(1, 16)),
                           st.tuples(st.integers(1, 16), st.just(1)),
                           st.tuples(st.integers(2, 9), st.integers(2, 12))),
           nodata=st.sampled_from([-9999.0, 0.0, 1.0, 150.0, 999.0]),
           fill=st.sampled_from(["mixed", "all_nodata", "all_convective"]),
           t_deep=st.sampled_from([200.0, 220.0, 235.5]),
           min_area_px=st.integers(1, 5), data=st.data())
    def test_equals_the_stepwise_route(self, shape, nodata, fill, t_deep, min_area_px, data):
        # The one pass against mask grid, labeling and summary one at a
        # time. 150 K is a sentinel inside the BT range, below t_deep.
        cold = st.sampled_from([t_deep, t_deep - 0.5, 185.25]) | st.floats(100.0, t_deep)
        cells = {"mixed": cold | st.sampled_from([nodata, t_deep + 1e-9, 280.0]),
                 "all_nodata": st.just(nodata), "all_convective": cold}[fill]
        size = shape[0] * shape[1]
        values = np.array(data.draw(st.lists(cells, min_size=size, max_size=size))).reshape(shape)
        bt = make_grid(values, nodata=nodata)
        got = detect(bt, t_deep, min_area_px)
        want = summarize(bt, label_components(convective_mask(bt, t_deep), min_area_px))
        assert repr(got) == repr(want)
        for g, w in zip(got, want, strict=True):
            for a, b in ((g.rows, w.rows), (g.cols, w.cols)):
                assert a.tolist() == b.tolist()
                assert not a.flags.writeable and not b.flags.writeable
        if fill == "all_nodata":
            assert got == []
        elif fill == "all_convective" and (values != nodata).all() and min_area_px <= size:
            assert [o.pixel_count for o in got] == [size]

    def test_peak_memory_is_below_one_float_frame(self):
        # No float mask grid and no label grid: a 300x330 frame's float64
        # values take 792,000 bytes.
        frame = squall_frame()
        tracemalloc.start()
        try:
            detect(frame)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < frame.values.nbytes == 792_000, peak
