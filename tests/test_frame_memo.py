"""Per-frame products are computed once and shared, and sharing never
changes a result.

``convection.detect`` keeps each BT frame's detections through
``geogrid._per_frame``; ``FusionEngine`` gets each wind speed frame's
category ranks, and each BT, rain and wind frame's table over a window
layout (every region's cell window on the frame's geometry), the same
way. Engines built nowcast-style on overlapping trailing windows
share frame objects, so later engines reuse what earlier ones computed,
and so does an engine built on frames a caller detected first. The
oracle is the same computation on deep copies of the frames, which no
memo entry belongs to.
"""

from __future__ import annotations

import ast
import copy
import gc
import weakref
from collections import Counter
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cswarn import convection, geogrid, wind as wind_module
from cswarn.convection import convective_mask, detect, label_components, summarize
from cswarn.fusion import FusionEngine
from cswarn.geogrid import DEFAULT_NODATA, GridGeometry, GridStack, RegionBox, Variable
from cswarn.tracking import build_tracks

from conftest import T0, make_grid

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cswarn"
BT_GEOM = GridGeometry(lat_min=10.0, lon_min=100.0, dlat=0.1, dlon=0.1, nrows=12, ncols=14)
# Rain and wind grids cover only part of the BT grid, on other spacings.
RAIN_GEOM = GridGeometry(lat_min=10.25, lon_min=100.0, dlat=0.2, dlon=0.2, nrows=5, ncols=5)
WIND_GEOM = GridGeometry(lat_min=10.0, lon_min=100.45, dlat=0.15, dlon=0.15, nrows=6, ncols=6)
WINDOW_S = 3600
HISTORY = timedelta(seconds=WINDOW_S + 3 * 600)


def bt_values(rng, k: int) -> np.ndarray:
    """Warm noise with two cold blocks drifting east, and a few gaps."""
    values = rng.uniform(230.0, 290.0, size=(BT_GEOM.nrows, BT_GEOM.ncols))
    for r0, c0 in ((2, k % 10), (7, (2 * k) % 11)):
        values[r0:r0 + 3, c0:c0 + 3] = rng.uniform(190.0, 215.0, size=(3, 3))
    values[rng.uniform(size=values.shape) < 0.03] = DEFAULT_NODATA
    return values


def rates(rng, geometry: GridGeometry, hi: float) -> np.ndarray:
    values = rng.uniform(0.0, hi, size=(geometry.nrows, geometry.ncols))
    values[rng.uniform(size=values.shape) < 0.15] = DEFAULT_NODATA
    return values


def make_data(seed: int, n_bt: int, bt_drop, rain_drop, wind_drop):
    """BT every 10 min, rain and wind every 20 min, minus dropped frames.
    Every frame of a sensor shares that sensor's geometry object."""
    rng = np.random.default_rng(seed)

    def frames(variable, geometry, cadence_s, count, drop, values):
        return [make_grid(values(k), variable=variable, geometry=geometry,
                          time=T0 + timedelta(seconds=cadence_s * k))
                for k in range(count) if k not in drop]

    bt = frames(Variable.BT, BT_GEOM, 600, n_bt, bt_drop, lambda k: bt_values(rng, k))
    n_slow = (n_bt + 1) // 2
    rain = frames(Variable.RAIN_RATE, RAIN_GEOM, 1200, n_slow, rain_drop,
                  lambda k: rates(rng, RAIN_GEOM, 14.0))
    wind = frames(Variable.WIND_SPEED, WIND_GEOM, 1200, n_slow, wind_drop,
                  lambda k: rates(rng, WIND_GEOM, 22.0))
    return bt, rain, wind


REGIONS = [
    RegionBox("A", 10.2, 10.6, 100.2, 100.7),
    RegionBox("B", 10.7, 11.1, 100.6, 101.2),
    # Partly off the rain grid (north) and the wind grid (west).
    RegionBox("C", 10.9, 11.5, 100.1, 100.6),
    # Off the rain and wind grids, on the BT grid.
    RegionBox("D", 11.0, 11.1, 101.25, 101.35),
]


def window(frames, lo, hi):
    picked = [f for f in frames if lo < f.time <= hi]
    return GridStack(picked) if picked else None


def nowcast(bt, rain, wind, fresh: bool, **params):
    """At every BT frame, an engine on the trailing frames and its
    reports for that epoch, as one repr per epoch. ``fresh`` builds each
    engine on deep copies of its frames."""
    out = []
    for frame in bt:
        epoch, lo = frame.time, frame.time - HISTORY
        stacks = [window(frames, lo, epoch) for frames in (bt, rain, wind)]
        if fresh:
            stacks = [copy.deepcopy(s) for s in stacks]
        bt_s, rain_s, wind_s = stacks
        engine = FusionEngine(REGIONS, bt=bt_s, rain=rain_s,
                              wind_speed={"lr": wind_s} if wind_s else None,
                              window_s=WINDOW_S, **params)
        out.append(repr((engine.detections, engine.run_epoch(epoch))))
    return out


class TestSharedFramesEqualFreshOnes:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), n_bt=st.integers(4, 14),
           bt_drop=st.sets(st.integers(1, 13), max_size=3),
           rain_drop=st.sets(st.integers(0, 6), max_size=3),
           wind_drop=st.sets(st.integers(0, 6), max_size=3))
    def test_nowcast_engines_match_engines_on_copies(self, seed, n_bt, bt_drop, rain_drop,
                                                     wind_drop):
        bt, rain, wind = make_data(seed, n_bt, bt_drop, rain_drop, wind_drop)
        shared = nowcast(bt, rain, wind, fresh=False)
        # Twice: the second pass reads every product from the memo.
        assert nowcast(bt, rain, wind, fresh=False) == shared
        assert nowcast(bt, rain, wind, fresh=True) == shared

    def test_one_frame_rain_stack_and_gaps(self):
        # Rain frames 1 to 4 dropped: some windows hold one rain frame,
        # some none; wind and BT frames dropped too.
        bt, rain, wind = make_data(7, 14, {3, 8}, {1, 2, 3, 4}, {2})
        windows = [window(rain, f.time - HISTORY, f.time) for f in bt]
        assert any(w is not None and len(w) == 1 for w in windows)
        assert any(w is None for w in windows)
        shared = nowcast(bt, rain, wind, fresh=False)
        assert nowcast(bt, rain, wind, fresh=True) == shared
        assert "source_count={'bt': 1, 'wind': 1, 'rain': 1}" in "".join(shared)


def one_window_data():
    bt, rain, wind = make_data(11, 8, set(), set(), set())
    return GridStack(bt), GridStack(rain), {"lr": GridStack(wind)}


def wind_ranks(engine: FusionEngine) -> list[bytes | None]:
    """Each wind frame's category ranks for the engine's bins, as bytes,
    or None for a frame no epoch has ranked."""
    key = ("ranks", engine.bins)
    memos = [geogrid._FRAME_MEMO.get(f, {}) for s in engine.wind for f in s]
    return [memo[key].tobytes() if key in memo else None for memo in memos]


def engine_repr(engine: FusionEngine) -> str:
    epoch = engine.bt[-1].time
    reports = engine.run(epoch - timedelta(seconds=3600), epoch, 600)
    return repr((engine.detections, wind_ranks(engine), reports))


class TestLayoutIsPartOfTheKey:
    @pytest.mark.parametrize("names", ["ABCD", "AC", "C", "BD"])
    def test_region_lists_sharing_frames_equal_fresh_engines(self, names):
        # Every list lays its windows out differently, rain_stats_at reads
        # one-region layouts, and footprint wind a layout of tracks' bboxes.
        bt, rain, wind = one_window_data()
        for regions in (REGIONS, [r for r in REGIONS if r.name in names]):
            shared = FusionEngine(regions, bt=bt, rain=rain, wind_speed=wind)
            fresh = FusionEngine(regions, *copy.deepcopy((bt, rain, wind)))
            epoch = bt[-1].time
            assert engine_repr(shared) == engine_repr(fresh)
            assert ([repr(shared.rain_stats_at(epoch, r)) for r in regions]
                    == [repr(fresh.rain_stats_at(epoch, r)) for r in regions])


class TestParametersArePartOfTheKey:
    @pytest.mark.parametrize("params", [{"t_deep": 205.0}, {"min_area_px": 9},
                                        {"bins": (3.0, 6.0, 9.0)}])
    def test_other_parameters_equal_a_fresh_engine(self, params):
        bt, rain, wind = one_window_data()
        default = FusionEngine(REGIONS, bt=bt, rain=rain, wind_speed=wind)
        changed = FusionEngine(REGIONS, bt=bt, rain=rain, wind_speed=wind, **params)
        fresh_default, fresh_changed = (
            FusionEngine(REGIONS, *copy.deepcopy((bt, rain, wind)), **p) for p in ({}, params))
        assert engine_repr(changed) == engine_repr(fresh_changed)
        assert engine_repr(default) == engine_repr(fresh_default)
        assert engine_repr(changed) != engine_repr(default)

    def test_each_frame_and_parameters_computed_once(self, monkeypatch):
        labeled, categorized = count_labelings(monkeypatch), Counter()
        real_categorize = wind_module.categorize_grid

        def counting_categorize(frame, bins):
            categorized[id(frame), tuple(bins)] += 1
            return real_categorize(frame, bins)

        monkeypatch.setattr(wind_module, "categorize_grid", counting_categorize)
        bt, rain, wind = make_data(5, 12, set(), set(), set())
        param_sets = [{}, {"t_deep": 205.0, "min_area_px": 6, "bins": (3.0, 6.0, 9.0)}]
        for params in param_sets * 2:
            nowcast(bt, rain, wind, fresh=False, **params)
        assert set(labeled.values()) == {1}
        assert set(categorized.values()) == {1}
        assert len(labeled) == len(bt) * len(param_sets)
        assert len(categorized) == len(wind) * len(param_sets)


def count_labelings(monkeypatch) -> Counter:
    """Counts ``convection._detect`` calls, the one labeling ``detect``
    makes for a frame it has no objects of, per (BT frame, t_deep,
    min_area_px), wherever they come from."""
    labeled = Counter()
    real = convection._detect

    def label(bt, t_deep, min_area_px):
        labeled[id(bt), t_deep, min_area_px] += 1
        return real(bt, t_deep, min_area_px)

    monkeypatch.setattr(convection, "_detect", label)
    return labeled


def test_walkthrough_labels_each_frame_once(monkeypatch):
    """detect every frame, track, build the engine and run it, as a script
    would: the engine reuses the objects detect found, with no detect call."""
    labeled, engine_detects = count_labelings(monkeypatch), []
    real_detect = convection.detect
    monkeypatch.setattr(convection, "detect",
                        lambda *args: engine_detects.append(args) or real_detect(*args))
    bt, rain, wind = make_data(3, 10, set(), set(), set())
    detections = [real_detect(frame) for frame in bt]
    tracks = build_tracks(detections)
    engine = FusionEngine(REGIONS, bt=GridStack(bt), rain=GridStack(rain),
                          wind_speed={"lr": GridStack(wind)}, window_s=WINDOW_S)
    assert repr((engine.detections, engine.tracks)) == repr(([tuple(d) for d in detections],
                                                            tracks))
    engine.run(bt[0].time, bt[-1].time, 600)
    assert set(labeled.values()) == {1}
    assert len(labeled) == len(bt)
    assert engine_detects == []


def test_memo_never_keeps_a_frame_alive():
    bt, rain, wind = one_window_data()
    engine = FusionEngine(REGIONS, bt=bt, rain=rain, wind_speed=wind)
    engine.run(bt[0].time, bt[-1].time, 600)
    frames = [bt[3], rain[2], wind["lr"][1]]
    assert all(len(geogrid._FRAME_MEMO[f]) >= 1 for f in frames)
    # The tables are read-only arrays that refer to no frame.
    tables = {key[0]: value for f in frames for key, value in geogrid._FRAME_MEMO[f].items()
              if key[0].endswith("table")}
    assert set(tables) == {"cloud table", "rain table", "rank table"}
    arrays = [a for value in tables.values() for a in (value if isinstance(value, tuple) else [value])]
    assert all(isinstance(a, np.ndarray) and not a.flags.writeable for a in arrays)
    refs = [weakref.ref(f) for f in frames]
    del bt, rain, wind, engine, frames, tables, arrays
    gc.collect()
    assert [r() for r in refs] == [None] * 3


def test_wind_frames_keep_one_byte_ranks_and_tables():
    bt, rain, wind = one_window_data()
    engine = FusionEngine(REGIONS, bt=bt, rain=rain, wind_speed=wind)
    engine.run(bt[0].time, bt[-1].time, 600)
    ranked = 0
    for frame in wind["lr"]:
        memo = geogrid._FRAME_MEMO.get(frame, {})
        cells = frame.geometry.nrows * frame.geometry.ncols
        ranks = [value for key, value in memo.items() if key[0] == "ranks"]
        # A table's layout key holds one window per region of its call.
        tables = [(value, len(key[2])) for key, value in memo.items() if key[0] == "rank table"]
        assert len(ranks) + len(tables) == len(memo)
        if not memo:
            continue
        ranked += 1
        (rank,) = ranks
        assert rank.dtype == np.int8 and rank.nbytes <= cells and not rank.flags.writeable
        assert np.array_equal(rank == -1, ~frame.finite_mask)
        assert tables and all(t.dtype == np.int8 and t.size == n and not t.flags.writeable
                              for t, n in tables)
    assert ranked >= 2


def detect_frame(rng, nodata_share: float, blob) -> "geogrid.GeoGrid":
    """Noise from cold to warm, one cold uniform block, nodata cells."""
    values = rng.uniform(195.0, 290.0, size=(BT_GEOM.nrows, BT_GEOM.ncols))
    r0, c0, height, width = blob
    values[r0:r0 + height, c0:c0 + width] = 200.0
    values[rng.uniform(size=values.shape) < nodata_share] = DEFAULT_NODATA
    return make_grid(values, geometry=BT_GEOM, time=T0)


def memo_free(frame, t_deep, min_area_px):
    """detect's route without the memo, on a copy no memo entry belongs to."""
    bt = copy.deepcopy(frame)
    return summarize(bt, label_components(convective_mask(bt, t_deep), min_area_px))


def assert_same_objects(got, want):
    assert repr(got) == repr(want)
    for g, w in zip(got, want, strict=True):
        assert np.array_equal(g.rows, w.rows) and np.array_equal(g.cols, w.cols)


class TestDetectKeepsEachFramesObjects:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), nodata_share=st.sampled_from([0.0, 0.05, 0.3]),
           blob=st.tuples(st.integers(0, 9), st.integers(0, 11), st.integers(1, 4),
                          st.integers(1, 4)),
           params=st.lists(st.tuples(st.sampled_from([200.0, 205.0, 220.0, 240.0]),
                                     st.integers(1, 9)), min_size=1, max_size=5))
    def test_detect_equals_the_memo_free_route(self, seed, nodata_share, blob, params):
        frame = detect_frame(np.random.default_rng(seed), nodata_share, blob)
        # The second round reads every result from the memo.
        for t_deep, min_area_px in params * 2:
            assert_same_objects(detect(frame, t_deep, min_area_px),
                                memo_free(frame, t_deep, min_area_px))

    def test_each_parameter_is_part_of_the_key(self):
        # Blocks of 12 px at 200 K and 212 K, 6 px at 210 K and 5 px at
        # 200 K: each (t_deep, min_area_px) below keeps another set.
        values = np.full((BT_GEOM.nrows, BT_GEOM.ncols), 280.0)
        values[0:3, 0:4] = 200.0
        values[5:7, 0:3] = 210.0
        values[5:8, 6:10] = 212.0
        values[10, 2:7] = 200.0
        values[11, 13] = DEFAULT_NODATA
        frame = make_grid(values, geometry=BT_GEOM, time=T0)
        params = [(220.0, 4), (205.0, 4), (220.0, 9), (205.0, 9)]
        results = [repr(memo_free(frame, *p)) for p in params]
        assert len(set(results)) == len(params)
        for p in params * 2:
            assert_same_objects(detect(frame, *p), memo_free(frame, *p))

    def test_a_second_call_shares_the_objects_in_a_new_list(self):
        frame = detect_frame(np.random.default_rng(2), 0.05, (3, 4, 3, 3))
        first, second = detect(frame), detect(frame)
        assert first and first is not second
        assert all(a is b for a, b in zip(first, second, strict=True))
        want = repr(first)
        first.clear()
        second.reverse()
        second.append(None)
        assert repr(detect(frame)) == want

    def test_a_failing_call_raises_every_time_and_leaves_no_entry(self):
        rain = make_grid(np.full((3, 3), 250.0), variable=Variable.RAIN_RATE)
        frame = detect_frame(np.random.default_rng(3), 0.05, (3, 4, 3, 3))
        for _ in range(2):
            with pytest.raises(TypeError):
                detect(rain)
            with pytest.raises(ValueError):
                detect(frame, 220.0, 0)
        assert rain not in geogrid._FRAME_MEMO
        assert frame not in geogrid._FRAME_MEMO
        detect(frame)
        with pytest.raises(ValueError):
            detect(frame, 220.0, 0)
        assert list(geogrid._FRAME_MEMO[frame]) == [("detect", 220.0, 4)]

    def test_a_frame_holding_only_detections_is_collected(self):
        frame = detect_frame(np.random.default_rng(4), 0.05, (3, 4, 3, 3))
        objects = detect(frame)
        assert list(geogrid._FRAME_MEMO[frame]) == [("detect", 220.0, 4)]
        ref = weakref.ref(frame)
        del frame
        gc.collect()
        assert ref() is None
        assert objects


def test_per_frame_is_defined_in_geogrid_and_called_by_four_modules():
    defined, callers = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and node.name == "_per_frame":
                defined.append(path.stem)
            elif isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "_per_frame":
                    callers.add(path.stem)
    assert defined == ["geogrid"]
    assert callers == {"convection", "fusion", "precip", "wind"}
