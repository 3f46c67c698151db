"""Indicator assembly, the warning rule table, and the per-epoch engine."""

from __future__ import annotations

import dataclasses
import math
from datetime import timedelta

import numpy as np
import pytest

from cswarn import fusion, tracking
from cswarn.convection import detect
from cswarn.fusion import (
    FusionEngine,
    RegionIndicators,
    RuleSet,
    WarnLevel,
    build_indicators,
    decide,
)
from cswarn.geogrid import KM_PER_DEG, GeoGrid, GridGeometry, GridStack, RegionBox, Variable
from cswarn.scenario import CellSpec, generate, paper_replay_spec
from cswarn.tracking import Track
from cswarn.wind import WindCategory

from conftest import T0, make_grid, make_stack
from oracles import cell_lat, cell_lon, region_cells
from test_tracking import obj_at

REGION = RegionBox("R", 10.5, 12.5, 20.5, 22.5)


def indicators(region="R", epoch=T0, fraction=0.0, min_bt=None,
               wind=WindCategory.NONE, wind_flag=False, rain=0.0,
               persistence=0.0, approach=None, sources=None):
    return RegionIndicators(
        region=region, epoch=epoch, deep_cloud_fraction=fraction,
        min_bt_K=min_bt, wind_cat=wind, wind_no_observation=wind_flag,
        max_rain_mmh=rain, rain_persistence_h=persistence,
        approach_s=approach, source_count=sources or {},
    )


def detected(*grids):
    """A BT stack of ``grids`` and the objects detected in each frame."""
    return GridStack(grids), [detect(grid) for grid in grids]


def random_cloud_case(seed):
    """Three frames, each with one cold 3x3 block, and a random box."""
    rng = np.random.default_rng(seed)
    geom = GridGeometry(
        lat_min=float(rng.uniform(10, 12)), lon_min=float(rng.uniform(100, 102)),
        dlat=0.1, dlon=0.1, nrows=int(rng.integers(6, 12)), ncols=int(rng.integers(6, 12)))
    grids = []
    for k in range(3):
        values = rng.uniform(230.0, 290.0, size=(geom.nrows, geom.ncols))
        r0, c0 = rng.integers(0, geom.nrows - 2), rng.integers(0, geom.ncols - 2)
        values[r0:r0 + 3, c0:c0 + 3] = rng.uniform(190.0, 215.0, size=(3, 3))
        grids.insert(0, make_grid(values, geometry=geom, time=T0 - timedelta(seconds=600 * k)))
    lat0 = geom.lat_min + rng.uniform(-0.1, 0.6) * geom.nrows * geom.dlat
    lon0 = geom.lon_min + rng.uniform(-0.1, 0.6) * geom.ncols * geom.dlon
    box = RegionBox("B", lat0, lat0 + rng.uniform(0.1, 0.8),
                    lon0, lon0 + rng.uniform(0.1, 0.8))
    return (*detected(*grids), box)


CLOUD_GEOM = GridGeometry(lat_min=10.0, lon_min=100.0, dlat=0.1, dlon=0.1, nrows=10, ncols=10)


def bbox_edge_on_region_edge_case():
    """The region starts exactly on the cold object's top bbox edge, so
    its bbox touches the region but none of its pixels lie in it; a warmer
    object inside the region is the only one that counts."""
    values = np.full((10, 10), 280.0)
    values[6:9, 2:5] = 190.0
    values[1:3, 2:6] = 210.0
    bt, detections = detected(make_grid(values, geometry=CLOUD_GEOM))
    cold = next(o for o in detections[0] if o.min_bt == 190.0)
    box = RegionBox("B", cold.bbox.lat_max, cold.bbox.lat_max + 0.6,
                    cold.bbox.lon_min, cold.bbox.lon_max)
    assert cold.bbox.intersects(box)
    cold_pixels = {(int(r), int(c)) for r, c in zip(cold.rows, cold.cols)}
    assert not cold_pixels & region_cells(CLOUD_GEOM, box)
    return bt, detections, box


def l_shape_around_region_case():
    """An L-shaped object whose bbox covers the region while none of its
    pixels lie in it."""
    values = np.full((10, 10), 280.0)
    values[2:8, 2] = 200.0
    values[7, 2:8] = 200.0
    bt, detections = detected(make_grid(values, geometry=CLOUD_GEOM))
    (obj,) = detections[0]
    box = RegionBox("B", cell_lat(CLOUD_GEOM, 5) - 0.01, cell_lat(CLOUD_GEOM, 2) + 0.01,
                    cell_lon(CLOUD_GEOM, 4) - 0.01, cell_lon(CLOUD_GEOM, 7) + 0.01)
    assert obj.bbox.lat_min < box.lat_min < box.lat_max < obj.bbox.lat_max
    assert obj.bbox.lon_min < box.lon_min < box.lon_max < obj.bbox.lon_max
    return bt, detections, box


CLOUD_CASES = {
    "bbox_edge_on_region_edge": bbox_edge_on_region_edge_case,
    "l_shape_around_region": l_shape_around_region_case,
}


class TestRegionIndicatorsValidation:
    def test_fraction_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError):
            indicators(fraction=1.5)
        with pytest.raises(ValueError):
            indicators(fraction=-0.1)

    def test_finite_approach_must_be_positive(self):
        with pytest.raises(ValueError):
            indicators(approach=0)
        assert indicators(approach=600).approach_s == 600

    def test_negative_rain_rejected(self):
        with pytest.raises(ValueError):
            indicators(rain=-1.0)


class TestBuildIndicators:
    def test_all_quiet(self):
        ind = build_indicators(T0, [REGION], bt=None, tracks=[],
                               wind_stacks=[], rain_stats={})[0]
        assert ind.deep_cloud_fraction == 0.0
        assert ind.min_bt_K is None
        assert ind.wind_cat == WindCategory.NONE
        assert ind.wind_no_observation is True
        assert ind.max_rain_mmh == 0.0
        assert ind.rain_persistence_h == 0.0
        assert ind.approach_s is None

    def test_region_fully_covered_by_cold_cloud(self):
        bt = GridStack([make_grid(np.full((4, 4), 205.0))])
        ind = build_indicators(T0, [REGION], bt,
                               tracks=[], wind_stacks=[], rain_stats={})[0]
        assert ind.deep_cloud_fraction == 1.0
        assert ind.min_bt_K == 205.0

    def test_partial_coverage_fraction(self):
        values = np.full((4, 4), 280.0)
        values[0, 1] = 205.0    # fourth blob pixel, north of the region
        values[1, 1] = 205.0
        values[1, 2] = 205.0
        values[2, 1] = 205.0    # region block is rows 1-2 x cols 1-2
        bt = GridStack([make_grid(values)])
        ind = build_indicators(T0, [REGION], bt,
                               tracks=[], wind_stacks=[], rain_stats={})[0]
        assert ind.deep_cloud_fraction == pytest.approx(0.75)

    def test_approach_is_min_over_tracks(self):
        lat = 16.0
        region = RegionBox("coast", 15.8, 16.2, 104.0, 106.0)
        deg = lambda km: km / (KM_PER_DEG * math.cos(math.radians(lat)))
        dlon = deg(10.0 * 600.0 / 1000.0)

        def westward(track_id, west_edge_gap_km):
            lon_last = region.lon_max + deg(west_edge_gap_km) + 0.25
            track = Track(track_id=track_id)
            for k in range(3):
                track.add(obj_at(k + 1, lat, lon_last + (2 - k) * dlon,
                                 time=T0 + timedelta(seconds=(k - 2) * 600)))
            return track

        near = westward(1, 35.9)    # arrives at the 3600 s horizon
        far = westward(2, 71.9)     # arrives at the 7200 s horizon
        ind = build_indicators(T0, [region], bt=None, tracks=[far, near],
                               wind_stacks=[], rain_stats={})[0]
        assert ind.approach_s == 3600

    def test_stale_tracks_are_ignored(self):
        lat, lon = 16.0, 106.5
        track = Track(track_id=1)
        old = T0 - timedelta(seconds=20000)
        track.add(obj_at(1, lat, lon, time=old))
        track.add(obj_at(2, lat, lon - 0.05, time=old + timedelta(seconds=600)))
        ind = build_indicators(T0, [REGION], bt=None, tracks=[track],
                               wind_stacks=[], rain_stats={}, window_s=10800)[0]
        assert ind.approach_s is None

    @pytest.mark.parametrize("case", [0, 1, 2, 3, *CLOUD_CASES])
    def test_cloud_stats_match_per_cell_oracle(self, case):
        if isinstance(case, str):
            bt, detections, box = CLOUD_CASES[case]()
        else:
            bt, detections, box = random_cloud_case(case)
        cells = region_cells(bt.geometry, box)

        fractions, touching_bt = [0.0], []
        for objects in detections:
            covered = set()
            for obj in objects:
                hits = {(int(r), int(c)) for r, c in zip(obj.rows, obj.cols)} & cells
                if hits:
                    covered |= hits
                    touching_bt.append(obj.min_bt)
            if cells:
                fractions.append(len(covered) / len(cells))

        ind = build_indicators(T0, [box], bt, tracks=[],
                               wind_stacks=[], rain_stats={})[0]
        assert ind.deep_cloud_fraction == pytest.approx(max(fractions))
        assert ind.min_bt_K == (min(touching_bt) if touching_bt else None)
        assert ind.source_count["bt"] == (1 if cells else 0)


@pytest.fixture(scope="module")
def busy_case():
    """Four hours of the paper replay plus three cells: one moving north-west
    with strong wind, one stationary and one that dies after an hour."""
    spec = paper_replay_spec()
    extra = (
        CellSpec("nw", 16.2, 108.8, speed_mps=12.0, bearing_deg=315.0,
                 radius_km=25.0, wind_peak_mps=14.0, rain_peak_mmh=9.0),
        CellSpec("still", 18.5, 104.5, speed_mps=0.0, bearing_deg=0.0,
                 radius_km=20.0, wind_peak_mps=18.0),
        CellSpec("brief", 17.5, 104.2, speed_mps=6.0, bearing_deg=90.0,
                 radius_km=20.0, death_s=3600),
    )
    spec = dataclasses.replace(spec, duration_s=14400, cells=spec.cells + extra)
    return spec, generate(spec, seed=0)


@pytest.fixture(scope="module")
def busy_engine(busy_case):
    spec, data = busy_case
    return FusionEngine(list(spec.regions), bt=data.bt, rain=data.rain,
                        wind_speed=dict(data.wind))


def busy_epochs(engine):
    return [frame.time for frame in engine.bt.frames[::3]]


class TestOncePerEpoch:
    def test_all_regions_at_once_equal_each_region_alone(self, busy_engine):
        engine = busy_engine
        together = []
        for epoch in busy_epochs(engine):
            rain = {r.name: engine.rain_stats_at(epoch, r) for r in engine.regions}
            args = (engine.bt, engine.tracks, engine.wind, rain)
            inds = build_indicators(epoch, engine.regions, *args)
            assert inds == [build_indicators(epoch, [r], *args)[0] for r in engine.regions]
            assert inds == [report.indicators for report in engine.run_epoch(epoch)]
            together += inds
        assert any(ind.approach_s is not None for ind in together)
        assert any(ind.wind_cat >= WindCategory.SEVERE for ind in together)

    def test_one_motion_fit_per_live_track_per_epoch(self, busy_engine, monkeypatch):
        engine = busy_engine
        fitted = []
        real = tracking.motion_vector

        def counting(track, *args, **kwargs):
            fitted.append(track.track_id)
            return real(track, *args, **kwargs)

        monkeypatch.setattr(tracking, "motion_vector", counting)
        for epoch in busy_epochs(engine):
            fitted.clear()
            engine.run_epoch(epoch)
            start = epoch - timedelta(seconds=engine.window_s)
            live = [t.track_id for t in engine.tracks
                    if len(t.up_to(epoch).observations) >= 2
                    and start < t.up_to(epoch).last.time]
            assert sorted(fitted) == sorted(live)
        assert len(engine.tracks) >= 3

    def test_footprint_wind_only_for_tracks_that_reach_a_region(self, busy_engine, monkeypatch):
        engine = busy_engine
        boxes = []
        real = fusion.region_max_category

        def counting(stacks, regions, *args, **kwargs):
            boxes.append(tuple(regions))
            return real(stacks, regions, *args, **kwargs)

        monkeypatch.setattr(fusion, "region_max_category", counting)
        skipped = reached = quiet = 0
        for epoch in busy_epochs(engine):
            boxes.clear()
            engine.run_epoch(epoch)
            start = epoch - timedelta(seconds=engine.window_s)
            live = [t.up_to(epoch) for t in engine.tracks]
            live = [t for t in live if len(t.observations) >= 2 and start < t.last.time]
            reaching = [
                t for t in live
                if any(h is not None for h in tracking.time_to_region(
                    tracking.forecast(t, engine.fit_window), engine.regions))
            ]
            skipped += len(live) - len(reaching)
            # One call for the regions' own wind, and one more, over the
            # reaching tracks' last bboxes, when any track reaches a region.
            footprint = [tuple(t.last.bbox for t in reaching)] if reaching else []
            assert boxes == [tuple(engine.regions), *footprint]
            reached += len(reaching)
            quiet += not reaching
        assert skipped > 0 and reached > 0 and quiet > 0


class TestDecide:
    def test_all_quiet_is_none(self):
        report = decide(indicators())
        assert report.level == WarnLevel.NONE
        assert report.triggered_rules == ()
        assert report.lead_time_s is None

    def test_severe_via_r3(self):
        ind = indicators(fraction=1.0, min_bt=200.0, wind=WindCategory.SEVERE,
                         rain=10.0, persistence=4.0)
        report = decide(ind)
        assert report.level == WarnLevel.SEVERE
        assert "R3" in report.triggered_rules
        assert report.lead_time_s is None   # nothing approaching

    def test_warning_from_severe_wind_approaching(self):
        ind = indicators(wind=WindCategory.SEVERE, approach=10000)
        report = decide(ind)
        assert report.level == WarnLevel.WARNING
        assert report.lead_time_s == 10000
        assert set(report.triggered_rules) == {"R1", "R2"}

    def test_watch_from_cloud_fraction_alone(self):
        report = decide(indicators(fraction=0.2))
        assert report.level == WarnLevel.WATCH
        assert report.triggered_rules == ("R1",)

    def test_watch_from_moderate_wind_alone(self):
        report = decide(indicators(wind=WindCategory.MODERATE))
        assert report.level == WarnLevel.WATCH

    def test_weak_wind_does_not_watch(self):
        report = decide(indicators(wind=WindCategory.WEAK))
        assert report.level == WarnLevel.NONE

    def test_warning_from_cloud_and_rain(self):
        report = decide(indicators(fraction=0.5, rain=9.0))
        assert report.level == WarnLevel.WARNING
        assert set(report.triggered_rules) == {"R1", "R2"}

    def test_lead_time_clamped_to_one_day(self):
        ind = indicators(wind=WindCategory.SEVERE, approach=86400)
        assert decide(ind).lead_time_s == 86400

    def test_level_equals_max_of_triggered_rules(self):
        rules = RuleSet()
        cases = [
            indicators(fraction=0.5),
            indicators(fraction=0.5, rain=9.0),
            indicators(fraction=0.5, rain=9.0, persistence=3.5, wind=WindCategory.SEVERE),
            indicators(wind=WindCategory.SEVERE, approach=3600),
        ]
        for ind in cases:
            report = decide(ind, rules)
            triggered = dict(rules.evaluate(ind))
            assert set(report.triggered_rules) == set(triggered)
            assert report.level == max(triggered.values(), default=WarnLevel.NONE)

    def test_custom_thresholds_respected(self):
        rules = RuleSet(min_cloud_fraction=0.5)
        assert decide(indicators(fraction=0.3), rules).level == WarnLevel.NONE
        assert decide(indicators(fraction=0.6), rules).level == WarnLevel.WATCH

    def test_monotone_under_single_field_worsening(self):
        base = indicators(fraction=0.15, rain=7.0, persistence=2.0,
                          wind=WindCategory.WEAK, approach=7200)
        worse_steps = [
            dict(fraction=0.25), dict(rain=9.0), dict(persistence=3.5),
            dict(wind=WindCategory.SEVERE), dict(approach=600),
        ]
        base_level = decide(base).level
        for step in worse_steps:
            fields = dict(fraction=0.15, rain=7.0, persistence=2.0,
                          wind=WindCategory.WEAK, approach=7200)
            fields.update(step)
            assert decide(indicators(**fields)).level >= base_level


class TestWarningReportInvariants:
    def test_elevated_level_requires_rules(self):
        with pytest.raises(ValueError):
            dataclasses.replace(decide(indicators()), level=WarnLevel.WATCH)

    def test_lead_time_present_iff_approaching(self):
        with_approach = decide(indicators(wind=WindCategory.SEVERE, approach=9000))
        assert with_approach.lead_time_s is not None
        without = decide(indicators(fraction=0.9, rain=10.0))
        assert without.lead_time_s is None


class TestRunEpoch:
    def test_empty_region_list(self):
        assert FusionEngine([]).run_epoch(T0) == []

    def test_duplicate_region_names_rejected(self):
        boxes = [RegionBox("R", 10.5, 12.5, 20.5, 22.5),
                 RegionBox("R", 10.6, 12.6, 20.6, 22.6)]
        with pytest.raises(ValueError, match="duplicate"):
            FusionEngine(boxes)

    def test_reports_sorted_by_region_name(self):
        boxes = [RegionBox("ZULU", 10.5, 11.5, 20.5, 21.5),
                 RegionBox("ALFA", 11.6, 12.5, 21.6, 22.5)]
        reports = FusionEngine(boxes).run_epoch(T0)
        assert [r.region for r in reports] == ["ALFA", "ZULU"]

    def test_no_observation_safety(self):
        reports = FusionEngine([REGION]).run_epoch(T0)
        assert len(reports) == 1
        report = reports[0]
        assert report.level == WarnLevel.NONE
        assert report.indicators.wind_no_observation is True
        assert report.indicators.min_bt_K is None
        assert all(n == 0 for n in report.indicators.source_count.values())

    def test_quiet_stacks_stay_none(self):
        bt = make_stack([np.full((4, 4), 280.0)] * 3, variable=Variable.BT, dt_s=1800)
        rain = make_stack([np.zeros((4, 4))] * 3, variable=Variable.RAIN_RATE, dt_s=1800)
        epoch = T0 + timedelta(seconds=3600)
        reports = FusionEngine([REGION], bt=bt, rain=rain).run_epoch(epoch)
        assert reports[0].level == WarnLevel.NONE
        assert reports[0].indicators.source_count == {"bt": 1, "rain": 1, "wind": 0}

    def test_cold_cloud_with_heavy_rain_warns(self):
        bt = make_stack([np.full((4, 4), 205.0)] * 3, variable=Variable.BT, dt_s=1800)
        rain = make_stack([np.full((4, 4), 9.0)] * 3, variable=Variable.RAIN_RATE, dt_s=1800)
        epoch = T0 + timedelta(seconds=3600)
        reports = FusionEngine([REGION], bt=bt, rain=rain).run_epoch(epoch)
        assert reports[0].level >= WarnLevel.WARNING
        assert "R2" in reports[0].triggered_rules

    def test_one_frame_rain_stack_is_not_observed(self):
        # A lone frame has no cadence, so its heavy rain is not observed
        # and must not combine with the cold cloud into R2.
        bt = make_stack([np.full((4, 4), 205.0)] * 3, variable=Variable.BT, dt_s=1800)
        rain = make_stack([np.full((4, 4), 9.0)], variable=Variable.RAIN_RATE)
        epoch = T0 + timedelta(seconds=3600)
        engine = FusionEngine([REGION], bt=bt, rain=rain)
        report = engine.run_epoch(epoch)[0]
        assert report.indicators.source_count == {"bt": 1, "rain": 0, "wind": 0}
        assert report.indicators.rain_stats is None
        assert report.indicators.max_rain_mmh == 0.0
        assert report.triggered_rules == ("R1",)
        assert report.level == WarnLevel.WATCH
        assert engine.rain_stats_at(epoch, REGION) is None

    def test_region_off_every_grid_is_unobserved(self):
        # Stacks that would warn any region they cover: cold cloud, heavy
        # rain and severe wind everywhere on the grid.
        bt = make_stack([np.full((4, 4), 205.0)] * 3, variable=Variable.BT, dt_s=1800)
        rain = make_stack([np.full((4, 4), 9.0)] * 3, variable=Variable.RAIN_RATE, dt_s=1800)
        wind = make_stack([np.full((4, 4), 20.0)] * 3, variable=Variable.WIND_SPEED, dt_s=1800)
        off = RegionBox("OFF", 50.0, 51.0, 20.0, 21.0)
        epoch = T0 + timedelta(seconds=3600)
        engine = FusionEngine([REGION, off], bt=bt, rain=rain, wind_speed={"lr": wind})
        by_name = {r.region: r for r in engine.run_epoch(epoch)}
        assert by_name["R"].level >= WarnLevel.WARNING
        assert by_name["R"].indicators.source_count == {"bt": 1, "rain": 1, "wind": 1}
        report = by_name["OFF"]
        assert report.level == WarnLevel.NONE
        assert report.indicators.source_count == {"bt": 0, "rain": 0, "wind": 0}
        assert report.indicators.wind_no_observation is True
        assert report.indicators.rain_stats is None
        assert engine.rain_stats_at(epoch, off) is None


class TestBlankBtFrame:
    def test_blanking_any_interior_frame_equals_dropping_it(self, busy_case):
        """A BT frame with no finite cell is not observed. It used to count
        as a clear sky, which ended every track at it."""
        spec, data = busy_case
        frames = list(data.bt)
        kw = {"rain": data.rain, "wind_speed": dict(data.wind)}
        start, end = frames[0].time, frames[-1].time
        bridged = 0
        for k in range(1, len(frames) - 1):
            blank = frames[k].with_values(np.full(frames[k].values.shape, frames[k].nodata))
            blanked = FusionEngine(spec.regions, GridStack([*frames[:k], blank, *frames[k + 1:]]),
                                   **kw)
            dropped = FusionEngine(spec.regions, GridStack(frames[:k] + frames[k + 1:]), **kw)
            assert len(blanked.detections) == len(frames) and blanked.detections[k] == ()
            assert blanked.tracks == dropped.tracks
            assert repr(blanked.run(start, end)) == repr(dropped.run(start, end))
            bridged += any(t.observations[0].time < blank.time < t.last.time
                           for t in dropped.tracks)
        assert bridged == len(frames) - 2

    @pytest.mark.parametrize("first_bt, hours, seen", [
        (205.0, 3, 0),     # the window holds only blank frames
        (205.0, 0.5, 1),   # a cold frame and a blank one
        (280.0, 0.5, 1),   # a warm frame with no object and a blank one
        (205.0, 10, 0),    # the window holds no frame
    ])
    def test_bt_counts_as_observed_only_with_an_observed_frame(self, first_bt, hours, seen):
        blank = np.full((4, 4), -9999.0)
        bt = make_stack([np.full((4, 4), first_bt), *[blank] * 8], variable=Variable.BT, dt_s=1800)
        engine = FusionEngine([REGION], bt=bt, window_s=3600)
        report = engine.run_epoch(T0 + timedelta(hours=hours))[0]
        assert report.indicators.source_count == {"bt": seen, "rain": 0, "wind": 0}

    def test_epochs_scan_no_frame_the_engine_scanned(self, monkeypatch):
        # A frame without objects is scanned for a finite cell once, while
        # the engine builds its tracks; the epochs reuse that answer.
        blank = np.full((4, 4), -9999.0)
        bt = make_stack([np.full((4, 4), 280.0), *[blank] * 8], variable=Variable.BT, dt_s=1800)
        engine = FusionEngine([REGION], bt=bt, window_s=3600)
        scans = []
        real = GeoGrid.finite_mask.fget
        monkeypatch.setattr(GeoGrid, "finite_mask", property(lambda g: scans.append(g) or real(g)))
        reports = engine.run(T0, T0 + timedelta(hours=4), 1800)
        assert [r.indicators.source_count["bt"] for r in reports] == [1, 1] + [0] * 7
        assert scans == []


class TestFusionEngine:
    def test_duplicate_regions_rejected_at_construction(self):
        with pytest.raises(ValueError, match="duplicate"):
            FusionEngine([REGION, REGION])

    @pytest.mark.parametrize("params, match", [
        ({"window_s": 0}, "window_s"), ({"window_s": -600}, "window_s"),
        ({"fit_window": 1}, "fit_window"), ({"fit_window": 0}, "fit_window"),
    ])
    def test_bounds_the_cli_checks_are_rejected_at_construction(self, params, match):
        with pytest.raises(ValueError, match=match):
            FusionEngine([REGION], **params)
        FusionEngine([REGION], **{key: 2 for key in params})

    @pytest.mark.parametrize("bins", [(10.0, 5.0, 15.0), (5.0, 10.0)])
    def test_bad_bins_rejected_at_construction_when_wind_is_given(self, bins):
        wind = make_stack([np.full((4, 4), 20.0)], variable=Variable.WIND_SPEED)
        with pytest.raises(ValueError):
            FusionEngine([REGION], wind_speed={"lr": wind}, bins=bins)
        assert len(FusionEngine([REGION], bins=bins).run_epoch(T0)) == 1

    def test_wind_that_is_not_speed_rejected_at_construction(self):
        cats = make_stack([np.full((4, 4), 3.0)], variable=Variable.WIND_CAT)
        with pytest.raises(TypeError, match="WIND_SPEED stacks, got WIND_CAT"):
            FusionEngine([REGION], wind_speed={"lr": cats})

    @pytest.mark.parametrize("nodata", [3.0, 0.0, -9999.0])
    def test_a_wind_sentinel_equal_to_a_rank_hides_no_wind(self, nodata):
        # 20 m/s everywhere is severe wind from one source, whatever the
        # speed sentinel is.
        wind = make_stack([np.full((4, 4), 20.0)], variable=Variable.WIND_SPEED, nodata=nodata)
        ind = FusionEngine([REGION], wind_speed={"lr": wind}).run_epoch(T0)[0].indicators
        assert ind.wind_cat == WindCategory.SEVERE
        assert ind.wind_no_observation is False
        assert ind.source_count["wind"] == 1

    @pytest.mark.parametrize("epoch_s", [0, -1800])
    def test_run_rejects_a_step_that_never_advances(self, epoch_s):
        # Without the check the epoch never advances past start and run
        # never returns.
        engine = FusionEngine([REGION])
        with pytest.raises(ValueError, match="epoch_s"):
            engine.run(T0, T0 + timedelta(seconds=3600), epoch_s)
        assert len(engine.run(T0, T0 + timedelta(seconds=3600), 1800)) == 3

    def test_run_is_deterministic(self):
        bt = make_stack([np.full((4, 4), 205.0)] * 5, variable=Variable.BT, dt_s=1800)
        rain = make_stack([np.full((4, 4), 9.0)] * 5, variable=Variable.RAIN_RATE, dt_s=1800)
        end = T0 + timedelta(seconds=4 * 1800)
        runs = [FusionEngine([REGION], bt=bt, rain=rain).run(T0, end) for _ in range(2)]
        assert runs[0] == runs[1]

    def test_rain_stats_exposed_per_epoch(self):
        rain = make_stack([np.full((4, 4), 9.0)] * 3, variable=Variable.RAIN_RATE, dt_s=1800)
        engine = FusionEngine([REGION], rain=rain)
        stats = engine.rain_stats_at(T0 + timedelta(seconds=3600), REGION)
        assert stats is not None
        assert stats.max_rate_mmh == pytest.approx(9.0)
        assert engine.rain_stats_at(T0 + timedelta(days=30), REGION) is None


class TestWestwardScenarioLead:
    def test_downstream_region_warned_well_before_arrival(self):
        spec = dataclasses.replace(paper_replay_spec(), duration_s=14400)
        data = generate(spec, seed=0)
        regions = list(spec.regions)
        engine = FusionEngine(regions, bt=data.bt, rain=data.rain,
                              wind_speed=dict(data.wind))
        reports = engine.run(data.bt.frames[0].time, data.bt.frames[-1].time)

        arrival = data.truth.intersections["DN"]
        warned_at = min(r.epoch for r in reports
                        if r.region == "DN" and r.level >= WarnLevel.WARNING)
        assert (arrival - warned_at).total_seconds() >= 7200

        northern = [r for r in reports if r.region == "NA"]
        assert northern and all(r.level == WarnLevel.NONE for r in northern)
