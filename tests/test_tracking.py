"""Frame-to-frame association, motion estimation, and region approach times."""

from __future__ import annotations

import math
import struct
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cswarn import tracking
from cswarn.convection import CSObject
from cswarn.geogrid import KM_PER_DEG, RegionBox
from cswarn.tracking import (
    HORIZON_MAX_S,
    HORIZON_STEP_S,
    Track,
    UndefinedMotionError,
    associate,
    build_tracks,
    forecast,
    motion_vector,
    time_to_region,
)

from conftest import T0
from oracles import (
    best_assignment,
    displacement_deg,
    horizon_loop_time_to_region,
    translated,
)


def obj_at(id, lat, lon, time=T0, half_deg=0.25):
    """Minimal detected object centered at (lat, lon)."""
    return CSObject(
        id=id, time=time, pixel_count=9, area_km2=900.0,
        centroid_lat=lat, centroid_lon=lon,
        bbox=RegionBox(f"cs{id}", lat - half_deg, lat + half_deg,
                       lon - half_deg, lon + half_deg),
    )


def track_from_positions(positions, dt_s=600, lat=None):
    """Track from a list of (lat, lon) or lon-only positions at fixed cadence."""
    track = Track(track_id=1)
    for i, pos in enumerate(positions):
        plat, plon = pos if isinstance(pos, tuple) else (lat, pos)
        track.add(obj_at(i + 1, plat, plon, time=T0 + timedelta(seconds=i * dt_s)))
    return track


class TestAssociate:
    def test_identical_frames_pair_identically(self):
        frame = [obj_at(1, 16.0, 106.0), obj_at(2, 17.0, 108.0)]
        assert associate(frame, frame) == [(1, 1), (2, 2)]

    def test_small_translation_within_gate(self):
        prev = [obj_at(1, 16.0, 106.0), obj_at(2, 17.0, 108.0)]
        next = [obj_at(1, 16.0, 106.1), obj_at(2, 17.0, 108.1)]
        assert associate(prev, next) == [(1, 1), (2, 2)]

    def test_gate_blocks_distant_pairs(self):
        prev = [obj_at(1, 16.0, 106.0)]
        next = [obj_at(1, 16.0, 107.0)]    # roughly 107 km away
        assert associate(prev, next, max_gap_km=50.0) == []

    def test_matching_is_one_to_one(self):
        prev = [obj_at(1, 16.0, 106.0), obj_at(2, 16.0, 106.2)]
        next = [obj_at(1, 16.0, 106.1)]
        pairs = associate(prev, next)
        assert len(pairs) == 1
        assert pairs[0] == (1, 1)

    def test_crossing_objects_match_brute_force(self):
        prev = [obj_at(1, 16.0, 106.0), obj_at(2, 16.0, 106.3)]
        next = [obj_at(1, 16.0, 106.1), obj_at(2, 16.0, 106.2)]
        assert associate(prev, next) == best_assignment(prev, next, 50.0)

    def test_three_objects_match_brute_force(self):
        prev = [obj_at(1, 15.0, 105.0), obj_at(2, 16.5, 106.5), obj_at(3, 18.0, 108.0)]
        next = [obj_at(1, 15.05, 104.95), obj_at(2, 16.55, 106.45), obj_at(3, 18.05, 107.95)]
        assert associate(prev, next) == best_assignment(prev, next, 50.0)

    def test_order_of_input_lists_is_irrelevant(self):
        prev = [obj_at(1, 16.0, 106.0), obj_at(2, 16.0, 106.3)]
        next = [obj_at(1, 16.0, 106.1), obj_at(2, 16.0, 106.2)]
        forward = associate(prev, next)
        assert associate(prev[::-1], next[::-1]) == forward


class TestTrack:
    def test_times_must_increase(self):
        track = Track(track_id=1)
        track.add(obj_at(1, 16.0, 106.0, time=T0))
        with pytest.raises(ValueError):
            track.add(obj_at(2, 16.0, 106.1, time=T0))

    def test_up_to_truncates(self):
        track = track_from_positions([106.0, 106.1, 106.2], lat=16.0)
        cut = track.up_to(T0 + timedelta(seconds=600))
        assert len(cut.observations) == 2
        assert len(track.observations) == 3


class TestMotionVector:
    def test_single_observation_is_undefined(self):
        track = track_from_positions([106.0], lat=16.0)
        with pytest.raises(UndefinedMotionError):
            motion_vector(track)

    def test_stationary_track(self):
        track = track_from_positions([106.0] * 4, lat=16.0)
        mv = motion_vector(track)
        assert mv.speed_mps == 0.0
        assert mv.bearing_deg is None

    def test_westward_speed_from_two_frames(self):
        track = track_from_positions([106.0, 105.8], lat=16.0)
        mv = motion_vector(track)
        expected = 0.2 * KM_PER_DEG * math.cos(math.radians(16.0)) * 1000.0 / 600.0
        assert mv.speed_mps == pytest.approx(expected, rel=1e-12)
        assert mv.bearing_deg == 270.0

    def test_northward_bearing_is_zero(self):
        track = track_from_positions([(16.0, 106.0), (16.1, 106.0)])
        mv = motion_vector(track)
        assert mv.bearing_deg == 0.0

    @pytest.mark.parametrize("dlat,dlon,bearing", [
        (0.1, 0.0, 0.0), (0.0, 0.1, 90.0), (-0.1, 0.0, 180.0), (0.0, -0.1, 270.0),
    ])
    def test_cardinal_bearings(self, dlat, dlon, bearing):
        track = track_from_positions([(16.0, 106.0), (16.0 + dlat, 106.0 + dlon)])
        assert motion_vector(track).bearing_deg == pytest.approx(bearing, abs=1e-9)

    def test_fit_uses_trailing_window_only(self):
        # Six stationary frames then six moving ones; a window of six sees
        # only steady motion, so the early stall cannot dilute the speed.
        lons = [106.0] * 6 + [106.0 - 0.05 * k for k in range(1, 7)]
        track = track_from_positions(lons, lat=16.0)
        mv = motion_vector(track, fit_window=6)
        expected = 0.05 * KM_PER_DEG * math.cos(math.radians(16.0)) * 1000.0 / 600.0
        assert mv.speed_mps == pytest.approx(expected, rel=1e-9)

    def test_least_squares_smooths_jitter(self):
        # Alternating +/- jitter around a constant drift averages out.
        lons = [106.0 - 0.05 * k + (0.002 if k % 2 else -0.002) for k in range(6)]
        track = track_from_positions(lons, lat=16.0)
        mv = motion_vector(track)
        drift = 0.05 * KM_PER_DEG * math.cos(math.radians(16.0)) * 1000.0 / 600.0
        assert mv.speed_mps == pytest.approx(drift, rel=0.02)


def westward_track(speed_mps, lat=16.0, lon0=110.2, n=3):
    dlon = speed_mps * 600.0 / 1000.0 / (KM_PER_DEG * math.cos(math.radians(lat)))
    return track_from_positions([lon0 - dlon * k for k in range(n)], lat=lat)


class TestTimeToRegion:
    def test_bbox_already_touching_hits_first_horizon(self):
        region = RegionBox("R", 15.8, 16.2, 109.5, 110.1)
        track = westward_track(10.0)
        assert time_to_region(forecast(track), [region]) == [600]

    def test_hundred_km_gap_at_ten_mps(self):
        # Track bbox west edge sits 100 km east of the region; expect the
        # first 600 s multiple at or after 10000 s.
        lat = 16.0
        track = westward_track(10.0, lat=lat)
        west_edge = track.observations[-1].bbox.lon_min
        gap_deg = 100.0 / (KM_PER_DEG * math.cos(math.radians(lat)))
        region = RegionBox("R", 15.8, 16.2, west_edge - gap_deg - 2.0, west_edge - gap_deg)
        assert time_to_region(forecast(track), [region]) == [10200]

    def test_receding_track_never_arrives(self):
        region = RegionBox("R", 15.8, 16.2, 100.0, 101.0)
        dlon = 10.0 * 600.0 / 1000.0 / (KM_PER_DEG * math.cos(math.radians(16.0)))
        track = track_from_positions([110.0 + dlon * k for k in range(3)], lat=16.0)
        assert time_to_region(forecast(track), [region]) == [None]

    def test_stationary_track_outside_region(self):
        region = RegionBox("R", 15.8, 16.2, 100.0, 101.0)
        track = track_from_positions([110.0, 110.0], lat=16.0)
        assert time_to_region(forecast(track), [region]) == [None]

    def test_wrong_latitude_band_never_intersects(self):
        region = RegionBox("R", 25.0, 26.0, 100.0, 120.0)
        track = westward_track(10.0)
        assert time_to_region(forecast(track), [region]) == [None]

    def test_result_bounded_by_max_horizon(self):
        lat = 16.0
        track = westward_track(1.0, lat=lat)   # 86.4 km in a day
        west_edge = track.observations[-1].bbox.lon_min
        gap_deg = 100.0 / (KM_PER_DEG * math.cos(math.radians(lat)))
        region = RegionBox("R", 15.8, 16.2, west_edge - gap_deg - 2.0, west_edge - gap_deg)
        assert time_to_region(forecast(track), [region]) == [None]

    def test_eastward_track_reaches_region_to_the_east(self):
        lat = 16.0
        dlon = 10.0 * 600.0 / 1000.0 / (KM_PER_DEG * math.cos(math.radians(lat)))
        track = track_from_positions([100.0 + dlon * k for k in range(3)], lat=lat)
        east_edge = track.observations[-1].bbox.lon_max
        gap_deg = 100.0 / (KM_PER_DEG * math.cos(math.radians(lat)))
        region = RegionBox("R", 15.8, 16.2, east_edge + gap_deg, east_edge + gap_deg + 2.0)
        assert time_to_region(forecast(track), [region]) == [10200]

    def test_arrival_scales_inversely_with_speed(self):
        # The forecast bbox moves speed * horizon, so the 100 km gap closes
        # at gap / speed, to within one horizon step.
        lat = 16.0
        gap_deg = 100.0 / (KM_PER_DEG * math.cos(math.radians(lat)))
        for speed in (5.0, 10.0, 20.0):
            track = westward_track(speed, lat=lat)
            west_edge = track.observations[-1].bbox.lon_min
            region = RegionBox("R", 15.8, 16.2, west_edge - gap_deg - 2.0, west_edge - gap_deg)
            [arrival] = time_to_region(forecast(track), [region])
            assert 0 <= arrival - 100_000.0 / speed < 600

    def test_every_region_answered_in_order(self):
        lat = 16.0
        track = westward_track(10.0, lat=lat)
        west_edge = track.observations[-1].bbox.lon_min
        gap_deg = 100.0 / (KM_PER_DEG * math.cos(math.radians(lat)))
        regions = [RegionBox("far", 25.0, 26.0, 100.0, 120.0),
                   RegionBox("gap", 15.8, 16.2, west_edge - gap_deg - 2.0, west_edge - gap_deg),
                   RegionBox("touch", 15.8, 16.2, 109.5, 110.1)]
        assert time_to_region(forecast(track), regions) == [None, 10200, 600]
        assert time_to_region(forecast(track), []) == []

    def test_fixed_geometry_is_built_once(self):
        """The regions' edges are found once per region tuple, and every
        moving forecast shares one read-only horizon array."""
        regions = (RegionBox("a", 15.8, 16.2, 109.0, 109.5),
                   RegionBox("b", 10.0, 11.0, 100.0, 101.0))
        paths = [forecast(westward_track(s)) for s in (5.0, 10.0, 20.0)]
        tracking._region_edges.cache_clear()
        answers = [time_to_region(p, regions) for p in paths]
        assert answers == [time_to_region(p, list(regions)) for p in paths]
        info = tracking._region_edges.cache_info()
        assert (info.misses, info.hits) == (1, 5)
        assert paths[0].horizons is paths[1].horizons is paths[2].horizons
        assert not paths[0].horizons.flags.writeable
        assert not any(edges.flags.writeable for edges in tracking._region_edges(regions))


class TestForecast:
    def test_moving_track_gets_every_horizon(self):
        path = forecast(westward_track(10.0))
        assert path.horizons.tolist() == list(range(HORIZON_STEP_S, HORIZON_MAX_S + 1, HORIZON_STEP_S))
        assert all(edge.dtype == np.float64 for edge in path)
        lons = path.lon_min.tolist()
        assert lons == sorted(lons, reverse=True)

    def test_stationary_track_gets_first_horizon_only(self):
        track = track_from_positions([110.0, 110.0], lat=16.0)
        box = track.last.bbox
        path = forecast(track)
        assert [edge.tolist() for edge in path] == [
            [HORIZON_STEP_S], [box.lat_min], [box.lat_max], [box.lon_min], [box.lon_max]]


@st.composite
def tracks_and_regions(draw):
    """A track (stationary, straight or jittered in any direction) and a
    region placed along, behind or beside its forecast path."""
    lat0 = draw(st.floats(-30.0, 30.0))
    lon0 = draw(st.floats(90.0, 130.0))
    kind = draw(st.sampled_from(["stationary", "straight", "jittered"]))
    vlat, vlon = (0.0, 0.0) if kind == "stationary" else (
        draw(st.floats(-0.1, 0.1)), draw(st.floats(-0.1, 0.1)))
    n = draw(st.integers(2, 8))
    jitter = 0.01 if kind == "jittered" else 0.0
    positions = [
        (lat0 + vlat * k + jitter * draw(st.floats(-1.0, 1.0)),
         lon0 + vlon * k + jitter * draw(st.floats(-1.0, 1.0)))
        for k in range(n)
    ]
    ahead = draw(st.floats(-50.0, 200.0))   # steps along the path; < 0 is behind
    lat_c = positions[-1][0] + vlat * ahead + draw(st.floats(-2.0, 2.0))
    lon_c = positions[-1][1] + vlon * ahead + draw(st.floats(-2.0, 2.0))
    half_lat, half_lon = draw(st.floats(0.01, 1.5)), draw(st.floats(0.01, 1.5))
    region = RegionBox("R", lat_c - half_lat, lat_c + half_lat, lon_c - half_lon, lon_c + half_lon)
    return track_from_positions(positions), region, draw(st.integers(2, 6))


@st.composite
def tracks_and_region_lists(draw):
    """A track from :func:`tracks_and_regions` and, in drawn order, its
    region, a box sharing an edge line with the forecast path at a drawn
    horizon, a box beyond the path, a box holding the track's last bbox and
    four or more boxes around drawn horizons of the path."""
    track, region, fit_window = draw(tracks_and_regions())
    path = forecast(track, fit_window)
    horizon = st.integers(0, len(path.horizons) - 1)
    k = draw(horizon)
    lat_min, lat_max, lon_min, lon_max = (float(edge[k]) for edge in path[1:])
    touching = {
        "north": RegionBox("touch", lat_max, lat_max + 1.0, lon_min, lon_max),
        "south": RegionBox("touch", lat_min - 1.0, lat_min, lon_min, lon_max),
        "east": RegionBox("touch", lat_min, lat_max, lon_max, lon_max + 1.0),
        "west": RegionBox("touch", lat_min, lat_max, lon_min - 1.0, lon_min),
    }[draw(st.sampled_from(["north", "south", "east", "west"]))]
    top = float(path.lat_max.max())
    off = RegionBox("off", top + 0.5, top + 1.5, lon_min, lon_max)
    box = track.last.bbox
    holding = RegionBox("hold", box.lat_min - 0.1, box.lat_max + 0.1,
                        box.lon_min - 0.1, box.lon_max + 0.1)
    around = []
    for n in range(draw(st.integers(4, 8))):
        k = draw(horizon)
        lat_c = (path.lat_min[k] + path.lat_max[k]) / 2.0 + draw(st.floats(-1.0, 1.0))
        lon_c = (path.lon_min[k] + path.lon_max[k]) / 2.0 + draw(st.floats(-1.0, 1.0))
        half_lat, half_lon = draw(st.floats(0.01, 0.5)), draw(st.floats(0.01, 0.5))
        around.append(RegionBox(f"A{n}", lat_c - half_lat, lat_c + half_lat,
                                lon_c - half_lon, lon_c + half_lon))
    regions = draw(st.permutations([region, touching, off, holding, *around]))
    return track, regions, fit_window


class TestForecastMatchesHorizonLoop:
    @settings(max_examples=300, deadline=None)
    @given(tracks_and_region_lists())
    def test_first_hit_on_path_equals_per_region_loop(self, case):
        track, regions, fit_window = case
        arrivals = time_to_region(forecast(track, fit_window), regions)
        assert len(regions) >= 8 and len(arrivals) == len(regions)
        for region, arrival in zip(regions, arrivals):
            assert arrival == horizon_loop_time_to_region(track, region, fit_window), region
            if region.name == "touch":
                assert arrival is not None
            if region.name == "off":
                assert arrival is None


class TestForecastEdges:
    @settings(max_examples=300, deadline=None)
    @given(tracks_and_regions())
    def test_edges_equal_translated_boxes_bit_for_bit(self, case):
        track, _, fit_window = case
        motion = motion_vector(track, fit_window)
        box = track.last.bbox
        lat_ref = (box.lat_min + box.lat_max) / 2.0
        horizons = range(HORIZON_STEP_S, HORIZON_MAX_S + 1, HORIZON_STEP_S)
        if motion.speed_mps == 0.0:
            horizons = horizons[:1]
        path = forecast(track, fit_window)
        assert path.horizons.tolist() == list(horizons)
        for i, h in enumerate(horizons):
            moved = translated(box, *displacement_deg(motion, h, lat_ref))
            edges = (path.lat_min[i], path.lat_max[i], path.lon_min[i], path.lon_max[i])
            want = (moved.lat_min, moved.lat_max, moved.lon_min, moved.lon_max)
            assert struct.pack("<4d", *edges) == struct.pack("<4d", *want), h

    @settings(max_examples=300, deadline=None)
    @given(tracks_and_regions(), st.integers(0, HORIZON_MAX_S // HORIZON_STEP_S - 1),
           st.sampled_from(["north", "south", "east", "west"]))
    def test_region_touching_one_edge_matches_horizon_loop(self, case, k, side):
        # Boxes that only share an edge line intersect: the test is closed.
        track, _, fit_window = case
        path = forecast(track, fit_window)
        k = min(k, len(path.horizons) - 1)
        lat_min, lat_max, lon_min, lon_max = (float(edge[k]) for edge in path[1:])
        region = {
            "north": RegionBox("R", lat_max, lat_max + 1.0, lon_min, lon_max),
            "south": RegionBox("R", lat_min - 1.0, lat_min, lon_min, lon_max),
            "east": RegionBox("R", lat_min, lat_max, lon_max, lon_max + 1.0),
            "west": RegionBox("R", lat_min, lat_max, lon_min - 1.0, lon_min),
        }[side]
        [arrival] = time_to_region(path, [region])
        assert arrival is not None and arrival <= path.horizons[k]
        assert arrival == horizon_loop_time_to_region(track, region, fit_window)


class TestBuildTracks:
    def frames_single_blob(self, n=5):
        dlon = 0.05
        return [[obj_at(1, 16.0, 106.0 - dlon * k, time=T0 + timedelta(seconds=600 * k))]
                for k in range(n)]

    def test_continuous_blob_yields_one_track(self):
        tracks = build_tracks(self.frames_single_blob())
        assert len(tracks) == 1
        assert tracks[0].track_id == 1
        assert len(tracks[0].observations) == 5

    def test_two_blobs_yield_two_tracks(self):
        frames = [
            [obj_at(1, 16.0, 106.0 - 0.05 * k, time=T0 + timedelta(seconds=600 * k)),
             obj_at(2, 18.0, 108.0 - 0.05 * k, time=T0 + timedelta(seconds=600 * k))]
            for k in range(4)
        ]
        tracks = build_tracks(frames)
        assert sorted(t.track_id for t in tracks) == [1, 2]
        assert all(len(t.observations) == 4 for t in tracks)

    def test_vanish_and_reappear_starts_new_track(self):
        frames = self.frames_single_blob(2)
        frames.append([])
        frames.append([obj_at(1, 16.0, 106.2, time=T0 + timedelta(seconds=1800))])
        tracks = build_tracks(frames)
        assert len(tracks) == 2

    def test_jump_beyond_gate_starts_new_track(self):
        frames = [
            [obj_at(1, 16.0, 106.0, time=T0)],
            [obj_at(1, 16.0, 107.0, time=T0 + timedelta(seconds=600))],
        ]
        tracks = build_tracks(frames, max_gap_km=50.0)
        assert len(tracks) == 2

    def test_ids_count_up_in_order_of_first_appearance(self):
        frames = [
            [obj_at(1, 16.0, 106.0, time=T0)],
            [obj_at(1, 18.0, 108.0, time=T0 + timedelta(seconds=600)),
             obj_at(2, 16.0, 106.05, time=T0 + timedelta(seconds=600))],
        ]
        tracks = build_tracks(frames)
        assert [t.track_id for t in tracks] == [1, 2]
        assert [o.centroid_lon for o in tracks[0].observations] == [106.0, 106.05]
        assert [o.centroid_lon for o in tracks[1].observations] == [108.0]


class TestSyntheticMotionFidelity:
    @pytest.mark.parametrize("speed", [6.0, 18.0, 30.0])
    @pytest.mark.parametrize("bearing", [45.0, 135.0, 225.0, 315.0])
    def test_diagonal_motion_recovered_within_tolerance(self, speed, bearing):
        lat0, lon0 = 16.0, 106.0
        north = speed * math.cos(math.radians(bearing)) * 600.0 / 1000.0
        east = speed * math.sin(math.radians(bearing)) * 600.0 / 1000.0
        dlat = north / KM_PER_DEG
        dlon = east / (KM_PER_DEG * math.cos(math.radians(lat0)))
        track = track_from_positions(
            [(lat0 + dlat * k, lon0 + dlon * k) for k in range(6)])
        mv = motion_vector(track)
        assert abs(mv.speed_mps - speed) / speed <= 0.05
        err = abs(mv.bearing_deg - bearing) % 360.0
        assert min(err, 360.0 - err) <= 5.0
