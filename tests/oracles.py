"""Independent brute-force oracles the implementation is checked against.

Each oracle deliberately takes a different algorithmic route from the
module it verifies (per-pixel union-find vs run-based labeling,
exhaustive scans vs index arithmetic, enumeration vs greedy, per-token
``float`` vs numpy's C text reader, per-cell and per-frame loops vs
per-frame tables over window layouts, one string built cell by cell vs
frames formatted in worker processes) so agreement is meaningful.
"""

from __future__ import annotations

import math
from datetime import timedelta
from itertools import permutations

import numpy as np

from cswarn.geogrid import (
    KM_PER_DEG,
    GeoGrid,
    GridGeometry,
    GridStack,
    GsfError,
    RegionBox,
    format_time,
    haversine_km,
)
from cswarn.fusion import RegionIndicators
from cswarn.precip import RainStats
from cswarn.tracking import MotionVector, motion_vector
from cswarn.wind import WindCategory


def union_find_components(mask: np.ndarray) -> list[set[tuple[int, int]]]:
    """8-connected components via union-find, ordered by first raster pixel."""
    nrows, ncols = mask.shape
    parent: dict[tuple[int, int], tuple[int, int]] = {}

    def find(p):
        root = p
        while parent[root] != root:
            root = parent[root]
        while parent[p] != root:
            parent[p], p = root, parent[p]
        return root

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    pixels = [(r, c) for r in range(nrows) for c in range(ncols) if mask[r, c]]
    for p in pixels:
        parent[p] = p
    for r, c in pixels:
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                if dr == 0 and dc == 0:
                    continue
                q = (r + dr, c + dc)
                if q in parent:
                    union((r, c), q)

    groups: dict[tuple[int, int], set[tuple[int, int]]] = {}
    order: list[tuple[int, int]] = []
    for p in pixels:  # raster order
        root = find(p)
        if root not in groups:
            groups[root] = set()
            order.append(root)
        groups[root].add(p)
    return [groups[root] for root in order]


def cell_lat(geometry: GridGeometry, row: int) -> float:
    """Center latitude of one ``row`` (row 0 = north), by itself, not from
    the geometry's latitude array."""
    return geometry.lat_min + (geometry.nrows - 1 - row) * geometry.dlat


def cell_lon(geometry: GridGeometry, col: int) -> float:
    """Center longitude of one ``col``, by itself."""
    return geometry.lon_min + col * geometry.dlon


def translated(box: RegionBox, dlat: float, dlon: float) -> RegionBox:
    """``box`` with each edge moved by (dlat, dlon)."""
    return RegionBox(box.name, box.lat_min + dlat, box.lat_max + dlat,
                     box.lon_min + dlon, box.lon_max + dlon)


def region_cells(geometry: GridGeometry, box: RegionBox) -> set[tuple[int, int]]:
    """Every (row, col) whose own cell center passes the closed box test."""
    return {
        (r, c)
        for r in range(geometry.nrows)
        for c in range(geometry.ncols)
        if box.contains(cell_lat(geometry, r), cell_lon(geometry, c))
    }


def displacement_deg(motion: MotionVector, horizon_s: float, lat_ref: float) -> tuple[float, float]:
    """(dlat, dlon) a point at ``lat_ref`` drifts over ``horizon_s``."""
    if motion.speed_mps == 0.0 or motion.bearing_deg is None:
        return 0.0, 0.0
    dist_km = motion.speed_mps * horizon_s / 1000.0
    theta = math.radians(motion.bearing_deg)
    north_km = dist_km * math.cos(theta)
    east_km = dist_km * math.sin(theta)
    return north_km / KM_PER_DEG, east_km / (KM_PER_DEG * math.cos(math.radians(lat_ref)))


def horizon_loop_time_to_region(track, region: RegionBox, fit_window: int = 6,
                                step_s: int = 600, max_s: int = 86400) -> int | None:
    """Refit the motion and step the bbox one horizon at a time for this
    one region, stopping at the first hit; a stationary track is tried at
    the first horizon only."""
    motion = motion_vector(track, fit_window)
    bbox = track.last.bbox
    lat_ref = (bbox.lat_min + bbox.lat_max) / 2.0
    for h in range(step_s, max_s + 1, step_s):
        dlat, dlon = displacement_deg(motion, h, lat_ref)
        if translated(bbox, dlat, dlon).intersects(region):
            return h
        if motion.speed_mps == 0.0:
            return None
    return None


def best_assignment(prev, next, max_gap_km: float) -> list[tuple[int, int]]:
    """All one-to-one matchings enumerated; most pairs wins, then least
    total distance, then lexicographic pair ids. Only viable for tiny frames."""
    dist = {
        (p.id, n.id): haversine_km(p.centroid_lat, p.centroid_lon, n.centroid_lat, n.centroid_lon)
        for p in prev
        for n in next
    }
    prev_ids = [p.id for p in prev]
    next_ids = [n.id for n in next]
    best = None
    k = min(len(prev_ids), len(next_ids))
    for size in range(k, -1, -1):
        for chosen_prev in permutations(prev_ids, size):
            for chosen_next in permutations(next_ids, size):
                pairs = sorted(zip(chosen_prev, chosen_next))
                if any(dist[p] > max_gap_km for p in pairs):
                    continue
                total = sum(dist[p] for p in pairs)
                key = (-size, total, pairs)
                if best is None or key < best:
                    best = key
        if best is not None and -best[0] == size:
            break
    return best[2] if best else []


def blob_stats(bt: GeoGrid, pixels: set[tuple[int, int]]) -> dict:
    """Exhaustive per-pixel statistics of one component on a BT grid."""
    geom = bt.geometry
    lats = [cell_lat(geom, r) for r, _ in sorted(pixels)]
    lons = [cell_lon(geom, c) for _, c in sorted(pixels)]
    vals = [bt.values[r, c] for r, c in sorted(pixels)]
    area = sum(
        (geom.dlat * 111.195) * (geom.dlon * 111.195 * np.cos(np.radians(cell_lat(geom, r))))
        for r, _ in sorted(pixels)
    )
    return {
        "pixel_count": len(pixels),
        "centroid_lat": sum(lats) / len(lats),
        "centroid_lon": sum(lons) / len(lons),
        "min_bt": min(vals),
        "mean_bt": sum(vals) / len(vals),
        "area_km2": area,
    }


def flood_mask_oracle(ratio: np.ndarray, nodata: float, threshold_db: float, min_region_px: int) -> np.ndarray:
    """Threshold + small-component removal using the union-find oracle."""
    finite = ratio != nodata
    flooded = finite & (ratio <= threshold_db)
    keep = np.zeros_like(flooded)
    for comp in union_find_components(flooded):
        if len(comp) >= min_region_px:
            for r, c in comp:
                keep[r, c] = True
    out = np.where(finite, keep.astype(float), nodata)
    return out


def gsf_payload_loop(data_lines: list[str], ncols: int, lineno: int) -> np.ndarray:
    """A GSF frame's data lines split on whitespace and read token by token
    with ``float``; the first line with the wrong count or a bad token is
    named. lineno is the file line of the first data line."""
    rows = []
    for r, line in enumerate(data_lines):
        toks = line.split()
        if len(toks) != ncols:
            raise GsfError(
                f"line {lineno + r}: payload error: expected {ncols} values, got {len(toks)}"
            )
        try:
            rows.append(list(map(float, toks)))
        except ValueError as exc:
            raise GsfError(f"line {lineno + r}: bad value: {exc}") from None
    return np.array(rows)


def gsf_text_loop(stack: GridStack) -> str:
    """A stack's canonical GSF text, built cell by cell: per frame the
    ``GSF1`` line and the ten header lines in their fixed order, then each
    row's cells as ``repr`` of the Python float, single spaces; ``---``
    lines between frames."""
    out = ""
    for i, grid in enumerate(stack.frames):
        if i:
            out += "---\n"
        geom = grid.geometry
        out += "GSF1\n"
        out += f"variable={grid.variable.value}\nunits={grid.units}\n"
        out += f"time={format_time(grid.time)}\n"
        out += f"nrows={geom.nrows}\nncols={geom.ncols}\n"
        for key in ("lat_min", "lon_min", "dlat", "dlon"):
            out += f"{key}={float(getattr(geom, key))!r}\n"
        out += f"nodata={float(grid.nodata)!r}\n"
        for r in range(geom.nrows):
            cells = [repr(float(grid.values[r, c])) for c in range(geom.ncols)]
            out += " ".join(cells) + "\n"
    return out


def _in_window(stack, start, end) -> list:
    """Frames with start < t <= end, by a scan of every frame."""
    return [f for f in stack or () if start < f.time <= end]


def _reference_wind(stacks, box: RegionBox, start, end) -> tuple[int, int]:
    """(max rank, observing stacks) over every cell of every frame."""
    best = observed = 0
    for stack in stacks:
        seen = False
        cells = region_cells(stack.geometry, box)
        for frame in _in_window(stack, start, end):
            for r, c in cells:
                if frame.values[r, c] != frame.nodata:
                    seen = True
                    best = max(best, int(frame.values[r, c]))
        observed += seen
    return best, observed


def _reference_rain(rain, region: RegionBox, start, end, r_heavy: float):
    """RainStats from a loop over frames and cells, or None when rain was
    not observed: no stack, one frame, no frame in the window, no cell."""
    frames = _in_window(rain, start, end)
    cells = sorted(region_cells(rain.geometry, region)) if rain is not None else []
    if rain is None or len(rain) < 2 or not frames or not cells:
        return None
    cadence = min((b.time - a.time).total_seconds() for a, b in zip(rain, list(rain)[1:]))
    dt_h = cadence / 3600.0
    accum = {cell: 0.0 for cell in cells}
    max_rate, missing, longest, run, prev = 0.0, 0, 0, 0, None
    for frame in frames:
        finite = []
        for cell in cells:
            value = float(frame.values[cell])
            if value == frame.nodata:
                missing += 1
                value = 0.0
            else:
                finite.append(value)
            accum[cell] += value * dt_h
        frame_max = max(finite) if finite else 0.0
        max_rate = max(max_rate, frame_max)
        if prev is not None and (frame.time - prev.time).total_seconds() > cadence:
            run = 0
        run = run + 1 if finite and frame_max >= r_heavy else 0
        longest, prev = max(longest, run), frame
    window_h = (end - start).total_seconds() / 3600.0
    return RainStats(region.name, start, end, max_rate, max(accum.values()),
                     min(longest * dt_h, window_h), missing / (len(frames) * len(cells)))


def reference_indicators(epoch, regions, bt, detections, tracks, rain, wind_cat_stacks,
                         window_s: int, fit_window: int, r_heavy: float) -> list:
    """Each region's RegionIndicators at ``epoch``, cell by cell and frame
    by frame: no windows, memo or tables. Cloud cover is the share of the
    region's cells (``region_cells``) that an object's pixels cover, rain a
    loop over frames and cells, wind a scan of every cell, and approach the
    horizon loop, for the detections, tracks and wind category stacks given."""
    start = epoch - timedelta(seconds=window_s)
    bt_frames = [i for i, f in enumerate(bt or ()) if start < f.time <= epoch]
    observed = [t.up_to(epoch) for t in tracks]
    live = [t for t in observed if len(t.observations) >= 2 and start < t.last.time]
    out = []
    for region in regions:
        cells = region_cells(bt.geometry, region) if bt is not None else set()
        fraction, min_bt = 0.0, None
        for i in bt_frames if cells else ():
            covered = set()
            for obj in detections[i]:
                hits = {(int(r), int(c)) for r, c in zip(obj.rows, obj.cols)} & cells
                if hits:
                    covered |= hits
                    min_bt = obj.min_bt if min_bt is None else min(min_bt, obj.min_bt)
            fraction = max(fraction, len(covered) / len(cells))
        approach, samples = None, [_reference_wind(wind_cat_stacks, region, start, epoch)]
        for track in live:
            h = horizon_loop_time_to_region(track, region, fit_window)
            if h is not None:
                approach = h if approach is None else min(approach, h)
                samples.append(_reference_wind(wind_cat_stacks, track.last.bbox, start, epoch))
        stats = _reference_rain(rain, region, start, epoch, r_heavy)
        out.append(RegionIndicators(
            region=region.name, epoch=epoch, deep_cloud_fraction=fraction, min_bt_K=min_bt,
            wind_cat=WindCategory(max(rank for rank, _ in samples)),
            wind_no_observation=all(n == 0 for _, n in samples),
            max_rain_mmh=stats.max_rate_mmh if stats else 0.0,
            rain_persistence_h=stats.persistence_h if stats else 0.0, approach_s=approach,
            source_count={"bt": int(bool(cells and bt_frames)), "wind": samples[0][1],
                          "rain": int(stats is not None and stats.missing_fraction < 1.0)},
            rain_stats=stats,
        ))
    return out
