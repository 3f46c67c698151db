"""Independent brute-force oracles the implementation is checked against.

Each oracle deliberately takes a different algorithmic route from the
module it verifies (per-pixel union-find vs run-based labeling,
exhaustive scans vs index arithmetic, enumeration vs greedy, per-token
``float`` vs numpy's C text reader) so agreement is meaningful.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

from cswarn.geogrid import GeoGrid, GridGeometry, GsfError, RegionBox, haversine_km
from cswarn.tracking import _displacement_deg, motion_vector


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


def region_cells(geometry: GridGeometry, box: RegionBox) -> set[tuple[int, int]]:
    """Every (row, col) whose own cell center passes the closed box test."""
    return {
        (r, c)
        for r in range(geometry.nrows)
        for c in range(geometry.ncols)
        if box.contains(geometry.cell_lat(r), geometry.cell_lon(c))
    }


def horizon_loop_time_to_region(track, region: RegionBox, fit_window: int = 6,
                                step_s: int = 600, max_s: int = 86400) -> int | None:
    """Refit the motion and step the bbox one horizon at a time for this
    one region, stopping at the first hit; a stationary track is tried at
    the first horizon only."""
    motion = motion_vector(track, fit_window)
    bbox = track.last.bbox
    lat_ref = (bbox.lat_min + bbox.lat_max) / 2.0
    for h in range(step_s, max_s + 1, step_s):
        dlat, dlon = _displacement_deg(motion, h, lat_ref)
        if bbox.translated(dlat, dlon).intersects(region):
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
    lats = [geom.cell_lat(r) for r, _ in sorted(pixels)]
    lons = [geom.cell_lon(c) for _, c in sorted(pixels)]
    vals = [bt.values[r, c] for r, c in sorted(pixels)]
    area = sum(
        (geom.dlat * 111.195) * (geom.dlon * 111.195 * np.cos(np.radians(geom.cell_lat(r))))
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
