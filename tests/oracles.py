"""Independent brute-force oracles the implementation is checked against.

Each oracle deliberately takes a different algorithmic route from the
module it verifies (per-pixel union-find vs run-based labeling,
exhaustive scans vs index arithmetic, enumeration vs greedy, per-token
``float`` vs numpy's C text reader, per-cell and per-frame loops vs
per-frame tables over window layouts, one string built cell by cell vs
frames formatted in worker processes, out-of-place array formulas vs
fields rendered in place into one buffer, an ``isfinite`` pass and a
compressed copy of the data cells vs one min and one max of the whole
array when no cell can be nodata, ``exp`` of every cell vs ``exp`` only
where it does not underflow) so agreement is meaningful.
"""

from __future__ import annotations

import math
from datetime import timedelta
from itertools import permutations

import numpy as np

from cswarn.convection import DEFAULT_T_DEEP_K
from cswarn.geogrid import (
    DEFAULT_NODATA,
    KM_PER_DEG,
    GeoGrid,
    GridGeometry,
    GridStack,
    GsfError,
    RegionBox,
    Variable,
    format_time,
    haversine_km,
)
from cswarn.fusion import RegionIndicators
from cswarn.precip import RainStats
from cswarn.scenario import (
    RING_RHO,
    RING_SIGMA,
    CentroidSample,
    ScenarioData,
    ScenarioSpec,
    TruthRecord,
)
from cswarn.tracking import MotionVector, motion_vector
from cswarn.wind import SYNTH1, WindCategory, categorize


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
    """Threshold + small-component removal using the union-find oracle;
    nodata cells hold the ratio's sentinel, or DEFAULT_NODATA when that is
    0 or 1, a value the mask holds."""
    finite = ratio != nodata
    flooded = finite & (ratio <= threshold_db)
    keep = np.zeros_like(flooded)
    for comp in union_find_components(flooded):
        if len(comp) >= min_region_px:
            for r, c in comp:
                keep[r, c] = True
    out = np.where(finite, keep.astype(float), DEFAULT_NODATA if nodata in (0.0, 1.0) else nodata)
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


def check_bounds_reference(variable: Variable, finite: np.ndarray) -> None:
    """The physical-range check on a compressed 1-D copy of a grid's data
    (non-nodata) cells: min and max of the copy, equality over every cell."""
    if finite.size == 0:
        return
    lo, hi = finite.min(), finite.max()
    if variable is Variable.BT and (lo < 100.0 or hi > 400.0):
        raise ValueError(f"BT values outside [100, 400] K (min={lo}, max={hi})")
    if variable in (Variable.RAIN_RATE, Variable.RAIN_ACCUM) and lo < 0.0:
        raise ValueError(f"{variable.value} values must be >= 0 (min={lo})")
    if variable is Variable.WIND_SPEED and (lo < 0.0 or hi > 100.0):
        raise ValueError(f"WIND_SPEED values outside [0, 100] m/s (min={lo}, max={hi})")
    if variable is Variable.NRCS and lo <= 0.0:
        raise ValueError(f"NRCS values must be > 0 linear (min={lo})")
    if variable is Variable.FLOOD_MASK and not ((finite == 0.0) | (finite == 1.0)).all():
        raise ValueError("FLOOD_MASK values must be 0 or 1")
    if variable is Variable.WIND_CAT and not (
        (finite == 0.0) | (finite == 1.0) | (finite == 2.0) | (finite == 3.0)
    ).all():
        raise ValueError("WIND_CAT values must be ranks 0..3")


def grid_check_reference(variable: Variable, values: np.ndarray, nodata: float) -> None:
    """Every check the GeoGrid constructor makes on its values, as separate
    passes: ``isfinite`` over every cell, then the physical-range check on
    a compressed copy of the cells that are not ``nodata``."""
    if not np.isfinite(values).all():
        raise ValueError("grid values must be finite (use the nodata sentinel for gaps)")
    check_bounds_reference(variable, values[values != nodata])


def _reference_rho2(geometry, cell, clat, clon) -> np.ndarray:
    sig_lat, sig_lon = cell.sigmas_deg()
    dlat = (geometry.lats()[:, None] - clat) / sig_lat
    dlon = (geometry.lons()[None, :] - clon) / sig_lon
    return dlat * dlat + dlon * dlon


def _reference_bt_field(geometry, cell, t_s, background) -> np.ndarray:
    clat, clon = cell.position(t_s)
    depth = background - cell.min_bt_K
    return background - depth * np.exp(-_reference_rho2(geometry, cell, clat, clon) / 2.0)


def _reference_bbox(geometry, bt_field, t_deep) -> RegionBox | None:
    rows, cols = np.nonzero(bt_field <= t_deep)
    if rows.size == 0:
        return None
    lats = geometry.lats()
    lons = geometry.lons()
    return RegionBox(
        "truth",
        float(lats[rows].min()) - geometry.dlat / 2.0,
        float(lats[rows].max()) + geometry.dlat / 2.0,
        float(lons[cols].min()) - geometry.dlon / 2.0,
        float(lons[cols].max()) + geometry.dlon / 2.0,
    )


def render_reference(spec: ScenarioSpec, seed: int = 0) -> ScenarioData:
    """Every stack and the truth record of ``spec``, each cell's field
    built out of place by whole-array formulas (a new array per operation)
    and folded into a new frame array per cell."""
    rng = np.random.default_rng(seed)
    geom = spec.geometry
    shape = (geom.nrows, geom.ncols)
    extent = RegionBox("extent",
                       geom.lat_min - geom.dlat / 2.0, geom.lat_max + geom.dlat / 2.0,
                       geom.lon_min - geom.dlon / 2.0, geom.lon_max + geom.dlon / 2.0)

    def make_grid(variable, units, t_s, values):
        return GeoGrid(variable=variable, units=units,
                       time=spec.start_time + timedelta(seconds=t_s),
                       geometry=geom, values=values)

    notices = []
    exit_s = {}
    for t_s in spec.frame_seconds(spec.bt_cadence_s):
        for cell in spec.cells:
            if cell.name in exit_s or not cell.alive(t_s):
                continue
            if not extent.contains(*cell.position(t_s)):
                exit_s[cell.name] = t_s
                when = format_time(spec.start_time + timedelta(seconds=t_s))
                notices.append(f"cell {cell.name} left the grid at {when}; truncated")

    def active_cells(t_s):
        return [cell for cell in spec.cells
                if cell.alive(t_s) and t_s < exit_s.get(cell.name, spec.duration_s + 1)]

    bt_frames = []
    centroids = []
    intersections = {}
    for t_s in spec.frame_seconds(spec.bt_cadence_s):
        time = spec.start_time + timedelta(seconds=t_s)
        bt = np.full(shape, spec.background_bt_K)
        for cell in active_cells(t_s):
            clat, clon = cell.position(t_s)
            field_c = _reference_bt_field(geom, cell, t_s, spec.background_bt_K)
            bt = np.minimum(bt, field_c)
            centroids.append(
                CentroidSample(time, cell.name, clat, clon, cell.speed_mps, cell.bearing_deg)
            )
            bbox = _reference_bbox(geom, field_c, DEFAULT_T_DEEP_K)
            if bbox is not None:
                for region in spec.regions:
                    if region.name not in intersections and bbox.intersects(region):
                        intersections[region.name] = time
        if spec.noise_std > 0:
            bt = np.clip(bt + rng.normal(0.0, spec.noise_std, shape), 100.0, 400.0)
        bt_frames.append(make_grid(Variable.BT, "K", t_s, bt))

    rain_frames = []
    for t_s in spec.frame_seconds(spec.rain_cadence_s):
        rain = np.zeros(shape)
        for cell in active_cells(t_s):
            if cell.rain_peak_mmh <= 0:
                continue
            lag_t = max(cell.birth_s, t_s - spec.rain_lag_s)
            clat, clon = cell.position(lag_t)
            rho2 = _reference_rho2(geom, cell, clat, clon)
            rain = np.maximum(rain, cell.rain_peak_mmh * np.exp(-rho2 / 2.0))
        if spec.noise_std > 0:
            rain = np.maximum(rain + rng.normal(0.0, spec.noise_std, shape), 0.0)
        rain_frames.append(make_grid(Variable.RAIN_RATE, "mm/h", t_s, rain))

    wind_stacks = {}
    for source, cadence in spec.wind_sources:
        frames = []
        for t_s in spec.frame_seconds(cadence):
            wind = np.zeros(shape)
            for cell in active_cells(t_s):
                if cell.wind_peak_mps <= 0:
                    continue
                clat, clon = cell.position(t_s)
                rho = np.sqrt(_reference_rho2(geom, cell, clat, clon))
                ring = cell.wind_peak_mps * np.exp(-((rho - RING_RHO) ** 2) / (2.0 * RING_SIGMA**2))
                wind = np.maximum(wind, ring)
            if spec.noise_std > 0:
                wind = np.clip(wind + rng.normal(0.0, spec.noise_std, shape), 0.0, 100.0)
            frames.append(make_grid(Variable.WIND_SPEED, "m/s", t_s, wind))
        wind_stacks[source] = GridStack(frames)

    nrcs_stack = None
    if spec.wind_sources:
        first = spec.wind_sources[0][0]
        nrcs_stack = GridStack([
            f.with_values(SYNTH1.sigma0(f.values, 35.0, 0.0), variable=Variable.NRCS)
            for f in wind_stacks[first]
        ])

    truth = TruthRecord(centroids=tuple(centroids), intersections=intersections,
                        flooded=frozenset(spec.flooded_regions), notices=tuple(notices))
    return ScenarioData(bt=GridStack(bt_frames), rain=GridStack(rain_frames),
                        wind=wind_stacks, nrcs=nrcs_stack, truth=truth)


def _in_window(stack, start, end) -> list:
    """Frames with start < t <= end, by a scan of every frame."""
    return [f for f in stack or () if start < f.time <= end]


def _reference_wind(stacks, box: RegionBox, start, end, bins) -> tuple[int, int]:
    """(max category rank, observing stacks) over every cell of every wind
    speed frame, each cell graded on its own by ``categorize``."""
    best = observed = 0
    for stack in stacks:
        seen = False
        cells = region_cells(stack.geometry, box)
        for frame in _in_window(stack, start, end):
            for r, c in cells:
                if frame.values[r, c] != frame.nodata:
                    seen = True
                    best = max(best, int(categorize(float(frame.values[r, c]), bins)))
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


def reference_indicators(epoch, regions, bt, detections, tracks, rain, wind_stacks, bins,
                         window_s: int, fit_window: int, r_heavy: float) -> list:
    """Each region's RegionIndicators at ``epoch``, cell by cell and frame
    by frame: no windows, memo or tables. Cloud cover is the share of the
    region's cells (``region_cells``) that an object's pixels cover, rain a
    loop over frames and cells, wind a scan of every cell, and approach the
    horizon loop, for the detections, tracks and wind speed stacks given."""
    start = epoch - timedelta(seconds=window_s)
    bt_frames = [i for i, f in enumerate(bt or ()) if start < f.time <= epoch]
    # BT was observed when some frame in the window holds an object or a data cell.
    bt_observed = any(detections[i] or (bt[i].values != bt[i].nodata).any() for i in bt_frames)
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
        approach, samples = None, [_reference_wind(wind_stacks, region, start, epoch, bins)]
        for track in live:
            h = horizon_loop_time_to_region(track, region, fit_window)
            if h is not None:
                approach = h if approach is None else min(approach, h)
                samples.append(_reference_wind(wind_stacks, track.last.bbox, start, epoch, bins))
        stats = _reference_rain(rain, region, start, epoch, r_heavy)
        out.append(RegionIndicators(
            region=region.name, epoch=epoch, deep_cloud_fraction=fraction, min_bt_K=min_bt,
            wind_cat=WindCategory(max(rank for rank, _ in samples)),
            wind_no_observation=all(n == 0 for _, n in samples),
            max_rain_mmh=stats.max_rate_mmh if stats else 0.0,
            rain_persistence_h=stats.persistence_h if stats else 0.0, approach_s=approach,
            source_count={"bt": int(bool(cells and bt_observed)), "wind": samples[0][1],
                          "rain": int(stats is not None and stats.missing_fraction < 1.0)},
            rain_stats=stats,
        ))
    return out
