"""Deep-convection detection: thresholding, component labeling, summaries.

A cell is convective when its brightness temperature is at or below the
deep-cloud threshold (default 220 K; the threshold itself is inclusive so
the canonical value is detected). Convective cells are grouped into
8-connected components so diagonal squall-line segments stay one system,
and components below ``min_area_px`` are dropped as noise.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from datetime import datetime

import numpy as np

from .geogrid import KM_PER_DEG, GeoGrid, GridGeometry, RegionBox, Variable

DEFAULT_T_DEEP_K = 220.0
DEFAULT_MIN_AREA_PX = 4

# 8-neighborhood offsets, raster order.
_NEIGHBORS = ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1))


@dataclass(frozen=True)
class CSObject:
    """One detected convective system in one frame."""

    id: int
    time: datetime
    pixel_count: int
    area_km2: float
    centroid_lat: float
    centroid_lon: float
    bbox: RegionBox
    min_bt: float | None = None
    mean_bt: float | None = None
    rows: np.ndarray = field(default=None, repr=False, compare=False)  # type: ignore[assignment]
    cols: np.ndarray = field(default=None, repr=False, compare=False)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.pixel_count < 1:
            raise ValueError("CSObject needs at least one pixel")
        if not self.bbox.contains(self.centroid_lat, self.centroid_lon):
            raise ValueError(f"object {self.id}: centroid outside bbox")
        if self.min_bt is not None and self.mean_bt is not None and self.min_bt > self.mean_bt:
            raise ValueError(f"object {self.id}: min_bt > mean_bt")
        for name in ("rows", "cols"):
            arr = getattr(self, name)
            if arr is not None:
                arr = np.asarray(arr, dtype=np.int64)
                arr.setflags(write=False)
                object.__setattr__(self, name, arr)


def convective_mask(bt: GeoGrid, t_deep: float = DEFAULT_T_DEEP_K) -> GeoGrid:
    """Boolean grid: 1 where finite BT <= ``t_deep``, 0 above, nodata kept."""
    if bt.variable is not Variable.BT:
        raise TypeError(f"convective_mask needs a BT grid, got {bt.variable.value}")
    finite = bt.finite_mask
    out = np.where(finite, (bt.values <= t_deep).astype(np.float64), bt.nodata)
    return bt.with_values(out, variable=Variable.FLOOD_MASK)


def label_array(mask: np.ndarray) -> tuple[np.ndarray, int]:
    """8-connected labeling of a boolean array via BFS flood fill.

    Labels are 1..n in raster-scan order of each component's first pixel;
    0 marks background. Returns (labels, n).

    Plain Python lists beat numpy scalar indexing for the pixel-at-a-time
    flood fill, and the seed scan only visits set pixels.
    """
    nrows, ncols = mask.shape
    on = np.asarray(mask, dtype=bool).tolist()
    labels = [[0] * ncols for _ in range(nrows)]
    current = 0
    seed_r, seed_c = np.nonzero(mask)
    for r0, c0 in zip(seed_r.tolist(), seed_c.tolist()):
        if labels[r0][c0]:
            continue
        current += 1
        labels[r0][c0] = current
        queue = deque([(r0, c0)])
        while queue:
            r, c = queue.popleft()
            for dr, dc in _NEIGHBORS:
                rr, cc = r + dr, c + dc
                if 0 <= rr < nrows and 0 <= cc < ncols and on[rr][cc] and not labels[rr][cc]:
                    labels[rr][cc] = current
                    queue.append((rr, cc))
    return np.array(labels, dtype=np.int32), current


def _cell_areas_km2(geom: GridGeometry) -> np.ndarray:
    """Per-row cell areas on the spherical-degree approximation."""
    lat = geom.lats()
    return (geom.dlat * KM_PER_DEG) * (geom.dlon * KM_PER_DEG * np.cos(np.radians(lat)))


def label_components(mask: GeoGrid, min_area_px: int = DEFAULT_MIN_AREA_PX) -> list[CSObject]:
    """Retained components of a boolean mask, summarized geometrically.

    Components with fewer than ``min_area_px`` pixels are dropped; surviving
    objects get ids 1..n in raster-scan order of their first pixel. BT
    statistics stay unset until :func:`summarize`.
    """
    if min_area_px < 1:
        raise ValueError("min_area_px must be >= 1")
    on = mask.finite_mask & (mask.values != 0.0)
    labels, count = label_array(on)
    geom = mask.geometry
    row_area = _cell_areas_km2(geom)
    lats = geom.lats()
    lons = geom.lons()
    half_lat = geom.dlat / 2.0
    half_lon = geom.dlon / 2.0

    objects: list[CSObject] = []
    for lab in range(1, count + 1):
        rows, cols = np.nonzero(labels == lab)
        if rows.size < min_area_px:
            continue
        cell_lats = lats[rows]
        cell_lons = lons[cols]
        oid = len(objects) + 1
        bbox = RegionBox(
            f"cs{oid}",
            float(cell_lats.min()) - half_lat,
            float(cell_lats.max()) + half_lat,
            float(cell_lons.min()) - half_lon,
            float(cell_lons.max()) + half_lon,
        )
        objects.append(
            CSObject(
                id=oid,
                time=mask.time,
                pixel_count=int(rows.size),
                area_km2=float(row_area[rows].sum()),
                centroid_lat=float(cell_lats.mean()),
                centroid_lon=float(cell_lons.mean()),
                bbox=bbox,
                rows=rows,
                cols=cols,
            )
        )
    return objects


def summarize(bt: GeoGrid, objects: list[CSObject]) -> list[CSObject]:
    """Fill min/mean BT per object from its member cells."""
    out: list[CSObject] = []
    for obj in objects:
        if obj.rows is None or obj.cols is None:
            raise ValueError(f"object {obj.id}: member pixels not available")
        if (obj.rows >= bt.geometry.nrows).any() or (obj.cols >= bt.geometry.ncols).any():
            raise ValueError(f"object {obj.id}: member pixels outside the BT grid")
        member = bt.values[obj.rows, obj.cols]
        member = member[member != bt.nodata]
        if member.size == 0:
            raise ValueError(f"object {obj.id}: no finite BT under its pixels")
        out.append(
            CSObject(
                id=obj.id,
                time=obj.time,
                pixel_count=obj.pixel_count,
                area_km2=obj.area_km2,
                centroid_lat=obj.centroid_lat,
                centroid_lon=obj.centroid_lon,
                bbox=obj.bbox,
                min_bt=float(member.min()),
                mean_bt=float(member.mean()),
                rows=obj.rows,
                cols=obj.cols,
            )
        )
    return out


def detect(
    bt: GeoGrid,
    t_deep: float = DEFAULT_T_DEEP_K,
    min_area_px: int = DEFAULT_MIN_AREA_PX,
) -> list[CSObject]:
    """Threshold, label, and summarize one BT frame."""
    return summarize(bt, label_components(convective_mask(bt, t_deep), min_area_px))
