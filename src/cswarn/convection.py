"""Deep-convection detection: thresholding, component labeling, summaries.

A cell is convective when its brightness temperature is at or below the
deep-cloud threshold (default 220 K; the threshold itself is inclusive so
the canonical value is detected). Convective cells are grouped into
8-connected components so diagonal squall-line segments stay one system,
and components below ``min_area_px`` are dropped as noise.

:func:`detect` does it in one pass: a boolean mask from the threshold,
each set pixel's label from the row runs, and each object built once
with its BT statistics; it builds no mask or label grid.
:func:`convective_mask`, :func:`label_components` and :func:`summarize`
take the same steps one at a time, through a mask grid.

A frame's detections depend only on the frame and the two parameters, so
:func:`detect` labels a frame once for each ``t_deep`` and
``min_area_px`` while the frame lives (``geogrid._per_frame``): the CLI,
every ``FusionEngine`` and any caller of :func:`detect` given the same
frame share one labeling.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from datetime import datetime
from typing import Iterable, Sequence

import numpy as np

from .geogrid import GeoGrid, GridGeometry, RegionBox, Variable, _per_frame

DEFAULT_T_DEEP_K = 220.0
DEFAULT_MIN_AREA_PX = 4


@dataclass(frozen=True)
class CSObject:
    """One detected convective system in one frame.

    ``rows`` and ``cols`` index its member pixels; from :func:`detect` and
    :func:`label_components` they are read-only views of the frame's
    labeling.
    """

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


def convective_mask(bt: GeoGrid, t_deep: float = DEFAULT_T_DEEP_K) -> GeoGrid:
    """Boolean grid: 1 where finite BT <= ``t_deep``, 0 above, nodata kept
    (as ``DEFAULT_NODATA`` when the BT sentinel is 0 or 1)."""
    if bt.variable is not Variable.BT:
        raise TypeError(f"convective_mask needs a BT grid, got {bt.variable.value}")
    return bt._with_values_unchecked(bt.values <= t_deep, Variable.FLOOD_MASK)


def _pixel_labels(on: np.ndarray) -> tuple[np.ndarray, int]:
    """The label of each set pixel of the boolean array ``on``, in raster
    order, and the component count n.

    Labels are 1..n in raster-scan order of each component's first pixel,
    with 8-connectivity. Run-based two-scan labeling (He, Chao & Suzuki,
    IEEE TIP 2008): each row's runs of set pixels come from one comparison
    of neighbouring columns of the zero-padded mask; runs in adjacent rows
    are joined when their column spans touch diagonally or overlap;
    union-find then works on runs, not pixels, and always keeps the smaller
    run index as the root. Runs are numbered in raster order, so a
    component's root is its first run and holds its first pixel.
    """
    nrows, ncols = on.shape
    padded = np.zeros((nrows, ncols + 2), dtype=bool)
    padded[:, 1:-1] = on
    # A row's edges, where a pixel differs from its left neighbour, are in
    # turn a run start and one past its end, so the set flat positions of
    # the comparison, in raster order, alternate start, end. A flat
    # position is row * width + column: a row-keyed column that sorts runs
    # in raster order. The edges are boolean because np.flatnonzero scans
    # a bool array several times faster than an integer one.
    width = ncols + 1
    edges = np.flatnonzero(padded[:, 1:] != padded[:, :-1])
    start, end = edges[0::2], edges[1::2]
    n_runs = start.size
    if n_runs == 0:
        return np.zeros(0, dtype=np.int32), 0

    # Run j of the next row touches run i when it starts at or before i's
    # end and ends at or after i's start (8-connectivity reaches one column
    # over): a contiguous block of the next row's runs.
    first = np.searchsorted(end, start + width, side="left")
    stop = np.searchsorted(start, end + width, side="right")
    links = np.maximum(stop - first, 0)
    upper = np.repeat(np.arange(n_runs), links)
    # The k-th link overall is link k - offset[i] of its upper run i.
    offset = np.cumsum(links) - links
    lower = np.repeat(first - offset, links) + np.arange(upper.size)

    parent = list(range(n_runs))
    for a, b in zip(upper.tolist(), lower.tolist()):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        while parent[b] != b:
            parent[b] = parent[parent[b]]
            b = parent[b]
        if a < b:
            parent[b] = a
        elif b < a:
            parent[a] = b
    root = np.array(parent)
    while True:
        hop = root[root]
        if np.array_equal(hop, root):
            break
        root = hop

    is_root = root == np.arange(n_runs)
    run_label = np.cumsum(is_root, dtype=np.int32)[root]
    # Set pixels in raster order are the runs laid end to end.
    return np.repeat(run_label, end - start), int(is_root.sum())


def label_array(mask: np.ndarray) -> tuple[np.ndarray, int]:
    """8-connected labeling of a boolean array by row runs.

    Labels are 1..n in raster-scan order of each component's first pixel;
    0 marks background. Returns (labels, n). :func:`detect` and
    :func:`label_components` take :func:`_pixel_labels` without the grid.
    """
    on = np.asarray(mask, dtype=bool)
    labels = np.zeros(on.shape, dtype=np.int32)
    labels[on], count = _pixel_labels(on)
    return labels, count


def _bt_stats(member: np.ndarray) -> tuple[float, float]:
    """Min and mean BT. The mean is ndarray.mean() bit for bit, but never
    below the min, as the rounded mean of equal values can be."""
    min_bt = float(member.min())
    return min_bt, max(float(member.sum() / member.size), min_bt)


def _objects(on: np.ndarray, geom: GridGeometry, time: datetime, min_area_px: int,
             bt: np.ndarray | None = None) -> list[CSObject]:
    """:func:`label_components` of the boolean array ``on``; given the
    frame's BT values ``bt``, each object also gets its min and mean BT."""
    if min_area_px < 1:
        raise ValueError("min_area_px must be >= 1")
    pixel_labels, count = _pixel_labels(on)
    lats, lons, row_area = geom.lats(), geom.lons(), geom.cell_areas_km2()
    half_lat, half_lon = geom.dlat / 2.0, geom.dlon / 2.0

    # Member pixels of every component at once: flat indices in raster
    # order, stably sorted by label, so each component's block stays in
    # raster order.
    by_label = np.flatnonzero(on)[np.argsort(pixel_labels, kind="stable")]
    member_rows, member_cols = np.divmod(by_label, geom.ncols)
    # Every object's rows and cols are views of these, so all are read-only.
    member_rows.setflags(write=False)
    member_cols.setflags(write=False)
    member_bt = None if bt is None else bt.reshape(-1)[by_label]
    sizes = np.bincount(pixel_labels, minlength=count + 1)[1:]
    bounds = np.cumsum(sizes).tolist()

    objects: list[CSObject] = []
    for size, end in zip(sizes.tolist(), bounds):
        if size < min_area_px:
            continue
        rows = member_rows[end - size:end]
        cols = member_cols[end - size:end]
        cell_lats = lats[rows]
        cell_lons = lons[cols]
        # sum / size is the arithmetic of ndarray.mean(), without its
        # per-call Python wrapper, so the centroids are bit-equal to it.
        oid = len(objects) + 1
        bbox = RegionBox(f"cs{oid}", float(cell_lats.min()) - half_lat,
                         float(cell_lats.max()) + half_lat, float(cell_lons.min()) - half_lon,
                         float(cell_lons.max()) + half_lon)
        min_bt, mean_bt = (None, None) if bt is None else _bt_stats(member_bt[end - size:end])
        objects.append(CSObject(
            id=oid, time=time, pixel_count=size, area_km2=float(row_area[rows].sum()),
            centroid_lat=float(cell_lats.sum() / size), centroid_lon=float(cell_lons.sum() / size),
            bbox=bbox, min_bt=min_bt, mean_bt=mean_bt, rows=rows, cols=cols))
    return objects


def label_components(mask: GeoGrid, min_area_px: int = DEFAULT_MIN_AREA_PX) -> list[CSObject]:
    """Retained components of a boolean mask grid, summarized geometrically.

    Components with fewer than ``min_area_px`` pixels are dropped; surviving
    objects get ids 1..n in raster-scan order of their first pixel. BT
    statistics stay unset until :func:`summarize`; :func:`detect` builds
    its objects with the same code, from a mask it never makes a grid of.
    """
    # A mask holds 0 or 1 where it holds data, so its set cells are its 1s,
    # unless 1 is its sentinel.
    on = (mask.values == 1.0) & (mask.nodata != 1.0)
    return _objects(on, mask.geometry, mask.time, min_area_px)


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
        min_bt, mean_bt = _bt_stats(member)
        out.append(replace(obj, min_bt=min_bt, mean_bt=mean_bt))
    return out


def _detect(bt: GeoGrid, t_deep: float, min_area_px: int) -> tuple[CSObject, ...]:
    """:func:`detect`'s one pass over a BT frame, without the memo."""
    on = (bt.values <= t_deep) & (bt.values != bt.nodata)
    return tuple(_objects(on, bt.geometry, bt.time, min_area_px, bt.values))


def detect(
    bt: GeoGrid,
    t_deep: float = DEFAULT_T_DEEP_K,
    min_area_px: int = DEFAULT_MIN_AREA_PX,
) -> list[CSObject]:
    """Threshold, label, and summarize one BT frame in one pass.

    The objects equal ``summarize(bt, label_components(convective_mask(bt,
    t_deep), min_area_px))``, built once each from a boolean mask, with no
    mask or label grid. The first call for a frame and parameters labels
    it; later calls return the same frozen objects, each time in a new list.
    """
    if bt.variable is not Variable.BT:
        raise TypeError(f"detect needs a BT grid, got {bt.variable.value}")
    return list(_per_frame(bt, ("detect", t_deep, min_area_px),
                           lambda: _detect(bt, t_deep, min_area_px)))


def _frame_objects(bt: GeoGrid, t_deep: float, min_area_px: int) -> tuple[CSObject, ...]:
    """:func:`detect`'s memo entry for ``bt``, calling ``detect`` only when
    it is missing: a reader such as ``FusionEngine`` adds no ``detect``
    call for a frame already detected with these parameters."""
    return _per_frame(bt, ("detect", t_deep, min_area_px),
                      lambda: tuple(detect(bt, t_deep, min_area_px)))


def _observed(frames: Iterable[GeoGrid], detections: Sequence[Sequence[CSObject]]) -> list:
    """The detections of each of ``frames`` that holds a finite cell, for
    ``tracking.build_tracks``; a frame without objects is scanned once."""
    return [objects for frame, objects in zip(frames, detections)
            if objects or _per_frame(frame, ("observed",), lambda: frame.finite_mask.any())]
