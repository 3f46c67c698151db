"""Georeferenced raster data model and the GSF grid-stack file format.

Conventions used throughout the engine:

- Plate carrée lat/lon grids only; no projections.
- Values are cell-center registered: ``lat_min``/``lon_min`` are the
  coordinates of the *center* of the south-west cell.
- Row 0 is the northernmost row (map-image order); columns run west to east.
- The nodata sentinel (default ``-9999.0``) is stored in the value array and
  excluded from every statistic.
- Grids are immutable after construction; all operations here are pure
  functions of their arguments.
- :func:`write_gsf` formats the frames of a large multi-frame stack in
  forked worker processes, one per usable CPU up to two, and writes them
  in frame order; the bytes do not depend on the CPU count.
- Text GSF is the interchange format. :func:`write_gsf` also writes a
  binary twin next to it, which :func:`read_gsf` uses only while the
  text's SHA-256 equals the one the twin records; deleting it is safe.
- A product that depends only on one frame and fixed parameters (its
  detections, its wind category ranks, its table over a :class:`WindowLayout`)
  is computed once per frame through :func:`_per_frame` and shared by
  every caller, engine and epoch that asks for it while the frame lives.
"""

from __future__ import annotations

import configparser
import csv
import io
import json
import math
import os
import threading
import weakref
from bisect import bisect_right
from collections import deque
from contextlib import closing
from dataclasses import dataclass
from datetime import datetime, timezone
from enum import Enum
from functools import cached_property, lru_cache
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Hashable, Iterable, Iterator, NamedTuple, Sequence, TypeVar

import numpy as np

if TYPE_CHECKING:
    from concurrent.futures import Executor, Future

# Spherical-degree approximation used for all km/degree conversions.
KM_PER_DEG = 111.195
EARTH_RADIUS_KM = KM_PER_DEG * 180.0 / math.pi

DEFAULT_NODATA = -9999.0


class Variable(str, Enum):
    """Physical variable carried by a grid."""

    BT = "BT"                  # brightness temperature, K
    RAIN_RATE = "RAIN_RATE"    # mm/h
    RAIN_ACCUM = "RAIN_ACCUM"  # mm
    WIND_SPEED = "WIND_SPEED"  # m/s
    NRCS = "NRCS"              # linear backscatter power
    FLOOD_MASK = "FLOOD_MASK"  # boolean 0/1 (also used for generic masks)
    # Derived, in-memory products (writable to GSF for inspection):
    WIND_CAT = "WIND_CAT"      # wind category rank 0..3
    LOG_RATIO = "LOG_RATIO"    # change-detection ratio, dB


DEFAULT_UNITS = {
    Variable.BT: "K",
    Variable.RAIN_RATE: "mm/h",
    Variable.RAIN_ACCUM: "mm",
    Variable.WIND_SPEED: "m/s",
    Variable.NRCS: "linear",
    Variable.FLOOD_MASK: "bool",
    Variable.WIND_CAT: "category",
    Variable.LOG_RATIO: "dB",
}


class GsfError(ValueError):
    """Malformed GSF content (parse, ordering, or payload errors)."""


def parse_time(text: str) -> datetime:
    """Parse an ISO-8601 UTC timestamp like ``2020-10-05T22:40:00Z``."""
    t = text.strip()
    if t.endswith("Z"):
        t = t[:-1] + "+00:00"
    try:
        dt = datetime.fromisoformat(t)
    except ValueError as exc:
        raise GsfError(f"bad timestamp {text!r}: {exc}") from None
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.astimezone(timezone.utc)


_TIME_FORMAT = "%Y-%m-%dT%H:%M:%SZ"


def format_time(dt: datetime) -> str:
    """Format a UTC timestamp at seconds resolution, e.g. ``2020-10-05T22:40:00Z``."""
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.astimezone(timezone.utc).strftime(_TIME_FORMAT)


def haversine_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance in km on the 111.195 km/deg sphere."""
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dphi = p2 - p1
    dlmb = math.radians(lon2 - lon1)
    a = math.sin(dphi / 2.0) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dlmb / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(a)))


@dataclass(frozen=True)
class GridGeometry:
    """Shared geometry of a raster: SW cell center, spacing, and shape."""

    lat_min: float
    lon_min: float
    dlat: float
    dlon: float
    nrows: int
    ncols: int

    def __post_init__(self) -> None:
        if self.nrows < 1 or self.ncols < 1:
            raise ValueError(f"grid shape must be >= 1x1, got {self.nrows}x{self.ncols}")
        if not all(map(math.isfinite, (self.lat_min, self.lon_min, self.dlat, self.dlon))):
            raise ValueError(f"grid origin and spacing must be finite, got {self}")
        if self.dlat <= 0 or self.dlon <= 0:
            raise ValueError(f"grid spacing must be positive, got dlat={self.dlat} dlon={self.dlon}")

    @property
    def lat_max(self) -> float:
        """Center latitude of the northernmost row."""
        return self.lat_min + (self.nrows - 1) * self.dlat

    @property
    def lon_max(self) -> float:
        """Center longitude of the easternmost column."""
        return self.lon_min + (self.ncols - 1) * self.dlon

    @cached_property
    def _axes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(row latitudes, column longitudes, per-row cell areas), found on
        first use and read-only, since the geometry never changes."""
        lats = self.lat_min + (self.nrows - 1 - np.arange(self.nrows)) * self.dlat
        lons = self.lon_min + np.arange(self.ncols) * self.dlon
        areas = (self.dlat * KM_PER_DEG) * (self.dlon * KM_PER_DEG * np.cos(np.radians(lats)))
        for axis in (lats, lons, areas):
            axis.setflags(write=False)
        return lats, lons, areas

    def lats(self) -> np.ndarray:
        """Per-row center latitudes, north to south (index = row); read-only."""
        return self._axes[0]

    def lons(self) -> np.ndarray:
        """Per-column center longitudes, west to east; read-only."""
        return self._axes[1]

    def cell_areas_km2(self) -> np.ndarray:
        """Per-row cell areas on the spherical-degree approximation; read-only."""
        return self._axes[2]


@dataclass(frozen=True)
class RegionBox:
    """Named lat/lon rectangle; province proxies and ROIs are boxes."""

    name: str
    lat_min: float
    lat_max: float
    lon_min: float
    lon_max: float

    def __post_init__(self) -> None:
        if not self.lat_min < self.lat_max:
            raise ValueError(f"region {self.name!r}: lat_min must be < lat_max")
        if not self.lon_min < self.lon_max:
            raise ValueError(f"region {self.name!r}: lon_min must be < lon_max")

    def contains(self, lat: float, lon: float) -> bool:
        """Closed-interval point test."""
        return (self.lat_min <= lat <= self.lat_max) and (self.lon_min <= lon <= self.lon_max)

    def intersects(self, other: "RegionBox") -> bool:
        return (
            self.lat_min <= other.lat_max
            and other.lat_min <= self.lat_max
            and self.lon_min <= other.lon_max
            and other.lon_min <= self.lon_max
        )


# Every value a derived grid of these variables can hold.
_HELD = {Variable.FLOOD_MASK: (0.0, 1.0), Variable.WIND_CAT: (0.0, 1.0, 2.0, 3.0)}
# The highest value a WIND_SPEED grid may hold, m/s.
WIND_SPEED_MAX_MPS = 100.0


def _check_values(variable: Variable, vals: np.ndarray, nodata: float) -> None:
    """Reject a non-finite value, and a data (non-nodata) value outside the
    variable's physical range.

    NaN propagates through min and max and an infinity is one of them, so
    the min and the max of the data cells decide every check but the
    held-value ones. A finite ``nodata`` below the min of the whole array
    matches no cell, so a grid with the usual sentinel and no gap costs one
    min and one max. Otherwise the data cells are found and, if any cell is
    nodata, taken as a compressed copy; nodata cells hold a finite value.
    """
    lo = vals.min()
    if nodata >= lo and math.isfinite(nodata):
        is_data = vals != nodata
        if not is_data.all():
            vals = vals[is_data]
            if vals.size == 0:
                return
            lo = vals.min()
    hi = vals.max()
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("grid values must be finite (use the nodata sentinel for gaps)")
    if variable is Variable.BT and (lo < 100.0 or hi > 400.0):
        raise ValueError(f"BT values outside [100, 400] K (min={lo}, max={hi})")
    if variable in (Variable.RAIN_RATE, Variable.RAIN_ACCUM) and lo < 0.0:
        raise ValueError(f"{variable.value} values must be >= 0 (min={lo})")
    if variable is Variable.WIND_SPEED and (lo < 0.0 or hi > WIND_SPEED_MAX_MPS):
        raise ValueError(f"WIND_SPEED values outside [0, {WIND_SPEED_MAX_MPS:g}] m/s "
                         f"(min={lo}, max={hi})")
    if variable is Variable.NRCS and lo <= 0.0:
        raise ValueError(f"NRCS values must be > 0 linear (min={lo})")
    if variable is Variable.FLOOD_MASK and not np.isin(vals, _HELD[variable]).all():
        raise ValueError("FLOOD_MASK values must be 0 or 1")
    if variable is Variable.WIND_CAT and not np.isin(vals, _HELD[variable]).all():
        raise ValueError("WIND_CAT values must be ranks 0..3")


@dataclass(frozen=True, eq=False)
class GeoGrid:
    """One georeferenced raster of a single variable at one timestamp.

    ``geometry`` places the raster; ``values`` is a ``geometry.nrows x
    geometry.ncols`` float64 array with row 0 = north. Cells equal to
    ``nodata`` are missing; every other value must be finite and inside
    the variable's physical bounds. The constructor checks all of this,
    copies the array and freezes the copy. A copy whose every value lies
    above a finite ``nodata`` is checked by one min and one max of it; only
    otherwise are the nodata cells looked for and masked out. Only the
    derived grids that are correct by construction (threshold masks and
    category ranks) skip the checks, through :meth:`_with_values_unchecked`.

    Grids compare and hash by identity: ``==`` is ``is``.
    """

    variable: Variable
    units: str
    time: datetime
    geometry: GridGeometry
    values: np.ndarray
    nodata: float = DEFAULT_NODATA

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=np.float64)
        shape = (self.geometry.nrows, self.geometry.ncols)
        if vals.shape != shape:
            raise ValueError(f"values shape {vals.shape} != {shape}")
        _check_values(self.variable, vals, self.nodata)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "time", parse_time(format_time(self.time)))

    @property
    def finite_mask(self) -> np.ndarray:
        """Boolean array, True where the cell holds data (not nodata)."""
        return self.values != self.nodata

    def with_values(
        self,
        values: np.ndarray,
        variable: Variable | None = None,
        time: datetime | None = None,
    ) -> "GeoGrid":
        """Derived grid on the same geometry and nodata sentinel, in the
        variable's default units."""
        var = variable if variable is not None else self.variable
        return GeoGrid(
            variable=var,
            units=DEFAULT_UNITS[var],
            time=time if time is not None else self.time,
            geometry=self.geometry,
            values=values,
            nodata=self.nodata,
        )

    def _with_values_unchecked(self, values: np.ndarray, variable: Variable) -> "GeoGrid":
        """:meth:`with_values` without the checks, for ``values`` the caller
        built to be valid where this grid holds data: 0/1 or ranks 0..3
        from a threshold of this grid. Every other cell holds the derived
        grid's nodata: this grid's sentinel, or ``DEFAULT_NODATA`` when the
        derived grid could hold the sentinel as a value. ``values`` is cast
        to float64 once and the sentinel written over it only where this
        grid holds nodata, so no float64 temporary is built and dropped.
        The time is already normalised."""
        nodata = DEFAULT_NODATA if self.nodata in _HELD[variable] else self.nodata
        out = values.astype(np.float64)
        missing = self.values == self.nodata
        if missing.any():
            out[missing] = nodata
        out.setflags(write=False)
        grid = object.__new__(GeoGrid)
        for name, value in (("variable", variable), ("units", DEFAULT_UNITS[variable]),
                            ("time", self.time), ("geometry", self.geometry),
                            ("values", out), ("nodata", nodata)):
            object.__setattr__(grid, name, value)
        return grid


@dataclass(frozen=True, eq=False)
class GridStack:
    """Time-ordered frames of one variable on one shared geometry.

    Stacks compare and hash by identity, like their grids."""

    frames: tuple[GeoGrid, ...]

    def __init__(self, frames: Sequence[GeoGrid]):
        frames = tuple(frames)
        if not frames:
            raise ValueError("empty stack")
        first = frames[0]
        cadence = math.inf
        for i, fr in enumerate(frames[1:], start=1):
            if fr.geometry is not first.geometry and fr.geometry != first.geometry:
                raise ValueError(f"frame {i} geometry differs from frame 0")
            if fr.variable != first.variable:
                raise ValueError(f"frame {i} variable {fr.variable.value} differs from {first.variable.value}")
            if frames[i].time <= frames[i - 1].time:
                raise GsfError(
                    f"frame times must be strictly increasing: "
                    f"{format_time(frames[i - 1].time)} then {format_time(frames[i].time)}"
                )
            cadence = min(cadence, (frames[i].time - frames[i - 1].time).total_seconds())
        object.__setattr__(self, "frames", frames)
        object.__setattr__(self, "_times", [fr.time for fr in frames])
        object.__setattr__(self, "_cadence_s", cadence)

    def __len__(self) -> int:
        return len(self.frames)

    def __iter__(self) -> Iterator[GeoGrid]:
        return iter(self.frames)

    def __getitem__(self, i: int) -> GeoGrid:
        return self.frames[i]

    @property
    def variable(self) -> Variable:
        return self.frames[0].variable

    @property
    def geometry(self) -> GridGeometry:
        return self.frames[0].geometry

    def between(self, start: datetime, end: datetime) -> list[GeoGrid]:
        """Frames in the trailing window ``start < t <= end``, found by
        bisection: frame times strictly increase."""
        return list(self.frames[bisect_right(self._times, start):bisect_right(self._times, end)])

    def cadence_s(self) -> float:
        """Nominal frame spacing in seconds: the smallest spacing between
        consecutive frames, so a dropped frame shows as a longer gap. It is
        found once, when the stack is built."""
        if len(self.frames) < 2:
            raise ValueError("cannot infer cadence from a single frame")
        return self._cadence_s


_T = TypeVar("_T")
# Per-frame products, keyed on the frame: an entry goes when its frame does.
_FRAME_MEMO: "weakref.WeakKeyDictionary[GeoGrid, dict]" = weakref.WeakKeyDictionary()


def _per_frame(frame: GeoGrid, key: Hashable, make: Callable[[], _T]) -> _T:
    """``make()`` for ``frame``, computed on the first call with ``key`` and
    returned again by every later one while the frame lives.

    A grid is immutable and hashes by identity, so a product that depends
    only on the frame and on the parameters named in ``key`` stays valid
    for the frame's life. ``key`` names the product and its parameters.
    The result is shared, so it must be immutable (a tuple, a read-only
    array), and it must not refer to ``frame``, which would keep the frame
    and its entry alive. A ``make()`` that raises stores nothing, so the
    next call raises again. Two threads may both compute a missing entry;
    both get the first value stored.
    """
    try:
        return _FRAME_MEMO[frame][key]
    except KeyError:
        pass
    value = make()
    return _FRAME_MEMO.setdefault(frame, {}).setdefault(key, value)


# ---------------------------------------------------------------------------
# GSF (Grid Stack Format) serialization
# ---------------------------------------------------------------------------

_HEADER_KEYS = ("variable", "units", "time", "nrows", "ncols",
                "lat_min", "lon_min", "dlat", "dlon", "nodata")
# Parser of each header value, in _HEADER_KEYS order.
_HEADER_PARSERS = (Variable, str, parse_time, int, int, float, float, float, float, float)
_CAN_FORK = hasattr(os, "fork")
# Fewest values a stack needs before formatting it in a pool pays: about
# 50 ms of serial formatting, a few times what starting the pool costs.
_POOL_MIN_VALUES = 1 << 16
# Most writer processes: the frame texts they finish wait in the writing process.
_WRITER_WORKERS = 2


def _fmt(v: float) -> str:
    # shortest round-trip decimal for 64-bit reals
    return repr(float(v))


def _header_lines(grid: GeoGrid) -> list[str]:
    """A frame's ten ``key=value`` header lines, in fixed key order."""
    geom = grid.geometry
    head = (grid.variable.value, grid.units, grid.time.strftime(_TIME_FORMAT),
            str(geom.nrows), str(geom.ncols), _fmt(geom.lat_min), _fmt(geom.lon_min),
            _fmt(geom.dlat), _fmt(geom.dlon), _fmt(grid.nodata))
    return [f"{k}={v}" for k, v in zip(_HEADER_KEYS, head)]


def _frame_text(grid: GeoGrid) -> bytes:
    """One frame's canonical GSF text, UTF-8 encoded: the ``GSF1`` line,
    the header in fixed key order, then one line of shortest round-trip
    decimals per row, single spaces, every line LF-terminated.

    It calls no public function, so a worker process that runs it never
    runs a wrapper put around one (the benchmark's tracer)."""
    # Rows are encoded one at a time. Encoding one str of the whole frame made
    # the writer workers re-fault its temporaries on every frame (21,700 minor
    # faults against 16,600 per replay bt.gsf write), as glibc trims the heap.
    header = "GSF1\n" + "".join(line + "\n" for line in _header_lines(grid))
    lines = [header.encode("utf-8")]
    lines += [(" ".join(map(repr, row)) + "\n").encode("utf-8") for row in grid.values.tolist()]
    return b"".join(lines)


# The stack a forked writer worker formats, set by the pool's initializer
# in the worker; the writing process never sets it.
_WORKER_STACK: GridStack | None = None


def _set_worker_stack(stack: GridStack) -> None:
    global _WORKER_STACK
    _WORKER_STACK = stack


def _worker_frame_text(i: int) -> bytes:
    return _frame_text(_WORKER_STACK[i])


def _writer_pool(workers: int, stack: GridStack) -> Executor:
    """``workers`` forked processes that inherit ``stack`` (a forked child
    gets its initializer's arguments without pickling), so a task sends
    only a frame index and gets back the frame's text. Its modules are
    imported here, so a process that writes no large stack never loads
    them."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_set_worker_stack, initargs=(stack,))


def _frame_texts(stack: GridStack) -> Iterator[bytes]:
    """Each frame's :func:`_frame_text`, in frame order.

    A stack of two or more frames is formatted by a pool of forked
    processes, one per usable CPU up to ``_WRITER_WORKERS``, with at most
    two frames per worker submitted and not yet returned, so memory stays
    bounded. Frames are formatted inline, with no pool, for one frame, one
    usable CPU or fewer than ``_POOL_MIN_VALUES`` values, and where
    ``fork`` is missing or unsafe: while another thread runs, a forked
    child could inherit a lock it holds. A worker that raises or dies
    makes this raise (``BrokenProcessPool`` for a dead one); it never hangs.
    """
    geom = stack.geometry
    workers = 1
    if (_CAN_FORK and threading.active_count() == 1
            and len(stack) * geom.nrows * geom.ncols >= _POOL_MIN_VALUES):
        workers = min(len(os.sched_getaffinity(0)), len(stack), _WRITER_WORKERS)
    if workers < 2:
        yield from map(_frame_text, stack)
        return
    pool = _writer_pool(workers, stack)
    try:
        pending: deque[Future] = deque()
        for i in range(len(stack)):
            if len(pending) == 2 * workers:
                yield pending.popleft().result()
            pending.append(pool.submit(_worker_frame_text, i))
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


def _write_atomic(path, content: str | Callable[[Path], None]) -> None:
    """Write ``path`` through a temp file and a rename.

    ``content`` is either the text itself or a writer that fills the temp
    path it is given. If writing fails the temp file is removed, so a
    failed write leaves the directory as it was.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp{os.getpid()}")
    try:
        if isinstance(content, str):
            with open(tmp, "w", encoding="utf-8", newline="") as fh:
                fh.write(content)
        else:
            content(tmp)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# The twin of x.gsf is .x.gsf.twin: a JSON line with this tag, the text's SHA-256
# and each frame's header lines, then each frame's values as C-order "<f8".
_TWIN_FORMAT = "cswarn-gsf-twin/1"


def _twin_path(path) -> Path:
    return Path(path).with_name(f".{Path(path).name}.twin")


def write_gsf(stack: GridStack, path) -> None:
    """Write a stack in canonical GSF form: each frame's text, with a
    ``---`` line between frames. The bytes depend only on the stack, never
    on how many CPUs formatted it. The text and then its binary twin (see
    :func:`read_gsf`) are each written to a temp file; the twin is renamed
    first, so a failed write leaves both files as they were."""
    import hashlib

    digest = hashlib.sha256()

    def write_twin(tmp: Path) -> None:
        head = {"format": _TWIN_FORMAT, "sha256": digest.hexdigest(),
                "frames": [_header_lines(grid) for grid in stack]}
        with open(tmp, "wb") as fh:
            fh.write(json.dumps(head).encode("ascii") + b"\n")
            for grid in stack:
                fh.write(np.ascontiguousarray(grid.values, "<f8"))

    def write_text(tmp: Path) -> None:
        with open(tmp, "wb") as fh, closing(_frame_texts(stack)) as texts:
            sep = b""
            for text in texts:
                for part in (sep, text):
                    fh.write(part)
                    digest.update(part)
                # Hold no frame's text while the next one arrives.
                sep = part = text = b"---\n"
        _write_atomic(_twin_path(path), write_twin)

    _write_atomic(path, write_text)


def _parse_payload(data_lines: list[str], ncols: int, lineno: int) -> np.ndarray:
    """Values of a frame's data lines; lineno is the file line of the first.

    numpy's C text reader parses a well-formed payload in one call. A
    payload it rejects or reads to another shape goes through the
    per-token loop, which accepts every token ``float`` accepts (``1_0``,
    non-ASCII digits) and names the first bad line. ``comments=None``
    keeps ``#`` a bad token. A blank first line is malformed anyway and
    skips the reader, which warns when every line is blank.
    """
    if data_lines and data_lines[0].strip():
        try:
            values = np.loadtxt(data_lines, dtype=np.float64, comments=None, ndmin=2)
        except ValueError:
            pass
        else:
            if values.shape == (len(data_lines), ncols):
                return values
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


def _same_numbers(fields: tuple, geometry: GridGeometry) -> bool:
    """True when ``fields`` equal ``geometry``'s six values bit for bit."""
    own = (geometry.lat_min, geometry.lon_min, geometry.dlat, geometry.dlon,
           geometry.nrows, geometry.ncols)
    return fields == own and repr(fields) == repr(own)


def _parse_head(lines: Sequence[str], lineno0: int) -> dict:
    """A frame's ten ``key=value`` header lines parsed, by key; lineno0 is its 'GSF1' line."""
    head = {}
    for off, (key, parse, line) in enumerate(zip(_HEADER_KEYS, _HEADER_PARSERS, lines), start=1):
        k, sep, v = line.partition("=")
        if sep != "=" or k != key:
            raise GsfError(f"line {lineno0 + off}: expected '{key}=...', got {line!r}")
        try:
            head[key] = parse(v)
        except ValueError as exc:
            raise GsfError(f"line {lineno0 + off}: bad {key}: {exc}") from None
    return head


def _make_frame(head: dict, values: np.ndarray, lineno0: int, previous: GridGeometry | None) -> GeoGrid:
    """The checked frame of a parsed header and its values. It takes
    ``previous``, the geometry of the frame before, when its six geometry
    values are the same numbers bit for bit, so a stack read back holds one
    geometry object and its axes are computed once. Equal values with unequal
    reprs (``0.0``, ``-0.0``) keep their own geometry, so the bytes
    written back and :class:`GridStack`'s checks are those of one per frame."""
    fields = tuple(head[k] for k in ("lat_min", "lon_min", "dlat", "dlon", "nrows", "ncols"))
    try:
        if previous is not None and _same_numbers(fields, previous):
            geometry = previous
        else:
            geometry = GridGeometry(*fields)
        return GeoGrid(
            variable=head["variable"], units=head["units"], time=head["time"],
            geometry=geometry, values=values, nodata=head["nodata"],
        )
    except ValueError as exc:
        raise GsfError(f"line {lineno0}: invalid frame: {exc}") from None


def _parse_frame(lines: list[str], lineno0: int, previous: GridGeometry | None) -> GeoGrid:
    """Parse one frame's lines; lineno0 is the 1-based file line of 'GSF1'."""
    if not lines or lines[0] != "GSF1":
        raise GsfError(f"line {lineno0}: expected 'GSF1' magic, got {lines[0] if lines else '<eof>'!r}")
    if len(lines) < 1 + len(_HEADER_KEYS):
        raise GsfError(f"line {lineno0}: truncated frame header")
    head = _parse_head(lines[1:1 + len(_HEADER_KEYS)], lineno0)
    data_lines = lines[1 + len(_HEADER_KEYS):]
    if len(data_lines) != head["nrows"]:
        raise GsfError(f"line {lineno0}: payload error: expected {head['nrows']} data lines, "
                       f"got {len(data_lines)}")
    values = _parse_payload(data_lines, head["ncols"], lineno0 + 1 + len(_HEADER_KEYS))
    return _make_frame(head, values, lineno0, previous)


def parse_gsf(lines: Iterable[str]) -> GridStack:
    """Parse GSF text given line by line, e.g. an open file or
    ``io.StringIO(text)``. Each frame is parsed as soon as its ``---``
    line or the end of input arrives, so only one frame's text is held."""
    frames: list[GeoGrid] = []
    frame: list[str] = []
    start = 1  # file line of the current frame's 'GSF1'
    lineno = 0
    for lineno, line in enumerate(lines, start=1):
        line = line.rstrip("\n")
        if line == "---":
            frames.append(_parse_frame(frame, start, frames[-1].geometry if frames else None))
            frame = []
            start = lineno + 1
        else:
            frame.append(line)
    if lineno == 0:
        raise GsfError("line 1: empty file")
    frames.append(_parse_frame(frame, start, frames[-1].geometry if frames else None))
    try:
        return GridStack(frames)
    except GsfError:
        raise
    except ValueError as exc:
        raise GsfError(str(exc)) from None


def _read_twin(path) -> GridStack | None:
    """The stack the twin of ``path`` holds, one frame at a time, through the
    text route's header parsing and frame checks; or None for a missing or
    stale twin, one of the wrong size, or any other fault."""
    try:
        with open(_twin_path(path), "rb") as twin:
            import hashlib

            meta = json.loads(twin.readline())
            digest = hashlib.sha256()
            with open(path, "rb") as text:
                while chunk := text.read(1 << 20):
                    digest.update(chunk)
            if (meta["format"], meta["sha256"]) != (_TWIN_FORMAT, digest.hexdigest()):
                return None
            heads = [_parse_head(lines, 0) for lines in meta["frames"]]
            size = twin.tell() + sum(8 * h["nrows"] * h["ncols"] for h in heads)
            if size != os.fstat(twin.fileno()).st_size:
                return None
            frames: list[GeoGrid] = []
            for head in heads:
                values = np.empty((head["nrows"], head["ncols"]), "<f8")
                if twin.readinto(values) != values.nbytes:
                    return None
                frames.append(_make_frame(head, values, 0, frames[-1].geometry if frames else None))
            return GridStack(frames)
    except Exception:  # any fault, of any type: the text route decides the result or error
        return None


def read_gsf(path) -> GridStack:
    """Read a GSF file; frames come back in file order. Lines may end in
    LF, CRLF or CR, and a byte that is not UTF-8 is reported with its line.
    The text is not parsed when the twin :func:`write_gsf` left records its
    SHA-256 as it is now; then the twin gives the same stack, faster."""
    stack = _read_twin(path)
    if stack is not None:
        return stack
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_gsf(fh)
    except UnicodeDecodeError as exc:
        raise GsfError(_not_utf8(path, exc)) from None


def _not_utf8(path, exc: UnicodeDecodeError) -> str:
    """``line N: byte 0xNN is not UTF-8 (reason)`` for the first such byte
    of ``path``, lines counted as universal newlines count them; ``exc``
    as it reads if the file no longer holds one."""
    lineno = 1
    with open(path, "rb") as fh:  # no UTF-8 sequence holds an LF byte
        for raw in fh:
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as bad:
                lineno += raw.count(b"\r", 0, bad.start)
                return f"line {lineno}: byte 0x{raw[bad.start]:02x} is not UTF-8 ({bad.reason})"
            lineno += 1 + raw.count(b"\r") - raw.endswith(b"\r\n")
    return str(exc)


# ---------------------------------------------------------------------------
# Region windows
# ---------------------------------------------------------------------------

def region_indices(geometry: GridGeometry, box: RegionBox) -> tuple[slice, slice] | None:
    """The (row slice, col slice) block of cells whose centers lie in ``box``.

    Bounds are closed. Cell-center latitudes and longitudes are monotone,
    so the selected cells always form one contiguous block and
    ``values[rows, cols]`` is a view. Returns None when the box holds no
    cell center, i.e. the region is not observed on this grid.
    """
    lats = geometry.lats()
    lons = geometry.lons()
    rows = ((lats >= box.lat_min) & (lats <= box.lat_max)).nonzero()[0].tolist()
    cols = ((lons >= box.lon_min) & (lons <= box.lon_max)).nonzero()[0].tolist()
    if not rows or not cols:
        return None
    return slice(rows[0], rows[-1] + 1), slice(cols[0], cols[-1] + 1)


class WindowLayout(NamedTuple):
    """The cell windows of some regions on one geometry, laid end to end:
    ``key`` holds each region's ``(r0, r1, c0, c1)`` block, or None off the
    grid, and names the layout in memo keys; ``cells`` holds the windows'
    flat cell indices, and ``starts`` each on-grid window's offset in it.
    A region off the grid has no segment, since ``reduceat`` gives an
    element, not an empty reduction, for an empty one."""

    key: tuple
    cells: np.ndarray
    starts: np.ndarray
    n_cells: np.ndarray  # per region, 0 off the grid

    def reduce(self, ufunc: np.ufunc, values: np.ndarray, empty: float) -> np.ndarray:
        """``ufunc`` over each region's entries of ``values`` (one per
        entry of ``cells``), ``empty`` off the grid; read-only."""
        out = np.full(self.n_cells.size, empty, dtype=values.dtype)
        out[self.n_cells > 0] = ufunc.reduceat(values, self.starts)
        out.setflags(write=False)
        return out


@lru_cache(maxsize=256)
def region_windows(geometry: GridGeometry, regions: tuple[RegionBox, ...]) -> WindowLayout:
    """The :class:`WindowLayout` of ``regions`` on ``geometry``, found once
    and kept for the 256 pairs used last."""
    key = tuple(w and (w[0].start, w[0].stop, w[1].start, w[1].stop)
                for w in (region_indices(geometry, r) for r in regions))
    n = geometry.ncols
    blocks = [(np.arange(r0 * n, r1 * n, n)[:, None] + np.arange(c0, c1)).ravel()
              for r0, r1, c0, c1 in filter(None, key)]
    n_cells = np.array([0 if k is None else (k[1] - k[0]) * (k[3] - k[2]) for k in key], np.int64)
    sizes = n_cells[n_cells > 0]
    layout = WindowLayout(key, np.concatenate([np.zeros(0, np.intp), *blocks]),
                          np.cumsum(sizes) - sizes, n_cells)
    for array in layout[1:]:
        array.setflags(write=False)
    return layout


# ---------------------------------------------------------------------------
# Regions file, INI files (the engine config and the scenario spec) and CSV rows
# ---------------------------------------------------------------------------

def _check_region_name(name: str) -> str:
    """``name``, if a regions file line can carry it: one token, no '#'."""
    if name.split() != [name] or "#" in name:
        raise ValueError(f"region name {name!r} cannot hold whitespace or '#'")
    return name


def read_regions(path) -> list[RegionBox]:
    """Read a regions file: ``name lat_min lat_max lon_min lon_max`` per
    line. Each fault names its line; a name given twice names both."""
    regions: list[RegionBox] = []
    seen: dict[str, int] = {}
    for lineno, raw in enumerate(_read_text(path).split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 5:
            raise ValueError(f"{path}:{lineno}: expected 'name lat_min lat_max lon_min lon_max'")
        name = parts[0]
        if name in seen:
            raise ValueError(f"{path}:{lineno}: region {name!r} is already named on line {seen[name]}")
        seen[name] = lineno
        try:  # a bad number, or bounds RegionBox rejects
            regions.append(RegionBox(name, *(float(p) for p in parts[1:])))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    return regions


def write_regions(regions: Sequence[RegionBox], path) -> None:
    """Write a regions file; a name one line cannot carry fails first."""
    for r in regions:
        _check_region_name(r.name)
    _write_atomic(path, "".join(
        f"{r.name} {_fmt(r.lat_min)} {_fmt(r.lat_max)} {_fmt(r.lon_min)} {_fmt(r.lon_max)}\n"
        for r in regions))


def _read_text(path, newline: str | None = None) -> str:
    """The UTF-8 text of ``path``, every line ending as LF unless
    ``newline`` is ``""``, which keeps them; a byte that is not UTF-8 fails
    naming the file and its line."""
    try:
        with open(path, "r", encoding="utf-8", newline=newline) as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {_not_utf8(path, exc)}") from None


def _read_ini(path) -> configparser.ConfigParser:
    """The INI file at ``path``, parsed; any fault is a ValueError naming
    it. ``configparser`` copies ``[DEFAULT]`` keys into every section, or
    drops them when no other section is there, so that section may hold
    no key."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(_read_text(path), source=str(path))
    except (OSError, configparser.Error) as exc:
        raise ValueError(f"{path}: {exc}") from None
    if parser.defaults():
        raise ValueError(f"{path}: [{parser.default_section}] may hold no keys, "
                         f"got {sorted(parser.defaults())}")
    return parser


def _csv_rows(path, header: Sequence[str], what: str) -> Iterator[Callable[..., object]]:
    """The rows of the CSV file at ``path`` after its ``header``, each as
    ``cell(column, parse=str, optional=False)``: the column's text through
    ``parse``, or None when ``optional`` and empty. Every fault names the
    file, a row's its line too, and a cell's reads ``FILE:LINE: column: why``."""
    reader = csv.DictReader(io.StringIO(_read_text(path, newline=""), newline=""))
    if reader.fieldnames != list(header):
        raise ValueError(f"{path}: unexpected {what} columns {reader.fieldnames}")
    for row in reader:
        where = f"{path}:{reader.line_num}"
        if None in row or None in row.values():
            raise ValueError(f"{where}: expected {len(header)} columns")

        def cell(column: str, parse: Callable = str, optional: bool = False):
            text = row[column]
            if optional and not text:
                return None
            try:
                return parse(text)
            except (KeyError, ValueError) as exc:
                why = f"unknown name {text!r}" if isinstance(exc, KeyError) else exc
                raise ValueError(f"{where}: {column}: {why}") from None

        yield cell


def _finite_float(text: str) -> float:
    """``text`` as a float that is neither NaN nor infinite."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def _read_section(path, section, keys: dict, required: set, build: Callable):
    """``build`` called with the keys of ``section`` parsed, by field name.

    An unknown key, a missing required key, a value its parser rejects and
    a ValueError from ``build`` all fail with a message that starts with
    the file and the section.
    """
    where = f"{path}: [{section.name}]"
    unknown = set(section) - set(keys)
    if unknown:
        raise ValueError(f"{where} unknown keys: {sorted(unknown)}")
    missing = required - set(section)
    if missing:
        raise ValueError(f"{where} missing keys: {sorted(missing)}")
    fields = {}
    for key, (field, parse) in keys.items():
        if key in section:
            try:
                fields[field] = parse(section[key])
            except ValueError as exc:
                raise ValueError(f"{where} bad {key}: {exc}") from None
    try:
        return build(**fields)
    except ValueError as exc:
        raise ValueError(f"{where} {exc}") from None
