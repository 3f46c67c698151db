"""Span tracing from outside the program, and the per-layer metrics.

``Tracer.install`` wraps every public module-level function of each
``cswarn`` module, plus the ``FusionEngine`` methods, and rebinds every
name that refers to the original in every ``cswarn`` module, so a call
through ``from .tracking import time_to_region`` is traced as well as one
through ``tracking.time_to_region``. Each call records one span: name,
parent span, start, end and a few counts taken from its arguments or
result. Spans stay in memory until ``write_spans``; ``uninstall`` puts
the originals back.

A layer is a ``cswarn`` module. A span's self time is its duration minus
the time its direct children cover.
"""

from __future__ import annotations

import inspect
import json
import os
import time
from collections import defaultdict
from typing import Callable

import numpy as np

MODULES = ("geogrid", "convection", "tracking", "wind", "precip",
           "fusion", "floodmap", "scenario", "cli")
METHODS = (("fusion", "FusionEngine", ("__init__", "run", "run_epoch", "rain_stats_at")),)

# Files `cswarn fuse` reads for a purpose; anything else it parses is waste.
FUSE_INPUTS = ("bt.gsf", "rain.gsf", "nrcs.gsf")
CSV_WRITERS = ("cli.objects_csv", "cli.tracks_csv", "cli.warnings_csv",
               "cli.rain_stats_csv", "cli.validation_csv")
CLI_COMMANDS = ("synth", "detect", "track", "fuse", "floodmap", "validate")

# Every per-layer metric, with its unit, in the order they are reported.
LAYER_METRICS = {
    "geogrid.write_s": "s", "geogrid.write_bytes": "bytes",
    "geogrid.read_s": "s", "geogrid.read_bytes": "bytes",
    "geogrid.read_calls": "count", "geogrid.read_used_ratio": "ratio",
    "geogrid.region_indices_calls": "count", "geogrid.region_indices_s": "s",
    "convection.detect_calls": "count", "convection.frames": "count",
    "convection.detect_per_frame": "ratio", "convection.detect_s": "s",
    "convection.label_s": "s", "convection.label_pixels": "count",
    "convection.components": "count", "convection.objects": "count",
    "convection.kept_ratio": "ratio",
    "tracking.build_s": "s", "tracking.associate_s": "s", "tracking.tracks": "count",
    "tracking.approach_calls": "count", "tracking.approach_s": "s",
    "tracking.approach_hit_ratio": "ratio", "tracking.motion_calls": "count",
    "wind.retrieve_s": "s", "wind.retrieve_cells": "count", "wind.categorize_s": "s",
    "wind.window_calls": "count", "wind.window_s": "s",
    "precip.stats_calls": "count", "precip.stats_s": "s",
    "precip.stats_per_report": "ratio", "precip.empty_windows": "count",
    "fusion.init_s": "s", "fusion.run_s": "s", "fusion.indicators_calls": "count",
    "fusion.indicators_self_s": "s", "fusion.reports": "count", "fusion.epochs": "count",
    "floodmap.ratio_s": "s", "floodmap.mask_s": "s", "floodmap.flooded_px": "count",
    "floodmap.validate_s": "s",
    "scenario.generate_s": "s", "scenario.frames": "count",
    "cli.synth_s": "s", "cli.detect_s": "s", "cli.track_s": "s", "cli.fuse_s": "s",
    "cli.floodmap_s": "s", "cli.validate_s": "s", "cli.startup_s": "s",
    "cli.csv_s": "s", "cli.csv_bytes": "bytes",
}


# Counts recorded at the call boundary: (args, kwargs, result) -> dict.
def _path_bytes(path_arg: int) -> Callable:
    def probe(args, kwargs, result):
        path = args[path_arg] if len(args) > path_arg else kwargs.get("path")
        return {"bytes": os.path.getsize(path), "file": os.path.basename(str(path))}
    return probe


def _scenario_frames(args, kwargs, result):
    n = len(result.bt) + len(result.rain) + sum(len(s) for s in result.wind.values())
    return {"frames": n + (len(result.nrcs) if result.nrcs is not None else 0)}


PROBES: dict[str, Callable] = {
    "geogrid.write_gsf": _path_bytes(1),
    "geogrid.read_gsf": _path_bytes(0),
    "convection.detect": lambda a, k, r: {"objects": len(r), "frame": a[0].time.isoformat()},
    "convection.label_array": lambda a, k, r: {"pixels": int(np.count_nonzero(a[0])),
                                               "components": int(r[1])},
    "tracking.build_tracks": lambda a, k, r: {"tracks": len(r)},
    "tracking.time_to_region": lambda a, k, r: {"hit": r is not None},
    "wind.retrieve_wind_grid": lambda a, k, r: {"cells": int(a[0].values.size)},
    "fusion.FusionEngine.run_epoch": lambda a, k, r: {"reports": len(r)},
    "floodmap.flood_mask": lambda a, k, r: {"flooded_px": int((r.grid.values == 1.0).sum())},
    "scenario.generate": _scenario_frames,
    "cli.main": lambda a, k, r: {"command": a[0][0]},
    **{name: (lambda a, k, r: {"bytes": len(r)}) for name in CSV_WRITERS},
}


class Tracer:
    """In-memory span recorder that wraps ``cswarn`` functions in place."""

    def __init__(self) -> None:
        # Each span: [name, parent index or -1, start, end, attrs or None]
        self.spans: list[list] = []
        self._open: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, open_ = self.spans, self._open
        probe = PROBES.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, open_[-1] if open_ else -1, 0.0, 0.0, None]
            open_.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[3] = clock()
                open_.pop()
                rec[4] = {"error": type(exc).__name__}
                raise
            rec[3] = clock()
            open_.pop()
            if probe is not None:
                rec[4] = probe(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        return traced

    def install(self) -> None:
        import importlib

        mods = {m: importlib.import_module(f"cswarn.{m}") for m in MODULES}
        wrappers: dict[int, Callable] = {}
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[id(obj)] = self._wrap(f"{short}.{attr}", obj)
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and wrapper.__wrapped__ is obj:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)
        for short, cls_name, methods in METHODS:
            cls = getattr(mods[short], cls_name)
            for meth in methods:
                fn = cls.__dict__[meth]
                self._restore.append((cls, meth, fn))
                setattr(cls, meth, self._wrap(f"{short}.{cls_name}.{meth}", fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write_spans(self, path, t0: float) -> None:
        """JSON lines, one span each, times in seconds from ``t0``."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, parent, start, end, attrs) in enumerate(self.spans):
                rec = {"id": i, "parent": parent, "name": name,
                       "start": start - t0, "end": end - t0}
                if attrs:
                    rec.update(attrs)
                fh.write(json.dumps(rec) + "\n")


def self_times(spans: list[list]) -> list[float]:
    out = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[1] >= 0:
            out[s[1]] -= s[3] - s[2]
    return out


def _ancestor(spans: list[list], i: int, name: str) -> list | None:
    p = spans[i][1]
    while p >= 0:
        if spans[p][0] == name:
            return spans[p]
        p = spans[p][1]
    return None


def layer_table(spans: list[list], pipeline_s: float, since: float) -> dict[str, dict]:
    """Per module: span count, self time and self time's share of the pass,
    over the spans that start at or after ``since``."""
    selfs = self_times(spans)
    table: dict[str, dict] = {}
    for s, self_s in zip(spans, selfs):
        if s[2] < since:
            continue
        row = table.setdefault(s[0].split(".", 1)[0], {"count": 0, "self_s": 0.0})
        row["count"] += 1
        row["self_s"] += self_s
    for row in table.values():
        row["share_of_pipeline"] = row["self_s"] / pipeline_s if pipeline_s > 0 else 0.0
    return dict(sorted(table.items(), key=lambda kv: -kv[1]["self_s"]))


def layer_metrics(spans: list[list], startup_s: float = 0.0) -> dict[str, float]:
    """Every LAYER_METRICS entry from one traced pass; 0 where a layer did not run."""
    count: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    attr_sum: dict[tuple[str, str], float] = defaultdict(float)
    selfs = self_times(spans)
    self_sum: dict[str, float] = defaultdict(float)
    frames: set[str] = set()
    hits = empty = 0
    read_used = 0
    label = {"s": 0.0, "pixels": 0, "components": 0}
    cli_s = {c: 0.0 for c in CLI_COMMANDS}
    run_s = 0.0
    for i, (name, parent, start, end, attrs) in enumerate(spans):
        dur = end - start
        count[name] += 1
        total[name] += dur
        self_sum[name] += selfs[i]
        attrs = attrs or {}
        for key, val in attrs.items():
            if isinstance(val, (int, float)) and not isinstance(val, bool):
                attr_sum[(name, key)] += val
        if name == "convection.detect":
            frames.add(attrs.get("frame", ""))
        elif name == "convection.label_array":
            if _ancestor(spans, i, "convection.label_components") is not None:
                label["s"] += dur
                label["pixels"] += attrs.get("pixels", 0)
                label["components"] += attrs.get("components", 0)
        elif name == "tracking.time_to_region":
            hits += bool(attrs.get("hit"))
        elif name == "precip.region_rain_stats":
            empty += attrs.get("error") == "EmptyWindowError"
        elif name == "geogrid.read_gsf":
            fname = attrs.get("file", "")
            in_fuse = _ancestor(spans, i, "cli.cmd_fuse") is not None
            if not in_fuse or fname in FUSE_INPUTS or fname.startswith("wind_"):
                read_used += attrs.get("bytes", 0)
        elif name == "cli.main":
            cli_s[attrs.get("command", "")] = cli_s.get(attrs.get("command", ""), 0.0) + dur
        elif name == "fusion.FusionEngine.run":
            run_s += dur
        elif name == "fusion.FusionEngine.run_epoch":
            if _ancestor(spans, i, "fusion.FusionEngine.run") is None:
                run_s += dur

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    read_bytes = attr_sum[("geogrid.read_gsf", "bytes")]
    reports = attr_sum[("fusion.FusionEngine.run_epoch", "reports")]
    m = {
        "geogrid.write_s": total["geogrid.write_gsf"],
        "geogrid.write_bytes": attr_sum[("geogrid.write_gsf", "bytes")],
        "geogrid.read_s": total["geogrid.read_gsf"],
        "geogrid.read_bytes": read_bytes,
        "geogrid.read_calls": count["geogrid.read_gsf"],
        "geogrid.read_used_ratio": ratio(read_used, read_bytes),
        "geogrid.region_indices_calls": count["geogrid.region_indices"],
        "geogrid.region_indices_s": total["geogrid.region_indices"],
        "convection.detect_calls": count["convection.detect"],
        "convection.frames": len(frames),
        "convection.detect_per_frame": ratio(count["convection.detect"], len(frames)),
        "convection.detect_s": total["convection.detect"],
        "convection.label_s": label["s"],
        "convection.label_pixels": label["pixels"],
        "convection.components": label["components"],
        "convection.objects": attr_sum[("convection.detect", "objects")],
        "convection.kept_ratio": ratio(attr_sum[("convection.detect", "objects")],
                                       label["components"]),
        "tracking.build_s": total["tracking.build_tracks"],
        "tracking.associate_s": total["tracking.associate"],
        "tracking.tracks": attr_sum[("tracking.build_tracks", "tracks")],
        "tracking.approach_calls": count["tracking.time_to_region"],
        "tracking.approach_s": total["tracking.time_to_region"],
        "tracking.approach_hit_ratio": ratio(hits, count["tracking.time_to_region"]),
        "tracking.motion_calls": count["tracking.motion_vector"],
        "wind.retrieve_s": total["wind.retrieve_wind_grid"],
        "wind.retrieve_cells": attr_sum[("wind.retrieve_wind_grid", "cells")],
        "wind.categorize_s": total["wind.categorize_grid"],
        "wind.window_calls": count["wind.region_max_category"],
        "wind.window_s": total["wind.region_max_category"],
        "precip.stats_calls": count["precip.region_rain_stats"],
        "precip.stats_s": total["precip.region_rain_stats"],
        "precip.stats_per_report": ratio(count["precip.region_rain_stats"], reports),
        "precip.empty_windows": empty,
        "fusion.init_s": total["fusion.FusionEngine.__init__"],
        "fusion.run_s": run_s,
        "fusion.indicators_calls": count["fusion.build_indicators"],
        "fusion.indicators_self_s": self_sum["fusion.build_indicators"],
        "fusion.reports": reports,
        "fusion.epochs": count["fusion.FusionEngine.run_epoch"],
        "floodmap.ratio_s": total["floodmap.log_ratio_db"],
        "floodmap.mask_s": total["floodmap.flood_mask"],
        "floodmap.flooded_px": attr_sum[("floodmap.flood_mask", "flooded_px")],
        "floodmap.validate_s": total["floodmap.validate"],
        "scenario.generate_s": total["scenario.generate"],
        "scenario.frames": attr_sum[("scenario.generate", "frames")],
        **{f"cli.{c}_s": cli_s[c] for c in CLI_COMMANDS},
        "cli.startup_s": startup_s,
        "cli.csv_s": sum(total[n] for n in CSV_WRITERS),
        "cli.csv_bytes": sum(attr_sum[(n, "bytes")] for n in CSV_WRITERS),
    }
    assert list(m) == list(LAYER_METRICS)
    return m


def geogrid_io_s(m: dict[str, float]) -> float:
    return m["geogrid.read_s"] + m["geogrid.write_s"]
