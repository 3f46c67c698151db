"""Command-line pipeline: synth -> detect / track -> fuse -> floodmap -> validate.

Commands:

- ``synth``     generate a synthetic scenario (GSF stacks + truth CSV)
- ``detect``    detected convective objects per BT frame, as CSV
- ``track``     track dump with per-observation motion estimates, as CSV
- ``fuse``      per-region warning reports over all decision epochs, as CSV
- ``floodmap``  change-detection flood mask from two backscatter images
- ``validate``  score warnings against a flood mask (POD / FAR)

All thresholds live in one INI config file so a given profile is a
committed, auditable artifact; unknown keys or out-of-range values abort
before any output is written. Output files are written atomically
(temp file + rename) and are byte-identical across runs on identical
inputs.

Exit codes: 0 success, 2 bad usage or config, 1 any runtime failure; all
failures print a one-line diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from . import floodmap as fm
from . import scenario as sc
from .convection import DEFAULT_MIN_AREA_PX, DEFAULT_T_DEEP_K, CSObject, _observed, detect
from .fusion import (
    DEFAULT_EPOCH_S,
    DEFAULT_WINDOW_S,
    FusionEngine,
    RegionIndicators,
    RuleSet,
    WarnLevel,
    WarningReport,
)
from .geogrid import (
    GeoGrid,
    GridStack,
    GsfError,
    RegionBox,
    Variable,
    _csv_rows,
    _finite_float,
    _read_ini,
    _read_section,
    _write_atomic,
    format_time,
    parse_time,
    read_gsf,
    read_regions,
    write_gsf,
    write_regions,
)
from .precip import R_HEAVY_DEFAULT_MMH, RainStats
from .tracking import (
    DEFAULT_FIT_WINDOW,
    DEFAULT_MAX_GAP_KM,
    Track,
    UndefinedMotionError,
    build_tracks,
    motion_vector,
)
from .wind import (
    DEFAULT_BINS,
    V_MAX_DEFAULT,
    GmfGeometry,
    WindCategory,
    get_gmf,
    retrieve_wind_grid,
)

# Geometry assumed when inverting backscatter grids that carry no viewing
# geometry of their own (mid-swath incidence, look along the wind).
NRCS_DEFAULT_GEOMETRY = GmfGeometry(incidence_deg=35.0, rel_azimuth_deg=0.0)


class ConfigError(ValueError):
    """Bad engine configuration (unknown key, unparsable or invalid value)."""


# ---------------------------------------------------------------------------
# Engine configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EngineConfig:
    t_deep: float = DEFAULT_T_DEEP_K
    min_area_px: int = DEFAULT_MIN_AREA_PX
    gmf: str = "synth1"
    v_max: float = V_MAX_DEFAULT
    bins: tuple[float, float, float] = DEFAULT_BINS
    r_heavy: float = R_HEAVY_DEFAULT_MMH
    persistence_h: float = RuleSet.min_persistence_h
    fraction: float = RuleSet.min_cloud_fraction
    epoch_s: int = DEFAULT_EPOCH_S
    window_s: int = DEFAULT_WINDOW_S
    threshold_db: float = fm.THRESHOLD_DB_DEFAULT
    min_region_px: int = fm.MIN_REGION_PX_DEFAULT
    f_flood: float = fm.F_FLOOD_DEFAULT
    max_gap_km: float = DEFAULT_MAX_GAP_KM
    fit_window: int = DEFAULT_FIT_WINDOW

    def rules(self) -> RuleSet:
        return RuleSet(
            min_cloud_fraction=self.fraction,
            r_heavy_mmh=self.r_heavy,
            min_persistence_h=self.persistence_h,
        )


def _bins(text: str) -> tuple[float, ...]:
    """Three comma-separated finite numbers: the wind category edges."""
    edges = tuple(_finite_float(part.strip()) for part in text.split(","))
    if len(edges) != 3:
        raise ValueError(f"expected three comma-separated numbers, got {len(edges)}")
    return edges


_CONFIG_SCHEMA: dict[str, dict[str, Callable[[str], object]]] = {
    "detection": {"t_deep": _finite_float, "min_area_px": int},
    "wind": {"gmf": str, "v_max": _finite_float, "bins": _bins},
    "rain": {"r_heavy": _finite_float, "persistence_h": _finite_float},
    "fusion": {"fraction": _finite_float, "epoch_s": int, "window_s": int},
    "floodmap": {"threshold_db": _finite_float, "min_region_px": int, "f_flood": _finite_float},
    "tracking": {"max_gap_km": _finite_float, "fit_window": int},
}


def _validate_config(cfg: EngineConfig) -> EngineConfig:
    if not 100.0 <= cfg.t_deep <= 400.0:
        raise ConfigError(f"detection.t_deep {cfg.t_deep} outside [100, 400] K")
    if cfg.min_area_px < 1:
        raise ConfigError("detection.min_area_px must be >= 1")
    try:
        get_gmf(cfg.gmf)
    except KeyError as exc:
        raise ConfigError(f"wind.gmf: {exc.args[0]}") from None
    if not 0.0 < cfg.v_max <= 60.0:
        raise ConfigError(f"wind.v_max {cfg.v_max} outside (0, 60] m/s")
    b1, b2, b3 = cfg.bins
    if not 0.0 <= b1 < b2 < b3:
        raise ConfigError(f"wind.bins must be increasing and >= 0, got {cfg.bins}")
    if cfg.r_heavy < 0:
        raise ConfigError("rain.r_heavy must be >= 0")
    if cfg.persistence_h < 0:
        raise ConfigError("rain.persistence_h must be >= 0")
    if not 0.0 <= cfg.fraction <= 1.0:
        raise ConfigError(f"fusion.fraction {cfg.fraction} outside [0, 1]")
    if cfg.epoch_s <= 0 or cfg.window_s <= 0:
        raise ConfigError("fusion.epoch_s and fusion.window_s must be > 0")
    if cfg.min_region_px < 1:
        raise ConfigError("floodmap.min_region_px must be >= 1")
    if not 0.0 < cfg.f_flood <= 1.0:
        raise ConfigError(f"floodmap.f_flood {cfg.f_flood} outside (0, 1]")
    if cfg.max_gap_km <= 0:
        raise ConfigError("tracking.max_gap_km must be > 0")
    if cfg.fit_window < 2:
        raise ConfigError("tracking.fit_window must be >= 2")
    return cfg


def read_config(path) -> EngineConfig:
    """Parse and validate an engine config INI; every fault is a
    ConfigError that names the file."""
    try:
        parser = _read_ini(path)
        values: dict[str, object] = {}
        for section in parser.sections():
            if section not in _CONFIG_SCHEMA:
                raise ValueError(f"{path}: unknown section [{section}]")
            keys = {key: (key, parse) for key, parse in _CONFIG_SCHEMA[section].items()}
            values.update(_read_section(path, parser[section], keys, set(), dict))
        return _validate_config(EngineConfig(**values))  # type: ignore[arg-type]
    except ConfigError as exc:  # from _validate_config, which does not know the file
        raise ConfigError(f"{path}: {exc}") from None
    except ValueError as exc:  # names the file already
        raise ConfigError(str(exc)) from None


def load_config(path: str | None) -> EngineConfig:
    if path is None:
        return _validate_config(EngineConfig())
    return read_config(path)


def _fmt(value) -> str:
    """CSV cell formatting: shortest round-trip floats, empty for None."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv_text(header: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# CSV serializers (the pipeline's tabular external interfaces)
# ---------------------------------------------------------------------------

OBJECTS_HEADER = ["time", "id", "pixel_count", "area_km2",
                  "centroid_lat", "centroid_lon", "min_bt", "mean_bt"]
TRACKS_HEADER = ["track_id", "time", "centroid_lat", "centroid_lon",
                 "pixel_count", "min_bt", "speed_mps", "bearing_deg"]
WARNINGS_HEADER = ["epoch", "region", "level", "lead_time_s", "triggered_rules",
                   "deep_cloud_fraction", "min_bt", "wind_cat", "max_rain_mmh",
                   "rain_persistence_h", "approach_s"]
RAIN_STATS_HEADER = ["region", "window_start", "window_end", "max_rate_mmh",
                     "accum_mm", "persistence_h", "missing_fraction"]
VALIDATION_HEADER = ["region", "flooded", "warned", "outcome"]


def objects_csv(frames: Sequence[Sequence[CSObject]]) -> str:
    rows = []
    for objects in frames:
        for o in objects:
            rows.append([format_time(o.time), o.id, o.pixel_count, o.area_km2,
                         o.centroid_lat, o.centroid_lon, o.min_bt, o.mean_bt])
    return _csv_text(OBJECTS_HEADER, rows)


def tracks_csv(tracks: Sequence[Track], fit_window: int) -> str:
    """One row per observation with the motion estimate as of that time."""
    rows = []
    for track in sorted(tracks, key=lambda t: t.track_id):
        for i, obs in enumerate(track.observations):
            partial = Track(track.track_id, track.observations[: i + 1])
            try:
                motion = motion_vector(partial, fit_window)
                speed, bearing = motion.speed_mps, motion.bearing_deg
            except UndefinedMotionError:
                speed, bearing = None, None
            rows.append([track.track_id, format_time(obs.time),
                         obs.centroid_lat, obs.centroid_lon,
                         obs.pixel_count, obs.min_bt, speed, bearing])
    return _csv_text(TRACKS_HEADER, rows)


def warnings_csv(reports: Sequence[WarningReport]) -> str:
    rows = []
    for r in reports:
        ind = r.indicators
        rows.append([format_time(r.epoch), r.region, r.level.name, r.lead_time_s,
                     ";".join(r.triggered_rules), ind.deep_cloud_fraction,
                     ind.min_bt_K, ind.wind_cat.name, ind.max_rain_mmh,
                     ind.rain_persistence_h, ind.approach_s])
    return _csv_text(WARNINGS_HEADER, rows)


def read_warnings_csv(path) -> list[WarningReport]:
    """The reports of a warnings CSV; a bad cell fails as ``FILE:LINE: column: why``."""
    reports: list[WarningReport] = []
    for cell in _csv_rows(path, WARNINGS_HEADER, "warning"):
        ind = RegionIndicators(
            region=cell("region"),
            epoch=cell("epoch", parse_time),
            deep_cloud_fraction=cell("deep_cloud_fraction", float),
            min_bt_K=cell("min_bt", float, optional=True),
            wind_cat=cell("wind_cat", WindCategory.__getitem__),
            wind_no_observation=False,
            max_rain_mmh=cell("max_rain_mmh", float),
            rain_persistence_h=cell("rain_persistence_h", float),
            approach_s=cell("approach_s", int, optional=True),
            source_count={},
        )
        reports.append(
            WarningReport(
                region=ind.region,
                epoch=ind.epoch,
                level=cell("level", WarnLevel.__getitem__),
                lead_time_s=cell("lead_time_s", int, optional=True),
                triggered_rules=tuple(r for r in cell("triggered_rules").split(";") if r),
                indicators=ind,
            )
        )
    return reports


def rain_stats_csv(stats: Sequence[RainStats]) -> str:
    rows = [
        [s.region, format_time(s.window_start), format_time(s.window_end),
         s.max_rate_mmh, s.accum_mm, s.persistence_h, s.missing_fraction]
        for s in stats
    ]
    return _csv_text(RAIN_STATS_HEADER, rows)


def validation_csv(score: fm.ValidationScore, regions: Sequence[RegionBox]) -> str:
    rows = [
        [r.name, int(score.flooded[r.name]), int(score.warned[r.name]),
         score.outcomes[r.name]]
        for r in sorted(regions, key=lambda r: r.name)
    ]
    return _csv_text(VALIDATION_HEADER, rows)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_synth(args: argparse.Namespace) -> int:
    if args.paper_replay:
        spec = sc.paper_replay_spec()
    else:
        spec = sc.read_scenario(args.spec)
    out = Path(args.out_dir)
    # Each output's directory exists or is one out.mkdir makes, so a bad
    # path fails before any file is written.
    made = {out.resolve(), *out.resolve().parents}
    for path in filter(None, (args.regions_out, args.flood_truth_out)):
        parent = Path(path).parent
        if not parent.is_dir() and parent.resolve() not in made:
            raise FileNotFoundError(f"{path}: directory {parent} does not exist")
    data = sc.generate(spec, seed=args.seed)
    out.mkdir(parents=True, exist_ok=True)
    write_gsf(data.bt, out / "bt.gsf")
    write_gsf(data.rain, out / "rain.gsf")
    for name, stack in data.wind.items():
        write_gsf(stack, out / f"wind_{name}.gsf")
    if data.nrcs is not None:
        write_gsf(data.nrcs, out / "nrcs.gsf")
    sc.write_truth_csv(data.truth, out / "truth.csv")
    if args.regions_out:
        write_regions(spec.regions, args.regions_out)
    if args.flood_truth_out:
        grid = sc.truth_flood_grid(spec)
        write_gsf(GridStack([grid]), args.flood_truth_out)
    for note in data.truth.notices:
        print(f"note: {note}")
    return 0


def _read_stack(path, variable: Variable) -> GridStack:
    """The stack in ``path``, which must hold ``variable`` frames; every
    fault names the file."""
    try:
        stack = read_gsf(path)
    except GsfError as exc:
        raise GsfError(f"{path}: {exc}") from None
    if stack.variable is not variable:
        raise ValueError(f"{path}: expected {variable.value} frames, got {stack.variable.value}")
    return stack


def _detections_per_frame(bt_path, cfg: EngineConfig) -> list[Sequence[CSObject]]:
    """The detections of each observed frame of a BT stack (``convection._observed``)."""
    stack = _read_stack(bt_path, Variable.BT)
    return _observed(stack, [detect(f, cfg.t_deep, cfg.min_area_px) for f in stack])


def cmd_detect(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    frames = _detections_per_frame(args.bt, cfg)
    _write_atomic(args.out, objects_csv(frames))
    return 0


def cmd_track(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    frames = _detections_per_frame(args.bt, cfg)
    tracks = build_tracks(frames, cfg.max_gap_km)
    _write_atomic(args.out, tracks_csv(tracks, cfg.fit_window))
    return 0


def _load_fuse_inputs(data_dir, cfg: EngineConfig):
    """Read the stacks in a directory that fuse recognises by file name.

    bt.gsf (BT) and rain.gsf (RAIN_RATE) are taken directly; every
    wind_<name>.gsf (WIND_SPEED) becomes a wind source; nrcs.gsf (NRCS) is
    inverted through the configured GMF into a further wind source named
    "nrcs". A stack of another variable fails, naming its file. Any other
    file is not read; the ``.<name>.gsf.twin`` twin of a stack is read only
    for a stack read here, and a twin never ends in ``.gsf``. Every source
    is named before any file is read: an empty name or two files giving
    one name fail.
    """
    data_dir = Path(data_dir)
    paths: dict[str, Path] = {}
    wind: dict[str, Path] = {}
    for path in sorted(data_dir.glob("*.gsf")):
        if path.name in ("bt.gsf", "rain.gsf"):
            paths[path.stem] = path
        elif path.name == "nrcs.gsf" or path.name.startswith("wind_"):
            source = "nrcs" if path.name == "nrcs.gsf" else path.stem[len("wind_"):]
            if not source:
                raise ValueError(f"{data_dir}: {path.name} gives a wind source no name")
            if source in wind:
                raise ValueError(f"{data_dir}: {wind[source].name} and {path.name} "
                                 f"both give the wind source {source!r}")
            wind[source] = path
    if not paths and not wind:
        raise FileNotFoundError(f"no .gsf stacks found in {data_dir}")

    def wind_stack(path: Path) -> GridStack:
        if path.name != "nrcs.gsf":
            return _read_stack(path, Variable.WIND_SPEED)
        gmf = get_gmf(cfg.gmf)
        return GridStack([retrieve_wind_grid(f, NRCS_DEFAULT_GEOMETRY, gmf, v_max=cfg.v_max)
                          for f in _read_stack(path, Variable.NRCS)])

    bt, rain = (_read_stack(paths[k], variable) if k in paths else None
                for k, variable in (("bt", Variable.BT), ("rain", Variable.RAIN_RATE)))
    return bt, rain, {source: wind_stack(path) for source, path in wind.items()}


def cmd_fuse(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    regions = read_regions(args.regions)
    bt, rain, wind = _load_fuse_inputs(args.data_dir, cfg)

    engine = FusionEngine(
        regions,
        bt=bt,
        rain=rain,
        wind_speed=wind,
        t_deep=cfg.t_deep,
        min_area_px=cfg.min_area_px,
        bins=cfg.bins,
        rules=cfg.rules(),
        window_s=cfg.window_s,
        max_gap_km=cfg.max_gap_km,
        fit_window=cfg.fit_window,
    )
    stacks = [s for s in (bt, rain, *wind.values()) if s is not None]
    start = min(s[0].time for s in stacks)
    end = max(s[-1].time for s in stacks)
    reports = engine.run(start, end, cfg.epoch_s)
    _write_atomic(args.out, warnings_csv(reports))
    if args.rain_stats_out:
        stats = [r.indicators.rain_stats for r in reports if r.indicators.rain_stats is not None]
        _write_atomic(args.rain_stats_out, rain_stats_csv(stats))
    return 0


def _read_single_frame(path, variable: Variable) -> GeoGrid:
    stack = _read_stack(path, variable)
    if len(stack) != 1:
        raise ValueError(f"{path}: expected exactly one frame, got {len(stack)}")
    return stack[0]


def cmd_floodmap(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    flood = _read_single_frame(args.flood, Variable.NRCS)
    ref = _read_single_frame(args.ref, Variable.NRCS)
    ratio = fm.log_ratio_db(flood, ref)
    mask = fm.flood_mask(
        ratio,
        threshold_db=cfg.threshold_db,
        min_region_px=cfg.min_region_px,
        reference_time=ref.time,
    )
    write_gsf(GridStack([mask.grid]), args.out)
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    warnings = read_warnings_csv(args.warnings)
    grid = _read_single_frame(args.mask, Variable.FLOOD_MASK)
    mask = fm.FloodMask(grid=grid, flood_time=grid.time)
    regions = read_regions(args.regions)
    score = fm.validate(warnings, mask, regions, f_flood=cfg.f_flood)
    _write_atomic(args.out, validation_csv(score, regions))
    pod = "undefined" if score.pod is None else repr(score.pod)
    far = "undefined" if score.far is None else repr(score.far)
    print(
        f"hits={score.hits} misses={score.misses} false_alarms={score.false_alarms} "
        f"POD={pod} FAR={far}"
    )
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cswarn",
        description="Convective-system detection, tracking, and flood early warning.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic scenario")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--spec", help="scenario spec INI file")
    group.add_argument("--paper-replay", action="store_true",
                       help="use the built-in 24 h coastal squall case")
    p.add_argument("out_dir", help="output directory for GSF stacks + truth.csv")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--regions-out", help="also write the scenario regions file here")
    p.add_argument("--flood-truth-out", help="also write the truth flood mask (GSF) here")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("detect", help="detect convective objects per BT frame")
    p.add_argument("bt", help="BT stack (GSF)")
    p.add_argument("-o", "--out", required=True, help="objects CSV")
    p.add_argument("--config")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("track", help="track objects through a BT stack")
    p.add_argument("bt", help="BT stack (GSF)")
    p.add_argument("-o", "--out", required=True, help="tracks CSV")
    p.add_argument("--config")
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("fuse", help="fuse all sensors into per-region warnings")
    p.add_argument("data_dir", help="directory with bt.gsf, rain.gsf, wind_*.gsf, nrcs.gsf")
    p.add_argument("regions", help="regions file")
    p.add_argument("-o", "--out", required=True, help="warnings CSV")
    p.add_argument("--config")
    p.add_argument("--rain-stats-out", help="also write per-region rain stats CSV here")
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("floodmap", help="flood mask from flood + reference backscatter")
    p.add_argument("flood", help="post-event NRCS image (GSF, one frame)")
    p.add_argument("ref", help="pre-event reference NRCS image (GSF, one frame)")
    p.add_argument("-o", "--out", required=True, help="flood mask (GSF)")
    p.add_argument("--config")
    p.set_defaults(func=cmd_floodmap)

    p = sub.add_parser("validate", help="score warnings against a flood mask")
    p.add_argument("warnings", help="warnings CSV from fuse")
    p.add_argument("mask", help="flood mask (GSF)")
    p.add_argument("regions", help="regions file")
    p.add_argument("-o", "--out", required=True, help="validation CSV")
    p.add_argument("--config")
    p.set_defaults(func=cmd_validate)
    return parser


def _one_line(exc: Exception) -> str:
    return str(exc).replace("\n", " ")


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"cswarn {args.command}: config error: {_one_line(exc)}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"cswarn {args.command}: {_one_line(exc)}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
