"""Tests for the command-line pipeline: config handling, exit codes,
output files, and the synth -> detect/track -> fuse -> validate chain."""

from __future__ import annotations

import csv
import dataclasses
import inspect
import shutil
from datetime import timedelta

import numpy as np
import pytest

from cswarn import cli, convection, floodmap, fusion, precip, tracking, wind
from cswarn import scenario as sc
from cswarn.cli import (
    ConfigError,
    EngineConfig,
    OBJECTS_HEADER,
    RAIN_STATS_HEADER,
    TRACKS_HEADER,
    VALIDATION_HEADER,
    WARNINGS_HEADER,
    load_config,
    read_config,
    read_warnings_csv,
)
from cswarn.fusion import RuleSet, WarnLevel
from cswarn.geogrid import (
    GridGeometry,
    GridStack,
    Variable,
    _finite_float,
    parse_time,
    read_gsf,
    read_regions,
    write_gsf,
)

from conftest import make_grid

# A moving squall that crosses region W from the east, with flooding in W
# and a far-away quiet region NA.  Small enough to run the whole pipeline
# in well under a second.
PIPELINE_SPEC = """\
[scenario]
lat_min = 15
lon_min = 105
dlat = 0.05
dlon = 0.05
nrows = 60
ncols = 60
start = 2020-10-05T00:00:00Z
duration_s = 14400
flooded = W

[cell storm]
lat = 16.0
lon = 107.6
speed_mps = 8
bearing_deg = 270
min_bt = 190
radius_km = 45
wind_peak = 20
rain_peak = 14

[region W]
lat_min = 15.7
lat_max = 16.3
lon_min = 106.0
lon_max = 106.6

[region NA]
lat_min = 15.05
lat_max = 15.35
lon_min = 105.05
lon_max = 105.35
"""

QUIET_SPEC = """\
[scenario]
lat_min = 15
lon_min = 105
dlat = 0.05
dlon = 0.05
nrows = 20
ncols = 20
start = 2020-10-05T00:00:00Z
duration_s = 3600

[region Q]
lat_min = 15.2
lat_max = 15.6
lon_min = 105.2
lon_max = 105.6
"""


def read_rows(path) -> list[dict[str, str]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def first_line(path) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.readline().rstrip("\n")


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run the full CLI chain once; tests inspect the artifacts."""
    root = tmp_path_factory.mktemp("pipeline")
    spec = root / "scenario.ini"
    spec.write_text(PIPELINE_SPEC, encoding="utf-8")
    data = root / "data"
    regions = root / "regions.txt"
    flood = root / "flood_truth.gsf"
    assert cli.main([
        "synth", "--spec", str(spec), str(data),
        "--regions-out", str(regions), "--flood-truth-out", str(flood),
    ]) == 0

    objects = root / "objects.csv"
    assert cli.main(["detect", str(data / "bt.gsf"), "-o", str(objects)]) == 0
    tracks = root / "tracks.csv"
    assert cli.main(["track", str(data / "bt.gsf"), "-o", str(tracks)]) == 0
    warnings = root / "warnings.csv"
    rain_stats = root / "rain_stats.csv"
    assert cli.main([
        "fuse", str(data), str(regions), "-o", str(warnings),
        "--rain-stats-out", str(rain_stats),
    ]) == 0
    validation = root / "validation.csv"
    assert cli.main([
        "validate", str(warnings), str(flood), str(regions),
        "-o", str(validation),
    ]) == 0
    return {
        "root": root, "spec": spec, "data": data, "regions": regions,
        "flood": flood, "objects": objects, "tracks": tracks,
        "warnings": warnings, "rain_stats": rain_stats,
        "validation": validation,
    }


# ---------------------------------------------------------------------------
# Engine configuration
# ---------------------------------------------------------------------------

class TestConfig:
    def test_defaults_are_valid(self):
        cfg = load_config(None)
        assert cfg == EngineConfig()
        assert cfg.t_deep == 220.0
        assert cfg.bins == (5.0, 10.0, 15.0)

    def test_defaults_are_the_library_constants(self):
        assert dataclasses.asdict(EngineConfig()) == {
            "t_deep": convection.DEFAULT_T_DEEP_K,
            "min_area_px": convection.DEFAULT_MIN_AREA_PX,
            "gmf": "synth1",
            "v_max": wind.V_MAX_DEFAULT,
            "bins": wind.DEFAULT_BINS,
            "r_heavy": precip.R_HEAVY_DEFAULT_MMH,
            "persistence_h": RuleSet().min_persistence_h,
            "fraction": RuleSet().min_cloud_fraction,
            "epoch_s": fusion.DEFAULT_EPOCH_S,
            "window_s": fusion.DEFAULT_WINDOW_S,
            "threshold_db": floodmap.THRESHOLD_DB_DEFAULT,
            "min_region_px": floodmap.MIN_REGION_PX_DEFAULT,
            "f_flood": floodmap.F_FLOOD_DEFAULT,
            "max_gap_km": tracking.DEFAULT_MAX_GAP_KM,
            "fit_window": tracking.DEFAULT_FIT_WINDOW,
        }
        assert EngineConfig().rules() == RuleSet()
        engine = inspect.signature(fusion.FusionEngine).parameters
        assert engine["t_deep"].default == convection.DEFAULT_T_DEEP_K
        assert engine["min_area_px"].default == convection.DEFAULT_MIN_AREA_PX
        assert engine["bins"].default == wind.DEFAULT_BINS
        assert engine["max_gap_km"].default == tracking.DEFAULT_MAX_GAP_KM
        assert RuleSet().r_heavy_mmh == precip.R_HEAVY_DEFAULT_MMH

    def test_overrides_parse(self, tmp_path):
        path = tmp_path / "engine.ini"
        path.write_text(
            "[detection]\nt_deep = 210\nmin_area_px = 2\n"
            "[wind]\nbins = 4, 8, 12\n"
            "[fusion]\nwindow_s = 7200\n",
            encoding="utf-8",
        )
        cfg = read_config(path)
        assert cfg.t_deep == 210.0
        assert cfg.min_area_px == 2
        assert cfg.bins == (4.0, 8.0, 12.0)
        assert cfg.window_s == 7200
        assert cfg.r_heavy == 8.0  # untouched defaults survive

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("[volcano]\nx = 1\n", "unknown section"),
            ("[detection]\nbogus = 1\n", "unknown key"),
            ("[detection]\nt_deep = warm\n", "[detection] bad t_deep: could not convert"),
            ("[detection]\nt_deep = 500\n", "outside [100, 400]"),
            ("[detection]\nmin_area_px = 0\n", "must be >= 1"),
            ("[wind]\nbins = 5, 10\n", "bad bins: expected three comma-separated numbers, got 2"),
            ("[wind]\nbins = a, b, c\n", "bad bins: could not convert string to float: 'a'"),
            ("[wind]\nbins = 10, 5, 15\n", "increasing"),
            ("[wind]\ngmf = nosuch\n", "unknown GMF"),
            ("[wind]\nv_max = 0\n", "outside (0, 60]"),
            ("[rain]\nr_heavy = -1\n", "must be >= 0"),
            ("[fusion]\nfraction = 1.5\n", "outside [0, 1]"),
            ("[fusion]\nepoch_s = 0\n", "must be > 0"),
            ("[floodmap]\nf_flood = 0\n", "outside (0, 1]"),
            ("[floodmap]\nmin_region_px = 0\n", "must be >= 1"),
            ("[tracking]\nmax_gap_km = -5\n", "must be > 0"),
            ("[tracking]\nfit_window = 1\n", "must be >= 2"),
        ],
    )
    def test_rejects_bad_config(self, tmp_path, text, fragment):
        path = tmp_path / "engine.ini"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError, match=None) as err:
            read_config(path)
        assert fragment in str(err.value)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("text, message", [
        ("[detection]\nbogus = 1\n", "[detection] unknown keys: ['bogus']"),
        ("[detection]\nt_deep = warm\n",
         "[detection] bad t_deep: could not convert string to float: 'warm'"),
        ("[fusion]\nepoch_s = 1.5\n",
         "[fusion] bad epoch_s: invalid literal for int() with base 10: '1.5'"),
        ("[volcano]\nx = 1\n", "unknown section [volcano]"),
        ("[detection]\nt_deep = 500\n", "detection.t_deep 500.0 outside [100, 400] K"),
    ])
    def test_message_names_the_file_first(self, tmp_path, text, message):
        """Config faults read as scenario-spec faults do: file, section, key."""
        path = tmp_path / "engine.ini"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError) as err:
            read_config(path)
        assert str(err.value) == f"{path}: {message}"

    def test_malformed_ini_is_config_error(self, tmp_path):
        path = tmp_path / "engine.ini"
        path.write_text("not an ini at all\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            read_config(path)


# ---------------------------------------------------------------------------
# Exit codes and diagnostics
# ---------------------------------------------------------------------------

# A spec that sets every key of its sections that reads a float.
FULL_SPEC = {
    "scenario": {"lat_min": "15", "lon_min": "105", "dlat": "0.05", "dlon": "0.05",
                 "nrows": "20", "ncols": "20", "start": "2020-10-05T00:00:00Z",
                 "duration_s": "3600", "background_bt": "285", "noise_std": "0.5"},
    "cell s": {"lat": "15.5", "lon": "105.5", "speed_mps": "5", "bearing_deg": "270",
               "min_bt": "200", "radius_km": "15", "radius_ns_km": "25", "wind_peak": "18",
               "rain_peak": "9"},
    "region Q": {"lat_min": "15.2", "lat_max": "15.6", "lon_min": "105.2", "lon_max": "105.6"},
}
SPEC_FLOAT_KEYS = [
    ("scenario", k) for k in ("lat_min", "lon_min", "dlat", "dlon", "background_bt", "noise_std")
] + [
    ("cell s", k) for k in ("lat", "lon", "speed_mps", "bearing_deg", "min_bt", "radius_km",
                            "radius_ns_km", "wind_peak", "rain_peak")
] + [("region Q", k) for k in ("lat_min", "lat_max", "lon_min", "lon_max")]


def spec_text(sections, section=None, key=None, value=None) -> str:
    """``sections`` as INI text, with ``key`` of ``section`` set to ``value``."""
    return "".join(
        f"[{name}]\n" + "".join(f"{k} = {value if (name, k) == (section, key) else v}\n"
                                for k, v in keys.items()) + "\n"
        for name, keys in sections.items())


# Every (section, key) of the config whose parser reads floats.
CONFIG_FLOAT_KEYS = [(section, key) for section, keys in cli._CONFIG_SCHEMA.items()
                     for key, parse in keys.items() if parse in (_finite_float, cli._bins)]


class TestExitCodes:
    def test_config_error_is_2_and_writes_nothing(self, tmp_path, capsys):
        bad = tmp_path / "engine.ini"
        bad.write_text("[detection]\nt_deep = 500\n", encoding="utf-8")
        bt = tmp_path / "bt.gsf"
        bt.write_text("", encoding="utf-8")
        out = tmp_path / "objects.csv"
        code = cli.main(["detect", str(bt), "-o", str(out), "--config", str(bad)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("cswarn detect: config error:")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_every_float_field_has_a_non_finite_case(self):
        """The cases below are the schema's float parsers; they must be the
        config's float fields, so the test cannot shrink unnoticed."""
        floats = [f.name for f in dataclasses.fields(EngineConfig)
                  if f.type in ("float", "tuple[float, float, float]")]
        assert sorted(key for _, key in CONFIG_FLOAT_KEYS) == sorted(floats)
        assert len(CONFIG_FLOAT_KEYS) == 9

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("section, key", CONFIG_FLOAT_KEYS)
    def test_non_finite_float_is_2_and_writes_nothing(self, tmp_path, capsys, section, key,
                                                       value):
        bad = tmp_path / "engine.ini"
        text = f"5, 10, {value}" if key == "bins" else value
        bad.write_text(f"[{section}]\n{key} = {text}\n", encoding="utf-8")
        out = tmp_path / "objects.csv"
        code = cli.main(["detect", str(tmp_path / "bt.gsf"), "-o", str(out), "--config", str(bad)])
        assert code == 2
        assert capsys.readouterr().err == (f"cswarn detect: config error: {bad}: [{section}] "
                                           f"bad {key}: {value!r} is not a finite number\n")
        assert not out.exists()

    @pytest.mark.parametrize("content", [None, b"[rain]\nr_heavy = 8\xff\n"],
                             ids=["missing", "not UTF-8"])
    def test_unreadable_config_is_2_and_writes_nothing(self, tmp_path, capsys, content):
        bad = tmp_path / "engine.ini"
        if content is not None:
            bad.write_bytes(content)
        out = tmp_path / "objects.csv"
        code = cli.main(["detect", str(tmp_path / "bt.gsf"), "-o", str(out), "--config", str(bad)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("cswarn detect: config error:") and str(bad) in err
        assert err.count("\n") == 1
        assert not out.exists()

    def test_every_spec_float_key_has_a_non_finite_case(self):
        tables = {"scenario": sc._SCENARIO_KEYS, "cell s": sc._CELL_KEYS,
                  "region Q": sc._REGION_KEYS}
        parsed = {(section, key) for section, keys in tables.items()
                  for key, (_, parse) in keys.items() if parse is _finite_float}
        assert sorted(parsed) == sorted(SPEC_FLOAT_KEYS)
        assert len(SPEC_FLOAT_KEYS) == 6 + 9 + 4
        assert all(key in FULL_SPEC[section] for section, key in SPEC_FLOAT_KEYS)

    def test_full_spec_renders(self, tmp_path):
        spec = tmp_path / "s.ini"
        spec.write_text(spec_text(FULL_SPEC), encoding="utf-8")
        assert cli.main(["synth", "--spec", str(spec), str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("section, key", SPEC_FLOAT_KEYS)
    def test_non_finite_spec_value_is_1_and_writes_nothing(self, tmp_path, capsys, section,
                                                           key, value):
        """``lat = nan`` used to render a cloudless stack and exit 0."""
        spec = tmp_path / "s.ini"
        spec.write_text(spec_text(FULL_SPEC, section, key, value), encoding="utf-8")
        code = cli.main(["synth", "--spec", str(spec), str(tmp_path / "out"),
                         "--regions-out", str(tmp_path / "regions.txt")])
        assert code == 1
        assert capsys.readouterr().err == (f"cswarn synth: {spec}: [{section}] bad {key}: "
                                           f"{value!r} is not a finite number\n")
        assert [p.name for p in tmp_path.iterdir()] == ["s.ini"]

    @pytest.mark.parametrize("noise_std", ["0", "0.5"])
    def test_wind_peak_above_the_wind_speed_bound_is_1_and_writes_nothing(self, tmp_path, capsys,
                                                                          noise_std):
        """With no noise the first rendered wind grid used to fail with a
        message that named no file, section or key (``WIND_SPEED values
        outside [0, 100] m/s``); with noise the clip capped the peak at
        100 m/s and synth exited 0."""
        sections = {**FULL_SPEC, "scenario": {**FULL_SPEC["scenario"], "noise_std": noise_std}}
        spec = tmp_path / "s.ini"
        spec.write_text(spec_text(sections, "cell s", "wind_peak", "150"), encoding="utf-8")
        code = cli.main(["synth", "--spec", str(spec), str(tmp_path / "out"),
                         "--regions-out", str(tmp_path / "regions.txt")])
        assert code == 1
        assert capsys.readouterr().err == (f"cswarn synth: {spec}: [cell s] cell s: wind peak "
                                           f"must be <= 100 m/s\n")
        assert [p.name for p in tmp_path.iterdir()] == ["s.ini"]

    def test_wind_peak_at_the_wind_speed_bound_renders(self, tmp_path):
        spec = tmp_path / "s.ini"
        spec.write_text(spec_text(FULL_SPEC, "cell s", "wind_peak", "100"), encoding="utf-8")
        assert cli.main(["synth", "--spec", str(spec), str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("kind", ["gsf", "regions", "config", "spec", "warnings"])
    def test_byte_that_is_not_utf8_names_the_file_and_line(self, tmp_path, pipeline, capsys,
                                                           kind):
        """Before, the regions file, the scenario spec and the warnings CSV
        reported only the codec's position (``can't decode byte 0xff in
        position 16``)."""
        if kind == "gsf":
            source = pipeline["data"] / "bt.gsf"
        elif kind == "warnings":
            source = pipeline["warnings"]
        elif kind == "regions":
            source = pipeline["regions"]
        elif kind == "config":
            source = tmp_path / "engine.ini"
            source.write_text("[rain]\nr_heavy = 8\n", encoding="utf-8")
        else:
            source = pipeline["spec"]
        lines = source.read_bytes().split(b"\n")
        lines[1] += b"\xff"
        bad = tmp_path / f"bad.{kind}"
        bad.write_bytes(b"\n".join(lines))
        out = tmp_path / "out"
        argv = {
            "gsf": ["detect", str(bad), "-o", str(out)],
            "regions": ["validate", str(pipeline["warnings"]), str(pipeline["flood"]), str(bad),
                        "-o", str(out)],
            "config": ["detect", str(pipeline["data"] / "bt.gsf"), "-o", str(out),
                       "--config", str(bad)],
            "spec": ["synth", "--spec", str(bad), str(out)],
            "warnings": ["validate", str(bad), str(pipeline["flood"]), str(pipeline["regions"]),
                         "-o", str(out)],
        }[kind]
        assert cli.main(argv) == (2 if kind == "config" else 1)
        prefix = "config error: " if kind == "config" else ""
        assert capsys.readouterr().err == (f"cswarn {argv[0]}: {prefix}{bad}: line 2: byte 0xff "
                                           f"is not UTF-8 (invalid start byte)\n")
        assert not out.exists()

    @pytest.mark.parametrize("text", ["[DEFAULT]\nt_deep = 500\n",
                                      "[DEFAULT]\nt_deep = 200\n[detection]\nmin_area_px = 4\n"])
    def test_config_key_in_default_is_2(self, tmp_path, capsys, text):
        """A lone [DEFAULT] with ``t_deep = 500`` used to run on the default
        220 K; next to [detection] it silently set ``detection.t_deep``."""
        bad = tmp_path / "engine.ini"
        bad.write_text(text, encoding="utf-8")
        out = tmp_path / "objects.csv"
        code = cli.main(["detect", str(tmp_path / "bt.gsf"), "-o", str(out), "--config", str(bad)])
        assert code == 2
        assert capsys.readouterr().err == (f"cswarn detect: config error: {bad}: [DEFAULT] "
                                           f"may hold no keys, got ['t_deep']\n")
        assert not out.exists()

    def test_spec_key_in_default_is_1(self, tmp_path, capsys):
        spec = tmp_path / "s.ini"
        spec.write_text("[DEFAULT]\nnoise_std = 0.5\n" + QUIET_SPEC, encoding="utf-8")
        code = cli.main(["synth", "--spec", str(spec), str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == (f"cswarn synth: {spec}: [DEFAULT] may hold no keys, "
                                           f"got ['noise_std']\n")
        assert [p.name for p in tmp_path.iterdir()] == ["s.ini"]

    @pytest.mark.parametrize("sources, name", [("lr:1800, nrcs:1800", "nrcs"),
                                               ("lr:1800, :1800", ""), ("lr:1800, a/b:1800", "a/b")])
    def test_wind_source_fuse_cannot_read_back_is_1_and_writes_nothing(self, tmp_path, capsys,
                                                                       sources, name):
        """``nrcs`` clashed with nrcs.gsf and an empty name wrote wind_.gsf,
        both of which fuse rejects; ``a/b`` failed only after bt.gsf, rain.gsf
        and wind_lr.gsf were written."""
        spec = tmp_path / "s.ini"
        spec.write_text(QUIET_SPEC.replace("duration_s = 3600\n",
                                           f"duration_s = 3600\nwind_sources = {sources}\n"),
                        encoding="utf-8")
        code = cli.main(["synth", "--spec", str(spec), str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == (f"cswarn synth: {spec}: [scenario] bad wind source "
                                           f"name {name!r}: empty, 'nrcs' or a path\n")
        assert [p.name for p in tmp_path.iterdir()] == ["s.ini"]

    def test_empty_default_section_is_read(self, tmp_path):
        ok = tmp_path / "engine.ini"
        ok.write_text("[DEFAULT]\n[detection]\nt_deep = 210\n", encoding="utf-8")
        assert cli.read_config(ok).t_deep == 210.0

    def test_missing_input_is_1(self, tmp_path, capsys):
        out = tmp_path / "objects.csv"
        code = cli.main(["detect", str(tmp_path / "nope.gsf"), "-o", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("cswarn detect:")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_bad_scenario_key_is_1(self, tmp_path, capsys):
        spec = tmp_path / "s.ini"
        spec.write_text(QUIET_SPEC + "\n[scenario2]\nx = 1\n", encoding="utf-8")
        code = cli.main(["synth", "--spec", str(spec), str(tmp_path / "out")])
        assert code == 1
        assert "cswarn synth:" in capsys.readouterr().err

    def test_zero_duration_is_1(self, tmp_path, capsys):
        spec = tmp_path / "s.ini"
        spec.write_text(
            QUIET_SPEC.replace("duration_s = 3600", "duration_s = 0"),
            encoding="utf-8",
        )
        code = cli.main(["synth", "--spec", str(spec), str(tmp_path / "out")])
        assert code == 1
        assert "duration_s" in capsys.readouterr().err

    def test_unexpected_failure_is_one_line_and_1(self, tmp_path, capsys):
        spec = tmp_path / "s.ini"
        spec.write_text(QUIET_SPEC + "\n[scenario]\nnrows = 3\n", encoding="utf-8")
        code = cli.main(["synth", "--spec", str(spec), str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("cswarn synth:") and "already exists" in err
        assert err.count("\n") == 1

    def test_multi_line_config_error_is_one_line(self, tmp_path, capsys):
        bad = tmp_path / "engine.ini"
        bad.write_text("not an ini at all\n", encoding="utf-8")
        bt = tmp_path / "bt.gsf"
        bt.write_text("", encoding="utf-8")
        code = cli.main(["detect", str(bt), "-o", str(tmp_path / "o.csv"), "--config", str(bad)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("cswarn detect: config error:") and "no section headers" in err
        assert err.count("\n") == 1

    def test_wrong_variable_is_1(self, tmp_path, pipeline, capsys):
        out = tmp_path / "objects.csv"
        code = cli.main(
            ["detect", str(pipeline["data"] / "rain.gsf"), "-o", str(out)]
        )
        assert code == 1
        assert "expected BT frames" in capsys.readouterr().err
        assert not out.exists()

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        assert "synth" in capsys.readouterr().out

    def test_no_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

class TestSynth:
    def test_paper_replay_writes_five_files(self, tmp_path):
        out = tmp_path / "replay"
        assert cli.main(["synth", "--paper-replay", str(out)]) == 0
        names = sorted(p.name for p in out.iterdir())
        stacks = ["bt.gsf", "nrcs.gsf", "rain.gsf", "wind_lr.gsf"]
        assert names == sorted([*stacks, "truth.csv", *(f".{name}.twin" for name in stacks)])

    def test_same_seed_same_bytes(self, tmp_path):
        spec = tmp_path / "s.ini"
        spec.write_text(
            PIPELINE_SPEC.replace("[cell storm]", "noise_std = 0.4\n\n[cell storm]"),
            encoding="utf-8",
        )
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["synth", "--spec", str(spec), str(a), "--seed", "7"]) == 0
        assert cli.main(["synth", "--spec", str(spec), str(b), "--seed", "7"]) == 0
        files = sorted(p.name for p in a.iterdir())
        assert files == sorted(p.name for p in b.iterdir())
        for name in files:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_different_seed_changes_noisy_bt(self, tmp_path):
        spec = tmp_path / "s.ini"
        spec.write_text(
            PIPELINE_SPEC.replace("[cell storm]", "noise_std = 0.4\n\n[cell storm]"),
            encoding="utf-8",
        )
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["synth", "--spec", str(spec), str(a), "--seed", "7"]) == 0
        assert cli.main(["synth", "--spec", str(spec), str(b), "--seed", "8"]) == 0
        assert (a / "bt.gsf").read_bytes() != (b / "bt.gsf").read_bytes()

    def test_regions_and_flood_truth_outputs(self, pipeline):
        regions = read_regions(pipeline["regions"])
        assert sorted(r.name for r in regions) == ["NA", "W"]
        stack = read_gsf(pipeline["flood"])
        assert stack.variable is Variable.FLOOD_MASK
        assert len(stack) == 1
        assert float(stack[0].values.max()) == 1.0

    def test_no_temp_files_left_behind(self, pipeline):
        stray = [p for p in pipeline["data"].iterdir() if ".tmp" in p.name]
        assert stray == []

    def test_failed_write_leaves_directory_unchanged(self, tmp_path):
        target = tmp_path / "out.csv"
        target.write_text("old\n", encoding="utf-8")

        def failing_writer(path):
            path.write_text("partial", encoding="utf-8")
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            cli._write_atomic(target, failing_writer)
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
        assert target.read_text(encoding="utf-8") == "old\n"

    @pytest.mark.parametrize("name", ["my box", "A#1"])
    def test_region_name_a_regions_file_cannot_carry_is_1_before_any_output(self, tmp_path,
                                                                           capsys, name):
        spec = tmp_path / "s.ini"
        spec.write_text(QUIET_SPEC.replace("[region Q]", f"[region {name}]"), encoding="utf-8")
        code = cli.main(["synth", "--spec", str(spec), str(tmp_path / "out"),
                         "--regions-out", str(tmp_path / "regions.txt")])
        assert code == 1
        assert capsys.readouterr().err == (f"cswarn synth: {spec}: [region {name}] region name "
                                           f"{name!r} cannot hold whitespace or '#'\n")
        assert [p.name for p in tmp_path.iterdir()] == ["s.ini"]

    @pytest.mark.parametrize("flag,name", [("--regions-out", "regions.txt"),
                                           ("--flood-truth-out", "t.gsf")])
    def test_output_in_a_missing_directory_is_1_and_writes_nothing(self, tmp_path, capsys,
                                                                    flag, name):
        """Every stack used to be written first; the write into the missing
        directory then failed, naming its temp file."""
        spec = tmp_path / "s.ini"
        spec.write_text(QUIET_SPEC, encoding="utf-8")
        target = tmp_path / "nodir" / name
        code = cli.main(["synth", "--spec", str(spec), str(tmp_path / "out"), flag, str(target)])
        assert code == 1
        assert capsys.readouterr().err == (f"cswarn synth: {target}: directory "
                                           f"{target.parent} does not exist\n")
        assert [p.name for p in tmp_path.iterdir()] == ["s.ini"]

    def test_outputs_in_the_directory_synth_makes_are_written(self, tmp_path):
        spec = tmp_path / "s.ini"
        spec.write_text(QUIET_SPEC, encoding="utf-8")
        out = tmp_path / "a" / "out"
        assert cli.main(["synth", "--spec", str(spec), str(out), "--regions-out",
                         str(out / "regions.txt"), "--flood-truth-out",
                         str(tmp_path / "a" / "t.gsf")]) == 0
        assert (out / "regions.txt").is_file() and (tmp_path / "a" / "t.gsf").is_file()

    def test_exit_notice_printed(self, tmp_path, capsys):
        spec = tmp_path / "s.ini"
        spec.write_text(
            QUIET_SPEC
            + "\n[cell runner]\nlat = 15.5\nlon = 105.1\n"
            "speed_mps = 25\nbearing_deg = 270\nradius_km = 15\n",
            encoding="utf-8",
        )
        assert cli.main(["synth", "--spec", str(spec), str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        assert "note:" in out and "left the grid" in out


# ---------------------------------------------------------------------------
# detect / track
# ---------------------------------------------------------------------------

class TestDetectTrack:
    def test_objects_csv_header_and_coverage(self, pipeline):
        assert first_line(pipeline["objects"]) == ",".join(OBJECTS_HEADER)
        rows = read_rows(pipeline["objects"])
        stack = read_gsf(pipeline["data"] / "bt.gsf")
        times = {row["time"] for row in rows}
        # The storm lives for the whole run, so every frame detects it.
        assert len(times) == len(stack)
        for row in rows:
            assert int(row["pixel_count"]) >= 4
            assert float(row["min_bt"]) < 220.0

    def test_tracks_csv_recovers_motion(self, pipeline):
        assert first_line(pipeline["tracks"]) == ",".join(TRACKS_HEADER)
        rows = read_rows(pipeline["tracks"])
        assert {row["track_id"] for row in rows} == {"1"}
        # Motion is undefined on the first observation, then settles onto
        # the configured 8 m/s westward drift.
        assert rows[0]["speed_mps"] == ""
        last = rows[-1]
        assert float(last["speed_mps"]) == pytest.approx(8.0, rel=0.05)
        assert float(last["bearing_deg"]) == pytest.approx(270.0, abs=5.0)

    @pytest.mark.parametrize("k", [1, 12, -2])
    def test_blank_bt_frame_is_a_dropped_frame(self, tmp_path, pipeline, k):
        """A frame with no finite cell used to end the storm's one track."""
        frames = list(read_gsf(pipeline["data"] / "bt.gsf"))
        k %= len(frames)
        blank = frames[k].with_values(np.full(frames[k].values.shape, frames[k].nodata))
        write_gsf(GridStack([*frames[:k], blank, *frames[k + 1:]]), tmp_path / "blank.gsf")
        write_gsf(GridStack(frames[:k] + frames[k + 1:]), tmp_path / "dropped.gsf")
        for name in ("blank", "dropped"):
            for command in ("track", "detect"):
                assert cli.main([command, str(tmp_path / f"{name}.gsf"),
                                 "-o", str(tmp_path / f"{name}_{command}.csv")]) == 0
        for command in ("track", "detect"):
            assert ((tmp_path / f"blank_{command}.csv").read_bytes()
                    == (tmp_path / f"dropped_{command}.csv").read_bytes())
        assert {row["track_id"] for row in read_rows(tmp_path / "blank_track.csv")} == {"1"}


# ---------------------------------------------------------------------------
# fuse / validate
# ---------------------------------------------------------------------------

class TestFuseValidate:
    def test_warnings_header_and_reach_warning(self, pipeline):
        assert first_line(pipeline["warnings"]) == ",".join(WARNINGS_HEADER)
        reports = read_warnings_csv(pipeline["warnings"])
        best: dict[str, WarnLevel] = {}
        for r in reports:
            best[r.region] = max(best.get(r.region, WarnLevel.NONE), r.level)
        assert best["W"] >= WarnLevel.WARNING
        assert best["NA"] is WarnLevel.NONE

    def test_warning_precedes_arrival(self, pipeline):
        """The squall is warned before its deep cloud reaches region W."""
        truth_rows = read_rows(pipeline["data"] / "truth.csv")
        arrivals = [
            parse_time(row["time"])
            for row in truth_rows
            if row["record"] == "intersection" and row["name"] == "W"
        ]
        assert arrivals, "scenario truth must record the W intersection"
        reports = read_warnings_csv(pipeline["warnings"])
        warned = [
            r.epoch for r in reports
            if r.region == "W" and r.level >= WarnLevel.WARNING
        ]
        assert warned and min(warned) <= min(arrivals)

    def test_rain_stats_output(self, pipeline):
        assert first_line(pipeline["rain_stats"]) == ",".join(RAIN_STATS_HEADER)
        rows = read_rows(pipeline["rain_stats"])
        assert {row["region"] for row in rows} == {"W", "NA"}
        peak = max(float(row["max_rate_mmh"]) for row in rows)
        assert peak >= 8.0
        for row in rows:
            assert 0.0 <= float(row["missing_fraction"]) <= 1.0

    def test_validation_scores_perfect(self, pipeline, capsys):
        code = cli.main([
            "validate", str(pipeline["warnings"]), str(pipeline["flood"]),
            str(pipeline["regions"]), "-o", str(pipeline["validation"]),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "POD=1.0" in out and "FAR=0.0" in out
        assert first_line(pipeline["validation"]) == ",".join(VALIDATION_HEADER)
        rows = {row["region"]: row for row in read_rows(pipeline["validation"])}
        assert rows["W"]["outcome"] == "hit"
        assert rows["NA"]["outcome"] == "quiet"

    @pytest.mark.parametrize("command", ["validate", "fuse"])
    def test_repeated_region_name_is_1_and_writes_nothing(self, tmp_path, pipeline, capsys,
                                                          command):
        """A second box named W, elsewhere, used to be scored as its own W."""
        regions = tmp_path / "regions.txt"
        regions.write_text("W 15.7 16.3 106.0 106.6\nNA 15.05 15.35 105.05 105.35\n"
                           "W 15.05 15.35 105.4 105.7\n", encoding="utf-8")
        out = tmp_path / "out"
        out.mkdir()
        if command == "validate":
            argv = ["validate", str(pipeline["warnings"]), str(pipeline["flood"]), str(regions),
                    "-o", str(out / "validation.csv")]
        else:
            argv = ["fuse", str(pipeline["data"]), str(regions), "-o", str(out / "warnings.csv"),
                    "--rain-stats-out", str(out / "rain_stats.csv")]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == (f"cswarn {command}: {regions}:3: region 'W' is "
                                           f"already named on line 1\n")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("box", ["A 16.0 15.0 107.0 108.0", "A nan 16.0 107.0 108.0",
                                     "A 15.0 16.0 108.0 107.0"])
    @pytest.mark.parametrize("command", ["validate", "fuse"])
    def test_rejected_region_box_names_its_line_and_writes_nothing(self, tmp_path, pipeline,
                                                                   capsys, command, box):
        regions = tmp_path / "regions.txt"
        regions.write_text(f"W 15.7 16.3 106.0 106.6\n{box}\n", encoding="utf-8")
        out = tmp_path / "out"
        out.mkdir()
        if command == "validate":
            argv = ["validate", str(pipeline["warnings"]), str(pipeline["flood"]), str(regions),
                    "-o", str(out / "validation.csv")]
        else:
            argv = ["fuse", str(pipeline["data"]), str(regions), "-o", str(out / "warnings.csv")]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        bound = "lon" if box.endswith("107.0") else "lat"
        assert err == f"cswarn {command}: {regions}:2: region 'A': {bound}_min must be < {bound}_max\n"
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("target,source,variable", [
        ("bt.gsf", "rain.gsf", "BT"), ("rain.gsf", "bt.gsf", "RAIN_RATE"),
        ("wind_lr.gsf", "rain.gsf", "WIND_SPEED"), ("nrcs.gsf", "rain.gsf", "NRCS"),
    ])
    def test_stack_of_the_wrong_variable_names_its_file(self, tmp_path, pipeline, capsys,
                                                         target, source, variable):
        """These failed in the first function to see the stack, which named
        no file: ``convective_mask needs a BT grid, got RAIN_RATE``."""
        data = tmp_path / "data"
        shutil.copytree(pipeline["data"], data)
        shutil.copy(pipeline["data"] / source, data / target)
        got = read_gsf(data / source).variable.value
        out = tmp_path / "out"
        out.mkdir()
        assert cli.main(["fuse", str(data), str(pipeline["regions"]), "-o", str(out / "w.csv"),
                         "--rain-stats-out", str(out / "r.csv")]) == 1
        assert capsys.readouterr().err == (f"cswarn fuse: {data / target}: expected {variable} "
                                           f"frames, got {got}\n")
        assert list(out.iterdir()) == []

    def test_warnings_round_trip(self, pipeline):
        reports = read_warnings_csv(pipeline["warnings"])
        text = cli.warnings_csv(reports)
        assert text == pipeline["warnings"].read_text(encoding="utf-8")

    def test_bad_warning_header_is_1(self, tmp_path, pipeline, capsys):
        bad = tmp_path / "warnings.csv"
        bad.write_text("epoch,region\n", encoding="utf-8")
        code = cli.main([
            "validate", str(bad), str(pipeline["flood"]),
            str(pipeline["regions"]), "-o", str(tmp_path / "v.csv"),
        ])
        assert code == 1
        assert "unexpected warning columns" in capsys.readouterr().err

    @pytest.mark.parametrize("column, value, why", [
        ("level", "HIGH", "unknown name 'HIGH'"),
        ("wind_cat", "GALE", "unknown name 'GALE'"),
        ("deep_cloud_fraction", "abc", "could not convert string to float: 'abc'"),
        ("lead_time_s", "1.5", "invalid literal for int() with base 10: '1.5'"),
        ("epoch", "yesterday", "bad timestamp 'yesterday': Invalid isoformat string: "
                               "'yesterday'"),
    ])
    def test_bad_warning_cell_names_file_line_and_column(self, tmp_path, pipeline, capsys,
                                                         column, value, why):
        """A bad level used to read only ``cswarn validate: 'HIGH'``."""
        rows = read_rows(pipeline["warnings"])
        rows[1][column] = value
        bad = tmp_path / "warnings.csv"
        with open(bad, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, WARNINGS_HEADER, lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
        out = tmp_path / "validation.csv"
        code = cli.main(["validate", str(bad), str(pipeline["flood"]), str(pipeline["regions"]),
                         "-o", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"cswarn validate: {bad}:3: {column}: {why}\n"
        assert not out.exists()

    @pytest.mark.parametrize("line", ["2020-10-05T00:00:00Z,W,NONE", "a,b,c,d,e,f,g,h,i,j,k,l"])
    def test_row_of_the_wrong_width_names_file_and_line(self, tmp_path, line):
        bad = tmp_path / "warnings.csv"
        bad.write_text(",".join(WARNINGS_HEADER) + "\n" + line + "\n", encoding="utf-8")
        with pytest.raises(ValueError) as err:
            read_warnings_csv(bad)
        assert str(err.value) == f"{bad}:2: expected {len(WARNINGS_HEADER)} columns"

    def test_quiet_scenario_all_none(self, tmp_path):
        spec = tmp_path / "s.ini"
        spec.write_text(QUIET_SPEC, encoding="utf-8")
        data = tmp_path / "data"
        regions = tmp_path / "regions.txt"
        assert cli.main([
            "synth", "--spec", str(spec), str(data), "--regions-out", str(regions),
        ]) == 0
        warnings = tmp_path / "warnings.csv"
        assert cli.main(["fuse", str(data), str(regions), "-o", str(warnings)]) == 0
        reports = read_warnings_csv(warnings)
        assert reports and all(r.level is WarnLevel.NONE for r in reports)

    def test_region_off_the_grids_is_unobserved(self, tmp_path, pipeline):
        regions = tmp_path / "regions.txt"
        regions.write_text(
            pipeline["regions"].read_text(encoding="utf-8") + "OFF 40.0 41.0 60.0 61.0\n",
            encoding="utf-8",
        )
        warnings = tmp_path / "warnings.csv"
        rain_stats = tmp_path / "rain_stats.csv"
        assert cli.main([
            "fuse", str(pipeline["data"]), str(regions), "-o", str(warnings),
            "--rain-stats-out", str(rain_stats),
        ]) == 0
        rows = read_rows(warnings)
        off = [row for row in rows if row["region"] == "OFF"]
        assert off and all(row["level"] == "NONE" for row in off)
        assert [row for row in rows if row["region"] != "OFF"] == read_rows(pipeline["warnings"])
        assert read_rows(rain_stats) == read_rows(pipeline["rain_stats"])

    def test_dropped_rain_frame_is_not_observed(self, tmp_path, pipeline):
        data = tmp_path / "data"
        shutil.copytree(pipeline["data"], data)
        rain = read_gsf(data / "rain.gsf")
        gap = rain[4].time
        write_gsf(GridStack([f for f in rain if f.time != gap]), data / "rain.gsf")
        warnings = tmp_path / "warnings.csv"
        rain_stats = tmp_path / "rain_stats.csv"
        assert cli.main([
            "fuse", str(data), str(pipeline["regions"]), "-o", str(warnings),
            "--rain-stats-out", str(rain_stats),
        ]) == 0
        window_s = EngineConfig().window_s

        def misses_gap(epoch):
            epoch = parse_time(epoch)
            return not (epoch - timedelta(seconds=window_s) < gap <= epoch)

        for name, epoch_key in (("warnings", "epoch"), ("rain_stats", "window_end")):
            before = read_rows(pipeline[name])
            after = read_rows(tmp_path / f"{name}.csv")
            assert len(after) == len(before)
            kept = [row for row in before if misses_gap(row[epoch_key])]
            assert kept and kept == [row for row in after if misses_gap(row[epoch_key])]

    def test_one_frame_rain_stack_is_not_observed(self, tmp_path, pipeline):
        data = tmp_path / "data"
        shutil.copytree(pipeline["data"], data)
        rain = read_gsf(data / "rain.gsf")
        write_gsf(GridStack([rain[3]]), data / "rain.gsf")
        warnings = tmp_path / "warnings.csv"
        rain_stats = tmp_path / "rain_stats.csv"
        assert cli.main([
            "fuse", str(data), str(pipeline["regions"]), "-o", str(warnings),
            "--rain-stats-out", str(rain_stats),
        ]) == 0
        assert rain_stats.read_text(encoding="utf-8").splitlines() == [",".join(RAIN_STATS_HEADER)]
        rows = read_rows(warnings)
        assert len(rows) == len(read_rows(pipeline["warnings"]))
        for row in rows:
            assert float(row["max_rain_mmh"]) == 0.0
            assert float(row["rain_persistence_h"]) == 0.0

    def test_unrecognised_gsf_is_not_read(self, tmp_path, pipeline):
        data = tmp_path / "data"
        shutil.copytree(pipeline["data"], data)
        (data / "extra.gsf").write_text("not a grid stack\n", encoding="utf-8")
        warnings = tmp_path / "warnings.csv"
        assert cli.main(["fuse", str(data), str(pipeline["regions"]), "-o", str(warnings)]) == 0
        assert warnings.read_bytes() == pipeline["warnings"].read_bytes()

    @pytest.mark.parametrize(
        "extra,named",
        [("wind_nrcs.gsf", ["nrcs.gsf and wind_nrcs.gsf", "'nrcs'"]), ("wind_.gsf", ["wind_.gsf"])],
        ids=["nrcs_twice", "empty_name"],
    )
    def test_bad_wind_source_name_is_1_before_any_read(self, tmp_path, pipeline, monkeypatch,
                                                        capsys, extra, named):
        data = tmp_path / "data"
        shutil.copytree(pipeline["data"], data)
        assert (data / "nrcs.gsf").exists()
        shutil.copy(data / "wind_lr.gsf", data / extra)
        reads = []
        monkeypatch.setattr(cli, "read_gsf", reads.append)
        out = tmp_path / "out" / "warnings.csv"
        out.parent.mkdir()
        code = cli.main(["fuse", str(data), str(pipeline["regions"]), "-o", str(out),
                         "--rain-stats-out", str(out.parent / "rain.csv")])
        err = capsys.readouterr().err
        assert code == 1
        assert reads == []
        assert list(out.parent.iterdir()) == []
        assert err.startswith("cswarn fuse: ") and err.count("\n") == 1
        assert all(fragment in err for fragment in named)

    def test_empty_data_dir_is_1(self, tmp_path, pipeline, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        code = cli.main([
            "fuse", str(empty), str(pipeline["regions"]),
            "-o", str(tmp_path / "w.csv"),
        ])
        assert code == 1
        assert "no .gsf stacks" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# floodmap
# ---------------------------------------------------------------------------

GEOM_16 = GridGeometry(lat_min=10.0, lon_min=20.0, dlat=0.1, dlon=0.1,
                       nrows=16, ncols=16)


class TestFloodmapCommand:
    def write_pair(self, tmp_path):
        ref_vals = np.full((16, 16), 0.02)
        flood_vals = ref_vals.copy()
        flood_vals[5:9, 5:9] *= 10 ** (-0.5)  # a -5 dB drop over 16 cells
        t0 = parse_time("2020-10-05T00:00:00Z")
        t1 = parse_time("2020-10-06T00:00:00Z")
        ref = make_grid(ref_vals, Variable.NRCS, geometry=GEOM_16, time=t0)
        flood = make_grid(flood_vals, Variable.NRCS, geometry=GEOM_16, time=t1)
        ref_path = tmp_path / "ref.gsf"
        flood_path = tmp_path / "flood.gsf"
        write_gsf(GridStack([ref]), ref_path)
        write_gsf(GridStack([flood]), flood_path)
        return flood_path, ref_path

    def test_masks_the_dropout_block(self, tmp_path):
        flood_path, ref_path = self.write_pair(tmp_path)
        out = tmp_path / "mask.gsf"
        code = cli.main(
            ["floodmap", str(flood_path), str(ref_path), "-o", str(out)]
        )
        assert code == 0
        stack = read_gsf(out)
        assert stack.variable is Variable.FLOOD_MASK
        expected = np.zeros((16, 16))
        expected[5:9, 5:9] = 1.0
        assert np.array_equal(stack[0].values, expected)

    @pytest.mark.parametrize("flood, ref", [(1e300, 1e-10), (1e-300, 1e30), (5e-324, 1.7e308)])
    def test_pair_past_the_double_range_is_0(self, tmp_path, flood, ref):
        """Valid NRCS grids whose quotient overflows or underflows used to
        exit 1 ("grid values must be finite") or map an infinite drop."""
        t0 = parse_time("2020-10-05T00:00:00Z")
        paths = []
        for name, value, time in (("flood", flood, t0 + timedelta(days=1)), ("ref", ref, t0)):
            grid = make_grid(np.full((16, 16), value), Variable.NRCS, geometry=GEOM_16, time=time)
            paths.append(tmp_path / f"{name}.gsf")
            write_gsf(GridStack([grid]), paths[-1])
        out = tmp_path / "mask.gsf"
        assert cli.main(["floodmap", *map(str, paths), "-o", str(out)]) == 0
        assert np.all(read_gsf(out)[0].values == (1.0 if flood < ref else 0.0))

    def test_multi_frame_input_is_1(self, tmp_path, capsys):
        flood_path, ref_path = self.write_pair(tmp_path)
        t0 = parse_time("2020-10-05T00:00:00Z")
        t1 = parse_time("2020-10-06T00:00:00Z")
        two = GridStack([
            make_grid(np.full((16, 16), 0.02), Variable.NRCS,
                      geometry=GEOM_16, time=t0),
            make_grid(np.full((16, 16), 0.02), Variable.NRCS,
                      geometry=GEOM_16, time=t1),
        ])
        two_path = tmp_path / "two.gsf"
        write_gsf(two, two_path)
        code = cli.main(
            ["floodmap", str(two_path), str(ref_path), "-o", str(tmp_path / "m.gsf")]
        )
        assert code == 1
        assert "exactly one frame" in capsys.readouterr().err
