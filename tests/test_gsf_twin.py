"""The binary twin ``write_gsf`` leaves next to a GSF text. A read through
the twin equals the text parsed, field by field and bit for bit; a twin
that does not describe the text as it is now is never used, so the text
decides every read's result or its error."""

from __future__ import annotations

import errno
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cswarn import cli, geogrid
from cswarn.geogrid import (
    DEFAULT_NODATA,
    GridGeometry,
    GridStack,
    GsfError,
    Variable,
    parse_gsf,
    read_gsf,
    write_gsf,
)

from conftest import T0, make_grid, make_stack

ROOT = Path(__file__).resolve().parent.parent


def text_route(path) -> GridStack:
    """The reference: the text parsed, with no twin involved."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_gsf(fh)


def outcome(read, path):
    """Every field of every frame ``read(path)`` gives, values as their bits,
    with the pattern of shared geometry objects; or its GsfError text."""
    try:
        stack = read(path)
    except GsfError as exc:
        return str(exc)
    geometries = [f.geometry for f in stack]
    return [(f.variable, f.units, f.time, repr(f.nodata), repr(f.geometry),
             next(j for j, g in enumerate(geometries) if g is f.geometry),
             f.values.dtype.str, f.values.flags.writeable, f.values.shape,
             f.values.view(np.uint64).tolist())
            for f in stack]


@st.composite
def twin_stacks(draw):
    """1-6 frames of one variable with nodata cells, -0.0 cells where they
    are valid or nodata, units that JSON escapes, values in C or Fortran
    order, and lat/lon minima that may be 0.0 in one frame and -0.0 in the
    next."""
    variable = draw(st.sampled_from([Variable.BT, Variable.RAIN_RATE, Variable.LOG_RATIO,
                                     Variable.FLOOD_MASK]))
    nodata = draw(st.sampled_from([DEFAULT_NODATA, 0.0, -0.0, 1.0]))
    units = draw(st.sampled_from(["K", "mm/h", "µm é", "a=b", ""]))
    nrows, ncols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    zero_origin = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    frames, previous = [], None
    for i in range(draw(st.integers(1, 6))):
        if variable is Variable.BT:
            values = rng.uniform(150.0, 350.0, size=(nrows, ncols))
        elif variable is Variable.FLOOD_MASK:
            values = rng.integers(0, 2, size=(nrows, ncols)).astype(float)
        else:
            values = rng.uniform(0.0, 40.0, size=(nrows, ncols))
        pick = rng.uniform(size=(nrows, ncols))
        if variable is not Variable.BT or nodata == 0.0:
            values[pick < 0.2] = -0.0
        values[pick > 0.85] = nodata
        if draw(st.booleans()):
            values = np.asfortranarray(values)
        if zero_origin:
            lat_min, lon_min = draw(st.sampled_from([0.0, -0.0])), draw(st.sampled_from([0.0, -0.0]))
        else:
            lat_min, lon_min = 10.0, 20.0
        geometry = GridGeometry(lat_min=lat_min, lon_min=lon_min, dlat=0.25, dlon=0.5,
                                nrows=nrows, ncols=ncols)
        if previous is not None and repr(previous) == repr(geometry) and draw(st.booleans()):
            geometry = previous
        frames.append(make_grid(values, variable=variable, geometry=geometry, units=units,
                                nodata=nodata, time=T0 + timedelta(seconds=600 * i)))
        previous = geometry
    return GridStack(frames)


def random_bt_stack(seed: int, nframes: int = 4) -> GridStack:
    rng = np.random.default_rng(seed)
    return make_stack([rng.uniform(180.0, 300.0, size=(6, 7)) for _ in range(nframes)],
                      variable=Variable.BT, dt_s=600)


@pytest.fixture
def written(tmp_path):
    """A four-frame BT stack written with its twin; returns the text path."""
    path = tmp_path / "bt.gsf"
    write_gsf(random_bt_stack(1), path)
    assert geogrid._twin_path(path).exists()
    return path


class TestTwinOracle:
    @settings(max_examples=80, deadline=None)
    @given(twin_stacks())
    def test_twin_read_equals_the_text_parsed(self, stack):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "stack.gsf"
            write_gsf(stack, path)
            assert sorted(p.name for p in Path(tmp).iterdir()) == [".stack.gsf.twin", "stack.gsf"]
            assert geogrid._read_twin(path) is not None
            want = outcome(text_route, path)
            assert outcome(geogrid._read_twin, path) == want
            assert outcome(read_gsf, path) == want

    def test_read_through_the_twin_does_not_parse_the_text(self, written, monkeypatch):
        want = outcome(text_route, written)

        def forbidden(lines):
            raise AssertionError("the text was parsed")

        monkeypatch.setattr(geogrid, "parse_gsf", forbidden)
        assert outcome(read_gsf, written) == want

    def test_twin_bytes_follow_the_format(self, written):
        stack = text_route(written)
        raw = geogrid._twin_path(written).read_bytes()
        line, _, payload = raw.partition(b"\n")
        meta = json.loads(line)
        text = written.read_text(encoding="utf-8")
        assert meta["format"] == geogrid._TWIN_FORMAT
        assert meta["sha256"] == hashlib.sha256(written.read_bytes()).hexdigest()
        assert meta["frames"] == [frame.split("\n")[1:11] for frame in text.split("---\n")]
        assert payload == b"".join(f.values.astype("<f8").tobytes(order="C") for f in stack)


class TestTextChangedAfterWriting:
    @pytest.mark.parametrize("new", ["250.0", "2.5e2", "251.25", "250.00000000000003"])
    def test_an_edited_value_is_read_from_the_text(self, written, new):
        text = written.read_text(encoding="utf-8")
        lines = text.split("\n")
        toks = lines[12].split(" ")
        toks[3] = new
        lines[12] = " ".join(toks)
        written.write_text("\n".join(lines), encoding="utf-8")
        assert geogrid._read_twin(written) is None
        back = read_gsf(written)
        assert back[0].values[1, 3] == float(new)
        assert outcome(read_gsf, written) == outcome(text_route, written)

    def test_a_text_made_invalid_gives_the_text_error(self, written):
        lines = written.read_text(encoding="utf-8").split("\n")
        lines[11] = "x" + lines[11][lines[11].index(" "):]
        written.write_text("\n".join(lines), encoding="utf-8")
        want = outcome(text_route, written)
        assert want == "line 12: bad value: could not convert string to float: 'x'"
        assert outcome(read_gsf, written) == want

    def test_a_text_swapped_for_another_stacks_is_read(self, written, tmp_path):
        other = tmp_path / "other.gsf"
        write_gsf(random_bt_stack(2, nframes=3), other)
        shutil.copyfile(other, written)
        back = read_gsf(written)
        assert len(back) == 3
        assert outcome(read_gsf, written) == outcome(text_route, written) == outcome(read_gsf, other)

    def test_the_text_restored_uses_the_twin_again(self, written):
        original = written.read_bytes()
        written.write_bytes(original.replace(b"GSF1", b"GSF2", 1))
        assert geogrid._read_twin(written) is None
        written.write_bytes(original)
        assert geogrid._read_twin(written) is not None


def damage(kind: str, raw: bytes) -> bytes:
    line, _, payload = raw.partition(b"\n")
    meta = json.loads(line)
    if kind == "truncated":
        return raw[:-8]
    if kind == "trailing":
        return raw + b"\0" * 8
    if kind == "bad_json":
        return b"{\"format\": \n" + payload
    if kind == "deep_json":  # json raises RecursionError, not a ValueError
        return b"[" * 100_000 + b"\n" + payload
    if kind == "wrong_tag":
        meta["format"] = "cswarn-gsf-twin/0"
    elif kind == "frame_missing":
        meta["frames"].pop()
    elif kind == "not_a_dict":
        return b"[1, 2]\n" + payload
    elif kind == "header_not_text":
        meta["frames"][0][3] = 6
    elif kind == "bad_value":  # valid framing, a BT value far out of range
        return line + b"\n" + np.float64(5.0).tobytes() + payload[8:]
    elif kind == "empty":
        return b""
    return json.dumps(meta).encode("ascii") + b"\n" + payload


DAMAGES = ["truncated", "trailing", "bad_json", "deep_json", "wrong_tag", "frame_missing", "not_a_dict",
           "header_not_text", "bad_value", "empty"]


class TestDamagedTwin:
    @pytest.mark.parametrize("kind", DAMAGES)
    def test_a_damaged_twin_gives_the_text_result(self, written, kind):
        twin = geogrid._twin_path(written)
        twin.write_bytes(damage(kind, twin.read_bytes()))
        assert geogrid._read_twin(written) is None
        assert outcome(read_gsf, written) == outcome(text_route, written)
        assert len(read_gsf(written)) == 4

    @pytest.mark.parametrize("kind", DAMAGES)
    def test_a_damaged_twin_of_a_bad_text_gives_the_text_error(self, written, kind):
        twin = geogrid._twin_path(written)
        twin.write_bytes(damage(kind, twin.read_bytes()))
        written.write_text(written.read_text(encoding="utf-8").replace("nrows=6", "nrows=5", 1),
                           encoding="utf-8")
        with pytest.raises(GsfError) as exc:
            read_gsf(written)
        assert str(exc.value) == outcome(text_route, written)
        assert str(exc.value) == "line 1: payload error: expected 5 data lines, got 6"

    def test_a_missing_twin_reads_the_text(self, written):
        geogrid._twin_path(written).unlink()
        assert outcome(read_gsf, written) == outcome(text_route, written)

    def test_a_twin_is_never_read_as_a_stack(self, written):
        with pytest.raises(GsfError, match="is not UTF-8"):
            read_gsf(geogrid._twin_path(written))


class TestFailedWrite:
    def test_a_failing_twin_write_keeps_the_previous_pair(self, written, monkeypatch):
        before = {p.name: p.read_bytes() for p in written.parent.iterdir()}
        want = outcome(read_gsf, written)

        def disk_full(*args, **kwargs):
            raise OSError(errno.ENOSPC, "No space left on device")

        with monkeypatch.context() as mp:
            mp.setattr(geogrid.json, "dumps", disk_full)
            with pytest.raises(OSError, match="No space left"):
                write_gsf(random_bt_stack(9), written)
        assert {p.name: p.read_bytes() for p in written.parent.iterdir()} == before
        assert geogrid._read_twin(written) is not None
        assert outcome(read_gsf, written) == want

    def test_a_failing_text_write_leaves_the_previous_pair(self, written, monkeypatch):
        before = {p.name: p.read_bytes() for p in written.parent.iterdir()}

        def failing(grid):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(geogrid, "_frame_text", failing)
        with pytest.raises(OSError, match="No space left"):
            write_gsf(random_bt_stack(9), written)
        assert {p.name: p.read_bytes() for p in written.parent.iterdir()} == before


def run_walkthrough(root: Path, data: Path) -> dict[str, bytes]:
    """detect, track, fuse and validate on ``data``; their CSVs' bytes."""
    for argv in (["detect", str(data / "bt.gsf"), "-o", str(root / "objects.csv")],
                 ["track", str(data / "bt.gsf"), "-o", str(root / "tracks.csv")],
                 ["fuse", str(data), str(data / "regions.txt"), "-o", str(root / "warnings.csv"),
                  "--rain-stats-out", str(root / "rain_stats.csv")],
                 ["validate", str(root / "warnings.csv"), str(data / "flood_truth.gsf"),
                  str(data / "regions.txt"), "-o", str(root / "validation.csv")]):
        assert cli.main(argv) == 0, argv
    return {p.name: p.read_bytes() for p in sorted(root.glob("*.csv"))}


def test_replay_walkthrough_is_byte_identical_without_twins(tmp_path, monkeypatch, capsys):
    twins = tmp_path / "twins"
    data = twins / "out"
    assert cli.main(["synth", "--paper-replay", str(data), "--regions-out",
                     str(data / "regions.txt"), "--flood-truth-out",
                     str(data / "flood_truth.gsf")]) == 0
    text = tmp_path / "text"
    shutil.copytree(data, text / "out", ignore=shutil.ignore_patterns("*.twin"))
    assert not list((text / "out").glob(".*"))

    parsed = []
    real_parse = geogrid.parse_gsf
    monkeypatch.setattr(geogrid, "parse_gsf", lambda lines: parsed.append(1) or real_parse(lines))
    from_twins = run_walkthrough(twins, data)
    assert parsed == []
    from_text = run_walkthrough(text, text / "out")
    assert len(parsed) == 7  # bt for detect and track, four stacks for fuse, the mask
    assert list(from_twins) == ["objects.csv", "rain_stats.csv", "tracks.csv", "validation.csv",
                                "warnings.csv"]
    assert from_twins == from_text
    capsys.readouterr()


def test_cli_import_loads_no_hashlib_or_pool_modules():
    """They load on first use: hashlib alone adds about 3.5 MB of RSS."""
    code = ("import sys, cswarn.cli; "
            "print(sorted(m for m in ('hashlib', 'multiprocessing', 'concurrent.futures') "
            "if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
