"""The GSF writer formats the frames of a large multi-frame stack in forked
worker processes and writes them in order. Its bytes never depend on the
number of workers, a failed worker makes the write raise instead of hang,
and writes that cannot gain from a pool never start one."""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
import threading
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cswarn import cli, geogrid
from cswarn import scenario as sc
from cswarn.geogrid import DEFAULT_NODATA, GridStack, Variable, read_gsf, write_gsf

from conftest import T0, make_grid, make_stack
from oracles import gsf_text_loop
from test_cli import PIPELINE_SPEC, QUIET_SPEC

ROOT = Path(__file__).resolve().parent.parent
REAL_POOL = geogrid._writer_pool

# Values whose shortest repr is unusual: signed zero, subnormals, exponent
# forms at both ends, 17 significant digits; each only where it is valid.
SPECIAL = {
    Variable.BT: [100.0, 400.0, 273.15, 287.29999999999995, 199.99999999999997],
    Variable.RAIN_RATE: [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-05, 1e16, 0.1],
    Variable.RAIN_ACCUM: [0.0, -0.0, 1e-07, 1.5e17, 123456789.0, 0.30000000000000004],
    Variable.WIND_SPEED: [0.0, -0.0, 5e-324, 1e-05, 100.0, 33.333333333333336],
    Variable.NRCS: [5e-324, 1e-300, 1e-05, 1e16, 0.0001, 1.7976931348623157e308],
    Variable.FLOOD_MASK: [0.0, -0.0, 1.0],
    Variable.WIND_CAT: [0.0, -0.0, 1.0, 2.0, 3.0],
    Variable.LOG_RATIO: [0.0, -0.0, -5e-324, 1e-320, -1e22, 1e16, -3.0000000000000004],
}
RANGE = {
    Variable.BT: (100.0, 400.0), Variable.RAIN_RATE: (0.0, 200.0),
    Variable.RAIN_ACCUM: (0.0, 900.0), Variable.WIND_SPEED: (0.0, 100.0),
    Variable.NRCS: (1e-6, 2.0), Variable.LOG_RATIO: (-40.0, 40.0),
}


@st.composite
def stacks_of_every_variable(draw):
    """A stack of 2-7 frames of any variable: random values in its range
    (ranks and 0/1 for the masks), special values and nodata cells."""
    variable = draw(st.sampled_from(list(Variable)))
    nrows, ncols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    special = np.asarray(SPECIAL[variable])
    frames = []
    for _ in range(draw(st.integers(2, 7))):
        if variable in RANGE:
            values = rng.uniform(*RANGE[variable], size=(nrows, ncols))
        else:
            values = rng.choice(special, size=(nrows, ncols))
        pick = rng.uniform(size=(nrows, ncols))
        values = np.where(pick < 0.3, rng.choice(special, size=(nrows, ncols)), values)
        frames.append(np.where(pick > 0.85, DEFAULT_NODATA, values))
    return make_stack(frames, variable=variable, dt_s=600)


class CountingPool:
    """The real writer pool, counting the frames submitted to it and not
    yet taken back by the writer."""

    created: list["CountingPool"] = []

    def __init__(self, workers: int, stack: GridStack):
        self.workers = workers
        self.pool = REAL_POOL(workers, stack)
        self.in_flight = self.peak = 0
        CountingPool.created.append(self)

    def submit(self, fn, *args):
        future = self.pool.submit(fn, *args)
        self.in_flight += 1
        self.peak = max(self.peak, self.in_flight)
        return TakenFuture(self, future)

    def shutdown(self, **kwargs):
        self.pool.shutdown(**kwargs)


class TakenFuture:
    def __init__(self, pool: CountingPool, future):
        self.pool, self.future = pool, future

    def result(self):
        self.pool.in_flight -= 1
        return self.future.result()


def pooled_write(stack: GridStack, workers: int) -> tuple[bytes, list[CountingPool]]:
    """``write_gsf``'s bytes with ``workers`` usable CPUs, a pool allowed
    for any stack size, and the pools it started."""
    CountingPool.created = []
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
        mp.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)))
        mp.setattr(geogrid, "_POOL_MIN_VALUES", 0)
        mp.setattr(geogrid, "_writer_pool", CountingPool)
        path = Path(tmp) / "stack.gsf"
        write_gsf(stack, path)
        return path.read_bytes(), CountingPool.created


def raising_pool(workers, stack):
    raise AssertionError("no pool may be started for this write")


class TestBytesDoNotDependOnWorkers:
    @settings(max_examples=25, deadline=None)
    @given(stacks_of_every_variable())
    def test_written_bytes_equal_the_inline_frames_and_the_oracle(self, stack):
        inline = b"---\n".join(geogrid._frame_text(f) for f in stack)
        assert inline.decode("utf-8") == gsf_text_loop(stack)
        one, no_pools = pooled_write(stack, 1)
        two, pools = pooled_write(stack, 2)
        eight, wide = pooled_write(stack, 8)
        assert one == inline and two == inline and eight == inline
        assert no_pools == []
        # The pool and the frames in flight do not grow past two CPUs.
        assert len(pools) == len(wide) == 1
        for pool in pools + wide:
            assert pool.workers == 2
            assert pool.peak == min(len(stack), 4) and pool.in_flight == 0


def run_script(code: str, *args: str, timeout: float = 60.0) -> subprocess.CompletedProcess:
    """``code`` in a fresh interpreter with ``src`` and ``tests`` on the
    path; a hang fails the test instead of stalling the run."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")]))
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env=env, timeout=timeout)


# For each way a worker can fail (raise, or die through os._exit), with a
# formatter that fails on the BT frame stamped 00:30 (the fourth) and a
# pool allowed for any stack on two CPUs: the error write_gsf raises and
# the pool processes still alive after it, then the exit code, stderr and
# files left in its output directory of `cswarn synth`. Printed as JSON.
FAILING_WORKERS = """
import contextlib, io, json, multiprocessing, os, sys
import numpy as np
from conftest import make_stack
from cswarn import cli, geogrid
from cswarn.geogrid import Variable

real = geogrid._frame_text
how = None


def failing(grid):
    if grid.variable is Variable.BT and grid.time.strftime("%H:%M") == "00:30":
        if how == "raise":
            raise ValueError("bad frame")
        os._exit(3)
    return real(grid)


geogrid._frame_text = failing
geogrid._POOL_MIN_VALUES = 0
os.sched_getaffinity = lambda pid: {0, 1}
stack = make_stack([np.full((3, 4), 250.0 + i) for i in range(9)], variable=Variable.BT,
                   dt_s=600)
spec, root = sys.argv[1], sys.argv[2]
result = {}
for how in ("raise", "die"):
    try:
        geogrid.write_gsf(stack, os.path.join(root, how + ".gsf"))
        error = None
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
    alive = len(multiprocessing.active_children())
    out = os.path.join(root, how)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(["synth", "--spec", spec, out])
    result[how] = {"error": error, "alive": alive, "code": code, "stderr": err.getvalue(),
                   "left": sorted(os.listdir(out))}
print(json.dumps(result))
"""
# A dead worker is reported at the next submit or result, in two wordings.
WANT_ERROR = {"raise": "ValueError: bad frame", "die": "BrokenProcessPool: "}


class TestFailedWorkers:
    @pytest.fixture(scope="class")
    def outcomes(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("failing")
        spec = root / "s.ini"
        spec.write_text(PIPELINE_SPEC, encoding="utf-8")
        proc = run_script(FAILING_WORKERS, str(spec), str(root))
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    @pytest.mark.parametrize("how", sorted(WANT_ERROR))
    def test_write_raises_and_leaves_no_worker(self, outcomes, how):
        assert outcomes[how]["error"].startswith(WANT_ERROR[how])
        assert outcomes[how]["alive"] == 0

    @pytest.mark.parametrize("how", sorted(WANT_ERROR))
    def test_synth_exits_1_and_leaves_nothing_behind(self, outcomes, how):
        got = outcomes[how]
        assert got["code"] == 1
        assert got["stderr"].startswith("cswarn synth: ") and got["stderr"].count("\n") == 1
        assert got["left"] == []


class TestNoPoolWhereItCannotPay:
    @pytest.fixture
    def no_pool(self, monkeypatch):
        monkeypatch.setattr(geogrid, "_POOL_MIN_VALUES", 0)
        monkeypatch.setattr(geogrid, "_writer_pool", raising_pool)

    def test_single_frame_writes_format_inline(self, no_pool, tmp_path):
        """The truth flood mask and the benchmark's pre/post images, at the
        replay's size."""
        spec = sc.paper_replay_spec()
        rng = np.random.default_rng(0)
        nrcs = make_grid(rng.uniform(0.01, 0.2, size=(120, 140)), variable=Variable.NRCS)
        for grid in (sc.truth_flood_grid(spec), nrcs):
            write_gsf(GridStack([grid]), tmp_path / "one.gsf")
            assert (tmp_path / "one.gsf").read_text(encoding="utf-8") == gsf_text_loop(
                GridStack([grid]))

    def test_floodmap_mask_is_written_inline(self, no_pool, tmp_path):
        rng = np.random.default_rng(1)
        ref = make_grid(rng.uniform(0.05, 0.2, size=(120, 140)), variable=Variable.NRCS)
        flood = ref.with_values(np.where(np.arange(140) < 40, ref.values * 0.1, ref.values),
                                time=T0 + timedelta(hours=6))
        write_gsf(GridStack([ref]), tmp_path / "ref.gsf")
        write_gsf(GridStack([flood]), tmp_path / "flood.gsf")
        out = tmp_path / "mask.gsf"
        assert cli.main(["floodmap", str(tmp_path / "flood.gsf"), str(tmp_path / "ref.gsf"),
                         "-o", str(out)]) == 0
        assert read_gsf(out)[0].values.sum() == 120 * 40

    def test_small_stacks_format_inline(self, monkeypatch, tmp_path):
        monkeypatch.setattr(geogrid, "_writer_pool", raising_pool)
        spec = tmp_path / "s.ini"
        spec.write_text(QUIET_SPEC, encoding="utf-8")
        assert cli.main(["synth", "--spec", str(spec), str(tmp_path / "out"),
                         "--flood-truth-out", str(tmp_path / "truth.gsf")]) == 0
        assert len(read_gsf(tmp_path / "out" / "bt.gsf")) == 7

    def test_a_running_thread_keeps_the_write_inline(self, no_pool, tmp_path):
        """A forked child could inherit a lock another thread holds."""
        stack = make_stack([np.full((3, 4), 250.0 + i) for i in range(9)], variable=Variable.BT)
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(30,))
        other.start()
        try:
            write_gsf(stack, tmp_path / "bt.gsf")
        finally:
            release.set()
            other.join(30)
        assert not other.is_alive()
        assert (tmp_path / "bt.gsf").read_text(encoding="utf-8") == gsf_text_loop(stack)

    def test_one_usable_cpu_formats_inline(self, tmp_path):
        code = """
import os, sys
import numpy as np
from conftest import make_stack
from cswarn import geogrid
from cswarn.geogrid import Variable
from oracles import gsf_text_loop

def raising_pool(workers, stack):
    raise AssertionError("pool started")

os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
geogrid._POOL_MIN_VALUES = 0
geogrid._writer_pool = raising_pool
stack = make_stack([np.full((3, 4), 250.0 + i) for i in range(9)], variable=Variable.BT)
geogrid.write_gsf(stack, sys.argv[1])
with open(sys.argv[1], encoding="utf-8") as fh:
    print(fh.read() == gsf_text_loop(stack))
"""
        proc = run_script(code, str(tmp_path / "bt.gsf"))
        assert (proc.returncode, proc.stdout) == (0, "True\n"), proc.stderr


def test_synth_is_clean_under_dev_mode_and_warnings_as_errors(tmp_path):
    """An executor left open (``ResourceWarning``) or a fork while threads
    run (``DeprecationWarning`` from Python 3.12) fails the command."""
    spec = tmp_path / "s.ini"
    spec.write_text(PIPELINE_SPEC, encoding="utf-8")
    bt = sc.generate(sc.read_scenario(spec)).bt
    assert len(bt) * bt.geometry.nrows * bt.geometry.ncols >= geogrid._POOL_MIN_VALUES
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-X", "dev", "-m", "cswarn.cli", "synth",
         "--spec", str(spec), str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert read_gsf(tmp_path / "out" / "bt.gsf")[0].time == bt[0].time


def test_worker_code_refers_only_to_private_functions():
    """The benchmark's tracer wraps every public ``cswarn`` function; a
    worker that called one would run the wrapper in a forked copy of the
    tracer, whose spans are lost."""
    tree = ast.parse((ROOT / "src" / "cswarn" / "geogrid.py").read_text(encoding="utf-8"))
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    seen, todo = set(), ["_worker_frame_text"]
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo += [node.id for node in ast.walk(defs[name])
                     if isinstance(node, ast.Name) and node.id in defs]
    assert seen == {"_worker_frame_text", "_frame_text", "_header_lines", "_fmt"}
