"""One pass of each workload, its set-up, and the checks on its outputs.

Calls into ``cswarn`` go through module attributes (``convection.detect``,
not a name imported from it), so the tracer's rebinding reaches them.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from datetime import timedelta
from pathlib import Path

import numpy as np

from cswarn import cli, convection, floodmap, fusion, geogrid, scenario, tracking

import workloads as W

clock = time.perf_counter


@dataclass
class Outcome:
    """What one pass did: timings, counts of operations and failed checks."""

    timings: dict[str, float] = field(default_factory=dict)
    latencies: list[float] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    quality: dict[str, float | None] = field(default_factory=dict)
    epoch_digests: dict[str, str] = field(default_factory=dict)
    peak_rss_mb: float = 0.0

    def op(self, ok: bool = True, what: str = "") -> bool:
        """Count one operation (a pipeline step or an output check) and
        record it as failed unless ``ok``."""
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def to_json(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}

    @classmethod
    def from_json(cls, d: dict) -> "Outcome":
        return cls(**d)


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def reports_digest(reports) -> str:
    return hashlib.sha256(repr(reports).encode()).hexdigest()


def first_warning(reports) -> dict:
    """Region -> first epoch with a report at WARNING or above."""
    first: dict = {}
    for r in reports:
        if r.level >= fusion.WarnLevel.WARNING and r.region not in first:
            first[r.region] = r.epoch
    return first


def lead_min_s(intersections: dict, first: dict, outcomes: dict) -> float | None:
    """Minimum over hit regions the truth says were reached of contact minus
    first warning; None when there is no such region."""
    leads = [
        (intersections[name] - first[name]).total_seconds()
        for name, outcome in outcomes.items()
        if outcome == "hit" and name in intersections and name in first
    ]
    return min(leads) if leads else None


def score_quality(out: Outcome, score, intersections: dict, first: dict) -> None:
    out.quality = {
        "pod": score.pod,
        "far": score.far,
        "lead_min_s": lead_min_s(intersections, first, dict(score.outcomes)),
    }


# ---------------------------------------------------------------------------
# replay_cli
# ---------------------------------------------------------------------------

def replay_setup(ws: Path, size: str, seed: int) -> np.ndarray:
    """Fresh workspace plus the planted floodmap pair; returns the planted mask.

    The pre-event image is NRCS frame ``seed mod (n - 1)`` of the replay
    (any frame but the last, which is stamped at the scenario's end); the
    post-event image is the same frame with the truth-flooded cells
    darkened by FLOOD_DARKEN_DB, stamped at the scenario's end.
    """
    ws.mkdir(parents=True)
    (ws / "flood").mkdir()
    if size == "smoke":
        write_smoke_spec(ws)
    spec = W.replay_spec(size)
    data = scenario.generate(spec)
    pre = data.nrcs[seed % (len(data.nrcs) - 1)]
    planted = scenario.truth_flood_grid(spec).values == 1.0
    post_values = np.where(planted, pre.values * 10.0 ** (W.FLOOD_DARKEN_DB / 10.0), pre.values)
    post = pre.with_values(post_values, time=spec.end_time)
    geogrid.write_gsf(geogrid.GridStack([pre]), ws / "flood" / "pre.gsf")
    geogrid.write_gsf(geogrid.GridStack([post]), ws / "flood" / "post.gsf")
    return planted


def replay_commands(size: str) -> list[list[str]]:
    """The README walkthrough plus floodmap, as argv lists relative to the workspace."""
    synth = ["synth", "--paper-replay"] if size == "full" else ["synth", "--spec", "smoke.ini"]
    return [
        synth + ["out", "--regions-out", "out/regions.txt",
                 "--flood-truth-out", "out/flood_truth.gsf"],
        ["detect", "out/bt.gsf", "-o", "objects.csv"],
        ["track", "out/bt.gsf", "-o", "tracks.csv"],
        ["fuse", "out", "out/regions.txt", "-o", "warnings.csv",
         "--rain-stats-out", "rain_stats.csv"],
        ["floodmap", "flood/post.gsf", "flood/pre.gsf", "-o", "mask.gsf"],
        ["validate", "warnings.csv", "mask.gsf", "out/regions.txt", "-o", "validation.csv"],
    ]


def write_smoke_spec(ws: Path) -> None:
    """The smoke replay as a spec file: the replay's layout on a coarse grid."""
    spec = W.replay_spec("smoke")
    g = spec.geometry
    lines = ["[scenario]", f"lat_min = {g.lat_min}", f"lon_min = {g.lon_min}",
             f"dlat = {g.dlat}", f"dlon = {g.dlon}", f"nrows = {g.nrows}", f"ncols = {g.ncols}",
             f"start = {geogrid.format_time(spec.start_time)}", f"duration_s = {spec.duration_s}",
             f"flooded = {', '.join(sorted(spec.flooded_regions))}"]
    for c in spec.cells:
        lines += [f"[cell {c.name}]", f"lat = {c.lat}", f"lon = {c.lon}",
                  f"speed_mps = {c.speed_mps}", f"bearing_deg = {c.bearing_deg}",
                  f"min_bt = {c.min_bt_K}", f"radius_km = {c.radius_km}",
                  f"radius_ns_km = {c.radius_ns_km}", f"wind_peak = {c.wind_peak_mps}",
                  f"rain_peak = {c.rain_peak_mmh}"]
    for r in spec.regions:
        lines += [f"[region {r.name}]", f"lat_min = {r.lat_min}", f"lat_max = {r.lat_max}",
                  f"lon_min = {r.lon_min}", f"lon_max = {r.lon_max}"]
    (ws / "smoke.ini").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _on_alarm(signum, frame):
    raise TimeoutError


def _wait_child(proc: subprocess.Popen, deadline: float) -> tuple[int, float]:
    """Reap ``proc`` with its own resource usage; kill it past ``deadline``
    (a ``time.monotonic`` value). Returns (exit code, peak RSS in MB)."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, max(deadline - time.monotonic(), 0.01))
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except TimeoutError:
        proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def run_child(argv: list[str], cwd: Path, env: dict, log: Path, deadline: float) -> tuple[int, float, float]:
    """Run one child process to completion: (exit code, wall s, peak RSS MB)."""
    with open(log, "ab") as fh:
        t0 = clock()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=fh, stderr=subprocess.STDOUT)
        code, rss = _wait_child(proc, deadline)
        return code, clock() - t0, rss


def run_cli(ws: Path, argv: list[str], src: Path, deadline: float) -> tuple[int, float, float]:
    """One ``python -m cswarn.cli`` process in the workspace."""
    env = dict(os.environ, PYTHONPATH=str(src))
    return run_child([sys.executable, "-m", "cswarn.cli", *argv], ws, env, ws / "cli.log", deadline)


def replay_cli_pass(ws: Path, size: str, src: Path, deadline: float) -> Outcome:
    """The walkthrough as six ``python -m cswarn.cli`` processes, in order."""
    out = Outcome()
    t0 = clock()
    for argv in replay_commands(size):
        code, wall, rss = run_cli(ws, argv, src, deadline)
        out.timings[f"{argv[0]}_s"] = wall
        out.peak_rss_mb = max(out.peak_rss_mb, rss)
        if not out.op(code == 0, f"cswarn {argv[0]} exited {code}"):
            break
    out.timings["pipeline_s"] = clock() - t0
    return out


def replay_fuse_again(ws: Path, size: str, src: Path, deadline: float) -> Outcome:
    """``cswarn fuse`` once more on a finished walkthrough's inputs, with its
    outputs checked against the recorded digests."""
    out = Outcome()
    code, wall, _ = run_cli(ws, replay_commands(size)[3], src, deadline)
    out.timings["fuse_s"] = wall
    if out.op(code == 0, f"repeated cswarn fuse exited {code}"):
        for name in ("warnings.csv", "rain_stats.csv"):
            out.op(sha256_file(ws / name) == W.replay_digests(size)[name],
                   f"repeated fuse: {name} digest differs from the recorded one")
    return out


def replay_inproc_pass(ws: Path, size: str) -> Outcome:
    """The same walkthrough through in-process ``cli.main(argv)`` calls."""
    out = Outcome()
    cwd = os.getcwd()
    os.chdir(ws)
    try:
        t0 = clock()
        for argv in replay_commands(size):
            t = clock()
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            out.timings[f"{argv[0]}_s"] = clock() - t
            if not out.op(code == 0, f"cswarn {argv[0]} returned {code}"):
                break
        out.timings["pipeline_s"] = clock() - t0
    finally:
        os.chdir(cwd)
    return out


def check_replay(out: Outcome, ws: Path, size: str, planted: np.ndarray) -> None:
    """Digests, POD/FAR, the DN lead and the floodmap mask."""
    if out.failures:
        return
    for name, want in W.replay_digests(size).items():
        out.op(sha256_file(ws / name) == want, f"{name} digest differs from the recorded one")
    mask = geogrid.read_gsf(ws / "mask.gsf")[0].values == 1.0
    out.op(bool(np.array_equal(mask, planted)), "floodmap mask differs from the planted cells")

    truth = scenario.read_truth_csv(ws / "out" / "truth.csv")
    first = first_warning(cli.read_warnings_csv(ws / "warnings.csv"))
    with open(ws / "validation.csv", newline="", encoding="utf-8") as fh:
        outcomes = {row["region"]: row["outcome"] for row in csv.DictReader(fh)}
    hits = sum(o == "hit" for o in outcomes.values())
    misses = sum(o == "miss" for o in outcomes.values())
    false_alarms = sum(o == "false_alarm" for o in outcomes.values())
    pod = hits / (hits + misses) if hits + misses else None
    far = false_alarms / (hits + false_alarms) if hits + false_alarms else None
    out.quality = {"pod": pod, "far": far,
                   "lead_min_s": lead_min_s(dict(truth.intersections), first, outcomes)}
    out.op(pod == 1.0 and far == 0.0, f"replay POD={pod} FAR={far}, expected 1.0 and 0.0")
    region = W.REPLAY_LEAD_REGION
    lead = None
    if region in first and region in truth.intersections:
        lead = (truth.intersections[region] - first[region]).total_seconds()
    out.op(lead is not None and lead >= W.REPLAY_MIN_LEAD_S,
           f"{region} lead {lead} s, expected >= {W.REPLAY_MIN_LEAD_S} s")


# ---------------------------------------------------------------------------
# In-process workloads
# ---------------------------------------------------------------------------

def inproc_setup(workload: str, seed: int, size: str):
    """Layout + scenario generation: the inputs of one in-process pass."""
    lay = W.layout(workload, seed, size)
    data = scenario.generate(lay.spec, seed=seed)
    spec = lay.spec
    if lay.expected_reached is None:
        spec = W.with_reached_flooded(spec, data.truth)
    return lay, spec, data


def _time_range(stacks) -> tuple:
    start = min(s[0].time for s in stacks)
    end = max(s[-1].time for s in stacks)
    return start, end


def _validate(reports, spec):
    grid = scenario.truth_flood_grid(spec)
    mask = floodmap.FloodMask(grid=grid, flood_time=grid.time)
    return floodmap.validate(reports, mask, spec.regions)


def scaled_batch_pass(spec, data) -> tuple[Outcome, object, list]:
    """The CLI walkthrough minus files: detect, track, fuse, validate."""
    out = Outcome()
    t0 = clock()
    frames = [convection.detect(f) for f in data.bt]
    cli.objects_csv(frames)
    out.op()
    tracks = tracking.build_tracks(frames)
    cli.tracks_csv(tracks, W.FIT_WINDOW)
    out.op()

    tf = clock()
    engine = fusion.FusionEngine(spec.regions, bt=data.bt, rain=data.rain, wind_speed=data.wind)
    start, end = _time_range([data.bt, data.rain, *data.wind.values()])
    reports = engine.run(start, end, W.EPOCH_S)
    stats = []
    epoch = start
    while epoch <= end:
        for region in engine.regions:
            s = engine.rain_stats_at(epoch, region)
            if s is not None:
                stats.append(s)
        epoch += timedelta(seconds=W.EPOCH_S)
    cli.warnings_csv(reports)
    cli.rain_stats_csv(stats)
    out.timings["fuse_s"] = clock() - tf
    out.op()

    score = _validate(reports, spec)
    out.timings["pipeline_s"] = clock() - t0
    out.op()
    return out, score, reports


def check_scaled(out: Outcome, lay, data, score, reports) -> None:
    """POD, FAR and lead equal to what the truth record implies.

    The layout floods exactly the regions in a squall's path, so the truth
    record implies POD 1 and FAR 0; squalls are born at the start, so every
    reached region can be warned at the first epoch after the start, and the
    minimum lead is the earliest truth contact minus that epoch.
    """
    truth = data.truth
    reached = frozenset(truth.intersections)
    first = first_warning(reports)
    score_quality(out, score, dict(truth.intersections), first)
    out.op(reached == lay.expected_reached,
           f"truth reached {sorted(reached)}, layout expected {sorted(lay.expected_reached)}")
    flooded = truth.flooded
    want_pod = len(flooded & reached) / len(flooded)
    want_far = len(reached - flooded) / len(reached)
    first_epoch = lay.spec.start_time + timedelta(seconds=W.EPOCH_S)
    want_lead = min((truth.intersections[r] - first_epoch).total_seconds() for r in flooded & reached)
    q = out.quality
    out.op(q["pod"] == want_pod, f"pod {q['pod']} != {want_pod} from the truth record")
    out.op(q["far"] == want_far, f"far {q['far']} != {want_far} from the truth record")
    out.op(q["lead_min_s"] == want_lead,
           f"lead_min_s {q['lead_min_s']} != {want_lead} from the truth record")


def nowcast_history_s(spec) -> int:
    return W.WINDOW_S + W.FIT_WINDOW * spec.bt_cadence_s


def nowcast_epochs(spec, data) -> list:
    start = data.bt[0].time
    return [f.time for f in data.bt if (f.time - start).total_seconds() >= W.WINDOW_S]


def crowded_nowcast_pass(spec, data) -> Outcome:
    """At every new BT frame, build an engine on the trailing frames and
    issue that epoch's reports; then score all reports."""
    out = Outcome()
    hist = timedelta(seconds=nowcast_history_s(spec))
    t0 = clock()
    all_reports = []

    def window(stack, lo, hi):
        return geogrid.GridStack([f for f in stack if lo < f.time <= hi])

    for epoch in nowcast_epochs(spec, data):
        t = clock()
        lo = epoch - hist
        engine = fusion.FusionEngine(
            spec.regions,
            bt=window(data.bt, lo, epoch),
            rain=window(data.rain, lo, epoch),
            wind_speed={k: window(s, lo, epoch) for k, s in data.wind.items()},
        )
        reports = engine.run_epoch(epoch)
        out.latencies.append(clock() - t)
        out.op(len(reports) == len(spec.regions), f"epoch {epoch}: {len(reports)} reports")
        out.epoch_digests[epoch.isoformat()] = reports_digest(reports)
        all_reports.extend(reports)
    out.timings["fuse_s"] = sum(out.latencies)
    score = _validate(all_reports, spec)
    out.timings["pipeline_s"] = clock() - t0
    out.op()
    score_quality(out, score, dict(data.truth.intersections), first_warning(all_reports))
    return out


def nowcast_reference(spec, data) -> dict[str, str]:
    """Digest of the batch engine's ``run_epoch`` at every nowcast epoch."""
    engine = fusion.FusionEngine(spec.regions, bt=data.bt, rain=data.rain, wind_speed=data.wind)
    return {e.isoformat(): reports_digest(engine.run_epoch(e)) for e in nowcast_epochs(spec, data)}


def check_nowcast(out: Outcome, reference: dict[str, str]) -> None:
    for epoch, digest in out.epoch_digests.items():
        out.op(reference.get(epoch) == digest,
               f"nowcast epoch {epoch} reports differ from the batch engine's")
