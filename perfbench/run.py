"""cswarn benchmark: one workload, one seed, end-to-end or traced.

    python3 perfbench/run.py --workload replay_cli --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the package runs from ``src/``.
Workloads (see workloads.py): ``replay_cli``, ``scaled_batch``,
``crowded_nowcast``. ``--size smoke`` runs a tiny version of each that
emits every metric and runs every output check in a few seconds.

Load is closed loop and sequential from this one process: passes run one
after another until the next would end past ``--seconds`` (at least one
pass). ``replay_cli`` runs each command as a child process; the other
workloads run each pass in a fresh worker process, so peak RSS is the
pass's own and not the harness's.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the same
passes with every ``cswarn`` call traced (replay_cli through in-process
``cli.main``) next to untraced ones, and reports the per-layer metrics,
the per-layer self-time table and the tracing overhead.

Stdout is a human-readable report whose last line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. The full record (all
metrics, checks, environment and workload stamp) goes to
``.bench_out/<workload>/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

HARD_LIMIT_S = 170.0   # every child is killed past this point of the run
MIN_SETUPS = 5         # replay_cli set-ups per run, for a median

END_TO_END = {
    "setup_s": "s", "pipeline_s": "s", "synth_s": "s", "fuse_s": "s",
    "warn_latency_p50_s": "s", "warn_latency_tail_s": "s", "peak_rss_mb": "MB",
    "pod": "ratio", "far": "ratio", "lead_min_s": "s",
}


def median(values):
    return statistics.median(values) if values else None


# ---------------------------------------------------------------------------
# Environment stamp
# ---------------------------------------------------------------------------

def _cache_sizes() -> dict[str, int]:
    try:
        text = subprocess.run(["getconf", "-a"], capture_output=True, text=True,
                              timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        return {}
    sizes = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0].endswith("CACHE_SIZE") and parts[1].isdigit():
            sizes[parts[0]] = int(parts[1])
    return sizes


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "cswarn").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def env_stamp(seed: int) -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cache_bytes": _cache_sizes(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

class Clock:
    """The run's measuring window and its hard limit."""

    def __init__(self, seconds: float):
        self.t0 = time.monotonic()
        self.seconds = seconds
        self.hard_deadline = self.t0 + HARD_LIMIT_S

    def another_fits(self, pass_walls: list[float]) -> bool:
        return time.monotonic() - self.t0 + median(pass_walls) <= self.seconds


def tail_percentile(samples: list[float]) -> tuple[int, float]:
    """Highest whole percentile with at least ten samples above it, and its
    nearest-rank value."""
    xs = sorted(samples)
    n = len(xs)
    p = max(0, int(100 * (n - 10) // n)) if n > 10 else 0
    rank = max(1, -(-p * n // 100))  # ceil(p * n / 100)
    return p, xs[rank - 1]


def run_replay(args, clock: Clock, work: Path, outdir: Path) -> dict:
    import passes as P
    import tracing as T

    setups, outs, walls = [], [], []

    def setup(name: str):
        ws = work / name
        t = time.perf_counter()
        planted = P.replay_setup(ws, args.size, args.seed)
        setups.append(time.perf_counter() - t)
        return ws, planted

    result: dict = {}
    if not args.trace:
        while True:
            t = time.perf_counter()
            ws, planted = setup(f"pass{len(outs)}")
            out = P.replay_cli_pass(ws, args.size, SRC, clock.hard_deadline)
            P.check_replay(out, ws, args.size, planted)
            outs.append(out)
            walls.append(time.perf_counter() - t)
            if not clock.another_fits(walls):
                break
            shutil.rmtree(ws)
        # A pass takes about a third of the window; the rest of it repeats
        # the fuse step on the last pass's inputs, for more fuse_s samples.
        passes = list(outs)
        fuses = [o.timings["fuse_s"] for o in outs if "fuse_s" in o.timings]
        while fuses and not outs[-1].failures and clock.another_fits(fuses):
            outs.append(P.replay_fuse_again(ws, args.size, SRC, clock.hard_deadline))
            fuses.append(outs[-1].timings["fuse_s"])
        shutil.rmtree(ws)
        while len(setups) < MIN_SETUPS:
            ws, _ = setup(f"setup{len(setups)}")
            shutil.rmtree(ws)
        result["end_to_end"] = {
            "setup_s": median(setups),
            "pipeline_s": median([o.timings["pipeline_s"] for o in passes]),
            "synth_s": median([o.timings.get("synth_s", 0.0) for o in passes]),
            "fuse_s": median(fuses),
            "peak_rss_mb": median([o.peak_rss_mb for o in passes]),
        }
        result["quality"] = passes[-1].quality
    else:
        ws, planted = setup("processes")
        procs = P.replay_cli_pass(ws, args.size, SRC, clock.hard_deadline)
        P.check_replay(procs, ws, args.size, planted)
        shutil.rmtree(ws)
        ws, planted = setup("inproc")
        plain = P.replay_inproc_pass(ws, args.size)
        P.check_replay(plain, ws, args.size, planted)
        shutil.rmtree(ws)
        ws, planted = setup("traced")
        tracer = T.Tracer()
        tracer.install()
        try:
            traced = P.replay_inproc_pass(ws, args.size)
        finally:
            tracer.uninstall()
        P.check_replay(traced, ws, args.size, planted)
        shutil.rmtree(ws)
        outs = [procs, plain, traced]
        result["quality"] = traced.quality
        startup = sum(procs.timings.get(f"{c}_s", 0.0) - plain.timings.get(f"{c}_s", 0.0)
                      for c in T.CLI_COMMANDS)
        layers = T.layer_metrics(tracer.spans, startup_s=startup)
        t_pass = tracer.spans[0][2] if tracer.spans else 0.0
        tracer.write_spans(outdir / "spans.jsonl", t_pass)
        traced_s = traced.timings["pipeline_s"]
        result.update(
            layers=layers,
            layer_table=T.layer_table(tracer.spans, traced_s, t_pass),
            overhead={"traced_pipeline_s": traced_s,
                      "untraced_pipeline_s": plain.timings["pipeline_s"],
                      "process_pipeline_s": procs.timings["pipeline_s"]},
            load_checks={"geogrid_io_share_of_pipeline": T.geogrid_io_s(layers) / traced_s},
        )
    result["outcomes"] = outs
    return result


def run_worker(args, clock: Clock, work: Path, outdir: Path, traced: bool):
    import passes as P

    work.mkdir(parents=True, exist_ok=True)
    log = work / f"worker{'-traced' if traced else ''}.out"
    log.unlink(missing_ok=True)
    argv = [sys.executable, str(HERE / "worker.py"), args.workload, str(args.seed),
            args.size, "1" if traced else "0", str(outdir)]
    code, wall, rss = P.run_child(argv, ROOT, dict(os.environ), log, clock.hard_deadline)
    lines = log.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    results = [line for line in lines if line.startswith("{")]
    if code != 0 or not results:
        out = P.Outcome()
        out.op(False, f"worker exited {code}: {lines[-1] if lines else ''}")
        return None, out, wall
    res = json.loads(results[-1])
    out = P.Outcome.from_json(res["outcome"])
    out.peak_rss_mb = rss
    return res, out, wall


def run_inproc(args, clock: Clock, work: Path, outdir: Path) -> dict:
    import passes as P
    import tracing as T

    plain, traced, walls = [], [], []
    while True:
        t = time.perf_counter()
        plain.append(run_worker(args, clock, work, outdir, traced=False))
        if args.trace:
            traced.append(run_worker(args, clock, work, outdir, traced=True))
        walls.append(time.perf_counter() - t)
        if not clock.another_fits(walls):
            break
    runs = plain + traced
    outs = [out for _, out, _ in runs]
    if args.workload == "crowded_nowcast":
        _, spec, data = P.inproc_setup(args.workload, args.seed, args.size)
        reference = P.nowcast_reference(spec, data)
        for out in outs:
            P.check_nowcast(out, reference)

    ok = [(res, out) for res, out, _ in plain if res is not None]
    result: dict = {"outcomes": outs}
    result["stamp"] = ok[0][0]["stamp"] if ok else None
    result["quality"] = ok[-1][1].quality if ok else {}
    if not args.trace:
        e2e = {
            "setup_s": median([res["setup_s"] for res, _ in ok]),
            "pipeline_s": median([o.timings["pipeline_s"] for _, o in ok]),
            "fuse_s": median([o.timings["fuse_s"] for _, o in ok]),
            "peak_rss_mb": median([o.peak_rss_mb for _, o in ok]),
        }
        if args.workload == "crowded_nowcast" and ok:
            tails = [tail_percentile(o.latencies) for _, o in ok]
            e2e["warn_latency_p50_s"] = median([median(o.latencies) for _, o in ok])
            e2e["warn_latency_tail_s"] = median([v for _, v in tails])
            result["tail"] = {"percentile": tails[0][0], "samples_per_pass": len(ok[0][1].latencies),
                              "passes": len(ok)}
        result["end_to_end"] = e2e
    else:
        tr = [(res, out) for res, out, _ in traced if res is not None]
        if not tr or not ok:
            return result
        layers = {k: median([res["layers"][k] for res, _ in tr]) for k in T.LAYER_METRICS}
        traced_s = median([o.timings["pipeline_s"] for _, o in tr])
        last_res, last = tr[-1]
        table = last_res["layer_table"]

        def self_s(*mods):
            return sum(table.get(m, {}).get("self_s", 0.0) for m in mods)

        loads = {"geogrid_io_s": T.geogrid_io_s(layers)}
        if args.workload == "crowded_nowcast":
            loads["tracking_fusion_share_of_epoch_latency"] = (
                self_s("tracking", "fusion") / last.timings["fuse_s"])
        else:
            loads["convection_fusion_wind_precip_geogrid_share_of_pipeline"] = (
                self_s("convection", "fusion", "wind", "precip", "geogrid")
                / last.timings["pipeline_s"])
        result.update(
            layers=layers,
            layer_table=table,
            overhead={"traced_pipeline_s": traced_s,
                      "untraced_pipeline_s": median([o.timings["pipeline_s"] for _, o in ok])},
            load_checks=loads,
        )
    return result


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    if v is None:
        return "undefined"
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def report(args, env: dict, stamp: dict, result: dict) -> dict:
    import tracing as T

    outs = result["outcomes"]
    attempted = sum(o.attempted for o in outs)
    failures = [f for o in outs for f in o.failures]
    lines = [f"perfbench {args.workload} size={args.size} seed={args.seed} trace={args.trace}",
             "env: " + json.dumps(env, sort_keys=True),
             "workload: " + json.dumps(stamp, sort_keys=True)]
    metrics: dict[str, dict] = {}
    if not args.trace:
        values = dict(result.get("end_to_end", {}))
        values.update(result.get("quality", {}))
        lines.append(f"{'end-to-end metric':<32}{'value':>14}  unit")
        for name, unit in END_TO_END.items():
            if name in values:
                note = ""
                if name == "warn_latency_tail_s":
                    t = result["tail"]
                    note = f"  (p{t['percentile']} of {t['samples_per_pass']} epochs per pass, median of {t['passes']} passes)"
                lines.append(f"{name:<32}{_fmt(values[name]):>14}  {unit}{note}")
        for name in ("setup_s", "pipeline_s", "fuse_s", "peak_rss_mb"):
            if values.get(name) is not None:
                metrics[name] = {"value": values[name], "unit": END_TO_END[name]}
    else:
        layers = result.get("layers", {})
        lines.append(f"{'per-layer metric':<32}{'value':>14}  unit")
        for name, unit in T.LAYER_METRICS.items():
            if name in layers:
                v = layers[name]
                v = int(v) if unit in ("count", "bytes") and float(v).is_integer() else v
                lines.append(f"{name:<32}{_fmt(v):>14}  {unit}")
                metrics[name] = {"value": v, "unit": unit}
        table = result.get("layer_table", {})
        lines.append(f"{'layer (traced pass)':<20}{'spans':>10}{'self_s':>12}{'share':>9}")
        for layer, row in table.items():
            lines.append(f"{layer:<20}{row['count']:>10}{row['self_s']:>12.4f}"
                         f"{row['share_of_pipeline']:>9.1%}")
        ov = result.get("overhead")
        if ov:
            ov["overhead_ratio"] = ov["traced_pipeline_s"] / ov["untraced_pipeline_s"] - 1.0
            lines.append("tracing overhead: " + json.dumps(ov))
        if result.get("load_checks"):
            lines.append("load: " + json.dumps(result["load_checks"]))
    lines.append(f"checks: {attempted} operations attempted, {len(failures)} failed")
    lines += [f"FAILED: {f}" for f in failures]
    for line in lines:
        print(line)
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("replay_cli", "scaled_batch", "crowded_nowcast"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)

    if not (SRC / "cswarn" / "__init__.py").is_file():
        print(f"perfbench: no cswarn sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads as W

    clock = Clock(args.seconds)
    outdir = OUT / args.workload
    work = outdir / "work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.workload == "replay_cli":
            result = run_replay(args, clock, work, outdir)
            stamp = W.layout(args.workload, args.seed, args.size).stamp()
        else:
            result = run_inproc(args, clock, work, outdir)
            stamp = result.get("stamp") or W.layout(args.workload, args.seed, args.size).stamp()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = env_stamp(args.seed)
    final = report(args, env, stamp, result)
    record = {"workload": args.workload, "size": args.size, "trace": args.trace,
              "env": env, "stamp": stamp, "result": final,
              **{k: v for k, v in result.items() if k != "outcomes"},
              "outcomes": [o.to_json() for o in result["outcomes"]]}
    (outdir / f"result-trace{args.trace}.json").write_text(json.dumps(record, indent=1, default=str))
    if not final["metrics"]:
        print("perfbench: no pass completed; no metrics to report", file=sys.stderr)
        return 1
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
