"""Smoke check of the benchmark itself: every workload at its tiny size.

    python3 perfbench/smoke.py

Runs ``run.py --size smoke`` for each workload with ``--trace 0`` and
``--trace 1`` and fails unless each run exits 0, passes every output
check, and reports every metric BENCHMARK.json names plus the workload's
own end-to-end metrics in its report. Timings are not checked.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# End-to-end metrics each workload prints in its report.
REPORTED = {
    "replay_cli": ("setup_s", "pipeline_s", "synth_s", "fuse_s", "peak_rss_mb",
                   "pod", "far", "lead_min_s"),
    "scaled_batch": ("setup_s", "pipeline_s", "fuse_s", "peak_rss_mb",
                     "pod", "far", "lead_min_s"),
    "crowded_nowcast": ("setup_s", "pipeline_s", "fuse_s", "warn_latency_p50_s",
                        "warn_latency_tail_s", "peak_rss_mb", "pod", "far", "lead_min_s"),
}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"] for m in bench["end_to_end"]},
              1: {m["name"] for m in bench["per_layer"]}}
    problems = []
    for workload in REPORTED:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
                   "--seconds", "1", "--trace", str(trace), "--size", "smoke"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
            label = f"{workload} trace={trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: {result['failed']} of {result['attempted']} operations failed")
            missing = wanted[trace] - set(result["metrics"])
            extra = set(result["metrics"]) - wanted[trace]
            if missing or extra:
                problems.append(f"{label}: metrics missing {sorted(missing)}, unexpected {sorted(extra)}")
            if trace == 0:
                printed = {line.split()[0] for line in lines[:-1] if line.split()}
                absent = set(REPORTED[workload]) - printed
                if absent:
                    problems.append(f"{label}: report lacks {sorted(absent)}")
            print(f"{label}: {result['attempted']} operations, {result['failed']} failed, "
                  f"{len(result['metrics'])} metrics")
    for p in problems:
        print("SMOKE FAILURE:", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
