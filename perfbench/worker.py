"""One in-process pass in a fresh process, so its peak RSS is its own.

    python perfbench/worker.py WORKLOAD SEED SIZE TRACE OUTDIR

Sets up the workload's inputs (timed as set-up), runs one pass, checks
what can be checked inside the pass, and prints one JSON object as its
last line. With TRACE=1 every ``cswarn`` call is traced from the start of
set-up, and the spans go to OUTDIR/spans.jsonl.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import passes as P  # noqa: E402
import tracing as T  # noqa: E402


def main(argv: list[str]) -> int:
    workload, seed, size, traced, outdir = argv[0], int(argv[1]), argv[2], argv[3] == "1", Path(argv[4])
    tracer = T.Tracer() if traced else None
    if tracer:
        tracer.install()
    t_setup = time.perf_counter()
    lay, spec, data = P.inproc_setup(workload, seed, size)
    setup_s = time.perf_counter() - t_setup
    t_pass = time.perf_counter()
    if workload == "scaled_batch":
        out, score, reports = P.scaled_batch_pass(spec, data)
    else:
        out = P.crowded_nowcast_pass(spec, data)
    if tracer:
        tracer.uninstall()
    if workload == "scaled_batch":
        P.check_scaled(out, lay, data, score, reports)
    result = {"setup_s": setup_s, "outcome": out.to_json(), "stamp": lay.stamp()}
    if tracer:
        tracer.write_spans(outdir / "spans.jsonl", t_setup)
        result["layers"] = T.layer_metrics(tracer.spans)
        result["layer_table"] = T.layer_table(tracer.spans, out.timings["pipeline_s"], t_pass)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
