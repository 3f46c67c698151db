"""The benchmark's own smoke run: every workload at its tiny size, untraced
and traced. It fails when a change breaks what ``perfbench/`` calls (a
traced ``FusionEngine`` method, a module it imports) or changes the
smoke replay's recorded output digests."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "smoke.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
