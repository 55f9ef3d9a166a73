"""The benchmark's smoke check runs clean against the package sources.

`perfbench/smoke.py` runs every benchmark workload at tiny size, plain and
traced. It fails when the library loses a hook the benchmark binds (the
transport's `pending_channels`, the termination functions on
`parsearch.engine.hda`, a problem's `features` or `canonical_bytes`).
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_smoke_passes():
    out = subprocess.run(
        [sys.executable, "perfbench/smoke.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert out.returncode == 0, out.stdout[-2000:] + out.stderr[-2000:]
