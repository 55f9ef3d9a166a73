"""Smoke test of the benchmark: every workload at tiny size on a second seed.

    python3 perfbench/smoke.py

For each workload it runs perfbench/run.py with --smoke, plain and traced,
and checks that no solve failed, that the traced run's layer self times add
up to its traced wall time, and that two fresh processes with different
PYTHONHASHSEED values report identical deterministic counters. It also
checks that the benchmark refuses to run without the parsearch sources.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 2  # the default seed is 1
ACCOUNTED_SLACK = 0.02  # |1 - tracing.accounted_frac| must stay below this


def run(workload: str, trace: int, hash_seed: str, cwd: Path = ROOT):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED)]
    cmd += ["--seconds", "0", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=170)


def parse(proc):
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    digest = next(l for l in lines if l.startswith("counters_sha256:"))
    return json.loads(lines[-1]), digest


def main() -> int:
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    for name in WORKLOADS:
        plain, digest_a = parse(run(name, 0, "0"))
        _, digest_b = parse(run(name, 0, "1"))
        traced, digest_c = parse(run(name, 1, "0"))
        failed_frac = plain["failed"] / plain["attempted"]
        accounted = traced["metrics"]["tracing.accounted_frac"]["value"]
        print(
            f"{name}: failed_frac={failed_frac} correct={plain['correct']} "
            f"traced_correct={traced['correct']} accounted_frac={accounted:.4f}"
        )
        assert plain["correct"] and traced["correct"], name
        assert failed_frac == 0, name
        assert digest_a == digest_b == digest_c, f"{name}: counters differ between processes"
        assert abs(1 - accounted) < ACCOUNTED_SLACK, f"{name}: spans do not add up"

    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run(next(iter(WORKLOADS)), 0, "0", cwd=Path(bare))
        assert proc.returncode != 0 and not proc.stdout.strip(), "ran without sources"
    print("bare directory: refused as expected")
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
