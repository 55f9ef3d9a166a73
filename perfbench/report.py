"""Print every end-to-end metric of every workload, by name and unit.

    python3 perfbench/report.py [--seed 1] [--seconds 12]

Runs perfbench/run.py once per workload, each in a fresh process, and
prints one table with the metrics of BENCHMARK.json plus the survey's plain
search_overhead, comm_overhead and failed_frac. Exits non-zero when a run
fails or reports incorrect results.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    ok = True
    rows = []
    machine = ""
    for workload in (w["name"] for w in spec["workloads"]):
        cmd = [sys.executable, "perfbench/run.py", "--workload", workload]
        cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(f"{workload}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            ok = False
            continue
        lines = proc.stdout.strip().splitlines()
        machine = lines[0]
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        metrics = result["metrics"]
        for name, m in metrics.items():
            rows.append((workload, name, m["value"], m["unit"], better[name]))
        for name in ("search_overhead", "comm_overhead"):
            rows.append((workload, name, metrics[name + "_plus1"]["value"] - 1, "ratio", "lower"))
        rows.append((workload, "failed_frac", result["failed"] / result["attempted"], "ratio", "lower"))
        rows.append((workload, "correct", result["correct"], "", ""))
    print(f"{machine} cpu_model={cpu_model()!r} seed={args.seed} seconds={args.seconds}")
    print(f"{'workload':22s} {'metric':24s} {'value':>16s} {'unit':6s} better")
    for workload, name, value, unit, direction in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"{workload:22s} {name:24s} {shown:>16s} {unit:6s} {direction}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
