"""Run one parsearch benchmark workload and print its metrics.

    python3 perfbench/run.py --workload tile15-hdastar-p8 --seed 1 --seconds 12 --trace 0

Run it from the root of a checkout; it imports parsearch from that
checkout's `src/`. It solves the workload's instance set again and again
(one "pass" per set) for `--seconds`, checks every solve against a
reference optimal cost, and checks that every deterministic counter repeats
exactly across passes. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; with `--trace 0` the metrics
are the end-to-end ones, with `--trace 1` the per-layer ones from traced
passes interleaved with plain passes. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spans
import workloads
from speed import SpeedClock

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
DEFAULT_SEED = 1
SETUP_REPS = 20  # set-ups timed before the passes, on top of one per pass
MIN_PLAIN_PASSES = 3
COST_TOLERANCE = 1e-6
REFERENCE_TIMEOUT_S = 120


def import_parsearch():
    init = SRC / "parsearch" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: no parsearch sources at {init}")
    sys.path.insert(0, str(SRC))
    import parsearch

    if Path(parsearch.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported parsearch from {parsearch.__file__}")
    return parsearch


def reference_in_child(workload, seed, smoke):
    """Reference instances and costs, computed in a fresh child process so
    the oracle's memory never reaches this process's peak RSS. The child is
    a plain subprocess that has ended (or been killed and reaped) before this
    returns; no helper process outlives it."""
    cmd = [sys.executable, str(HERE / "workloads.py"), workload.name, str(seed)]
    cmd += ["--smoke"] if smoke else []
    proc = subprocess.run(cmd, capture_output=True, timeout=REFERENCE_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
        raise SystemExit(f"error: reference child exited with {proc.returncode}")
    return pickle.loads(proc.stdout)


def check(job, sol) -> dict:
    record = workloads.counters(sol, job.cost)
    path_cost = job.path_cost(sol.path)
    record["ok"] = (
        abs(sol.cost - job.cost) <= COST_TOLERANCE
        and path_cost is not None
        and abs(path_cost - job.cost) <= COST_TOLERANCE
    )
    return record


def run_pass(ps, jobs, clock, tracer=None):
    """Solve every job once; returns (raw seconds, adjusted seconds, records)
    with the seconds summed over the solves alone."""
    raw = adjusted = 0.0
    records = []
    for solve_id, job in enumerate(jobs):
        if tracer is None:
            solve = lambda: workloads.build_engine(ps, job).run()
        else:
            tracer.solve_id = solve_id
            solve = tracer.wrap(
                "solve", lambda: workloads.build_engine(ps, job, tracer).run()
            )
        try:
            sol = clock.measure(solve)
        except Exception as exc:  # a failed solve is counted, never dropped
            traceback.print_exc(file=sys.stderr)
            records.append({"error": f"{type(exc).__name__}: {exc}"})
        else:
            records.append(check(job, sol))
        raw += clock.raw
        adjusted += clock.adjusted
    return raw, adjusted, records


def traced_pass(ps, jobs, clock, totals, stem):
    """run_pass with every layer call traced. Adds the per-span-name
    [calls, total ns, self ns] into `totals` and, when `stem` is given,
    writes the spans there."""
    tracer = spans.Tracer()
    with spans.traced_termination(ps.engine.hda, tracer):
        result = run_pass(ps, jobs, clock, tracer)
    for name, entry in tracer.totals().items():
        acc = totals.setdefault(name, [0, 0, 0])
        for k in range(3):
            acc[k] += entry[k]
    if stem is not None:
        stem.parent.mkdir(exist_ok=True)
        tracer.write(str(stem))
    return result


def _sum(records, key, jobs=None, engine=None):
    """Σ record[key] over the successful solves, or over those of `engine`."""
    if engine is not None:
        records = [r for j, r in zip(jobs, records) if j.engine == engine]
    return sum(r[key] for r in records if "error" not in r)


def _ratio(a, b):
    return a / b if b else 0.0


def end_to_end(jobs, records, setup_times, walls) -> dict:
    good = [(j, r) for j, r in zip(jobs, records) if "error" not in r]
    expanded = sum(r["expanded"] for _, r in good)
    reference = sum(j.ref_expanded for j, _ in good)
    generated = sum(r["generated"] for _, r in good)
    sent = sum(r["sent"] for _, r in good)
    balance = [
        max(r["per_worker"]) / statistics.fmean(r["per_worker"])
        for _, r in good
        if sum(r["per_worker"])
    ]
    wall = statistics.median(walls)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (wall, "s"),
        "expansions_per_s": (_ratio(expanded, wall), "1/s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
        "search_overhead_plus1": (_ratio(expanded, reference), "ratio"),
        "comm_overhead_plus1": (1 + _ratio(sent, generated), "ratio"),
        "load_balance": (statistics.fmean(balance) if balance else 0.0, "ratio"),
    }


def efficiency_fraction(records) -> float:
    """Share of expansions with f < C*, over the solves that record f."""
    with_f = [r for r in records if "error" not in r and r["f_below"] is not None]
    return _ratio(sum(r["f_below"] for r in with_f), sum(r["expanded"] for r in with_f))


def per_layer(jobs, records, totals, traced_walls, traced_raw, plain_walls) -> dict:
    """Layer metrics per traced pass. Span times are scaled by the traced
    passes' host-speed adjustment, like every other time."""
    n = len(traced_walls)
    scale = sum(traced_walls) / sum(traced_raw) / 1e9  # span ns -> adjusted s

    def calls(name):
        return totals.get(name, (0, 0, 0))[0] / n

    def us(name, column=1):
        entry = totals.get(name, (0, 0, 0))
        return entry[column] * scale * 1e6 / entry[0] if entry[0] else 0.0

    def total_s(name, column):
        return totals.get(name, (0, 0, 0))[column] * scale / n

    expanded = _sum(records, "expanded")
    generated = _sum(records, "generated")
    hda = dict(jobs=jobs, engine="hdastar")
    hda_solves = sum(1 for j in jobs if j.engine == "hdastar")
    layer_self = dict.fromkeys(spans.LAYERS, 0.0)
    for name, (_, _, self_ns) in totals.items():
        layer_self[spans.LAYER_OF[name]] += self_ns * scale / n
    traced_wall = statistics.fmean(traced_walls)
    metrics = {
        "efficiency_fraction": (efficiency_fraction(records), "ratio"),
        "domains.expand.calls": (calls("domains.expand"), "count"),
        "domains.expand.us": (us("domains.expand"), "us"),
        "domains.h.calls": (calls("domains.h"), "count"),
        "domains.h.us": (us("domains.h"), "us"),
        "domains.is_goal.us": (us("domains.is_goal"), "us"),
        "domains.h.calls_per_expansion": (_ratio(calls("domains.h"), expanded), "ratio"),
        "hashing.owner.calls": (calls("hashing.owner"), "count"),
        "hashing.owner.us": (us("hashing.owner"), "us"),
        "hashing.owner.calls_per_generated": (
            _ratio(calls("hashing.owner"), generated),
            "ratio",
        ),
        "hashing.owner.share": (total_s("hashing.owner", 1) / traced_wall, "ratio"),
        "serial.self_us_per_expansion": (
            _ratio(total_s("serial.step", 2) * 1e6, _sum(records, "expanded", jobs, "astar")),
            "us",
        ),
        "engine.core.ticks": (_sum(records, "ticks"), "count"),
        "engine.core.pending_channels.calls": (
            calls("engine.core.pending_channels"),
            "count",
        ),
        "engine.core.pending_channels.us": (us("engine.core.pending_channels"), "us"),
        "engine.core.deliver.calls": (calls("engine.core.deliver"), "count"),
        "engine.core.send.calls": (calls("engine.core.send"), "count"),
        "engine.core.scheduler.self_s": (
            total_s("solve", 2) + total_s("engine.core.pending_channels", 2),
            "s",
        ),
        "engine.hda.step.calls": (calls("engine.hda.step"), "count"),
        "engine.hda.step.self_us": (us("engine.hda.step", 2), "us"),
        "engine.hda.sent": (_sum(records, "sent", **hda), "count"),
        "engine.hda.sent_batches": (_sum(records, "sent_batches", **hda), "count"),
        "engine.hda.triplets_per_batch": (
            _ratio(_sum(records, "sent", **hda), _sum(records, "sent_batches", **hda)),
            "count",
        ),
        "engine.hda.duplicates_frac": (
            _ratio(_sum(records, "duplicates", **hda), _sum(records, "generated", **hda)),
            "ratio",
        ),
        "engine.hda.reopened": (_sum(records, "reopened", **hda), "count"),
        "engine.spa.step.calls": (calls("engine.spa.step"), "count"),
        "engine.spa.step.self_us": (us("engine.spa.step", 2), "us"),
        "engine.window.iterations": (_sum(records, "iterations"), "count"),
        "engine.window.bounds_claimed": (_sum(records, "bounds"), "count"),
        "engine.window.step.self_us": (us("engine.window.step", 2), "us"),
        "termination.rounds": (_sum(records, "rounds"), "count"),
        "termination.waves": (_sum(records, "waves"), "count"),
        "termination.rounds_per_solve": (
            _ratio(_sum(records, "rounds", **hda), hda_solves),
            "count",
        ),
        "termination.control.calls": (calls("termination.control"), "count"),
        "termination.control.us": (us("termination.control"), "us"),
    }
    for layer in spans.LAYERS:
        metrics[f"{layer}.self_s"] = (layer_self[layer], "s")
    metrics["tracing.overhead_frac"] = (
        statistics.median(traced_walls) / statistics.median(plain_walls) - 1,
        "ratio",
    )
    metrics["tracing.accounted_frac"] = (sum(layer_self.values()) / traced_wall, "ratio")
    return metrics


def machine_record() -> str:
    return (
        f"machine: cpu_count={os.cpu_count()} python={platform.python_version()} "
        f"implementation={platform.python_implementation()} "
        f"arch={platform.machine()} processor={platform.processor() or 'unknown'} "
        f"default_seed={DEFAULT_SEED}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny instance set (perfbench/smoke.py)"
    )
    args = parser.parse_args(argv)
    if sys.flags.optimize:
        raise SystemExit("error: run without -O; the engines' invariants are asserts")
    ps = import_parsearch()
    workload = workloads.WORKLOADS[args.workload]
    size = workload.smoke if args.smoke else workload.full
    refs = reference_in_child(workload, args.seed, args.smoke)

    clock = SpeedClock()
    setup_times: list[float] = []
    raw_setup: list[float] = []

    def timed_setup():
        jobs = clock.measure(lambda: workloads.setup(ps, workload, args.seed, size, refs))
        setup_times.append(clock.adjusted)
        raw_setup.append(clock.raw)
        return jobs

    for _ in range(SETUP_REPS):
        timed_setup()

    plain_walls: list[float] = []
    traced_walls: list[float] = []
    traced_raw: list[float] = []
    raw_walls: list[float] = []
    totals: dict[str, list] = {}
    first = None
    deterministic = True
    attempted = failed = 0
    began = time.perf_counter()
    while True:
        jobs = timed_setup()
        if args.trace and len(plain_walls) > len(traced_walls):  # alternate
            stem = None if traced_walls else OUT / f"spans-{workload.name}"
            raw, wall, records = traced_pass(ps, jobs, clock, totals, stem)
            traced_walls.append(wall)
            traced_raw.append(raw)
        else:
            raw, wall, records = run_pass(ps, jobs, clock)
            plain_walls.append(wall)
            raw_walls.append(raw)
        attempted += len(records)
        failed += sum(1 for r in records if "error" in r or not r["ok"])
        if first is None:
            first = records
        elif records != first:
            deterministic = False
        done = time.perf_counter() - began >= args.seconds
        if args.trace:
            done = done and len(traced_walls) >= 1
        else:
            done = done and len(plain_walls) >= MIN_PLAIN_PASSES
        if done:
            break

    digest = hashlib.sha256(json.dumps(first, sort_keys=True).encode()).hexdigest()
    print(machine_record())
    print(
        f"workload: {workload.name} seed={args.seed} instances={len(refs)} "
        f"solves_per_pass={len(jobs)} plain_passes={len(plain_walls)} "
        f"traced_passes={len(traced_walls)}"
    )
    print(f"counters_sha256: {digest}")
    print(f"deterministic: {deterministic}")
    print(f"raw_setup_s: {statistics.median(raw_setup)} s (median, not host-adjusted)")
    print(f"raw_wall_s: {statistics.median(raw_walls)} s (median, not host-adjusted)")
    for r in first:
        if "error" in r:
            print(f"failed solve: {r['error']}")
    e2e = end_to_end(jobs, first, setup_times, plain_walls)
    print(f"search_overhead: {e2e['search_overhead_plus1'][0] - 1} ratio")
    print(f"comm_overhead: {e2e['comm_overhead_plus1'][0] - 1} ratio")
    print(f"failed_frac: {failed / attempted} ratio")
    if args.trace:
        metrics = per_layer(jobs, first, totals, traced_walls, traced_raw, plain_walls)
    else:
        print(f"efficiency_fraction: {efficiency_fraction(first)} ratio")
        metrics = e2e
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value} {unit}")
    result = {
        "correct": deterministic and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
