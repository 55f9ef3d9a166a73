"""The benchmark's four workloads: instance sets, set-up and solves.

Every workload is a closed loop: its solves run one after another, one
engine per solve, in one process, on the deterministic interleaved
substrate. A seed derives the instances and every engine seed.
"""

from __future__ import annotations

import pickle
import sys
from dataclasses import dataclass

import oracle
from spans import TracedProblem, trace_engine

# Tile instances: random blank walks of TILE_DEPTH moves with
# TILE_DEPTH - h(start) <= TILE_MAX_GAP whose reference A* expansions fall
# in a band.
TILE_DEPTH = 40
TILE_MAX_GAP = 10


@dataclass(frozen=True)
class Size:
    instances: int
    band: tuple[int, int] = (0, 0)  # tiles: reference expansions of one instance
    side: int = 0  # lattice: points per axis minus one


@dataclass(frozen=True)
class Workload:
    name: str
    domain: str  # "tile" | "lattice"
    engines: tuple[str, ...]  # solved in this order on every instance
    workers: int
    full: Size
    smoke: Size


TILE_FULL = Size(instances=28, band=(1_500, 4_000))
TILE_SMOKE = Size(instances=3, band=(300, 1_000))

WORKLOADS = {
    w.name: w
    for w in (
        Workload("tile15-astar", "tile", ("astar",), 1, TILE_FULL, TILE_SMOKE),
        Workload("tile15-hdastar-p8", "tile", ("hdastar",), 8, TILE_FULL, TILE_SMOKE),
        Workload(
            "lattice3-hdastar-p32",
            "lattice",
            ("hdastar",),
            32,
            Size(instances=5, side=14),
            Size(instances=1, side=5),
        ),
        Workload(
            "tile15-shared-p4", "tile", ("spastar", "window"), 4, TILE_FULL, TILE_SMOKE
        ),
    )
}


def engine_seed(seed: int, index: int) -> int:
    return (seed * 1_000_003 + index) & 0x7FFFFFFF


def reference(workload: Workload, seed: int, size: Size):
    """Instance specs with reference costs: [(index, spec, cost, expansions)].

    Runs benchmark-owned code only, in a child process of the benchmark, so
    it is outside every timed region and every memory reading."""
    if workload.domain == "tile":
        return oracle.select_tiles(
            seed, size.instances, TILE_DEPTH, TILE_MAX_GAP, size.band
        )
    return oracle.select_lattices(seed, size.instances, size.side)


@dataclass
class Job:
    index: int
    engine: str
    problem: object
    config: object
    strategy: object  # HDA*'s work-distribution strategy, fresh per solve
    cost: float  # reference optimal cost
    ref_expanded: int  # reference serial A* expansions
    path_cost: object  # path -> cost under benchmark-owned move rules


def setup(ps, workload: Workload, seed: int, size: Size, refs) -> list[Job]:
    """Instance generation, problem tables and strategy construction.

    `ps` is the imported parsearch package. Strategies cache keys per
    state, so every pass of solves needs its own set-up."""
    jobs = []
    for index, spec, cost, expanded in refs:
        if workload.domain == "tile":
            start = oracle.tile_walk(seed, index, TILE_DEPTH)
            if start != spec:
                raise RuntimeError("tile stream is not reproducible")
            problem = ps.TilePuzzle(start)

            def path_cost(path, start=start):
                return oracle.tile_path_cost(path, start)

        else:
            costs = oracle.lattice_costs(seed, index)
            side = size.side
            problem = ps.LatticeProblem((side, side, side), costs)

            def path_cost(path, costs=costs, side=side):
                return oracle.lattice_path_cost(path, costs, side)

        for name in workload.engines:
            config = ps.EngineConfig(
                workers=workload.workers, seed=engine_seed(seed, index)
            )
            strategy = None
            if name == "hdastar":
                strategy = ps.make_strategy(config.strategy, problem, config.seed)
            jobs.append(
                Job(index, name, problem, config, strategy, cost, expanded, path_cost)
            )
    return jobs


STEP_SPAN = {
    "astar": "serial.step",
    "hdastar": "engine.hda.step",
    "spastar": "engine.spa.step",
    "window": "engine.window.step",
}


def build_engine(ps, job: Job, tracer=None):
    """Construct the job's engine; with a tracer, hook every layer call."""
    problem, strategy = job.problem, job.strategy
    if tracer is not None:
        problem = TracedProblem(problem, tracer)
        if strategy is not None:
            strategy.owner = tracer.wrap("hashing.owner", strategy.owner)
    if job.engine == "astar":
        engine = ps.serial.BestFirstSearch(problem)
    elif job.engine == "hdastar":
        engine = ps.engine.HDAStar(problem, job.config, strategy=strategy)
    elif job.engine == "spastar":
        engine = ps.engine.SPAStar(problem, job.config)
    else:
        engine = ps.engine.ParallelWindow(problem, job.config)
    if tracer is not None:
        trace_engine(engine, tracer, STEP_SPAN[job.engine])
    return engine


def counters(sol, c_star: float) -> dict:
    """The deterministic counters of one solve; `f_below` counts expansions
    with f < C* and is None when the engine records no f-values."""
    stats = sol.stats
    f_below = None
    if len(stats.expanded_f) == stats.expanded:
        f_below = sum(1 for f in stats.expanded_f if f < c_star - 1e-9)
    per_worker = [w.expanded for w in (sol.per_worker or [stats])]
    meta = sol.meta
    window_iterations = sum(len(w.iteration_expansions) for w in sol.per_worker or [])
    return {
        "cost": sol.cost,
        "path_len": len(sol.path),
        "expanded": stats.expanded,
        "generated": stats.generated,
        "sent": stats.sent,
        "sent_batches": stats.sent_batches,
        "reopened": stats.reopened,
        "duplicates": stats.duplicates,
        "ticks": meta.get("ticks") or 0,
        "rounds": meta.get("detection_rounds", 0),
        "waves": meta.get("detection_waves", 0),
        "per_worker": per_worker,
        "f_below": f_below,
        "iterations": window_iterations,
        "bounds": len(meta.get("bounds", ())),
    }


if __name__ == "__main__":
    # python3 perfbench/workloads.py WORKLOAD SEED [--smoke]: the reference
    # of one workload, pickled to standard output (used by run.py).
    chosen = WORKLOADS[sys.argv[1]]
    size = chosen.smoke if sys.argv[3:] == ["--smoke"] else chosen.full
    sys.stdout.buffer.write(pickle.dumps(reference(chosen, int(sys.argv[2]), size)))
