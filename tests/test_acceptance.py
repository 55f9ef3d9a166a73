"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. Engine runs execute on the
deterministic interleaved substrate; the harness farms independent runs over
processes (PARSEARCH_ACCEPT_PROCS overrides the worker count, 1 disables).
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import random
import time

from parsearch.allocation import (
    CostModel,
    SolverProfile,
    ia_total_cost,
    min_width_cost,
    ratio_bounds,
)
from parsearch.common import INF, SearchInvariantError
from parsearch.domains import (
    LatticeProblem,
    TilePuzzle,
    goal_state,
    random_scramble,
    random_solvable,
    state_count,
)
from parsearch.engine import AdversarialPolicy, EngineConfig
from parsearch.engine.hda import hdastar
from parsearch.engine.spa import spastar
from parsearch.engine.window import parallel_window
from parsearch.hashing import (
    HyperplaneStrategy,
    ZobristStrategy,
    ZobristTable,
    azh_key,
    hyperplane_fanout_bound,
    make_strategy,
    zobrist_key,
)
from parsearch.serial import astar, idastar
from tests.conftest import (
    graph_dijkstra_cost,
    grid_dijkstra,
    make_graph_suite,
    make_grid_problem,
    traced,
)

STRATEGIES = ("zobrist", "azh", "mult", "abstraction", "random")
RUN_SEED = 7

_procs_env = os.environ.get("PARSEARCH_ACCEPT_PROCS")
PROCS = int(_procs_env) if _procs_env else max(1, min(4, os.cpu_count() or 1))


def _pool_map(fn, tasks):
    if PROCS <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(PROCS) as pool:
        return pool.map(fn, tasks, chunksize=1)


def _report(number: int, detail: str, elapsed: float, budget: float) -> None:
    note = "" if elapsed <= budget else f" (over the {budget:.0f}s budget)"
    print(f"ACCEPTANCE {number} PASS: {detail} [{elapsed:.1f}s{note}]")


# --- criterion 1: optimality suite ------------------------------------------


def _build_instance(spec):
    kind, arg = spec
    if kind == "tile":
        return TilePuzzle(random_solvable(3, arg))
    if kind == "grid":
        return make_grid_problem(arg)
    return make_graph_suite()[arg]


def _optimality_cell(spec):
    problem = _build_instance(spec)
    costs = {}
    costs["astar"] = astar(problem).cost
    costs["idastar"] = idastar(problem).cost
    for w in (2, 4):
        costs[f"spastar/p{w}"] = spastar(
            problem, EngineConfig(workers=w, seed=RUN_SEED)
        ).cost
    for strategy in STRATEGIES:
        for w in (1, 2, 4, 8):
            cfg = EngineConfig(workers=w, strategy=strategy, seed=RUN_SEED)
            costs[f"hdastar/{strategy}/p{w}"] = hdastar(problem, cfg).cost
    for w in (2, 4):
        costs[f"window/p{w}"] = parallel_window(
            problem, EngineConfig(workers=w, seed=RUN_SEED)
        ).cost
    return spec, costs


def test_criterion_1_optimality_suite(tile3_bfs):
    start = time.perf_counter()
    specs = [("tile", s) for s in range(100)]
    specs += [("grid", 100 + s) for s in range(50)]
    specs += [("graph", i) for i in range(10)]

    expected = {}
    for spec in specs:
        kind, arg = spec
        if kind == "tile":
            expected[spec] = float(tile3_bfs[bytes(random_solvable(3, arg))])
        elif kind == "grid":
            p = make_grid_problem(arg)
            expected[spec] = grid_dijkstra(p.grid, p.initial).get(p.goal, INF)
        else:
            expected[spec] = graph_dijkstra_cost(make_graph_suite()[arg])
    assert expected[("graph", 0)] == 2.0  # the expansion-misordering graph

    runs = 0
    for spec, costs in _pool_map(_optimality_cell, specs):
        want = expected[spec]
        for key, got in costs.items():
            runs += 1
            if want == INF:
                assert got == INF, (spec, key, got)
            else:
                assert abs(got - want) <= 1e-9, (spec, key, got, want)
    _report(
        1,
        f"{len(specs)} instances x {runs // len(specs)} algorithms "
        "agree with the uniform-cost oracle at 1e-9",
        time.perf_counter() - start,
        300,
    )


# --- criterion 2: hash identities --------------------------------------------


def test_criterion_2_hash_identities():
    start = time.perf_counter()
    puzzle = TilePuzzle(goal_state(3))
    table = ZobristTable(42)
    rng = random.Random(2)
    state = bytes(random_solvable(3, rng))
    # The key path HDA* runs: one xor per move, carried along a random walk
    # and checked against a full recompute over a separate table.
    strategy = ZobristStrategy(puzzle, 42)
    key = strategy.key(state)
    for _ in range(10_000):
        succ, _, _, move = rng.choice(puzzle.successors(state, puzzle.h(state)))
        key = strategy.child_key(key, succ, move)
        assert key == zobrist_key(table, puzzle.features(succ))
        state = succ

    for _ in range(500):
        s = random_solvable(3, rng)
        assert azh_key(table, None, puzzle.features(s)) == zobrist_key(
            table, puzzle.features(s)
        )

    lattice = LatticeProblem((4, 4))
    tile_states = [random_solvable(3, rng) for _ in range(5)]
    lattice_states = list(lattice.all_states())[:5]
    checks = 0
    for token in STRATEGIES:
        strategy = make_strategy(token, puzzle, seed=11)
        for p in range(1, 65):
            for s in tile_states:
                assert 0 <= strategy.owner(strategy.key(s), p) < p
                checks += 1
    hyper = make_strategy("hyperplane", lattice, seed=11, config={"d": "1/2"})
    for p in range(1, 65):
        for s in lattice_states:
            assert 0 <= hyper.owner(hyper.key(s), p) < p
            checks += 1
    _report(
        2,
        f"10^4 incremental==full updates, AZH identity == Zobrist, "
        f"{checks} owner range checks",
        time.perf_counter() - start,
        10,
    )


# --- criterion 3: hyperplane fan-out bound ------------------------------------


def test_criterion_3_hyperplane_bound():
    # The theorem bounds the number of processors a worker SENDS successors
    # to; successors it owns itself stay local. (Counting the owner among
    # the destinations breaks the floor bound in the one grid cell where
    # the thickness exceeds the dimension, n=2 d=3: boundary states keep
    # one successor and send the rest one plane up.)
    start = time.perf_counter()
    thicknesses = ["1/4", "1/3", "1/2", 1, 2, 3]
    states_checked = 0
    for n in (2, 3, 4):
        lattice = LatticeProblem((5,) * n)  # 6 coordinate values per axis
        for d in thicknesses:
            strategy = HyperplaneStrategy(lattice, d=d, seed=13)
            bound = hyperplane_fanout_bound(n, d)
            for p in (7, 64):
                for s in lattice.all_states():
                    own = strategy.owner(strategy.key(s), p)
                    owners = {
                        strategy.owner(strategy.key(t), p)
                        for t, _ in lattice.expand(s)
                    }
                    assert len(owners - {own}) <= bound, (n, d, p, s, owners)
                    assert len(owners) <= bound + 1
                    states_checked += 1
    _report(
        3,
        f"send-destination fan-out within floor(n/d + max(1, 1/d)) over "
        f"{states_checked} (state, d, p) combinations",
        time.perf_counter() - start,
        30,
    )


# --- criterion 4: communication overhead --------------------------------------


def _co_run(args):
    seed, workers = args
    problem = TilePuzzle(random_solvable(3, 300 + seed))
    sol = hdastar(
        problem, EngineConfig(workers=workers, strategy="random", seed=seed)
    )
    return sol.stats.sent, sol.stats.generated


def _grid_co_run(args):
    seed, strategy = args
    problem = make_grid_problem(seed)
    sol = hdastar(problem, EngineConfig(workers=8, strategy=strategy, seed=1))
    return sol.stats.sent, sol.stats.generated


def test_criterion_4_communication_overhead():
    start = time.perf_counter()
    details = []
    for workers in (4, 8, 16):
        sent = generated = 0
        batch = 0
        while generated < 100_000:
            tasks = [(batch * 20 + i, workers) for i in range(20)]
            for s, g in _pool_map(_co_run, tasks):
                sent += s
                generated += g
            batch += 1
        co = sent / generated
        want = 1 - 1 / workers
        assert abs(co - want) <= 0.02, (workers, co)
        details.append(f"p={workers}: CO={co:.4f}~{want:.4f} over {generated} generations")

    co_by_strategy = {}
    for strategy in ("abstraction", "zobrist"):
        tasks = [(100 + s, strategy) for s in range(50)]
        sent = generated = 0
        for s, g in _pool_map(_grid_co_run, tasks):
            sent += s
            generated += g
        co_by_strategy[strategy] = sent / generated
    assert co_by_strategy["abstraction"] < co_by_strategy["zobrist"]
    details.append(
        f"grid p=8: CO abstraction {co_by_strategy['abstraction']:.3f} < "
        f"zobrist {co_by_strategy['zobrist']:.3f}"
    )
    _report(4, "; ".join(details), time.perf_counter() - start, 120)


# --- criterion 5: load balance -------------------------------------------------


def test_criterion_5_zobrist_balance():
    start = time.perf_counter()
    puzzle = TilePuzzle(goal_state(4))
    strategy = ZobristStrategy(puzzle, seed=17)
    rng = random.Random(5)
    workers = 8
    counts = [0] * workers
    for _ in range(100_000):
        counts[strategy.owner(strategy.key(random_solvable(4, rng)), workers)] += 1
    ratio = max(counts) / (sum(counts) / workers)
    assert ratio <= 1.05, counts
    _report(
        5,
        f"15-puzzle Zobrist balance max/mean = {ratio:.4f} <= 1.05 at p=8",
        time.perf_counter() - start,
        30,
    )


# --- criterion 6: termination safety -------------------------------------------


def _termination_fuzz(seed):
    rng = random.Random(seed)
    problem = TilePuzzle(random_scramble(3, 12, rng))
    expected = astar(problem).cost
    costs = {}
    violations = []
    for termination in ("two-wave", "time"):
        config = EngineConfig(
            workers=3,
            strategy="zobrist",
            batch_size=2,
            seed=seed,
            termination=termination,
        )
        # A run stops only at a passing detection round, and its post-run
        # check raises if improving work was still pending there.
        try:
            sol = hdastar(problem, config, policy=AdversarialPolicy(seed))
        except SearchInvariantError as exc:
            costs[termination] = None
            violations.append((termination, str(exc)))
        else:
            costs[termination] = sol.cost
    ok = (
        not violations
        and costs["two-wave"] == expected
        and costs["time"] == expected
    )
    return ok, seed, costs, expected, violations


def test_criterion_6_termination_safety():
    start = time.perf_counter()
    results = _pool_map(_termination_fuzz, list(range(1000)))
    bad = [r for r in results if not r[0]]
    assert not bad, bad[:3]
    _report(
        6,
        "1000 adversarial schedules: detection never fired with improving "
        "work pending; both counting modes optimal and agreeing",
        time.perf_counter() - start,
        120,
    )


# --- criterion 7: iterative-allocation bounds -----------------------------------


def test_criterion_7_allocation_bounds():
    start = time.perf_counter()
    assert ratio_bounds(2.0) == (4.0, 8.0 / 3.0)

    # Worst case at the harshest profile: failing iterations take a full
    # billing unit (E = 1), success runs one hour.
    harsh = CostModel("discrete")
    worst = 0.0
    harsh_ratios = []
    for w_plus in range(1, 1025):
        profile = SolverProfile(w_plus, makespan=1.0, fail_time=1.0)
        total, _ = ia_total_cost(profile, 2.0, harsh, max_width=4096)
        r = total / min_width_cost(profile, harsh)
        harsh_ratios.append(r)
        worst = max(worst, r)
    assert worst <= 4.0

    # Average case in the spare-time-reuse regime (E < 1), where iterations
    # share billing units; at E = 1 exactly no reuse is possible and the
    # empirical mean (reported below) sits above the analytic average bound.
    reuse = CostModel("discrete", spare_reuse=True)
    ratios = []
    for w_plus in range(1, 1025):
        profile = SolverProfile(w_plus, makespan=1.0, fail_time=0.5)
        total, _ = ia_total_cost(profile, 2.0, reuse, max_width=4096)
        ratios.append(total / min_width_cost(profile, reuse))
    mean = sum(ratios) / len(ratios)
    assert mean <= 8.0 / 3.0 + 0.05
    assert max(ratios) <= 4.0
    harsh_mean = sum(harsh_ratios) / len(harsh_ratios)
    _report(
        7,
        f"W+ in 1..1024, b=2: worst {worst:.4f} <= 4; mean {mean:.4f} <= "
        f"8/3+0.05 with spare-time reuse at E=0.5 (E=1 mean {harsh_mean:.4f} "
        "shown for reference); analytic bounds exact",
        time.perf_counter() - start,
        10,
    )


# --- criterion 8: serial degeneration -------------------------------------------


def test_criterion_8_degeneration():
    start = time.perf_counter()
    for seed in range(10):
        problem = TilePuzzle(random_solvable(3, 40 + seed))
        serial, serial_traces = traced(astar, problem)
        par, par_traces = traced(
            hdastar, problem, EngineConfig(workers=1, strategy="zobrist")
        )
        assert par.cost == serial.cost
        a = json.dumps(serial_traces["search"]).encode()
        b = json.dumps(par_traces["worker 0"]).encode()
        assert a == b, f"trace mismatch on seed {40 + seed}"
    _report(
        8,
        "10 instances: single-worker expansion traces byte-identical to serial",
        time.perf_counter() - start,
        10,
    )


# --- criterion 9: state count ----------------------------------------------------


def test_criterion_9_state_count():
    start = time.perf_counter()
    exact = state_count(5)
    assert exact == math.factorial(25) // 2
    assert exact == 7_755_605_021_665_492_992_000_000
    assert abs(exact / 7.76e24 - 1) < 0.001
    _report(9, f"(5x5)!/2 = {exact} ~ 7.76e24", time.perf_counter() - start, 10)


# --- criterion 10: speedup sanity (reported, not asserted) ------------------------


def test_criterion_10_speedup_report():
    start = time.perf_counter()
    cores = os.cpu_count() or 1
    if cores < 4:
        print(
            f"ACCEPTANCE 10 REPORTED: skipped measurement; {cores} cores "
            "available, criterion requires >= 4 physical cores (soft, "
            "machine-dependent, non-gating)"
        )
        return
    if not os.environ.get("PARSEARCH_SPEEDUP"):
        print(
            "ACCEPTANCE 10 REPORTED: measurement disabled by default; set "
            "PARSEARCH_SPEEDUP=1 to time a 15-puzzle (serial solve > 5s) "
            "against interleaved hdastar p=4 (soft, non-gating)"
        )
        return
    problem = TilePuzzle(random_scramble(4, 50, 9))
    serial = astar(problem)
    if serial.stats.wall_time <= 5.0:
        problem = TilePuzzle(random_scramble(4, 70, 9))
        serial = astar(problem)
    parallel = hdastar(problem, EngineConfig(workers=4, strategy="zobrist"))
    print(
        f"ACCEPTANCE 10 REPORTED: serial {serial.stats.wall_time:.1f}s vs "
        f"hdastar/zobrist p=4 interleaved {parallel.stats.wall_time:.1f}s "
        f"(cost {serial.cost} == {parallel.cost}; the interleaved driver runs "
        "one worker at a time, so wall-clock gains need one process per worker)"
    )
    assert parallel.cost == serial.cost
    _report(10, "speedup report emitted", time.perf_counter() - start, 600)
