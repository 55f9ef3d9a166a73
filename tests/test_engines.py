"""Parallel engine behavior: cost agreement, degeneration, adversarial cases."""

import gc
import itertools
import json
import os
import random
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import pytest

from parsearch.common import (
    EPS,
    INF,
    ConfigError,
    NodeLimitExceeded,
    SearchInvariantError,
)
from parsearch.domains import (
    ExplicitGraph,
    LatticeProblem,
    TilePuzzle,
    goal_state,
    missorder_graph,
    random_scramble,
    random_solvable,
    validate_path,
)
from parsearch.engine import (
    AdversarialPolicy,
    EagerWorkerPolicy,
    EngineConfig,
    SchedulePolicy,
    dovetail,
    hdastar,
    parallel_window,
    spastar,
)
from parsearch.engine.core import ChannelTransport, Engine
from parsearch.engine.dovetail import DEFAULT_WEIGHTS, Dovetail
from parsearch.engine.hda import HDAStar
from parsearch.engine.spa import SPAStar
from parsearch.engine.window import ParallelWindow
from parsearch.hashing import Strategy
from parsearch.metrics import overheads
from parsearch.serial import (
    DEFAULT_NODE_LIMIT,
    BestFirstSearch,
    astar,
    idastar,
    uniform_cost_oracle,
    wastar,
)
from parsearch.termination import time_ring_check, two_wave_check
from tests.conftest import make_grid_problem, traced


SRC = Path(__file__).resolve().parents[1] / "src"


def test_reopen_branch_serial_and_single_worker_engines():
    # The inconsistent h(a) = 4 makes A* close c at g=3 before the cheaper
    # path through a (g=2) is found, so c is reopened exactly once.
    g = ExplicitGraph(
        [("s", "a", 1), ("s", "c", 3), ("a", "c", 1), ("c", "t", 5)],
        "s",
        {"t"},
        h_values={"a": 4},
    )
    for sol in (
        astar(g),
        spastar(g, EngineConfig(workers=1)),
        hdastar(g, EngineConfig(workers=1)),
    ):
        assert sol.cost == 7.0
        assert sol.path == ["s", "a", "c", "t"]
        assert sol.stats.reopened == 1


class MappedStrategy(Strategy):
    """Test-only ownership: an explicit state -> worker map."""

    name = "mapped"

    def __init__(self, assign):
        self.assign = assign

    def key(self, state):
        return self.assign[state]


def reopening_lattice() -> LatticeProblem:
    """A 9x9x9 lattice whose unequal step costs and h = 0 make HDA* reopen
    often; serial A* expands 1000 nodes on it."""
    patterns = [pat for pat in itertools.product((0, 1), repeat=3) if any(pat)]
    costs = dict(zip(patterns, (1.0, 2.0, 2.5, 3.0, 3.5, 4.5, 5.0)))
    return LatticeProblem((9, 9, 9), costs)


# name -> build(seed) for each schedule policy the HDA* tests run under
POLICIES = {
    "default": SchedulePolicy,
    "adversarial": AdversarialPolicy,
    "eager": lambda seed: EagerWorkerPolicy(),
}


def check_send_invariant(engine) -> list:
    """Wrap each worker's `step` to assert, before each pop, that every child
    the worker holds unsent has f >= its open list's least f - EPS. The
    returned list counts the pops made while some child was held."""
    held_pops = [0]
    for worker in engine.workers:

        def checked(stats, worker=worker, step=worker.step):
            mf = worker.table.min_f()
            held = [g + h for buf in worker.out for _, g, h, _, _ in buf]
            assert all(f >= mf - EPS for f in held), (worker.id, mf, min(held))
            held_pops[0] += bool(held)
            return step(stats)

        worker.step = checked
    return held_pops


class ContractOnly:
    """A problem seen through the six contract members alone: no hooks."""

    def __init__(self, problem):
        self.initial = problem.initial
        self.is_goal = problem.is_goal
        self.expand = problem.expand
        self.h = problem.h
        self.features = problem.features
        self.canonical_bytes = problem.canonical_bytes


def test_contract_fallback_matches_successors_hook():
    # Without successors an engine expands through expand, a full h and a
    # None move (full key recompute); the search it runs must be the one it
    # runs with the hook.
    lattice_costs = {
        pat: 1.0 + 0.25 * i
        for i, pat in enumerate(
            pat for pat in itertools.product((0, 1), repeat=3) if any(pat)
        )
    }
    for puzzle in (
        TilePuzzle(random_solvable(3, 12)),
        TilePuzzle(random_scramble(4, 30, 5)),
        LatticeProblem((3, 3, 2), lattice_costs),
    ):
        bare, hookless = puzzle, ContractOnly(puzzle)
        assert not hasattr(hookless, "successors")
        assert not hasattr(hookless, "move_features")
        (a, ta), (b, tb) = traced(astar, bare), traced(astar, hookless)
        assert (a.cost, a.stats.expanded, ta) == (b.cost, b.stats.expanded, tb)
        for engine in (spastar, hdastar):
            cfg = EngineConfig(workers=3, seed=4)
            (a, ta), (b, tb) = traced(engine, bare, cfg), traced(engine, hookless, cfg)
            assert (a.cost, a.stats.expanded, ta) == (
                b.cost, b.stats.expanded, tb
            ), engine.__name__
        cfg = EngineConfig(workers=3, seed=4)
        a, b = parallel_window(bare, cfg), parallel_window(hookless, cfg)
        assert (a.cost, a.stats.expanded, a.meta["bounds"]) == (
            b.cost, b.stats.expanded, b.meta["bounds"]
        )
        assert [w.iteration_expansions for w in a.per_worker] == [
            w.iteration_expansions for w in b.per_worker
        ]


TILE_SOLVERS = {
    "astar": astar,
    "wastar": lambda p: wastar(p, 2.0),
    "uniform_cost": uniform_cost_oracle,
    "idastar": idastar,
    "spastar": lambda p: spastar(p, EngineConfig(workers=4, seed=3)),
    "hdastar-p1": lambda p: hdastar(p, EngineConfig(workers=1, seed=3)),
    "hdastar-p4": lambda p: hdastar(p, EngineConfig(workers=4, seed=3)),
    "window": lambda p: parallel_window(p, EngineConfig(workers=4, seed=3)),
    "dovetail": dovetail,
}


@pytest.mark.parametrize("name", TILE_SOLVERS)
def test_tile_paths_are_reported_as_tuples(name):
    # Tile states are bytes inside the search; every solver reports its path
    # as the tuples it was given, also through the contract members alone,
    # where no tile method is left to convert them.
    solve = TILE_SOLVERS[name]
    for n, start in ((3, random_scramble(3, 30, 5)), (4, random_scramble(4, 14, 5))):
        for problem in (TilePuzzle(start), ContractOnly(TilePuzzle(start))):
            sol = solve(problem)
            assert sol.solved and sol.cost > 0
            assert all(type(state) is tuple for state in sol.path)
            assert sol.path[0] == start and sol.path[-1] == goal_state(n)
            assert validate_path(problem, sol.path) == sol.cost


class TestSPAStar:
    def test_single_worker_matches_serial_expanded_set(self, tile_suite_small):
        # A step is atomic under the driver, so at any worker count SPA*
        # expands and generates exactly serial A*'s nodes, stopping at the
        # goal it pops; a stop while another worker still held a popped
        # node would lose expansions here.
        for p in tile_suite_small[:5]:
            serial, serial_traces = traced(astar, p)
            serial_set = {s for s, _, _ in serial_traces["search"]}
            for workers in (1, 4):
                par, par_traces = traced(spastar, p, EngineConfig(workers=workers))
                assert par.cost == serial.cost
                par_set = {s for s, _, _ in par_traces["search"]}
                assert serial_set == par_set, workers
                for name in ("expanded", "generated", "duplicates", "reopened"):
                    got, want = getattr(par.stats, name), getattr(serial.stats, name)
                    assert got == want, (workers, name)

    def test_matches_oracle(self, tile_suite_small, tile3_bfs):
        for p in tile_suite_small:
            for workers in (2, 4):
                sol = spastar(p, EngineConfig(workers=workers, seed=1))
                assert sol.cost == tile3_bfs[p.initial]
                validate_path(p, sol.path)

    def test_missorder_graph(self):
        sol = spastar(missorder_graph(), EngineConfig(workers=2, seed=5))
        assert sol.cost == 2.0


class TestHDAStar:
    def test_matches_oracle_across_strategies(self, tile_suite_small, tile3_bfs):
        for p in tile_suite_small[:8]:
            want = tile3_bfs[p.initial]
            for strategy in ("zobrist", "azh", "mult", "abstraction", "random"):
                for workers in (2, 4):
                    cfg = EngineConfig(workers=workers, strategy=strategy, seed=3)
                    sol = hdastar(p, cfg)
                    assert sol.cost == want, (strategy, workers)

    def test_graph_suite_all_strategies(self, graph_suite):
        for g in graph_suite:
            want = astar(g).cost
            for strategy in ("zobrist", "azh", "mult", "abstraction", "random"):
                sol = hdastar(g, EngineConfig(workers=3, strategy=strategy, seed=7))
                assert sol.cost == want, strategy

    def test_single_worker_trace_byte_identical(self, tile_suite_small):
        extra = [TilePuzzle(random_solvable(3, 40 + s)) for s in range(10)]
        for p in tile_suite_small[:5] + extra:
            serial, serial_traces = traced(astar, p)
            a = json.dumps(serial_traces["search"]).encode()
            for engine, where in ((hdastar, "worker 0"), (spastar, "search")):
                par, par_traces = traced(engine, p, EngineConfig(workers=1))
                assert par.cost == serial.cost
                b = json.dumps(par_traces[where]).encode()
                assert a == b, engine.__name__

    def test_post_run_check_survives_optimized_python(self):
        # A step that only finishes leaves the root open in either engine;
        # each engine's post-run check must catch it even under -O, which
        # strips asserts.
        script = """
from parsearch.common import SearchInvariantError
from parsearch.domains import ExplicitGraph
from parsearch.engine import EngineConfig
from parsearch.engine.hda import HDAStar
from parsearch.engine.spa import SPAStar

g = ExplicitGraph([("s", "a", 1), ("a", "t", 1)], "s", {"t"})

print("debug:", __debug__)
# An HDA* run whose step stops at once leaves the root open below INF.
hda = HDAStar(g, EngineConfig(workers=2, seed=1))
hda.step = lambda w: setattr(hda, "finished", True)
try:
    hda.run()
except SearchInvariantError as exc:
    print("raised:", exc)
else:
    print("not raised")

# An SPA* run whose step stops at once leaves the root open below INF.
spa = SPAStar(g, EngineConfig(workers=2, seed=1))
spa.step = lambda w: setattr(spa, "finished", True)
try:
    spa.run()
except SearchInvariantError as exc:
    print("spa raised:", exc)
else:
    print("spa not raised")
"""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        out = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert out.returncode == 0, out.stderr
        assert "debug: False" in out.stdout
        assert "raised: premature termination" in out.stdout
        assert "spa raised: premature termination: open beats incumbent" in out.stdout

    @pytest.mark.parametrize("where", ["channel", "mailbox"])
    def test_post_run_check_sees_work_in_flight(self, where):
        # Stop a run while its only open work is a batch in a channel or a
        # mailbox: the check must name the premature stop, which only its
        # walk over the transport can see, since every open list is empty.
        g = ExplicitGraph([("s", "a", 1), ("a", "t", 1)], "s", {"t"})
        strategy = MappedStrategy({"s": 0, "a": 1, "t": 1})
        eng = HDAStar(g, EngineConfig(workers=2, batch_size=1), strategy=strategy)
        while not eng.transport.pending_channels():
            eng.step(0)
        if where == "mailbox":
            eng.deliver((0, 1))
            assert eng.workers[1].box
        assert all(w.table.min_f() == INF for w in eng.workers)
        eng.finished = True
        with pytest.raises(SearchInvariantError, match="premature termination"):
            eng.check()

    def test_non_owner_delivery_raises_under_optimized_python(self):
        # A triplet planted in a non-owner's mailbox must be refused on
        # receipt, also under -O, which strips assert statements; a random
        # key names its owner as any other key does.
        script = """
from parsearch.common import SearchInvariantError
from parsearch.domains import TilePuzzle, random_scramble
from parsearch.engine import EngineConfig
from parsearch.engine.hda import HDAStar

puzzle = TilePuzzle(random_scramble(3, 12, 1))
print("debug:", __debug__)
for token in ("zobrist", "random"):
    engine = HDAStar(puzzle, EngineConfig(workers=2, seed=1, strategy=token))
    state = puzzle.expand(puzzle.initial)[0][0]
    key = engine.strategy.key(state)
    wrong = 1 - engine.strategy.owner(key, 2)
    engine.transport.boxes[wrong].append(
        ("W", 0, [(state, 1.0, puzzle.h(state), puzzle.initial, key)])
    )
    try:
        engine.step(wrong)
    except SearchInvariantError as exc:
        print(token, "raised:", exc)
    else:
        print(token, "not raised")
"""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        out = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert out.returncode == 0, out.stderr
        assert "debug: False" in out.stdout
        for token in ("zobrist", "random"):
            want = f"{token} raised: state delivered to a non-owner worker"
            assert want in out.stdout, out.stdout

    def test_carried_keys_equal_recomputed_keys(self):
        from parsearch.domains import LatticeProblem

        lattice = LatticeProblem((4, 5, 3))
        problems = [
            TilePuzzle(random_solvable(3, 5)),
            TilePuzzle(random_scramble(4, 30, 2)),
            lattice,
        ]
        tokens = ("zobrist", "azh", "mult", "abstraction")
        runs = [(p, t, {}) for p in problems for t in tokens]
        runs.append((lattice, "hyperplane", {"d": "1/2"}))
        for problem, token, strategy_config in runs:
            cfg = EngineConfig(
                workers=4, strategy=token, seed=6, strategy_config=strategy_config
            )
            eng = HDAStar(problem, cfg)
            key = eng.strategy.key
            sent = []
            send = eng.transport.send

            def record(src, dst, item, send=send):
                if item[0] == "W":
                    sent.extend(item[2])
                send(src, dst, item)

            eng.transport.send = record
            sol = eng.run()
            assert sol.cost == astar(problem).cost
            assert sent, token
            for state, _g, _h, _parent, k in sent:
                assert k == key(state), (token, state)
            entries = [
                e for w in eng.workers for e in w.table.nodes.items() if len(e[1]) == 4
            ]
            for state, (_g, _parent, _h, k) in entries:
                assert k == key(state), (token, state)

    def test_carried_h_equals_recomputed_h(self):
        problems = [
            TilePuzzle(random_solvable(3, 5)),
            TilePuzzle(random_scramble(4, 30, 2)),
            LatticeProblem((4, 5, 3)),
            make_grid_problem(101),
        ]
        for problem in problems:
            eng = HDAStar(problem, EngineConfig(workers=4, seed=6))
            sent = []
            send = eng.transport.send

            def record(src, dst, item, send=send):
                if item[0] == "W":
                    sent.extend(item[2])
                send(src, dst, item)

            eng.transport.send = record
            sol = eng.run()
            assert sol.cost == astar(problem).cost
            assert sent, problem
            for state, _g, h, _parent, _k in sent:
                assert h == problem.h(state), state
            entries = [
                e for w in eng.workers for e in w.table.nodes.items() if len(e[1]) == 4
            ]
            for state, (_g, _parent, h, _k) in entries:
                assert h == problem.h(state), state

    def test_strategies_keep_no_per_state_memory(self):
        p = TilePuzzle(random_scramble(4, 30, 4))
        for token in ("zobrist", "azh", "mult", "abstraction", "random"):
            eng = HDAStar(p, EngineConfig(workers=4, strategy=token, seed=2))
            eng.run()
            seen = set()
            for w in eng.workers:
                seen.update(w.table.nodes)
            strategy = eng.strategy
            for name, value in vars(strategy).items():
                if isinstance(value, (dict, set)):
                    assert not any(k in seen for k in value), (token, name)
            table = getattr(strategy, "table", None)
            if table is not None:
                assert len(table) <= 16 * 16, token
            # One entry per distinct move: 4n(n - 1) directed blank moves
            # on the n x n board, each with one of n^2 - 1 tiles.
            move_xor = getattr(strategy, "_move_xor", None)
            if move_xor is not None:
                assert 0 < len(move_xor) <= 4 * 4 * 3 * 15, token

    def test_popped_goal_generates_no_children(self):
        # t is a goal with a child u; its children have f >= g(t), the
        # incumbent, so none would ever be expanded, and none is generated.
        g = ExplicitGraph([("s", "t", 1), ("t", "u", 1)], "s", {"t"})
        for workers in (1, 2):
            sol = hdastar(g, EngineConfig(workers=workers, seed=1))
            assert sol.cost == 1.0 and sol.path == ["s", "t"]
            assert sol.stats.generated == 1, workers

    def test_missorder_forces_reopen_and_stays_optimal(self):
        g = missorder_graph()
        assign = {"a": 0, "c": 0, "d": 0, "b": 1}
        cfg = EngineConfig(workers=2, batch_size=1, seed=1)
        eng = HDAStar(g, cfg, strategy=MappedStrategy(assign), policy=EagerWorkerPolicy())
        sol = eng.run()
        assert sol.cost == 2.0
        assert sol.per_worker[0].reopened >= 1
        assert sol.path == ["a", "b", "d"]

    def test_explicit_strategy_refuses_strategy_config(self):
        g = missorder_graph()
        strategy = MappedStrategy({"a": 0, "c": 0, "d": 0, "b": 1})
        config = EngineConfig(workers=2, strategy_config={"multiplier": "0.5"})
        with pytest.raises(ConfigError, match="strategy_config"):
            HDAStar(g, config, strategy=strategy)
        assert HDAStar(g, EngineConfig(workers=2), strategy=strategy).run().cost == 2.0

    def test_message_conservation(self, tile_suite_small):
        p = tile_suite_small[1]
        sol = hdastar(p, EngineConfig(workers=4, seed=2))
        assert sol.stats.sent == sol.stats.received
        assert sol.stats.sent_batches == sol.stats.received_batches

    def test_counter_sanity(self, tile_suite_small):
        # the root is the only expandable node that was never generated
        for p in tile_suite_small[:5]:
            for sol in (
                astar(p),
                hdastar(p, EngineConfig(workers=3, seed=1)),
                spastar(p, EngineConfig(workers=3, seed=1)),
            ):
                stats = sol.stats
                assert stats.expanded <= stats.generated + 1
                assert stats.reopened <= stats.generated
                assert stats.max_open >= 1

    def test_batch_sizes(self, tile_suite_small):
        p = tile_suite_small[2]
        want = astar(p).cost
        for batch in (1, 10, 100):
            sol = hdastar(p, EngineConfig(workers=3, batch_size=batch, seed=4))
            assert sol.cost == want

    def test_single_item_batches_solve_within_limit(self):
        # One expansion per step keeps the backlog of single-item messages
        # bounded; workers that outrun their deliveries chase stale local
        # nodes past the limit.
        p = TilePuzzle(random_scramble(4, 60, 4))
        config = EngineConfig(workers=8, batch_size=1, node_limit=30_000)
        assert hdastar(p, config).cost == 34

    def test_same_layer_child_is_sent_at_once(self):
        # From the centre blank, moving tile 5 up keeps the root's f and
        # moving tile 4 right raises it by 2; both children go to worker 1.
        problem = TilePuzzle((1, 2, 3, 4, 0, 6, 7, 5, 8))
        same = bytes((1, 2, 3, 4, 5, 6, 7, 0, 8))
        deeper = bytes((1, 2, 3, 0, 4, 6, 7, 5, 8))
        root_f = problem.h(problem.initial)
        assert 1 + problem.h(same) == root_f
        assert 1 + problem.h(deeper) == root_f + 2
        assign = {child: 0 for child, _ in problem.expand(problem.initial)}
        assign.update({problem.initial: 0, same: 1, deeper: 1})
        config = EngineConfig(workers=2, batch_size=10, seed=1)
        eng = HDAStar(problem, config, strategy=MappedStrategy(assign))
        eng.step(0)
        assert eng.transport.pending_channels() == [(0, 1)]
        ((kind, _stamp, batch),) = eng.transport.channels[0, 1]
        assert kind == "W" and [item[0] for item in batch] == [same]
        assert [item[0] for item in eng.workers[0].out[1]] == [deeper]

    def test_held_child_is_sent_before_a_worse_pop(self):
        # b (f = 1) lies above the root's f-layer and waits in worker 0's
        # batch for worker 1; worker 0 must send it before it pops c (f = 2).
        g = ExplicitGraph(
            [("a", "b", 1), ("a", "c", 2), ("b", "t", 1), ("c", "t", 5)], "a", {"t"}
        )
        strategy = MappedStrategy({"a": 0, "b": 1, "c": 0, "t": 0})
        config = EngineConfig(workers=2, batch_size=10, seed=1)
        eng = HDAStar(g, config, strategy=strategy)
        eng.step(0)
        assert [item[0] for item in eng.workers[0].out[1]] == ["b"]
        assert eng.transport.pending_channels() == []
        eng.step(0)
        assert eng.workers[0].stats.expanded == 2
        ((kind, _stamp, batch),) = eng.transport.channels[0, 1]
        assert kind == "W" and [item[0] for item in batch] == ["b"]
        assert eng.workers[0].out[1] == []

    def test_no_child_is_held_past_a_worse_pop(self):
        # The send invariant holds at every pop, whatever the schedule.
        # Under the eager policy HDA* runs for minutes on a 3x3 tile, so
        # that policy runs only on the lattice.
        lattice, tile = reopening_lattice(), TilePuzzle(random_scramble(3, 12, 32))
        runs = [(lattice, policy) for policy in POLICIES]
        runs += [(tile, "default"), (tile, "adversarial")]
        held_pops = {lattice: 0, tile: 0}
        for problem, policy in runs:
            want = astar(problem).cost
            for workers in (2, 8, 32):
                engine = HDAStar(problem, EngineConfig(workers=workers, seed=1))
                engine.policy = POLICIES[policy](1)
                counted = check_send_invariant(engine)
                assert engine.run().cost == want
                held_pops[problem] += counted[0]
        assert min(held_pops.values()) > 0, held_pops

    def test_lattice_search_overhead_bounded(self):
        # h = 0 and unequal step costs: children wait behind no worse pop,
        # so HDA* expands at most 1.25x what A* does.
        problem = reopening_lattice()
        serial = astar(problem)
        assert serial.stats.expanded == 1000
        for workers in (16, 32):
            sol = hdastar(problem, EngineConfig(workers=workers, seed=1))
            assert sol.cost == serial.cost
            assert sol.stats.expanded <= 1.25 * serial.stats.expanded, workers

    def test_unflushed_batch_blocks_detection(self):
        # Both children lie above the root's f-layer (h = 0), so they wait in
        # worker 0's batch for worker 1 while worker 0's open list is empty
        # and no message has been counted: only the batch scan in
        # `quiescent` stands between the detectors and a false pass.
        g = ExplicitGraph(
            [("a", "b", 1), ("a", "c", 1), ("b", "t", 1), ("c", "t", 1)], "a", {"t"}
        )
        strategy = MappedStrategy({"a": 0, "b": 1, "c": 1, "t": 0})
        for termination in ("two-wave", "time"):
            config = EngineConfig(
                workers=2, batch_size=10, seed=1, termination=termination
            )
            eng = HDAStar(g, config, strategy=strategy)
            eng.step(0)
            worker = eng.workers[0]
            assert [item[0] for item in worker.out[1]] == ["b", "c"]
            assert worker.table.min_f() == INF
            assert not worker.quiescent
            assert not two_wave_check(eng.workers)
            assert not time_ring_check(eng.workers)
            # Stopped here, the run leaves no improving work in a channel or
            # an open list, but the post-run check's detector sees the batch.
            assert eng.improving_work_pending() == []
            with pytest.raises(SearchInvariantError, match="not quiescent"):
                eng.check()

    def test_search_overhead_independent_of_batch_size(self):
        # Same-layer children do not wait for a full batch, so a larger
        # batch neither starves receivers nor runs a worker past its limit.
        problem = TilePuzzle(random_scramble(4, 60, 4))
        serial = astar(problem)
        for batch in (10, 100):
            config = EngineConfig(
                workers=32, batch_size=batch, seed=42, node_limit=20_000
            )
            sol = hdastar(problem, config)
            assert sol.cost == serial.cost == 34
            assert overheads(serial, sol).search_overhead <= 0.25, batch

    def test_batch_size_defaults(self):
        for workers in (4, 16, 32):
            assert EngineConfig(workers=workers).batch_size == 10

    def test_node_limit(self):
        p = TilePuzzle(random_scramble(4, 60, 3))
        with pytest.raises(NodeLimitExceeded):
            hdastar(p, EngineConfig(workers=2, node_limit=100, seed=1))

    def test_node_limit_must_be_a_nonnegative_integer(self):
        for limit in (-3, 1.5, True, None):
            with pytest.raises(ConfigError):
                EngineConfig(node_limit=limit)
        p = TilePuzzle(goal_state(3))
        for engine in (spastar, hdastar):
            with pytest.raises(NodeLimitExceeded):  # the root alone exceeds 0
                engine(p, EngineConfig(workers=2, node_limit=0))

    def test_unsolvable_all_workers_agree(self):
        g = ExplicitGraph([("s", "a", 1)], "s", {"t"})
        for workers in (1, 2, 4, 8):
            sol = hdastar(g, EngineConfig(workers=workers, seed=1))
            assert sol.cost == INF

    def test_hyperplane_strategy_on_lattice(self):
        from parsearch.domains import LatticeProblem
        from parsearch.serial import uniform_cost_oracle

        p = LatticeProblem((3, 4))
        want = uniform_cost_oracle(p).cost
        for d in ("1", "2", "1/2"):
            cfg = EngineConfig(
                workers=4, strategy="hyperplane", seed=2, strategy_config={"d": d}
            )
            assert hdastar(p, cfg).cost == want


class TestParallelWindow:
    def test_single_worker_matches_serial_idastar(self, tile_suite_small):
        # p=1 claims exactly the serial bound sequence, each with the floor
        # at the bound, so every iteration is IDA*'s, node for node.
        costs = {(1, 0, 0): 1.0, (0, 1, 0): 1.5, (0, 0, 1): 2.0, (1, 1, 0): 2.5,
                 (1, 0, 1): 2.75, (0, 1, 1): 3.0, (1, 1, 1): 3.25}
        for p in [*tile_suite_small, LatticeProblem((3, 2, 2), costs)]:
            serial = idastar(p)
            par = parallel_window(p, EngineConfig(workers=1))
            assert par.cost == serial.cost
            assert len(par.meta["bounds"]) == len(serial.stats.iteration_expansions)
            assert par.stats.expanded == serial.stats.expanded
            assert par.stats.generated == serial.stats.generated
            assert (
                par.per_worker[0].iteration_expansions
                == serial.stats.iteration_expansions
            )

    def test_matches_oracle(self, tile_suite_small, tile3_bfs):
        # Tile f-values move in steps of 2: a finished iteration exposes only
        # the next bound, which is also the new floor, so at any p the
        # iterations run one at a time and the last stops where IDA* stops.
        for p in tile_suite_small:
            ida_expanded = idastar(p).stats.expanded
            for workers in (2, 4):
                sol = parallel_window(p, EngineConfig(workers=workers, seed=2))
                assert sol.cost == tile3_bfs[p.initial]
                assert sol.stats.expanded == ida_expanded
                validate_path(p, sol.path)

    def test_suboptimal_goal_not_returned_early(self):
        # The dispenser legitimately skips from bound 1 to bound 10 (the
        # only pruned values the first iterations expose), and the bound-10
        # iteration reaches the deep costly goal first. The engine must not
        # return that solution: it keeps searching within the bound and
        # waits for the lower-bound iteration before answering.
        g = ExplicitGraph(
            [("s", "t1", 10), ("s", "y", 1), ("y", "t2", 1)],
            "s",
            {"t1", "t2"},
        )
        sol = parallel_window(g, EngineConfig(workers=2, seed=0))
        assert sol.cost == 2.0
        assert sol.meta["first_incumbent"] == 10.0
        assert sol.meta["solution_logs"][10.0] == [10.0, 2.0]

    def test_unsolvable(self):
        g = ExplicitGraph([("s", "a", 1)], "s", {"t"})
        for workers in (1, 3):
            sol = parallel_window(g, EngineConfig(workers=workers))
            assert sol.cost == INF

    def test_initial_is_goal(self):
        p = TilePuzzle(goal_state(3))
        for workers in (1, 3):
            sol = parallel_window(p, EngineConfig(workers=workers))
            assert sol.cost == 0.0
            assert sol.path == [tuple(p.initial)]
            assert sol.meta["bounds"] == [0.0]
            assert sol.stats.expanded == 0

    def test_infinite_root_heuristic_unsolvable(self):
        # The first bound is h(initial) = inf; the root is still searched.
        g = ExplicitGraph([("s", "a", 1)], "s", {"t"}, {"s": INF})
        assert idastar(g).cost == INF
        assert parallel_window(g, EngineConfig(workers=2)).cost == INF

    def test_cut_off_iterations_count_their_work(self):
        # The run ends while iterations at higher bounds still run; their
        # expansions count in the stats (every successors call of the run is
        # one), but only finished iterations list in iteration_expansions.
        rng = random.Random(1)
        patterns = [p for p in itertools.product((0, 1), repeat=3) if any(p)]
        costs = {p: round(rng.uniform(1, 3), 2) for p in patterns}
        lattice = LatticeProblem((3, 3, 3), costs)
        records = []

        def counted(state, h, parent=None):
            succs = lattice.successors(state, h, parent)
            records.append(len(succs))
            return succs

        problem = ContractOnly(lattice)  # its expand, for validation, is uncounted
        problem.successors = counted
        sol = parallel_window(problem, EngineConfig(workers=4, seed=1))
        assert sol.stats.expanded == len(records) == 16_820
        assert sol.stats.generated == sum(records)
        finished = sum(sum(w.iteration_expansions) for w in sol.per_worker)
        assert finished == 16_255

    def test_claimed_bounds_strictly_ascend(self, tile_suite_small):
        # The dispenser reads the last claim as the largest one.
        pairs = 0
        for p in tile_suite_small:
            engine = ParallelWindow(p, EngineConfig(workers=4, seed=2))
            engine.run()
            claimed = engine.claimed
            pairs += len(claimed) - 1
            assert all(a < b for a, b in zip(claimed, claimed[1:]))
        assert pairs >= len(tile_suite_small)


class TestDovetail:
    def test_weight_one_only_is_optimal(self, tile_suite_small, tile3_bfs):
        for p in tile_suite_small[:5]:
            sol = dovetail(p, weights=(1.0,))
            assert sol.cost == tile3_bfs[p.initial]
            assert sol.meta["optimal_guarantee"] is True

    def test_bounded_by_winner_weight(self, tile_suite_small, tile3_bfs):
        for p in tile_suite_small[:10]:
            sol = dovetail(p, weights=(2.0,))
            assert sol.cost <= 2.0 * tile3_bfs[p.initial] + 1e-9
            validate_path(p, sol.path)

    def test_default_portfolio_returns_valid_path(self, tile_suite_small):
        for p in tile_suite_small[:5]:
            sol = dovetail(p)
            assert sol.solved
            validate_path(p, sol.path)
            assert sol.meta["winner_weight"] in (1.0, 1.5, 2.0, 3.0, INF)

    def test_all_fail_unsolvable(self):
        g = ExplicitGraph([("s", "a", 1)], "s", {"t"})
        sol = dovetail(g)
        assert sol.cost == INF

    def test_rejects_empty_weights(self):
        with pytest.raises(Exception):
            dovetail(TilePuzzle(goal_state(3)), weights=())

    def test_rejects_nan_weight(self):
        with pytest.raises(ConfigError):
            dovetail(TilePuzzle(goal_state(3)), weights=(1.0, float("nan")))

    def test_round_robin_turns(self, tile_suite_small):
        # Two identical searchers alternate one expansion each, so the first
        # reaches the goal on its k-th expansion while the second has had
        # k - 1: [356, 355], [676, 675] and [495, 494] on the first three.
        for p in tile_suite_small[:3]:
            serial = astar(p)
            sol = dovetail(p, weights=(1.0, 1.0))
            assert sol.meta["winner_weight"] == 1.0
            assert sol.cost == serial.cost
            k = serial.stats.expanded
            assert [w.expanded for w in sol.per_worker] == [k, k - 1]
            assert sol.meta["workers"] == 2
            assert sol.meta["execution"] == "interleaved"


def rescan(transport):
    """Reference order of the pending channels: non-empty, first-send order."""
    return [c for c, q in transport.channels.items() if q]


def scan_hda(engine):
    """Reference ready list: HDA*'s predicate evaluated over every worker."""
    return [w for w in range(engine.p) if engine._can_step(w)]


def scan_window(engine):
    """Reference ready list: the window engine's per-worker predicate as it
    stood before the engine kept a ready list, next bound over max(claimed)."""

    def peek_claim():
        if not engine.claimed:
            return engine.problem.h(engine.problem.initial)
        mx = max(engine.claimed)
        candidates = [v for v in engine.exceeds if v > mx + EPS]
        return min(candidates) if candidates else None

    def runnable(w):
        if engine.slots[w] is not None:
            return True
        if peek_claim() is not None:
            return True
        return not any(engine.slots)

    return [w for w in range(engine.p) if runnable(w)]


def scan_dovetail(engine):
    """Reference ready list: the worker whose turn it is."""
    return [w for w in range(engine.p) if engine.turns[0] == w]


class CheckedPolicy:
    """Delegates to a policy after checking, on every tick, the engine's
    ready list against a reference scan and the pending list against a
    rescan of the channels."""

    def __init__(self, engine, inner, scan=scan_hda):
        self.engine = engine
        self.inner = inner
        self.scan = scan
        self.ticks = 0
        self.deliveries = 0
        self.control_deliveries = 0

    def choose(self, steps, delivers):
        assert steps == self.scan(self.engine)
        transport = self.engine.transport
        if transport is not None:
            assert delivers == rescan(transport)
        kind, arg = self.inner.choose(steps, delivers)
        self.ticks += 1
        if kind == "deliver":
            self.deliveries += 1
            self.control_deliveries += transport.channels[arg][0][0] == "C"
        return kind, arg


class TestChannelTransport:
    def test_pending_list_matches_rescan(self):
        rng = random.Random(11)
        t = ChannelTransport(5)
        sent = delivered = 0
        for _ in range(4000):
            pending = t.pending_channels()
            if pending and rng.random() < 0.5:
                t.deliver(rng.choice(pending))
                delivered += 1
            else:
                t.send(rng.randrange(5), rng.randrange(5), sent)
                sent += 1
            assert t.pending_channels() == rescan(t)
        assert len(t.channels) == 25
        assert delivered > 1000
        assert sent - delivered == sum(len(q) for q in t.channels.values())

    def _checked_run(self, problem, config, inner):
        engine = HDAStar(problem, config)
        engine.policy = CheckedPolicy(engine, inner)
        sol = engine.run()
        assert engine.policy.ticks == sol.meta["ticks"]
        assert engine.policy.deliveries > 0
        return sol

    def test_pending_list_matches_rescan_every_tick(self):
        lattice = LatticeProblem((4, 4, 4))
        sol = self._checked_run(
            lattice, EngineConfig(workers=32, seed=3), SchedulePolicy(3)
        )
        assert sol.cost == astar(lattice).cost
        tile = TilePuzzle(random_scramble(3, 12, 4))
        want = astar(tile).cost
        for termination in ("two-wave", "time"):
            for seed in range(3):
                config = EngineConfig(
                    workers=3,
                    batch_size=2,
                    seed=seed,
                    termination=termination,
                )
                sol = self._checked_run(tile, config, AdversarialPolicy(seed))
                assert sol.cost == want
        # A 4x4 board at p = 8, and at p = 1, where worker 0 sends its
        # detection waves to itself through a channel. Seed 7's adversarial
        # delivery bias (0.34) is low enough to hold messages back for
        # long stretches; below about 0.3 the p = 8 channel backlog grows
        # without end.
        tile = TilePuzzle(random_scramble(4, 30, 1))
        want = astar(tile).cost
        for workers in (1, 8):
            for termination in ("two-wave", "time"):
                for policy in (SchedulePolicy, AdversarialPolicy):
                    config = EngineConfig(
                        workers=workers, seed=7, termination=termination
                    )
                    sol = self._checked_run(tile, config, policy(7))
                    assert sol.cost == want

    def test_p32_lattice_schedule_pinned(self):
        # A change to the delivery order changes these counters.
        sol = hdastar(LatticeProblem((6, 6, 6)), EngineConfig(workers=32, seed=7))
        assert sol.cost == 6.0
        assert sol.meta["ticks"] == 2067
        assert [w.expanded for w in sol.per_worker] == [
            7, 11, 13, 9, 10, 11, 13, 9, 11, 12, 11, 11, 11, 13, 8, 14,
            7, 14, 10, 11, 10, 15, 12, 12, 11, 10, 14, 10, 9, 10, 11, 14,
        ]
        assert sol.stats.sent_batches == 1347
        assert sol.meta["detection_rounds"] == 2
        assert sol.meta["detection_waves"] == 3

    def test_p8_tile_schedule_pinned(self):
        # A change to the order of a worker's step changes these counters.
        problem = TilePuzzle(random_scramble(4, 40, 0))
        sol = hdastar(problem, EngineConfig(workers=8, seed=1))
        assert sol.cost == 26.0
        assert sol.meta["ticks"] == 653
        assert [w.expanded for w in sol.per_worker] == [
            34, 43, 39, 40, 34, 38, 40, 29,
        ]
        assert sol.stats.sent_batches == 281
        assert sol.meta["detection_rounds"] == 3
        assert sol.meta["detection_waves"] == 4


class ReferencePolicy:
    """The seeded policy's draws written with `random.Random.random` and
    `.choice`, as the policy made them before its index draw was inlined."""

    def __init__(self, seed, adversarial=False):
        self.rng = random.Random(seed)
        self.bias = self.rng.uniform(0.05, 0.95) if adversarial else 0.9

    def choose(self, steps, delivers):
        if steps and delivers:
            if self.rng.random() < self.bias:
                return "deliver", self.rng.choice(delivers)
            return "step", self.rng.choice(steps)
        if steps:
            return "step", self.rng.choice(steps)
        return "deliver", self.rng.choice(delivers)


class TestPolicyDraws:
    def test_choose_matches_random_choice_reference(self):
        # Every size from 1 to 64 on each side (powers of two and their
        # neighbours included), and either list empty, in a scripted order.
        script = random.Random(17)
        sizes = list(range(65))
        calls = []
        for _ in range(3000):
            n_steps, n_delivers = script.choice(sizes), script.choice(sizes)
            if not n_steps and not n_delivers:
                n_delivers = 1
            steps = list(range(n_steps))
            delivers = [(i, i + 1) for i in range(n_delivers)]
            calls.append((steps, delivers))
        calls += [(list(range(n)), []) for n in range(1, 65)]
        calls += [([], [(0, i) for i in range(n)]) for n in range(1, 65)]
        for seed in (0, 1, 2, 7, 12345):
            for policy, reference in (
                (SchedulePolicy(seed), ReferencePolicy(seed)),
                (AdversarialPolicy(seed), ReferencePolicy(seed, adversarial=True)),
            ):
                assert policy.delivery_bias == reference.bias
                for steps, delivers in calls:
                    assert policy.choose(steps, delivers) == reference.choose(
                        steps, delivers
                    ), (seed, len(steps), len(delivers))

    def test_choose_refuses_two_empty_lists(self):
        with pytest.raises(IndexError):
            SchedulePolicy(0).choose([], [])


class TestTracingHooks:
    def test_wrappers_set_after_construction_see_every_call(self):
        # Wrap the calls perfbench's `trace_engine` wraps, on the instances
        # and after construction, as it does; every call must reach them.
        lattice = LatticeProblem((4, 4, 4))
        tile = TilePuzzle(random_scramble(3, 12, 4))
        for problem, workers in ((lattice, 32), (tile, 8), (tile, 1)):
            for termination in ("two-wave", "time"):
                config = EngineConfig(workers=workers, seed=5, termination=termination)
                engine = HDAStar(problem, config)
                transport = engine.transport
                counts = dict.fromkeys(("step", "send", "deliver", "pending"), 0)

                def counted(name, fn):
                    def wrapper(*args):
                        counts[name] += 1
                        return fn(*args)

                    return wrapper

                engine.step = counted("step", engine.step)
                transport.send = counted("send", transport.send)
                transport.deliver = counted("deliver", transport.deliver)
                transport.pending_channels = counted(
                    "pending", transport.pending_channels
                )
                sol = engine.run()
                assert sol.cost == astar(problem).cost
                ticks = sol.meta["ticks"]
                # Each detection wave is one control message around the ring.
                control = sol.meta["detection_waves"] * workers
                assert counts["send"] == sol.stats.sent_batches + control
                assert counts["step"] + counts["deliver"] == ticks
                assert counts["pending"] == ticks
                assert counts["deliver"] == counts["send"]


def count_improvements(engine) -> list:
    """Wrap the engine's incumbent; the returned list collects each offered
    cost that lowered it."""
    improved = []
    incumbent = engine.incumbent
    offer = incumbent.offer

    def counted(cost, state):
        before = incumbent.cost
        offer(cost, state)
        if incumbent.cost < before:
            improved.append(cost)

    incumbent.offer = counted
    return improved


class TestReadyList:
    def _checked_run(self, engine, inner, scan):
        engine.policy = CheckedPolicy(engine, inner, scan)
        sol = engine.run()
        assert engine.policy.ticks == engine.ticks
        return sol

    def test_hda_ready_list_matches_predicate_every_tick(self):
        patterns = [pat for pat in itertools.product((0, 1), repeat=3) if any(pat)]
        lattice = LatticeProblem((4, 4, 4), {pat: 1 + sum(pat) / 2 for pat in patterns})
        tile = TilePuzzle(random_scramble(3, 16, 7))
        runs = [
            (lattice, workers, {}, termination, policy)
            for workers in (1, 3, 32)
            for termination in ("two-wave", "time")
            for policy in POLICIES
        ] + [
            (tile, 3, {"batch_size": 2}, termination, policy)
            for termination in ("two-wave", "time")
            for policy in ("default", "adversarial")
        ]
        improvements = {}
        for problem, workers, extra, termination, policy in runs:
            config = EngineConfig(
                workers=workers, seed=2, termination=termination, **extra
            )
            engine = HDAStar(problem, config)
            improved = count_improvements(engine)
            sol = self._checked_run(engine, POLICIES[policy](2), scan_hda)
            assert sol.cost == astar(problem).cost == improved[-1]
            # A single worker sends no work, but its detection waves still
            # travel the transport, one delivery each.
            control = engine.policy.control_deliveries
            assert (engine.policy.deliveries > control) == (workers > 1)
            if workers == 1:
                assert control == sol.meta["detection_waves"]
            improvements[problem, workers, termination, policy] = len(improved)
        # A lower incumbent re-checks every worker. Every p=32 lattice run
        # lowers it again after its first goal; in the tile runs the second
        # goal leaves an idle worker whose open list no longer beats the
        # incumbent, which only that re-check drops. The tile instance is
        # one whose four runs all find two goals: most p=3 runs on a 3x3
        # scramble find one, and would not tell a missed re-check.
        for termination, policy in itertools.product(("two-wave", "time"), POLICIES):
            assert improvements[lattice, 32, termination, policy] >= 2
            assert improvements[lattice, 1, termination, policy] == 1
        for termination, policy in itertools.product(
            ("two-wave", "time"), ("default", "adversarial")
        ):
            assert improvements[tile, 3, termination, policy] == 2

    def test_window_and_dovetail_ready_lists_match_old_predicates(
        self, tile_suite_small
    ):
        for problem in tile_suite_small[:3]:
            want = astar(problem).cost
            for workers in (1, 3, 4):
                for inner in (SchedulePolicy(workers), EagerWorkerPolicy()):
                    engine = ParallelWindow(
                        problem, EngineConfig(workers=workers, seed=workers)
                    )
                    sol = self._checked_run(engine, inner, scan_window)
                    assert sol.cost == want
            engine = Dovetail(problem, DEFAULT_WEIGHTS, DEFAULT_NODE_LIMIT)
            sol = self._checked_run(engine, SchedulePolicy(0), scan_dovetail)
            assert sol.solved

    def test_default_ready_list_is_built_once(self, tile_suite_small):
        # SPA* steps any worker: one list of every worker, the same object
        # on every tick, never changed by the driver or the policy.
        engine = SPAStar(tile_suite_small[0], EngineConfig(workers=4, seed=1))
        seen = []
        ready = engine.ready

        def logged():
            seen.append(ready())
            return seen[-1]

        engine.ready = logged
        sol = engine.run()
        assert len(seen) == engine.ticks == sol.stats.expanded
        assert all(r is seen[0] for r in seen)
        assert seen[0] == [0, 1, 2, 3]

    def test_driver_raises_on_stall(self):
        class Stalled(Engine):
            algorithm = "stalled"

            def ready(self):
                return []

        graph = ExplicitGraph([("s", "t", 1)], "s", {"t"})
        for transport in (None, ChannelTransport(2)):
            engine = Stalled(graph, EngineConfig(workers=2))
            engine.transport = transport
            with pytest.raises(RuntimeError, match="interleaver stalled"):
                engine.run()


@pytest.fixture
def gc_disabled():
    """Run the test with the cyclic GC off, so only reference counting
    frees memory."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def lifecycle_engines():
    """name -> build(node_limit) for every engine kind a caller may drop."""
    tile = TilePuzzle(random_scramble(3, 20, 5))
    lattice = LatticeProblem((4, 4, 4))

    def hda(problem, **extra):
        return lambda limit: HDAStar(
            problem, EngineConfig(workers=4, seed=1, node_limit=limit, **extra)
        )

    return {
        "hdastar two-wave": hda(tile),
        "hdastar time": hda(tile, termination="time"),
        "hdastar hyperplane": hda(
            lattice, strategy="hyperplane", strategy_config={"d": "1/2"}
        ),
        "spastar": lambda limit: SPAStar(
            tile, EngineConfig(workers=4, seed=1, node_limit=limit)
        ),
        "window": lambda limit: ParallelWindow(
            tile, EngineConfig(workers=4, seed=1, node_limit=limit)
        ),
        "dovetail": lambda limit: Dovetail(tile, DEFAULT_WEIGHTS, limit),
        "best-first": lambda limit: BestFirstSearch(tile, 1.0, limit),
    }


def run_and_drop(build, node_limit):
    """Build and run an engine, drop it, and return (raised, freed): whether
    the run hit its node limit and whether the engine is gone. A plain
    except, because pytest.raises would keep the traceback alive."""
    engine = build(node_limit)
    ref = weakref.ref(engine)
    raised = False
    try:
        engine.run()
    except NodeLimitExceeded:
        raised = True
    del engine
    return raised, ref() is None


class TestRunMemory:
    def test_dropped_engine_is_freed_without_gc(self, gc_disabled):
        for name, build in lifecycle_engines().items():
            assert run_and_drop(build, DEFAULT_NODE_LIMIT) == (False, True), name
            assert run_and_drop(build, 5) == (True, True), name

    def test_repeated_hda_solves_keep_nothing(self, gc_disabled):
        # A reference cycle anywhere in the engine would keep each solve's
        # tables, about 5 MB here, until a cyclic collection: the collection
        # after each solve must find nothing. A full collection also empties
        # CPython's free lists, so each byte count is what the solve kept,
        # not tuples cached for reuse.
        problem = TilePuzzle(random_scramble(4, 40, 3))
        kept = []
        tracemalloc.start()
        try:
            for _ in range(3):
                gc.collect()
                before = tracemalloc.get_traced_memory()[0]
                engine = HDAStar(problem, EngineConfig(workers=8, seed=3))
                cost = engine.run().cost
                del engine
                assert gc.collect() == 0
                kept.append(tracemalloc.get_traced_memory()[0] - before)
        finally:
            tracemalloc.stop()
        assert cost == astar(problem).cost
        assert max(kept) < 64 * 1024, kept


# (expanded, generated, reopened, duplicates, max_open) of serial A* and
# HDA* p=4; the duplicate and reopen rules of any NodeTable layout must
# reproduce them. The HDA* tile rows also depend on the seeded schedule,
# which moves whenever the messages a run sends change.
PINNED_TABLE_COUNTERS = {
    ("tile", 1): ((676, 1125, 0, 34, 399), (931, 1552, 1, 64, 182)),
    ("tile", 2): ((495, 815, 0, 22, 284), (565, 936, 4, 24, 92)),
    ("tile", 3): ((410, 694, 0, 24, 257), (423, 719, 0, 26, 72)),
    ("lattice", 1): ((1000, 5859, 0, 4860, 185), (1117, 6278, 117, 5027, 89)),
}
TABLE_COUNTERS = ("expanded", "generated", "reopened", "duplicates", "max_open")
# Serial A*'s tile rows as recorded while every expansion also generated
# its parent, a child the table always counted as a duplicate.
PARENT_GENERATING_ASTAR_ROWS = {
    1: (676, 1799, 0, 708, 399),
    2: (495, 1308, 0, 515, 284),
    3: (410, 1102, 0, 432, 257),
}


def test_parent_omission_moves_only_generated_and_duplicates():
    # Every expansion but the root's (no parent) and the goal's (no
    # children) omits one parent record, so serial A* keeps its expanded,
    # reopened and max_open and loses expanded - 2 from both generated and
    # duplicates.
    for seed, old in PARENT_GENERATING_ASTAR_ROWS.items():
        expanded, generated, reopened, duplicates, max_open = old
        omitted = expanded - 2
        new = (expanded, generated - omitted, reopened, duplicates - omitted, max_open)
        assert PINNED_TABLE_COUNTERS["tile", seed][0] == new


def test_node_table_counters_pinned():
    for (kind, seed), want in PINNED_TABLE_COUNTERS.items():
        if kind == "tile":
            problem = TilePuzzle(random_solvable(3, seed))
        else:
            problem = reopening_lattice()
        sols = astar(problem), hdastar(problem, EngineConfig(workers=4, seed=seed))
        got = tuple(
            tuple(getattr(sol.stats, name) for name in TABLE_COUNTERS)
            for sol in sols
        )
        assert got == want, (kind, seed)
