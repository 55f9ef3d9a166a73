"""Overhead measures: SO, CO, LB, efficiency fraction."""

import pytest

from parsearch.common import EPS, INF
from parsearch.domains import ExplicitGraph, TilePuzzle, random_solvable
from parsearch.engine import EngineConfig, hdastar
from parsearch.engine.window import parallel_window
from parsearch.metrics import efficiency_fraction, overheads
from parsearch.serial import SearchStats, Solution, astar
from tests.conftest import traced


class TestOverheads:
    def test_single_worker_run_has_no_overhead(self, tile_suite_small):
        p = tile_suite_small[0]
        serial = astar(p)
        par = hdastar(p, EngineConfig(workers=1))
        report = overheads(serial, par)
        assert report.search_overhead == 0.0
        assert report.communication_overhead == 0.0
        assert report.load_balance == 1.0

    def test_random_strategy_co_matches_expectation(self):
        # aggregate CO over enough generations approaches 1 - 1/p
        workers = 4
        sent = generated = 0
        for seed in range(25):
            p = TilePuzzle(random_solvable(3, seed))
            sol = hdastar(
                p, EngineConfig(workers=workers, strategy="random", seed=seed)
            )
            sent += sol.stats.sent
            generated += sol.stats.generated
        assert generated >= 20_000
        assert abs(sent / generated - (1 - 1 / workers)) <= 0.02

    def test_abstraction_beats_zobrist_co_on_grids(self, grid_suite_small):
        workers = 8
        co = {}
        for strategy in ("abstraction", "zobrist"):
            sent = generated = 0
            for p in grid_suite_small[:5]:
                sol = hdastar(p, EngineConfig(workers=workers, strategy=strategy))
                sent += sol.stats.sent
                generated += sol.stats.generated
            co[strategy] = sent / generated
        assert co["abstraction"] < co["zobrist"]

    def test_load_balance_undefined_error(self):
        empty = Solution(0.0, [], SearchStats(), per_worker=[SearchStats()])
        serial = Solution(1.0, [], SearchStats(expanded=10))
        with pytest.raises(ValueError, match="load balance undefined"):
            overheads(serial, empty)


class TestEfficiencyFraction:
    def test_serial_fraction_at_most_one(self, tile_suite_small):
        for p in tile_suite_small[:5]:
            sol = astar(p)
            frac = efficiency_fraction(sol, sol.cost)
            assert 0.0 <= frac <= 1.0

    def test_all_expansions_at_optimal_cost(self):
        # per-node h equals true distance: every expanded f equals C*
        g = ExplicitGraph(
            [("s", "a", 1), ("a", "t", 1)],
            "s",
            {"t"},
            h_values={"s": 2.0, "a": 1.0},
        )
        sol = astar(g)
        assert sol.cost == 2.0
        assert efficiency_fraction(sol, sol.cost) == 0.0

    def test_parallel_expands_serial_nodes_below_optimal_cost(
        self, tile_suite_small
    ):
        # Under a consistent h every optimal best-first search expands
        # exactly the states with f < C*, so HDA*'s set below C* is A*'s.
        # The fractions themselves are not ordered: A*'s tie-breaking may
        # pop many f = C* nodes before its goal where HDA* pops few.
        def below(trace, c_star):
            return {state for state, _, f in trace if f < c_star - EPS}

        for p in tile_suite_small[:8]:
            serial, serial_traces = traced(astar, p)
            par, par_traces = traced(hdastar, p, EngineConfig(workers=4, seed=1))
            assert par.cost == serial.cost
            merged = [entry for trace in par_traces.values() for entry in trace]
            assert below(merged, serial.cost) == below(
                serial_traces["search"], serial.cost
            )

    def test_zero_expansions_error(self):
        with pytest.raises(ValueError, match="nothing expanded"):
            efficiency_fraction(Solution(1.0, [], SearchStats()), 1.0)

    def test_unrecorded_expansion_f_error(self):
        # the window engine records no per-expansion f: no fraction, not 0.0
        sol = parallel_window(
            TilePuzzle(random_solvable(3, 7)), EngineConfig(workers=2)
        )
        assert sol.solved and sol.stats.expanded > 0
        assert len(sol.stats.expanded_f) == 0
        with pytest.raises(ValueError, match="not recorded"):
            efficiency_fraction(sol, sol.cost)

    def test_no_optimal_cost_error(self):
        # An unsolvable instance has no C*: no fraction, not 1.0.
        g = ExplicitGraph([("s", "a", 1)], "s", {"t"})
        sol = astar(g)
        assert not sol.solved and sol.stats.expanded > 0
        with pytest.raises(ValueError, match="no optimal cost"):
            efficiency_fraction(sol, INF)
