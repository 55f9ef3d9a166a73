"""Serial searches against oracles and each other."""

import math
from types import SimpleNamespace

import pytest

from parsearch.common import INF, ConfigError, NodeLimitExceeded
from parsearch.domains import (
    ExplicitGraph,
    GridProblem,
    TilePuzzle,
    goal_state,
    missorder_graph,
    parse_grid,
    random_scramble,
    validate_path,
)
from parsearch.serial import (
    BestFirstSearch,
    BoundedDFS,
    astar,
    idastar,
    uniform_cost_oracle,
    wastar,
)
from tests.conftest import traced


class TestAstar:
    def test_initial_is_goal(self):
        p = TilePuzzle(goal_state(3))
        sol = astar(p)
        assert sol.cost == 0.0
        assert sol.path == [tuple(p.goal)]
        assert sol.stats.expanded == 1

    def test_missorder_graph(self):
        sol = astar(missorder_graph())
        assert sol.cost == 2.0
        assert sol.path == ["a", "b", "d"]

    def test_matches_bfs_oracle(self, tile_suite_small, tile3_bfs):
        for p in tile_suite_small:
            sol = astar(p)
            assert sol.cost == tile3_bfs[p.initial]
            validate_path(p, sol.path)

    def test_consistent_heuristic_never_reopens(self, tile_suite_small, grid_suite_small):
        for p in tile_suite_small + grid_suite_small:
            assert astar(p).stats.reopened == 0

    def test_no_expansion_beyond_optimal(self, tile_suite_small):
        for p in tile_suite_small:
            sol = astar(p)
            assert max(sol.stats.expanded_f) <= sol.cost + 1e-9

    def test_deterministic_expansion_order(self, tile_suite_small):
        p = tile_suite_small[0]
        _, t1 = traced(astar, p)
        _, t2 = traced(astar, p)
        assert t1["search"] == t2["search"]

    def test_node_limit_raises(self):
        p = TilePuzzle(random_scramble(4, 40, 1))
        with pytest.raises(NodeLimitExceeded):
            astar(p, node_limit=50)

    def test_bad_node_limit_is_a_config_error(self):
        p = TilePuzzle(random_scramble(3, 10, 1))
        for call in (
            lambda: astar(p, node_limit=-1),
            lambda: astar(p, node_limit=2.5),
            lambda: wastar(p, 2.0, node_limit=True),
            lambda: uniform_cost_oracle(p, node_limit=None),
            lambda: idastar(p, node_limit=-1),
            lambda: idastar(TilePuzzle(goal_state(3)), node_limit=-1),
        ):
            with pytest.raises(ConfigError):
                call()


class TestUniformCost:
    def test_agrees_with_astar(self, tile_suite_small, graph_suite):
        for p in tile_suite_small[:5] + graph_suite:
            assert uniform_cost_oracle(p).cost == astar(p).cost

    def test_searches_blind_on_tiles(self):
        # The tile hook successors must not leak into the oracle's h = 0 view.
        p = TilePuzzle(random_scramble(3, 20, 4))
        blind = SimpleNamespace(
            initial=p.initial, is_goal=p.is_goal, expand=p.expand, h=lambda s: 0.0
        )
        oracle = uniform_cost_oracle(p)
        assert oracle.stats.expanded == BestFirstSearch(blind).run().stats.expanded
        assert oracle.stats.expanded > astar(p).stats.expanded

    def test_empty_grid_corner_to_corner(self):
        g = parse_grid("3 3 8\n...\n...\n...")
        sol = uniform_cost_oracle(GridProblem(g, (0, 0), (2, 2)))
        assert abs(sol.cost - 2 * math.sqrt(2)) <= 1e-9

    def test_unreachable_goal(self):
        g = ExplicitGraph([("s", "a", 1)], "s", {"t"})
        sol = uniform_cost_oracle(g)
        assert sol.cost == INF
        assert sol.path == []


class TestIdastar:
    def test_initial_is_goal_one_iteration(self):
        p = TilePuzzle(goal_state(3))
        sol = idastar(p)
        assert sol.cost == 0.0
        assert len(sol.stats.iteration_expansions) == 1

    def test_matches_astar(self, tile_suite_small, tile3_bfs):
        for p in tile_suite_small:
            sol = idastar(p)
            assert sol.cost == tile3_bfs[p.initial]
            validate_path(p, sol.path)

    def test_reexpands_at_least_astar_in_aggregate(self, tile_suite_small):
        # A lucky final-iteration DFS can beat A* on one easy instance, but
        # graph re-expansion dominates across a suite.
        ida_total = sum(idastar(p).stats.expanded for p in tile_suite_small)
        astar_total = sum(astar(p).stats.expanded for p in tile_suite_small)
        assert ida_total >= astar_total

    def test_unsolvable_finite_space(self):
        g = ExplicitGraph([("s", "a", 1), ("a", "s", 1)], "s", {"t"})
        sol = idastar(g)
        assert sol.cost == INF
        assert sol.meta["bounds"] == len(sol.stats.iteration_expansions) == 2


class TestBoundedDFS:
    # The costly goal t1 is generated first; the cheap one, t2, under y.
    GRAPH = ExplicitGraph(
        [("s", "t1", 10), ("s", "y", 1), ("y", "t2", 1)], "s", {"t1", "t2"}
    )

    def test_floor_below_first_goal_returns_cheapest_within_bound(self):
        it = BoundedDFS(self.GRAPH, 10.0, 1.0).run()
        assert it.solution_log == [10.0, 2.0]
        assert (it.best_cost, it.best_path, it.expanded) == (2.0, ["s", "y", "t2"], 2)

    def test_floor_at_first_goal_stops_there(self):
        it = BoundedDFS(self.GRAPH, 10.0, 10.0).run()
        assert it.solution_log == [10.0]
        assert (it.best_cost, it.best_path, it.expanded) == (10.0, ["s", "t1"], 1)


class TestWeightedAstar:
    def test_weight_one_is_astar(self, tile_suite_small):
        for p in tile_suite_small[:10]:
            assert wastar(p, 1.0).cost == astar(p).cost

    def test_bounded_suboptimality(self, tile_suite_small, tile3_bfs):
        for p in tile_suite_small:
            sol = wastar(p, 2.0)
            assert sol.cost <= 2.0 * tile3_bfs[p.initial] + 1e-9
            validate_path(p, sol.path)

    def test_greedy_returns_valid_path(self, tile_suite_small):
        for p in tile_suite_small[:10]:
            sol = wastar(p, INF)
            assert sol.solved
            validate_path(p, sol.path)

    def test_rejects_weight_below_one(self):
        p = TilePuzzle(goal_state(3))
        with pytest.raises(Exception):
            wastar(p, 0.5)

    def test_rejects_nan_weight(self):
        with pytest.raises(ConfigError):
            wastar(TilePuzzle(goal_state(3)), math.nan)
