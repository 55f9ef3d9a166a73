"""Shared fixtures: exhaustive oracles and instance suites."""

from __future__ import annotations

import heapq
import random

import pytest

from parsearch.common import INF
from parsearch.domains import (
    ExplicitGraph,
    GridProblem,
    TilePuzzle,
    goal_state,
    grid_expand,
    missorder_graph,
    random_grid,
    random_solvable,
)
from parsearch.serial import NodeTable


def reported(state):
    """A state in the form a Solution reports: a tile's `bytes` state as
    the tuple of its values, any other state as it is."""
    return tuple(state) if type(state) is bytes else state


def traced(run, *args):
    """Call `run(*args)` and record the expansion trace of every node table.

    Returns (result, traces): traces maps each table's `where` name
    ("search", "worker 0", ...) to the (state, g, g + h) of every node it
    popped, in pop order, each state in its `reported` form.
    `NodeTable.pop` is the one place a node is popped, so the record sees
    every expansion without the engines' help.
    """
    traces: dict[str, list] = {}
    pop = NodeTable.pop

    def recording(table, stats):
        node = pop(table, stats)
        if node is not None:
            state, g, h = node[:3]
            traces.setdefault(table.where, []).append((reported(state), g, g + h))
        return node

    NodeTable.pop = recording
    try:
        return run(*args), traces
    finally:
        NodeTable.pop = pop


@pytest.fixture(scope="session")
def tile3_bfs() -> dict:
    """Optimal move counts for every reachable 3x3 state, by breadth-first
    enumeration from the goal (the space is undirected, costs are unit).
    Keyed by the search's form of a state, `bytes`: look up a generated
    tuple as `bytes(state)`."""
    puzzle = TilePuzzle(goal_state(3))
    dist = {puzzle.goal: 0}
    frontier = [puzzle.goal]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for s in frontier:
            for t, _ in puzzle.expand(s):
                if t not in dist:
                    dist[t] = d
                    nxt.append(t)
        frontier = nxt
    assert len(dist) == 181_440  # 9!/2 reachable states
    return dist


def grid_dijkstra(grid, source) -> dict:
    """Plain Dijkstra over a gridmap; the uniform-cost oracle for grids."""
    dist = {source: 0.0}
    pq = [(0.0, source)]
    while pq:
        d, cell = heapq.heappop(pq)
        if d > dist.get(cell, INF):
            continue
        for nxt, cost in grid_expand(grid, cell):
            nd = d + cost
            if nd < dist.get(nxt, INF) - 1e-12:
                dist[nxt] = nd
                heapq.heappush(pq, (nd, nxt))
    return dist


def make_tile_suite(count: int, seed0: int = 0) -> list[TilePuzzle]:
    return [TilePuzzle(random_solvable(3, seed0 + s)) for s in range(count)]


def make_grid_problem(seed: int) -> GridProblem:
    rng = random.Random(seed)
    grid = random_grid(16, 16, 0.25, rng)
    start, goal = (0, 0), (15, 15)
    blocked = set(grid.blocked) - {start, goal}
    grid = type(grid)(16, 16, frozenset(blocked), 8)
    return GridProblem(grid, start, goal)


def make_grid_suite(count: int, seed0: int = 100) -> list[GridProblem]:
    return [make_grid_problem(seed0 + s) for s in range(count)]


def graph_dijkstra_cost(graph: ExplicitGraph) -> float:
    """Independent optimal cost for an explicit graph (plain Dijkstra)."""
    dist = {graph.initial: 0.0}
    pq = [(0.0, graph.initial)]
    while pq:
        d, u = heapq.heappop(pq)
        if d > dist.get(u, INF):
            continue
        for v, cost in graph.adj.get(u, ()):
            nd = d + cost
            if nd < dist.get(v, INF) - 1e-12:
                dist[v] = nd
                heapq.heappush(pq, (nd, v))
    return min((dist[t] for t in graph.goals if t in dist), default=INF)


def make_graph_suite() -> list[ExplicitGraph]:
    """Ten explicit digraphs covering the awkward shapes.

    Includes the expansion-misordering graph (optimal cost 2), an
    unreachable goal, a zero-cost edge, a multi-goal graph, and a trap
    where the first goal reached greedily is suboptimal.
    """
    graphs = [missorder_graph()]
    # chain with a costly shortcut
    graphs.append(
        ExplicitGraph(
            [("s", "a", 1), ("a", "b", 1), ("b", "t", 1), ("s", "t", 10)],
            "s",
            {"t"},
        )
    )
    # diamond with equal-cost routes
    graphs.append(
        ExplicitGraph(
            [("s", "a", 1), ("s", "b", 1), ("a", "t", 1), ("b", "t", 1)],
            "s",
            {"t"},
        )
    )
    # unreachable goal
    graphs.append(ExplicitGraph([("s", "a", 1)], "s", {"t"}))
    # zero-cost edge on the optimal route
    graphs.append(
        ExplicitGraph(
            [("s", "a", 0), ("a", "t", 2), ("s", "t", 3)],
            "s",
            {"t"},
        )
    )
    # two goals, the nearer one not the first generated
    graphs.append(
        ExplicitGraph(
            [("s", "g1", 5), ("s", "a", 1), ("a", "g2", 1)],
            "s",
            {"g1", "g2"},
        )
    )
    # suboptimal trap: heuristic zero everywhere, deep cheap route
    graphs.append(
        ExplicitGraph(
            [
                ("s", "x", 6),
                ("x", "t", 6),
                ("s", "c1", 1),
                ("c1", "c2", 1),
                ("c2", "c3", 1),
                ("c3", "t", 1),
            ],
            "s",
            {"t"},
        )
    )
    # start is a goal
    graphs.append(ExplicitGraph([("s", "a", 1)], "s", {"s"}))
    # parallel edges of different costs (cheapest must win)
    graphs.append(
        ExplicitGraph(
            [("s", "t", 3), ("s", "t", 1), ("s", "t", 2)],
            "s",
            {"t"},
        )
    )
    # wide hub fanning into a bottleneck
    edges = [("s", f"m{i}", 1 + i % 3) for i in range(6)]
    edges += [(f"m{i}", "t", 3 - i % 3) for i in range(6)]
    graphs.append(ExplicitGraph(edges, "s", {"t"}))
    return graphs


@pytest.fixture(scope="session")
def tile_suite_small() -> list[TilePuzzle]:
    return make_tile_suite(20)


@pytest.fixture(scope="session")
def grid_suite_small() -> list[GridProblem]:
    return make_grid_suite(10)


@pytest.fixture(scope="session")
def graph_suite() -> list[ExplicitGraph]:
    return make_graph_suite()
