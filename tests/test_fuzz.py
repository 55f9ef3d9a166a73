"""Differential fuzzing over the explicit-graph instance space.

The domain contract admits zero-cost edges, admissible but inconsistent
heuristics, several goals, dead ends and self-loops; the other suites draw
from tiles, grids, lattices and a few hand-written graphs, all with positive
costs. Here a seeded generator draws small random digraphs from that whole
space, Dijkstra from the goals gives each node's exact cost-to-go h*, and
every engine must agree with it: the optimal engines return C* with a path
whose edge costs sum to C*, and dovetailing returns a valid path that costs
at least C*. HDA* runs two configurations per graph, rotated over every
combination of graph-capable strategy, detection mode, worker count and
schedule, so each combination meets many graphs.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random

import pytest

from parsearch.common import EPS, INF
from parsearch.domains import ExplicitGraph, parse_graph
from parsearch.engine import (
    AdversarialPolicy,
    EngineConfig,
    HDAStar,
    dovetail,
    parallel_window,
    spastar,
)
from parsearch.engine.core import TERMINATIONS
from parsearch.serial import astar, idastar, uniform_cost_oracle

COSTS = (0.0, 0.5, 1.0, 2.0, 3.0, 5.0)
WORKERS = (1, 2, 3, 5)
# Every strategy that routes any state; hyperplane routes lattices only.
GRAPH_STRATEGIES = ("zobrist", "azh", "mult", "abstraction", "random")
HDA_CONFIGS = list(
    itertools.product(GRAPH_STRATEGIES, TERMINATIONS, WORKERS, (False, True))
)
GRAPHS = 2000
HDA_PER_GRAPH = 2  # HDA* configurations run on each graph
BUDGET = 20_000  # expansions per solve; no correct run on these graphs nears it


class FuzzGraph(ExplicitGraph):
    """An explicit graph whose `expand` raises once a solve has used up
    `budget` calls, so a search that never ends fails the fuzz instead of
    hanging it."""

    budget = BUDGET

    def expand(self, state):
        self.budget -= 1
        if self.budget < 0:
            raise RuntimeError("expansion budget used up")
        return super().expand(state)


def cost_to_go(edges, goals) -> dict:
    """h*: Dijkstra from the goals over the reversed edges."""
    into: dict = {}
    for u, v, cost in edges:
        into.setdefault(v, []).append((u, cost))
    dist = {t: 0.0 for t in goals}
    pq = [(0.0, t) for t in goals]
    while pq:
        d, v = heapq.heappop(pq)
        if d > dist[v]:
            continue
        for u, cost in into.get(v, ()):
            if d + cost < dist.get(u, INF):
                dist[u] = d + cost
                heapq.heappush(pq, (d + cost, u))
    return dist


def random_graph(rng: random.Random) -> tuple[FuzzGraph, float]:
    """A digraph on 3-14 nodes with n-4n distinct edges (self-loops
    included), costs from COSTS, 1-2 goals and, per node, h drawn from
    {0, h*, u*h*, floor(u*h*)} with u uniform in [0, 1); a node that
    reaches no goal gets 0 or inf. Returns the graph and C*."""
    n = rng.randint(3, 14)
    nodes = [f"n{i}" for i in range(n)]
    pairs = list(itertools.product(nodes, nodes))
    pairs = rng.sample(pairs, min(rng.randint(n, 4 * n), n * n))
    edges = [(u, v, rng.choice(COSTS)) for u, v in pairs]
    goals = set(rng.sample(nodes, rng.randint(1, 2)))
    exact = cost_to_go(edges, goals)
    h_values = {}
    for node in nodes:
        best = exact.get(node, INF)
        if best == INF:
            h_values[node] = rng.choice((0.0, INF))
            continue
        u = rng.random()
        h_values[node] = rng.choice((0.0, best, u * best, float(math.floor(u * best))))
    graph = FuzzGraph(edges, nodes[0], goals, h_values)
    return graph, exact.get(nodes[0], INF)


def path_cost(graph: ExplicitGraph, path: list) -> float:
    """The edge costs of `path` summed; a missing edge or a path that does
    not run from the start to a goal raises AssertionError."""
    assert path[0] == graph.initial and graph.is_goal(path[-1]), path
    edges = {(u, v): cost for u, out in graph.adj.items() for v, cost in out}
    return sum(edges[pair] for pair in zip(path, path[1:]))


def check_solution(graph, optimum, sol, optimal=True) -> None:
    if optimum == INF:
        assert (sol.cost, sol.path) == (INF, [])
        return
    cost = path_cost(graph, sol.path)
    assert abs(cost - sol.cost) <= EPS, (cost, sol.cost)
    if optimal:
        assert abs(sol.cost - optimum) <= EPS, (sol.cost, optimum)
    else:
        assert sol.cost >= optimum - EPS, (sol.cost, optimum)


def hda_rotation(rng: random.Random):
    """HDA* configurations without end: each round is every combination
    once, in a seeded order."""
    while True:
        yield from rng.sample(HDA_CONFIGS, len(HDA_CONFIGS))


def hda_solver(rng: random.Random, hda_config):
    """(name, solve, optimal) for HDA* under one rotated configuration, with
    a drawn batch size and schedule seed."""
    strategy, termination, workers, adversarial = hda_config
    seed = rng.randrange(1 << 16)
    config = EngineConfig(
        workers=workers,
        strategy=strategy,
        termination=termination,
        batch_size=rng.choice((1, 2, 10)),
        seed=seed,
    )
    policy = AdversarialPolicy(seed) if adversarial else None
    name = f"hdastar {strategy} {termination} p={workers} adversarial={adversarial}"
    return name, lambda g: HDAStar(g, config, policy=policy).run(), True


def solvers(rng: random.Random, rotation):
    """(name, solve, optimal) for each engine run on one graph."""
    shared = EngineConfig(workers=rng.choice(WORKERS), seed=rng.randrange(1 << 16))
    return [
        ("astar", astar, True),
        ("idastar", idastar, True),
        ("uniform_cost", uniform_cost_oracle, True),
        (f"spastar p={shared.workers}", lambda g: spastar(g, shared), True),
        (f"window p={shared.workers}", lambda g: parallel_window(g, shared), True),
        ("dovetail", dovetail, False),
        *(hda_solver(rng, next(rotation)) for _ in range(HDA_PER_GRAPH)),
    ]


def test_every_engine_matches_the_oracle_on_random_graphs():
    # The rotation meets every HDA* configuration many times.
    assert GRAPHS * HDA_PER_GRAPH >= 40 * len(HDA_CONFIGS)
    rng = random.Random(39)
    rotation = hda_rotation(random.Random(40))
    failures = []
    for index in range(GRAPHS):
        graph, optimum = random_graph(rng)
        for name, solve, optimal in solvers(rng, rotation):
            graph.budget = BUDGET
            try:
                check_solution(graph, optimum, solve(graph), optimal)
            except Exception as exc:  # collect every failure, not just the first
                failures.append(f"graph {index}, {name}: {type(exc).__name__} {exc}")
    assert not failures, f"{len(failures)} failures, first: {failures[:5]}"


# Six zero-cost edges and h = 0: under `random` one state can be stored at
# both workers, with copies that tie on g.
ZERO_CYCLE = """
start s
goal t
s a 0
a b 0
b c 0
c d 0
d a 0
d t 0
"""


@pytest.mark.parametrize("seed", range(16))
def test_zero_cost_cycle_under_random_routing(seed):
    graph = parse_graph(ZERO_CYCLE)
    config = EngineConfig(workers=2, strategy="random", batch_size=1, seed=seed)
    sol = HDAStar(graph, config).run()
    assert sol.cost == 0.0
    assert sol.path == ["s", "a", "b", "c", "d", "t"]
