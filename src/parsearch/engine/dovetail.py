"""Dovetailing portfolio: weighted A* under several weights at once.

Each weight runs as its own searcher (worker), with no information
exchange. `Dovetail` is an `Engine` whose ready list holds only the
worker whose turn it is: the searchers take one expansion each in round
robin, a searcher that exhausts its space leaves the rotation, and the
first to find a goal wins and ends the run. The result carries the winning weight
and is optimal only when that weight is 1.
"""

from __future__ import annotations

from collections import deque

from parsearch.common import INF, ConfigError
from parsearch.domains.base import SearchProblem
from parsearch.engine.core import Engine, EngineConfig
from parsearch.serial import DEFAULT_NODE_LIMIT, BestFirstSearch, Solution

DEFAULT_WEIGHTS = (1.0, 1.5, 2.0, 3.0, INF)


class Dovetail(Engine):
    algorithm = "dovetail"

    def __init__(self, problem: SearchProblem, weights, node_limit: int):
        self.weights = tuple(weights)
        if not self.weights:
            raise ConfigError("at least one weight required")
        super().__init__(
            problem, EngineConfig(workers=len(self.weights), node_limit=node_limit)
        )
        self.searchers = [BestFirstSearch(problem, w, node_limit) for w in self.weights]
        self.stats = [s.stats for s in self.searchers]
        self.turns = deque(range(self.p))  # head: the worker whose turn it is
        self.winner: int | None = None

    def ready(self) -> list[int]:
        return [self.turns[0]]

    def step(self, w: int) -> None:
        self.turns.popleft()
        searcher = self.searchers[w]
        if searcher.step(searcher.stats):
            self.turns.append(w)
        elif searcher.goal_cost < INF:
            self.winner = w
            self.finished = True
        elif not self.turns:
            self.finished = True  # every searcher exhausted without a goal

    def result(self):
        if self.winner is None:
            return INF, []
        return self.searchers[self.winner].result()

    def meta(self) -> dict:
        meta = {"weights": list(self.weights)}
        if self.winner is not None:
            weight = self.weights[self.winner]
            meta["winner_weight"] = weight
            meta["optimal_guarantee"] = weight == 1.0
        return meta


def dovetail(
    problem: SearchProblem,
    weights=DEFAULT_WEIGHTS,
    *,
    node_limit: int = DEFAULT_NODE_LIMIT,
) -> Solution:
    return Dovetail(problem, weights, node_limit).run()
