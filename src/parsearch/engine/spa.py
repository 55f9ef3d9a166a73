"""Simple parallel A*: one shared open/closed list.

The survey's SPA* is serial A* whose workers take the shared open list in
turn under a lock. On the interleaved driver a step runs to completion
before the next action, as if the whole of it held that lock, so the
workers pop nodes in exactly serial A*'s order. `SPAStar` is therefore one
`serial.BestFirstSearch` whose steps the workers take: worker w's step is
A*'s step charged to worker w's counters. The first goal popped is
optimal, because no other worker can hold a cheaper node at that moment, and
the search stops there.
"""

from __future__ import annotations

from parsearch.common import EPS, SearchInvariantError
from parsearch.domains.base import SearchProblem
from parsearch.engine.core import Engine, EngineConfig
from parsearch.serial import BestFirstSearch, SearchStats, Solution


class SPAStar(Engine):
    algorithm = "spastar"

    def __init__(self, problem: SearchProblem, config: EngineConfig | None = None):
        super().__init__(problem, config)
        self.search = BestFirstSearch(problem, node_limit=self.config.node_limit)
        # Worker 0's counters are the search's own, which hold the root insert.
        self.stats = [self.search.stats, *(SearchStats() for _ in range(self.p - 1))]

    def step(self, w: int) -> None:
        """A*'s step on the shared lists, charged to worker w."""
        if not self.search.step(self.stats[w]):
            self.finished = True

    def check(self) -> None:
        if self.search.table.min_f() < self.search.goal_cost - EPS:
            raise SearchInvariantError("premature termination: open beats incumbent")

    def result(self):
        return self.search.result()


def spastar(problem: SearchProblem, config: EngineConfig | None = None) -> Solution:
    return SPAStar(problem, config).run()
