"""Simple parallel A*: one shared open/closed list.

A worker's step pops a globally best node, expands it and inserts the
successors back into the shared lists. The driver runs one step at a time,
so a step is atomic, as if the whole of it held the survey's exclusive lock.
A worker that finds a goal lowers the shared incumbent; the search ends as
soon as nothing on the open list beats the incumbent, because at that check
every other worker is idle.
"""

from __future__ import annotations

from parsearch.common import EPS, SearchInvariantError
from parsearch.domains.base import SearchProblem, successors_of
from parsearch.engine.core import Engine, EngineConfig, Incumbent
from parsearch.serial import NodeTable, SearchStats, Solution, reconstruct_path


class SPAStar(Engine):
    algorithm = "spastar"

    def __init__(self, problem: SearchProblem, config: EngineConfig | None = None):
        super().__init__(problem, config)
        self.incumbent = Incumbent()
        self.successors = successors_of(problem)
        self.table = NodeTable(node_limit=self.config.node_limit, where="shared lists")
        self.stats = [SearchStats() for _ in range(self.p)]
        if self.config.record_trace:
            self.traces = [[] for _ in range(self.p)]
        root = problem.initial
        self.table.insert(root, 0.0, problem.h(root), None, self.stats[0])

    def step(self, w: int) -> None:
        """Pop, expand, reinsert; finish when nothing beats the incumbent."""
        table = self.table
        if table.min_f() >= self.incumbent.cost - EPS:
            self.finished = True
            return
        stats = self.stats[w]
        state, g, h, _ = table.pop(stats)
        if self.traces is not None:
            self.traces[w].append((state, g, g + h))
        if self.problem.is_goal(state):
            self.incumbent.offer(g, state)
        successors = self.successors(state, h)
        stats.generated += len(successors)
        for succ, cost, h1, _ in successors:
            table.insert(succ, g + cost, h1, state, stats)

    def check(self) -> None:
        if self.table.min_f() < self.incumbent.cost - EPS:
            raise SearchInvariantError("premature termination: open beats incumbent")

    def result(self):
        path = reconstruct_path(self.incumbent.state, self.table.entry)
        return self.incumbent.cost, path


def spastar(problem: SearchProblem, config: EngineConfig | None = None) -> Solution:
    return SPAStar(problem, config).run()
