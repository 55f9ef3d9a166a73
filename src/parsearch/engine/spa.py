"""Simple parallel A*: one shared open/closed list under an exclusive lock.

Workers repeatedly pop a globally best node, expand it outside the lock,
and insert the successors back under the lock. A worker that finds a goal
lowers the shared incumbent; the search ends when every worker is idle and
nothing on the open list beats the incumbent.
"""

from __future__ import annotations

import threading

from parsearch.common import EPS, SearchInvariantError
from parsearch.domains.base import SearchProblem, validate_path
from parsearch.engine.core import Engine, EngineConfig, Incumbent
from parsearch.serial import (
    NodeTable,
    SearchStats,
    Solution,
    merge_stats,
    reconstruct_path,
)


class SPAStar(Engine):
    def __init__(self, problem: SearchProblem, config: EngineConfig | None = None):
        super().__init__(problem, config)
        self.incumbent = Incumbent()
        self.lock = threading.Lock()
        self.table = NodeTable(
            problem.h, node_limit=self.config.node_limit, where="shared lists"
        )
        # A worker is idle unless it holds a popped node whose successors are
        # not yet inserted.
        self.idle = [True] * self.p
        self.stats = [SearchStats() for _ in range(self.p)]
        self.traces = (
            [[] for _ in range(self.p)] if self.config.record_trace else None
        )
        self.table.insert(problem.initial, 0.0, None, self.stats[0])

    def runnable(self, w: int) -> bool:
        return not self.finished

    def step(self, w: int) -> bool:
        """Pop, expand, reinsert; False when there was nothing to expand."""
        if self.finished:
            return False
        stats = self.stats[w]
        table = self.table
        with self.lock:
            if table.min_f() >= self.incumbent.cost - EPS:
                self.idle[w] = True
                if all(self.idle):
                    self._stopped = True
                return False
            self.idle[w] = False
            state, g, h, _ = table.pop(stats)
        if self.traces is not None:
            self.traces[w].append((state, g, g + h))
        if self.problem.is_goal(state):
            self.incumbent.offer(g, state)
        successors = self.problem.expand(state)
        stats.generated += len(successors)
        with self.lock:
            for succ, cost in successors:
                table.insert(succ, g + cost, state, stats)
            self.idle[w] = True
        return True

    def run(self) -> Solution:
        _, wall = self.drive()
        if self.table.min_f() < self.incumbent.cost - EPS:
            raise SearchInvariantError("premature termination: open beats incumbent")
        path = reconstruct_path(self.incumbent.state, self.table.entry)
        if path:
            validate_path(self.problem, path)
        stats = merge_stats(self.stats)
        stats.wall_time = wall
        sol = Solution(
            self.incumbent.cost,
            path,
            stats,
            per_worker=self.stats,
            meta={
                "algorithm": "spastar",
                "workers": self.p,
                "execution": self.config.execution,
                "seed": self.config.seed,
            },
        )
        if self.traces is not None:
            sol.meta["trace"] = [list(t) for t in self.traces]
        return sol


def spastar(problem: SearchProblem, config: EngineConfig | None = None) -> Solution:
    return SPAStar(problem, config).run()
