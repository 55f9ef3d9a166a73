"""Parallel window search: workers run independent IDA* iterations.

A shared monotone dispenser hands out f-cost bounds: the next bound is the
smallest pruned f-value (reported by finished iterations) that exceeds
every bound claimed so far. Each iteration is a bounded depth-first search
that returns the cheapest solution within its bound, and when a solution is
found at bound b the engine waits for every iteration holding a smaller
bound before declaring the best solution optimal.
"""

from __future__ import annotations

from parsearch.common import EPS, INF
from parsearch.domains.base import SearchProblem, validate_path
from parsearch.engine.core import Engine, EngineConfig
from parsearch.serial import BoundedDFS, SearchStats, Solution, merge_stats


class ParallelWindow(Engine):
    CHUNK = 256  # DFS events advanced per step

    def __init__(self, problem: SearchProblem, config: EngineConfig | None = None):
        super().__init__(problem, config)
        self.claimed: list[float] = []
        self.exceeds: set[float] = set()
        self.running: dict[int, float] = {}
        self.solutions: list[tuple[float, list, float]] = []
        # Goal costs per claimed bound, in discovery order; bounds in
        # completion order.
        self.solution_logs: dict[float, list[float]] = {}
        self.slots: list = [None] * self.p
        self.stats = [SearchStats() for _ in range(self.p)]
        self.result_cost = INF
        self.result_path: list = []

    def _peek_claim(self) -> float | None:
        if not self.claimed:
            return self.problem.h(self.problem.initial)
        mx = max(self.claimed)
        candidates = [v for v in self.exceeds if v > mx + EPS]
        return min(candidates) if candidates else None

    def runnable(self, w: int) -> bool:
        if self.slots[w] is not None:
            return True
        if self._peek_claim() is not None:
            return True
        return not self.running  # a step is needed to conclude the search

    def _try_finish(self) -> None:
        """Finish when the wait-for-lower-bounds rule allows it."""
        if self.solutions:
            cost, path, bound = min(self.solutions, key=lambda s: (s[0], s[2]))
            if not any(rb < bound - EPS for rb in self.running.values()):
                self.result_cost = cost
                self.result_path = path
                self.finished = True
        elif not self.running and self._peek_claim() is None:
            self.finished = True  # space exhausted below every claimed bound

    def step(self, w: int) -> None:
        slot = self.slots[w]
        if slot is None:
            bound = self._peek_claim()
            if bound is None:
                self._try_finish()
                return
            self.claimed.append(bound)
            self.running[w] = bound
            dfs = BoundedDFS(
                self.problem,
                bound,
                find_best=True,
                expansion_limit=self.config.node_limit,
            )
            self.slots[w] = (bound, dfs)
            return
        bound, dfs = slot
        dfs.run_chunk(self.CHUNK)
        if dfs.done:
            stats = self.stats[w]
            stats.expanded += dfs.expanded
            stats.generated += dfs.generated
            stats.iteration_expansions.append(dfs.expanded)
            self.exceeds.update(dfs.exceed_values)
            self.running.pop(w, None)
            self.solution_logs[bound] = dfs.solution_log
            if dfs.best_cost < INF:
                self.solutions.append((dfs.best_cost, dfs.best_path, bound))
            self._try_finish()
            self.slots[w] = None

    def run(self) -> Solution:
        _, wall = self.drive()
        first_incumbent = next(
            (log[0] for log in self.solution_logs.values() if log), None
        )
        if self.result_path:
            validate_path(self.problem, self.result_path)
        stats = merge_stats(self.stats)
        stats.wall_time = wall
        return Solution(
            self.result_cost,
            self.result_path,
            stats,
            per_worker=self.stats,
            meta={
                "algorithm": "parallel_window",
                "workers": self.p,
                "bounds": sorted(self.claimed),
                "first_incumbent": first_incumbent,
                "solution_logs": self.solution_logs,
                "execution": "interleaved",
                "seed": self.config.seed,
            },
        )


def parallel_window(
    problem: SearchProblem, config: EngineConfig | None = None
) -> Solution:
    return ParallelWindow(problem, config).run()
