"""Parallel window search: workers run independent IDA* iterations.

A shared monotone dispenser hands out f-cost bounds: the next bound is the
smallest pruned f-value (reported by finished iterations) that exceeds
every bound claimed so far. Each iteration is a bounded depth-first search
that returns the cheapest solution within its bound, and when a solution is
found at bound b the engine waits for every iteration holding a smaller
bound before declaring the best solution optimal.

Each new iteration gets the floor, a proven lower bound on the optimal cost
C*, and stops at the first goal costing at most the floor. The floor starts
at h(initial). An iteration that finishes with no goal pruned a node on every
optimal path, at f <= C* under an admissible h, so the floor rises to the
least f it pruned. On tiles (f moves in steps of 2) that is the next bound:
iterations run one at a time and the last stops where serial IDA* stops.
"""

from __future__ import annotations

from parsearch.common import EPS, INF
from parsearch.domains.base import SearchProblem
from parsearch.engine.core import Engine, EngineConfig
from parsearch.serial import BoundedDFS, SearchStats, Solution


class ParallelWindow(Engine):
    algorithm = "parallel_window"
    CHUNK = 256  # DFS events advanced per step

    def __init__(self, problem: SearchProblem, config: EngineConfig | None = None):
        super().__init__(problem, config)
        self.claimed: list[float] = []
        self.exceeds: set[float] = set()
        self.floor = problem.h(problem.initial)  # proven lower bound on C*
        # (cost, bound, path) of every iteration that found a goal; each
        # bound is claimed once, so min() never compares paths.
        self.solutions: list[tuple[float, float, list]] = []
        # Goal costs per claimed bound, in discovery order; bounds in
        # completion order.
        self.solution_logs: dict[float, list[float]] = {}
        self.slots: list = [None] * self.p  # each worker's running iteration
        self.stats = [SearchStats() for _ in range(self.p)]

    def _peek_claim(self) -> float | None:
        if not self.claimed:
            return self.problem.h(self.problem.initial)
        # Each claim exceeds every earlier one, so the last is the largest.
        last = self.claimed[-1]
        candidates = [v for v in self.exceeds if v > last + EPS]
        return min(candidates) if candidates else None

    def ready(self) -> list[int]:
        """Every worker while a bound is left to claim; otherwise the busy
        ones. Some worker is busy then: the step that ends the last running
        iteration with no bound left to claim finishes the run."""
        if self._peek_claim() is not None:
            return self._everyone
        return [w for w, dfs in enumerate(self.slots) if dfs is not None]

    def _try_finish(self) -> None:
        """Finish when the wait-for-lower-bounds rule allows it. The
        iterations still running then are cut off: their expansions and
        generations are charged to their workers' stats, but
        `iteration_expansions` lists finished iterations only."""
        if self.solutions:
            bound = min(self.solutions)[1]
            if not any(dfs.bound < bound - EPS for dfs in self.slots if dfs):
                self.finished = True
                for stats, dfs in zip(self.stats, self.slots):
                    if dfs:
                        stats.expanded += dfs.expanded
                        stats.generated += dfs.generated
        elif not any(self.slots) and self._peek_claim() is None:
            self.finished = True  # space exhausted below every claimed bound

    def step(self, w: int) -> None:
        dfs = self.slots[w]
        if dfs is None:
            bound = self._peek_claim()
            self.claimed.append(bound)
            self.slots[w] = BoundedDFS(
                self.problem, bound, self.floor, self.config.node_limit
            )
            return
        dfs.run_chunk(self.CHUNK)
        if dfs.done:
            self.slots[w] = None
            stats = self.stats[w]
            stats.expanded += dfs.expanded
            stats.generated += dfs.generated
            stats.iteration_expansions.append(dfs.expanded)
            self.exceeds.update(dfs.exceed_values)
            self.solution_logs[dfs.bound] = dfs.solution_log
            if dfs.best_cost < INF:
                self.solutions.append((dfs.best_cost, dfs.bound, dfs.best_path))
            elif dfs.exceed_values:
                self.floor = max(self.floor, min(dfs.exceed_values))
            self._try_finish()

    def result(self):
        cost, _, path = min(self.solutions, default=(INF, None, []))
        return cost, path

    def meta(self) -> dict:
        logs = self.solution_logs
        return {
            "bounds": list(self.claimed),
            "first_incumbent": next((log[0] for log in logs.values() if log), None),
            "solution_logs": logs,
        }


def parallel_window(
    problem: SearchProblem, config: EngineConfig | None = None
) -> Solution:
    return ParallelWindow(problem, config).run()
