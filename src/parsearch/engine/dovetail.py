"""Dovetailing portfolio: weighted A* under several weights at once.

Each weight runs on its own worker with no information exchange; the first
search to return a solution wins and cancels the rest. The result carries
the winning weight and is optimal only when that weight is 1.
"""

from __future__ import annotations

import threading
import time

from parsearch.common import INF, ConfigError
from parsearch.domains.base import SearchProblem, validate_path
from parsearch.serial import (
    DEFAULT_NODE_LIMIT,
    BestFirstSearch,
    Solution,
    merge_stats,
    reconstruct_path,
)

DEFAULT_WEIGHTS = (1.0, 1.5, 2.0, 3.0, INF)


def dovetail(
    problem: SearchProblem,
    weights=DEFAULT_WEIGHTS,
    execution: str = "interleaved",
    node_limit: int = DEFAULT_NODE_LIMIT,
) -> Solution:
    weights = tuple(weights)
    if not weights:
        raise ConfigError("at least one weight required")
    for w in weights:
        if w < 1.0:
            raise ConfigError("weights must be >= 1 (or inf)")
    start = time.perf_counter()
    searchers = [BestFirstSearch(problem, w, node_limit) for w in weights]
    if execution == "threaded":
        winner_idx = _race_threaded(searchers)
    else:
        winner_idx = _race_interleaved(searchers)
    wall = time.perf_counter() - start
    per_worker = [s.stats for s in searchers]
    stats = merge_stats(per_worker)
    stats.wall_time = wall
    if winner_idx is None:
        return Solution(
            INF,
            [],
            stats,
            per_worker=per_worker,
            meta={"algorithm": "dovetail", "weights": list(weights)},
        )
    winner = searchers[winner_idx]
    path = reconstruct_path(winner.goal_state, winner.table.entry)
    validate_path(problem, path)
    return Solution(
        winner.goal_cost,
        path,
        stats,
        per_worker=per_worker,
        meta={
            "algorithm": "dovetail",
            "weights": list(weights),
            "winner_weight": weights[winner_idx],
            "optimal_guarantee": weights[winner_idx] == 1.0,
        },
    )


def _race_interleaved(searchers) -> int | None:
    """Round-robin one expansion per searcher until the first completes."""
    active = list(range(len(searchers)))
    while active:
        for idx in list(active):
            s = searchers[idx]
            if not s.step():
                if s.goal_cost < INF:
                    return idx
                active.remove(idx)  # exhausted without a solution
    return None


def _race_threaded(searchers) -> int | None:
    done = threading.Event()
    results: list[int] = []
    errors: list[BaseException] = []
    lock = threading.Lock()

    def loop(idx: int) -> None:
        s = searchers[idx]
        try:
            while not done.is_set():
                if not s.step():
                    if s.goal_cost < INF:
                        with lock:
                            results.append(idx)
                        done.set()
                    return
        except BaseException as exc:
            errors.append(exc)
            done.set()

    threads = [
        threading.Thread(target=loop, args=(i,), daemon=True)
        for i in range(len(searchers))
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors and not results:
        raise errors[0]
    return results[0] if results else None
