"""Dovetailing portfolio: weighted A* under several weights at once.

Each weight runs as its own searcher, with no information exchange; the
searchers take one expansion each in turn, and the first to return a
solution wins and cancels the rest. The result carries
the winning weight and is optimal only when that weight is 1.
"""

from __future__ import annotations

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
    *,
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
