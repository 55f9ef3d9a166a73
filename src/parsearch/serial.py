"""Reference serial searches: A*, uniform-cost oracle, IDA*, weighted A*.

These provide both the baselines for the parallel engines and the
correctness oracles used throughout the test suite.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import MISSING, dataclass, field, fields
from heapq import heappop, heappush
from types import SimpleNamespace

from parsearch.common import (
    EPS,
    INF,
    ConfigError,
    NodeLimitExceeded,
    SearchInvariantError,
    check_count,
)
from parsearch.domains.base import SearchProblem, State, reported_path, successors_of

DEFAULT_NODE_LIMIT = 10_000_000


@dataclass
class SearchStats:
    expanded: int = 0
    generated: int = 0
    reopened: int = 0
    duplicates: int = 0
    max_open: int = 0
    wall_time: float = 0.0
    # Parallel bookkeeping (cross-worker traffic only; zero for serial runs).
    sent: int = 0
    received: int = 0
    sent_batches: int = 0
    received_batches: int = 0
    # Per-iteration expansion counts for the iterative-deepening family.
    iteration_expansions: list[int] = field(default_factory=list)
    # f = g + h of every expanded node, for efficiency-fraction reporting.
    expanded_f: array = field(default_factory=lambda: array("d"))

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in COUNTERS}


# The scalar SearchStats fields (those without a default factory), in record
# order. Merging sums them, except the peaks, which it maximizes.
COUNTERS = tuple(f.name for f in fields(SearchStats) if f.default_factory is MISSING)
PEAKS = ("max_open", "wall_time")


def merge_stats(parts: list[SearchStats]) -> SearchStats:
    total = SearchStats()
    for name in COUNTERS:
        values = [getattr(total, name)] + [getattr(s, name) for s in parts]
        setattr(total, name, max(values) if name in PEAKS else sum(values))
    for s in parts:
        total.expanded_f.extend(s.expanded_f)
    return total


@dataclass
class Solution:
    cost: float
    path: list
    stats: SearchStats
    per_worker: list[SearchStats] | None = None
    meta: dict = field(default_factory=dict)

    @property
    def solved(self) -> bool:
        return self.cost < INF


class NodeTable:
    """Open and closed lists of one best-first search, in one node map.

    `nodes` maps each state the search has reached to an open entry (g,
    parent, h, key) or a closed entry (g, parent); the entry's length tells
    the two apart, and `open_count` counts the open ones. The caller passes
    each node's h to `insert` (engines carry it with the node and take a
    child's from the records of `domains.base.successors_of`) and gets it
    back from `pop`; the table never calls the domain. `key` is an opaque
    value passed and returned the same way (HDA* workers carry the state's
    hash key in it); the table never reads it. The open list is a lazy
    binary heap of (g + weight*h, -g, insertion sequence, state) entries
    (plain h for weight=inf): ties on priority prefer the larger g,
    remaining ties are FIFO, and entries superseded by a cheaper insert are
    skipped when they surface. A g-value that matches the stored one within
    EPS counts as a duplicate, never as an improvement.

    A heap entry is live when its g equals its state's stored g. Only open
    states have live entries: each push for a state lowers its g by more
    than EPS, so a closed state's g matches only the entry whose pop closed
    it, which has left the heap.
    """

    def __init__(
        self,
        weight: float = 1.0,
        node_limit: int = DEFAULT_NODE_LIMIT,
        where: str = "search",
    ):
        check_count("node limit", node_limit, 0)
        self.weight = weight
        self.node_limit = node_limit
        self.where = where  # names the table in NodeLimitExceeded
        self.nodes: dict = {}
        self.open_count = 0
        self.heap: list = []
        self.seq = 0

    def insert(
        self, state: State, g: float, h: float, parent, stats: SearchStats, key=None
    ) -> None:
        """Record a path of cost g to `state` (heuristic h) via `parent`.

        A new state is opened; a cheaper path reopens a closed state or
        replaces an open entry; anything else is counted as a duplicate.
        """
        nodes = self.nodes
        entry = nodes.get(state)
        if entry is None:
            self.open_count += 1
        elif g >= entry[0] - EPS:
            stats.duplicates += 1
            return
        elif len(entry) == 2:
            stats.reopened += 1
            self.open_count += 1
        nodes[state] = (g, parent, h, key)
        weight = self.weight
        priority = h if weight == INF else g + weight * h
        heappush(self.heap, (priority, -g, self.seq, state))
        self.seq += 1
        if self.open_count > stats.max_open:
            stats.max_open = self.open_count
        if len(nodes) > self.node_limit:
            raise NodeLimitExceeded(self.node_limit, self.where)

    def pop(self, stats: SearchStats):
        """Close the best open entry and count its expansion.

        Returns (state, g, h, key, parent), or None when the open list is
        empty; the parent is the state the stored path reached it from
        (None at the root).
        """
        heap = self.heap
        nodes = self.nodes
        while heap:
            _, neg_g, _, state = heappop(heap)
            entry = nodes[state]
            if entry[0] == -neg_g:
                g, parent, h, key = entry
                nodes[state] = (g, parent)
                self.open_count -= 1
                stats.expanded += 1
                stats.expanded_f.append(g + h)
                return state, g, h, key, parent
        return None

    def min_f(self) -> float:
        """Priority of the best open entry (INF when open is empty)."""
        heap = self.heap
        nodes = self.nodes
        while heap:
            prio, neg_g, _, state = heap[0]
            if nodes[state][0] == -neg_g:
                return prio
            heappop(heap)
        return INF

    def entry(self, state: State):
        """(g, parent, ...) of a closed or open state, or None."""
        return self.nodes.get(state)


def reconstruct_path(goal: State | None, entry_of) -> list:
    """Follow parent links from `goal` back to the root.

    `entry_of(state)` returns a (g, parent, ...) entry or None. Raises
    SearchInvariantError on a missing link or a cycle.
    """
    if goal is None:
        return []
    path = [goal]
    seen = {goal}
    state = goal
    while True:
        entry = entry_of(state)
        if entry is None:
            raise SearchInvariantError("broken parent chain during reconstruction")
        parent = entry[1]
        if parent is None:
            break
        if parent in seen:
            raise SearchInvariantError("cycle in parent chain during reconstruction")
        seen.add(parent)
        path.append(parent)
        state = parent
    path.reverse()
    return path


class BestFirstSearch:
    """Steppable best-first search (A*, weighted A*, greedy) on a NodeTable.

    Priority is g + weight*h (or plain h for weight=inf); see NodeTable for
    tie-breaking and the reopening branch.
    """

    goal_state: State | None = None  # the last goal popped, and its g
    goal_cost = INF

    def __init__(
        self,
        problem: SearchProblem,
        weight: float = 1.0,
        node_limit: int = DEFAULT_NODE_LIMIT,
    ):
        if not weight >= 1.0:
            raise ConfigError("weight must be >= 1 (or inf)")
        self.problem = problem
        self.stats = SearchStats()
        self.successors = successors_of(problem)
        self.table = NodeTable(weight, node_limit)
        self.table.insert(
            problem.initial, 0.0, problem.h(problem.initial), None, self.stats
        )

    def step(self, stats: SearchStats) -> bool:
        """Expand one node, charging it to `stats`; `place` takes its
        children. Returns False on a goal or an empty open list. A* then
        stops stepping; HDA* steps a worker again after a goal once cheaper
        work reaches it.

        The expansion never generates the node's stored parent P: the node
        N was inserted with g(N) = g(P) + c(P, N), so the child P would
        arrive with g(N) + c(N, P) >= g(P), at least P's stored g, which
        only falls, and the table (under HDA*, P's owner, which expanded
        P) would count it as a duplicate. Omitting it changes no pop; the
        omitted child counts as neither generated nor a duplicate."""
        node = self.table.pop(stats)
        if node is None:
            return False
        state, g, h, key, parent = node
        if self.problem.is_goal(state):
            self.goal_state = state
            self.goal_cost = g
            return False
        records = self.successors(state, h, parent)
        stats.generated += len(records)
        self.place(state, g, h, key, records, stats)
        return True

    def place(
        self, state: State, g: float, h: float, key, records: list, stats: SearchStats
    ):
        """Insert the children of `state` (reached at cost g, with heuristic
        h) into the table."""
        insert = self.table.insert
        for succ, cost, h1, _ in records:
            insert(succ, g + cost, h1, state, stats)

    def run(self) -> Solution:
        start = time.perf_counter()
        stats = self.stats
        while self.step(stats):
            pass
        stats.wall_time = time.perf_counter() - start
        cost, path = self.result()
        return Solution(cost, reported_path(self.problem, path), stats)

    def result(self):
        """The last goal's cost and path, in the search's own state form:
        (INF, []) before a goal is found."""
        return self.goal_cost, reconstruct_path(self.goal_state, self.table.entry)


def astar(problem: SearchProblem, node_limit: int = DEFAULT_NODE_LIMIT) -> Solution:
    sol = BestFirstSearch(problem, 1.0, node_limit).run()
    sol.meta["algorithm"] = "astar"
    return sol


def wastar(
    problem: SearchProblem, weight: float, node_limit: int = DEFAULT_NODE_LIMIT
) -> Solution:
    sol = BestFirstSearch(problem, weight, node_limit).run()
    sol.meta["algorithm"] = "wastar"
    sol.meta["weight"] = weight
    return sol


def uniform_cost_oracle(
    problem: SearchProblem, node_limit: int = DEFAULT_NODE_LIMIT
) -> Solution:
    blind = SimpleNamespace(  # the problem with h forced to zero
        initial=problem.initial,
        is_goal=problem.is_goal,
        expand=problem.expand,
        h=lambda state: 0.0,
    )
    sol = BestFirstSearch(blind, 1.0, node_limit).run()
    sol.meta["algorithm"] = "uniform_cost"
    return sol


class BoundedDFS:
    """One steppable IDA* iteration: depth-first search under an f bound.

    `floor` is a proven lower bound on the optimal cost: the iteration ends
    at the first goal that costs at most the floor. Below it, the iteration
    keeps the cheapest goal found, prunes f at or above its cost and searches
    on, so it returns the cheapest solution whose path stays within the f
    bound. IDA* passes floor = bound (classic first-found IDA*); the parallel
    window engine passes the floor its finished iterations proved, since its
    bound sequence may skip values. Every f-value pruned by the bound is
    recorded in `exceed_values`; the next IDA* bound is their minimum.

    Goals are tested when generated and never expanded, so a root goal ends
    the iteration with 0 expansions. An expansion passes the state below it
    on the path as `parent`, a child the on-path check would skip anyway.

    The bound must be at least h(initial), so the root is never pruned: IDA*
    starts at h(initial) and only raises its bound, and the parallel window
    engine claims h(initial) first and ever larger bounds after it.
    """

    def __init__(
        self,
        problem: SearchProblem,
        bound: float,
        floor: float,
        expansion_limit: int = DEFAULT_NODE_LIMIT,
    ):
        check_count("node limit", expansion_limit, 0)
        self.problem = problem
        self.bound = bound
        self.floor = floor
        self.expansion_limit = expansion_limit
        self.exceed_values: set[float] = set()
        self.solution_log: list[float] = []  # goal costs in discovery order
        self.expanded = 0
        self.generated = 0
        self.best_cost = INF
        self.best_path: list = []
        self.done = False
        self._successors = successors_of(problem)
        # Stack frames: [state, g, h, iterator over its successor records or
        # None before its expansion]; their states are the path from the root.
        self._stack: list = []
        self._on_path: set = set()
        root = problem.initial
        if problem.is_goal(root):
            self.solution_log.append(0.0)
            self.best_cost = 0.0
            self.best_path = [root]
            self.done = True
        else:
            self._stack.append([root, 0.0, problem.h(root), None])
            self._on_path.add(root)

    def run_chunk(self, n: int) -> bool:
        """Advance up to n node events; False once the iteration is over. An
        event takes one record from the top frame, expanding it first if need
        be, or pops a frame whose records are used up."""
        if self.done:
            return False
        successors = self._successors
        is_goal = self.problem.is_goal
        stack = self._stack
        on_path = self._on_path
        exceed = self.exceed_values.add
        bound = self.bound + EPS
        floor = self.floor + EPS
        best = self.best_cost
        expanded = self.expanded
        generated = self.generated
        limit = self.expansion_limit
        while n > 0 and stack:
            frame = stack[-1]
            records = frame[3]
            if records is None:
                parent = stack[-2][0] if len(stack) > 1 else None
                succs = successors(frame[0], frame[2], parent)
                records = frame[3] = iter(succs)
                expanded += 1
                generated += len(succs)
                if expanded > limit:
                    self.expanded = expanded
                    raise NodeLimitExceeded(limit, "IDA* iteration")
            g = frame[1]
            for succ, cost, h1, _ in records:
                n -= 1
                if succ not in on_path:
                    g1 = g + cost
                    f = g1 + h1
                    if f > bound:
                        exceed(f)
                    elif f >= best - EPS:
                        pass
                    elif is_goal(succ):
                        self.solution_log.append(g1)
                        if g1 < best:
                            best = g1
                            self.best_path = [fr[0] for fr in stack] + [succ]
                        if g1 <= floor:
                            stack.clear()  # an empty stack ends the iteration
                            break
                    else:
                        stack.append([succ, g1, h1, None])
                        on_path.add(succ)
                        break
                if not n:
                    break
            else:
                stack.pop()
                on_path.discard(frame[0])
                n -= 1
        self.best_cost = best
        self.expanded = expanded
        self.generated = generated
        if not stack:
            self.done = True
        return not self.done

    def run(self):
        while self.run_chunk(1 << 14):
            pass
        return self


def idastar(
    problem: SearchProblem, node_limit: int = DEFAULT_NODE_LIMIT
) -> Solution:
    """Iterative-deepening A*: depth-first iterations under a growing f bound.

    The first bound is h(initial); each next bound is the smallest f that
    exceeded the current one. Stats record per-iteration expansions.
    """
    start = time.perf_counter()
    stats = SearchStats()
    bound = problem.h(problem.initial)
    while True:  # runs once even when h(initial) is inf
        it = BoundedDFS(problem, bound, bound, node_limit).run()
        stats.iteration_expansions.append(it.expanded)
        stats.expanded += it.expanded
        stats.generated += it.generated
        bound = min(it.exceed_values, default=INF)
        if it.best_cost < INF or bound == INF:
            break
    stats.wall_time = time.perf_counter() - start
    return Solution(
        it.best_cost,
        reported_path(problem, it.best_path),
        stats,
        meta={"algorithm": "idastar", "bounds": len(stats.iteration_expansions)},
    )
