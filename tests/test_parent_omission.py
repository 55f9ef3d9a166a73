"""A best-first expansion never generates its parent, and omits nothing else.

A textbook A* over `expand` that generates every child, the parent too, is
the reference: the library's searches must pop the same nodes in the same
order, reopen and hold the same number, and count exactly the omitted
parent records fewer as generated and as duplicates.
"""

import itertools
import random
from heapq import heappop, heappush

import pytest

from parsearch.common import EPS
from parsearch.domains import (
    ExplicitGraph,
    LatticeProblem,
    TilePuzzle,
    random_solvable,
)
from parsearch.domains.base import successors_of
from parsearch.engine import EngineConfig, spastar
from parsearch.serial import astar, uniform_cost_oracle, wastar
from tests.conftest import make_grid_problem, reported, traced


def reference_astar(problem, weight=1.0, h=None):
    """A* with the library's (g + weight*h, -g, insertion order) key and
    duplicate rule, generating every child. Returns the pop trace of
    (reported state, g, g + h) and the counters, with `omitted` the number of
    generated records whose child is the expanded node's parent."""
    h = h or problem.h
    names = ("expanded", "generated", "reopened", "duplicates", "omitted")
    c = dict.fromkeys(names, 0)
    root = problem.initial
    nodes = {root: (0.0, None, True)}  # state -> (g, parent, open)
    heap = [(weight * h(root), -0.0, 0, root)]
    seq = open_count = c["max_open"] = 1
    trace = []
    while heap:
        _, neg_g, _, state = heappop(heap)
        g, parent, is_open = nodes[state]
        if not is_open or g != -neg_g:
            continue
        nodes[state] = (g, parent, False)
        open_count -= 1
        c["expanded"] += 1
        trace.append((reported(state), g, g + h(state)))
        if problem.is_goal(state):
            break
        for child, cost in problem.expand(state):
            c["generated"] += 1
            c["omitted"] += child == parent
            g1, old = g + cost, nodes.get(child)
            if old is not None and g1 >= old[0] - EPS:
                c["duplicates"] += 1
                continue
            if old is None or not old[2]:
                open_count += 1
                c["reopened"] += old is not None
            nodes[child] = (g1, state, True)
            heappush(heap, (g1 + weight * h(child), -g1, seq, child))
            seq += 1
            c["max_open"] = max(c["max_open"], open_count)
    return trace, c


def cycle_graph() -> ExplicitGraph:
    """A zero-cost 2-cycle (a, d), a one-way edge back to the start (c to
    s), a two-way edge (b, c) and an inconsistent h(b) that makes A*
    reopen c with a new parent."""
    edges = [
        ("s", "a", 1), ("s", "b", 2), ("a", "d", 0), ("d", "a", 0),
        ("a", "c", 2), ("b", "c", 0.5), ("c", "b", 0.5), ("c", "s", 0),
        ("c", "t", 5), ("d", "t", 9),
    ]
    return ExplicitGraph(edges, "s", {"t"}, {"b": 3.0})


def instances():
    patterns = [p for p in itertools.product((0, 1), repeat=3) if any(p)]
    lattice = LatticeProblem((3, 4, 3), {p: 1 + sum(p) / 2 for p in patterns})
    tiles = [TilePuzzle(random_solvable(3, seed)) for seed in range(4)]
    return tiles + [make_grid_problem(100), cycle_graph(), lattice]


SEARCHES = {
    "astar": (astar, 1.0, False),
    "wastar": (lambda p: wastar(p, 2.0), 2.0, False),
    "uniform_cost": (uniform_cost_oracle, 1.0, True),
    "spastar": (lambda p: spastar(p, EngineConfig(workers=3, seed=5)), 1.0, False),
}


@pytest.mark.parametrize("name", SEARCHES)
def test_only_parent_duplicates_are_omitted(name):
    run, weight, blind = SEARCHES[name]
    omitted = reopened = 0
    for problem in instances():
        want, ref = reference_astar(
            problem, weight, (lambda s: 0.0) if blind else None
        )
        sol, traces = traced(run, problem)
        assert list(traces) == ["search"]
        assert traces["search"] == want
        stats = sol.stats
        for counter in ("expanded", "reopened", "max_open"):
            assert getattr(stats, counter) == ref[counter], (problem, counter)
        assert stats.generated == ref["generated"] - ref["omitted"]
        assert stats.duplicates == ref["duplicates"] - ref["omitted"]
        if isinstance(problem, LatticeProblem):
            assert ref["omitted"] == 0
        else:
            assert ref["omitted"] > 0
        omitted += ref["omitted"]
        reopened += ref["reopened"]
    assert omitted > 0
    if name == "astar":
        assert reopened > 0  # the cycle graph reopens c


def sampled_tile_states(n: int, count: int, seed: int) -> list[tuple]:
    rng = random.Random(seed)
    return [random_solvable(n, rng) for _ in range(count)]


@pytest.mark.parametrize("n", (3, 4))
def test_tile_hook_omits_exactly_the_parent(n):
    for state in sampled_tile_states(n, 25, n):
        puzzle = TilePuzzle(state)
        state = puzzle.initial
        for child, _, child_h, _ in puzzle.successors(state, puzzle.h(state)):
            full = puzzle.successors(child, child_h)
            pruned = puzzle.successors(child, child_h, state)
            assert pruned == [r for r in full if r[0] != state]
            assert len(pruned) == len(full) - 1


def test_lattice_hook_ignores_parent():
    patterns = [p for p in itertools.product((0, 1), repeat=3) if any(p)]
    lattice = LatticeProblem((3, 3, 3), {p: 1.0 + sum(p) for p in patterns})
    for state in lattice.all_states():
        full = lattice.successors(state, 0.0)
        for child, *_ in full:
            assert lattice.successors(child, 0.0, state) == lattice.successors(
                child, 0.0
            )


def test_fallback_omits_parent():
    grid = make_grid_problem(100)
    successors = successors_of(grid)
    assert not hasattr(grid, "successors")
    state = grid.initial
    full = successors(state, grid.h(state))
    assert full == [(s, c, grid.h(s), None) for s, c in grid.expand(state)]
    for child, *_ in full:
        records = successors(child, grid.h(child), state)
        want = [(s, c, grid.h(s), None) for s, c in grid.expand(child) if s != state]
        assert records == want
        assert len(records) == len(grid.expand(child)) - 1
