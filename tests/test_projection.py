"""Zobrist-family strategies as Zobrist hashing over a feature projection."""

import random

import pytest

from parsearch.domains import (
    GridProblem,
    LatticeProblem,
    TilePuzzle,
    goal_state,
    missorder_graph,
    parse_grid,
    random_solvable,
)
from parsearch.domains.base import successors_of
from parsearch.hashing import ZobristTable, azh_key, make_strategy

LATTICE = LatticeProblem((5, 4, 3))


def grid_problem():
    grid = parse_grid("10 7 8\n" + "\n".join(["." * 10] * 7))
    return GridProblem(grid, (0, 0), (9, 6))


def grid_states():
    return [(x, y) for x in range(10) for y in range(7)]


def tile_states(n, count, seed):
    rng = random.Random(seed)
    return [bytes(random_solvable(n, rng)) for _ in range(count)]


def projection(token, problem):
    hook = {"azh": "default_projection", "abstraction": "abstraction_projection"}
    project = getattr(problem, hook.get(token, ""), None)
    return project() if project else None


class TestProjectedKeys:
    @pytest.mark.parametrize(
        "problem, states",
        [
            (grid_problem(), grid_states()),
            (LATTICE, list(LATTICE.all_states())),
        ],
        ids=["grid", "lattice"],
    )
    def test_azh_equals_abstraction_on_grids_and_lattices(self, problem, states):
        azh = make_strategy("azh", problem, seed=9)
        abstraction = make_strategy("abstraction", problem, seed=9)
        for s in states:
            assert azh.key(s) == abstraction.key(s), s

    def test_azh_differs_from_abstraction_on_tiles(self):
        problem = TilePuzzle(goal_state(3))
        azh = make_strategy("azh", problem, seed=9)
        abstraction = make_strategy("abstraction", problem, seed=9)
        states = tile_states(3, 50, 1)
        assert all(azh.key(s) != abstraction.key(s) for s in states)

    @pytest.mark.parametrize("token", ["zobrist", "azh", "abstraction", "hyperplane"])
    def test_key_equals_reference_form(self, token):
        problems = [
            (TilePuzzle(goal_state(3)), tile_states(3, 100, 2)),
            (TilePuzzle(goal_state(4)), tile_states(4, 100, 3)),
            (LATTICE, list(LATTICE.all_states())),
            (grid_problem(), grid_states()),
            (missorder_graph(), ["a", "b", "c", "d"]),
        ]
        for problem, states in problems:
            if token == "hyperplane" and not isinstance(problem, LatticeProblem):
                continue
            config = {"d": "1/2"} if token == "hyperplane" else None
            strategy = make_strategy(token, problem, seed=13, config=config)
            table = ZobristTable(13)
            proj = projection(token, problem)

            def reference(state):
                key = azh_key(table, proj, problem.features(state))
                if token == "hyperplane":  # the plane index at d = 1/2
                    return 2 * sum(state) + key % 2
                return key

            for s in states:
                assert strategy.key(s) == reference(s), (token, s)
                for child, _, _, move in successors_of(problem)(s, problem.h(s)):
                    want = reference(child)
                    assert strategy.child_key(strategy.key(s), child, move) == want
