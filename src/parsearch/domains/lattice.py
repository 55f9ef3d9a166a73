"""n-dimensional lattice domain with monotone coordinate moves.

States are coordinate tuples; a move increments a nonempty subset of
coordinates by one (staying within per-axis lengths), so the space is a DAG
from the origin to the far corner. A per-pattern cost table assigns one
nonnegative cost to each axis-increment pattern.
"""

from __future__ import annotations

from functools import partial
from itertools import product
from operator import add, lt

from parsearch.common import LazyTable
from parsearch.domains.base import Feature, State


def _fitting_moves(moves: list[tuple[tuple[int, ...], float]], room) -> list:
    """The `(pattern, cost)` moves that fit a room, in pattern order: a room
    is a tuple of bools, one per axis, true where the coordinate is below
    the axis length, and a move fits when it increments only such axes. A
    room table holds one entry per room expanded (2^d rooms in d dimensions)."""
    return [
        (pat, cost)
        for pat, cost in moves
        if all(free or not step for step, free in zip(pat, room))
    ]


class LatticeProblem:
    def __init__(
        self,
        lengths: tuple[int, ...],
        step_costs: dict[tuple[int, ...], float] | None = None,
    ):
        if not lengths or any(type(l) is not int or l < 1 for l in lengths):
            raise ValueError("per-axis lengths must be positive ints")
        self.lengths = tuple(lengths)
        self.dim = len(lengths)
        patterns = [p for p in product((0, 1), repeat=self.dim) if any(p)]
        if step_costs is None:
            step_costs = {p: 1.0 for p in patterns}
        for p in patterns:
            if p not in step_costs:
                raise ValueError(f"missing cost for move pattern {p}")
            if not step_costs[p] >= 0:  # also rejects NaN
                raise ValueError(f"cost for move pattern {p} must be >= 0")
        self.step_costs = dict(step_costs)
        moves = [(p, self.step_costs[p]) for p in patterns]
        self._room_moves = LazyTable(partial(_fitting_moves, moves))
        self.initial = (0,) * self.dim
        self.goal = self.lengths

    def is_goal(self, state: State) -> bool:
        return state == self.goal

    def successors(
        self, state: tuple[int, ...], h: float, parent: tuple[int, ...] | None = None
    ) -> list[tuple]:
        """(child, cost, 0.0, None) per in-bounds move; h is 0 everywhere.

        The room of a state, which axes are still below their length,
        selects its in-bounds moves from the room table. `parent` is
        ignored: every move increments coordinates, so no child is a
        parent."""
        room = tuple(map(lt, state, self.lengths))
        return [
            (tuple(map(add, state, pat)), cost, 0.0, None)
            for pat, cost in self._room_moves[room]
        ]

    def expand(self, state: tuple[int, ...]) -> list[tuple[State, float]]:
        return [(child, cost) for child, cost, _, _ in self.successors(state, 0.0)]

    def h(self, state: tuple[int, ...]) -> float:
        return 0.0

    def features(self, state: tuple[int, ...]) -> list[Feature]:
        return list(enumerate(state))

    def canonical_bytes(self, state: tuple[int, ...]) -> bytes:
        return b"".join(x.to_bytes(4, "little") for x in state)

    def default_projection(self) -> dict[Feature, Feature]:
        """Project each coordinate x onto x // 2."""
        proj = {}
        for i, l in enumerate(self.lengths):
            for x in range(l + 1):
                proj[(i, x)] = (i, x // 2)
        return proj

    abstraction_projection = default_projection

    def all_states(self):
        """Every lattice point; exhaustive checks only (small lattices)."""
        return product(*(range(l + 1) for l in self.lengths))
