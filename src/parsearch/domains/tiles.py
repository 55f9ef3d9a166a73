"""Sliding-tile puzzle domain (8-puzzle, 15-puzzle, ...).

States are flat tuples of length n*n holding a permutation of 0..n*n-1,
where 0 is the blank. The goal places tiles in order with the blank last.
"""

from __future__ import annotations

import math
import random

from parsearch.domains.base import Feature, State


class TilePuzzle:
    """n x n sliding-tile puzzle with unit move costs and Manhattan h."""

    def __init__(self, initial: tuple[int, ...], n: int | None = None):
        if n is None:
            n = math.isqrt(len(initial))
        if n < 2 or n * n != len(initial):
            raise ValueError("initial state is not an n*n permutation, n >= 2")
        if sorted(initial) != list(range(n * n)):
            raise ValueError("initial state is not a permutation of 0..n*n-1")
        self.n = n
        self.ncells = n * n
        self.initial = tuple(initial)
        self.goal = goal_state(n)

        # Blank moves per cell and Manhattan contribution per (tile, pos).
        self._moves: list[tuple[int, ...]] = []
        for i in range(self.ncells):
            r, c = divmod(i, n)
            m = []
            if r > 0:
                m.append(i - n)
            if r < n - 1:
                m.append(i + n)
            if c > 0:
                m.append(i - 1)
            if c < n - 1:
                m.append(i + 1)
            self._moves.append(tuple(m))
        contrib = [0] * (self.ncells * self.ncells)
        for tile in range(1, self.ncells):
            gr, gc = divmod(tile - 1, n)
            for pos in range(self.ncells):
                r, c = divmod(pos, n)
                contrib[tile * self.ncells + pos] = abs(r - gr) + abs(c - gc)
        self._contrib = contrib

    def is_goal(self, state: State) -> bool:
        return state == self.goal

    def successors(self, state: tuple[int, ...], h: float) -> list[tuple]:
        """(child, 1.0, h(child), move) per blank move, in O(1) each.

        The blank moves from cell b to cell j and tile t = state[j] from j
        to b, which changes t's Manhattan distance alone; the move is the
        int (b * n² + j) * n² + t.
        """
        b = state.index(0)
        ncells = self.ncells
        contrib = self._contrib
        out = []
        for j in self._moves[b]:
            t = state[j]
            lst = list(state)
            lst[b] = t
            lst[j] = 0
            base = t * ncells
            out.append((
                tuple(lst),
                1.0,
                h + contrib[base + b] - contrib[base + j],
                (b * ncells + j) * ncells + t,
            ))
        return out

    def expand(self, state: tuple[int, ...]) -> list[tuple[State, float]]:
        return [(child, cost) for child, cost, _, _ in self.successors(state, 0.0)]

    def h(self, state: tuple[int, ...]) -> float:
        contrib = self._contrib
        ncells = self.ncells
        total = 0
        for pos, tile in enumerate(state):
            if tile:
                total += contrib[tile * ncells + pos]
        return float(total)

    def features(self, state: tuple[int, ...]) -> list[Feature]:
        # (position, tile) pairs, blank included; uniquely identify the state.
        return list(enumerate(state))

    def canonical_bytes(self, state: tuple[int, ...]) -> bytes:
        return bytes(state)

    def move_features(self, move: int) -> tuple[Feature, ...]:
        """Features to xor out of and into the parent's key for one move:
        the blank leaves cell b for j, tile t leaves j for b."""
        ncells = self.ncells
        rest, t = divmod(move, ncells)
        b, j = divmod(rest, ncells)
        return ((b, 0), (j, t), (b, t), (j, 0))

    # Projection hooks of the azh and abstraction hashing strategies.

    def abstraction_projection(self) -> dict[Feature, Feature | None]:
        """Keep the features of tiles 1, 2 and 3; drop all others."""
        return {
            (pos, tile): (pos, tile) if tile in (1, 2, 3) else None
            for pos in range(self.ncells)
            for tile in range(self.ncells)
        }

    def default_projection(self) -> dict[Feature, Feature]:
        """Project (position, tile) onto (row-pair block, tile)."""
        proj = {}
        for pos in range(self.ncells):
            block = (pos // self.n) // 2
            for tile in range(self.ncells):
                proj[(pos, tile)] = ("rp", block, tile)
        return proj


def goal_state(n: int) -> tuple[int, ...]:
    return tuple(range(1, n * n)) + (0,)


def is_solvable(state: tuple[int, ...], n: int) -> bool:
    """Parity test relative to the tiles-in-order, blank-last goal.

    Odd width: inversion count must be even. Even width: inversions plus the
    blank's row counted from the bottom must be odd.
    """
    arr = [t for t in state if t]
    inv = 0
    for i in range(len(arr)):
        ai = arr[i]
        for j in range(i + 1, len(arr)):
            if ai > arr[j]:
                inv += 1
    if n % 2 == 1:
        return inv % 2 == 0
    blank_row_from_bottom = n - state.index(0) // n
    return (inv + blank_row_from_bottom) % 2 == 1


def random_solvable(n: int, seed: int | random.Random) -> tuple[int, ...]:
    """Uniformly random state from the solvable half of the n*n space.

    A uniform permutation lands in either parity class with probability 1/2;
    swapping the tiles 1 and 2 maps the unsolvable class bijectively onto the
    solvable one, so the result stays uniform.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    perm = list(range(n * n))
    rng.shuffle(perm)
    state = tuple(perm)
    if not is_solvable(state, n):
        i, j = state.index(1), state.index(2)
        lst = list(state)
        lst[i], lst[j] = lst[j], lst[i]
        state = tuple(lst)
    return state


def random_scramble(n: int, depth: int, seed: int | random.Random) -> tuple[int, ...]:
    """Scramble the goal by `depth` random blank moves (no immediate undo)."""
    if depth < 0:
        raise ValueError("scramble depth must be >= 0")
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    puzzle = TilePuzzle(goal_state(n))
    state = puzzle.goal
    prev = None
    for _ in range(depth):
        succs = [s for s, _ in puzzle.expand(state) if s != prev]
        prev = state
        state = rng.choice(succs)
    return state


def state_count(n: int) -> int:
    """Number of reachable configurations: (n*n)! / 2."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return math.factorial(n * n) // 2
