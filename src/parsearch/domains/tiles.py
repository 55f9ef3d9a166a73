"""Sliding-tile puzzle domain (8-puzzle, 15-puzzle, ...).

A board is a flat sequence of length n*n holding a permutation of
0..n*n-1, where 0 is the blank. The goal places tiles in order with the
blank last. Inside the search a state is `bytes`, one byte per cell:
CPython caches a bytes object's hash, so the node tables hash each state
once, and a child is one `translate` of its parent. Boards therefore hold
at most 256 cells (16 x 16). Paths are reported, and the generators return
states, as tuples of ints.
"""

from __future__ import annotations

import functools
import math
import random

from parsearch.domains.base import Feature, State

MAX_WIDTH = 16  # one byte per cell holds tiles 0..255


class TilePuzzle:
    """n x n sliding-tile puzzle with unit move costs and Manhattan h."""

    def __init__(self, initial: tuple[int, ...]):
        if any(type(t) is not int for t in initial):
            raise ValueError("initial state holds a tile that is not an int")
        n = math.isqrt(len(initial))
        if n < 2 or n * n != len(initial):
            raise ValueError("initial state is not an n*n permutation, n >= 2")
        if n > MAX_WIDTH:
            raise ValueError(
                f"a {n}x{n} board is too large: states hold one byte per cell, "
                f"so tile boards are limited to {MAX_WIDTH}x{MAX_WIDTH} (256 cells)"
            )
        if sorted(initial) != list(range(n * n)):
            raise ValueError("initial state is not a permutation of 0..n*n-1")
        self.n = n
        self.ncells = n * n
        self.initial = bytes(initial)
        self.goal = bytes(goal_state(n))
        self._contrib, self._blank_moves, self._swaps = _board_tables(n)

    def is_goal(self, state: bytes) -> bool:
        """Whether `state`, in the search's `bytes` form, is the goal; a
        tuple never equals it."""
        return state == self.goal

    def successors(
        self, state: bytes, h: float, parent: bytes | None = None
    ) -> list[tuple]:
        """(child, 1.0, h(child), move) per blank move, in O(1) each, for
        a `state` (and `parent`) in the search's `bytes` form.

        The blank moves from cell b to cell j and tile t = state[j] from j
        to b, which changes t's Manhattan distance alone; the move is the
        int (b * n² + j) * n² + t. Both come from the board's tables: one
        `(j, delta, base)` entry per blank move, with delta[t] the change
        in h and base + t the move. The child is the one call
        `state.translate(swaps[t])`, which exchanges the bytes 0 and t. A
        parent (a neighbour of `state`) is the child whose blank sits where
        the parent's does, so the move to that cell is skipped without
        building the parent.
        """
        b = state.index(0)
        skip = -1 if parent is None else parent.index(0)
        swaps = self._swaps
        out = []
        for j, delta, base in self._blank_moves[b]:
            if j == skip:
                continue
            t = state[j]
            out.append((state.translate(swaps[t]), 1.0, h + delta[t], base + t))
        return out

    def expand(self, state) -> list[tuple[State, float]]:
        """(child, 1.0) per blank move, the children as `bytes`; `state` may
        be in either form (`bytes(state)` returns a `bytes` state itself)."""
        records = self.successors(bytes(state), 0.0)
        return [(child, cost) for child, cost, _, _ in records]

    def h(self, state: bytes) -> float:
        contrib = self._contrib
        ncells = self.ncells
        total = 0
        for pos, tile in enumerate(state):
            if tile:
                total += contrib[tile * ncells + pos]
        return float(total)

    # The feature and byte views read a state as a sequence of ints, so a
    # state's tuple form and its bytes form give one Zobrist or folded key.

    def features(self, state: bytes) -> list[Feature]:
        # (position, tile) pairs, blank included; uniquely identify the state.
        return list(enumerate(state))

    def canonical_bytes(self, state: bytes) -> bytes:
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


@functools.cache
def _board_tables(
    n: int,
) -> tuple[tuple[int, ...], tuple[tuple, ...], tuple[bytes, ...]]:
    """Tables of the n x n board, built once per size and shared by every
    puzzle of that size: the Manhattan contribution per (tile, position),
    at tile * n² + position; per blank cell b one `(j, delta, base)` entry
    per blank move to cell j, in up/down/left/right order, where delta[t]
    is the change in h when tile t slides from j to b and
    base = (b * n² + j) * n²; and per tile t the 256-byte `translate`
    table that exchanges the blank (0) and t."""
    ncells = n * n
    contrib = [0] * (ncells * ncells)
    for tile in range(1, ncells):
        gr, gc = divmod(tile - 1, n)
        for pos in range(ncells):
            r, c = divmod(pos, n)
            contrib[tile * ncells + pos] = abs(r - gr) + abs(c - gc)
    blank_moves = []
    for b in range(ncells):
        r, c = divmod(b, n)
        targets = []
        if r > 0:
            targets.append(b - n)
        if r < n - 1:
            targets.append(b + n)
        if c > 0:
            targets.append(b - 1)
        if c < n - 1:
            targets.append(b + 1)
        blank_moves.append(tuple(
            (
                j,
                tuple(
                    contrib[t * ncells + b] - contrib[t * ncells + j]
                    for t in range(ncells)
                ),
                (b * ncells + j) * ncells,
            )
            for j in targets
        ))
    swaps = tuple(bytes.maketrans(bytes((0, t)), bytes((t, 0))) for t in range(ncells))
    return tuple(contrib), tuple(blank_moves), swaps


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
    return tuple(state)


def state_count(n: int) -> int:
    """Number of reachable configurations: (n*n)! / 2."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return math.factorial(n * n) // 2
