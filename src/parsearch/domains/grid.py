"""Octile/4-connected gridmap pathfinding domain.

Map text format: a header line "width height connectivity" followed by
`height` rows of `width` characters, '.' traversable and '#' blocked.
Straight moves cost 1; diagonal moves (8-connected only) cost sqrt(2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from parsearch.common import ConfigError, ParseError
from parsearch.domains.base import Feature, State

SQRT2 = math.sqrt(2.0)

_STRAIGHT = ((1, 0), (-1, 0), (0, 1), (0, -1))
_DIAGONAL = ((1, 1), (1, -1), (-1, 1), (-1, -1))

BLOCK_SIZE = 4  # side of the square cell blocks of the abstraction


@dataclass(frozen=True)
class GridMap:
    width: int
    height: int
    blocked: frozenset[tuple[int, int]]
    connectivity: int = 8

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ConfigError(
                f"grid width and height must be positive, got {self.width}x{self.height}"
            )
        if self.connectivity not in (4, 8):
            raise ConfigError(
                f"grid connectivity must be 4 or 8, got {self.connectivity!r}"
            )

    def in_bounds(self, cell: tuple[int, int]) -> bool:
        x, y = cell
        return 0 <= x < self.width and 0 <= y < self.height

    def traversable(self, cell: tuple[int, int]) -> bool:
        return self.in_bounds(cell) and cell not in self.blocked


def parse_grid(text: str) -> GridMap:
    """Parse the map format above; raise ParseError with a line number."""
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty map", 1)
    header = lines[0].split()
    if len(header) != 3:
        raise ParseError("header must be 'width height connectivity'", 1)
    try:
        width, height, conn = (int(tok) for tok in header)
    except ValueError:
        raise ParseError("header fields must be integers", 1) from None
    try:
        grid = GridMap(width, height, frozenset(), conn)
    except ConfigError as exc:  # the header's size or connectivity
        raise ParseError(str(exc), 1) from None
    if len(lines) < height + 1:
        raise ParseError(f"expected {height} rows", len(lines) + 1)
    blocked = set()
    for y in range(height):
        row = lines[1 + y]
        if len(row) != width:
            raise ParseError(f"row has {len(row)} cells, expected {width}", y + 2)
        for x, ch in enumerate(row):
            if ch == "#":
                blocked.add((x, y))
            elif ch != ".":
                raise ParseError(f"illegal character {ch!r}", y + 2)
    return replace(grid, blocked=frozenset(blocked))


def grid_expand(
    grid: GridMap, cell: tuple[int, int]
) -> list[tuple[tuple[int, int], float]]:
    x, y = cell
    out = []
    for dx, dy in _STRAIGHT:
        nxt = (x + dx, y + dy)
        if grid.traversable(nxt):
            out.append((nxt, 1.0))
    if grid.connectivity == 8:
        for dx, dy in _DIAGONAL:
            nxt = (x + dx, y + dy)
            if grid.traversable(nxt):
                out.append((nxt, SQRT2))
    return out


def octile_h(a: tuple[int, int], b: tuple[int, int], connectivity: int = 8) -> float:
    dx = abs(a[0] - b[0])
    dy = abs(a[1] - b[1])
    if connectivity == 4:
        return float(dx + dy)
    lo, hi = (dx, dy) if dx < dy else (dy, dx)
    return SQRT2 * lo + (hi - lo)


class GridProblem:
    """SearchProblem over a GridMap between two traversable cells."""

    def __init__(self, grid: GridMap, start: tuple[int, int], goal: tuple[int, int]):
        for name, cell in (("start", start), ("goal", goal)):
            if not grid.in_bounds(cell):
                raise ValueError(
                    f"{name} {cell} is outside the {grid.width}x{grid.height} map"
                )
            if cell in grid.blocked:
                raise ValueError(f"{name} blocked")
        self.grid = grid
        self.initial = start
        self.goal = goal

    def is_goal(self, state: State) -> bool:
        return state == self.goal

    def expand(self, state: tuple[int, int]) -> list[tuple[State, float]]:
        return grid_expand(self.grid, state)

    def h(self, state: tuple[int, int]) -> float:
        return octile_h(state, self.goal, self.grid.connectivity)

    def features(self, state: tuple[int, int]) -> list[Feature]:
        return [state]

    def canonical_bytes(self, state: tuple[int, int]) -> bytes:
        return state[0].to_bytes(4, "little") + state[1].to_bytes(4, "little")

    def default_projection(self) -> dict[Feature, Feature]:
        """Project each cell onto its BLOCK_SIZE x BLOCK_SIZE block."""
        proj = {}
        for x in range(self.grid.width):
            for y in range(self.grid.height):
                proj[(x, y)] = (x // BLOCK_SIZE, y // BLOCK_SIZE)
        return proj

    abstraction_projection = default_projection


def random_grid(
    width: int,
    height: int,
    fill: float,
    seed,
    connectivity: int = 8,
) -> GridMap:
    """Random map with roughly `fill` fraction of blocked cells."""
    import random as _random

    if not 0 <= fill <= 1:
        raise ConfigError(f"grid fill must be in [0, 1], got {fill!r}")

    rng = seed if isinstance(seed, _random.Random) else _random.Random(seed)
    blocked = {
        (x, y)
        for x in range(width)
        for y in range(height)
        if rng.random() < fill
    }
    return GridMap(width, height, frozenset(blocked), connectivity)
