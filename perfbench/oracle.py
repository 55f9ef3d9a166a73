"""Benchmark-owned instance generators and reference serial A*.

Nothing here imports parsearch: the inputs a seed produces, the reference
optimal costs and the reference expansion counts must not change when the
code under test changes. The reference A* orders its open list exactly like
`parsearch.serial.BestFirstSearch` does (key (g + h, -g, insertion order),
successors in the domain's move order), so at the commit that added this
benchmark its expansion counts equal `parsearch.astar`'s.
"""

from __future__ import annotations

import random
from heapq import heappop, heappush
from itertools import product

TILE_N = 4
TILE_GOAL = tuple(range(1, TILE_N * TILE_N)) + (0,)


def _tile_moves(n: int) -> list[tuple[int, ...]]:
    moves = []
    for i in range(n * n):
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
        moves.append(tuple(m))
    return moves


TILE_MOVES = _tile_moves(TILE_N)


def tile_successors(state: tuple[int, ...]) -> list[tuple[int, ...]]:
    blank = state.index(0)
    out = []
    for j in TILE_MOVES[blank]:
        lst = list(state)
        lst[blank] = lst[j]
        lst[j] = 0
        out.append(tuple(lst))
    return out


def _manhattan_table(n: int) -> list[int]:
    table = [0] * (n * n * n * n)
    for tile in range(1, n * n):
        gr, gc = divmod(tile - 1, n)
        for pos in range(n * n):
            r, c = divmod(pos, n)
            table[tile * n * n + pos] = abs(r - gr) + abs(c - gc)
    return table


MANHATTAN = _manhattan_table(TILE_N)


def manhattan(state: tuple[int, ...]) -> int:
    table = MANHATTAN
    cells = TILE_N * TILE_N
    return sum(table[tile * cells + pos] for pos, tile in enumerate(state))


def tile_walk(seed: int, index: int, depth: int) -> tuple[int, ...]:
    """Candidate `index` of a seed's stream: a random blank walk from the goal
    with no immediate undo."""
    rng = random.Random(seed * 1_000_003 + index)
    state, prev = TILE_GOAL, None
    for _ in range(depth):
        succs = [s for s in tile_successors(state) if s != prev]
        prev, state = state, rng.choice(succs)
    return state


# Per-pattern step costs of the lattice before its axes are permuted.
LATTICE_COSTS = {
    (0, 0, 1): 3.0,
    (0, 1, 0): 4.0,
    (1, 0, 0): 5.0,
    (0, 1, 1): 6.0,
    (1, 0, 1): 7.0,
    (1, 1, 0): 8.0,
    (1, 1, 1): 9.0,
}


def lattice_costs(seed: int, index: int) -> dict[tuple[int, ...], float]:
    """Per-pattern step costs of lattice `index` of a seed's stream: the
    seed permutes the axes of LATTICE_COSTS.

    All lattices of the stream are thus isomorphic and differ in which axes
    are cheap, which changes how the hash spreads each cost front over the
    workers. Independently drawn costs made search overhead differ by tens
    of percent between lattices, too much for a set of five.
    """
    rng = random.Random(seed * 1_000_003 + index)
    axes = [0, 1, 2]
    rng.shuffle(axes)
    return {
        tuple(pat[a] for a in axes): cost for pat, cost in LATTICE_COSTS.items()
    }


# Move patterns in `parsearch.domains.LatticeProblem`'s successor order.
LATTICE_PATTERNS = [p for p in product((0, 1), repeat=3) if any(p)]


def astar(initial, is_goal, successors, h, limit: int):
    """Reference A*; returns (cost, expansions), or None past `limit`
    expansions. `successors(state)` yields (state, edge cost) pairs."""
    heap = [(h(initial), 0.0, 0, initial)]
    open_tbl = {initial: (0.0, h(initial))}
    closed = {}
    seq = 1
    expanded = 0
    while heap:
        _, neg_g, _, state = heappop(heap)
        entry = open_tbl.get(state)
        if entry is None or entry[0] != -neg_g:
            continue
        g, _ = entry
        del open_tbl[state]
        closed[state] = g
        expanded += 1
        if is_goal(state):
            return g, expanded
        if expanded > limit:
            return None
        for succ, cost in successors(state):
            g1 = g + cost
            old = closed.get(succ)
            if old is not None:
                if g1 < old - 1e-9:
                    del closed[succ]
                    h1 = h(succ)
                else:
                    continue
            else:
                entry = open_tbl.get(succ)
                if entry is not None:
                    if g1 < entry[0] - 1e-9:
                        h1 = entry[1]
                    else:
                        continue
                else:
                    h1 = h(succ)
            open_tbl[succ] = (g1, h1)
            heappush(heap, (g1 + h1, -g1, seq, succ))
            seq += 1
    return None


def tile_edges(state):
    return [(s, 1.0) for s in tile_successors(state)]


def select_tiles(seed: int, count: int, depth: int, max_gap: int, band: tuple[int, int]):
    """The first `count` candidates of the seed's walk stream that reference
    A* solves within the `band` of expansions.

    Only candidates with `depth - h(start) <= max_gap` are solved: the
    optimal cost is at most `depth`, so this bounds C* - h(start) and skips
    hopeless candidates cheaply. The band's upper edge caps every instance.
    Its lower edge drops near-trivial instances: on those the parallel
    engines spend nearly all their work on the f = C* plateau, which made
    search overhead swing between seeds. Returns a list of
    (stream index, start, cost, expansions).
    """
    lo, hi = band
    chosen = []
    index = 0
    while len(chosen) < count:
        start = tile_walk(seed, index, depth)
        if depth - manhattan(start) <= max_gap:
            found = astar(start, TILE_GOAL.__eq__, tile_edges, manhattan, hi)
            if found is not None and found[1] >= lo:
                chosen.append((index, start, found[0], found[1]))
        index += 1
    return chosen


def tile_path_cost(path, start) -> float | None:
    """Cost of a path of legal moves from `start` to the goal, else None."""
    if not path or path[0] != start or path[-1] != TILE_GOAL:
        return None
    for a, b in zip(path, path[1:]):
        if b not in tile_successors(a):
            return None
    return float(len(path) - 1)


def lattice_path_cost(path, costs, side: int) -> float | None:
    """Cost of a monotone move path from the origin to the far corner."""
    if not path or path[0] != (0, 0, 0) or path[-1] != (side, side, side):
        return None
    total = 0.0
    for a, b in zip(path, path[1:]):
        pat = tuple(y - x for x, y in zip(a, b))
        if pat not in costs:
            return None
        total += costs[pat]
    return total


def select_lattices(seed: int, count: int, side: int):
    """The first `count` lattices of the seed's stream with their reference
    costs. Returns a list of (stream index, costs, cost, expansions)."""
    goal = (side, side, side)
    chosen = []
    for index in range(count):
        costs = lattice_costs(seed, index)

        def edges(state, costs=costs):
            out = []
            for pat in LATTICE_PATTERNS:
                nxt = tuple(x + d for x, d in zip(state, pat))
                if all(x <= side for x in nxt):
                    out.append((nxt, costs[pat]))
            return out

        found = astar((0, 0, 0), goal.__eq__, edges, lambda s: 0.0, side ** 3 * 8)
        chosen.append((index, costs, found[0], found[1]))
    return chosen
