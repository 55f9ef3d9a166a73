"""Domain-level behavior: expansion rules, heuristics, parsers, invariants."""

import math
import random
from itertools import product

import pytest

from parsearch.common import ConfigError, ParseError
from parsearch.domains import (
    ExplicitGraph,
    GridMap,
    GridProblem,
    LatticeProblem,
    TilePuzzle,
    goal_state,
    grid_expand,
    is_solvable,
    octile_h,
    parse_graph,
    parse_grid,
    random_grid,
    random_scramble,
    random_solvable,
    state_count,
    validate_path,
)
from tests.conftest import grid_dijkstra

SQRT2 = math.sqrt(2.0)


def tuple_successors(state: tuple, n: int) -> list[tuple]:
    """Reference tile successor records over tuples, independent of the
    puzzle's tables: the blank swaps with its up, down, left and right
    neighbour, h is the Manhattan distance summed afresh, and the move is
    (b * n² + j) * n² + t for the blank at b and tile t at j."""
    ncells = n * n
    b = state.index(0)
    r, c = divmod(b, n)
    out = []
    for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
        if 0 <= r + dr < n and 0 <= c + dc < n:
            j = (r + dr) * n + c + dc
            t = state[j]
            lst = list(state)
            lst[b], lst[j] = t, 0
            h = sum(
                abs(pos // n - (tile - 1) // n) + abs(pos % n - (tile - 1) % n)
                for pos, tile in enumerate(lst)
                if tile
            )
            out.append((tuple(lst), 1.0, float(h), (b * ncells + j) * ncells + t))
    return out


def check_successors_against_tuples(p: TilePuzzle, state: bytes) -> None:
    """The puzzle's records for `state`, without and with each neighbour as
    the parent, equal the tuple reference's (children read as tuples)."""
    want = tuple_successors(tuple(state), p.n)
    parents = [None] + [bytes(child) for child, _, _, _ in want]
    for parent in parents:
        got = p.successors(state, p.h(state), parent)
        assert all(type(child) is bytes for child, _, _, _ in got)
        assert [(tuple(child), *rest) for child, *rest in got] == [
            r for r in want if parent is None or r[0] != tuple(parent)
        ]


class TestTiles:
    def test_corner_blank_has_two_successors(self):
        p = TilePuzzle(goal_state(3))
        state = bytes((0, 1, 2, 3, 4, 5, 6, 7, 8))  # blank in the corner
        assert len(p.expand(state)) == 2

    def test_center_blank_has_four_successors(self):
        p = TilePuzzle(goal_state(3))
        state = bytes((1, 2, 3, 4, 0, 5, 6, 7, 8))
        assert len(p.expand(state)) == 4

    def test_expansion_is_symmetric(self):
        p = TilePuzzle(goal_state(3))
        rng = random.Random(5)
        for _ in range(200):
            s = bytes(random_solvable(3, rng))
            for t, cost in p.expand(s):
                assert cost == 1.0
                assert s in [u for u, _ in p.expand(t)]

    def test_scramble_rejects_negative_depth(self):
        assert random_scramble(3, 0, 1) == goal_state(3)
        with pytest.raises(ValueError):
            random_scramble(3, -4, 1)

    def test_manhattan_goal_zero(self):
        p = TilePuzzle(goal_state(3))
        assert p.h(p.goal) == 0.0

    def test_manhattan_one_step(self):
        # tiles 1..7 home, tile 8 one step from home
        p = TilePuzzle(goal_state(3))
        state = (1, 2, 3, 4, 5, 6, 7, 0, 8)
        assert p.h(state) == 1.0

    def test_manhattan_admissible_against_bfs(self, tile3_bfs):
        p = TilePuzzle(goal_state(3))
        rng = random.Random(11)
        for _ in range(1000):
            s = bytes(random_solvable(3, rng))
            assert p.h(s) <= tile3_bfs[s]

    def test_manhattan_consistent_exhaustive(self, tile3_bfs):
        p = TilePuzzle(goal_state(3))
        for s in tile3_bfs:
            hs = p.h(s)
            for t, cost in p.expand(s):
                assert hs <= cost + p.h(t) + 1e-12

    def test_successors_match_expand_and_full_h(self):
        for n in (3, 4, 5):
            p = TilePuzzle(goal_state(n))
            rng = random.Random(10 + n)
            state = bytes(random_solvable(n, rng))
            h = p.h(state)
            for _ in range(10_000):
                records = p.successors(state, h)
                assert [(child, cost) for child, cost, _, _ in records] == p.expand(
                    state
                )
                for child, _, child_h, _ in records:
                    assert child_h == p.h(child)
                state, _, h, _ = rng.choice(records)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_successors_match_reference_blank_moves(self, n):
        # Reference move rule, independent of the puzzle's tables: the blank
        # swaps with its up, down, left and right neighbour, in that order.
        # Rotating the tiles puts every tile on every neighbour of every
        # blank cell, so each move the tables hold is checked.
        p = TilePuzzle(goal_state(n))
        ntiles = n * n - 1
        for b in range(n * n):
            r, c = divmod(b, n)
            for k in range(ntiles):
                tiles = [(i + k) % ntiles + 1 for i in range(ntiles)]
                tiles.insert(b, 0)
                state = bytes(tiles)
                want = []
                for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                    if 0 <= r + dr < n and 0 <= c + dc < n:
                        j = (r + dr) * n + c + dc
                        child = list(state)
                        child[b], child[j] = child[j], child[b]
                        want.append(bytes(child))
                records = p.successors(state, p.h(state))
                assert [child for child, _, _, _ in records] == want
                parent_features = set(p.features(state))
                for child, cost, child_h, move in records:
                    assert cost == 1.0
                    assert child_h == p.h(child)
                    child_features = set(p.features(child))
                    features = p.move_features(move)
                    assert set(features[:2]) == parent_features - child_features
                    assert set(features[2:]) == child_features - parent_features

    def test_successors_equal_tuple_reference_on_every_3x3_state(self, tile3_bfs):
        p = TilePuzzle(goal_state(3))
        for state in tile3_bfs:
            check_successors_against_tuples(p, state)

    def test_successors_equal_tuple_reference_with_blank_in_every_4x4_cell(self):
        p = TilePuzzle(goal_state(4))
        for seed in range(20):
            start = list(random_solvable(4, seed))
            for cell in range(16):
                lst = list(start)
                b = lst.index(0)
                lst[b], lst[cell] = lst[cell], 0
                check_successors_against_tuples(p, bytes(lst))

    def test_expand_takes_either_form(self):
        # A generator's tuple expands to the children of its bytes form.
        for state in (goal_state(3), random_solvable(3, 5), random_scramble(4, 30, 2)):
            assert type(state) is tuple
            p = TilePuzzle(state)
            want = p.expand(bytes(state))
            assert p.expand(state) == want
            assert all(type(child) is bytes for child, _ in want)

    def test_validate_path_reads_either_form(self):
        p = TilePuzzle((1, 2, 3, 4, 5, 6, 7, 0, 8))
        path = [(1, 2, 3, 4, 5, 6, 7, 0, 8), goal_state(3)]
        assert validate_path(p, path) == 1.0
        assert validate_path(p, [bytes(s) for s in path]) == 1.0
        for bad in ([(1, 2, 3, 4, 5, 6, 7, 0, 300)], [("a",) * 9]):
            with pytest.raises(ValueError, match="not a byte sequence"):
                validate_path(p, bad)

    def test_random_solvable_all_reachable(self, tile3_bfs):
        rng = random.Random(123)
        for _ in range(10_000):
            assert bytes(random_solvable(3, rng)) in tile3_bfs

    def test_random_solvable_2x2_in_reachable_set(self):
        puzzle = TilePuzzle(goal_state(2))
        reachable = {puzzle.goal}
        frontier = [puzzle.goal]
        while frontier:
            s = frontier.pop()
            for t, _ in puzzle.expand(s):
                if t not in reachable:
                    reachable.add(t)
                    frontier.append(t)
        assert len(reachable) == 12
        for seed in range(200):
            assert bytes(random_solvable(2, seed)) in reachable

    def test_random_solvable_deterministic(self):
        assert random_solvable(4, 99) == random_solvable(4, 99)

    def test_solvability_parity_matches_bfs(self, tile3_bfs):
        rng = random.Random(7)
        for _ in range(2000):
            perm = list(range(9))
            rng.shuffle(perm)
            s = bytes(perm)
            assert is_solvable(s, 3) == (s in tile3_bfs)

    def test_state_count(self):
        assert state_count(2) == 12
        assert state_count(3) == 181_440
        assert state_count(5) == 7_755_605_021_665_492_992_000_000

    def test_rejects_bad_state(self):
        with pytest.raises(ValueError):
            TilePuzzle((0, 1, 2))
        with pytest.raises(ValueError):
            TilePuzzle((0, 0, 1, 2))
        # Floats and bools pass the permutation test (1.0 == 1, True == 1)
        # but are not tiles; the board's tables are indexed by tile.
        for initial in ((1.0, 2.0, 0.0, 3.0), (1, 2, 0.0, 3), (True, 2, 0, 3)):
            with pytest.raises(ValueError, match="not an int"):
                TilePuzzle(initial)
        # A state holds one byte per cell: 16x16 is the largest board.
        assert TilePuzzle(goal_state(16)).initial == bytes(goal_state(16))
        with pytest.raises(ValueError, match="limited to 16x16"):
            TilePuzzle(goal_state(17))


class TestGrid:
    def test_parse_minimal(self):
        g = parse_grid("2 2 4\n..\n..")
        assert g.width == 2 and g.height == 2 and g.connectivity == 4
        assert not g.blocked

    def test_parse_short_row_reports_line(self):
        with pytest.raises(ParseError) as exc:
            parse_grid("3 2 8\n...\n..")
        assert exc.value.line == 3

    def test_parse_illegal_character(self):
        with pytest.raises(ParseError):
            parse_grid("2 1 8\n.x")

    def test_parse_bad_connectivity(self):
        with pytest.raises(ParseError):
            parse_grid("2 2 6\n..\n..")

    def test_every_map_refuses_bad_connectivity(self):
        for conn in (0, 5, 6):
            with pytest.raises(ConfigError, match="connectivity must be 4 or 8"):
                GridMap(2, 2, frozenset(), conn)
            with pytest.raises(ConfigError, match="connectivity must be 4 or 8"):
                random_grid(4, 4, 0.25, 1, conn)

    def test_every_map_refuses_an_empty_side(self):
        for width, height in ((0, 3), (3, 0), (-1, 2)):
            with pytest.raises(ConfigError, match="width and height must be positive"):
                GridMap(width, height, frozenset())
        with pytest.raises(ParseError, match="must be positive") as exc:
            parse_grid("0 2 8\n..\n..")
        assert exc.value.line == 1

    def test_random_grid_refuses_fill_outside_unit_interval(self):
        for fill in (-0.1, 1.5, math.nan, math.inf):
            with pytest.raises(ConfigError, match="fill must be in"):
                random_grid(4, 4, fill, 1)
        assert len(random_grid(4, 4, 1.0, 1).blocked) == 16
        assert not random_grid(4, 4, 0.0, 1).blocked

    def test_blocked_start_rejected(self):
        g = parse_grid("2 2 8\n#.\n..")
        with pytest.raises(ValueError, match="start blocked"):
            GridProblem(g, (0, 0), (1, 1))

    def test_cell_outside_the_map_is_named_outside(self):
        g = parse_grid("4 4 8\n....\n....\n....\n....")
        with pytest.raises(ValueError, match=r"^start \(9, 9\) is outside the 4x4 map$"):
            GridProblem(g, (9, 9), (3, 3))
        with pytest.raises(ValueError, match=r"^goal \(3, -1\) is outside the 4x4 map$"):
            GridProblem(g, (0, 0), (3, -1))

    def test_interior_cell_eight_successors(self):
        g = parse_grid("3 3 8\n...\n...\n...")
        assert len(grid_expand(g, (1, 1))) == 8

    def test_corner_cell_four_connected(self):
        g = parse_grid("3 3 4\n...\n...\n...")
        assert len(grid_expand(g, (0, 0))) == 2

    def test_diagonal_cost(self):
        g = parse_grid("2 2 8\n..\n..")
        costs = {nxt: c for nxt, c in grid_expand(g, (0, 0))}
        assert abs(costs[(1, 1)] - SQRT2) <= 1e-12

    def test_octile_identity(self):
        assert octile_h((3, 4), (3, 4)) == 0.0

    def test_octile_two_diagonals(self):
        assert abs(octile_h((0, 0), (2, 2)) - 2 * SQRT2) <= 1e-12

    def test_octile_admissible_on_random_maps(self):
        for seed in range(100):
            grid = random_grid(16, 16, 0.3, seed)
            goal = (15, 15)
            dist = grid_dijkstra(grid, goal)
            for cell, d in dist.items():
                assert octile_h(cell, goal) <= d + 1e-9

    def test_octile_consistent_exhaustive(self):
        grid = random_grid(16, 16, 0.25, 3)
        goal = (15, 15)
        for x in range(16):
            for y in range(16):
                if not grid.traversable((x, y)):
                    continue
                h0 = octile_h((x, y), goal)
                for nxt, cost in grid_expand(grid, (x, y)):
                    assert h0 <= cost + octile_h(nxt, goal) + 1e-12


class TestGraph:
    @pytest.mark.parametrize(
        "text, line",
        [
            ("start s\ngoal t\nh s nan\ns t 1\n", 3),
            ("start s\ngoal t\ns t nan\n", 3),
            ("start s\ngoal t\ns t -1\n", 3),
        ],
    )
    def test_nan_or_negative_value_reports_line(self, text, line):
        with pytest.raises(ParseError) as exc:
            parse_graph(text)
        assert exc.value.line == line

    def test_constructor_rejects_nan(self):
        with pytest.raises(ValueError):
            ExplicitGraph([("s", "t", math.nan)], "s", {"t"})
        with pytest.raises(ValueError):
            ExplicitGraph([("s", "t", 1.0)], "s", {"t"}, {"s": math.nan})


class TestLattice:
    def test_interior_point_three_successors(self):
        p = LatticeProblem((3, 3))
        assert len(p.expand((1, 1))) == 3

    def test_goal_corner_no_successors(self):
        p = LatticeProblem((2, 2))
        assert p.expand((2, 2)) == []

    def test_reachable_space_is_a_dag(self):
        # Kahn-style cycle detection over the full n=3, length-4 lattice.
        p = LatticeProblem((4, 4, 4))
        indegree: dict = {}
        states = list(p.all_states())
        for s in states:
            indegree.setdefault(s, 0)
            for t, _ in p.expand(s):
                indegree[t] = indegree.get(t, 0) + 1
        queue = [s for s, d in indegree.items() if d == 0]
        seen = 0
        while queue:
            s = queue.pop()
            seen += 1
            for t, _ in p.expand(s):
                indegree[t] -= 1
                if indegree[t] == 0:
                    queue.append(t)
        assert seen == len(states)

    def test_successors_match_expand_with_zero_h(self):
        # 1-D to 4-D (15 patterns, 16 rooms), distinct per-pattern costs.
        for lengths in ((5,), (3, 2), (3, 2, 4), (2, 1, 3, 2)):
            patterns = [pat for pat in product((0, 1), repeat=len(lengths)) if any(pat)]
            costs = {pat: 1.0 + 0.5 * i for i, pat in enumerate(patterns)}
            p = LatticeProblem(lengths, costs)
            for s in p.all_states():
                # Reference move rules: add each pattern, keep in-bounds points.
                want = []
                for pat in patterns:
                    child = tuple(x + d for x, d in zip(s, pat))
                    if all(x <= l for x, l in zip(child, lengths)):
                        want.append((child, costs[pat]))
                assert p.expand(s) == want
                assert p.successors(s, 0.0) == [
                    (child, cost, 0.0, None) for child, cost in want
                ]
            # Every point has been expanded, so every room has its entry:
            # the moves whose incremented axes are all below their length.
            assert len(p._room_moves) == 2 ** len(lengths)
            for room, moves in p._room_moves.items():
                assert moves == [
                    (pat, costs[pat])
                    for pat in patterns
                    if all(free or not step for step, free in zip(pat, room))
                ]

    def test_costs_come_from_table(self):
        costs = {(1, 0): 2.0, (0, 1): 3.0, (1, 1): 5.0}
        p = LatticeProblem((1, 1), costs)
        got = dict(p.expand((0, 0)))
        assert got[(1, 0)] == 2.0 and got[(0, 1)] == 3.0 and got[(1, 1)] == 5.0

    def test_rejects_negative_cost(self):
        with pytest.raises(ValueError):
            LatticeProblem((1, 1), {(1, 0): -1.0, (0, 1): 1.0, (1, 1): 1.0})

    @pytest.mark.parametrize("lengths", [(2.5, 2), (2, 2.0), (True, 2), (2, False)])
    def test_rejects_non_int_lengths(self, lengths):
        # A float length let A* return cost inf; bools are not lengths.
        with pytest.raises(ValueError, match="positive ints"):
            LatticeProblem(lengths)

    def test_rejects_nan_cost(self):
        # NaN fails `< 0` too; accepted, it made A* report cost inf on a
        # lattice whose (1, 1)-moves reach the goal at cost 2.
        with pytest.raises(ValueError):
            LatticeProblem((2, 2), {(0, 1): math.nan, (1, 0): 1.0, (1, 1): 1.0})
