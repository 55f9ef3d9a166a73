"""The search-problem contract shared by every concrete domain.

A problem exposes an initial state, a goal predicate, a successor function
with nonnegative edge costs, an admissible heuristic, and a feature view of
each state used by the hashing strategies. States must be hashable and
immutable; the feature list of a state identifies it uniquely.

Tile states are `bytes` inside the search, one byte per cell: `initial`,
`goal` and every child. A bytes object caches its hash, so a node table
hashes each state once. Outside the search they are tuples of ints: the
generators return tuples, and every solver reports its path through
`reported_path`, which turns each `bytes` state into the tuple of its
values. The rule goes by the state's type, so it also holds for a wrapper
that passes on only the six contract members. `validate_path` takes a path
in either form, and the tile `features` and `canonical_bytes` read either
form alike, so a tuple and its bytes share every strategy's key.

A domain may also define the optional hook `successors(state, h,
parent=None)`, where h is the state's heuristic: one pass over the state's
moves that returns a list of `(child, cost, child_h, move)` records, in
`expand` order, with `child_h == h(child)`, leaving out every record whose
child equals `parent`. `move` is an opaque hashable value naming the move,
or None. `parent` is None or a state that has `state` among its children;
best-first engines pass the stored parent of the node they expand, a child
their table would always count as a duplicate, and the depth-first IDA*
iteration passes the state below on its path, which its on-path check skips.
Engines carry h with each node and expand through
`successors_of(problem)`, which falls back to `expand` plus a full
`h(child)` and a None move, filtered by `child != parent`, for domains
without the hook. Tile puzzles define it with an O(1) Manhattan update
(one moved tile changes its own distance alone), read with the move from
tables built once per board size and shared by every puzzle of that size,
build each child with one `bytes.translate` that exchanges the blank and
the moved tile, and skip the blank move into the parent's blank cell
without building the parent; lattices define it over a table from room
(which axes are below their length) to in-bounds moves, filled on first
use, so a pass builds only the children that fit, and ignore `parent`,
since every lattice move increments coordinates and no child equals a
parent.

A domain whose moves are not None also defines the optional hook
`move_features(move)`: the features removed from and added to the parent's
feature multiset by the move, whose Zobrist bit strings xor the parent's key
into the child's. A None move makes the Zobrist strategies recompute the
child's key from its features. Lattice moves stay None by design: a lattice
move changes the coordinates of the axes it increments, from x to x + 1, so
its features and its xor depend on the parent's coordinates, and a per-move
table would hold about one entry per lattice point.

The optional hooks `default_projection()` (strategy `azh`) and
`abstraction_projection()` (strategy `abstraction`) return a dict mapping
every feature of the domain to an abstract feature, or to None to drop it;
states with equal projected feature multisets share a Zobrist key. Without
the hook a strategy uses the identity projection.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Protocol

State = Hashable
Feature = tuple


class SearchProblem(Protocol):
    """Implicit-graph contract consumed by all searchers."""

    initial: State

    def is_goal(self, state: State) -> bool: ...

    def expand(self, state: State) -> list[tuple[State, float]]:
        """Return the finitely many (successor, edge cost >= 0) pairs."""
        ...

    def h(self, state: State) -> float:
        """Admissible heuristic; 0 at every goal state."""
        ...

    def features(self, state: State) -> list[Feature]:
        """Feature ids whose multiset uniquely identifies the state."""
        ...

    def canonical_bytes(self, state: State) -> bytes:
        """Stable byte serialization of the state (feeds key folding)."""
        ...


def successors_of(problem: SearchProblem):
    """The problem's `successors(state, h, parent=None)` hook, or the
    fallback over `expand` and a full `h(child)` that omits every child
    equal to `parent`; looked up once per search."""
    hook = getattr(problem, "successors", None)
    if hook is not None:
        return hook
    expand = problem.expand
    h = problem.h

    def fallback(state, parent_h, parent=None):
        return [(s, c, h(s), None) for s, c in expand(state) if s != parent]

    return fallback


def fold_key(data: bytes) -> int:
    """Fold a byte string into a 64-bit key by xor'ing 8-byte chunks.

    Deliberately simple; used to derive the multiplicative-hash key from a
    state's canonical bytes.
    """
    key = 0
    for i in range(0, len(data), 8):
        key ^= int.from_bytes(data[i : i + 8], "little")
    return key & 0xFFFFFFFFFFFFFFFF


def validate_path(
    problem: SearchProblem, path: Iterable[State]
) -> float:
    """Re-validate a path edge by edge against expand(); return its cost.

    The path may be in the search's form or in its reported form: when the
    problem's states are `bytes`, each state is read as `bytes(state)`, so
    the tuple path a Solution reports validates too. Raises ValueError if
    consecutive states are not connected or the last state is not a goal.
    """
    path = list(path)
    if not path:
        raise ValueError("empty path")
    if type(problem.initial) is bytes:
        try:
            path = [bytes(state) for state in path]
        except (TypeError, ValueError):
            raise ValueError("path holds a state that is not a byte sequence") from None
    if path[0] != problem.initial:
        raise ValueError("path does not start at the initial state")
    cost = 0.0
    for a, b in zip(path, path[1:]):
        for succ, c in problem.expand(a):
            if succ == b:
                cost += c
                break
        else:
            raise ValueError(f"no edge from {a!r} to {b!r}")
    if not problem.is_goal(path[-1]):
        raise ValueError("path does not end in a goal state")
    return cost


def reported_path(problem: SearchProblem, path: list) -> list:
    """Validate a solution path found by a search and return it in reported
    form: each `bytes` state (a tile board) as the tuple of its values,
    every other state as it is. The rule goes by the state's type, so it
    holds for any wrapper that passes the domain's states through. An empty
    path (no solution) is returned as it is."""
    if not path:
        return []
    validate_path(problem, path)
    return [tuple(state) if type(state) is bytes else state for state in path]
