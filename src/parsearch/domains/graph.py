"""Explicit weighted digraph domain, loadable from a small text format.

File format, one directive per line ('#' starts a comment):

    start u
    goal v
    h u value          (optional per-node heuristic, default 0)
    u v cost           (directed edge)
"""

from __future__ import annotations

import math

from parsearch.common import ParseError
from parsearch.domains.base import Feature, State


class ExplicitGraph:
    def __init__(
        self,
        edges: list[tuple[str, str, float]],
        start: str,
        goals: set[str],
        h_values: dict[str, float] | None = None,
    ):
        self.adj: dict[str, list[tuple[str, float]]] = {}
        for u, v, cost in edges:
            if not cost >= 0:  # also rejects NaN
                raise ValueError(f"edge cost on {u} -> {v} must be >= 0")
            self.adj.setdefault(u, []).append((v, float(cost)))
        if not goals:
            raise ValueError("at least one goal required")
        self.initial = start
        self.goals = frozenset(goals)
        self.h_values = dict(h_values or {})
        for u, value in self.h_values.items():
            if math.isnan(value):
                raise ValueError(f"heuristic value of {u} is NaN")

    def is_goal(self, state: State) -> bool:
        return state in self.goals

    def expand(self, state: str) -> list[tuple[State, float]]:
        return list(self.adj.get(state, ()))

    def h(self, state: str) -> float:
        return self.h_values.get(state, 0.0)

    def features(self, state: str) -> list[Feature]:
        return [("n", state)]

    def canonical_bytes(self, state: str) -> bytes:
        return state.encode("utf-8")


def parse_graph(text: str) -> ExplicitGraph:
    start = None
    goals: set[str] = set()
    h_values: dict[str, float] = {}
    edges: list[tuple[str, str, float]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tok = line.split()
        if tok[0] == "start" and len(tok) == 2:
            start = tok[1]
        elif tok[0] == "goal" and len(tok) == 2:
            goals.add(tok[1])
        elif tok[0] == "h" and len(tok) == 3:
            try:
                value = float(tok[2])
            except ValueError:
                raise ParseError("bad heuristic value", lineno) from None
            if math.isnan(value):
                raise ParseError("heuristic value is NaN", lineno)
            h_values[tok[1]] = value
        elif len(tok) == 3:
            try:
                cost = float(tok[2])
            except ValueError:
                raise ParseError("bad edge cost", lineno) from None
            if not cost >= 0:  # also rejects NaN
                raise ParseError("edge cost must be >= 0", lineno)
            edges.append((tok[0], tok[1], cost))
        else:
            raise ParseError(f"unrecognized directive {line!r}", lineno)
    if start is None:
        raise ParseError("missing 'start' directive")
    if not goals:
        raise ParseError("missing 'goal' directive")
    return ExplicitGraph(edges, start, goals, h_values)


def missorder_graph() -> ExplicitGraph:
    """Four-node graph on which a bad expansion order forces a reopen.

    Edges a->b:1, a->c:1, b->d:1, c->d:3 with goal d and h == 0. The optimal
    route a,b,d costs 2; expanding d first via a,c,d records g(d) = 4 and the
    later arrival of g(d) = 2 must reopen it.
    """
    return ExplicitGraph(
        [("a", "b", 1.0), ("a", "c", 1.0), ("b", "d", 1.0), ("c", "d", 3.0)],
        start="a",
        goals={"d"},
    )
