"""Shared constants and exception types."""

from __future__ import annotations

# Tolerance for float comparisons on path costs and f-values. Edge costs are
# 64-bit floats; differences below EPS are treated as ties, never as
# improvements.
EPS = 1e-9

INF = float("inf")


class ConfigError(ValueError):
    """Invalid configuration: unknown strategy token, bad parameter, etc."""


class ParseError(ValueError):
    """Malformed instance file. Carries a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class NodeLimitExceeded(RuntimeError):
    """A search run exceeded its configured node limit (out of memory)."""

    def __init__(self, limit: int, where: str = "search"):
        self.limit = limit
        super().__init__(f"{where} exceeded node limit of {limit}")


class SearchInvariantError(RuntimeError):
    """A finished search broke one of its own correctness invariants."""
