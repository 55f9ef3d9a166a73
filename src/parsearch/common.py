"""Shared constants, exception types, the settings checks and LazyTable."""

from __future__ import annotations

# Tolerance for float comparisons on path costs and f-values. Edge costs are
# 64-bit floats; differences below EPS are treated as ties, never as
# improvements.
EPS = 1e-9

INF = float("inf")

# The seed of every seeded default: engine schedules, hash strategies and
# the allocation bridge's runs.
DEFAULT_SEED = 42


class ConfigError(ValueError):
    """Invalid configuration: unknown strategy token, bad parameter, etc."""


def check_count(name: str, value, least: int = 1) -> None:
    """Raise ConfigError unless value is an int (not a bool) >= least."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ConfigError(f"{name} must be an integer >= {least}")


def unique_keys(pairs, what: str) -> dict:
    """The dict of (key, value) pairs; a key given twice is a ConfigError
    naming it, where a plain dict would keep the last value."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ConfigError(f"{what} {key!r} given twice")
        out[key] = value
    return out


class LazyTable(dict):
    """A dict whose `table[key]` stores and returns `fill(key)` when missing.
    Bind a fill's other arguments with `functools.partial`: a closure over
    the table's owner would make the owner a reference cycle."""

    def __init__(self, fill):
        super().__init__()
        self._fill = fill

    def __missing__(self, key):
        entry = self[key] = self._fill(key)
        return entry


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
