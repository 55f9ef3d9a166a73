"""Work-distribution strategies: state -> 64-bit key -> owner worker.

Four strategy classes: Zobrist, multiplicative, hyperplane (lattices only)
and random. Abstract Zobrist hashing (`azh`) and abstraction-based
distribution (`abstraction`) are Zobrist hashing over a per-feature
projection that maps each feature to an abstract feature, or to None to drop
it; `make_strategy` takes the projection from the domain's
`default_projection()` or `abstraction_projection()` hook. Keys are 64-bit;
duplicate detection always compares full states, never keys alone.

A state's key is its one routing input: `owner(key, p)` maps it to a
worker, by `key % p` except for the multiplicative strategy. The strategy
objects hold the one form of each routing rule. Keys are carried, not
cached: `child_key(parent_key, child, move)` derives a successor's key from
its parent's key and the move that the domain's `successors` hook reported.
The Zobrist family xors the parent's key with one bit string per move: the
xor over the domain's `move_features(move)`, kept in a table bounded by the
number of distinct moves. On a None move (every domain without the hook) it
recomputes the key from the child's features, as the other strategies
always do. Lattice moves are None by design: the xor of a lattice move
depends on the parent's coordinates, so a move table would hold about one
entry per lattice point, as much as a per-state key cache. No strategy
keeps memory per state.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import partial
from typing import Iterable

from parsearch.common import DEFAULT_SEED, ConfigError, LazyTable, unique_keys
from parsearch.domains.base import Feature, SearchProblem, State, fold_key
from parsearch.domains.lattice import LatticeProblem

MASK64 = 0xFFFFFFFFFFFFFFFF
TWO64 = 1 << 64
GOLDEN_FRAC = (5**0.5 - 1) / 2  # fractional part of the golden ratio

STRATEGY_TOKENS = ("zobrist", "azh", "mult", "abstraction", "hyperplane", "random")


def splitmix64(x: int) -> int:
    """Counter-based 64-bit mixer; the bit-string generator for all tables."""
    x = (x + 0x9E3779B97F4A7C15) & MASK64
    z = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def _stable_mix(acc: int, obj) -> int:
    """Mix a feature component into acc, deterministically across runs."""
    if isinstance(obj, int):  # bool included
        return splitmix64(acc ^ 0xD1 ^ (obj & MASK64))
    if isinstance(obj, str):
        acc = splitmix64(acc ^ 0xD2 ^ len(obj))
        data = obj.encode("utf-8")
        for i in range(0, len(data), 8):
            acc = splitmix64(acc ^ int.from_bytes(data[i : i + 8], "little"))
        return acc
    if isinstance(obj, tuple):
        acc = splitmix64(acc ^ 0xD3 ^ len(obj))
        for item in obj:
            acc = _stable_mix(acc, item)
        return acc
    raise ConfigError(f"feature component {obj!r} has no stable encoding")


def _zobrist_entry(base: int, projection: dict | None, feature: Feature) -> int:
    """The bit string of a feature, or of its projection; 0 when dropped."""
    target = feature if projection is None else projection[feature]
    return 0 if target is None else splitmix64(_stable_mix(base, target))


class ZobristTable(LazyTable):
    """Feature -> 64-bit random bit string.

    Entries are derived deterministically from the seed by a counter-based
    generator, so the table never depends on insertion order; `table[f]`
    fills a missing entry on first use. With a projection, the entry of a
    feature f is the bit string of `projection[f]`, or 0 when f is dropped
    (projected to None), so a key over a projected table is the abstract
    state's key, one lookup per feature.
    """

    def __init__(self, seed: int = DEFAULT_SEED, projection: dict | None = None):
        super().__init__(partial(_zobrist_entry, splitmix64(seed & MASK64), projection))


def zobrist_key(table: ZobristTable, features: Iterable[Feature]) -> int:
    """xor of the table's bit strings over the feature list."""
    key = 0
    for f in features:
        key ^= table[f]
    return key


def _move_xor_entry(table: ZobristTable, move_features, move) -> int:
    """xor of a Zobrist table's bit strings over a move's features: the fill
    of a strategy's move table, which holds one entry per distinct move."""
    return zobrist_key(table, move_features(move))


def azh_key(
    table: ZobristTable,
    projection: dict[Feature, Feature | None] | None,
    features: Iterable[Feature],
) -> int:
    """Zobrist key of the projected feature multiset (None: identity).

    The reference form of a projected table's key: a feature projected to
    None is dropped, as `table[None]` is 0.
    """
    if projection is None:
        return zobrist_key(table, features)
    key = 0
    for f in features:
        key ^= table[projection[f]]
    return key


def _mult_fixed(a: float) -> int:
    """Validate a multiplier in [0, 1) and quantize it to 64 fractional bits."""
    if not 0.0 <= a < 1.0:
        raise ConfigError("multiplier must lie in [0, 1)")
    return int(a * TWO64)


def _mult_slot(kappa: int, p: int, a_fixed: int) -> int:
    """floor(p * frac(kappa * a)) for a multiplier a quantized to 64
    fractional bits, after which the product and its fractional part are
    exact for any 64-bit kappa: no precision is lost to a float frac()."""
    return (p * (((kappa & MASK64) * a_fixed) & MASK64)) >> 64


def normalize_thickness(d) -> int | Fraction:
    """Validate a hyperplane thickness: integer >= 1 or a unit fraction.

    `d` is an int, a Fraction, or a string such as "2" or "1/3".
    """
    if isinstance(d, str):
        try:
            if "/" in d:
                num, den = d.split("/", 1)
                d = Fraction(int(num), int(den))
            else:
                d = Fraction(d)
        except (ValueError, ZeroDivisionError):
            raise ConfigError(f"bad hyperplane thickness {d!r}") from None
    elif isinstance(d, int):
        d = Fraction(d)
    if not isinstance(d, Fraction):
        raise ConfigError(f"bad hyperplane thickness {d!r}")
    if d >= 1:
        if d.denominator != 1:
            raise ConfigError("thickness >= 1 must be an integer")
        return int(d)
    if d.numerator == 1 and d.denominator >= 2:
        return d
    raise ConfigError("thickness < 1 must be a unit fraction 1/m")


def _plane(coords: tuple[int, ...], d: int | Fraction, zkey: int | None) -> int:
    """Plane index of a lattice point for a normalized thickness d.

    Integer d: floor(sum(x)/d), ignoring zkey. Unit-fraction d = 1/m:
    m*sum(x) + (Z mod m) for the point's Zobrist key Z, which interleaves m
    Zobrist-selected sub-planes per coordinate sum.
    """
    total = sum(coords)
    if isinstance(d, int):
        return total // d
    m = d.denominator
    return m * total + (zkey % m)


def hyperplane_fanout_bound(n: int, d) -> int:
    """Upper bound floor(n/d + max(1, 1/d)) on distinct successor owners."""
    d = normalize_thickness(d)
    return int(Fraction(n) / d + max(1, 1 / d))


# --- strategy objects -------------------------------------------------------


class Strategy:
    """Defaults shared by the strategy objects.

    A strategy defines `key(state)`, its one routing input.
    `child_key(parent_key, child, move)` derives a successor's key (here: a
    full recompute) and `owner(key, p)` maps a key to a worker in [0, p).
    """

    def child_key(self, parent_key, child: State, move):
        return self.key(child)

    def owner(self, key: int, p: int) -> int:
        if p < 1:
            raise ConfigError("worker count must be >= 1")
        return key % p


class ZobristStrategy(Strategy):
    """Zobrist hashing, over the features or over their projection."""

    def __init__(
        self, problem: SearchProblem, seed=DEFAULT_SEED, projection=None, name="zobrist"
    ):
        self.problem = problem
        self.name = name
        self.table = ZobristTable(seed, projection)
        self._features = problem.features
        move_features = getattr(problem, "move_features", None)
        self._move_xor = LazyTable(partial(_move_xor_entry, self.table, move_features))

    def key(self, state: State) -> int:
        return zobrist_key(self.table, self._features(state))

    def child_key(self, parent_key: int, child: State, move) -> int:
        # Inlined loop: this runs once per generated state.
        if move is not None:
            return parent_key ^ self._move_xor[move]
        table = self.table
        key = 0
        for f in self._features(child):
            key ^= table[f]
        return key


class MultiplicativeStrategy(Strategy):
    """Golden-ratio multiplicative hash over a folded state key.

    The multiplier a is validated and quantized once, here; `owner` then
    computes floor(p * frac(key * a)) exactly in 64-bit fixed point.
    """

    name = "mult"

    def __init__(self, problem: SearchProblem, a: float = GOLDEN_FRAC):
        self.problem = problem
        self.a = a
        self._a_fixed = _mult_fixed(a)

    def key(self, state: State) -> int:
        return fold_key(self.problem.canonical_bytes(state))

    def owner(self, key: int, p: int) -> int:
        if p < 1:
            raise ConfigError("worker count must be >= 1")
        return _mult_slot(key, p, self._a_fixed)


class HyperplaneStrategy(Strategy):
    """Lattice-only owner bounding the fan-out; the key is the plane index,
    with Zobrist-selected sub-planes at a fractional thickness."""

    name = "hyperplane"

    def __init__(self, problem: SearchProblem, d=1, seed: int = DEFAULT_SEED):
        if not isinstance(problem, LatticeProblem):
            raise ConfigError("hyperplane strategy requires a lattice problem")
        self.problem = problem
        self.d = normalize_thickness(d)
        self.table = ZobristTable(seed)

    def key(self, state: State) -> int:
        zkey = None
        if not isinstance(self.d, int):
            zkey = zobrist_key(self.table, self.problem.features(state))
        return _plane(state, self.d, zkey)


class RandomStrategy(Strategy):
    """Uniform random owner per routed state; duplicates may land anywhere.

    Each `key` call draws afresh from one stream seeded at construction, so
    a strategy object reused for a second run routes it differently.
    """

    name = "random"

    def __init__(self, problem: SearchProblem, seed: int = DEFAULT_SEED):
        self._rng = random.Random(seed)

    def key(self, state: State) -> int:
        return self._rng.getrandbits(64)


def parse_strategy_config(text: str) -> dict[str, str]:
    """Parse 'key = value' lines; '#' starts a comment."""
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected key = value")
        key, value = line.split("=", 1)
        pairs.append((key.strip(), value.strip()))
    return unique_keys(pairs, "config key")


def make_strategy(
    token: str,
    problem: SearchProblem,
    seed: int = DEFAULT_SEED,
    config: dict[str, str] | None = None,
):
    """Build a strategy from its CLI token; refuse config keys it never reads."""
    if token not in STRATEGY_TOKENS:
        raise ConfigError(
            f"unknown strategy {token!r}; expected one of {', '.join(STRATEGY_TOKENS)}"
        )
    config = dict(config or {})  # each branch pops the keys it reads
    if token == "zobrist":
        strategy = ZobristStrategy(problem, seed)
    elif token in ("azh", "abstraction"):
        hook = "default_projection" if token == "azh" else "abstraction_projection"
        project = getattr(problem, hook, None)  # no hook: identity projection
        strategy = ZobristStrategy(problem, seed, project() if project else None, token)
    elif token == "mult":
        a = float(config.pop("multiplier", GOLDEN_FRAC))
        strategy = MultiplicativeStrategy(problem, a)
    elif token == "hyperplane":
        strategy = HyperplaneStrategy(problem, config.pop("d", 1), seed)
    else:
        strategy = RandomStrategy(problem, seed)
    if config:
        unread = ", ".join(map(repr, sorted(config)))
        raise ConfigError(f"strategy {token!r} reads no config key {unread}")
    return strategy
