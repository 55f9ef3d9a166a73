"""Iterative-allocation cost simulator for utility computing.

A ravenous solver is re-run with geometrically growing hardware allocation
unit (HAU) counts until it succeeds. Failing iterations last at most E
hours; the first allocation at or above the minimal width succeeds and runs
for the makespan T. Costs follow either a continuous model (pay exactly
duration * HAUs) or a discrete model (per-HAU billing in whole hours, with
optional reuse of spare paid-up time across iterations).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from parsearch.common import DEFAULT_SEED, INF, ConfigError

_CEIL_EPS = 1e-9


def _ceil(x: float) -> int:
    return max(1, math.ceil(x - _CEIL_EPS)) if x > 0 else 0


@dataclass
class SolverProfile:
    """Cost-relevant behavior of one (problem, solver) pair.

    min_width: smallest HAU count that solves the problem (monotone: any
    larger count also solves it). makespan: hours for a successful run.
    fail_time: hours a failing iteration runs before exhausting memory (the
    max iteration time).
    """

    min_width: int
    makespan: float = 1.0
    fail_time: float = 1.0

    def __post_init__(self):
        if self.min_width < 1:
            raise ConfigError("min_width must be >= 1")
        if not 0 < self.makespan < INF:
            raise ConfigError(f"makespan must be finite and > 0, got {self.makespan}")
        if not 0 <= self.fail_time < INF:
            raise ConfigError(f"fail_time must be finite and >= 0, got {self.fail_time}")

    def duration(self, width: int) -> float:
        if width < self.min_width:
            return self.fail_time
        return float(self.makespan)

    def solves(self, width: int) -> bool:
        return width >= self.min_width


@dataclass
class CostModel:
    kind: str = "discrete"  # "continuous" | "discrete"
    spare_reuse: bool = True  # discrete only: reuse paid-up HAU hours

    def __post_init__(self):
        if self.kind not in ("continuous", "discrete"):
            raise ConfigError("cost model kind must be continuous or discrete")


def _check_base(b: float) -> None:
    if not (b > 1 and math.isfinite(b)):
        raise ConfigError("geometric base must be > 1 and finite")


def _width(b: float, i: int) -> int:
    """HAU count ceil(b^i) of iteration i; ConfigError when it overflows."""
    try:
        return math.ceil(b**i)
    except OverflowError:
        raise ConfigError(f"width {b}**{i} overflows") from None


def single_run_cost(width: int, duration: float, model: CostModel) -> float:
    """Cost of one clairvoyant run: duration * width, rounded up per HAU."""
    if model.kind == "continuous":
        return duration * width
    return _ceil(duration) * width


def min_width_cost(profile: SolverProfile, model: CostModel) -> float:
    return single_run_cost(profile.min_width, profile.duration(profile.min_width), model)


def ia_total_cost(
    profile: SolverProfile,
    b: float = 2.0,
    model: CostModel | None = None,
    max_width: int = 1 << 20,
) -> tuple[float, int]:
    """Total cost and iteration count of iterative allocation.

    Runs widths ceil(b^i) until the first success. Under the discrete model
    with spare_reuse, HAUs keep their paid-up hour across iterations: reuse
    is free until a HAU's paid-through time, extensions bill whole hours,
    and expired HAUs are released rather than extended (an extension would
    never be cheaper than a fresh allocation). An iteration bills at most
    ceil(duration) * width, so one that could take the total past the
    largest float is a ConfigError, and every cost stays finite.
    """
    model = model or CostModel()
    _check_base(b)
    total = 0.0
    now = 0.0
    pool: list[list] = []  # [hau_count, paid_through], discrete reuse only
    i = 0
    while True:
        width = _width(b, i)
        if width > max_width:
            raise RuntimeError(
                f"allocation exceeded max width {max_width} without success"
            )
        duration = profile.duration(width)
        if _ceil(duration) * width > sys.float_info.max - total:
            raise ConfigError(f"cost of duration {duration} at width {width} overflows")
        if model.kind == "continuous" or not model.spare_reuse:
            total += single_run_cost(width, duration, model)
        else:
            # Widths never shrink and every live group is reused whole, so
            # the pool never holds more HAUs than this width.
            end = now + duration
            pool = [g for g in pool if g[1] > now + _CEIL_EPS]
            for group in pool:
                if group[1] < end - _CEIL_EPS:
                    extra = _ceil(end - group[1])
                    total += extra * group[0]
                    group[1] += extra
            fresh = width - sum(g[0] for g in pool)
            if fresh > 0:
                hours = _ceil(duration)
                total += hours * fresh
                pool.append([fresh, now + hours])
            now = end
        i += 1
        if profile.solves(width):
            return total, i


def ratio_bounds(b: float) -> tuple[float, float]:
    """Analytic (worst-case, average-case) cost ratios of the b^i strategy.

    b^2 / (b - 1) and 2b^2 / (b^2 - 1), divided through by b and b^2 so that
    no intermediate overflows for a large finite b.
    """
    _check_base(b)
    return b / (1 - 1 / b), 2 / (1 - 1 / b / b)


@dataclass
class AllocationRow:
    min_width: int
    b: float
    model: str
    total_cost: float
    optimal_cost: float
    iterations: int

    @property
    def ratio(self) -> float:
        return self.total_cost / self.optimal_cost


def sweep(
    b: float,
    max_min_width: int,
    model: CostModel | None = None,
    fail_time: float = 1.0,
    makespan: float = 1.0,
) -> list[AllocationRow]:
    """Simulate every minimal width 1..max_min_width under one profile."""
    if max_min_width < 1:
        raise ConfigError("max minimal width must be >= 1")
    _check_base(b)
    cap = b * max_min_width
    if not math.isfinite(cap):
        raise ConfigError(f"sweep cap {b} * {max_min_width} overflows")
    cap = math.ceil(cap)
    model = model or CostModel()
    rows = []
    for w_plus in range(1, max_min_width + 1):
        profile = SolverProfile(w_plus, makespan=makespan, fail_time=fail_time)
        total, iters = ia_total_cost(profile, b, model, max_width=cap)
        rows.append(
            AllocationRow(
                w_plus, b, model.kind, total, min_width_cost(profile, model), iters
            )
        )
    return rows


def empirical_min_width(
    problem,
    per_worker_node_limit: int,
    max_workers: int = 64,
    seed: int = DEFAULT_SEED,
) -> int:
    """Bridge to real runs: smallest worker count that solves the problem
    when each worker's open+closed lists are capped at the given size."""
    from parsearch.common import NodeLimitExceeded
    from parsearch.engine.core import EngineConfig
    from parsearch.engine.hda import hdastar

    workers = 1
    while workers <= max_workers:
        config = EngineConfig(
            workers=workers, node_limit=per_worker_node_limit, seed=seed
        )
        try:
            sol = hdastar(problem, config)
            if sol.solved:
                return workers
        except NodeLimitExceeded:
            pass
        workers *= 2
    raise RuntimeError(f"not solvable within {max_workers} capped workers")
