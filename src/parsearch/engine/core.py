"""Shared engine machinery: config, incumbent cell, transport, driver.

Every engine (SPA*, HDA*, parallel window) defines `runnable(w)` and
`step(w)` and runs on one substrate: `run_interleaved`, a seeded driver that
picks one action per tick (step a runnable worker, or deliver one in-flight
message of an engine with a `ChannelTransport`) from a schedule policy. A
step runs to completion before the next action, so it is atomic with
respect to every other worker and no engine state needs a lock. Runs are
fully deterministic, and message delivery can be made adversarial, which
the termination tests rely on.
"""

from __future__ import annotations

import random
import time
from collections import deque
from dataclasses import dataclass, field

from parsearch.common import INF, ConfigError
from parsearch.serial import DEFAULT_NODE_LIMIT


def default_batch_size(workers: int) -> int:
    """Message packing: 10 states below 16 workers, 100 at or above."""
    return 10 if workers < 16 else 100


def _check_count(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ConfigError(f"{name} must be an integer >= 1")


@dataclass
class EngineConfig:
    workers: int = 1
    strategy: str = "zobrist"
    batch_size: int | None = None
    seed: int = 42
    node_limit: int = DEFAULT_NODE_LIMIT
    termination: str = "two-wave"  # "two-wave" | "time"
    record_trace: bool = False
    burst: int = 16  # HDA*: expansions per scheduler tick
    strategy_config: dict = field(default_factory=dict)

    def __post_init__(self):
        _check_count("workers", self.workers)
        if self.batch_size is None:
            self.batch_size = default_batch_size(self.workers)
        _check_count("batch size", self.batch_size)
        if self.termination not in ("two-wave", "time"):
            raise ConfigError("termination must be 'two-wave' or 'time'")
        _check_count("burst", self.burst)


class Incumbent:
    """Best solution cost found so far; updates are compare-and-reduce."""

    def __init__(self):
        self.cost = INF
        self.state = None

    def offer(self, cost: float, state) -> bool:
        if cost < self.cost:
            self.cost = cost
            self.state = state
            return True
        return False


class Engine:
    """Runner interface shared by the multi-worker engines.

    Subclasses define step(w) and may narrow runnable(w). Setting finished
    ends the run. Engines whose workers exchange messages also set
    transport.
    """

    transport = None

    def __init__(self, problem, config: EngineConfig | None = None):
        self.problem = problem
        self.config = config or EngineConfig()
        self.p = self.config.workers
        self.finished = False

    def runnable(self, w: int) -> bool:
        return True

    def drive(self, policy=None):
        """Run to the end on the interleaved driver.

        Returns (scheduler ticks, wall seconds).
        """
        start = time.perf_counter()
        ticks = run_interleaved(self, self.config.seed, policy)
        return ticks, time.perf_counter() - start


# Message envelopes: ("W", src, stamp, batch) with batch a list of
# (state, g, parent, key) work triplets, key being the state's hash key
# (or None when the strategy needs none), or ("C", ControlMessage).


class ChannelTransport:
    """Per-(src, dst) FIFO channels; the scheduler decides delivery order.

    Per-sender FIFO order is guaranteed because a channel only ever delivers
    its head; different channels may be delayed arbitrarily.
    """

    def __init__(self, p: int):
        self.boxes = [deque() for _ in range(p)]
        self.channels: dict[tuple[int, int], deque] = {}

    def send(self, src: int, dst: int, item) -> None:
        self.channels.setdefault((src, dst), deque()).append(item)

    def deliver(self, channel: tuple[int, int]) -> None:
        queue = self.channels[channel]
        self.boxes[channel[1]].append(queue.popleft())

    def pending_channels(self) -> list[tuple[int, int]]:
        return [c for c, q in self.channels.items() if q]

    def in_flight_items(self):
        for queue in self.channels.values():
            yield from queue


class SchedulePolicy:
    """Seeded random action policy with a fixed delivery bias.

    A policy's `choose(steps, delivers)` gets the runnable worker ids and
    the pending channel keys and returns ("step", w) or ("deliver", c).

    The default bias favors delivery, modeling a low-latency network where
    sent batches arrive promptly relative to expansion work; starving
    delivery instead makes workers chase stale local nodes and blows up
    search overhead.
    """

    def __init__(self, seed: int, delivery_bias: float = 0.9):
        self.rng = random.Random(seed)
        self.delivery_bias = delivery_bias

    def choose(self, steps: list, delivers: list):
        if steps and delivers:
            if self.rng.random() < self.delivery_bias:
                return "deliver", self.rng.choice(delivers)
            return "step", self.rng.choice(steps)
        if steps:
            return "step", self.rng.choice(steps)
        return "deliver", self.rng.choice(delivers)


class AdversarialPolicy(SchedulePolicy):
    """Per-seed random delivery bias; low draws starve delivery for long
    stretches, which is what the termination-detection fuzzing wants."""

    def __init__(self, seed: int):
        super().__init__(seed)
        self.delivery_bias = self.rng.uniform(0.05, 0.95)


class EagerWorkerPolicy:
    """Run the lowest-id runnable worker dry before delivering anything.

    Produces the pessimal delivery order used by the expansion-misordering
    tests: a worker exhausts its local open list before any cross-worker
    message arrives.
    """

    def choose(self, steps: list, delivers: list):
        if steps:
            return "step", min(steps)
        return "deliver", min(delivers)


def run_interleaved(engine, seed: int, policy=None):
    """Drive an engine's workers step by step from a seeded schedule.

    The engine is an Engine whose transport, if any, is a ChannelTransport.
    Raises RuntimeError on a stall.
    """
    policy = policy or SchedulePolicy(seed)
    transport = engine.transport
    ticks = 0
    while not engine.finished:
        steps = [w for w in range(engine.p) if engine.runnable(w)]
        delivers = transport.pending_channels() if transport is not None else []
        if not steps and not delivers:
            raise RuntimeError(
                "interleaver stalled: no runnable worker, nothing in flight"
            )
        kind, arg = policy.choose(steps, delivers)
        if kind == "step":
            engine.step(arg)
        else:
            transport.deliver(arg)
        ticks += 1
    return ticks
