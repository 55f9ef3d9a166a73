"""Shared engine machinery: config, incumbent cell, transport, driver.

Every engine (SPA*, HDA*, parallel window, dovetailing) is an `Engine` and
runs on one substrate: `run_interleaved`, a seeded driver that picks one
action per tick (step a ready worker, or deliver one in-flight message
of an engine with a `ChannelTransport`) from a schedule policy. A step runs
to completion before the next action, so it is atomic with respect to
every other worker and no engine state needs a lock. Runs are fully
deterministic, and message delivery can be made adversarial, which the
termination tests rely on.

A tick hands the policy the engine's ready list and the transport's
pending channels as they are: neither is copied or rebuilt by a scan, so
the driver's own cost per tick is O(1) and a tick costs what the policy's
choice costs (O(1) for the seeded policies, O(ready) plus O(pending) for
the eager one). The seeded policy draws its index straight from the
generator's `getrandbits`, with the numbers `random.choice` would take, so
a tick pays for the driver loop, the `ready`, `pending_channels` and
`choose` calls and one or two C-level draws, and no stdlib Python frame.
The transport keeps its non-empty channels, in first-send order, up to
date on every send and deliver (a bisect on a list of ints, O(log
channels) each); an engine whose readiness changes keeps its ready list
up to date on its own steps and deliveries (HDA* re-checks only the
workers a step or delivery can affect, and a delivery marks its receiver
ready in O(1)).

`Engine.run` is the one run lifecycle: drive, check, take the result,
validate it and report a `Solution`. An engine supplies:
  algorithm    its name, Solution.meta["algorithm"]
  step(w)      one atomic action of worker w; setting `finished` ends the run
  ready()      ascending ids of the workers the driver may step now
               (default: one list of every worker, built once)
  deliver(c)   deliver the head of transport channel c; an engine with a
               transport defines it
  result()     (cost, path) once finished; path [] when unsolved
  check()      post-run invariants, raising SearchInvariantError (default: none)
  meta()       its own Solution.meta fields beside the common ones
  stats        one SearchStats per worker, merged into Solution.stats
  transport    a ChannelTransport when workers exchange messages, else None
  policy       a schedule policy replacing the seeded default, or None
"""

from __future__ import annotations

import random
import time
from bisect import bisect, bisect_left
from collections import deque
from dataclasses import dataclass, field

from parsearch.common import DEFAULT_SEED, INF, ConfigError, check_count
from parsearch.domains.base import reported_path
from parsearch.serial import DEFAULT_NODE_LIMIT, Solution, merge_stats


TERMINATIONS = ("two-wave", "time")  # HDA*'s termination detection modes


@dataclass
class EngineConfig:
    """The run settings of every engine; each default is stated here only."""

    workers: int = 1
    strategy: str = "zobrist"
    batch_size: int = 10  # HDA* work items per message
    seed: int = DEFAULT_SEED
    node_limit: int = DEFAULT_NODE_LIMIT
    termination: str = "two-wave"  # one of TERMINATIONS
    strategy_config: dict = field(default_factory=dict)

    def __post_init__(self):
        check_count("workers", self.workers)
        check_count("batch size", self.batch_size)
        if self.termination not in TERMINATIONS:
            raise ConfigError(f"termination must be {' or '.join(map(repr, TERMINATIONS))}")
        check_count("node limit", self.node_limit, 0)


class Incumbent:
    """Best solution cost found so far; updates are compare-and-reduce."""

    def __init__(self):
        self.cost = INF
        self.state = None

    def offer(self, cost: float, state) -> None:
        if cost < self.cost:
            self.cost = cost
            self.state = state


class Engine:
    """A multi-worker search on the interleaved driver (see module doc)."""

    transport = None
    policy = None

    def __init__(self, problem, config: EngineConfig | None = None):
        self.problem = problem
        self.config = config or EngineConfig()
        self.p = self.config.workers
        self.finished = False
        self.ticks = 0  # scheduler ticks of the finished run
        self._everyone = list(range(self.p))  # the default ready list

    def step(self, w: int) -> None:
        raise NotImplementedError

    def deliver(self, channel: tuple[int, int]) -> None:
        raise NotImplementedError

    def ready(self) -> list[int]:
        return self._everyone

    def check(self) -> None:
        pass

    def meta(self) -> dict:
        return {}

    def run(self) -> Solution:
        start = time.perf_counter()
        self.ticks = run_interleaved(self)
        wall = time.perf_counter() - start
        self.check()
        cost, path = self.result()
        path = reported_path(self.problem, path)
        stats = merge_stats(self.stats)
        stats.wall_time = wall
        meta = {
            "algorithm": self.algorithm,
            "workers": self.p,
            "execution": "interleaved",
            "seed": self.config.seed,
            **self.meta(),
        }
        return Solution(cost, path, stats, per_worker=self.stats, meta=meta)


# Message envelopes: ("W", stamp, batch) with batch a list of
# (state, g, h, link, key) work items, h being the state's heuristic as
# carried from its parent, link the (parent state, sender id) pair that
# names the copy of the parent that generated the state, and key the
# strategy's key, which names the owner; or ("C", ControlMessage).


class ChannelTransport:
    """Per-(src, dst) FIFO channels; the scheduler decides delivery order.

    Per-sender FIFO order is guaranteed because a channel only ever delivers
    its head; different channels may be delayed arbitrarily.

    Invariant: the pending list holds exactly the non-empty channels, in
    first-send order (the insertion order of `channels`), so a seeded
    policy draws the same schedule however many channels were ever opened.
    `send` and `deliver` keep it, and beside it the list of its channels'
    creation ranks, with a bisect on that list of ints, O(log channels)
    each; `pending_channels` returns the list itself, which its caller
    reads and never keeps or changes.
    """

    def __init__(self, p: int):
        self.boxes = [deque() for _ in range(p)]
        self.channels: dict[tuple[int, int], deque] = {}
        self._rank: dict[tuple[int, int], int] = {}  # first-send order
        self._pending: list[tuple[int, int]] = []  # non-empty, by rank
        self._pending_ranks: list[int] = []  # their ranks, ascending

    def send(self, src: int, dst: int, item) -> None:
        channel = (src, dst)
        queue = self.channels.get(channel)
        if queue is None:
            queue = self.channels[channel] = deque()
            self._rank[channel] = len(self._rank)
        if not queue:
            rank = self._rank[channel]
            ranks = self._pending_ranks
            i = bisect(ranks, rank)
            ranks.insert(i, rank)
            self._pending.insert(i, channel)
        queue.append(item)

    def deliver(self, channel: tuple[int, int]) -> None:
        queue = self.channels[channel]
        self.boxes[channel[1]].append(queue.popleft())
        if not queue:
            ranks = self._pending_ranks
            i = bisect_left(ranks, self._rank[channel])
            del ranks[i]
            del self._pending[i]

    def pending_channels(self) -> list[tuple[int, int]]:
        return self._pending

    def unprocessed_items(self):
        """Messages in a channel or waiting in a mailbox."""
        for queue in (*self.channels.values(), *self.boxes):
            yield from queue


class SchedulePolicy:
    """Seeded random action policy with a fixed delivery bias.

    A policy's `choose(steps, delivers)` gets the engine's ready list (the
    ids of the workers that may step now, ascending) and the pending channel
    keys, and returns ("step", w) or ("deliver", c). Both lists are the
    engine's and the transport's own: a policy reads them during the call
    and never keeps or changes them.

    The default bias favors delivery, modeling a low-latency network where
    sent batches arrive promptly relative to expansion work; starving
    delivery instead makes workers chase stale local nodes and blows up
    search overhead.
    """

    def __init__(self, seed: int, delivery_bias: float = 0.9):
        self.rng = random.Random(seed)
        self._random = self.rng.random
        self._getrandbits = self.rng.getrandbits
        self.delivery_bias = delivery_bias

    def choose(self, steps: list, delivers: list):
        """With both lists non-empty, one `random()` draw against the bias
        picks the list; then one index into it. The index takes the numbers
        `random.Random.choice` takes: getrandbits(n.bit_length()), drawn
        again until it is below n."""
        if delivers and (not steps or self._random() < self.delivery_bias):
            kind, options = "deliver", delivers
        elif steps:
            kind, options = "step", steps
        else:
            raise IndexError("no ready worker and no pending channel")
        n = len(options)
        k = n.bit_length()
        getrandbits = self._getrandbits
        i = getrandbits(k)
        while i >= n:
            i = getrandbits(k)
        return kind, options[i]


class AdversarialPolicy(SchedulePolicy):
    """Per-seed random delivery bias; low draws starve delivery for long
    stretches, which is what the termination-detection fuzzing wants."""

    def __init__(self, seed: int):
        super().__init__(seed)
        self.delivery_bias = self.rng.uniform(0.05, 0.95)


class EagerWorkerPolicy:
    """Run the lowest-id ready worker dry before delivering anything.

    Produces the pessimal delivery order used by the expansion-misordering
    tests: a worker exhausts its local open list before any cross-worker
    message arrives.

    It can starve HDA* on tiles: on `random_scramble(3, 4, 0)` (C* = 4) at
    p = 8 a run had made 1,038,000 expansions, most of them reopenings,
    with no incumbent yet. The tests run HDA* under it on small lattices
    and explicit graphs only.
    """

    def choose(self, steps: list, delivers: list):
        if steps:
            return "step", min(steps)
        return "deliver", min(delivers)


def run_interleaved(engine):
    """Drive an engine's workers step by step from a seeded schedule: the
    engine's `policy`, or a SchedulePolicy on its `config.seed`.

    The engine is an Engine whose transport, if any, is a ChannelTransport.
    The engine's `ready`, `step` and `deliver`, the transport's
    `pending_channels` and the policy's `choose` are looked up once per
    run, on the instances, so wrappers set on them before the run still see
    every call. Raises RuntimeError on a stall.
    """
    choose = (engine.policy or SchedulePolicy(engine.config.seed)).choose
    ready = engine.ready
    step = engine.step
    deliver = engine.deliver
    transport = engine.transport
    if transport is None:
        no_channels: list = []
        pending = lambda: no_channels
    else:
        pending = transport.pending_channels
    ticks = 0
    while not engine.finished:
        steps = ready()
        delivers = pending()
        if not steps and not delivers:
            raise RuntimeError(
                "interleaver stalled: no ready worker, nothing in flight"
            )
        kind, arg = choose(steps, delivers)
        if kind == "step":
            step(arg)
        else:
            deliver(arg)
        ticks += 1
    return ticks
