"""Distributed termination detection for the decentralized engine.

Two detectors are provided, both based on counting sent and received work
messages. The two-wave method accumulates every worker's received counter in
a first wave and the sent counters in a second wave; equality of the two
sums (with all workers locally quiescent in both waves) proves no work
message is still en route. The time algorithm does the same in one wave by
stamping work messages with sender clocks: a control ring carries the
maximum clock T, and a worker that has received a message stamped at or
after T fails the check.

A worker is locally quiescent when its mailbox is drained, its outgoing
batches are flushed, and its open list holds nothing below the incumbent
cost. Because quiescence includes the incumbent comparison, a successful
check doubles as the optimality proof.

Every round starts at worker 0, visits workers 1, ..., p - 1 in id order
(a ring) and returns to worker 0, which concludes it; at p = 1 worker 0
sends the message to itself. Control messages travel through the same
mailbox substrate as work messages. The handlers below are pure protocol
logic; the engine wires them to its transport.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence


class TerminationView(Protocol):
    """What a detector may observe about one worker.

    Counters are only ever updated by their owning worker; `clock` is the
    worker's local logical clock and `max_received_stamp` the largest time
    stamp among work messages it has received.
    """

    sent_msgs: int
    received_msgs: int
    clock: int
    max_received_stamp: int

    @property
    def quiescent(self) -> bool: ...


@dataclass
class ControlMessage:
    kind: str  # "wave1" | "wave2" | "ring"
    ok: bool = True  # every worker visited was quiescent (ring: and T-clean)
    T: int = 0  # ring: the largest clock seen
    sum_sent: int = 0  # added up by the ring and by wave 2
    sum_received: int = 0  # added up by the ring and wave 1; wave 2 carries it


def start_two_wave(view: TerminationView) -> ControlMessage:
    return ControlMessage(
        kind="wave1", sum_received=view.received_msgs, ok=view.quiescent
    )


def start_second_wave(msg: ControlMessage, view: TerminationView) -> ControlMessage:
    """At worker 0, after a clean first wave, launch the sent-count wave,
    which carries the first wave's received sum."""
    return ControlMessage(
        kind="wave2",
        sum_sent=view.sent_msgs,
        sum_received=msg.sum_received,
        ok=msg.ok and view.quiescent,
    )


def start_time_ring(view: TerminationView) -> ControlMessage:
    view.clock += 1
    t = view.clock
    return ControlMessage(
        kind="ring",
        T=t,
        sum_sent=view.sent_msgs,
        sum_received=view.received_msgs,
        ok=view.quiescent and view.max_received_stamp < t,
    )


def on_control(msg: ControlMessage, view: TerminationView) -> None:
    """Add one of workers 1, ..., p - 1 to a control message in place; its
    return to worker 0 is handled by `conclude`."""
    if msg.kind == "wave1":
        msg.sum_received += view.received_msgs
        msg.ok = msg.ok and view.quiescent
    elif msg.kind == "wave2":
        msg.sum_sent += view.sent_msgs
        msg.ok = msg.ok and view.quiescent
    elif msg.kind == "ring":
        view.clock = max(view.clock, msg.T)
        msg.T = max(msg.T, view.clock)
        if view.max_received_stamp >= msg.T or not view.quiescent:
            msg.ok = False
        msg.sum_sent += view.sent_msgs
        msg.sum_received += view.received_msgs
    else:
        raise ValueError(f"unknown control kind {msg.kind!r}")


def conclude(msg: ControlMessage, view: TerminationView) -> str:
    """Evaluate a control message that has returned to worker 0.

    Returns "pass" (terminate), "fail" (retry later), or "wave2" (first
    wave was clean; the caller should launch the second wave).
    """
    if msg.kind == "wave1":
        return "wave2" if msg.ok else "fail"
    if msg.kind in ("wave2", "ring"):
        ok = msg.ok and view.quiescent and msg.sum_sent == msg.sum_received
        return "pass" if ok else "fail"
    raise ValueError(f"unknown control kind {msg.kind!r}")


# --- synchronous forms: one whole check in place (unit tests and `HDAStar.check`) ---


def two_wave_check(workers: Sequence[TerminationView]) -> bool:
    """Both waves of the two-wave method.

    True iff every worker reports local quiescence in both waves and the
    accumulated sent count of the second wave equals the accumulated
    received count of the first.
    """
    origin = workers[0]
    msg = start_two_wave(origin)
    for view in workers[1:]:
        on_control(msg, view)
    if conclude(msg, origin) != "wave2":
        return False
    msg = start_second_wave(msg, origin)
    for view in workers[1:]:
        on_control(msg, view)
    return conclude(msg, origin) == "pass"


def time_ring_check(workers: Sequence[TerminationView]) -> bool:
    """One control ring of the time algorithm."""
    msg = start_time_ring(workers[0])
    for view in workers[1:]:
        on_control(msg, view)
    return conclude(msg, workers[0]) == "pass"
