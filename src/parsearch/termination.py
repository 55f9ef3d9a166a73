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

Control messages travel worker id order (a ring) through the same mailbox
substrate as work messages. The handlers below are pure protocol logic;
the engine wires them to its transport.
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
    initiator: int
    ok: bool = True  # every worker visited was quiescent (ring: and T-clean)
    T: int = 0  # ring: the largest clock seen
    sum_sent: int = 0  # added up by the ring and by wave 2
    sum_received: int = 0  # added up by the ring and wave 1; wave 2 carries it


def start_two_wave(initiator: int, view: TerminationView) -> ControlMessage:
    return ControlMessage(
        kind="wave1",
        initiator=initiator,
        sum_received=view.received_msgs,
        ok=view.quiescent,
    )


def start_second_wave(msg: ControlMessage, view: TerminationView) -> ControlMessage:
    """At the initiator, after a clean first wave, launch the sent-count
    wave, which carries the first wave's received sum."""
    return ControlMessage(
        kind="wave2",
        initiator=msg.initiator,
        sum_sent=view.sent_msgs,
        sum_received=msg.sum_received,
        ok=msg.ok and view.quiescent,
    )


def start_time_ring(initiator: int, view: TerminationView) -> ControlMessage:
    view.clock += 1
    t = view.clock
    return ControlMessage(
        kind="ring",
        initiator=initiator,
        T=t,
        sum_sent=view.sent_msgs,
        sum_received=view.received_msgs,
        ok=view.quiescent and view.max_received_stamp < t,
    )


def on_control(
    msg: ControlMessage, worker: int, view: TerminationView, p: int
):
    """Process a control message at a non-initiating worker.

    Returns (next_worker, message) to forward; arrival back at the
    initiator is handled by `conclude`.
    """
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
    return (worker + 1) % p, msg


def conclude(msg: ControlMessage, view: TerminationView) -> str:
    """Evaluate a control message that has returned to its initiator.

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


def _around(msg: ControlMessage, workers: Sequence[TerminationView]) -> ControlMessage:
    """Carry a control message once around the ring, back to its initiator."""
    p = len(workers)
    worker = (msg.initiator + 1) % p
    while worker != msg.initiator:
        _, msg = on_control(msg, worker, workers[worker], p)
        worker = (worker + 1) % p
    return msg


def two_wave_check(workers: Sequence[TerminationView]) -> bool:
    """Both waves of the two-wave method, initiated by worker 0.

    True iff every worker reports local quiescence in both waves and the
    accumulated sent count of the second wave equals the accumulated
    received count of the first.
    """
    initiator = workers[0]
    msg = _around(start_two_wave(0, initiator), workers)
    if conclude(msg, initiator) != "wave2":
        return False
    msg = _around(start_second_wave(msg, initiator), workers)
    return conclude(msg, initiator) == "pass"


def time_ring_check(workers: Sequence[TerminationView]) -> bool:
    """One control ring of the time algorithm, initiated by worker 0."""
    initiator = workers[0]
    msg = _around(start_time_ring(0, initiator), workers)
    return conclude(msg, initiator) == "pass"
