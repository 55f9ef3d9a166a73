"""Outside-in tracing: spans recorded around calls into parsearch's layers.

Every hook is installed from the benchmark's side, on public entry points:
the benchmark's own problem and strategy objects, attributes of freshly
constructed engines and transports, and the termination functions where
`parsearch.engine.hda` binds them. Nothing inside parsearch changes.

A span is (name, parent span, solve id, start ns, end ns). Spans are kept
in one flat in-memory array and written out when the run ends.
"""

from __future__ import annotations

import json
import time
from array import array
from contextlib import contextmanager

FIELDS = ("name", "parent", "solve", "start_ns", "end_ns")
WIDTH = len(FIELDS)

# The functions HDA* calls to run a termination-detection round.
TERMINATION_FUNCTIONS = (
    "start_two_wave",
    "start_second_wave",
    "start_time_ring",
    "on_control",
    "conclude",
    "two_wave_check",
    "time_ring_check",
)

# Span name -> layer whose self time it counts toward. The root span of a
# solve ("solve") covers engine construction, the scheduling loop and the
# post-run checks; with the scheduler's channel rescan it forms the
# scheduler's self time.
LAYER_OF = {
    "solve": "engine.core",
    "engine.core.pending_channels": "engine.core",
    "engine.core.send": "engine.core",
    "engine.core.deliver": "engine.core",
    "domains.expand": "domains",
    "domains.h": "domains",
    "domains.is_goal": "domains",
    "hashing.owner": "hashing",
    "serial.step": "serial",
    "engine.hda.step": "engine.hda",
    "engine.spa.step": "engine.spa",
    "engine.window.step": "engine.window",
    "termination.control": "termination",
}
LAYERS = (
    "domains",
    "hashing",
    "serial",
    "engine.core",
    "engine.hda",
    "engine.spa",
    "engine.window",
    "termination",
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.records = array("q")
        self._stack = [-1]
        self.solve_id = -1

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        """`fn` with a span named `name` recorded around every call."""
        nid = self._name_id(name)
        records = self.records
        extend = records.extend
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            slot = len(records)
            extend((nid, stack[-1], tracer.solve_id, 0, 0))
            stack.append(slot // WIDTH)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                records[slot + 4] = clock()
                records[slot + 3] = start
                stack.pop()

        return traced

    def span_count(self) -> int:
        return len(self.records) // WIDTH

    def totals(self) -> dict[str, list]:
        """name -> [calls, total ns, self ns]; self time is the span's
        duration minus the durations of its direct children."""
        rec = self.records
        n = self.span_count()
        child = array("q", bytes(8 * n))
        dur = array("q", bytes(8 * n))
        for i in range(n):
            base = i * WIDTH
            d = rec[base + 4] - rec[base + 3]
            dur[i] = d
            parent = rec[base + 1]
            if parent >= 0:
                child[parent] += d
        out = {name: [0, 0, 0] for name in self.names}
        for i in range(n):
            entry = out[self.names[rec[i * WIDTH]]]
            entry[0] += 1
            entry[1] += dur[i]
            entry[2] += dur[i] - child[i]
        return out

    def write(self, stem: str) -> None:
        """Write the spans to `stem`.bin (int64 rows of FIELDS) and a JSON
        header naming the columns and span names to `stem`.json."""
        with open(stem + ".bin", "wb") as f:
            self.records.tofile(f)
        with open(stem + ".json", "w") as f:
            json.dump(
                {"fields": FIELDS, "names": self.names, "spans": self.span_count()}, f
            )


class TracedProblem:
    """A problem whose expand, h and is_goal calls are recorded as spans."""

    def __init__(self, problem, tracer: Tracer):
        self.initial = problem.initial
        self.expand = tracer.wrap("domains.expand", problem.expand)
        self.h = tracer.wrap("domains.h", problem.h)
        self.is_goal = tracer.wrap("domains.is_goal", problem.is_goal)
        self.features = problem.features
        self.canonical_bytes = problem.canonical_bytes


def trace_engine(engine, tracer: Tracer, step_name: str) -> None:
    """Record spans around a constructed engine's step and, when it has a
    channel transport, the transport's send, deliver and channel rescan."""
    engine.step = tracer.wrap(step_name, engine.step)
    transport = getattr(engine, "transport", None)
    if transport is not None:
        transport.send = tracer.wrap("engine.core.send", transport.send)
        transport.deliver = tracer.wrap("engine.core.deliver", transport.deliver)
        transport.pending_channels = tracer.wrap(
            "engine.core.pending_channels", transport.pending_channels
        )


@contextmanager
def traced_termination(hda_module, tracer: Tracer):
    """Record spans around the termination functions HDA* calls."""
    saved = {name: getattr(hda_module, name) for name in TERMINATION_FUNCTIONS}
    try:
        for name, fn in saved.items():
            setattr(hda_module, name, tracer.wrap("termination.control", fn))
        yield
    finally:
        for name, fn in saved.items():
            setattr(hda_module, name, fn)
