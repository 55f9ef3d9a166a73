"""Hash-distributed A*: decentralized search with per-worker open/closed lists.

Every generated state is routed to the worker that owns it under the
configured hash strategy; the owner alone inserts it, detects duplicates,
and may reopen it from its closed list when a cheaper path arrives later.
A state's heuristic and hash key are derived from its parent's once, when
the state is generated: the domain's `successors` pass reports each child's
h and move, and the strategy turns the parent's key and the move into the
child's key. Both travel with the state, in the (state, g, h, link, key)
work item and in the owner's open list. The link is the stored parent:
the pair (parent state, id of the worker that expanded it). Under a
strategy such as `random` a state can be stored at several workers, and
the link names the one copy that generated the child. The worker hands the
domain the link's state, and the path is rebuilt by following links, one
table lookup per step; a copy's stored g only falls, by more than EPS, so
the links cannot form a cycle.

Sends are non-blocking and batched per destination. A batch is sent when
it is full, when it takes a child on its parent's f-layer, which the
search must expand before it leaves the layer it is on, or before its
worker expands a node of f = F while it holds a child with f < F - EPS.
So the send invariant holds: at every pop, each child the worker holds
unsent has f >= the popped f - EPS, and no child waits while its worker
expands worse nodes; a child that ties the popped f waits for a full
batch, a deeper pop or its worker going idle. Termination is proved by
message counting (see `parsearch.termination`). `HDAStar.step` runs one
iteration of the paper's worker loop: take every message that has
arrived, send the batches the invariant makes due, then expand one node,
or, with nothing below the incumbent, flush the remaining batches and, at
worker 0, maybe start a detection round.

A `_Worker` is a `serial.BestFirstSearch` whose `place` routes children: it
inserts those it owns and batches the rest. It holds no reference to the
engine, so no engine object graph has a cycle and reference counting frees
a run's tables as soon as the caller drops the engine.
"""

from __future__ import annotations

from bisect import insort

from parsearch.common import EPS, INF, ConfigError, SearchInvariantError
from parsearch.domains.base import SearchProblem, successors_of
from parsearch.engine.core import ChannelTransport, Engine, EngineConfig, Incumbent
from parsearch.hashing import make_strategy
from parsearch.serial import (
    BestFirstSearch,
    NodeTable,
    SearchStats,
    Solution,
    reconstruct_path,
)
from parsearch.termination import (
    ControlMessage,
    conclude,
    on_control,
    start_second_wave,
    start_time_ring,
    start_two_wave,
    time_ring_check,
    two_wave_check,
)


class _Worker(BestFirstSearch):
    """One search worker: A* on its own table, whose `place` routes children.
    It skips `BestFirstSearch.__init__`, whose root insert the engine makes
    in the root's owner instead, and copies its set-up from the engine
    without keeping a reference to it."""

    def __init__(self, wid: int, engine: HDAStar):
        config = engine.config
        self.id = wid
        self.problem = engine.problem
        successors = successors_of(engine.problem)
        # The table stores (state, worker) links; the domain gets the state.
        self.successors = lambda state, h, link: successors(state, h, link and link[0])
        self.table = NodeTable(node_limit=config.node_limit, where=f"worker {wid}")
        self.stats = SearchStats()
        self.transport = engine.transport
        self.box = engine.transport.boxes[wid]
        self.strategy = engine.strategy
        self.p = engine.p
        self.batch_size = config.batch_size
        self.incumbent = engine.incumbent
        self.out = [[] for _ in range(self.p)]  # per-destination batches
        self.out_f = [INF] * self.p  # least f in each batch, INF when empty
        self.due = INF  # a lower bound on every out_f entry
        # Termination bookkeeping (only this worker updates these).
        self.clock = 0
        self.max_received_stamp = -1

    @property
    def sent_msgs(self) -> int:
        """Work messages sent (termination counter): one per flushed batch."""
        return self.stats.sent_batches

    @property
    def received_msgs(self) -> int:
        """Work messages received (termination counter): one per batch."""
        return self.stats.received_batches

    @property
    def quiescent(self) -> bool:
        """Mailbox drained, open at or above the incumbent, batches flushed.

        The open test comes before the O(p) batch scan, so a worker with
        work below the incumbent answers without it.
        """
        if self.box:
            return False
        if self.table.min_f() < self.incumbent.cost - EPS:
            return False
        return not any(self.out)

    def place(
        self, state, g: float, h: float, key, records: list, stats: SearchStats
    ):
        """Derive each child's key; insert the children this worker owns and
        batch the others for their owners. A batch is sent once it is full
        or once the child just added lies on its parent's f-layer: under a
        consistent h that child must be expanded before the search leaves
        the layer it is expanding now, so it does not wait behind deeper
        ones. A child that stays held lowers its batch's `out_f` and
        `due`, so `send_below` can keep the send invariant (module doc)
        before the next pop."""
        child_key = self.strategy.child_key
        owner_of = self.strategy.owner
        insert = self.table.insert
        wid, p, out, out_f = self.id, self.p, self.out, self.out_f
        link = (state, wid)
        batch_size = self.batch_size
        layer = g + h + EPS
        for succ, cost, h1, move in records:
            g1 = g + cost
            k = child_key(key, succ, move)
            owner = owner_of(k, p)
            if owner == wid:
                insert(succ, g1, h1, link, stats, k)
            else:
                buf = out[owner]
                buf.append((succ, g1, h1, link, k))
                f1 = g1 + h1
                if len(buf) >= batch_size or f1 <= layer:
                    self.flush(owner)
                elif f1 < out_f[owner]:
                    out_f[owner] = f1
                    if f1 < self.due:
                        self.due = f1

    def flush(self, dst: int) -> None:
        """Send the non-empty batch for dst; the message takes the list
        itself and the worker starts a new one."""
        out = self.out
        buf = out[dst]
        out[dst] = []
        self.out_f[dst] = INF
        stats = self.stats
        stats.sent_batches += 1
        stats.sent += len(buf)
        self.transport.send(self.id, dst, ("W", self.clock, buf))

    def send_below(self, f: float) -> None:
        """Send every batch that holds a child with f' < f - EPS, and make
        `due` exact again for the batches still held."""
        bound = f - EPS
        due = INF
        for dst, low in enumerate(self.out_f):
            if low < bound:
                self.flush(dst)
            elif low < due:
                due = low
        self.due = due


class HDAStar(Engine):
    """Decentralized A* engine (Algorithm: drain mailbox, then expand).

    The work distribution is the configured strategy token, or an explicit
    `strategy` object. A custom strategy subclasses `hashing.Strategy`,
    defines `key(state)`, and inherits `child_key` (a full recompute) and
    `owner(key, p)` (`key % p`).
    """

    algorithm = "hdastar"

    def __init__(
        self,
        problem: SearchProblem,
        config: EngineConfig | None = None,
        strategy=None,
        policy=None,
    ):
        super().__init__(problem, config)
        if strategy is None:
            strategy = make_strategy(
                self.config.strategy,
                problem,
                self.config.seed,
                self.config.strategy_config,
            )
        elif self.config.strategy_config:
            raise ConfigError("strategy_config applies only to a configured strategy")
        self.strategy = strategy
        self.policy = policy
        self.transport = ChannelTransport(self.p)
        self.incumbent = Incumbent()
        self.workers = [_Worker(w, self) for w in range(self.p)]
        self.stats = [w.stats for w in self.workers]
        self.detect_in_flight = False
        self._work_since_detect = True  # retry detection only after progress
        self.rounds = 0  # detection attempts
        self.waves = 0  # wave/ring traversals launched
        root = problem.initial
        key = self.strategy.key(root)
        owner = self.workers[self.strategy.owner(key, self.p)]
        owner.table.insert(root, 0.0, problem.h(root), None, owner.stats, key)
        self._relist()

    # -- runner interface ----------------------------------------------------

    def _can_step(self, w: int) -> bool:
        """Worker w has work, or is worker 0 due to start a detection round."""
        return not self.workers[w].quiescent or (
            w == 0 and not self.detect_in_flight and self._work_since_detect
        )

    def _relist(self) -> None:
        """Build the ready list from `_can_step`, and `_listed`, which says
        in O(1) whether a worker is on it."""
        self._listed = [self._can_step(w) for w in range(self.p)]
        self._ready = [w for w, listed in enumerate(self._listed) if listed]

    def _recheck(self, w: int) -> None:
        listed = self._listed
        if self._can_step(w):
            if not listed[w]:
                listed[w] = True
                insort(self._ready, w)
        elif listed[w]:
            listed[w] = False
            self._ready.remove(w)

    def ready(self) -> list[int]:
        """The workers `_can_step` admits, ascending.

        Kept up to date rather than rescanned: a worker's mailbox, open list
        and batches change only in its own step or a delivery to it, and
        another worker's step changes worker 0's detection flags only by
        setting `_work_since_detect`; only a lower incumbent can change
        every worker's answer at once. The list is the engine's own: the
        caller reads it and never keeps or changes it.
        """
        return self._ready

    def deliver(self, channel: tuple[int, int]) -> None:
        self.transport.deliver(channel)
        dst = channel[1]
        listed = self._listed
        if not listed[dst]:
            listed[dst] = True
            insort(self._ready, dst)

    def step(self, w: int) -> None:
        """One iteration of worker w's loop (module doc), in its order:

        1. Drain the mailbox. Each work batch counts as one received
           message, raises the largest stamp received, and must hold only
           states w owns; a control message is concluded or passed on, and
           a passing round ends the run at once.
        2. With open work below the incumbent, send every batch holding a
           child below the f about to be popped (one comparison when none
           is due) and expand one node. A goal is offered to the incumbent
           as the link (goal, w), where the path walk starts.
        3. Otherwise flush every partial batch; worker 0 starts a detection
           round if none is in flight and work was done since the last.
        4. Bring the ready list up to date: a lower incumbent re-lists every
           worker; w is re-checked unless open work below the incumbent
           keeps it ready (its box is empty: sends go to channels), and
           worker 0 when this step set `_work_since_detect`.
        """
        worker = self.workers[w]
        incumbent = self.incumbent
        flagged = self._work_since_detect
        box = worker.box
        if box:
            stats = worker.stats
            owner = self.strategy.owner
            insert = worker.table.insert
            p = self.p
            while box:
                item = box.popleft()
                if item[0] != "W":
                    self._handle_control(worker, item[1])
                    if self.finished:
                        return
                    continue
                _, stamp, batch = item
                self._work_since_detect = True
                stats.received_batches += 1
                stats.received += len(batch)
                if stamp > worker.max_received_stamp:
                    worker.max_received_stamp = stamp
                for state, g1, h1, link, key in batch:
                    if owner(key, p) != w:
                        raise SearchInvariantError(
                            "state delivered to a non-owner worker"
                        )
                    insert(state, g1, h1, link, stats, key)
        mf = worker.table.min_f()
        if mf < incumbent.cost - EPS:
            self._work_since_detect = True
            if worker.due < mf - EPS:
                worker.send_below(mf)
            if not worker.step(worker.stats):
                # A goal: none of its children (f >= g) is ever expanded.
                bound = incumbent.cost
                incumbent.offer(worker.goal_cost, (worker.goal_state, w))
                if incumbent.cost < bound:
                    self._relist()
                    return
            if worker.table.min_f() >= incumbent.cost - EPS:
                self._recheck(w)
        else:
            for dst, buf in enumerate(worker.out):
                if buf:
                    worker.flush(dst)
            if w == 0 and not self.detect_in_flight and self._work_since_detect:
                self._work_since_detect = False
                self.rounds += 1
                if self.config.termination == "two-wave":
                    msg = start_two_wave(worker)
                else:
                    msg = start_time_ring(worker)
                self.waves += 1
                self.detect_in_flight = True
                self._pass_on(0, msg)
            self._recheck(w)
        if w and not flagged and self._work_since_detect:
            self._recheck(0)

    # -- termination ----------------------------------------------------------

    def _pass_on(self, w: int, msg: ControlMessage) -> None:
        """Send a control message from worker w to the next on the ring."""
        self.transport.send(w, (w + 1) % self.p, ("C", msg))

    def _handle_control(self, worker: _Worker, msg: ControlMessage) -> None:
        """Worker 0 concludes a message that has come round the ring; every
        other worker adds its counts and passes the message on."""
        if worker.id:
            on_control(msg, worker)
            self._pass_on(worker.id, msg)
            return
        verdict = conclude(msg, worker)
        if verdict == "wave2":
            self.waves += 1
            self._pass_on(0, start_second_wave(msg, worker))
        else:
            self.detect_in_flight = False
            self.finished = verdict == "pass"

    # -- results ---------------------------------------------------------------

    def improving_work_pending(self) -> list:
        """Undelivered or unprocessed work items that beat the incumbent.

        Empty at any correct termination. `check` calls it once the run has
        stopped, which only a passing detection round does; nothing changes
        between that pass and the call. It recomputes each item's h in full
        rather than trusting the carried one, as an independent check.
        """
        bound = self.incumbent.cost - EPS
        bad = []
        for item in self.transport.unprocessed_items():
            if item[0] != "W":
                continue
            for state, g1, *_ in item[2]:
                if g1 + self.problem.h(state) < bound:
                    bad.append((state, g1))
        for worker in self.workers:
            mf = worker.table.min_f()
            if mf < bound:
                bad.append((f"open[{worker.id}]", mf))
        return bad

    def check(self) -> None:
        """Post-termination invariants: nothing pending, the configured
        detector passing once more in place over the stopped workers (a
        global snapshot that confirms the asynchronous verdict and sees
        held batches too), counters balanced."""
        if self.improving_work_pending():
            raise SearchInvariantError("premature termination")
        if self.config.termination == "two-wave":
            quiescent = two_wave_check(self.workers)
        else:
            quiescent = time_ring_check(self.workers)
        if not quiescent:
            raise SearchInvariantError("stopped system is not quiescent")
        sent = sum(s.sent for s in self.stats)
        received = sum(s.received for s in self.stats)
        if sent != received:
            raise SearchInvariantError(
                f"triplet conservation violated: {sent} != {received}"
            )

    def result(self):
        tables = [w.table for w in self.workers]
        entry_of = lambda link: tables[link[1]].entry(link[0])
        links = reconstruct_path(self.incumbent.state, entry_of)
        return self.incumbent.cost, [state for state, _ in links]

    def meta(self) -> dict:
        return {
            "strategy": getattr(self.strategy, "name", "custom"),
            "batch_size": self.config.batch_size,
            "termination": self.config.termination,
            "detection_rounds": self.rounds,
            "detection_waves": self.waves,
            "ticks": self.ticks,
        }


def hdastar(
    problem: SearchProblem,
    config: EngineConfig | None = None,
    strategy=None,
    policy=None,
) -> Solution:
    return HDAStar(problem, config, strategy, policy).run()
