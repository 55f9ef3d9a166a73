"""Termination detection: counting waves, the time ring, and engine safety."""

import random
from dataclasses import dataclass

from parsearch.domains import TilePuzzle, random_scramble, random_solvable
from parsearch.engine import AdversarialPolicy, EngineConfig
from parsearch.engine.hda import HDAStar
from parsearch.serial import astar
from parsearch.termination import (
    conclude,
    on_control,
    start_two_wave,
    time_ring_check,
    two_wave_check,
)


@dataclass
class StubWorker:
    sent_msgs: int = 0
    received_msgs: int = 0
    clock: int = 0
    max_received_stamp: int = -1
    idle: bool = True

    @property
    def quiescent(self) -> bool:
        return self.idle


class TestTwoWave:
    def test_no_messages_all_quiescent(self):
        workers = [StubWorker() for _ in range(4)]
        assert two_wave_check(workers) is True

    def test_message_in_flight_fails(self):
        workers = [StubWorker(sent_msgs=1), StubWorker()]
        assert two_wave_check(workers) is False

    def test_busy_worker_fails(self):
        workers = [StubWorker(), StubWorker(idle=False)]
        assert two_wave_check(workers) is False

    def test_balanced_counters_pass(self):
        workers = [
            StubWorker(sent_msgs=3, received_msgs=1),
            StubWorker(sent_msgs=1, received_msgs=3),
        ]
        assert two_wave_check(workers) is True

    def test_wave_message_flow(self):
        # drive the asynchronous protocol by hand across three workers
        workers = [StubWorker(sent_msgs=1, received_msgs=1) for _ in range(3)]
        msg = start_two_wave(workers[0])
        for w in (1, 2):
            on_control(msg, workers[w])
        assert conclude(msg, workers[0]) == "wave2"
        from parsearch.termination import start_second_wave

        msg2 = start_second_wave(msg, workers[0])
        for w in (1, 2):
            on_control(msg2, workers[w])
        assert conclude(msg2, workers[0]) == "pass"


class TestTimeRing:
    def test_single_worker_empty_mailbox(self):
        assert time_ring_check([StubWorker()]) is True

    def test_stale_message_already_counted_passes(self):
        # a message stamped before the ring, already received and counted
        workers = [
            StubWorker(sent_msgs=1, clock=0),
            StubWorker(received_msgs=1, max_received_stamp=0),
        ]
        assert time_ring_check(workers) is True

    def test_message_sent_during_ring_fails_then_passes(self):
        # worker 1 received a message stamped at the ring's T: fail; after
        # the counters catch up and a new ring starts at a larger T, pass.
        w0 = StubWorker(sent_msgs=1, clock=0)
        w1 = StubWorker(received_msgs=0, max_received_stamp=1)
        assert time_ring_check([w0, w1]) is False
        w1.received_msgs = 1  # message now drained and counted
        assert time_ring_check([w0, w1]) is True  # next ring has T=2 > stamp

    def test_unbalanced_counters_fail(self):
        workers = [StubWorker(sent_msgs=2), StubWorker(received_msgs=1)]
        assert time_ring_check(workers) is False

    def test_stamp_at_T_fails_with_balanced_counters(self):
        # The counters balance, but worker 1 received a message stamped at
        # the ring's T = 1: it may have been sent after the initiator read
        # its sent counter, so the ring must fail on the stamp alone.
        stamped = StubWorker(received_msgs=1, max_received_stamp=1)
        assert time_ring_check([StubWorker(sent_msgs=1), stamped]) is False
        # The same at the initiator, which checks its own stamp at T.
        stamped = StubWorker(received_msgs=1, max_received_stamp=1)
        assert time_ring_check([stamped, StubWorker(sent_msgs=1)]) is False

    def test_clock_propagates(self):
        workers = [StubWorker(clock=5), StubWorker(clock=0)]
        time_ring_check(workers)
        assert workers[1].clock >= 6


def _fuzz_one(seed: int, termination: str, instance, oracle_cost: float):
    """One adversarial schedule. The run stops only when a detection round
    passes, and its post-run check raises SearchInvariantError if improving
    work was pending there."""
    config = EngineConfig(
        workers=3,
        strategy="zobrist",
        batch_size=2,
        seed=seed,
        termination=termination,
    )
    sol = HDAStar(instance, config, policy=AdversarialPolicy(seed)).run()
    assert sol.cost == oracle_cost
    return sol


class TestEngineDetection:
    def test_fuzzed_schedules_safe(self):
        rng = random.Random(0)
        for seed in range(100):
            state = random_scramble(3, 12, rng)
            p = TilePuzzle(state)
            c = astar(p).cost
            s1 = _fuzz_one(seed, "two-wave", p, c)
            s2 = _fuzz_one(seed, "time", p, c)
            assert s1.cost == s2.cost

    def test_liveness_trivial_instance(self):
        # quiescent almost immediately: detection must settle fast
        p = TilePuzzle(TilePuzzle((1, 2, 3, 4, 5, 6, 7, 8, 0)).goal)
        for term in ("two-wave", "time"):
            sol = HDAStar(
                p, EngineConfig(workers=2, termination=term, seed=1)
            ).run()
            assert sol.cost == 0.0
            assert sol.meta["detection_rounds"] <= 2

    def test_unsolvable_terminates_with_infinite_cost(self):
        from parsearch.common import INF
        from parsearch.domains import ExplicitGraph

        g = ExplicitGraph([("s", "a", 1), ("a", "b", 1)], "s", {"zzz"})
        for term in ("two-wave", "time"):
            for workers in (1, 2, 4):
                sol = HDAStar(
                    g, EngineConfig(workers=workers, termination=term, seed=3)
                ).run()
                assert sol.cost == INF
                assert sol.path == []

    def test_single_worker_sends_its_waves_to_itself(self):
        # Criterion 1's 8-puzzle instances at p = 1 (seed 7): each run takes
        # one round of two waves (two-wave) or one ring (time), and every
        # wave is a control message that worker 0 sends itself through the
        # transport, the same protocol as at p > 1.
        for termination, waves in (("two-wave", 2), ("time", 1)):
            for seed in range(100):
                problem = TilePuzzle(random_solvable(3, seed))
                config = EngineConfig(workers=1, seed=7, termination=termination)
                engine = HDAStar(problem, config)
                sent = []
                send = engine.transport.send

                def logged(src, dst, item, sent=sent, send=send):
                    sent.append((src, dst, item[0]))
                    send(src, dst, item)

                engine.transport.send = logged
                meta = engine.run().meta
                counts = (meta["detection_rounds"], meta["detection_waves"])
                assert counts == (1, waves), (termination, seed)
                assert sent == [(0, 0, "C")] * waves, (termination, seed)

    def test_control_messages_go_round_the_ring_from_worker_0(self):
        # Record every control send: each goes from w to (w + 1) % p, and
        # each message (a round's first wave or ring, or a second wave)
        # leaves worker 0 and is sent on by 1, ..., p - 1 in order.
        for termination in ("two-wave", "time"):
            for p in (1, 2, 3, 8):
                for seed in range(4):
                    problem = TilePuzzle(random_scramble(3, 12, seed))
                    config = EngineConfig(
                        workers=p, batch_size=2, seed=seed, termination=termination
                    )
                    engine = HDAStar(problem, config, policy=AdversarialPolicy(seed))
                    hops = {}  # id(message) -> (message, its senders in order)
                    send = engine.transport.send

                    def logged(src, dst, item, hops=hops, send=send, p=p):
                        if item[0] == "C":
                            assert dst == (src + 1) % p, (src, dst, p)
                            msg = item[1]
                            hops.setdefault(id(msg), (msg, []))[1].append(src)
                        send(src, dst, item)

                    engine.transport.send = logged
                    meta = engine.run().meta
                    where = (termination, p, seed)
                    assert len(hops) == meta["detection_waves"], where
                    for msg, senders in hops.values():
                        assert senders == list(range(p)), (where, msg.kind)
                    firsts = [m for m, _ in hops.values() if m.kind != "wave2"]
                    assert len(firsts) == meta["detection_rounds"], where

    def test_max_received_stamp_is_largest_stamp_received(self):
        # Time mode: record the stamp of every work message delivered to
        # each worker; once the run stops every one has been received, and
        # each worker's max_received_stamp is the largest of them.
        rng = random.Random(3)
        runs = 0
        for seed in range(12):
            problem = TilePuzzle(random_scramble(3, 14, rng))
            config = EngineConfig(
                workers=3, batch_size=2, seed=seed, termination="time"
            )
            engine = HDAStar(problem, config, policy=AdversarialPolicy(seed))
            transport = engine.transport
            stamps = [[] for _ in range(engine.p)]
            deliver = transport.deliver

            def logged(channel, stamps=stamps, transport=transport, deliver=deliver):
                item = transport.channels[channel][0]
                if item[0] == "W":
                    stamps[channel[1]].append(item[1])
                deliver(channel)

            transport.deliver = logged
            sol = engine.run()
            assert sol.cost == astar(problem).cost
            for worker, got in zip(engine.workers, stamps):
                assert worker.max_received_stamp == max(got, default=-1)
            runs += max(map(max, filter(None, stamps)), default=0) > 0
        assert runs >= 6  # most runs carry stamps from after a ring

    def test_detection_counts_reported(self):
        p = TilePuzzle(random_scramble(3, 10, 5))
        sol = HDAStar(p, EngineConfig(workers=2, seed=2)).run()
        assert sol.meta["detection_rounds"] >= 1
        assert sol.meta["detection_waves"] >= sol.meta["detection_rounds"]
