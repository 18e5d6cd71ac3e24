"""Unit contract of the fair-share scheduling stack.

The :class:`DeficitRoundRobin` core is pure and synchronous, so its
dispatch order is a deterministic function of the push/next sequence —
these tests pin the classic DRR guarantees (weight-proportional share,
no starvation, no idle credit banking) plus a hypothesis sweep of the
conservation/FIFO invariants.  The asyncio layers
(:class:`FairShareScheduler`, :class:`EventBroadcast`) are exercised on
a private loop per test via ``asyncio.run``.
"""

import asyncio
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.service.bridge import EventBroadcast, QueueBridgeSink
from repro.service.scheduler import (
    DeficitRoundRobin,
    FairShareScheduler,
    Shard,
    WorkerFleet,
)


def _drain(drr):
    order = []
    while True:
        shard = drr.next()
        if shard is None:
            return order
        order.append(shard)


class _PerVisitDrr(DeficitRoundRobin):
    """Reference DRR: one ``weight`` of credit per visit, no skipping."""

    def next(self):
        while self._ring:
            key = self._ring[0]
            queue = self._queues[key]
            if not queue.items:
                self._ring.popleft()
                queue.deficit = 0.0
                queue.credited = False
                continue
            if not queue.credited:
                queue.deficit += queue.weight
                queue.credited = True
            if queue.items[0].cost <= queue.deficit:
                shard = queue.items.popleft()
                queue.deficit -= shard.cost
                if not queue.items:
                    self._ring.popleft()
                    queue.deficit = 0.0
                    queue.credited = False
                return shard
            self._ring.rotate(-1)
            queue.credited = False
        return None


#: weights whose products and sums with half-integer costs are exact
DYADIC_WEIGHTS = st.sampled_from(
    [2.0**-10, 2.0**-4, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0]
)


class TestDeficitRoundRobin:
    def test_single_queue_is_fifo(self):
        drr = DeficitRoundRobin()
        drr.add_queue("a")
        for seq in range(5):
            drr.push(Shard(queue="a", cost=1.0, seq=seq))
        assert [s.seq for s in _drain(drr)] == [0, 1, 2, 3, 4]

    def test_push_to_unregistered_queue_rejected(self):
        drr = DeficitRoundRobin()
        with pytest.raises(ConfigError, match="unregistered"):
            drr.push(Shard(queue="ghost", cost=1.0))

    def test_non_positive_weight_rejected(self):
        drr = DeficitRoundRobin()
        with pytest.raises(ConfigError, match="weight"):
            drr.add_queue("a", weight=0.0)

    def test_dispatch_share_is_weight_proportional(self):
        # Unit-cost backlog on two queues, weight 1 vs 2: every full
        # rotation serves one "a" shard and two "b" shards.
        drr = DeficitRoundRobin()
        drr.add_queue("a", weight=1.0)
        drr.add_queue("b", weight=2.0)
        for seq in range(30):
            drr.push(Shard(queue="a", cost=1.0, seq=seq))
            drr.push(Shard(queue="b", cost=1.0, seq=seq))
        head = [s.queue for s in _drain(drr)][:15]
        assert head.count("b") == 2 * head.count("a")

    def test_large_shard_is_not_starved(self):
        # A cost-10 shard behind a stream of unit shards on an
        # equal-weight competitor: its deficit grows by its weight per
        # rotation, so it must dispatch within ~10 rotations.
        drr = DeficitRoundRobin()
        drr.add_queue("big", weight=1.0)
        drr.add_queue("small", weight=1.0)
        drr.push(Shard(queue="big", cost=10.0))
        for seq in range(50):
            drr.push(Shard(queue="small", cost=1.0, seq=seq))
        order = [s.queue for s in _drain(drr)]
        assert "big" in order
        assert order.index("big") <= 20

    def test_emptied_queue_forfeits_deficit(self):
        # Queue "a" drains with 0.75 credit to spare; when it comes back
        # the leftover must be gone (no banking while idle).  A banked
        # 0.75 would let the cost-1.5 shard dispatch on the very first
        # visit (0.75 + 1.0 weight); forfeited, it needs two visits and
        # "b" goes first.
        drr = DeficitRoundRobin()
        drr.add_queue("a", weight=1.0)
        drr.push(Shard(queue="a", cost=0.25))
        assert drr.next() is not None
        assert drr._queues["a"].deficit == 0.0
        drr.add_queue("b", weight=1.0)
        drr.push(Shard(queue="a", cost=1.5))
        drr.push(Shard(queue="b", cost=1.0))
        drr.push(Shard(queue="b", cost=1.0))
        order = [s.queue for s in _drain(drr)]
        assert order == ["b", "a", "b"]

    def test_remove_queue_returns_pending_shards(self):
        drr = DeficitRoundRobin()
        drr.add_queue("a")
        drr.add_queue("b")
        for seq in range(3):
            drr.push(Shard(queue="a", cost=1.0, seq=seq))
        drr.push(Shard(queue="b", cost=1.0, seq=9))
        dropped = drr.remove_queue("a")
        assert [s.seq for s in dropped] == [0, 1, 2]
        assert [s.seq for s in _drain(drr)] == [9]
        assert drr.remove_queue("a") == []

    def test_same_sequence_same_dispatch_order(self):
        def run():
            drr = DeficitRoundRobin()
            drr.add_queue("a", weight=1.5)
            drr.add_queue("b", weight=0.5)
            for seq, (queue, cost) in enumerate(
                [("a", 3.0), ("b", 1.0), ("a", 0.5), ("b", 2.5), ("a", 1.0)]
            ):
                drr.push(Shard(queue=queue, cost=cost, seq=seq))
            return [s.seq for s in _drain(drr)]

        assert run() == run()

    @settings(max_examples=60, deadline=None)
    @given(
        light=st.lists(st.integers(min_value=1, max_value=4), min_size=8),
        heavy=st.lists(st.integers(min_value=1, max_value=4), min_size=8),
    )
    def test_pair_billing_keeps_weight_share_within_one_shard(
        self, light, heavy
    ):
        # Shards billed by pair count, 1-4 pairs each, on weight-1 and
        # weight-2 queues: at every point of the dispatch order while
        # both queues are backlogged, each queue's dispatched pairs are
        # within one (largest) shard of its weight share of all pairs
        # dispatched so far.
        drr = DeficitRoundRobin()
        drr.add_queue("light", weight=1.0)
        drr.add_queue("heavy", weight=2.0)
        for queue, sizes in (("light", light), ("heavy", heavy)):
            for seq, pairs in enumerate(sizes):
                drr.push(Shard(queue=queue, cost=pairs, seq=seq))
        left = {"light": len(light), "heavy": len(heavy)}
        sent = {"light": 0, "heavy": 0}
        for shard in _drain(drr):
            sent[shard.queue] += shard.cost
            left[shard.queue] -= 1
            total = sent["light"] + sent["heavy"]
            assert abs(sent["light"] - total / 3) <= 4
            assert abs(sent["heavy"] - 2 * total / 3) <= 4
            if not left[shard.queue]:
                break

    @settings(max_examples=60, deadline=None)
    @given(
        weights=st.lists(
            st.floats(min_value=0.25, max_value=4.0),
            min_size=1,
            max_size=4,
        ),
        plan=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),
                st.floats(min_value=0.1, max_value=8.0),
            ),
            max_size=40,
        ),
    )
    def test_every_shard_dispatches_exactly_once_in_queue_order(
        self, weights, plan
    ):
        drr = DeficitRoundRobin()
        for i, weight in enumerate(weights):
            drr.add_queue(f"q{i}", weight=weight)
        pushed = []
        for seq, (qi, cost) in enumerate(plan):
            shard = Shard(queue=f"q{qi % len(weights)}", cost=cost, seq=seq)
            drr.push(shard)
            pushed.append(shard)
        order = _drain(drr)
        assert drr.pending == 0
        # conservation: each pushed shard dispatched exactly once
        assert sorted(s.seq for s in order) == [s.seq for s in pushed]
        # per-queue FIFO: dispatch order preserves push order
        for key in {s.queue for s in pushed}:
            dispatched = [s.seq for s in order if s.queue == key]
            assert dispatched == sorted(dispatched)


    def test_tiny_weight_dispatches_without_spinning(self):
        drr = DeficitRoundRobin()
        drr.add_queue("a", weight=1e-6)
        drr.push(Shard(queue="a", cost=4, seq=0))
        started = time.perf_counter()
        shard = drr.next()
        assert time.perf_counter() - started < 0.010
        assert shard.seq == 0

    @settings(max_examples=200, deadline=None)
    @given(
        weights=st.lists(DYADIC_WEIGHTS, min_size=1, max_size=4),
        bursts=st.lists(
            st.tuples(
                st.lists(
                    st.tuples(
                        st.integers(min_value=0, max_value=3),
                        st.integers(min_value=1, max_value=16),
                    ),
                    max_size=6,
                ),
                st.integers(min_value=0, max_value=4),
            ),
            max_size=8,
        ),
    )
    def test_skip_ahead_keeps_the_per_visit_order(self, weights, bursts):
        # Each burst pushes shards (queue, cost in half pairs), then
        # calls next() a few times; a final drain empties both.
        fast, slow = DeficitRoundRobin(), _PerVisitDrr()
        for drr in (fast, slow):
            for i, weight in enumerate(weights):
                drr.add_queue(f"q{i}", weight=weight)
        got, want, seq = [], [], 0
        for pushes, calls in bursts:
            for qi, halves in pushes:
                seq += 1
                for drr in (fast, slow):
                    drr.push(
                        Shard(
                            queue=f"q{qi % len(weights)}",
                            cost=halves / 2,
                            seq=seq,
                        )
                    )
            for _ in range(calls):
                for drr, order in ((fast, got), (slow, want)):
                    shard = drr.next()
                    order.append(None if shard is None else shard.seq)
        got += [s.seq for s in _drain(fast)]
        want += [s.seq for s in _drain(slow)]
        assert got == want


class TestFairShareScheduler:
    def test_futures_resolve_with_fn_results(self):
        async def main():
            fleet = WorkerFleet(2)
            sched = FairShareScheduler(fleet)
            sched.register("t")
            sched.start()
            futures = [
                sched.submit("t", 1.0, lambda i=i: i * i) for i in range(5)
            ]
            values = await asyncio.gather(*futures)
            await sched.close()
            fleet.close()
            return values

        assert asyncio.run(main()) == [0, 1, 4, 9, 16]

    def test_shard_exception_propagates_through_future(self):
        async def main():
            fleet = WorkerFleet(1)
            sched = FairShareScheduler(fleet)
            sched.register("t")
            sched.start()

            def boom():
                raise RuntimeError("shard failed")

            future = sched.submit("t", 1.0, boom)
            with pytest.raises(RuntimeError, match="shard failed"):
                await future
            await sched.close()
            fleet.close()

        asyncio.run(main())

    def test_unregister_cancels_pending_futures(self):
        async def main():
            fleet = WorkerFleet(1)
            sched = FairShareScheduler(fleet)
            sched.register("t")
            sched.start()
            gate = threading.Event()
            running = sched.submit("t", 1.0, gate.wait)
            await asyncio.sleep(0.05)  # let the blocker take the slot
            pending = [sched.submit("t", 1.0, lambda: None) for _ in range(3)]
            assert sched.unregister("t") == 3
            assert all(f.cancelled() for f in pending)
            gate.set()
            assert await running is True
            await sched.close()
            fleet.close()

        asyncio.run(main())

    def test_single_slot_interleaves_equal_weight_tenants(self):
        # One fleet slot + unit costs: DRR serves one shard per tenant
        # per rotation, so execution strictly alternates.
        async def main():
            fleet = WorkerFleet(1)
            sched = FairShareScheduler(fleet)
            sched.register("a")
            sched.register("b")
            ran = []
            futures = []
            for i in range(3):
                futures.append(sched.submit("a", 1.0, lambda: ran.append("a")))
                futures.append(sched.submit("b", 1.0, lambda: ran.append("b")))
            sched.start()
            await asyncio.gather(*futures)
            await sched.close()
            fleet.close()
            return ran

        assert asyncio.run(main()) == ["a", "b", "a", "b", "a", "b"]

    def test_submit_after_close_rejected(self):
        async def main():
            fleet = WorkerFleet(1)
            sched = FairShareScheduler(fleet)
            sched.register("t")
            sched.start()
            await sched.close()
            with pytest.raises(ConfigError, match="closed"):
                sched.submit("t", 1.0, lambda: None)
            fleet.close()

        asyncio.run(main())

    def test_fleet_requires_at_least_one_slot(self):
        with pytest.raises(ConfigError, match="slot"):
            WorkerFleet(0)


class TestEventBroadcast:
    def test_late_subscriber_replays_full_history(self):
        async def main():
            broadcast = EventBroadcast(asyncio.get_event_loop())
            broadcast.publish("e1")
            broadcast.publish("e2")
            await asyncio.sleep(0)  # let call_soon_threadsafe drain
            received = []

            async def consume():
                async for event in broadcast.aiter():
                    received.append(event)

            task = asyncio.ensure_future(consume())
            await asyncio.sleep(0)
            broadcast.publish("e3")
            broadcast.close()
            await task
            return received

        assert asyncio.run(main()) == ["e1", "e2", "e3"]

    def test_subscribe_after_close_yields_history_then_ends(self):
        async def main():
            broadcast = EventBroadcast(asyncio.get_event_loop())
            broadcast.publish("e1")
            broadcast.close(interrupted=True)
            await asyncio.sleep(0)
            assert broadcast.interrupted
            return [event async for event in broadcast.aiter()]

        assert asyncio.run(main()) == ["e1"]

    def test_publish_after_close_is_dropped(self):
        async def main():
            broadcast = EventBroadcast(asyncio.get_event_loop())
            broadcast.close()
            broadcast.publish("late")
            await asyncio.sleep(0)
            return broadcast.history

        assert asyncio.run(main()) == []

    def test_publish_from_worker_thread_preserves_order(self):
        async def main():
            loop = asyncio.get_event_loop()
            broadcast = EventBroadcast(loop)

            def producer():
                for i in range(20):
                    broadcast.publish(i)
                broadcast.close()

            await loop.run_in_executor(None, producer)
            return [event async for event in broadcast.aiter()]

        assert asyncio.run(main()) == list(range(20))

    def test_bridge_sink_flags_interrupt(self):
        async def main():
            broadcast = EventBroadcast(asyncio.get_event_loop())
            sink = QueueBridgeSink(broadcast)
            sink.on_event("e1")
            sink.on_interrupt()
            await asyncio.sleep(0)
            return broadcast.history, broadcast.interrupted

        history, interrupted = asyncio.run(main())
        assert history == ["e1"]
        assert interrupted
