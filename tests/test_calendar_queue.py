"""Edge-case tests for the calendar-queue agenda (repro.sim.engine).

The agenda is a dict of same-timestamp cohorts plus an integer heap over
the distinct timestamps, one FIFO lane.  These tests pin cohort FIFO,
timers far beyond anything else pending and raise-mid-cohort resume,
and randomized differential tests replay the same schedule through
the *old* heap ordering (kept here as a reference implementation)
asserting the pop order is identical — once with bare callables, once
with processes that sleep (``yield n``) or wait on a ``Timeout``.
"""

import random

import pytest

from repro.sim import Simulator
from repro.sim.engine import _Call

#: A delay far past every per-hop delay of the model (watchdogs, RTOs).
FAR = 500_000_000


class TestFarTimers:
    def test_peek_is_exact_with_only_a_far_timer(self, sim):
        sim.call_at(FAR + 7, lambda: None)
        assert sim.peek() == FAR + 7
        sim.run()
        assert sim.peek() is None

    def test_far_cohort_fires_in_scheduling_order(self, sim):
        fired = []
        for tag in range(4):
            sim.call_at(FAR + 40, lambda t=tag: fired.append(t))
        sim.run()
        assert fired == [0, 1, 2, 3]

    def test_scheduling_after_run_until_idle_gap(self, sim):
        """run(until) may fling the clock across an empty agenda;
        scheduling afterwards must still order correctly."""
        sim.run(until=FAR * 5)
        fired = []
        sim.timeout(FAR + 10).add_callback(lambda ev: fired.append(sim.now))
        sim.timeout(10).add_callback(lambda ev: fired.append(sim.now))
        sim.run()
        assert fired == [FAR * 5 + 10, FAR * 6 + 10]

    def test_interleaved_near_and_far_rounds(self, sim):
        """Alternate near/far work across several rounds."""
        fired = []

        def ping(round_no):
            if round_no >= 4:
                return
            fired.append((round_no, sim.now))
            sim.call_in(FAR + 1, lambda: ping(round_no + 1))
            sim.call_in(5, lambda: fired.append(("near", sim.now)))

        ping(0)
        sim.run()
        assert fired == [
            (0, 0), ("near", 5),
            (1, FAR + 1), ("near", FAR + 6),
            (2, 2 * FAR + 2), ("near", 2 * FAR + 7),
            (3, 3 * FAR + 3), ("near", 3 * FAR + 8)]


class TestCohortFifo:
    def test_interleaved_call_at_timeout_succeed_fifo(self, sim):
        """Mixed entry kinds at one timestamp fire in scheduling order."""
        order = []
        sim.call_at(50, lambda: order.append("call-1"))
        sim.timeout(50).add_callback(lambda ev: order.append("timeout-1"))
        event = sim.event()
        sim.call_at(50, lambda: event.succeed())
        event.add_callback(lambda ev: order.append("succeed"))
        sim.timeout(50).add_callback(lambda ev: order.append("timeout-2"))
        sim.call_at(50, lambda: order.append("call-2"))
        sim.run()
        # The succeed() happens *during* the t=50 drain, so its event
        # joins the tail of the open cohort — exactly the old heap's
        # behaviour (its sequence number was drawn at trigger time).
        assert order == ["call-1", "timeout-1", "timeout-2", "call-2",
                         "succeed"]

    def test_same_instant_appends_drain_in_same_pass(self, sim):
        """Zero-delay chains scheduled mid-drain run at the same now."""
        order = []

        def chain(depth):
            order.append(depth)
            if depth < 5:
                sim.call_in(0, lambda: chain(depth + 1))

        sim.call_at(10, lambda: chain(0))
        sim.run()
        assert order == [0, 1, 2, 3, 4, 5]
        assert sim.now == 10

class TestRaiseMidCohort:
    def test_run_resumes_after_a_raising_callback(self, sim):
        """A callback that raises out of run() mid-cohort leaves the
        unprocessed remainder on the agenda, each pending timestamp on
        the heap exactly once, for the next run() to pick up."""
        order = []

        def boom():
            raise RuntimeError("boom")

        sim.call_at(10, lambda: order.append("before"))
        sim.call_at(10, boom)
        sim.call_at(10, lambda: order.append("after-1"))
        sim.call_at(10, lambda: order.append("after-2"))
        sim.call_at(20, lambda: order.append("later"))
        with pytest.raises(RuntimeError, match="boom"):
            sim.run()
        assert order == ["before"]
        assert sorted(sim._times) == sorted(sim._buckets) == [10, 20]
        sim.run()
        assert order == ["before", "after-1", "after-2", "later"]
        assert sim.now == 20 and sim.peek() is None


class _HeapReference:
    """The pre-calendar-queue agenda, kept as the ordering oracle.

    Reimplements the old engine's contract: a single heap of
    ``(time, seq, label)`` entries with a global sequence counter drawn
    at scheduling time.
    """

    def __init__(self):
        import heapq
        self._heapq = heapq
        self.heap = []
        self.seq = 0
        self.now = 0

    def schedule(self, time, label):
        self._heapq.heappush(self.heap, (time, self.seq, label))
        self.seq += 1

    def drain(self, on_pop):
        while self.heap:
            time, _key, label = self._heapq.heappop(self.heap)
            self.now = time
            on_pop(label)


class TestDifferentialVsHeap:
    """Randomized schedules through both agendas must pop identically."""

    DELAY_CHOICES = (0, 0, 0, 1, 1, 3, 7, 40, 40, 1000, FAR, FAR * 2 + 5)

    @pytest.mark.parametrize("seed", [7, 1989, 20260808])
    def test_identical_pop_order(self, seed):
        rng = random.Random(seed)
        spec = self._random_spec(rng, breadth=40, max_children=3, depth=3)

        sim = Simulator()
        engine_order = []
        self._drive_engine(sim, spec, engine_order)
        sim.run()

        ref = _HeapReference()
        reference_order = []
        self._drive_reference(ref, spec, reference_order)

        assert engine_order == reference_order
        assert len(engine_order) == self._count(spec)

    @pytest.mark.parametrize("seed", [7, 1989, 20260808])
    def test_sleeps_and_timeouts_keep_the_reference_order(self, seed):
        """Each node is a process that waits by ``yield delay`` or by
        ``yield sim.timeout(delay)``, chosen at random: both pop as the
        reference orders a start entry now and a wake entry at
        ``now + delay``, whichever way a process waited."""
        rng = random.Random(seed)
        spec = self._random_spec(rng, breadth=40, max_children=3, depth=3)
        sleeps = {node_id: rng.random() < 0.5
                  for node_id in range(1, self._count(spec) + 1)}

        sim = Simulator()
        engine_order = []

        def body(node):
            delay, children, node_id = node
            yield delay if sleeps[node_id] else sim.timeout(delay)
            engine_order.append(node_id)
            for child in children:
                sim.process(body(child))

        for node in spec:
            sim.process(body(node))
        sim.run()

        ref = _HeapReference()
        reference_order = []

        def arm(node):
            delay, children, node_id = node

            def fire(_label):
                reference_order.append(node_id)
                for child in children:
                    arm(child)

            ref.schedule(ref.now, lambda _label: ref.schedule(
                ref.now + delay, fire))

        for node in spec:
            arm(node)
        ref.drain(lambda entry: entry(None))

        assert engine_order == reference_order
        assert len(engine_order) == self._count(spec)
        assert sim.events_processed == 2 * len(engine_order)

    def _random_spec(self, rng, breadth, max_children, depth):
        """An op tree: (delay, children, id).  Children are scheduled
        relative to the moment their parent is *processed*, which is what
        makes the two implementations genuinely diverge if cohort handling
        reorders anything."""
        counter = [0]

        def node(level):
            counter[0] += 1
            delay = rng.choice(self.DELAY_CHOICES)
            children = []
            if level < depth:
                for _ in range(rng.randrange(max_children + 1)):
                    children.append(node(level + 1))
            return (delay, children, counter[0])

        return [node(0) for _ in range(breadth)]

    def _count(self, spec):
        return sum(1 + self._count(children)
                   for _delay, children, _id in spec)

    def _drive_engine(self, sim, spec, order):
        def arm(node):
            delay, children, node_id = node

            def fire():
                order.append(node_id)
                for child in children:
                    arm(child)

            sim._schedule(sim.now + delay, _Call(fire))

        for node in spec:
            arm(node)

    def _drive_reference(self, ref, spec, order):
        def arm(node):
            delay, children, node_id = node

            def fire(_label):
                order.append(node_id)
                for child in children:
                    arm(child)

            ref.schedule(ref.now + delay, fire)

        for node in spec:
            arm(node)
        ref.drain(lambda fire: fire(None))

