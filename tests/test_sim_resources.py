"""Unit tests for Store, Resource, Broadcast."""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Broadcast, Resource, Simulator, Store


class TestStore:
    def test_fifo_order(self, sim):
        store = Store(sim)
        for item in "abc":
            store.put(item)
        got = []

        def consumer():
            for _ in range(3):
                item = yield store.get()
                got.append(item)
        sim.process(consumer())
        sim.run()
        assert got == ["a", "b", "c"]

    def test_get_blocks_until_put(self, sim):
        store = Store(sim)
        times = {}

        def consumer():
            item = yield store.get()
            times["got"] = (sim.now, item)
        sim.process(consumer())
        sim.call_at(500, lambda: store.put("late"))
        sim.run()
        assert times["got"] == (500, "late")

    def test_capacity_blocks_put(self, sim):
        store = Store(sim, capacity=1)
        done = []

        def producer():
            yield store.put("first")
            yield store.put("second")
            done.append(sim.now)
        sim.process(producer())
        sim.call_at(100, lambda: store.try_get())
        sim.run()
        assert done == [100]

    def test_try_put_respects_capacity(self, sim):
        store = Store(sim, capacity=1)
        assert store.try_put("one")
        assert not store.try_put("two")

    def test_try_get_empty(self, sim):
        store = Store(sim)
        ok, item = store.try_get()
        assert not ok and item is None

    def test_invalid_capacity(self, sim):
        with pytest.raises(ValueError):
            Store(sim, capacity=0)

    def test_is_full(self, sim):
        store = Store(sim, capacity=2)
        store.try_put(1)
        assert not store.is_full
        store.try_put(2)
        assert store.is_full

    def test_multiple_getters_fifo(self, sim):
        store = Store(sim)
        winners = []

        def waiter(tag):
            item = yield store.get()
            winners.append((tag, item))
        sim.process(waiter("first"))
        sim.process(waiter("second"))
        sim.call_at(10, lambda: store.put("x"))
        sim.call_at(20, lambda: store.put("y"))
        sim.run()
        assert winners == [("first", "x"), ("second", "y")]


class TestResource:
    def test_mutual_exclusion(self, sim):
        resource = Resource(sim)
        trace = []

        def worker(tag, hold):
            grant = resource.acquire()
            yield grant
            trace.append(("in", tag, sim.now))
            yield sim.timeout(hold)
            trace.append(("out", tag, sim.now))
            resource.release()
        sim.process(worker("a", 100))
        sim.process(worker("b", 50))
        sim.run()
        assert trace == [("in", "a", 0), ("out", "a", 100),
                         ("in", "b", 100), ("out", "b", 150)]

    def test_capacity_two(self, sim):
        resource = Resource(sim, capacity=2)
        inside = []

        def worker(tag):
            yield resource.acquire()
            inside.append((tag, sim.now))
            yield sim.timeout(10)
            resource.release()
        for tag in range(3):
            sim.process(worker(tag))
        sim.run()
        assert inside == [(0, 0), (1, 0), (2, 10)]

    def test_release_without_acquire_raises(self, sim):
        resource = Resource(sim)
        with pytest.raises(RuntimeError):
            resource.release()

    def test_available(self, sim):
        resource = Resource(sim, capacity=3)
        resource.acquire()
        sim.run()
        assert resource.available == 2

class TestBroadcast:
    def test_fire_wakes_all_waiters(self, sim):
        signal = Broadcast(sim)
        woken = []

        def waiter(tag):
            value = yield signal.wait()
            woken.append((tag, value, sim.now))
        for tag in range(3):
            sim.process(waiter(tag))
        sim.call_at(42, lambda: signal.fire("go"))
        sim.run()
        assert woken == [(0, "go", 42), (1, "go", 42), (2, "go", 42)]

    def test_fire_returns_waiter_count(self, sim):
        signal = Broadcast(sim)
        signal.wait()
        signal.wait()
        assert signal.fire() == 2
        assert signal.fire() == 0

    def test_waiters_after_fire_need_new_fire(self, sim):
        signal = Broadcast(sim)
        woken = []

        def waiter():
            yield signal.wait()
            woken.append("first")
            yield signal.wait()
            woken.append("second")
        sim.process(waiter())
        sim.call_at(10, signal.fire)
        sim.call_at(20, signal.fire)
        sim.run()
        assert woken == ["first", "second"]


# ----------------------------------------------------------------------
# Waiter queues are made when the first waiter parks.  The oracles below
# are the textbook definitions -- every request joins its queue, then the
# queues are served head first -- written over plain lists, so the lazy
# queues and the fast paths must fire events in exactly that order.
# ----------------------------------------------------------------------

def fired_order(events):
    """Tags of ``events`` [(tag, event)] in the order the agenda fires them."""
    order = []
    for tag, event in events:
        event.add_callback(lambda _e, tag=tag: order.append(tag))
    return order


class ModelResource:
    def __init__(self, capacity):
        self.capacity, self.in_use, self.waiters, self.granted = \
            capacity, 0, [], []

    def acquire(self, tag, priority):
        if self.in_use < self.capacity and not self.waiters:
            self.in_use += 1
            self.granted.append(tag)
        elif priority:
            self.waiters.insert(0, tag)
        else:
            self.waiters.append(tag)

    def try_acquire(self):
        free = self.in_use < self.capacity and not self.waiters
        self.in_use += free
        return free

    def release(self):
        if self.waiters:
            self.granted.append(self.waiters.pop(0))
        else:
            self.in_use -= 1


class ModelStore:
    def __init__(self, capacity):
        self.capacity, self.items, self.getters, self.putters, self.fired = \
            capacity, [], [], [], []

    def put(self, tag, item):
        self.putters.append((tag, item))
        self.service()

    def get(self, tag):
        self.getters.append(tag)
        self.service()

    def try_put(self, item):
        if len(self.items) >= self.capacity or self.putters:
            return False
        self.items.append(item)
        self.service()
        return True

    def try_get(self):
        if not self.items or self.getters:
            return False, None
        item = self.items.pop(0)
        self.service()
        return True, item

    def service(self):
        progressed = True
        while progressed:
            progressed = False
            while self.putters and len(self.items) < self.capacity:
                tag, item = self.putters.pop(0)
                self.items.append(item)
                self.fired.append((tag, item))
                progressed = True
            while self.getters and self.items:
                self.fired.append((self.getters.pop(0), self.items.pop(0)))
                progressed = True


class TestLazyWaiterQueues:
    def test_idle_primitives_hold_no_deque(self, sim):
        store, lock = Store(sim), Resource(sim)
        queues = (store._getters, store._putters, lock._waiters)
        assert not any(queues)
        assert not any(isinstance(queue, deque) for queue in queues)
        # Traffic that never waits never builds one either.
        store.put("x"), store.get()
        lock.acquire(), lock.release()
        sim.run()
        assert not any(isinstance(queue, deque) for queue in (
            store._getters, store._putters, lock._waiters))

    def test_queues_are_per_instance_once_made(self, sim):
        first, second = Store(sim), Store(sim)
        first.get()
        assert len(first._getters) == 1
        assert not second._getters
        assert first._getters is not second._getters

    @pytest.mark.parametrize("priority", [False, True])
    def test_first_waiter_is_granted_on_release(self, sim, priority):
        lock = Resource(sim)
        events = [("holder", lock.acquire()),
                  ("waiter", lock.acquire(priority=priority))]
        order = fired_order(events)
        sim.run()
        assert order == ["holder"] and lock.in_use == 1
        lock.release()
        sim.run()
        assert order == ["holder", "waiter"] and lock.in_use == 1

    def test_priority_first_waiter_stays_ahead_of_later_ones(self, sim):
        lock = Resource(sim)
        lock.acquire()
        order = fired_order([("urgent", lock.acquire(priority=True)),
                             ("plain", lock.acquire()),
                             ("urgent2", lock.acquire(priority=True))])
        for _ in range(3):
            lock.release()
        sim.run()
        assert order == ["urgent2", "urgent", "plain"]

    def test_drain_to_empty_then_park_again(self, sim):
        lock = Resource(sim)
        lock.acquire()
        order = fired_order([("a", lock.acquire()), ("b", lock.acquire())])
        lock.release(), lock.release(), lock.release()
        sim.run()
        assert order == ["a", "b"] and lock.in_use == 0
        assert not lock._waiters
        lock.acquire()
        order = fired_order([("c", lock.acquire()),
                             ("d", lock.acquire(priority=True))])
        lock.release(), lock.release()
        sim.run()
        assert order == ["d", "c"]

    def test_store_getters_then_putters_park_and_drain(self, sim):
        store = Store(sim, capacity=1)
        gets = [(f"get{i}", store.get()) for i in range(2)]
        puts = [(f"put{i}", store.put(i)) for i in range(4)]
        order = fired_order(gets + puts)
        sim.run()
        # put0 feeds get0, put1 feeds get1, put2 fills the slot, put3 parks.
        assert order == ["put0", "get0", "put1", "get1", "put2"]
        assert [event.value for _tag, event in gets] == [0, 1]
        assert len(store._putters) == 1
        assert store.try_get() == (True, 2)
        sim.run()
        assert order[-1] == "put3" and not store._putters
        assert store.try_get() == (True, 3) and not store.items
        # Drained on both sides: parking again still works, in order.
        order = fired_order([("late", store.get())])
        store.put("again")
        sim.run()
        assert order == ["late"]

    @given(capacity=st.integers(1, 3),
           ops=st.lists(st.one_of(
               st.tuples(st.just("acquire"), st.booleans()),
               st.tuples(st.just("try_acquire"), st.none()),
               st.tuples(st.just("release"), st.none())), max_size=40))
    @settings(max_examples=150, deadline=None)
    def test_resource_matches_reference_model(self, capacity, ops):
        sim = Simulator()
        lock, model = Resource(sim, capacity), ModelResource(capacity)
        events = []
        for tag, (op, priority) in enumerate(ops):
            if op == "acquire":
                events.append((tag, lock.acquire(priority=priority)))
                model.acquire(tag, priority)
            elif op == "try_acquire":
                # Never past a parked waiter, never beyond capacity; a
                # slot it took is handed on by release() like any other.
                blocked = bool(lock._waiters) or lock.in_use == capacity
                assert lock.try_acquire() == model.try_acquire() \
                    == (not blocked)
            elif model.in_use:
                lock.release()
                model.release()
        order = fired_order(events)
        sim.run()
        assert order == model.granted
        assert lock.in_use == model.in_use
        assert [tag for tag, event in events if not event.triggered] \
            == sorted(model.waiters)

    @given(capacity=st.integers(1, 3),
           ops=st.lists(st.sampled_from(["put", "get", "try_put", "try_get"]),
                        max_size=40))
    @settings(max_examples=150, deadline=None)
    def test_store_matches_reference_model(self, capacity, ops):
        sim = Simulator()
        store, model = Store(sim, capacity), ModelStore(capacity)
        events = []
        for tag, op in enumerate(ops):
            if op == "put":
                events.append((tag, store.put(tag)))
                model.put(tag, tag)
            elif op == "get":
                events.append((tag, store.get()))
                model.get(tag)
            elif op == "try_put":
                assert store.try_put(tag) == model.try_put(tag)
            else:
                assert store.try_get() == model.try_get()
        fired = []
        for tag, event in events:
            event.add_callback(
                lambda e, tag=tag: fired.append((tag, e.value)))
        sim.run()
        assert fired == model.fired
        assert list(store.items) == model.items
