"""Unit tests for the CAB kernel: threads, mailboxes, services."""

import pytest

from repro.config import MAILBOX_CAPACITY, THREAD_SWITCH_NS
from repro.errors import MailboxError, NodeError
from repro.kernel.mailbox import Mailbox, Message
from repro.sim import SimulationError
from repro.topology import single_hub_system


@pytest.fixture
def stack():
    return single_hub_system(2).cab("cab0")


class TestThreads:
    def test_spawn_runs_body(self, stack):
        trace = []

        def body():
            yield from stack.kernel.compute(1_000)
            trace.append(stack.sim.now)
        stack.spawn(body())
        stack.sim.run()
        assert trace == [1_000]

    def test_wait_charges_switch_cost(self, stack):
        kernel = stack.kernel
        times = {}

        def body():
            yield from kernel.wait(stack.sim.timeout(10_000))
            times["resumed"] = stack.sim.now
        stack.spawn(body())
        stack.sim.run()
        assert times["resumed"] == 10_000 + THREAD_SWITCH_NS

    def test_switch_cost_in_paper_band(self, stack):
        """§6.1: thread switching takes between 10 and 15 µs."""
        assert 10_000 <= THREAD_SWITCH_NS <= 15_000

    def test_sleep(self, stack):
        def body():
            yield from stack.kernel.sleep(5_000)
            return stack.sim.now
        thread = stack.spawn(body())
        stack.sim.run()
        assert thread.done.value == 5_000 + THREAD_SWITCH_NS

    def test_thread_registry(self, stack):
        def body():
            yield from stack.kernel.sleep(1_000)
        thread = stack.spawn(body())
        assert stack.kernel.live_threads == 1
        stack.sim.run()
        assert stack.kernel.live_threads == 0
        assert not thread.is_alive

    def test_crashing_thread_halts_simulation(self, stack):
        def body():
            yield stack.sim.timeout(10)
            raise ValueError("thread bug")
        stack.spawn(body())
        with pytest.raises(SimulationError):
            stack.sim.run()

    def test_switch_counter(self, stack):
        def body():
            for _ in range(3):
                yield from stack.kernel.sleep(100)
        stack.spawn(body())
        stack.sim.run()
        assert stack.kernel.total_switches == 3


class TestMailbox:
    def test_fifo_order(self, stack):
        box = Mailbox(stack.kernel, "box")
        got = []

        def reader():
            for _ in range(3):
                message = yield box.get()
                got.append(message.data)

        def writer():
            for tag in (b"a", b"b", b"c"):
                yield box.put(Message("w", "box", 1, data=tag))
        stack.sim.process(reader())
        stack.sim.process(writer())
        stack.sim.run()
        assert got == [b"a", b"b", b"c"]

    def test_out_of_order_read(self, stack):
        """§6.1: mailboxes support out-of-order reads."""
        box = Mailbox(stack.kernel, "box")
        for kind in ("normal", "urgent", "normal"):
            box.put(Message("w", "box", 4, kind=kind))
        got = []

        def reader():
            message = yield box.get_match(lambda m: m.kind == "urgent")
            got.append(message.kind)
        stack.sim.process(reader())
        stack.sim.run()
        assert got == ["urgent"]
        assert [m.kind for m in box.messages] == ["normal", "normal"]

    def test_multiple_readers_fifo(self, stack):
        """§6.1: multiple servers on one mailbox."""
        box = Mailbox(stack.kernel, "box")
        served = []

        def server(tag):
            message = yield box.get()
            served.append((tag, message.data))
        stack.sim.process(server("s1"))
        stack.sim.process(server("s2"))
        box.put(Message("w", "box", 1, data=b"x"))
        box.put(Message("w", "box", 1, data=b"y"))
        stack.sim.run()
        assert served == [("s1", b"x"), ("s2", b"y")]

    def test_capacity_blocks_writer(self, stack):
        box = Mailbox(stack.kernel, "box", capacity_messages=1)
        progress = []

        def writer():
            yield box.put(Message("w", "box", 1, data=b"1"))
            yield box.put(Message("w", "box", 1, data=b"2"))
            progress.append(stack.sim.now)
        stack.sim.process(writer())
        stack.sim.call_at(500, box.try_get)
        stack.sim.run()
        assert progress == [500]

    def test_default_capacity(self, stack):
        assert stack.create_mailbox("x").capacity == MAILBOX_CAPACITY

    @pytest.mark.parametrize("capacity", [0, -3])
    def test_capacity_below_one_rejected(self, stack, capacity):
        with pytest.raises(MailboxError, match="capacity must be >= 1"):
            stack.create_mailbox("x", capacity=capacity)
        assert "x" not in stack.transport.mailboxes

    def test_memory_backing_allocated_and_freed(self, stack):
        box = Mailbox(stack.kernel, "box")
        region = stack.board.data_memory
        before = region.allocated_bytes
        box.put(Message("w", "box", 4096))
        stack.sim.run()
        assert region.allocated_bytes == before + 4096
        box.try_get()
        assert region.allocated_bytes == before

    def test_memory_exhaustion_backpressures(self, stack):
        box = Mailbox(stack.kernel, "box", capacity_messages=8)
        region = stack.board.data_memory
        hog = region.alloc(region.free_bytes - 1024)
        done = []

        def writer():
            yield box.put(Message("w", "box", 4096))
            done.append(stack.sim.now)
        stack.sim.process(writer())
        stack.sim.call_at(1_000, lambda: region.free(hog))
        stack.sim.run()
        assert done == [1_000]

    def test_close_fails_waiting_readers(self, stack):
        box = Mailbox(stack.kernel, "box")
        outcome = {}

        def reader():
            try:
                yield box.get()
            except MailboxError:
                outcome["failed"] = True
        stack.sim.process(reader())
        stack.sim.call_at(10, box.close)
        stack.sim.run()
        assert outcome.get("failed")

    def test_put_after_close_raises(self, stack):
        box = Mailbox(stack.kernel, "box")
        box.close()
        with pytest.raises(MailboxError):
            box.put(Message("w", "box", 1))

    def test_peek_and_depth_stats(self, stack):
        box = Mailbox(stack.kernel, "box")
        box.put(Message("w", "box", 1, data=b"z"))
        stack.sim.run()
        assert box.peek().data == b"z"
        assert box.peak_depth == 1
        assert len(box) == 1


class TestNodeServices:
    def test_request_response_roundtrip(self):
        system = single_hub_system(2, with_nodes=True)
        stack = system.cab("cab0")

        def file_read(args):
            yield from stack.node.compute(50_000)
            return f"contents of {args}"
        stack.services.register("file_read", file_read)
        result = {}

        def thread():
            answer = yield from stack.services.request("file_read",
                                                       "/etc/passwd")
            result["answer"] = answer
        stack.spawn(thread())
        system.run(until=10_000_000)
        assert result["answer"] == "contents of /etc/passwd"
        assert stack.services.requests_served == 1

    def test_unknown_service_fails(self):
        system = single_hub_system(2, with_nodes=True)
        stack = system.cab("cab0")
        result = {}

        def thread():
            try:
                yield from stack.services.request("no_such_thing")
            except NodeError:
                result["failed"] = True
        stack.spawn(thread())
        system.run(until=10_000_000)
        assert result.get("failed")

    def test_no_node_attached_raises(self, stack):
        def thread():
            yield from stack.services.request("anything")
        with pytest.raises(NodeError):
            # request() raises synchronously before any yield
            next(stack.services.request("x"))
