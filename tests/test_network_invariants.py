"""System-level invariants under randomized traffic.

After any mix of unicast traffic completes, the Nectar-net must return
to its quiescent state: no residual crossbar connections, every ready
bit high, and exactly the sent messages delivered.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.topology import figure7_system, single_hub_system

CABS = ["CAB1", "CAB2", "CAB3", "CAB4", "CAB5"]


@given(st.lists(
    st.tuples(st.sampled_from(CABS), st.sampled_from(CABS),
              st.integers(min_value=1, max_value=3_000),
              st.sampled_from(["packet", "circuit", "auto"])),
    min_size=1, max_size=8))
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
def test_network_quiesces_after_random_traffic(transfers):
    transfers = [(src, dst, size, mode)
                 for src, dst, size, mode in transfers if src != dst]
    if not transfers:
        return
    system = figure7_system()
    expected = {}
    for index, (src, dst, size, mode) in enumerate(transfers):
        mailbox_name = f"in{index}"
        system.cab(dst).create_mailbox(mailbox_name)
        expected[index] = size
    received = {}
    for index, (src, dst, size, mode) in enumerate(transfers):
        stack = system.cab(dst)
        inbox = stack.transport.mailbox(f"in{index}")

        def rx(stack=stack, inbox=inbox, index=index):
            message = yield from stack.kernel.wait(inbox.get())
            received[index] = message.size
        stack.spawn(rx())
        src_stack = system.cab(src)
        if mode == "packet" and not src_stack.datalink.packet_fits(size):
            mode = "auto"

        def tx(src_stack=src_stack, dst=dst, size=size, mode=mode,
               index=index):
            yield from src_stack.transport.datagram.send(
                dst, f"in{index}", size=size, mode=mode)
        src_stack.spawn(tx())
    system.run(until=120_000_000_000)
    # Every message arrived intact.
    assert received == expected
    # The network is quiescent again.
    for hub in system.hubs.values():
        assert hub.crossbar.connection_count == 0, hub.name
        assert hub.locks == {}
        assert all(hub.ready_bits), (hub.name, hub.ready_bits)
    for stack in system.cabs.values():
        assert stack.board.first_hop_ready


@given(st.integers(min_value=0, max_value=1_000_000))
@settings(max_examples=10, deadline=None)
def test_counters_balance_on_single_hub(seed):
    """Forwarded packets at the hub = packets sent by all CABs that made
    it through (commands consumed, data forwarded)."""
    from repro.config import NectarConfig
    system = single_hub_system(4, cfg=NectarConfig(seed=seed))
    rng = system.cfg.rng_stream("invariant")
    sends = rng.randrange(1, 6)
    done = []
    for index in range(sends):
        src = system.cab(f"cab{rng.randrange(2)}")
        dst = system.cab(f"cab{2 + rng.randrange(2)}")
        box_name = f"b{index}"
        inbox = dst.create_mailbox(box_name)

        def rx(dst=dst, inbox=inbox):
            message = yield from dst.kernel.wait(inbox.get())
            done.append(message.size)
        dst.spawn(rx())

        def tx(src=src, dst=dst, box_name=box_name):
            yield from src.transport.datagram.send(dst.name, box_name,
                                                   size=100)
        src.spawn(tx())
    system.run(until=60_000_000)
    assert len(done) == sends
    hub = system.hub("hub0")
    assert hub.counters["packets_forwarded"] == sends
    assert hub.counters["opens_ok"] == sends
    assert hub.counters["closes"] == sends
