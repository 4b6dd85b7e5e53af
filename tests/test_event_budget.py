"""Agenda-entry budgets: hand-off events must not creep back.

The rule (docs/PERFORMANCE.md, "The prime directive"): an agenda entry
exists only where simulated time passes or somebody is waiting.  These
counts are exact and deterministic; a change that adds a process, a
queue hand-off or a no-op completion to the datagram path moves them.
Lowering them is fine — re-measure and update the number.
"""

from repro.topology import single_hub_system

#: One 64-byte datagram cab0 -> cab1 across one idle HUB, both threads'
#: spawn and completion included.  56 before PR 17's elisions.
ONE_DATAGRAM_ENTRIES = 43


def test_one_datagram_across_an_idle_hub_stays_within_budget():
    system = single_hub_system(2)
    sender, receiver = system.cab("cab0"), system.cab("cab1")
    inbox = receiver.create_mailbox("inbox")
    got = []

    def rx():
        got.append((yield from receiver.kernel.wait(inbox.get())))

    def tx():
        yield from sender.transport.datagram.send("cab1", "inbox", size=64)

    system.run()
    idle = system.sim.events_processed
    receiver.spawn(rx())
    sender.spawn(tx())
    system.run()
    assert got and got[0].size == 64
    assert system.sim.events_processed - idle == ONE_DATAGRAM_ENTRIES


def test_an_idle_system_runs_only_the_hub_port_input_loops():
    """HUB ports, fibers and the HUB controller are state machines, not
    standing processes: a freshly built 12-CAB system has nothing on its
    agenda, and draining it processes no entry at all."""
    system = single_hub_system(12)
    assert system.sim.peek() is None
    system.run()
    assert system.sim.events_processed == 0
