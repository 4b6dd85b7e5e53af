"""Agenda-entry budgets: hand-off events must not creep back.

The rule (docs/PERFORMANCE.md, "The prime directive"): an agenda entry
exists only where simulated time passes or somebody is waiting.  These
counts are exact and deterministic; a change that adds a process, a
queue hand-off or a no-op completion to the datagram path moves them.
Lowering them is fine — re-measure and update the number.

The opcode budget counts interpreter opcodes instead of agenda entries:
host work, deterministic where wall time is not.  Opcode counts depend on
the bytecode compiler, so the budget is exact on CPython 3.11 only (the
version the e2e numbers are measured on) and skipped elsewhere.  Raising
it needs a reason.
"""

import sys
from collections import Counter
from pathlib import Path

import pytest

import repro
from repro.topology import single_hub_system

#: One 64-byte datagram cab0 -> cab1 across one idle HUB, both threads'
#: spawn and completion included.  56 before PR 17's elisions.
ONE_DATAGRAM_ENTRIES = 43

#: Opcodes executed in ``src/repro`` frames for the same scene, spawns
#: included (CPython 3.11); a failure prints them by package.  10 879
#: before the checksum became the payload's ``corrupt`` flag and unread
#: state went: ``repro.hardware`` 2 554 -> 2 528 and ``repro.datalink``
#: 545 -> 537 (no ``seal`` per send, no ``verify`` call chain per
#: receive), ``repro.transport`` 672 -> 667 (one flag test),
#: ``repro.kernel`` 579 -> 567 (no ``enqueued_at`` or ``dequeued`` store
#: per message), every other package unchanged.  10 889
#: before ``Fiber.send`` lost its never-passed ``wire_size`` argument:
#: ``repro.hardware`` 2 564 -> 2 554 (a module-level size lookup, no
#: ``None`` test per send), every other package unchanged.  11 669
#: before a fixed delay became a yielded int and scheduling one call:
#: ``repro.sim`` 7 197 -> 6 498 (no ``timeout()``/``Timeout`` pair per
#: sleep, an inline grant per ``acquire``, ``call_in`` straight onto the
#: agenda, no ``enumerate`` per entry), ``repro.hardware`` 2 645 -> 2 564
#: (no ``self.sim.timeout`` load per sleep), every other package
#: unchanged.  11 815
#: before the fixed parameters became module constants: one global load
#: where ``cfg.<section>.<field>`` walked two or three attributes, and no
#: property call per fiber rate: ``repro.sim`` 7 237 -> 7 197 (no
#: ``megabits_per_second`` per rate read), ``repro.hardware`` 2 673 ->
#: 2 645, ``repro.transport`` 683 -> 672, ``repro.kernel`` 583 -> 579,
#: ``repro.datalink`` 572 -> 545, ``repro.config`` 41 -> 5.  11 901
#: before ids were minted by their owners: ``repro.hardware`` 2 717 ->
#: 2 673, ``repro.datalink`` 596 -> 572, ``repro.kernel`` 598 -> 583,
#: ``repro.transport`` 686 -> 683 (no module-counter lambda per HUB
#: command or ``Message``, no packet id, no ``Packet.meta`` dict).  11 932
#: before each ``CommandOp`` carried its own flags: ``repro.hardware``
#: 2 748 -> 2 717 (an attribute load per classification instead of a
#: predicate call and a frozenset test), every other package unchanged.
#: 12 047 before payloads sealed lazily: ``repro.hardware`` 2 863 -> 2 748 (no
#: Fletcher-16 at seal, no checksum compare at verify), every other
#: package unchanged.  13 156 before the engine's free lists went:
#: ``repro.sim`` 8 346 -> 7 237 (no refcount check or pool push per
#: processed event, no pool pop per new event, one class test per
#: entry, ``enumerate`` for the hand-kept index), every other package
#: unchanged.  13 646 before a finished
#: process dropped its bound resume: three opcodes for each of the
#: scene's six processes.  13 664 before the interrupt path went:
#: ``repro.sim`` 8 815 -> 8 346 (no ``_waiting_on`` stores, no
#: finished-process guard per resume), ``repro.hardware`` 2 902 -> 2 863
#: (no ``try/finally`` per CPU grant).
ONE_DATAGRAM_OPCODES = 10_828


def one_datagram(drive=lambda run: run(), size=64, mode="auto"):
    """Idle the scene, then ``drive`` its spawns and run.  Returns the
    system, the agenda entries the drive took and what ``drive``
    returned."""
    system = single_hub_system(2)
    sender, receiver = system.cab("cab0"), system.cab("cab1")
    inbox = receiver.create_mailbox("inbox")
    got = []

    def rx():
        got.append((yield from receiver.kernel.wait(inbox.get())))

    def tx():
        yield from sender.transport.datagram.send("cab1", "inbox",
                                                  size=size, mode=mode)

    def run():
        receiver.spawn(rx())
        sender.spawn(tx())
        system.run()

    system.run()
    idle = system.sim.events_processed
    measured = drive(run)
    assert got and got[0].size == size
    return system, system.sim.events_processed - idle, measured


def count_opcodes(run) -> Counter:
    """Interpreter opcodes ``run()`` executes in frames of ``src/repro``,
    by package (``repro.sim``, ``repro.hardware``, ...)."""
    root = str(Path(repro.__file__).parent)
    opcodes = Counter()

    def per_call(frame, event, arg):
        if not frame.f_code.co_filename.startswith(root):
            return None
        frame.f_trace_opcodes = True
        package = ".".join(frame.f_globals["__name__"].split(".")[:2])

        def per_opcode(frame, event, arg):
            if event == "opcode":
                opcodes[package] += 1
            return per_opcode
        return per_opcode

    previous = sys.gettrace()
    sys.settrace(per_call)
    try:
        run()
    finally:
        sys.settrace(previous)
    return opcodes


def test_one_datagram_across_an_idle_hub_stays_within_budget():
    _, entries, _ = one_datagram()
    assert entries == ONE_DATAGRAM_ENTRIES


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="opcode counts are pinned on CPython 3.11")
def test_one_datagram_stays_within_its_opcode_budget():
    _, _, opcodes = one_datagram(count_opcodes)
    assert opcodes.total() == ONE_DATAGRAM_OPCODES, dict(opcodes.most_common())


def test_an_idle_system_runs_only_the_hub_port_input_loops():
    """HUB ports, fibers and the HUB controller are state machines, not
    standing processes: a freshly built 12-CAB system has nothing on its
    agenda, and draining it processes no entry at all."""
    system = single_hub_system(12)
    assert system.sim.peek() is None
    system.run()
    assert system.sim.events_processed == 0
