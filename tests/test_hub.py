"""Unit tests for HUB command semantics (§4.2) at the hardware level.

These drive raw command packets from CAB boards into a HUB, bypassing the
software stack, to pin down open/close/lock/status/supervisor behaviour.
"""

import pytest

from repro.config import NectarConfig
from repro.hardware import (CabBoard, CommandOp, Hub, HubCommand, Packet,
                            Payload, wire_cab_to_hub)
from repro.sim import Simulator


@pytest.fixture
def rig():
    """A hub with three raw CABs on ports 0, 1, 2."""
    cfg = NectarConfig()
    sim = Simulator()
    hub = Hub(sim, "hub0", cfg.hub, cfg.fiber)
    cabs = []
    for index in range(3):
        cab = CabBoard(sim, f"cab{index}", cfg.cab, cfg.fiber)
        wire_cab_to_hub(sim, cab, hub, index)
        cab.on_receive(_sink(cab))
        cabs.append(cab)
    return sim, hub, cabs


def _sink(cab):
    def handler(packet, size, head, tail):
        cab.meta_received = getattr(cab, "meta_received", [])
        cab.meta_received.append(packet)
        cab.signal_input_drained()
        yield cab.sim.timeout(0)
    return handler


def send_commands(cab, commands, payload=None, close_after=False):
    packet = Packet(cab.name, commands=commands, payload=payload,
                    close_after=close_after, header_bytes=0)
    return cab.transmit(packet)


def command(op, hub, param, origin="cab0"):
    return HubCommand(op, hub, param, origin=origin)


def await_reply(sim, cab, cmd, until=5_000_000):
    event = cab.expect_reply(cmd)
    sim.run(until=until)
    assert event.triggered, f"no reply to {cmd!r}"
    return event.value


class TestOpenClose:
    def test_open_creates_connection(self, rig):
        sim, hub, cabs = rig
        cmd = command(CommandOp.OPEN_REPLY, "hub0", 1)
        reply_event = cabs[0].expect_reply(cmd)
        send_commands(cabs[0], [cmd])
        sim.run(until=100_000)
        assert reply_event.value.ok
        assert hub.crossbar.owner_of(1) == 0

    def test_open_busy_output_fails_without_retry(self, rig):
        sim, hub, cabs = rig
        first = command(CommandOp.OPEN_REPLY, "hub0", 2, origin="cab0")
        send_commands(cabs[0], [first])
        sim.run(until=100_000)
        second = command(CommandOp.OPEN_REPLY, "hub0", 2, origin="cab1")
        reply_event = cabs[1].expect_reply(second)
        send_commands(cabs[1], [second])
        sim.run(until=200_000)
        reply = reply_event.value
        assert not reply.ok
        assert reply.info["reason"] == "busy"

    def test_open_retry_waits_for_free(self, rig):
        sim, hub, cabs = rig
        send_commands(cabs[0], [command(CommandOp.OPEN, "hub0", 2)])
        sim.run(until=100_000)
        assert hub.crossbar.owner_of(2) == 0
        retry = command(CommandOp.OPEN_RETRY_REPLY, "hub0", 2,
                        origin="cab1")
        reply_event = cabs[1].expect_reply(retry)
        send_commands(cabs[1], [retry])
        sim.run(until=300_000)
        assert not reply_event.triggered          # still waiting
        send_commands(cabs[0], [command(CommandOp.CLOSE, "hub0", 2)])
        sim.run(until=600_000)
        assert reply_event.triggered
        assert reply_event.value.ok
        assert hub.crossbar.owner_of(2) == 1       # cab1 is on port 1

    def test_close_input_drops_fanout(self, rig):
        sim, hub, cabs = rig
        send_commands(cabs[0], [command(CommandOp.OPEN, "hub0", 1),
                                command(CommandOp.OPEN, "hub0", 2)])
        sim.run(until=100_000)
        assert hub.crossbar.outputs_of(0) == {1, 2}
        send_commands(cabs[0], [command(CommandOp.CLOSE_INPUT, "hub0", 0)])
        sim.run(until=200_000)
        assert hub.crossbar.outputs_of(0) == frozenset()

    def test_data_flows_after_open(self, rig):
        sim, hub, cabs = rig
        payload = Payload(128, data=bytes(128))
        send_commands(cabs[0],
                      [command(CommandOp.OPEN_RETRY, "hub0", 1)],
                      payload=payload, close_after=True)
        sim.run(until=500_000)
        assert len(cabs[1].meta_received) == 1
        # close all tore the route down behind the data
        assert hub.crossbar.connection_count == 0

    def test_travelling_close_all_command_packet(self, rig):
        sim, hub, cabs = rig
        send_commands(cabs[0], [command(CommandOp.OPEN, "hub0", 1)])
        sim.run(until=100_000)
        assert hub.crossbar.connection_count == 1
        send_commands(cabs[0],
                      [HubCommand(CommandOp.CLOSE_ALL, "*", origin="cab0")])
        sim.run(until=300_000)
        assert hub.crossbar.connection_count == 0


class TestLocks:
    def test_lock_blocks_other_origin(self, rig):
        sim, hub, cabs = rig
        lock = command(CommandOp.LOCK_REPLY, "hub0", 2, origin="cab0")
        reply_event = cabs[0].expect_reply(lock)
        send_commands(cabs[0], [lock])
        sim.run(until=100_000)
        assert reply_event.value.ok
        foreign = command(CommandOp.OPEN_REPLY, "hub0", 2, origin="cab1")
        foreign_reply = cabs[1].expect_reply(foreign)
        send_commands(cabs[1], [foreign])
        sim.run(until=200_000)
        assert not foreign_reply.value.ok
        assert foreign_reply.value.info["reason"] == "locked"

    def test_lock_holder_can_open(self, rig):
        sim, hub, cabs = rig
        send_commands(cabs[0], [command(CommandOp.LOCK, "hub0", 2),
                                command(CommandOp.OPEN, "hub0", 2)])
        sim.run(until=100_000)
        assert hub.crossbar.owner_of(2) == 0

    def test_unlock_wakes_waiters(self, rig):
        sim, hub, cabs = rig
        send_commands(cabs[0], [command(CommandOp.LOCK, "hub0", 2)])
        sim.run(until=100_000)
        waiting = command(CommandOp.OPEN_RETRY_REPLY, "hub0", 2,
                          origin="cab1")
        waiting_reply = cabs[1].expect_reply(waiting)
        send_commands(cabs[1], [waiting])
        sim.run(until=200_000)
        assert not waiting_reply.triggered
        send_commands(cabs[0], [command(CommandOp.UNLOCK, "hub0", 2)])
        sim.run(until=400_000)
        assert waiting_reply.value.ok

    def test_unlock_by_non_holder_fails(self, rig):
        sim, hub, cabs = rig
        send_commands(cabs[0], [command(CommandOp.LOCK, "hub0", 2)])
        sim.run(until=100_000)
        bad = command(CommandOp.UNLOCK, "hub0", 2, origin="cab1")
        send_commands(cabs[1], [bad])
        sim.run(until=200_000)
        assert hub.locks[2] == "cab0"


class TestStatus:
    def test_status_output(self, rig):
        sim, hub, cabs = rig
        send_commands(cabs[0], [command(CommandOp.OPEN, "hub0", 1)])
        sim.run(until=100_000)
        query = command(CommandOp.STATUS_OUTPUT, "hub0", 1)
        reply_event = cabs[0].expect_reply(query)
        send_commands(cabs[0], [query])
        sim.run(until=200_000)
        assert reply_event.value.info["owner"] == 0

    def test_status_table_snapshot(self, rig):
        sim, hub, cabs = rig
        query = command(CommandOp.STATUS_TABLE, "hub0", 0)
        reply_event = cabs[0].expect_reply(query)
        send_commands(cabs[0], [query])
        sim.run(until=200_000)
        table = reply_event.value.info["table"]
        assert len(table) == 16

    def test_echo(self, rig):
        sim, hub, cabs = rig
        probe = command(CommandOp.ECHO, "hub0", 99)
        reply_event = cabs[0].expect_reply(probe)
        send_commands(cabs[0], [probe])
        sim.run(until=100_000)
        assert reply_event.value.info["echo"] == 99

    def test_status_ready(self, rig):
        sim, hub, cabs = rig
        query = command(CommandOp.STATUS_READY, "hub0", 1)
        reply_event = cabs[0].expect_reply(query)
        send_commands(cabs[0], [query])
        sim.run(until=100_000)
        assert reply_event.value.info["ready"] is True


class TestSupervisor:
    def test_reset_hub_clears_everything(self, rig):
        sim, hub, cabs = rig
        send_commands(cabs[0], [command(CommandOp.LOCK, "hub0", 3),
                                command(CommandOp.OPEN, "hub0", 1)])
        sim.run(until=100_000)
        send_commands(cabs[0], [command(CommandOp.SV_RESET_HUB, "hub0", 0)])
        sim.run(until=200_000)
        assert hub.crossbar.connection_count == 0
        assert hub.locks == {}

    def test_disable_port_refuses_opens(self, rig):
        sim, hub, cabs = rig
        send_commands(cabs[0],
                      [command(CommandOp.SV_DISABLE_PORT, "hub0", 2)])
        sim.run(until=100_000)
        bad = command(CommandOp.OPEN_RETRY_REPLY, "hub0", 2)
        reply_event = cabs[0].expect_reply(bad)
        send_commands(cabs[0], [bad])
        sim.run(until=300_000)
        reply = reply_event.value
        assert not reply.ok
        assert reply.info["reason"] == "port disabled"

    def test_enable_port_restores(self, rig):
        sim, hub, cabs = rig
        send_commands(cabs[0],
                      [command(CommandOp.SV_DISABLE_PORT, "hub0", 2),
                       command(CommandOp.SV_ENABLE_PORT, "hub0", 2),
                       command(CommandOp.OPEN, "hub0", 2)])
        sim.run(until=200_000)
        assert hub.crossbar.owner_of(2) == 0

    def test_selftest_and_version(self, rig):
        sim, hub, cabs = rig
        test = command(CommandOp.SV_SELFTEST, "hub0", 0)
        version = command(CommandOp.SV_READ_VERSION, "hub0", 0)
        ev_t = cabs[0].expect_reply(test)
        ev_v = cabs[0].expect_reply(version)
        send_commands(cabs[0], [test, version])
        sim.run(until=200_000)
        assert ev_t.value.info["selftest"] == "pass"
        assert "nectar-hub" in ev_v.value.info["version"]

    def test_freeze_rejects_user_commands(self, rig):
        sim, hub, cabs = rig
        send_commands(cabs[0], [command(CommandOp.SV_FREEZE, "hub0", 0)])
        sim.run(until=100_000)
        frozen = command(CommandOp.OPEN_REPLY, "hub0", 1)
        reply_event = cabs[0].expect_reply(frozen)
        send_commands(cabs[0], [frozen])
        sim.run(until=200_000)
        assert not reply_event.value.ok
        assert reply_event.value.info["reason"] == "frozen"
        send_commands(cabs[0], [command(CommandOp.SV_UNFREEZE, "hub0", 0)])
        sim.run(until=300_000)
        assert not hub.controller.frozen

    def test_counters_read_and_clear(self, rig):
        sim, hub, cabs = rig
        send_commands(cabs[0], [command(CommandOp.OPEN, "hub0", 1)])
        sim.run(until=100_000)
        read = command(CommandOp.SV_READ_COUNTERS, "hub0", 0)
        reply_event = cabs[0].expect_reply(read)
        send_commands(cabs[0], [read])
        sim.run(until=200_000)
        assert reply_event.value.info["counters"]["opens_ok"] == 1
        send_commands(cabs[0],
                      [command(CommandOp.SV_CLEAR_COUNTERS, "hub0", 0)])
        sim.run(until=300_000)
        assert hub.counters == {} or hub.counters.get("opens_ok", 0) == 0

    def test_loopback_echoes_packets(self, rig):
        sim, hub, cabs = rig
        send_commands(cabs[0], [command(CommandOp.SV_LOOPBACK_ON, "hub0", 0)])
        sim.run(until=100_000)
        payload = Payload(64, data=bytes(64))
        send_commands(cabs[0], [], payload=payload)
        sim.run(until=300_000)
        assert len(getattr(cabs[0], "meta_received", [])) == 1

    def test_retry_watchdog(self, rig):
        sim, hub, cabs = rig
        send_commands(cabs[0], [command(CommandOp.SV_SET_TIMEOUT, "hub0", 1),
                                command(CommandOp.OPEN, "hub0", 2)])
        sim.run(until=100_000)
        hopeless = command(CommandOp.OPEN_RETRY_REPLY, "hub0", 2,
                           origin="cab1")
        reply_event = cabs[1].expect_reply(hopeless)
        send_commands(cabs[1], [hopeless])
        sim.run(until=1_000_000)
        assert reply_event.triggered
        assert not reply_event.value.ok


class TestControllerPipeline:
    """The controller is idle or one cycle into a command; no process."""

    def submit(self, hub, op, param, in_port, finished, origin=None):
        cmd = command(op, "hub0", param, origin=origin or f"cab{in_port}")
        done = hub.controller.submit(cmd, in_port, [])
        done.add_callback(lambda event: finished.append(
            (hub.sim.now, in_port, event.value)))
        return done

    def test_same_instant_commands_take_one_cycle_each_in_order(self, rig):
        sim, hub, _cabs = rig
        sim.run(until=1_000)
        finished = []
        self.submit(hub, CommandOp.OPEN, 2, 0, finished)
        self.submit(hub, CommandOp.OPEN, 2, 1, finished)
        assert hub.controller._current is not None
        assert len(hub.controller._backlog) == 1
        sim.run()
        assert [(when, port, result["ok"])
                for when, port, result in finished] \
            == [(1_070, 0, True), (1_140, 1, False)]
        assert finished[1][2]["reason"] == "busy"
        assert hub.controller.commands_executed == 2
        assert hub.controller._current is None and not hub.controller._backlog

    def test_reset_fails_queued_commands(self, rig):
        sim, hub, _cabs = rig
        sim.run(until=1_000)
        finished = []
        for in_port, out_port in ((0, 1), (0, 2), (1, 2), (2, 2)):
            self.submit(hub, CommandOp.OPEN, out_port, in_port, finished)
        # A localized command: executes in the port, one cycle from now,
        # right after the controller has dispatched the first open.
        sim.process(hub.execute_command(
            command(CommandOp.SV_RESET_HUB, "hub0", 0), 0, []))
        sim.run()
        # The open already in its cycle when the reset lands still
        # executes; the two queued behind it were flushed.
        assert [(when, port, result.get("reason"))
                for when, port, result in finished] \
            == [(1_070, 0, None), (1_070, 1, "hub reset"),
                (1_070, 2, "hub reset"), (1_140, 0, None)]
        assert hub.controller.commands_executed == 2
        assert hub.controller._current is None and not hub.controller._backlog

    def test_retry_waiters_reenter_behind_the_inflight_command(self, rig):
        sim, hub, _cabs = rig
        finished = []
        self.submit(hub, CommandOp.OPEN, 2, 0, finished)
        sim.run()
        waiter = self.submit(hub, CommandOp.OPEN_RETRY, 2, 1, finished)
        sim.run()
        assert not waiter.triggered  # parked on output 2
        start = sim.now
        self.submit(hub, CommandOp.OPEN, 1, 0, finished)  # in flight ...
        hub.close_output(2)                               # ... re-issue
        assert len(hub.controller._backlog) == 1
        sim.run()
        assert [(when - start, port, result["ok"])
                for when, port, result in finished[1:]] \
            == [(70, 0, True), (140, 1, True)]
        assert hub.crossbar.owner_of(2) == 1


class TestFlowControlCommands:
    def test_clear_and_set_ready(self, rig):
        sim, hub, cabs = rig
        send_commands(cabs[0], [command(CommandOp.CLEAR_READY, "hub0", 2)])
        sim.run(until=100_000)
        assert hub.ready_bits[2] is False
        send_commands(cabs[0], [command(CommandOp.SET_READY, "hub0", 2)])
        sim.run(until=200_000)
        assert hub.ready_bits[2] is True

    def test_test_open_waits_for_ready(self, rig):
        sim, hub, cabs = rig
        send_commands(cabs[0], [command(CommandOp.CLEAR_READY, "hub0", 2)])
        sim.run(until=100_000)
        gated = command(CommandOp.TEST_OPEN_RETRY_REPLY, "hub0", 2)
        reply_event = cabs[0].expect_reply(gated)
        send_commands(cabs[0], [gated])
        sim.run(until=300_000)
        assert not reply_event.triggered
        send_commands(cabs[1],
                      [command(CommandOp.SET_READY, "hub0", 2,
                               origin="cab1")])
        sim.run(until=600_000)
        assert reply_event.value.ok

    def test_test_open_without_retry_fails_when_not_ready(self, rig):
        sim, hub, cabs = rig
        send_commands(cabs[0], [command(CommandOp.CLEAR_READY, "hub0", 2)])
        sim.run(until=100_000)
        gated = command(CommandOp.TEST_OPEN_REPLY, "hub0", 2)
        reply_event = cabs[0].expect_reply(gated)
        send_commands(cabs[0], [gated])
        sim.run(until=300_000)
        assert not reply_event.value.ok
        assert reply_event.value.info["reason"] == "not ready"


class TestInputQueue:
    """A port is idle or draining one busy period; no standing process."""

    def test_back_to_back_packets_queue_and_drain_once(self, rig):
        sim, hub, cabs = rig
        hub.crossbar.connect(0, 1)
        port = hub.ports[0]
        drained = []
        # The drained signal travels upstream to the port's peer, cab0.
        cabs[0].notify_ready = lambda: drained.append(
            hub.counters["packets_forwarded"])
        packets = [Packet("cab0", payload=Payload(64, data=bytes(64)),
                          header_bytes=0) for _ in range(3)]
        for packet in packets:
            port.deliver(packet, packet.wire_size())
        assert port._busy and len(port._queue) == 2
        sim.run()
        assert all(got is sent for got, sent
                   in zip(cabs[1].meta_received, packets, strict=True))
        assert hub.max_queue_depths[0] == 2
        assert hub.queue_depths[0] == 0
        # Once, and only after all three had left through port 1.
        assert drained == [3]
        assert not port._busy
