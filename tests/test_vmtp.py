"""Tests for VMTP over Nectar (§6.2.2 future work): packet groups,
selective retransmission, at-most-once transactions."""

from dataclasses import replace

import pytest

from conftest import fixed_timer
from repro.config import NectarConfig
from repro.errors import TransportError
from repro.inet import IpLayer, VmtpLayer
from repro.inet.vmtp import MAX_SEGMENTS
from repro.topology import single_hub_system


def build(drop=0.0, seed=5, cfg=None):
    cfg = cfg or NectarConfig(seed=seed)
    if drop:
        cfg = replace(cfg, fiber=replace(cfg.fiber, drop_probability=drop))
    system = single_hub_system(2, cfg=cfg)
    a, b = system.cab("cab0"), system.cab("cab1")
    v_a, v_b = VmtpLayer(IpLayer(a)), VmtpLayer(IpLayer(b))
    return system, a, b, v_a, v_b


def echo_upper(system):
    def handler(request):
        yield system.sim.timeout(0)
        return request["data"].upper()
    return handler


class TestVmtp:
    def test_single_segment_transaction(self):
        system, a, b, v_a, v_b = build()
        v_b.register_server(42, echo_upper(system))
        out = {}

        def client():
            response = yield from v_a.transact("cab1", 42, b"tiny")
            out["response"] = response
        a.spawn(client())
        system.run(until=60_000_000)
        assert out["response"] == b"TINY"
        assert v_a.transactions_completed == 1
        # A clean exchange is one Karn sample on the shared estimator.
        assert a.transport.rto_for("cab1").samples == 1

    def test_multi_segment_packet_group(self):
        system, a, b, v_a, v_b = build()
        v_b.register_server(42, echo_upper(system))
        body = b"abcdefgh" * 1000      # 8 KB → ~9 segments
        out = {}

        def client():
            response = yield from v_a.transact("cab1", 42, body)
            out["response"] = response
        a.spawn(client())
        system.run(until=120_000_000)
        assert out["response"] == body.upper()

    def test_selective_retransmission_under_loss(self):
        system, a, b, v_a, v_b = build(drop=0.15)
        v_b.register_server(42, echo_upper(system))
        body = b"selective!" * 600     # 6 KB
        out = {}

        def client():
            response = yield from v_a.transact("cab1", 42, body)
            out["response"] = response
        a.spawn(client())
        system.run(until=120_000_000_000)
        assert out["response"] == body.upper()
        # NACK-driven: fewer resends than full-group go-back-N would do.
        assert v_b.nacks_sent >= 1
        assert v_a.selective_retransmits >= 1

    def test_at_most_once_execution(self):
        system, a, b, v_a, v_b = build()
        executions = []

        def handler(request):
            executions.append(request["data"])
            yield system.sim.timeout(0)
            return b"done"
        v_b.register_server(9, handler)
        out = {}

        def client():
            response = yield from v_a.transact("cab1", 9, b"x")
            out["first"] = response
            # A fresh transaction runs the handler again (new txn id)...
            response = yield from v_a.transact("cab1", 9, b"x")
            out["second"] = response
        a.spawn(client())
        system.run(until=120_000_000)
        assert out == {"first": b"done", "second": b"done"}
        assert len(executions) == 2    # distinct transactions: both run

    def test_duplicate_segments_answered_from_cache(self):
        """Replay a request wholesale: the handler must not re-run."""
        system, a, b, v_a, v_b = build()
        executions = []

        def handler(request):
            executions.append(1)
            yield system.sim.timeout(0)
            return b"cached"
        v_b.register_server(9, handler)
        out = {}

        def client():
            response = yield from v_a.transact("cab1", 9, b"first")
            out["r1"] = response
        a.spawn(client())
        system.run(until=60_000_000)
        # Hand-replay the same transaction id by sending the raw segment
        # again through the IP layer.
        txn_key = next(iter(v_b._responses))

        def replayer():
            yield from v_a._send_segment("cab1", 0, 9, txn_key[1], 0, 1,
                                         b"first", 900)
        a.spawn(replayer())
        system.run(until=120_000_000)
        assert len(executions) == 1
        assert v_b.duplicates_suppressed == 1

    def test_oversized_message_rejected(self):
        system, a, b, v_a, v_b = build()
        limit = MAX_SEGMENTS * v_a._segment_bytes()
        with pytest.raises(TransportError):
            next(v_a.transact("cab1", 42, bytes(limit + 1)))

    def test_non_bytes_rejected(self):
        system, a, b, v_a, v_b = build()
        with pytest.raises(TransportError):
            next(v_a.transact("cab1", 42, 12345))

    def test_unknown_port_times_out(self):
        """Every attempt waits the peer's RTO (here a fixed 3 ms timer);
        the transaction fails after ``max_retransmits + 1`` of them."""
        timer_ns, retries = 3_000_000, 5
        system, a, b, v_a, v_b = build(
            cfg=fixed_timer(NectarConfig(seed=5), timer_ns, retries=retries))
        failures = []

        def client():
            try:
                yield from v_a.transact("cab1", 404, b"nobody home")
            except TransportError as error:
                failures.append((str(error), system.now))
        a.spawn(client())
        system.run(until=300_000_000_000)
        [(error, at_ns)] = failures
        assert error.endswith(f"failed after {retries + 1} attempts")
        assert v_a.ip.packets_sent == retries + 1
        # Each attempt adds its VMTP/IP send CPU and the wakeup (~15 µs).
        waits = (retries + 1) * timer_ns
        assert waits < at_ns < waits + (retries + 1) * 50_000

    def test_duplicate_server_port_rejected(self):
        system, a, b, v_a, v_b = build()
        v_b.register_server(1, echo_upper(system))
        with pytest.raises(TransportError):
            v_b.register_server(1, echo_upper(system))

    def test_large_response_packet_group(self):
        system, a, b, v_a, v_b = build()

        def handler(request):
            yield system.sim.timeout(0)
            return bytes(range(256)) * 20    # 5 KB response
        v_b.register_server(7, handler)
        out = {}

        def client():
            response = yield from v_a.transact("cab1", 7, b"gimme")
            out["response"] = response
        a.spawn(client())
        system.run(until=120_000_000)
        assert out["response"] == bytes(range(256)) * 20
