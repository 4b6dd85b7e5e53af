"""Property-based reliability tests: whatever the loss pattern, the
reliable protocols deliver exactly the bytes that were sent."""

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import fixed_timer
from repro.config import NectarConfig
from repro.errors import TransportError
from repro.topology import single_hub_system


def lossy_config(seed, drop, corrupt=0.0):
    cfg = NectarConfig(seed=seed)
    # The shipped max_retransmits=10 bounds time-to-peer-failure for the
    # resilience layer; at drop=0.25 with lossy acks a packet exhausts it
    # with probability ~0.44^11 ≈ 1e-4 per example, so the "any loss"
    # property needs a persistence budget matched to the sampled rates
    # (0.44^65 is beyond any seed Hypothesis will ever draw).
    return replace(
        cfg, fiber=replace(cfg.fiber, drop_probability=drop,
                           corrupt_probability=corrupt),
        transport=replace(cfg.transport, max_retransmits=64))


def lossy_system(seed, drop, corrupt=0.0):
    return single_hub_system(2, cfg=lossy_config(seed, drop, corrupt))


@given(seed=st.integers(min_value=0, max_value=10_000),
       drop=st.sampled_from([0.05, 0.15, 0.25]),
       body=st.binary(min_size=1, max_size=4_000))
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
def test_byte_stream_exact_delivery_under_any_loss(seed, drop, body):
    system = lossy_system(seed, drop)
    a, b = system.cab("cab0"), system.cab("cab1")
    inbox = b.create_mailbox("inbox")
    results = []

    def receiver():
        message = yield from b.kernel.wait(inbox.get())
        results.append(message.data)
    b.spawn(receiver())
    connection = a.transport.stream.connect("cab1", "inbox")
    a.spawn(connection.send(data=body))
    system.run(until=120_000_000_000)
    assert results == [body]


@given(seed=st.integers(min_value=0, max_value=10_000),
       drop=st.sampled_from([0.1, 0.2]),
       request=st.binary(min_size=1, max_size=900))
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
def test_rpc_response_matches_request_under_loss(seed, drop, request):
    system = single_hub_system(2, cfg=fixed_timer(
        lossy_config(seed, drop), 3_000_000, retries=30))
    a, b = system.cab("cab0"), system.cab("cab1")
    inbox = b.create_mailbox("svc")
    executions = []

    def server():
        while True:
            message = yield from b.kernel.wait(inbox.get())
            executions.append(message.data)
            yield from b.transport.rpc.respond(message,
                                               data=message.data[::-1])
    b.spawn(server())
    results = []

    def client():
        response = yield from a.transport.rpc.request(
            "cab1", "svc", data=request)
        results.append(response.data)
    a.spawn(client())
    system.run(until=300_000_000_000)
    assert results == [request[::-1]]
    # At-most-once: however many retransmissions, one execution.
    assert executions == [request]


def tcp_transfer(cfg, body):
    """``body`` over TCP cab0 -> cab1 under ``cfg``: returns what the
    server received and the errors the client's ``connect`` raised."""
    from repro.inet import IpLayer, TcpLayer
    system = single_hub_system(2, cfg=cfg)
    a, b = system.cab("cab0"), system.cab("cab1")
    tcp_a, tcp_b = TcpLayer(IpLayer(a)), TcpLayer(IpLayer(b))
    listener = tcp_b.listen(80)
    results, refused = [], []

    def server():
        connection = yield from listener.accept()
        outcome = yield from connection.receive(len(body))
        results.append(outcome["data"])
    b.spawn(server())

    def client():
        try:
            connection = yield from tcp_a.connect("cab1", 80)
        except TransportError as error:
            refused.append((str(error), system.now))
            return
        yield from connection.send(data=body)
    a.spawn(client())
    system.run(until=300_000_000_000)
    return results, refused


@given(seed=st.integers(min_value=0, max_value=10_000),
       body=st.binary(min_size=1, max_size=3_000))
# Seeds that lost all eight SYNs under TCP's old fixed budget.
@example(seed=6077, body=b"nectar")
@example(seed=8002, body=b"nectar")
@example(seed=9470, body=b"nectar")
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
def test_tcp_exact_delivery_under_loss(seed, body):
    """Exact delivery, and the connect is never refused.  A SYN and its
    SYN-ACK (or a segment and its ack) cross four fibers, so one try
    loses a packet with probability 1 - 0.88^4 ≈ 0.40.  Both the
    handshake and every data segment get ``max_retransmits + 1`` = 65
    tries here, so either gives up with ~0.40^65 ≈ 1e-26 per example."""
    results, refused = tcp_transfer(lossy_config(seed, 0.12), body)
    assert refused == []
    assert results == [body]


def test_tcp_connect_gives_up_with_a_structured_error():
    """Under a fixed 3 ms timer with a budget of seven resends, seed
    6077 loses all eight handshakes: the client sees one
    ``TransportError`` after the eighth wait (24.125 ms: 8 × 3 ms plus
    the SYNs' CPU), and no thread crashes the run."""
    timer_ns, retries = 3_000_000, 7
    results, refused = tcp_transfer(
        fixed_timer(lossy_config(6077, 0.12), timer_ns, retries=retries),
        b"nectar")
    assert results == []
    [(error, at_ns)] = refused
    assert error == "TCP connect to cab1:80 timed out"
    waits = (retries + 1) * timer_ns
    assert waits < at_ns < waits + (retries + 1) * 50_000
