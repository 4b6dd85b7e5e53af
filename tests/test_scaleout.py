"""repro.scaleout: partitioned runs must be bit-identical to single."""

import pytest

from repro.hardware.frames import HubCommand, Packet, Payload, Reply
from repro.hardware.hub_commands import CommandOp
from repro.scaleout import (lookahead_matrix, lookahead_ns,
                            partition_fabric, run_partitioned,
                            run_single, scenarios)
from repro.scaleout.wire import (KIND_PACKET, KIND_REPLY, Channel,
                                 ShmRing, decode_item, encode_item,
                                 kind_of)


@pytest.fixture(scope="module")
def torus16_reference():
    return run_single(scenarios()["escl-torus-16"])


# ----------------------------------------------------------------------
# wire codec
# ----------------------------------------------------------------------

class _FakeHub:
    def __init__(self, name):
        self.name = name


def test_packet_roundtrip_rebinds_hubs_and_materializes_payload():
    hubs = {"hub_a": _FakeHub("hub_a"), "hub_b": _FakeHub("hub_b")}
    packet = Packet("cab0",
                    commands=[HubCommand(CommandOp.TEST_OPEN_RETRY,
                                         "hub_b", 3, origin="cab0")],
                    payload=Payload(4, data=memoryview(b"abcdef")[1:5]))
    packet.reverse_path = [(hubs["hub_a"], 2), (hubs["hub_b"], 7)]
    assert kind_of(packet) == KIND_PACKET
    encode_item(packet)
    assert packet.reverse_path == [("hub_a", 2), ("hub_b", 7)]
    assert isinstance(packet.payload.data, bytes)
    decode_item(packet, hubs.__getitem__)
    assert packet.reverse_path[0][0] is hubs["hub_a"]
    assert packet.reverse_path[1][0] is hubs["hub_b"]
    assert packet.payload.data == b"bcde"


def test_reply_roundtrip_rebinds_route():
    hubs = {"hub_a": _FakeHub("hub_a")}
    reply = Reply(seq=9, ok=True, hub_id="hub_a",
                  info={"route": [(hubs["hub_a"], 4)], "op": "open"})
    assert kind_of(reply) == KIND_REPLY
    encode_item(reply)
    assert reply.info["route"] == [("hub_a", 4)]
    decode_item(reply, hubs.__getitem__)
    assert reply.info["route"][0][0] is hubs["hub_a"]
    assert reply.info["op"] == "open"


def test_kind_of_rejects_foreign_items():
    with pytest.raises(TypeError):
        kind_of(object())
    with pytest.raises(TypeError):
        encode_item(42)
    with pytest.raises(TypeError):
        encode_item(None)


def test_memoryview_payload_materialized_exactly_once():
    packet = Packet("cab0", commands=[],
                    payload=Payload(4, data=memoryview(b"abcdef")[1:5]))
    encode_item(packet)
    first = packet.payload.data
    assert isinstance(first, bytes)
    # A second encode (e.g. an envelope re-logged for replay) must not
    # copy the already-materialized bytes again.
    encode_item(packet)
    assert packet.payload.data is first


def test_encode_is_idempotent_on_already_encoded_items():
    packet = Packet("cab0", commands=[])
    packet.reverse_path = [(_FakeHub("hub_a"), 2)]
    encode_item(packet)
    assert packet.reverse_path == [("hub_a", 2)]
    encode_item(packet)  # names map to themselves
    assert packet.reverse_path == [("hub_a", 2)]
    reply = Reply(seq=1, ok=True, hub_id="hub_a",
                  info={"route": [(_FakeHub("hub_b"), 0)]})
    encode_item(reply)
    encode_item(reply)
    assert reply.info["route"] == [("hub_b", 0)]


def test_nested_route_roundtrip_preserves_order_and_other_info():
    hubs = {f"hub_{i}": _FakeHub(f"hub_{i}") for i in range(4)}
    route = [(hubs[f"hub_{i}"], i) for i in range(4)]
    reply = Reply(seq=3, ok=False, hub_id="hub_0",
                  info={"route": list(route), "op": "close",
                        "detail": {"retries": 2}})
    encode_item(reply)
    assert reply.info["route"] == [(f"hub_{i}", i) for i in range(4)]
    decode_item(reply, hubs.__getitem__)
    for index, (hub, port) in enumerate(reply.info["route"]):
        assert hub is hubs[f"hub_{index}"] and port == index
    assert reply.info["detail"] == {"retries": 2}


def test_reply_without_route_passes_codec_untouched():
    reply = Reply(seq=5, ok=True, hub_id="hub_a", info={"op": "noop"})
    encode_item(reply)
    decode_item(reply, lambda name: None)
    assert reply.info == {"op": "noop"}


# ----------------------------------------------------------------------
# shared-memory transport
# ----------------------------------------------------------------------

class _LoopPipe:
    """In-process stand-in for one end of a multiprocessing pipe."""

    def __init__(self):
        self.queue = []

    def send(self, message):
        self.queue.append(message)

    def recv(self):
        return self.queue.pop(0)


class TestShmRing:
    def test_roundtrip_and_rolling_offsets(self):
        ring = ShmRing(size=64)
        try:
            first = ring.write(b"alpha")
            second = ring.write(b"beta")
            assert (first, second) == (0, 5)
            assert ring.read(first, 5) == b"alpha"
            assert ring.read(second, 4) == b"beta"
        finally:
            ring.close()
            ring.unlink()

    def test_wraps_instead_of_overrunning(self):
        ring = ShmRing(size=16)
        try:
            ring.write(b"0123456789")
            offset = ring.write(b"abcdefgh")  # 10 + 8 > 16: wraps
            assert offset == 0
            assert ring.read(0, 8) == b"abcdefgh"
        finally:
            ring.close()
            ring.unlink()

    def test_oversized_blob_returns_none(self):
        ring = ShmRing(size=8)
        try:
            assert ring.write(b"way too large for the ring") is None
        finally:
            ring.close()
            ring.unlink()

    def test_read_is_bounds_checked(self):
        ring = ShmRing(size=8)
        try:
            with pytest.raises(ValueError, match="outside ring"):
                ring.read(4, 8)
            with pytest.raises(ValueError, match="outside ring"):
                ring.read(-1, 4)
        finally:
            ring.close()
            ring.unlink()


class TestChannel:
    def test_pipe_transport_passes_messages_verbatim(self):
        pipe = _LoopPipe()
        channel = Channel(pipe)
        channel.send(("advance", 7, []))
        assert pipe.queue == [("advance", 7, [])]
        assert channel.recv() == ("advance", 7, [])

    def test_shm_transport_sends_doorbell_not_payload(self):
        pipe = _LoopPipe()
        ring = ShmRing(size=4096)
        try:
            sender = Channel(pipe, tx=ring)
            receiver = Channel(pipe, rx=ring)
            message = ("state", 12345, [("env",) * 7], 42, 0.5)
            sender.send(message)
            doorbell = pipe.queue[0]
            assert doorbell[0] == "shm-block"
            assert receiver.recv() == message
        finally:
            ring.close()
            ring.unlink()

    def test_oversized_message_falls_back_inline(self):
        pipe = _LoopPipe()
        ring = ShmRing(size=16)
        try:
            sender = Channel(pipe, tx=ring)
            receiver = Channel(pipe, rx=ring)
            message = ("state", 1, [b"x" * 1024], 2, 0.0)
            sender.send(message)
            assert pipe.queue[0][0] == "shm-inline"
            assert receiver.recv() == message
        finally:
            ring.close()
            ring.unlink()

    def test_raw_messages_pass_decode_untouched(self):
        # The worker's ("error", traceback) emergency path bypasses the
        # ring; decode must hand it through unmodified.
        channel = Channel(_LoopPipe(), rx=None)
        assert channel.decode(("error", "boom")) == ("error", "boom")
        ring = ShmRing(size=64)
        try:
            shm_channel = Channel(_LoopPipe(), rx=ring)
            assert shm_channel.decode(("error", "boom")) == ("error",
                                                             "boom")
        finally:
            ring.close()
            ring.unlink()


# ----------------------------------------------------------------------
# lookahead
# ----------------------------------------------------------------------

def test_lookahead_is_fiber_propagation():
    scenario = scenarios()["escl-torus-16"]
    assert lookahead_ns(scenario.config()) == scenario.propagation_ns


def test_lookahead_matrix_refines_per_boundary():
    scenario = scenarios()["escl-torus-16"]
    cfg = scenario.config()
    base = lookahead_ns(cfg)
    partitioning = partition_fabric(scenario.fabric, 4)
    matrix = lookahead_matrix(partitioning, cfg)
    for src in range(4):
        for dst in range(4):
            if src == dst:
                continue
            # Direct cuts cost the fiber minimum; separated pairs pay
            # every cut on the shortest path, so entries are multiples.
            assert matrix[src][dst] >= base
            assert matrix[src][dst] % base == 0
            assert matrix[src][dst] == matrix[dst][src]


def test_lookahead_matrix_diagonal_is_shortest_feedback_cycle():
    scenario = scenarios()["escl-torus-16"]
    cfg = scenario.config()
    for count in (2, 4):
        partitioning = partition_fabric(scenario.fabric, count)
        matrix = lookahead_matrix(partitioning, cfg)
        for index in range(count):
            expected = min(matrix[index][via] + matrix[via][index]
                           for via in range(count) if via != index)
            assert matrix[index][index] == expected
            assert matrix[index][index] >= 2 * lookahead_ns(cfg)


# ----------------------------------------------------------------------
# the bit-identity contract
# ----------------------------------------------------------------------

def test_single_run_is_deterministic(torus16_reference):
    again = run_single(scenarios()["escl-torus-16"])
    assert again.digest == torus16_reference.digest
    assert again.events == torus16_reference.events
    assert again.sim_ns == torus16_reference.sim_ns


@pytest.mark.parametrize("num_partitions", [2, 4])
def test_partitioned_digest_matches_single(torus16_reference,
                                           num_partitions):
    result = run_partitioned(scenarios()["escl-torus-16"], num_partitions)
    assert result.digest == torus16_reference.digest
    # Capture-at-commit creates no sender event and injection creates
    # exactly the one call event the local fiber would have — so even
    # the raw event count survives partitioning.
    assert result.events == torus16_reference.events
    assert result.envelopes > 0 and result.rounds > 0


def test_circuit_mode_replies_cross_partitions():
    scenario = scenarios()["escl-torus-16-circuit"]
    reference = run_single(scenario)
    result = run_partitioned(scenario, 2)
    assert result.digest == reference.digest
    assert result.events == reference.events
    # Circuit opens travel forward and their replies travel back, so a
    # 2-partition run must exchange strictly more envelopes than the
    # packet-mode run on the same fabric.
    packets = run_partitioned(scenarios()["escl-torus-16"], 2)
    assert result.envelopes > packets.envelopes


def test_fingerprint_covers_delivery_and_content(torus16_reference):
    fingerprint = torus16_reference.fingerprint
    scenario = scenarios()["escl-torus-16"]
    assert set(fingerprint["delivered"]) == set(scenario.fabric.cab_names)
    assert all(count == scenario.messages_per_cab
               for count in fingerprint["delivered"].values())
    assert set(fingerprint["content"]) == set(scenario.fabric.cab_names)
    assert torus16_reference.goodput_mbps > 0


def test_run_partitioned_with_one_partition_is_single(torus16_reference):
    result = run_partitioned(scenarios()["escl-torus-16"], 1)
    assert result.digest == torus16_reference.digest
    assert result.partitions == 1


# ----------------------------------------------------------------------
# batched rounds and transports
# ----------------------------------------------------------------------

@pytest.mark.parametrize("transport", ["pipe", "shm"])
@pytest.mark.parametrize("batch", [1, 8])
def test_transport_batch_matrix_is_bit_identical(torus16_reference,
                                                 transport, batch):
    result = run_partitioned(scenarios()["escl-torus-16"], 2,
                             batch=batch, transport=transport)
    assert result.digest == torus16_reference.digest
    assert result.events == torus16_reference.events


def test_batching_grants_multiple_windows_per_round(torus16_reference):
    scenario = scenarios()["escl-torus-16"]
    classic = run_partitioned(scenario, 2, batch=1, transport="pipe")
    batched = run_partitioned(scenario, 2, batch=8, transport="pipe")
    assert batched.digest == classic.digest == torus16_reference.digest
    # Wider grants mean strictly fewer barrier rounds...
    assert batched.rounds < classic.rounds
    # ...and idle elision means advances can undershoot rounds * parts.
    assert batched.advances <= batched.rounds * 2


def test_partitioned_result_reports_setup_and_timing():
    result = run_partitioned(scenarios()["escl-torus-16"], 2)
    assert result.setup_s > 0
    assert result.advances > 0
    assert set(result.timing) == {"compute_s", "wait_s", "exchange_s"}
    for values in result.timing.values():
        assert len(values) == 2
        assert all(value >= 0 for value in values)
    summary = result.summary()
    assert summary["setup_s"] == round(result.setup_s, 6)
    assert summary["advances"] == result.advances


def test_single_result_reports_setup(torus16_reference):
    assert torus16_reference.setup_s > 0
    assert torus16_reference.timing == {}
    assert "setup_s" in torus16_reference.summary()


# ----------------------------------------------------------------------
# capture tooling
# ----------------------------------------------------------------------

def test_capture_withholds_speedup_the_host_cannot_show(load_script, capsys):
    bench = load_script("benchmarks/bench_scaleout.py")
    assert bench.speedup_entry(1.0, 0.5, partitions=2, cpus=2) \
        == {"speedup": 2.0}
    withheld = bench.speedup_entry(1.0, 0.5, partitions=4, cpus=2)
    assert withheld["speedup"] is None
    assert "2 CPU(s) for 4 partitions" in withheld["note"]

    run = {"partitions": 4, "batch": 8, "transport": "shm", "wall_s": 0.5,
           "setup_s": 0.1, "rounds": 3, "advances": 9, **withheld}
    document = {"seed": 1, "repeats": 1, "host": {"cpus": 2},
                "scenarios": {"escl-torus-256": {
                    "events": 10, "digest": "ab" * 32,
                    "single": {"wall_s": 1.0, "setup_s": 0.1},
                    "partitioned": [dict(run), {**run, "partitions": 2,
                                                "speedup": 2.0}]}}}
    load_script("tools/perf_report.py").show_scaleout("doc.json", document)
    rendered = capsys.readouterr().out
    assert "n/a" in rendered and "2.00x" in rendered
