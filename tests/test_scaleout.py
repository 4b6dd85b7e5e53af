"""repro.scaleout: partitioned runs must be bit-identical to single."""

import time

import pytest

from repro.hardware.frames import HubCommand, Packet, Payload, Reply
from repro.hardware.hub_commands import CommandOp
from repro.scaleout import (Supervisor, lookahead_matrix, lookahead_ns,
                            partition_fabric, run_partitioned,
                            run_single, scenarios)
from repro.scaleout.wire import (KIND_PACKET, KIND_REPLY, decode_item,
                                 encode_item, kind_of)


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
    if num_partitions == 2:
        # The boundary fiber's one seam (_schedule_delivery) captures
        # exactly the deliveries the process-form transmit loop did:
        # the count measured at PR 16, before the state machine.
        assert result.envelopes == 128


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
# batched rounds
# ----------------------------------------------------------------------

@pytest.mark.parametrize("batch", [1, 8])
def test_batch_matrix_is_bit_identical(torus16_reference, batch):
    result = run_partitioned(scenarios()["escl-torus-16"], 2, batch=batch)
    assert result.digest == torus16_reference.digest
    assert result.events == torus16_reference.events


def test_batching_grants_multiple_windows_per_round(torus16_reference):
    scenario = scenarios()["escl-torus-16"]
    classic = run_partitioned(scenario, 2, batch=1)
    batched = run_partitioned(scenario, 2, batch=8)
    assert batched.digest == classic.digest == torus16_reference.digest
    # Wider grants mean strictly fewer barrier rounds...
    assert batched.rounds < classic.rounds
    # ...and idle elision means advances can undershoot rounds * parts.
    assert batched.advances <= batched.rounds * 2


def test_partitioned_result_reports_setup_and_timing(monkeypatch):
    # Clock every worker's round trips from outside the supervisor's own
    # timers: entering the send to leaving the recv that answers it (the
    # unprompted initial report counts from entering its recv).
    trips, began = [0.0, 0.0], {}
    send, recv = Supervisor._send, Supervisor._recv

    def clocked_send(self, worker, message):
        began[worker.index] = time.perf_counter()
        send(self, worker, message)

    def clocked_recv(self, worker):
        entered = time.perf_counter()
        message = recv(self, worker)
        trips[worker.index] += \
            time.perf_counter() - began.pop(worker.index, entered)
        return message

    monkeypatch.setattr(Supervisor, "_send", clocked_send)
    monkeypatch.setattr(Supervisor, "_recv", clocked_recv)
    result = run_partitioned(scenarios()["escl-torus-16"], 2)
    assert result.setup_s > 0
    assert result.advances > 0
    assert set(result.timing) == {"compute_s", "wait_s", "exchange_s"}
    for values in result.timing.values():
        assert len(values) == 2
        assert all(value >= 0 for value in values)
    # The three buckets are disjoint slices of the round trips: no host
    # second is charged twice (send and recv time are exchange, not wait).
    for index, trip_s in enumerate(trips):
        charged = sum(result.timing[phase][index]
                      for phase in ("compute_s", "wait_s", "exchange_s"))
        assert 0 < charged <= trip_s
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

    run = {"partitions": 4, "batch": 8, "wall_s": 0.5,
           "setup_s": 0.1, "rounds": 3, "advances": 9, **withheld}
    document = {"seed": 1, "repeats": 1, "host": {"cpus": 2},
                "scenarios": {"escl-torus-256": {
                    "events": 10, "digest": "ab" * 32,
                    "single": {"wall_s": 1.0, "setup_s": 0.1},
                    # An older capture's row still names its transport.
                    "partitioned": [dict(run), {**run, "partitions": 2,
                                                "transport": "shm",
                                                "speedup": 2.0}]}}}
    load_script("tools/perf_report.py").show_scaleout("doc.json", document)
    rendered = capsys.readouterr().out
    assert "n/a" in rendered and "2.00x" in rendered
    assert "transport" not in rendered and "shm" not in rendered
