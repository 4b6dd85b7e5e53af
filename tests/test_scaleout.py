"""repro.scaleout: partitioned runs must be bit-identical to single."""

import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ScaleoutError
from repro.hardware.frames import HubCommand, Packet, Payload, Reply
from repro.hardware.hub_commands import CommandOp
from repro.scaleout import (ScaleoutScenario, Supervisor,
                            lookahead_matrix, lookahead_ns,
                            partition_fabric, run_partitioned,
                            run_single, scenarios)
from repro.scaleout import supervisor as supervisor_module
from repro.scaleout import worker as worker_module
from repro.scaleout.wire import (KIND_PACKET, KIND_REPLY, decode_item,
                                 encode_item, kind_of)
from repro.topology.fabrics import hypercube_fabric, torus_fabric


PINS = pathlib.Path(__file__).parent / "data" / "pins.json"


@pytest.fixture(scope="module")
def torus16_reference():
    return run_single(scenarios()["escl-torus-16"])


def crossing_scenario(name="hypercube-16", **fields):
    """A 16-hub 4-cube whose every flow crosses any cut: the shift
    partner flips the top index bit, and a hypercube is cut in index
    order.  Not in the registry: workers get it through the fork."""
    return ScaleoutScenario(name, "4-cube, 16 CABs, every flow crosses",
                            hypercube_fabric(4), **fields)


@pytest.fixture(scope="module")
def crossing():
    scenario = crossing_scenario()
    return scenario, run_single(scenario)


# ----------------------------------------------------------------------
# wire codec
# ----------------------------------------------------------------------

class _FakeHub:
    def __init__(self, name):
        self.name = name


HUBS = {name: _FakeHub(name) for name in ("hub_a", "hub_b", "hub_c")}


def assert_same_frame(original, decoded):
    """``decoded`` equals ``original`` field by field: hub references
    are the *same* objects, payload data has become ``bytes``."""
    assert type(decoded) is type(original)
    if isinstance(original, Reply):
        assert (decoded.seq, decoded.ok, decoded.hub_id, decoded.wire_size) \
            == (original.seq, original.ok, original.hub_id,
                original.wire_size)
        assert decoded.info.keys() == original.info.keys()
        for key, value in original.info.items():
            if key != "route":
                assert decoded.info[key] == value
        paths = [(original.info.get("route", []),
                  decoded.info.get("route", []))]
    else:
        for name in ("origin", "close_after", "header_bytes",
                     "framing_error"):
            assert getattr(decoded, name) == getattr(original, name), name
        fields = ("op", "hub_id", "param", "seq", "origin", "arg")
        assert [[getattr(c, f) for f in fields] for c in decoded.commands] \
            == [[getattr(c, f) for f in fields] for c in original.commands]
        assert all(isinstance(c, HubCommand) for c in decoded.commands)
        sent, got = original.payload, decoded.payload
        assert (got is None) == (sent is None)
        if sent is not None:
            assert isinstance(got, Payload)
            assert (got.size, got.header, got.corrupt) \
                == (sent.size, sent.header, sent.corrupt)
            assert got.data is None if sent.data is None else \
                (type(got.data) is bytes and got.data == bytes(sent.data))
        paths = [(original.reverse_path, decoded.reverse_path)]
    for sent_path, got_path in paths:
        assert len(got_path) == len(sent_path)
        for (sent_hub, sent_port), (got_hub, got_port) in zip(sent_path,
                                                              got_path):
            assert got_hub is sent_hub and got_port == sent_port


def roundtrip(item):
    blob = encode_item(item)
    assert type(blob) is bytes
    return decode_item(blob, HUBS.__getitem__)


def test_packet_roundtrip_rebinds_hubs_and_materializes_payload():
    packet = Packet("cab0",
                    commands=[HubCommand(CommandOp.TEST_OPEN_RETRY,
                                         "hub_b", 3, seq=5, origin="cab0")],
                    payload=Payload(4, data=memoryview(b"abcdef")[1:5]),
                    header_bytes=16)
    packet.reverse_path = [(HUBS["hub_a"], 2), (HUBS["hub_b"], 7)]
    assert kind_of(packet) == KIND_PACKET
    decoded = roundtrip(packet)
    assert decoded is not packet
    assert_same_frame(packet, decoded)
    assert decoded.reverse_path[0][0] is HUBS["hub_a"]
    assert decoded.payload.data == b"bcde"
    # The reply key the issuing CAB stamped crosses unchanged, and the
    # wire size is the sender's.
    assert decoded.commands[0].seq == 5
    assert decoded.wire_size() == packet.wire_size()


def test_reply_roundtrip_rebinds_route():
    reply = Reply(seq=9, ok=True, hub_id="hub_a",
                  info={"route": [(HUBS["hub_a"], 4)], "op": "open"})
    assert kind_of(reply) == KIND_REPLY
    decoded = roundtrip(reply)
    assert_same_frame(reply, decoded)
    assert decoded.info["route"][0][0] is HUBS["hub_a"]
    assert decoded.info["op"] == "open"


def test_kind_of_rejects_foreign_items():
    with pytest.raises(TypeError):
        kind_of(object())
    with pytest.raises(TypeError):
        encode_item(42)
    with pytest.raises(TypeError):
        encode_item(None)


def test_encode_leaves_the_senders_objects_untouched():
    # The sending partition may still hold what it captured: multicast
    # siblings share header and data, transports keep payloads for
    # retransmit, and Hub.route_reply pops reverse_path by identity.
    view = memoryview(b"abcdef")[1:5]
    header = {"proto": "dg", "frag": 0}
    packet = Packet("cab0", commands=[HubCommand(CommandOp.OPEN, "hub_b", 1)],
                    payload=Payload(4, data=view, header=header))
    path = [(HUBS["hub_a"], 2), (HUBS["hub_b"], 7)]
    packet.reverse_path = path
    route = [(HUBS["hub_c"], 0)]
    reply = Reply(seq=1, ok=True, hub_id="hub_c", info={"route": route})
    encode_item(packet)
    encode_item(reply)
    assert packet.reverse_path is path
    assert [hub for hub, _port in path] == [HUBS["hub_a"], HUBS["hub_b"]]
    assert packet.payload.data is view and packet.payload.header is header
    assert reply.info["route"] is route and route == [(HUBS["hub_c"], 0)]


def test_encoding_twice_gives_the_same_bytes():
    # What determinism relies on: a frame's blob is a function of the
    # frame, so nothing about *when* it was captured leaks into it.
    packet = Packet("cab0", commands=[],
                    payload=Payload(4, data=bytearray(b"bcde")))
    packet.reverse_path = [(HUBS["hub_a"], 2)]
    assert encode_item(packet) == encode_item(packet)
    reply = Reply(seq=1, ok=True, hub_id="hub_a",
                  info={"route": [(HUBS["hub_b"], 0)]})
    assert encode_item(reply) == encode_item(reply)


def test_nested_route_roundtrip_preserves_order_and_other_info():
    hubs = {f"hub_{i}": _FakeHub(f"hub_{i}") for i in range(4)}
    route = [(hubs[f"hub_{i}"], i) for i in range(4)]
    reply = Reply(seq=3, ok=False, hub_id="hub_0",
                  info={"route": list(route), "op": "close",
                        "detail": {"retries": 2}})
    decoded = decode_item(encode_item(reply), hubs.__getitem__)
    for index, (hub, port) in enumerate(decoded.info["route"]):
        assert hub is hubs[f"hub_{index}"] and port == index
    assert decoded.info["detail"] == {"retries": 2}
    assert reply.info["route"] == route


def test_reply_without_route_passes_codec_untouched():
    reply = Reply(seq=5, ok=True, hub_id="hub_a", info={"op": "noop"})
    decoded = decode_item(encode_item(reply), lambda name: None)
    assert decoded == reply and decoded is not reply


_hub_refs = st.lists(st.tuples(st.sampled_from(sorted(HUBS)).map(HUBS.get),
                               st.integers(0, 15)), max_size=4)
_plain = st.dictionaries(st.text(max_size=6),
                         st.integers() | st.text(max_size=6) | st.none(),
                         max_size=3)


@st.composite
def _payloads(draw):
    data = draw(st.none() | st.binary(max_size=64))
    size = draw(st.integers(0, 9000)) if data is None else len(data)
    if data is not None:
        data = draw(st.sampled_from((bytes, bytearray, memoryview)))(data)
    return Payload(size, data=data, header=draw(_plain),
                   corrupt=draw(st.booleans()))


@st.composite
def _packets(draw):
    commands = draw(st.lists(st.builds(
        HubCommand, st.sampled_from(list(CommandOp)),
        st.sampled_from(sorted(HUBS)), st.integers(0, 15),
        origin=st.none() | st.just("cab3"),
        arg=st.none() | _plain), max_size=4))
    packet = Packet("cab0", commands=commands,
                    payload=draw(st.none() | _payloads()),
                    close_after=draw(st.booleans()),
                    header_bytes=draw(st.integers(0, 32)))
    packet.framing_error = draw(st.booleans())
    packet.reverse_path = draw(_hub_refs)
    return packet


_replies = st.builds(
    Reply, st.integers(0, 1 << 20), st.booleans(),
    st.sampled_from(sorted(HUBS)),
    st.builds(lambda info, route: {**info, **route}, _plain,
              st.just({}) | _hub_refs.map(lambda path: {"route": path})),
    st.integers(3, 11))


@settings(max_examples=200, deadline=None)
@given(_packets() | _replies)
def test_decode_inverts_encode_field_by_field(item):
    assert_same_frame(item, roundtrip(item))


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
def test_partitioned_digest_matches_single(crossing, num_partitions):
    scenario, reference = crossing
    result = run_partitioned(scenario, num_partitions)
    assert result.digest == reference.digest
    # Capture-at-commit creates no sender event and injection creates
    # exactly the one call event the local fiber would have — so even
    # the raw event count survives partitioning.
    assert result.events == reference.events
    assert result.envelopes > 0 and result.rounds > 0
    if num_partitions == 2:
        # The boundary fiber's one seam (_schedule_delivery) captures
        # exactly the deliveries the process-form transmit loop did:
        # the count measured at PR 16, before the state machine.
        assert result.envelopes == 128


@pytest.mark.parametrize("uncrossed", [True, False],
                         ids=["uncrossed-torus", "crossed-hypercube"])
def test_partitioned_clock_stops_at_the_last_event(torus16_reference,
                                                   crossing, uncrossed):
    # A worker reports the clock of its last event, not of its last
    # grant: the run ends where the single-process run does, whether it
    # ran to the end in one round or to grant after grant.
    scenario, reference = (scenarios()["escl-torus-16"], torus16_reference) \
        if uncrossed else crossing
    result = run_partitioned(scenario, 2)
    assert (result.rounds == 1) == uncrossed
    assert (result.envelopes == 0) == uncrossed
    assert result.sim_ns == reference.sim_ns
    assert result.mismatch(reference) is None


def test_a_capture_the_route_set_did_not_declare_ends_the_run(crossing):
    # Declare no route: the lookahead matrix then has no edge, both
    # workers run to the end, and the first packet across the cut is a
    # capture on a pair the route set declared uncrossed.
    supervisor = Supervisor(crossing[0], 2)
    assert supervisor.routes
    supervisor.routes = frozenset()
    with pytest.raises(ScaleoutError, match="failed") as excinfo:
        supervisor.run()
    details = [entry["failure"]["detail"]
               for entry in excinfo.value.forensics if entry["failure"]]
    assert len(details) == 1 and "route set violated" in details[0]


def test_a_fault_campaign_keeps_every_cut_fiber_in_the_matrix():
    # Reroutes make routes dynamic: an armed campaign declares none.
    from repro.scaleout import escl_campaign
    scenario = scenarios()["escl-torus-16"]
    campaign = escl_campaign("drop-burst", scenario.config())
    assert Supervisor(scenario, 2).routes
    assert Supervisor(scenario, 2, faults=campaign).routes is None


@pytest.mark.parametrize("num_partitions", [2, 4])
def test_protocol_counts_equal_the_checked_in_ones(num_partitions):
    # CI's scaleout job holds the CLI's JSON to the same pins: a
    # protocol change cannot hide behind an unchanged digest.
    pinned = json.loads(PINS.read_text())["scaleout-torus-64"]["1989"]
    result = run_partitioned(scenarios()["escl-torus-64"], num_partitions)
    wanted = {key: pinned["digests"][f"p{num_partitions}.{key}"]
              for key in ("rounds", "advances", "envelopes")}
    assert {key: getattr(result, key) for key in wanted} == wanted


def test_circuit_mode_replies_cross_partitions(crossing):
    scenario = crossing_scenario("hypercube-16-circuit",
                                 message_bytes=2048, mode="circuit")
    reference = run_single(scenario)
    result = run_partitioned(scenario, 2)
    assert result.digest == reference.digest
    assert result.events == reference.events
    # Circuit opens travel forward and their replies travel back, so a
    # 2-partition run must exchange strictly more envelopes than the
    # packet-mode run on the same fabric.
    packets = run_partitioned(crossing[0], 2)
    assert result.envelopes > packets.envelopes


def test_odd_partition_count_matches_single(torus16_reference):
    result = run_partitioned(scenarios()["escl-torus-16"], 3)
    assert result.mismatch(torus16_reference) is None
    # Some rounds elide a worker, which then only receives the reports.
    assert result.rounds < result.advances < 3 * result.rounds


@pytest.mark.parametrize("num_partitions", [2, 3])
def test_reports_larger_than_the_pipe_buffer_cross(num_partitions):
    # 80 kB circuit-mode messages: in some rounds two peers each send a
    # report of more than the 64 KiB pipe buffer, which hangs an
    # exchange where both send before either receives.
    scenario = crossing_scenario("hypercube-16-80k", message_bytes=80_000,
                                 mode="circuit")
    reference = run_single(scenario)
    result = run_partitioned(scenario, num_partitions)
    assert result.mismatch(reference) is None
    assert result.events == reference.events


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


def test_mismatch_is_the_parity_rule(torus16_reference):
    from dataclasses import replace
    from repro.scaleout import escl_campaign
    reference = torus16_reference
    sharded = replace(reference, partitions=4)
    assert sharded.mismatch(reference) is None
    # A moved digest names both digests, whatever the event counts say.
    other = replace(sharded, fingerprint={**reference.fingerprint,
                                          "sent": {}})
    message = other.mismatch(reference)
    assert other.digest in message and reference.digest in message
    assert "single-process" in message
    # Equal digests, moved events: both counts are named...
    more = replace(sharded, events=reference.events + 3)
    message = more.mismatch(reference)
    assert f"{more.events} events" in message
    assert f"single-process {reference.events}" in message
    # ...unless in-simulation faults are armed: a driver process spawns
    # per partition holding a matched target, so totals may differ.
    # Equal digests and events, a moved clock: both last events named.
    later = replace(sharded, sim_ns=reference.sim_ns + 1)
    assert later.mismatch(reference) == (
        f"last event at {later.sim_ns} ns, single-process "
        f"{reference.sim_ns} ns")
    campaign = escl_campaign("drop-burst",
                             scenarios()["escl-torus-16"].config())
    assert more.mismatch(reference, campaign) is None
    assert later.mismatch(reference, campaign) is None
    assert other.mismatch(reference, campaign) is not None
    assert "2-partition" in more.mismatch(replace(reference, partitions=2))


# ----------------------------------------------------------------------
# what a worker holds: the scenario through the fork, a lazy catalogue
# ----------------------------------------------------------------------

@pytest.mark.parametrize("num_partitions", [2, 3])
def test_unregistered_scenario_runs_partitioned(num_partitions):
    # The coordinator's own scenario object reaches every worker: no
    # registry lookup by name, so an ad-hoc scenario needs none.
    scenario = ScaleoutScenario("adhoc-torus-16", "ad hoc, not registered",
                                torus_fabric((2, 2, 2, 2)))
    assert scenario.name not in scenarios()
    reference = run_single(scenario)
    result = run_partitioned(scenario, num_partitions)
    assert result.digest == reference.digest
    assert result.events == reference.events


def test_unregistered_result_carries_its_goodput(torus16_reference):
    scenario = ScaleoutScenario("adhoc-torus-16", "ad hoc, not registered",
                                torus_fabric((2, 2, 2, 2)))
    summary = run_single(scenario).summary()
    assert summary["goodput_mbps"] == \
        round(torus16_reference.goodput_mbps, 3) > 0


def test_looking_up_one_scenario_builds_no_other_fabric(monkeypatch):
    from repro.scaleout import escl
    from repro.topology.fabrics import FabricSpec
    adhoc = crossing_scenario()
    built = []
    validate = FabricSpec.validate

    def recording(self, *args):
        built.append(self.name)
        return validate(self, *args)

    monkeypatch.setattr(FabricSpec, "validate", recording)
    monkeypatch.setattr(escl, "_CATALOGUE", escl._Catalogue())
    catalogue = scenarios()
    assert len(list(catalogue)) == 7 and "escl-torus-1024" in catalogue
    assert built == []
    scenario = catalogue["escl-torus-16"]
    assert built == ["torus2x2x2x2"]
    assert catalogue["escl-torus-16"] is scenario
    assert built == ["torus2x2x2x2"]
    # Registering a scenario builds nothing either.
    catalogue[adhoc.name] = adhoc
    assert catalogue[adhoc.name] is adhoc and len(catalogue) == 8
    assert built == ["torus2x2x2x2"]


def test_unknown_scenario_error_names_every_builtin(capsys):
    from repro.__main__ import main
    assert main(["scaleout", "no-such-scenario"]) == 2
    error = capsys.readouterr().err
    for name in ("escl-torus-16", "escl-torus-16-circuit", "escl-torus-64",
                 "escl-hypercube-64", "escl-fattree-4", "escl-torus-256",
                 "escl-torus-1024"):
        assert name in error


def test_verify_is_gone():
    import repro.scaleout
    assert not hasattr(repro.scaleout, "verify")


# ----------------------------------------------------------------------
# round timing
# ----------------------------------------------------------------------

def test_partitioned_result_reports_setup_and_timing():
    # Traffic across the cut: an uncrossed run is one round, in which a
    # worker spends next to no CPU outside run().
    result = run_partitioned(crossing_scenario(), 2)
    assert result.setup_s > 0
    assert result.advances > 0
    assert set(result.timing) == {"compute_s", "wait_s", "exchange_s",
                                  "ipc_s"}
    for values in result.timing.values():
        assert len(values) == 2
        assert all(value >= 0 for value in values)
    # Each worker spent CPU outside run() (it planned, pickled, decoded
    # and injected); the coordinator only waited.
    assert all(value > 0 for value in result.timing["ipc_s"])
    assert 0 < result.coordinator_cpu_s < sum(result.timing["ipc_s"])
    # The worker-side buckets are disjoint slices of its steady phase,
    # which the coordinator's steady wall contains: no host second is
    # charged twice.
    for index in range(2):
        charged = sum(result.timing[phase][index]
                      for phase in ("compute_s", "wait_s", "exchange_s"))
        assert 0 < charged <= result.wall_s
    summary = result.summary()
    assert summary["setup_s"] == round(result.setup_s, 6)
    assert summary["advances"] == result.advances


def test_coordinator_holds_no_envelope_in_the_steady_phase(monkeypatch):
    # Spy on everything the coordinator receives, and on its heap: the
    # workers exchange envelopes among themselves, so a run with 16
    # times the traffic costs the coordinator no more memory.
    import tracemalloc
    from dataclasses import replace
    received = []
    recv = Supervisor._recv

    def spying_recv(self, worker):
        message = recv(self, worker)
        received.append(message)
        return message

    worker_main = worker_module.worker_main

    def untraced_worker(*args):
        tracemalloc.stop()  # inherited from the fork; not ours to count
        worker_main(*args)

    monkeypatch.setattr(Supervisor, "_recv", spying_recv)
    monkeypatch.setattr(supervisor_module, "worker_main", untraced_worker)
    base = crossing_scenario()
    run_partitioned(base, 2)  # first-run imports and caches, untraced
    peaks = {}
    for messages in (1, 16):
        scenario = replace(base, name=f"{base.name}-x{messages}",
                           messages_per_cab=messages)
        del received[:]
        tracemalloc.start()
        try:
            result = run_partitioned(scenario, 2)
            peaks[messages] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.envelopes == 32 * messages
        tags = sorted(message[0] for message in received
                      if message[0] != "beat")
        assert tags == ["ready", "ready", "result", "result"]
        for _tag, _progress, body in received:
            if isinstance(body, dict):
                assert set(body) == {"sim_ns", "plan", "rounds",
                                     "advances", "envelopes", "inbound",
                                     "timing", "fragment"}
    assert peaks[16] - peaks[1] < 32 * 1024, peaks


def test_single_result_reports_setup(torus16_reference):
    assert torus16_reference.setup_s > 0
    assert torus16_reference.timing == {}
    assert "setup_s" in torus16_reference.summary()

