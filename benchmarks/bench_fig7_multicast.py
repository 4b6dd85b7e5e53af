"""E11 — Figure 7 multicast: CAB2 → {CAB4, CAB5} (§4.2.2, §4.2.4).

Circuit mode issues the paper's exact command sequence (open HUB1 P6 /
open-reply HUB4 P5 / open HUB4 P3 / open-reply HUB3 P4), waits for both
replies, then sends the data once; packet mode uses test-opens and a
single packet.
"""

import pytest

from repro.sim import units
from repro.stats import ExperimentTable
from repro.topology import figure7_system


def scenario_multicast(mode, payload_bytes=500):
    system = figure7_system()
    src = system.cab("CAB2")
    arrivals = {}

    def make_receiver(stack, name):
        box = stack.create_mailbox("mc")

        def body():
            message = yield from stack.kernel.wait(box.get())
            arrivals[name] = (system.now, message.size)
        return body

    for name in ("CAB4", "CAB5"):
        stack = system.cab(name)
        stack.spawn(make_receiver(stack, name)(), name=f"rx-{name}")

    from repro.hardware.frames import Payload
    payload = Payload(payload_bytes, header={
        "proto": "dg", "dst_mailbox": "mc", "kind": "data", "msg_id": 77,
        "frag": 0, "nfrags": 1, "total_size": payload_bytes, "src": "CAB2"})
    state = {}

    def sender():
        state["t0"] = system.now
        yield from src.datalink.multicast(["CAB4", "CAB5"], payload,
                                          mode=mode)
    src.spawn(sender())
    system.run(until=1_000_000_000)
    assert len(arrivals) == 2
    hub4 = system.hub("HUB4")
    return {
        "cab4_latency_us": units.to_us(arrivals["CAB4"][0] - state["t0"]),
        "cab5_latency_us": units.to_us(arrivals["CAB5"][0] - state["t0"]),
        "skew_us": units.to_us(abs(arrivals["CAB4"][0]
                                   - arrivals["CAB5"][0])),
        "hub4_fanout_used": hub4.counters.get("opens_ok", 0) == 2,
        "residual_connections": sum(
            system.hub(h).crossbar.connection_count
            for h in ("HUB1", "HUB2", "HUB3", "HUB4")),
    }


@pytest.mark.parametrize("mode", ["circuit", "packet"])
def test_e11_multicast(mode):
    result = scenario_multicast(mode)
    table = ExperimentTable("E11", f"Fig 7 multicast ({mode} switching)")
    table.add("CAB4 received", "yes",
              f"{result['cab4_latency_us']:.1f} µs", True)
    table.add("CAB5 received", "yes",
              f"{result['cab5_latency_us']:.1f} µs", True)
    table.add("branch skew (crossbar fan-out)", "tiny",
              f"{result['skew_us']:.2f} µs", result["skew_us"] < 5)
    table.add("HUB4 opened both branches", "2 opens",
              str(result["hub4_fanout_used"]), result["hub4_fanout_used"])
    table.add("connections closed after data", "0",
              str(result["residual_connections"]),
              result["residual_connections"] == 0)
    table.check()
