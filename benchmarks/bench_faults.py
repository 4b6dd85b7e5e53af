"""Fault-injection campaigns: recovery behaviour under induced failure.

The paper's reliability mechanisms — §4.2.1 timeout-and-retry on lost
replies, §6.2.2 acknowledgments, retransmissions and reassembly — only
earn trust when exercised.  These benchmarks drive `repro.faults`
campaigns against live workloads and check the recovery contract:

* reliable transports (byte-stream go-back-N, request-response
  at-most-once) deliver **100 %** of offered messages through drop
  bursts, with retransmit counters > 0 proving the loss was real;
* unreliable datagram goodput degrades roughly with the injected drop
  windows — no silent retransmission behind the API's back;
* the same seed reproduces a byte-identical fault schedule.
"""

from repro.config import NectarConfig
from repro.faults import build_campaign, run_comparison
from repro.sim import units
from repro.stats import ExperimentTable
from repro.topology import single_hub_system

SEED = 1989

#: Campaign horizon is 6 ms; measure 1 ms warmup + 6 ms so every
#: injected window lands inside the measured interval.
WINDOW = dict(warmup_ns=units.ms(1.0), duration_ns=units.ms(6.0))


def _topology(cabs=4):
    cfg = NectarConfig(seed=SEED)
    return lambda: single_hub_system(cabs, cfg=cfg)


def test_fault_rpc_survives_drop_burst():
    """Closed-loop RPCs: zero loss through 40% drop windows."""
    comparison = run_comparison(
        _topology(), "drop-burst",
        workload_kwargs=dict(
            pattern="uniform", arrivals="poisson", mode="closed",
            message_bytes=512, offered_load=0.2, window_depth=2,
            **WINDOW))
    clean, faulted = comparison.clean, comparison.faulted
    table = ExperimentTable("F1", "RPC under drop-burst campaign")
    table.add("clean delivery", "100%",
              f"{clean.delivered}/{clean.sent}",
              clean.delivered == clean.sent)
    table.add("faulted delivery", "100% (at-most-once retries)",
              f"{faulted.delivered}/{faulted.sent}",
              faulted.delivered == faulted.sent and faulted.errors == 0)
    table.add("retransmits under faults", "> 0 (loss was real)",
              f"{faulted.retransmits}", faulted.retransmits > 0)
    table.add("p99 latency", "degrades, not fails",
              f"{clean.p99_us:.0f} -> {faulted.p99_us:.0f} us")
    assert faulted.sent > 0
    assert faulted.fiber_drops > 0
    table.check()


def test_fault_bytestream_survives_drop_burst():
    """Go-back-N streams: every byte arrives through drop windows."""
    def scenario():
        cfg = NectarConfig(seed=SEED)
        system = single_hub_system(2, cfg=cfg)
        system.inject_faults(build_campaign(
            "drop-burst", cfg, drop=0.5, bursts=6, start_ns=100_000,
            horizon_ns=4_000_000, duration_ns=400_000))
        a, b = system.cab("cab0"), system.cab("cab1")
        inbox = b.create_mailbox("inbox")
        state = {"received": 0, "messages": 0}
        total_messages = 40

        def receiver():
            while state["messages"] < total_messages:
                message = yield from b.kernel.wait(inbox.get())
                state["received"] += message.size
                state["messages"] += 1
        b.spawn(receiver())
        connection = a.transport.stream.connect("cab1", "inbox")

        def sender():
            for _ in range(total_messages):
                yield from connection.send(size=2048)
        a.spawn(sender())
        system.run(until=units.ms(400))
        return {
            "messages": state["messages"],
            "expected": total_messages,
            "bytes": state["received"],
            "retransmits": a.transport.stream.retransmitted,
            "injected": system.fault_injector.counters["injected"],
            "reverted": system.fault_injector.counters["reverted"],
        }
    result = scenario()
    table = ExperimentTable("F2", "byte-stream under 50% drop bursts")
    table.add("messages delivered", "40/40",
              f"{result['messages']}/{result['expected']}",
              result["messages"] == result["expected"])
    table.add("bytes delivered", "81920", f"{result['bytes']}",
              result["bytes"] == 40 * 2048)
    table.add("go-back-N retransmits", "> 0", f"{result['retransmits']}",
              result["retransmits"] > 0)
    table.add("fault windows", "6 injected, 6 reverted",
              f"{result['injected']}/{result['reverted']}",
              result["injected"] == result["reverted"] == 6)
    table.check()


def test_fault_datagram_goodput_degrades():
    """Unreliable datagrams: goodput tracks the injected loss."""
    comparison = run_comparison(
        _topology(), "drop-burst",
        workload_kwargs=dict(
            pattern="uniform", arrivals="poisson", mode="open",
            message_bytes=512, offered_load=0.3, **WINDOW))
    clean, faulted = comparison.clean, comparison.faulted
    table = ExperimentTable("F3", "datagram goodput under drop-burst")
    table.add("clean loss", "~ 0", f"{clean.loss_fraction:.4f}",
              clean.loss_fraction < 0.01)
    table.add("faulted loss", "> 0 (drops surface to the app)",
              f"{faulted.loss_fraction:.4f}",
              faulted.loss_fraction > clean.loss_fraction)
    table.add("goodput", "degrades",
              f"{clean.achieved_mbps:.1f} -> "
              f"{faulted.achieved_mbps:.1f} Mb/s",
              faulted.achieved_mbps < clean.achieved_mbps)
    assert faulted.fiber_drops > 0
    table.check()


def test_fault_schedule_reproducible():
    """One seed, one schedule — byte-identical across builds."""
    def scenario():
        texts = []
        for _ in range(2):
            cfg = NectarConfig(seed=SEED)
            texts.append(build_campaign("drop-burst", cfg).schedule_text())
        other = build_campaign("drop-burst",
                               NectarConfig(seed=SEED + 1)).schedule_text()
        return {"identical": texts[0] == texts[1],
                "seed_sensitive": texts[0] != other}
    result = scenario()
    table = ExperimentTable("F4", "fault schedule determinism")
    table.add("same seed", "byte-identical schedule",
              "identical" if result["identical"] else "DIVERGED",
              result["identical"])
    table.add("different seed", "different schedule",
              "different" if result["seed_sensitive"] else "SAME",
              result["seed_sensitive"])
    table.check()
