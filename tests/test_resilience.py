"""Tests for repro.resilience: detector, RTO, breakers, self-healing."""

from dataclasses import replace

import pytest

from repro.config import NectarConfig, ResilienceConfig, TransportConfig
from repro.errors import ConfigError, TopologyError, TransportError
from repro.faults.scenario import FaultEvent, FaultScenario
from repro.resilience import (CircuitBreaker, FailureDetector, RtoEstimator,
                              run_resilience_comparison)
from repro.sim import units
from repro.topology import dual_link_system, single_hub_system


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


# ----------------------------------------------------------------------
# failure detector
# ----------------------------------------------------------------------

class TestFailureDetector:
    def make(self, suspect=1, dead=2, recover=2):
        clock = FakeClock()
        detector = FailureDetector(clock)
        detector.watch("t", "link", suspect_after=suspect,
                       dead_after=dead, recover_after=recover)
        return detector, clock

    def test_threshold_walk_to_dead(self):
        detector, clock = self.make(suspect=2, dead=4)
        for _ in range(3):
            detector.report_failure("t")
        assert detector.state("t") == "suspect"
        detector.report_failure("t")
        assert detector.state("t") == "dead"
        assert [(old, new) for _t, _n, old, new in detector.transitions] \
            == [("alive", "suspect"), ("suspect", "dead")]

    def test_one_success_clears_suspicion(self):
        detector, _clock = self.make(suspect=1, dead=3)
        detector.report_failure("t")
        assert detector.state("t") == "suspect"
        detector.report_success("t")
        assert detector.state("t") == "alive"
        # The streak restarts from scratch afterwards.
        detector.report_failure("t")
        detector.report_failure("t")
        assert detector.state("t") == "suspect"

    def test_recovery_needs_consecutive_successes(self):
        detector, _clock = self.make(recover=3)
        detector.report_failure("t")
        detector.report_failure("t")
        assert detector.state("t") == "dead"
        detector.report_success("t")
        assert detector.state("t") == "recovering"
        detector.report_success("t")
        assert detector.state("t") == "recovering"
        detector.report_success("t")
        assert detector.state("t") == "alive"

    def test_premature_comeback_returns_to_dead(self):
        detector, _clock = self.make(recover=3)
        detector.report_failure("t")
        detector.report_failure("t")
        detector.report_success("t")
        assert detector.state("t") == "recovering"
        detector.report_failure("t")
        assert detector.state("t") == "dead"

    def test_first_failure_timestamp_feeds_detection_time(self):
        detector, clock = self.make(suspect=1, dead=3)
        clock.now = 100
        detector.report_failure("t")
        clock.now = 300
        detector.report_failure("t")
        detector.report_failure("t")
        assert detector.targets["t"].first_failure_ns == 100
        clock.now = 500
        detector.report_success("t")
        assert detector.targets["t"].first_failure_ns is None

    def test_transition_text_is_canonical(self):
        detector, clock = self.make()
        clock.now = 42
        detector.report_failure("t")
        detector.report_failure("t")
        text = detector.transition_text()
        assert "alive -> suspect" in text
        assert "suspect -> dead" in text
        assert text == detector.transition_text()

    def test_watch_is_idempotent_and_validates(self):
        detector, _clock = self.make()
        first = detector.targets["t"]
        assert detector.watch("t", "link", suspect_after=9, dead_after=9,
                              recover_after=9) is first
        with pytest.raises(ConfigError):
            detector.watch("bad", "link", suspect_after=3, dead_after=2,
                           recover_after=1)
        with pytest.raises(ConfigError):
            detector.watch("bad", "link", suspect_after=1, dead_after=2,
                           recover_after=0)


# ----------------------------------------------------------------------
# adaptive RTO
# ----------------------------------------------------------------------

class TestRtoEstimator:
    def make(self, **overrides):
        import random
        cfg = replace(TransportConfig(), **overrides)
        return RtoEstimator(cfg, random.Random(1))

    def test_starts_from_fixed_timer(self):
        est = self.make(retransmit_timeout_ns=2_000_000)
        assert est.current_rto_ns() == 2_000_000

    def test_tracks_samples(self):
        est = self.make()
        est.on_sample(200_000)
        assert est.srtt == 200_000
        assert est.base_rto_ns() == 200_000 + 4 * 100_000
        for _ in range(20):
            est.on_sample(200_000)
        # Variance decays towards zero on a steady RTT.
        assert est.base_rto_ns() < 400_000

    def test_clamps_to_bounds(self):
        est = self.make(min_rto_ns=300_000, max_rto_ns=1_000_000)
        for _ in range(30):
            est.on_sample(10_000)
        assert est.current_rto_ns() == 300_000
        est.on_sample(50_000_000)
        assert est.current_rto_ns() == 1_000_000

    def test_backoff_doubles_and_resets(self):
        est = self.make(rto_jitter=0.0, max_rto_ns=1 << 40)
        est.on_sample(100_000)
        base = est.base_rto_ns()
        est.on_timeout()
        assert est.current_rto_ns() == 2 * base
        est.on_timeout()
        assert est.current_rto_ns() == 4 * base
        est.on_success()
        assert est.current_rto_ns() == base

    def test_jitter_is_deterministic_per_rng(self):
        import random
        cfg = replace(TransportConfig(), rto_jitter=0.5,
                      max_rto_ns=1 << 40)
        a = RtoEstimator(cfg, random.Random(7))
        b = RtoEstimator(cfg, random.Random(7))
        for est in (a, b):
            est.on_sample(1_000_000)
            est.on_timeout()
        assert a.current_rto_ns() == b.current_rto_ns()


# ----------------------------------------------------------------------
# circuit breaker
# ----------------------------------------------------------------------

class TestCircuitBreaker:
    def make(self, threshold=3, cooldown=1_000):
        clock = FakeClock()
        cfg = replace(ResilienceConfig(),
                      breaker_failure_threshold=threshold,
                      breaker_cooldown_ns=cooldown)
        return CircuitBreaker("peer", cfg, clock), clock

    def test_trips_after_consecutive_failures(self):
        breaker, _clock = self.make(threshold=3)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.fast_fails == 1

    def test_success_resets_the_streak(self):
        breaker, _clock = self.make(threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_trial_closes_or_reopens(self):
        breaker, clock = self.make(threshold=1, cooldown=1_000)
        breaker.record_failure()
        assert not breaker.allow()
        clock.now = 2_000
        assert breaker.allow()                 # the trial send
        assert breaker.state == "half-open"
        breaker.record_failure()               # trial failed
        assert breaker.state == "open"
        clock.now = 3_000
        assert not breaker.allow()             # cooldown doubled to 2000
        clock.now = 5_000
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"

    def test_mark_dead_forces_open_until_marked_alive(self):
        breaker, clock = self.make(cooldown=1_000)
        breaker.mark_dead()
        clock.now = 1 << 50                    # no cooldown escape
        assert not breaker.allow()
        breaker.mark_alive()
        assert breaker.state == "closed"
        assert breaker.allow()


# ----------------------------------------------------------------------
# transport integration
# ----------------------------------------------------------------------

class TestTransportIntegration:
    def run_client(self, system, stack, generator):
        outcome = {}

        def client():
            try:
                yield from generator()
            except TransportError as exc:
                outcome["error"] = str(exc)
            else:
                outcome["ok"] = True
        stack.spawn(client())
        system.run(until=units.ms(50))
        return outcome

    def test_zero_timeout_rejected_loudly(self):
        system = single_hub_system(2)
        a = system.cab("cab0")
        outcome = self.run_client(
            system, a, lambda: a.transport.rpc.request(
                "cab1", "svc", data=b"x", timeout_ns=0))
        assert "timeout must be positive" in outcome["error"]

    def test_negative_retry_budget_rejected(self):
        system = single_hub_system(2)
        a = system.cab("cab0")
        outcome = self.run_client(
            system, a, lambda: a.transport.rpc.request(
                "cab1", "svc", data=b"x", max_retries=-1))
        assert "max_retries" in outcome["error"]

    def test_open_breaker_fails_fast(self):
        system = single_hub_system(2)
        a = system.cab("cab0")
        a.transport.breaker_for("cab1").mark_dead()
        outcome = self.run_client(
            system, a, lambda: a.transport.rpc.request(
                "cab1", "svc", data=b"x"))
        assert "circuit breaker is open" in outcome["error"]
        assert a.transport.counters["breaker_fast_fails"] == 1

    def test_reassembly_timeout_comes_from_config(self):
        cfg = NectarConfig(seed=1)
        cfg = replace(cfg, transport=replace(
            cfg.transport, reassembly_timeout_ns=123_456))
        system = single_hub_system(2, cfg=cfg)
        a = system.cab("cab0")
        assert a.transport.datagram.reassembly.timeout_ns == 123_456
        assert a.transport.rpc.reassembly.timeout_ns == 123_456

    def test_rto_estimator_learns_from_rpc_traffic(self):
        system = single_hub_system(2)
        a, b = system.cab("cab0"), system.cab("cab1")
        inbox = b.create_mailbox("svc")

        def server():
            while True:
                message = yield from b.kernel.wait(inbox.get())
                yield from b.transport.rpc.respond(message, data=b"ok")
        b.spawn(server())

        def client():
            for _ in range(5):
                yield from a.transport.rpc.request("cab1", "svc",
                                                   data=b"ping")
        a.spawn(client())
        system.run(until=units.ms(50))
        estimator = a.transport.rto_for("cab1")
        assert estimator.samples >= 1
        assert estimator.srtt is not None
        # The learned RTO sits near the measured RTT, far below the
        # 2 ms fixed timer it replaces.
        assert estimator.current_rto_ns() < 2_000_000


# ----------------------------------------------------------------------
# end-to-end self-healing
# ----------------------------------------------------------------------

def link_outage(at_ns, duration_ns):
    return FaultScenario("outage", [
        FaultEvent("link_down", at_ns, duration_ns, "hub0.p0->hub1.p0"),
        FaultEvent("link_down", at_ns, duration_ns, "hub1.p0->hub0.p0")])


class TestSelfHealing:
    def test_link_death_reroutes_and_recovery_reinstates(self):
        system = dual_link_system(2, links=2)
        system.inject_faults(link_outage(units.ms(1), units.ms(3)))
        manager = system.enable_resilience()
        system.run(until=units.ms(6))
        events = [event["event"] for event in manager.events]
        assert "link_dead" in events
        assert "link_restored" in events
        dead = next(event for event in manager.events
                    if event["event"] == "link_dead")
        assert dead["target"] == "link:hub0.p0<->hub1.p0"
        assert dead["links_removed"] == 1
        assert dead["time_to_detect_ns"] < units.ms(1)
        restored = next(event for event in manager.events
                        if event["event"] == "link_restored")
        assert restored["outage_ns"] is not None
        # The routing table is whole again.
        assert system.router.parallel_links("hub0", "hub1") \
            == [(0, 0), (1, 1)]
        summary = manager.summary()
        assert summary["counters"]["reroutes"] == 1
        assert summary["counters"]["reinstatements"] == 1
        assert summary["mean_time_to_detect_ns"] is not None
        assert summary["mean_time_to_repair_ns"] is not None
        # The blackout kills heartbeats crossing the link too; that
        # evidence is discounted, so no peer is falsely declared dead.
        assert "cab_dead" not in events

    def test_traffic_survives_outage_with_healing(self):
        system = dual_link_system(2, links=2)
        system.inject_faults(link_outage(units.ms(1), units.ms(3)))
        system.enable_resilience()
        a = system.cab("cab0_0")
        dst = system.cab("cab1_0")
        inbox = dst.create_mailbox("in")
        received = []

        def rx():
            while True:
                message = yield from dst.kernel.wait(inbox.get())
                received.append(message.data)

        connection = a.transport.stream.connect("cab1_0", "in")

        def tx():
            for n in range(20):
                # The byte-stream transport retransmits across the
                # outage; with healing the retries land on the survivor.
                yield from connection.send(data=bytes([n]) * 64)
                yield from a.kernel.sleep(units.us(250))
        dst.spawn(rx())
        a.spawn(tx())
        system.run(until=units.ms(20))
        assert received == [bytes([n]) * 64 for n in range(20)]

    def test_cab_stall_confirms_dead_then_recovers(self):
        cfg = NectarConfig(seed=5)
        system = single_hub_system(3, cfg=cfg)
        system.inject_faults(FaultScenario("stall", [
            FaultEvent("cab_stall", units.ms(1), units.ms(4), "cab2")]))
        manager = system.enable_resilience()
        system.run(until=units.ms(12))
        events = [(event["event"], event["target"])
                  for event in manager.events]
        assert ("cab_dead", "cab:cab2") in events
        assert ("cab_restored", "cab:cab2") in events
        # Breakers on the peers opened during the outage and closed on
        # recovery.
        for name in ("cab0", "cab1"):
            breaker = system.cabs[name].transport.breaker_for("cab2")
            assert breaker.state == "closed"
            assert breaker.trips >= 1

    def test_manager_start_is_single_shot(self):
        system = dual_link_system(2, links=2)
        system.enable_resilience()
        with pytest.raises(TopologyError):
            system.enable_resilience()
        with pytest.raises(TopologyError):
            system.resilience.start()

    def test_same_seed_same_timeline(self):
        def timeline():
            system = dual_link_system(2, links=2)
            system.inject_faults(link_outage(units.ms(1), units.ms(2)))
            manager = system.enable_resilience()
            system.run(until=units.ms(5))
            return manager.transition_text()
        first, second = timeline(), timeline()
        assert first
        assert first == second


class TestComparisonReport:
    def test_three_way_report_shape(self):
        comparison = run_resilience_comparison(
            workload_kwargs=dict(mode="open", offered_load=0.2,
                                 message_bytes=512,
                                 warmup_ns=units.ms(0.5),
                                 duration_ns=units.ms(3.0)),
            campaign_kwargs=dict(flaps=1, duration_ns=units.ms(1.0),
                                 start_ns=units.ms(0.5),
                                 horizon_ns=units.ms(3.5)))
        assert comparison.scenario_name == "hub-link-flap"
        assert comparison.healed.faults_injected > 0
        assert comparison.unhealed.faults_injected > 0
        assert comparison.clean.faults_injected == 0
        assert comparison.healed.reroutes >= 1
        assert comparison.unhealed.reroutes == 0
        assert 0.0 < comparison.healed_goodput_ratio <= 1.5
        summary = comparison.summary()
        assert set(summary) == {"scenario", "clean", "healed", "unhealed",
                                "healed_goodput_ratio",
                                "unhealed_goodput_ratio"}
        assert set(summary["healed"]) == {
            "label", "sent", "delivered", "errors", "loss_fraction",
            "offered_mbps", "achieved_mbps", "p50_us", "p99_us",
            "retransmits", "breaker_fast_fails", "faults_injected",
            "transitions", "reroutes", "reinstatements",
            "mean_time_to_detect_ns", "mean_time_to_repair_ns"}
        table = comparison.table().splitlines()
        assert table[1] == (f"{'metric':<22s} {'clean':>12s} "
                            f"{'healed':>12s} {'unhealed':>12s}")
        assert any(line.startswith("reroutes ") for line in table)
        assert table[-2] == ("healed goodput ratio   "
                             f"{comparison.healed_goodput_ratio:.3f}")
        assert table[-1].startswith("unhealed goodput ratio 0.")
        # Both reports are the one N-arm comparison.
        from repro.faults import Comparison
        assert type(comparison) is Comparison
