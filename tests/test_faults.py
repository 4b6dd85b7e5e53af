"""Fault-injection campaigns: scenarios, determinism, the injector."""

import pytest

from repro.config import NectarConfig
from repro.errors import ConfigError, TopologyError
from repro.faults import (CAMPAIGNS, FaultEvent, FaultInjector,
                          FaultScenario, build_campaign, run_comparison)
from repro.sim import units
from repro.topology import single_hub_system
from repro.workload import Workload


def fresh(cabs=4, seed=1989):
    return single_hub_system(cabs, cfg=NectarConfig(seed=seed))


class TestScenario:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown fault kind"):
            FaultEvent("gamma_ray", 0, 100).validate()

    def test_zero_length_outage_rejected(self):
        with pytest.raises(ConfigError, match="positive duration"):
            FaultScenario("s", [FaultEvent("link_down", 0, 0)])

    def test_degrade_needs_a_probability(self):
        with pytest.raises(ConfigError, match="drop and/or corrupt"):
            FaultEvent("link_degrade", 0, 100).validate()

    def test_probability_range_checked(self):
        with pytest.raises(ConfigError, match=r"within \[0, 1\]"):
            FaultEvent("link_degrade", 0, 100, drop=1.5).validate()

    def test_reply_storm_needs_reply_drop(self):
        with pytest.raises(ConfigError, match="reply_drop"):
            FaultEvent("reply_storm", 0, 100).validate()

    def test_events_sorted_by_time(self):
        scenario = FaultScenario("s", [
            FaultEvent("link_down", 500, 10),
            FaultEvent("link_down", 100, 10),
        ])
        assert [e.at_ns for e in scenario.events] == [100, 500]
        assert scenario.horizon_ns == 510


class TestCampaigns:
    def test_every_campaign_builds(self):
        cfg = NectarConfig(seed=1989)
        for name in CAMPAIGNS:
            scenario = build_campaign(name, cfg)
            assert scenario.events, name
            assert scenario.schedule_text().startswith("scenario ")

    def test_unknown_campaign(self):
        with pytest.raises(ConfigError, match="unknown fault campaign"):
            build_campaign("meteor-strike", NectarConfig())

    def test_same_seed_byte_identical_schedule(self):
        texts = {build_campaign("drop-burst",
                                NectarConfig(seed=42)).schedule_text()
                 for _ in range(3)}
        assert len(texts) == 1

    def test_different_seed_different_schedule(self):
        a = build_campaign("drop-burst", NectarConfig(seed=1)).schedule_text()
        b = build_campaign("drop-burst", NectarConfig(seed=2)).schedule_text()
        assert a != b

    def test_campaign_knobs_override(self):
        scenario = build_campaign("drop-burst", NectarConfig(), drop=0.9,
                                  bursts=2)
        assert len(scenario.events) == 2
        assert all(e.drop == 0.9 for e in scenario.events)

    def test_worker_kill_is_not_a_campaign(self, capsys):
        # A failed partitioned run ends in one ScaleoutError, so there is
        # no process-level chaos to inject, and the single-process
        # commands no longer offer a campaign they cannot apply.
        from repro.__main__ import main
        assert "worker-kill" not in CAMPAIGNS
        with pytest.raises(ConfigError, match="unknown fault campaign"):
            build_campaign("worker-kill", NectarConfig())
        for command in ("faults", "resilience"):
            with pytest.raises(SystemExit) as caught:
                main([command, "worker-kill"])
            assert caught.value.code == 2
            assert "invalid choice" in capsys.readouterr().err

    def test_closed_stdout_is_not_a_crash(self):
        """``python -m repro faults drop-burst --schedule | head -1``
        exits quietly: the reader closing the pipe is not an error.  The
        read end is closed before the child starts, so every write the
        child makes meets a broken pipe."""
        import os
        import subprocess
        import sys
        from pathlib import Path
        src = str(Path(__file__).resolve().parents[1] / "src")
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "repro", "faults", "drop-burst",
                 "--schedule"], stdout=write_end, stderr=subprocess.PIPE,
                env={**os.environ, "PYTHONPATH": src}, text=True,
                timeout=60)
        finally:
            os.close(write_end)
        assert done.returncode == 0 and done.stderr == ""


class TestInjector:
    def test_unmatched_target_rejected_at_construction(self):
        system = fresh()
        scenario = FaultScenario("s", [
            FaultEvent("link_down", 0, 100, target="no-such-fiber*")])
        with pytest.raises(ConfigError, match="matches nothing"):
            FaultInjector(system, scenario)

    def test_double_injection_rejected(self):
        system = fresh()
        system.inject_faults("drop-burst")
        with pytest.raises(TopologyError, match="already"):
            system.inject_faults("link-flap")

    def test_counters_and_trace_events(self):
        system = fresh()
        system.tracer.enable()
        injector = system.inject_faults(
            build_campaign("link-flap", system.cfg, flaps=2,
                           duration_ns=50_000))
        system.run(until=units.ms(10))
        assert injector.counters["injected"] == 2
        assert injector.counters["reverted"] == 2
        assert injector.counters["injected_link_down"] == 2
        assert injector.active == 0
        faults = [r for r in system.tracer.records
                  if r.kind in ("fault.inject", "fault.revert")]
        kinds = [r.kind for r in faults]
        assert kinds.count("fault.inject") == 2
        assert kinds.count("fault.revert") == 2
        assert all(r["fault_kind"] == "link_down" for r in faults)

    def test_applied_log_matches_schedule(self):
        system = fresh()
        scenario = build_campaign("drop-burst", system.cfg, bursts=3)
        injector = system.inject_faults(scenario)
        system.run(until=units.ms(10))
        text = injector.schedule_text()
        assert text.startswith(scenario.schedule_text())
        applied = [line for line in text.splitlines()
                   if " inject " in line or " revert " in line]
        assert len(applied) == 6

    def test_faults_revert_cleanly(self):
        """After the horizon every fiber overlay is back to zero."""
        system = fresh()
        system.inject_faults(build_campaign("drop-burst", system.cfg))
        system.run(until=units.ms(10))
        for stack in system.cabs.values():
            fiber = stack.board.out_fiber
            assert fiber.fault_drop == 0.0
            assert fiber.fault_corrupt == 0.0
            assert not fiber.fault_down

    def test_port_flap_loses_nothing_and_reenables_every_port(self):
        """Supervisor disable/enable through the HUB controller: packets
        reaching the disabled port are dropped and retransmitted, and
        the port is ready again once the campaign has reverted."""
        system = fresh()
        injector = system.inject_faults(
            build_campaign("port-flap", system.cfg))
        result = Workload(system, pattern="uniform", arrivals="poisson",
                          mode="closed", message_bytes=512,
                          offered_load=0.2, warmup_ns=units.ms(1),
                          duration_ns=units.ms(5),
                          drain_ns=units.ms(2)).run()
        recorder = result.recorder
        assert recorder.sent > 0
        assert recorder.delivered == recorder.sent
        assert recorder.errors == 0
        assert injector.counters["injected"] == 2
        assert injector.counters["reverted"] == 2
        hub = system.hub("hub0")
        assert hub.counters["drops_disabled_port"] > 0
        assert all(hub.ready_bits)

    def test_observatory_exports_fault_series(self):
        system = fresh()
        system.inject_faults(build_campaign("drop-burst", system.cfg))
        observatory = system.observe(interval_ns=units.us(100))
        system.run(until=units.ms(7))
        metrics = observatory.snapshot()["metrics"]
        assert metrics["fault.injected"]["value"] == 4.0
        assert metrics["fault.reverted"]["value"] == 4.0
        assert metrics["fault.active"]["value"] == 0.0
        assert observatory.series["fault.active"].maximum >= 1.0


def _traced_run(seed=77):
    """One short traced workload run; returns comparable trace tuples."""
    system = single_hub_system(4, cfg=NectarConfig(seed=seed))
    system.tracer.enable()
    system.inject_faults(build_campaign("drop-burst", system.cfg, bursts=2))
    Workload(system, pattern="uniform", arrivals="poisson", mode="closed",
             message_bytes=256, offered_load=0.2, window_depth=2,
             warmup_ns=units.us(200), duration_ns=units.ms(2)).run()
    return [(r.time, r.source, r.kind, tuple(sorted(r.fields.items())))
            for r in system.tracer.records]


class TestDeterminism:
    def test_back_to_back_runs_identical_traces(self):
        """Two same-seed runs in one process must not diverge.

        Guards the per-instance id-generator fix: module-global
        ``itertools.count`` streams leaked state across runs, so the
        second run's message/channel/request ids — and thus its traces —
        differed from the first.
        """
        first, second = _traced_run(), _traced_run()
        assert first == second

    def test_different_seed_diverges(self):
        assert _traced_run(seed=77) != _traced_run(seed=78)


class TestComparison:
    def test_rpc_zero_loss_under_drop_burst(self):
        comparison = run_comparison(
            lambda: fresh(), "drop-burst",
            workload_kwargs=dict(
                pattern="uniform", arrivals="poisson", mode="closed",
                message_bytes=256, offered_load=0.2, window_depth=2,
                warmup_ns=units.ms(1), duration_ns=units.ms(6)))
        faulted = comparison.faulted
        assert faulted.faults_injected == 4
        assert faulted.fiber_drops > 0, "campaign dropped nothing"
        assert faulted.delivered == faulted.sent
        assert faulted.errors == 0
        assert comparison.retransmit_delta > 0
        summary = comparison.summary()
        assert summary["scenario"] == "drop-burst"
        # The keys CI's fault-matrix and docs jobs read from --json.
        assert set(summary) == {"scenario", "clean", "faulted",
                                "goodput_delta_mbps", "p99_delta_us",
                                "retransmit_delta"}
        assert set(summary["faulted"]) == {
            "label", "sent", "delivered", "errors", "loss_fraction",
            "offered_mbps", "achieved_mbps", "p50_us", "p99_us",
            "retransmits", "circuit_retries", "reply_timeouts",
            "checksum_drops", "fiber_drops", "reply_drops",
            "faults_injected"}
        table = comparison.table().splitlines()
        assert table[1] == f"{'metric':<20s} {'clean':>12s} {'faulted':>12s}"
        assert table[-1].split() == ["faults", "injected", "0", "4"]
        assert any(line.startswith("retransmits ") for line in table)
