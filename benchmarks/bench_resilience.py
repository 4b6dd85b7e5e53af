"""Resilience: failure detection, self-healing routing, adaptive RTO.

The paper assigns "recovery from hardware failures" to the HUB
supervisor (§4, goal 4) without giving the mechanism; ``repro.resilience``
supplies one and these benchmarks hold it to a measurable contract:

* **E-RES1** — under repeated inter-HUB link outages on the dual-link
  topology, healing (probe-driven detection + rerouting + recovery)
  keeps goodput within 10 % of the clean baseline with finite
  time-to-detect and time-to-repair; the identical run without healing
  does not.
* **E-RES2** — the adaptive Jacobson/Karn RTO issues fewer spurious
  retransmissions than the fixed 2 ms timer under self-induced
  congestion (no faults injected, so every retransmit is spurious).
* **E-RES3** — the same seed reproduces a byte-identical detector
  timeline; a different seed moves it.
"""

from dataclasses import replace

from repro.config import NectarConfig
from repro.resilience import run_resilience_comparison
from repro.sim import units
from repro.stats import ExperimentTable
from repro.topology import dual_link_system, single_hub_system
from repro.workload.generators import Workload

SEED = 1989

#: E-RES1 window: long enough that the ~0.3 ms detection windows
#: amortize while the 3 ms outages dominate the unhealed run.
RES1_WORKLOAD = dict(pattern="uniform", arrivals="poisson", mode="open",
                     message_bytes=512, offered_load=0.25,
                     warmup_ns=units.ms(1.0), duration_ns=units.ms(12.0),
                     drain_ns=units.ms(2.0))
RES1_CAMPAIGN = dict(flaps=2, duration_ns=units.ms(3.0),
                     start_ns=units.ms(1.0), horizon_ns=units.ms(13.0))


def _res1_comparison(seed=SEED):
    cfg = NectarConfig(seed=seed)
    return run_resilience_comparison(
        "hub-link-flap", cfg=cfg,
        topology_factory=lambda: dual_link_system(3, links=2, cfg=cfg),
        workload_kwargs=RES1_WORKLOAD, campaign_kwargs=RES1_CAMPAIGN)


def test_resilience_healing_recovers_goodput():
    """E-RES1: self-healing keeps goodput within 10% of clean."""
    comparison = _res1_comparison()
    clean, healed, unhealed = (comparison.clean, comparison.healed,
                               comparison.unhealed)
    table = ExperimentTable("E-RES1", "self-healing under link flaps")
    table.add("clean goodput", "-", f"{clean.achieved_mbps:.1f} Mb/s")
    table.add("healed goodput", ">= 90% of clean",
              f"{healed.achieved_mbps:.1f} Mb/s "
              f"({comparison.healed_goodput_ratio:.1%})",
              comparison.healed_goodput_ratio >= 0.9)
    table.add("unhealed goodput", "< 90% of clean",
              f"{unhealed.achieved_mbps:.1f} Mb/s "
              f"({comparison.unhealed_goodput_ratio:.1%})",
              comparison.unhealed_goodput_ratio < 0.9)
    table.add("mean time-to-detect", "finite (~2 probe periods)",
              f"{healed.mean_time_to_detect_ns / 1e3:.0f} us",
              healed.mean_time_to_detect_ns is not None)
    table.add("mean time-to-repair", "finite (outage + confirmation)",
              f"{healed.mean_time_to_repair_ns / 1e3:.0f} us",
              healed.mean_time_to_repair_ns is not None)
    table.add("reroutes / reinstatements", ">= 1 each",
              f"{healed.reroutes} / {healed.reinstatements}",
              healed.reroutes >= 1 and healed.reinstatements >= 1)
    assert healed.faults_injected > 0, "campaign never fired"
    # Detection is probe-bound: a couple of probe periods, not the
    # whole outage.
    assert healed.mean_time_to_detect_ns < units.ms(1.0)
    table.check()


#: E-RES2: hotspot congestion pushes RTTs well past the fixed 2 ms
#: timer, so the fixed timer retransmits spuriously while the adaptive
#: estimator stretches with the measured RTT.
RES2_WORKLOAD = dict(pattern="hotspot", mode="closed", offered_load=0.6,
                     message_bytes=1024, window_depth=6,
                     warmup_ns=units.ms(1.0), duration_ns=units.ms(6.0),
                     pattern_kwargs={"fraction": 0.5})


def _rpc_retransmits(adaptive: bool):
    cfg = NectarConfig(seed=SEED)
    if not adaptive:
        # The fixed timer: the estimator clamped to zero width.
        fixed = cfg.transport.retransmit_timeout_ns
        cfg = replace(cfg, transport=replace(
            cfg.transport, min_rto_ns=fixed, max_rto_ns=fixed,
            rto_jitter=0.0))
    system = single_hub_system(8, cfg=cfg)
    result = Workload(system, **RES2_WORKLOAD).run()
    retransmits = sum(stack.transport.rpc.retransmits
                      for stack in system.cabs.values())
    return retransmits, result.recorder


def test_adaptive_rto_beats_fixed_under_congestion():
    """E-RES2: adaptive RTO retransmits less than the fixed timer."""
    adaptive, rec_a = _rpc_retransmits(True)
    fixed, rec_f = _rpc_retransmits(False)
    table = ExperimentTable("E-RES2",
                            "adaptive vs fixed RTO under congestion")
    table.add("fixed 2 ms timer", "spurious retransmits",
              f"{fixed} retransmits", fixed > 0)
    table.add("adaptive (Jacobson/Karn)", "fewer than fixed",
              f"{adaptive} retransmits", adaptive < fixed)
    table.add("delivery (both)", "100%, no errors",
              f"{rec_a.delivered}/{rec_a.sent} and "
              f"{rec_f.delivered}/{rec_f.sent}",
              rec_a.errors == 0 and rec_f.errors == 0)
    # No faults are injected, so every retransmit is spurious: the
    # reply was merely late, not lost, and both runs deliver it all.
    assert rec_a.delivered == rec_a.sent
    assert rec_f.delivered == rec_f.sent
    table.check()


def test_detector_timeline_deterministic():
    """E-RES3: same seed, byte-identical detector transitions."""
    first, second, other = (_res1_comparison(seed=SEED),
                            _res1_comparison(seed=SEED),
                            _res1_comparison(seed=SEED + 1))
    table = ExperimentTable("E-RES3", "detector timeline determinism")
    table.add("same seed", "byte-identical timeline",
              f"{len(first.transition_text.splitlines())} transitions",
              first.transition_text == second.transition_text)
    table.add("different seed", "timeline moves",
              f"seed {SEED + 1}",
              first.transition_text != other.transition_text)
    assert first.transition_text, "no transitions recorded at all"
    assert first.schedule_text == second.schedule_text
    table.check()
