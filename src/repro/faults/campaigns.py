"""Named, seed-driven fault campaigns.

A campaign builder turns a :class:`~repro.config.NectarConfig` into a
:class:`~repro.faults.scenario.FaultScenario`: burst placement is drawn
from the config's dedicated ``faults:<name>`` RNG stream, so the same
seed always produces a byte-identical schedule
(:meth:`~repro.faults.scenario.FaultScenario.schedule_text`) while
different seeds explore different timings.

Default windows land inside the default workload measurement window
(1 ms warmup + 5 ms measured); a builder's keywords are the knobs some
caller sets (targets and the other fixed shapes are constants), e.g.::

    scenario = build_campaign("drop-burst", cfg, drop=0.8, bursts=6)
"""

from __future__ import annotations

import random
from typing import Callable

from ..config import NectarConfig
from ..errors import ConfigError
from .scenario import FaultEvent, FaultScenario

__all__ = ["CAMPAIGNS", "build_campaign"]

#: Default campaign window: the default workload's measured interval.
DEFAULT_START_NS = 1_000_000
DEFAULT_HORIZON_NS = 6_000_000


def _windows(rng: random.Random, bursts: int, start_ns: int,
             horizon_ns: int, duration_ns: int) -> list[int]:
    """Draw ``bursts`` window starts inside [start, horizon - duration]."""
    if bursts < 1:
        raise ConfigError(f"campaign needs >= 1 burst, got {bursts}")
    last = max(start_ns, horizon_ns - duration_ns)
    return sorted(rng.randrange(start_ns, last + 1) for _ in range(bursts))


def _drop_burst(cfg: NectarConfig, rng: random.Random, *,
                drop: float = 0.4, bursts: int = 4,
                duration_ns: int = 400_000,
                start_ns: int = DEFAULT_START_NS,
                horizon_ns: int = DEFAULT_HORIZON_NS) -> FaultScenario:
    """Windows of heavy packet loss on every CAB-attached fiber."""
    events = [FaultEvent("link_degrade", at, duration_ns, "*cab*",
                         drop=drop)
              for at in _windows(rng, bursts, start_ns, horizon_ns,
                                 duration_ns)]
    return FaultScenario("drop-burst", events,
                         description="timed packet-loss bursts on CAB links")


def _corrupt_burst(cfg: NectarConfig, rng: random.Random, *,
                   duration_ns: int = 400_000,
                   start_ns: int = DEFAULT_START_NS,
                   horizon_ns: int = DEFAULT_HORIZON_NS) -> FaultScenario:
    """Windows of payload corruption: checksum machinery under test."""
    events = [FaultEvent("link_degrade", at, duration_ns, "*cab*",
                         corrupt=0.3)
              for at in _windows(rng, 4, start_ns, horizon_ns,
                                 duration_ns)]
    return FaultScenario("corrupt-burst", events,
                         description="payload-corruption bursts on CAB links")


def _link_flap(cfg: NectarConfig, rng: random.Random, *,
               flaps: int = 3, duration_ns: int = 250_000,
               start_ns: int = DEFAULT_START_NS,
               horizon_ns: int = DEFAULT_HORIZON_NS) -> FaultScenario:
    """One CAB's fiber pair goes fully dark, repeatedly."""
    events = [FaultEvent("link_down", at, duration_ns, "*cab0*")
              for at in _windows(rng, flaps, start_ns, horizon_ns,
                                 duration_ns)]
    return FaultScenario("link-flap", events,
                         description="repeated full outages of one link")


def _reply_storm(cfg: NectarConfig, rng: random.Random, *,
                 duration_ns: int = 500_000,
                 start_ns: int = DEFAULT_START_NS,
                 horizon_ns: int = DEFAULT_HORIZON_NS) -> FaultScenario:
    """Replies/ready signals vanish: §4.2.1 timeout-and-retry stressor."""
    events = [FaultEvent("reply_storm", at, duration_ns, "hub*->*",
                         reply_drop=0.5)
              for at in _windows(rng, 3, start_ns, horizon_ns,
                                 duration_ns)]
    return FaultScenario("reply-storm", events,
                         description="reply/ready-signal loss storms")


def _port_flap(cfg: NectarConfig, rng: random.Random, *,
               start_ns: int = DEFAULT_START_NS,
               horizon_ns: int = DEFAULT_HORIZON_NS) -> FaultScenario:
    """Supervisor-disable a HUB port, re-enable it after the window."""
    duration_ns = 300_000
    events = [FaultEvent("hub_port_down", at, duration_ns, "hub0:0")
              for at in _windows(rng, 2, start_ns, horizon_ns,
                                 duration_ns)]
    return FaultScenario("port-flap", events,
                         description="HUB port disable/re-enable cycles")


def _cab_stall(cfg: NectarConfig, rng: random.Random, *,
               crash: bool = False,
               start_ns: int = DEFAULT_START_NS,
               horizon_ns: int = DEFAULT_HORIZON_NS) -> FaultScenario:
    """Wedge (or crash) one CAB's processor for a while."""
    kind = "cab_crash" if crash else "cab_stall"
    duration_ns = 300_000
    events = [FaultEvent(kind, at, duration_ns, "cab0")
              for at in _windows(rng, 2, start_ns, horizon_ns,
                                 duration_ns)]
    return FaultScenario("cab-crash" if crash else "cab-stall", events,
                         description="CAB processor stall/crash windows")


def _cab_crash(cfg: NectarConfig, rng: random.Random, **params):
    params.setdefault("crash", True)
    return _cab_stall(cfg, rng, **params)


def _hub_link_flap(cfg: NectarConfig, rng: random.Random, *,
                   flaps: int = 2, duration_ns: int = 1_500_000,
                   start_ns: int = DEFAULT_START_NS,
                   horizon_ns: int = DEFAULT_HORIZON_NS) -> FaultScenario:
    """One *inter-HUB* fiber pair goes fully dark, repeatedly.

    Both directions of the link die together, as a cut cable would.
    Windows are placed in disjoint slots (one flap per slot, jittered
    within it) so flaps never overlap — overlapping windows would
    revert each other's fault state early.  The targets are the first
    parallel link of :func:`~repro.topology.builders.dual_link_system`,
    the self-healing routing testbed.
    """
    if flaps < 1:
        raise ConfigError(f"campaign needs >= 1 flap, got {flaps}")
    slot_ns = (horizon_ns - start_ns) // flaps
    if duration_ns >= slot_ns:
        raise ConfigError(
            f"flap duration {duration_ns} ns does not fit {flaps} "
            f"disjoint slots of {slot_ns} ns; shorten it or widen "
            f"the horizon")
    events = []
    for flap in range(flaps):
        slot_start = start_ns + flap * slot_ns
        at = slot_start + rng.randrange(slot_ns - duration_ns + 1)
        for target in ("hub0.p0->hub1.p0", "hub1.p0->hub0.p0"):
            events.append(FaultEvent("link_down", at, duration_ns, target))
    return FaultScenario("hub-link-flap", events,
                         description="repeated full outages of one "
                                     "inter-HUB fiber pair")


#: Registry of named campaigns: name -> builder(cfg, rng, **params).
CAMPAIGNS: dict[str, Callable[..., FaultScenario]] = {
    "drop-burst": _drop_burst,
    "corrupt-burst": _corrupt_burst,
    "link-flap": _link_flap,
    "hub-link-flap": _hub_link_flap,
    "reply-storm": _reply_storm,
    "port-flap": _port_flap,
    "cab-stall": _cab_stall,
    "cab-crash": _cab_crash,
}


def build_campaign(name: str, cfg: NectarConfig,
                   **params) -> FaultScenario:
    """Build the named campaign deterministically from ``cfg.seed``."""
    try:
        builder = CAMPAIGNS[name]
    except KeyError:
        raise ConfigError(
            f"unknown fault campaign {name!r}; "
            f"expected one of {sorted(CAMPAIGNS)}") from None
    rng = cfg.rng_stream(f"faults:{name}")
    return builder(cfg, rng, **params)
