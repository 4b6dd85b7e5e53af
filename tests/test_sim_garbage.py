"""Clean drives leave no cyclic garbage.

A finished :class:`~repro.sim.Process` drops its bound resume
(``_on_fire``), the one reference that pointed back at it, so reference
counting frees the process, its generator and its frame as soon as the
last reference goes.  A per-packet process (a HUB port drain, a crossbar
branch, a transport receive handler) that ends inside a cycle instead
waits for the cycle collector, and dead processes pile up between its
passes.  A process ended by an exception it raised into a waiter is
freed the same way: its resume and the engine's ``run`` drop the locals
through which the exception's traceback would lead back to it, also
when that process is the last entry one ``run()`` processes.

Each test drives one scene through ``tools/footprint.py``'s census: the
collector off and ``gc.DEBUG_SAVEALL`` set, the scene's own objects (the
system, the workload) kept alive, and a collection that must then find
nothing.

A condition drops its sub-events once it fires, so an ``any_of`` whose
other event never fires (the response to a request a faulted link lost,
beside its deadline) is freed too: the unfired event still holds the
condition's callback, but the condition no longer holds the event.
Faulted scenes are guarded like clean ones.
"""

import random
from collections import Counter

import pytest
import test_scaleout_cuts
from test_event_budget import one_datagram

from repro.config import NectarConfig
from repro.faults import build_campaign
from repro.scaleout import PartitionSystem, ScaleoutScenario
from repro.sim import units
from repro.topology import dual_link_system, single_hub_system
from repro.topology.fabrics import torus_fabric
from repro.workload import Workload


@pytest.fixture(scope="module")
def cyclic_garbage(load_script):
    """``tools/footprint.py``'s census: what only the collector frees."""
    return load_script("tools/footprint.py").cyclic_garbage


def test_one_datagram_leaves_no_cycle(cyclic_garbage):
    assert cyclic_garbage(one_datagram) == Counter()


def test_one_circuit_mode_datagram_of_48_kib_leaves_no_cycle(
        cyclic_garbage):
    assert cyclic_garbage(
        lambda: one_datagram(size=48 << 10, mode="circuit")) == Counter()


def test_a_poisson_burst_on_twelve_cabs_leaves_no_cycle(cyclic_garbage):
    def drive():
        system = single_hub_system(12, cfg=NectarConfig(seed=1989))
        workload = Workload(system, pattern="uniform", arrivals="poisson",
                            mode="open", message_bytes=64, offered_load=0.3,
                            warmup_ns=units.ms(0.1), duration_ns=units.ms(0.5),
                            drain_ns=units.ms(0.2), salt="garbage")
        result = workload.run()
        assert result.recorder.delivered > 0
        return system, workload
    assert cyclic_garbage(drive) == Counter()


def test_a_random_cut_of_the_small_torus_leaves_no_cycle(cyclic_garbage,
                                                         monkeypatch):
    systems = []

    def kept(*args):
        systems.append(PartitionSystem(*args))
        return systems[-1]
    # run_cut drops its partition systems when it returns; keep them, so
    # the collector sees what the drive left and not the teardown.
    monkeypatch.setattr(test_scaleout_cuts, "PartitionSystem", kept)
    scenario = ScaleoutScenario("garbage", "", torus_fabric((2, 2, 2, 2)))
    hubs = list(scenario.fabric.hubs)
    random.Random(3).shuffle(hubs)
    parts = [tuple(hubs[:5]), tuple(hubs[5:11]), tuple(hubs[11:])]

    def drive():
        test_scaleout_cuts.run_cut(scenario, parts)
        return systems
    assert cyclic_garbage(drive) == Counter()
    assert len(systems) == 3


def test_returned_and_raised_processes_leave_no_cycle(cyclic_garbage, sim):
    def returns():
        yield sim.timeout(1)
        return 7

    def raises():
        yield sim.timeout(5)
        raise ValueError("into the waiter")

    def waiter():
        try:
            yield sim.process(raises())
        except ValueError:
            return "caught"

    def drive():
        done = [sim.process(returns()), sim.process(waiter())]
        sim.run()
        assert [proc.value for proc in done] == [7, "caught"]
        return done
    assert cyclic_garbage(drive) == Counter()


def test_an_any_of_whose_other_event_never_fires_leaves_no_cycle(
        cyclic_garbage, sim):
    def waiter():
        fired = yield sim.any_of([sim.event(), sim.timeout(10, "deadline")])
        return list(fired.values())

    def drive():
        waiters = [sim.process(waiter()) for _ in range(100)]
        sim.run()
        assert all(proc.value == ["deadline"] for proc in waiters)
        return waiters
    assert cyclic_garbage(drive) == Counter()


def test_closed_loop_rpcs_through_a_drop_burst_leave_no_cycle(
        cyclic_garbage):
    def drive():
        system = dual_link_system(2, cfg=NectarConfig(seed=1989))
        system.enable_resilience()
        injector = system.inject_faults(build_campaign(
            "drop-burst", system.cfg, bursts=2, drop=0.5,
            duration_ns=units.ms(0.3), horizon_ns=units.ms(1)))
        workload = Workload(system, pattern="all-to-all", arrivals="poisson",
                            mode="closed", message_bytes=256,
                            offered_load=0.2, window_depth=2,
                            warmup_ns=units.ms(0.2), duration_ns=units.ms(1),
                            drain_ns=units.ms(18), salt="garbage")
        result = workload.run()
        assert result.recorder.delivered > 0
        assert injector.counters["injected"] == 2
        return system, workload
    assert cyclic_garbage(drive) == Counter()
