"""Fail-fast scale-out: failure detection, forensics, partition-aware faults.

The supervisor's contract is that a failed run ends once: whatever
kills, hangs or breaks a worker, every worker is reaped and the run
raises one :class:`~repro.errors.ScaleoutError` that names the scenario
and the failing partition and carries per-partition forensics, leaving
no live child process and no registered fd.  A partitioned run is a
deterministic function of its scenario, so a retry would fail the same
way.  These tests exercise every failure mode the coordinator
distinguishes — a SIGKILL mid-run, death before the first state report,
worker-side exceptions, hangs and the peers blocked on them, planner
divergence — plus the partition-aware fault slicing that keeps faulted
runs digest-identical across run shapes.
"""

import multiprocessing
import os
import signal
import time

import pytest

from repro.errors import ConfigError, ScaleoutError
from repro.faults import FaultEvent, FaultScenario
from repro.scaleout import (ScaleoutScenario, Supervisor, escl_campaign,
                            partition_fabric, run_partitioned, run_single,
                            scenarios)
from repro.scaleout import supervisor as supervisor_module
from repro.scaleout import worker as worker_module
from repro.scaleout.partition import PartitionSystem
from repro.scaleout.planner import post
from repro.system import NectarSystem
from repro.topology.fabrics import (build_system, fat_tree_fabric,
                                    hypercube_fabric, torus_fabric)


@pytest.fixture(scope="module")
def torus16_reference():
    return run_single(scenarios()["escl-torus-16"])


@pytest.fixture
def spawned(monkeypatch):
    """The partition index of every worker the supervisor forks."""
    indices = []
    original = Supervisor._spawn

    def counting_spawn(self, worker, *args):
        indices.append(worker.index)
        original(self, worker, *args)

    monkeypatch.setattr(Supervisor, "_spawn", counting_spawn)
    return indices


def _kill_during_build(monkeypatch, index):
    """Make partition ``index`` SIGKILL itself while it builds."""
    original = worker_module.spawn_traffic

    def killing_spawn_traffic(scenario, system):
        if system.index == index:
            os.kill(os.getpid(), signal.SIGKILL)
        return original(scenario, system)

    # Workers fork from this process, so they inherit the patch.
    monkeypatch.setattr(worker_module, "spawn_traffic",
                        killing_spawn_traffic)


def crossing_scenario(name="hypercube-16", **fields):
    """A 16-hub 4-cube cut in index order: every flow crosses any cut."""
    return ScaleoutScenario(name, "4-cube, 16 CABs, every flow crosses",
                            hypercube_fabric(4), **fields)


def _failed(forensics):
    return [entry["partition"] for entry in forensics
            if entry["failure"] is not None]


# ----------------------------------------------------------------------
# in-simulation faults handed to every worker
# ----------------------------------------------------------------------

class TestPartitionIsASystem:
    """A partition is a ``NectarSystem`` that holds part of the fabric:
    it observes and arms faults through the system's own methods."""

    @pytest.fixture
    def part(self):
        return PartitionSystem(partition_fabric(torus_fabric((2, 2)), 2), 0)

    def test_a_partition_is_a_nectar_system(self, part):
        assert isinstance(part, NectarSystem)
        assert set(part.hubs) == {"hub_0_0", "hub_0_1"}
        assert set(part.cabs) == {"cab0", "cab1"}

    def test_a_partition_may_own_no_cab(self):
        partitioning = partition_fabric(fat_tree_fabric(4), 2)
        core = PartitionSystem(partitioning, 0)
        assert core.hubs and not core.cabs

    def test_observe_registers_local_hubs_and_cabs_only(self, part):
        registry = part.observe(trace=False).registry
        owners = {name.split(".")[1] if name.startswith("fiber.")
                  else name.split(".")[0] for name in registry.names()}
        assert owners == set(part.hubs) | set(part.cabs)

    def test_injects_local_targets_and_skips_remote_ones(self, part):
        scenario = FaultScenario("s", [
            FaultEvent("link_down", 0, 100, target="*cab2*"),
            FaultEvent("link_down", 0, 100, target="*cab0*"),
        ])
        injector = part.inject_faults(scenario)
        assert [event.target for event in injector.skipped] == ["*cab2*"]
        part.run(until=1_000)
        # Only the local event opened a window.
        assert injector.counters["injected"] == 1
        # A whole system holds every target, so one matching nothing is
        # an error there.
        whole = build_system(torus_fabric((2, 2)))
        with pytest.raises(ConfigError, match="matches nothing"):
            whole.inject_faults(FaultScenario("s", [
                FaultEvent("link_down", 0, 100, target="no-such-fiber*")]))


# ----------------------------------------------------------------------
# a killed worker ends the run
# ----------------------------------------------------------------------

class TestChaosRecovery:
    @pytest.mark.parametrize("name", ["escl-torus-16", "escl-fattree-4",
                                      "escl-hypercube-64"])
    def test_sigkill_mid_run_fails_naming_the_partition(
            self, monkeypatch, spawned, name):
        from repro.observe import MetricRegistry
        scenario = scenarios()[name]
        original = PartitionSystem.run

        def killing_run(self, until=None):
            if self.index == 2 and until is not None and until > 50_000:
                os.kill(os.getpid(), signal.SIGKILL)
            return original(self, until=until)

        # Workers fork from this process, so they inherit the patches.
        monkeypatch.setattr(PartitionSystem, "run", killing_run)
        # A beat every millisecond: the coordinator hears partition 2's
        # window before the kill, as it would over a longer run.
        monkeypatch.setattr(worker_module, "BEAT_MS", 1)
        left_registered = []
        reap_all = Supervisor._reap_all

        def auditing_reap_all(self):
            reap_all(self)
            left_registered.append(len(self._selector.get_map()))

        monkeypatch.setattr(Supervisor, "_reap_all", auditing_reap_all)
        registry = MetricRegistry()
        with pytest.raises(ScaleoutError) as excinfo:
            run_partitioned(scenario, 4, registry=registry)
        message = str(excinfo.value)
        assert name in message and "partition 2" in message
        assert "crash" in message
        forensics = excinfo.value.forensics
        assert [entry["partition"] for entry in forensics] == [0, 1, 2, 3]
        assert _failed(forensics) == [2]
        failure = forensics[2]["failure"]
        assert failure["reason"] == "crash"
        # SIGKILL shows up as a negative exit code.
        assert failure["exit_code"] == -9
        assert forensics[2]["last_window"] is not None
        # No restart: each partition was forked once.
        assert sorted(spawned) == [0, 1, 2, 3]
        assert multiprocessing.active_children() == []
        assert left_registered and not any(left_registered)
        # The metrics are published on the way out of a failed run too.
        assert registry.value("scaleout.rounds") > 0

    def test_kill_before_first_state_report(self, monkeypatch, spawned):
        _kill_during_build(monkeypatch, 1)
        with pytest.raises(ScaleoutError, match="partition 1 failed "
                                                r"\(crash\)") as excinfo:
            run_partitioned(scenarios()["escl-torus-16"], 4)
        forensics = excinfo.value.forensics
        assert _failed(forensics) == [1]
        failure = forensics[1]["failure"]
        assert failure["exit_code"] == -9
        assert failure["last_round"] == 0
        assert sorted(spawned) == [0, 1, 2, 3]
        assert multiprocessing.active_children() == []

    def test_planner_divergence_is_caught(self, monkeypatch):
        # Partition 1 loses the first envelope bound for partition 0
        # from its mirror of partition 0's pending heap, so from then on
        # it plans on other knowledge than partition 0 does.
        scenario = crossing_scenario()
        owners = partition_fabric(scenario.fabric, 2,
                                  scenario.flows()).owner_map()
        dropped = []

        def lossy_post(heap, source, envelope):
            if not dropped and owners[envelope[3]] == 0 \
                    and multiprocessing.current_process().name \
                    .endswith("-p1"):
                dropped.append(envelope)
                return
            post(heap, source, envelope)

        # Workers fork from this process, so they inherit the patch.
        monkeypatch.setattr(worker_module, "post", lossy_post)
        with pytest.raises(ScaleoutError,
                           match="planner diverged") as excinfo:
            run_partitioned(scenario, 2)
        assert len(excinfo.value.forensics) == 2
        assert multiprocessing.active_children() == []

    def test_per_partition_metrics_reach_the_registry(self):
        from repro.observe import MetricRegistry
        scenario = crossing_scenario()
        registry = MetricRegistry()
        result = run_partitioned(scenario, 4, registry=registry)
        assert registry.value("scaleout.rounds") == result.rounds
        assert registry.value("scaleout.advances") == result.advances
        assert registry.value("scaleout.setup_s") == \
            pytest.approx(result.setup_s)
        routed = sum(registry.value(f"scaleout.p{i}.envelopes")
                     for i in range(4))
        assert routed == result.envelopes > 0
        for index in range(4):
            for phase in ("compute_s", "wait_s", "exchange_s", "ipc_s"):
                assert registry.value(f"scaleout.p{index}.{phase}") == \
                    pytest.approx(result.timing[phase][index])
        assert registry.value("scaleout.coordinator_cpu_s") == \
            pytest.approx(result.coordinator_cpu_s)


class TestNoLeftovers:
    """Pipes need no helper process and no named segment to clean up."""

    @pytest.mark.parametrize("kill", [False, True],
                             ids=["clean", "worker-kill"])
    def test_no_tracker_no_shm_segment(self, monkeypatch, torus16_reference,
                                       kill):
        from multiprocessing import resource_tracker
        scenario = scenarios()["escl-torus-16"]
        before = set(os.listdir("/dev/shm"))
        if kill:
            _kill_during_build(monkeypatch, 1)
            with pytest.raises(ScaleoutError, match="crash"):
                run_partitioned(scenario, 4)
        else:
            result = run_partitioned(scenario, 4)
            assert result.digest == torus16_reference.digest
        assert multiprocessing.active_children() == []
        assert resource_tracker._resource_tracker._pid is None
        assert set(os.listdir("/dev/shm")) <= before


# ----------------------------------------------------------------------
# the wait path: one selector, bytes-only envelopes
# ----------------------------------------------------------------------

class TestWaitPath:
    def test_collect_drains_every_ready_worker_in_one_select(self):
        supervisor = Supervisor(scenarios()["escl-torus-16"], 2)
        selects = []
        select = supervisor._selector.select

        def counting_select(timeout=None):
            ready = select(timeout)
            selects.append(len(ready))
            return ready

        supervisor._selector.select = counting_select
        try:
            supervisor._spawn_all()
            # Both workers exchanged their initial reports and said
            # ready: both messages are sitting in their pipes...
            assert all(worker.conn.poll(30) for worker in supervisor.workers)
            supervisor._collect("ready")
            # ...and one wake absorbed both.
            assert selects == [2]
            assert [worker.state for worker in supervisor.workers] \
                == ["ready", "ready"]
        finally:
            supervisor._reap_all()
            supervisor._selector.close()
        assert all(worker.watched == () for worker in supervisor.workers)

    def test_envelope_bodies_are_bytes_everywhere_in_the_coordinator(
            self, monkeypatch):
        import ast
        import inspect
        from repro.scaleout import planner, supervisor

        def checking_post(heap, source, envelope):
            # Runs in the workers: a body that is not a blob fails the
            # worker, and the run with it.
            assert type(envelope[5]) in (bytes, type(None)), envelope
            post(heap, source, envelope)

        monkeypatch.setattr(worker_module, "post", checking_post)
        scenario = crossing_scenario("hypercube-16-circuit",
                                     message_bytes=2048, mode="circuit")
        result = run_partitioned(scenario, 2)
        assert result.envelopes > 0
        # The coordinator cannot open a blob: it imports no model class.
        for module in (supervisor, planner):
            tree = ast.parse(inspect.getsource(module))
            imported = {node.module or "" for node in ast.walk(tree)
                        if isinstance(node, ast.ImportFrom)}
            imported |= {alias.name for node in ast.walk(tree)
                         if isinstance(node, ast.Import)
                         for alias in node.names}
            assert not [name for name in imported
                        if "hardware" in name or name.endswith("wire")]


# ----------------------------------------------------------------------
# error paths: exceptions, hangs
# ----------------------------------------------------------------------

class TestErrorPaths:
    def test_worker_exception_reaches_forensics(self, monkeypatch, spawned):
        scenario = scenarios()["escl-torus-16"]
        original = PartitionSystem.run

        def exploding_run(self, until=None):
            if self.index == 1 and until is not None and until > 50_000:
                raise RuntimeError("injected failure for testing")
            return original(self, until=until)

        # Workers fork from this process, so they inherit the patch.
        monkeypatch.setattr(PartitionSystem, "run", exploding_run)
        with pytest.raises(ScaleoutError) as excinfo:
            run_partitioned(scenario, 4)
        message = str(excinfo.value)
        assert "escl-torus-16" in message and "partition 1" in message
        assert "exception" in message
        assert _failed(excinfo.value.forensics) == [1]
        failure = excinfo.value.forensics[1]["failure"]
        assert failure["reason"] == "exception"
        # The worker-side traceback crossed the pipe.
        assert "injected failure for testing" in failure["detail"]
        assert "RuntimeError" in failure["detail"]
        assert failure["exit_code"] == 1
        # A deterministic failure is not retried.
        assert spawned.count(1) == 1

    def test_hang_is_detected_and_named(self, monkeypatch):
        scenario = scenarios()["escl-torus-16"]
        original = PartitionSystem.run

        def hanging_run(self, until=None):
            if self.index == 1:
                time.sleep(60)
            return original(self, until=until)

        monkeypatch.setattr(PartitionSystem, "run", hanging_run)
        # Three heartbeats of a blocked peer fit in the timeout.
        monkeypatch.setattr(supervisor_module, "HANG_TIMEOUT_S", 3.0)
        with pytest.raises(ScaleoutError,
                           match=r"partition 1 failed \(hang\)") as excinfo:
            Supervisor(scenario, 4).run()
        forensics = excinfo.value.forensics
        failure = forensics[1]["failure"]
        assert failure["reason"] == "hang"
        # The hung partition is named, beside the peer whose heartbeats
        # said it was blocked on it; that peer has no failure of its own.
        assert "partitions [0] waited on it" in failure["detail"]
        assert _failed(forensics) == [1]
        assert multiprocessing.active_children() == []


# ----------------------------------------------------------------------
# partition-aware fault campaigns
# ----------------------------------------------------------------------

class TestFaultedParity:
    def test_drop_burst_partitioned_matches_faulted_single(self):
        scenario = scenarios()["escl-torus-16"]
        campaign = escl_campaign("drop-burst", scenario.config())
        faulted_reference = run_single(scenario, faults=campaign)
        clean_reference = run_single(scenario)
        # The campaign must actually change the run...
        assert faulted_reference.digest != clean_reference.digest
        # ...and partitioning must not change it further.
        result = run_partitioned(scenario, 4, faults=campaign)
        assert result.digest == faulted_reference.digest


# ----------------------------------------------------------------------
# guard rails
# ----------------------------------------------------------------------

class TestGuardRails:
    def test_supervisor_needs_two_partitions(self):
        with pytest.raises(ScaleoutError, match=">= 2 workers"):
            Supervisor(scenarios()["escl-torus-16"], 1)

    def test_supervisor_rejects_bad_batch_and_transport(self):
        scenario = scenarios()["escl-torus-16"]
        # The pipe is the only transport, every replayed answer is
        # checked, a failure ends the run, the hang timeout is a module
        # constant and the lookahead matrix alone bounds each grant:
        # none of these knobs exists any more.
        for gone in ({"transport": "shm"}, {"snapshot_every": 8},
                     {"backoff_base_s": 0.01}, {"hang_timeout_s": 1.0},
                     {"batch": 8}, {"max_restarts": 2}):
            with pytest.raises(TypeError):
                Supervisor(scenario, 2, **gone)
            with pytest.raises(TypeError):
                run_partitioned(scenario, 2, **gone)

    def test_cli_rejects_more_partitions_than_hubs(self, capsys):
        from repro.__main__ import main
        status = main(["scaleout", "escl-torus-16", "--partitions", "300"])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.err == \
            "error: cannot cut 16 hubs into 300 partitions\n"
        assert captured.out == ""

    @pytest.mark.parametrize("flag", [["--verify"], ["--batch", "8"],
                                      ["--chaos"], ["--max-restarts", "2"]],
                             ids=["verify", "batch", "chaos",
                                  "max-restarts"])
    def test_cli_has_no_removed_flag(self, flag, capsys):
        from repro.__main__ import main
        with pytest.raises(SystemExit) as caught:
            main(["scaleout", "escl-torus-16", "--partitions", "1,2", *flag])
        assert caught.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
