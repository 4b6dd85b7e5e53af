"""Crash-tolerant scale-out: recovery, forensics, partition-aware faults.

The supervisor's contract is that worker death is invisible in the
result: SIGKILL any worker at any instant and the restarted run
reproduces bit-identical state, so the digest (and even the raw event
count) still matches the clean single-process reference.  These tests
exercise every failure mode the coordinator distinguishes — chaos
kills, death before the first state report, worker-side exceptions,
hangs and the peers blocked on them, planner divergence, broken
budgets — plus the partition-aware fault slicing that keeps faulted
runs digest-identical across run shapes.
"""

import multiprocessing
import os
import time

import pytest

from repro.config import NectarConfig
from repro.errors import ConfigError, ScaleoutError
from repro.faults import (PROCESS_KINDS, FaultEvent, FaultInjector,
                          FaultScenario, build_campaign)
from repro.scaleout import (Supervisor, escl_campaign, partition_fabric,
                            run_partitioned, run_single, scenarios)
from repro.scaleout import supervisor as supervisor_module
from repro.scaleout import worker as worker_module
from repro.scaleout.partition import PartitionSystem
from repro.scaleout.planner import post
from repro.topology import single_hub_system


@pytest.fixture(scope="module")
def torus16_reference():
    return run_single(scenarios()["escl-torus-16"])


def _patch_partition_one_run(monkeypatch, tmp_path, until_for):
    """Make partition 1 run to ``until_for(incarnation, until)``.

    Each incarnation is its own forked process, so they are numbered
    (from 1) through a counter file; ``until_for`` may also raise.
    """
    counter = tmp_path / "incarnations"
    counter.write_text("0")
    mine = []  # this process's incarnation number, once it has run
    original = PartitionSystem.run

    def patched_run(self, until=None):
        if self.index == 1 and until is not None:
            if not mine:
                mine.append(int(counter.read_text()) + 1)
                counter.write_text(str(mine[0]))
            until = until_for(mine[0], until)
        return original(self, until=until)

    # Workers fork from this process, so they inherit the patch.
    monkeypatch.setattr(PartitionSystem, "run", patched_run)


# ----------------------------------------------------------------------
# the kill_worker fault kind
# ----------------------------------------------------------------------

class TestKillWorkerKind:
    def test_is_a_process_kind(self):
        assert "kill_worker" in PROCESS_KINDS
        event = FaultEvent("kill_worker", 1_000, 0, target="2")
        event.validate()

    def test_requires_zero_duration(self):
        with pytest.raises(ConfigError, match="duration_ns == 0"):
            FaultEvent("kill_worker", 1_000, 500, target="*").validate()

    def test_split_process_events(self):
        scenario = FaultScenario("mixed", [
            FaultEvent("kill_worker", 2_000, 0, target="1"),
            FaultEvent("link_down", 1_000, 500, target="*"),
        ])
        sim, process = scenario.split_process_events()
        assert [e.kind for e in sim.events] == ["link_down"]
        assert [e.kind for e in process] == ["kill_worker"]
        assert sim.name == "mixed"

    def test_injector_rejects_process_kinds(self):
        system = single_hub_system(num_cabs=2)
        scenario = FaultScenario("k", [
            FaultEvent("kill_worker", 0, 0, target="*")])
        with pytest.raises(ConfigError, match="scale-out supervisor"):
            FaultInjector(system, scenario)

    def test_worker_kill_campaign_is_seeded(self):
        cfg = NectarConfig(seed=7)
        first = build_campaign("worker-kill", cfg, partitions=8, kills=3)
        second = build_campaign("worker-kill", cfg, partitions=8, kills=3)
        assert first.schedule_text() == second.schedule_text()
        assert all(0 <= int(e.target) < 8 for e in first.events)
        assert all(e.kind == "kill_worker" for e in first.events)


class TestNonStrictInjector:
    def test_unmatched_targets_skipped(self):
        system = single_hub_system(num_cabs=2)
        scenario = FaultScenario("s", [
            FaultEvent("link_down", 0, 100, target="no-such-fiber*"),
            FaultEvent("link_down", 0, 100, target="*cab0*"),
        ])
        injector = FaultInjector(system, scenario, strict=False)
        assert len(injector.skipped) == 1
        assert injector.skipped[0].target == "no-such-fiber*"
        injector.start()
        system.run(until=1_000)
        # Only the matched event opened a window.
        assert injector.counters["injected"] == 1


# ----------------------------------------------------------------------
# recovery by restarting the run
# ----------------------------------------------------------------------

class TestChaosRecovery:
    @pytest.mark.parametrize("name", ["escl-torus-16", "escl-fattree-4",
                                      "escl-hypercube-64"])
    def test_sigkill_mid_run_recovers_bit_identical(self, name):
        scenario = scenarios()[name]
        reference = run_single(scenario)
        kills = escl_campaign("worker-kill", scenario.config(),
                              partitions=4)
        result = run_partitioned(scenario, 4, faults=kills)
        assert result.worker_kills >= 1
        assert result.restarts >= 1
        assert result.digest == reference.digest
        assert result.events == reference.events

    def test_mid_run_kill_restarts_every_worker_once(self,
                                                     torus16_reference):
        spawned = []

        class Counting(Supervisor):
            def _spawn(self, worker, *args):
                spawned.append(worker.index)
                super()._spawn(worker, *args)

        kill = FaultScenario("k", [
            FaultEvent("kill_worker", 50_000, 0, target="2")])
        result = Counting(scenarios()["escl-torus-16"], 4,
                          faults=kill).run()
        assert (result.worker_kills, result.restarts) == (1, 1)
        # Every partition was forked twice; only the killed one is
        # charged.
        assert sorted(spawned) == [0, 0, 1, 1, 2, 2, 3, 3]
        assert [entry["restarts"] for entry in result.forensics] \
            == [0, 0, 1, 0]
        assert result.forensics[2]["failures"][0]["reason"] == "crash"
        assert result.mismatch(torus16_reference) is None

    def test_kill_before_first_state_report(self, torus16_reference):
        scenario = scenarios()["escl-torus-16"]
        early = FaultScenario("early-kill", [
            FaultEvent("kill_worker", 0, 0, target="1")])
        result = run_partitioned(scenario, 4, faults=early)
        assert result.worker_kills == 1
        assert result.restarts == 1
        assert result.digest == torus16_reference.digest
        assert result.events == torus16_reference.events

    def test_planner_divergence_is_caught(self, monkeypatch):
        # Partition 1 loses the first envelope bound for partition 0
        # from its mirror of partition 0's pending heap, so from then on
        # it plans on other knowledge than partition 0 does.
        scenario = scenarios()["escl-torus-16"]
        owners = partition_fabric(scenario.fabric, 2).owner_map()
        dropped = []

        def lossy_post(heap, source, envelope):
            if not dropped and owners[envelope[3]] == 0 \
                    and "-p1-" in multiprocessing.current_process().name:
                dropped.append(envelope)
                return
            post(heap, source, envelope)

        # Workers fork from this process, so they inherit the patch.
        monkeypatch.setattr(worker_module, "post", lossy_post)
        with pytest.raises(ScaleoutError,
                           match="planner diverged") as excinfo:
            run_partitioned(scenario, 2)
        assert len(excinfo.value.forensics) == 2
        # Divergence is deterministic: nothing is restarted.
        assert [entry["restarts"] for entry in excinfo.value.forensics] \
            == [0, 0]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("kills", [1, 8])
    def test_kill_mid_batch_recovers_bit_identical(self, torus16_reference,
                                                   kills):
        # However many kills land, and whichever instant of a grant
        # each one hits, the restarted run re-plans identical grants.
        scenario = scenarios()["escl-torus-16"]
        chaos = escl_campaign("worker-kill", scenario.config(),
                              partitions=4, kills=kills)
        result = run_partitioned(scenario, 4, faults=chaos, max_restarts=kills)
        assert result.worker_kills >= 1
        assert result.restarts >= 1
        assert result.digest == torus16_reference.digest
        assert result.events == torus16_reference.events

    def test_recovery_counters_reach_the_registry(self, torus16_reference):
        from repro.observe import MetricRegistry
        scenario = scenarios()["escl-torus-16"]
        kills = escl_campaign("worker-kill", scenario.config(),
                              partitions=4)
        registry = MetricRegistry()
        result = run_partitioned(scenario, 4, faults=kills, registry=registry)
        assert registry.get("scaleout.restarts").value() == result.restarts
        assert registry.get("scaleout.worker_kills").value() \
            == result.worker_kills

    def test_per_partition_metrics_reach_the_registry(self):
        from repro.observe import MetricRegistry
        scenario = scenarios()["escl-torus-16"]
        registry = MetricRegistry()
        result = run_partitioned(scenario, 4, registry=registry)
        assert registry.get("scaleout.rounds").value() == result.rounds
        assert registry.get("scaleout.advances").value() == result.advances
        assert registry.get("scaleout.setup_s").value() == \
            pytest.approx(result.setup_s)
        routed = sum(registry.get(f"scaleout.p{i}.envelopes").value()
                     for i in range(4))
        assert routed == result.envelopes
        for index in range(4):
            assert registry.get(f"scaleout.p{index}.restarts").value() == 0
            for phase in ("compute_s", "wait_s", "exchange_s", "ipc_s"):
                gauge = registry.get(f"scaleout.p{index}.{phase}")
                assert gauge.value() == \
                    pytest.approx(result.timing[phase][index])
        assert registry.get("scaleout.coordinator_cpu_s").value() == \
            pytest.approx(result.coordinator_cpu_s)

    def test_summary_includes_recovery_counters(self, torus16_reference):
        summary = torus16_reference.summary()
        assert summary["restarts"] == 0
        assert summary["worker_kills"] == 0
        assert "replayed_windows" not in summary


class TestNoLeftovers:
    """Pipes need no helper process and no named segment to clean up."""

    @pytest.mark.parametrize("chaos", [False, True],
                             ids=["clean", "worker-kill"])
    def test_no_tracker_no_shm_segment(self, torus16_reference, chaos):
        from multiprocessing import resource_tracker
        scenario = scenarios()["escl-torus-16"]
        before = set(os.listdir("/dev/shm"))
        kills = escl_campaign("worker-kill", scenario.config(),
                              partitions=4) if chaos else None
        result = run_partitioned(scenario, 4, faults=kills)
        assert result.digest == torus16_reference.digest
        assert (result.restarts >= 1) == chaos
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
            assert supervisor._collect("ready")
            # ...and one wake absorbed both.
            assert selects == [2]
            assert [worker.state for worker in supervisor.workers] \
                == ["ready", "ready"]
        finally:
            supervisor._reap_all()
            supervisor._selector.close()
        assert all(worker.watched == () for worker in supervisor.workers)

    def test_respawn_unregisters_the_dead_incarnations_fds(
            self, torus16_reference):
        audits = []

        class Audited(Supervisor):
            def _spawn(self, worker, *args):
                super()._spawn(worker, *args)
                watched = {fileobj if isinstance(fileobj, int)
                           else fileobj.fileno()
                           for w in self.workers for fileobj in w.watched}
                audits.append(set(self._selector.get_map()) == watched
                              and len(watched) == 2 * sum(
                                  w.process is not None
                                  for w in self.workers))

        scenario = scenarios()["escl-torus-16"]
        kills = escl_campaign("worker-kill", scenario.config(),
                              partitions=4)
        outcome = Audited(scenario, 4, faults=kills).run()
        # A reused fd number would raise KeyError at register; a stale
        # one would show up as a registration no live worker owns.
        assert outcome.restarts >= 1
        assert len(audits) == 4 * (1 + outcome.restarts) and all(audits)
        assert outcome.digest == torus16_reference.digest

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
        scenario = scenarios()["escl-torus-16-circuit"]
        result = run_partitioned(scenario, 2, max_restarts=0)
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
# error paths: exceptions, hangs, exhausted budgets
# ----------------------------------------------------------------------

class TestErrorPaths:
    def test_worker_exception_reaches_forensics(self, monkeypatch):
        scenario = scenarios()["escl-torus-16"]
        original = PartitionSystem.run

        def exploding_run(self, until=None):
            if self.index == 1 and until is not None and until > 50_000:
                raise RuntimeError("injected failure for testing")
            return original(self, until=until)

        # Workers fork from this process, so they inherit the patch.
        monkeypatch.setattr(PartitionSystem, "run", exploding_run)
        with pytest.raises(ScaleoutError) as excinfo:
            run_partitioned(scenario, 4, max_restarts=1)
        message = str(excinfo.value)
        assert "escl-torus-16" in message and "partition 1" in message
        assert "exception" in message
        entry = [f for f in excinfo.value.forensics
                 if f["partition"] == 1][0]
        assert entry["restarts"] == 1
        failure = entry["failures"][0]
        assert failure["reason"] == "exception"
        # The worker-side traceback crossed the pipe.
        assert "injected failure for testing" in failure["detail"]
        assert "RuntimeError" in failure["detail"]
        assert failure["exit_code"] == 1

    def test_hang_is_detected_and_recovered(self, monkeypatch, tmp_path,
                                            torus16_reference):
        scenario = scenarios()["escl-torus-16"]
        flag = tmp_path / "hang-once"
        flag.write_text("hang")
        original = PartitionSystem.run

        def hanging_run(self, until=None):
            if self.index == 1 and flag.exists():
                flag.unlink()
                time.sleep(60)
            return original(self, until=until)

        monkeypatch.setattr(PartitionSystem, "run", hanging_run)
        # Three heartbeats of a blocked peer fit in the timeout.
        monkeypatch.setattr(supervisor_module, "HANG_TIMEOUT_S", 3.0)
        outcome = Supervisor(scenario, 4).run()
        assert outcome.restarts == 1
        entry = outcome.forensics[1]
        failure, = entry["failures"]
        assert failure["reason"] == "hang"
        # The hung partition is named, beside the peer whose heartbeats
        # said it was blocked on it; that peer is not charged.
        assert "partitions [0] waited on it" in failure["detail"]
        assert [e["restarts"] for e in outcome.forensics] == [0, 1, 0, 0]
        assert [len(e["failures"]) for e in outcome.forensics] \
            == [0, 1, 0, 0]
        assert outcome.digest == torus16_reference.digest

    @pytest.fixture
    def dies_twice(self, monkeypatch, tmp_path):
        """Partition 1 raises in its first two incarnations: mid-run,
        then *earlier* — while the restarted run is still catching up
        with where the first one failed."""
        limits = {1: 50_000, 2: 20_000}

        def flaky(incarnation, until):
            if until > limits.get(incarnation, until):
                raise RuntimeError("injected failure for testing")
            return until

        _patch_partition_one_run(monkeypatch, tmp_path, flaky)

    def test_death_while_catching_up_is_an_ordinary_failure(
            self, dies_twice, torus16_reference):
        result = run_partitioned(scenarios()["escl-torus-16"], 4,
                                 max_restarts=2)
        assert result.restarts == 2
        first, second = result.forensics[1]["failures"]
        assert first["reason"] == second["reason"] == "exception"
        # The second failure came before the restarted run had reached
        # the first one's round.
        assert 0 < second["last_round"] < first["last_round"]
        assert result.mismatch(torus16_reference) is None

    def test_death_while_catching_up_counts_against_the_budget(
            self, dies_twice):
        from repro.observe import MetricRegistry
        registry = MetricRegistry()
        with pytest.raises(ScaleoutError) as excinfo:
            run_partitioned(scenarios()["escl-torus-16"], 4,
                            max_restarts=1, registry=registry)
        assert "partition 1" in str(excinfo.value)
        entry = [f for f in excinfo.value.forensics
                 if f["partition"] == 1][0]
        assert entry["restarts"] == 1
        assert [f["reason"] for f in entry["failures"]] \
            == ["exception", "exception"]
        assert multiprocessing.active_children() == []
        # The metrics are published on the way out of a failed run too.
        assert registry.get("scaleout.restarts").value() == 1
        assert [registry.get(f"scaleout.p{i}.restarts").value()
                for i in range(4)] == [0, 1, 0, 0]
        assert registry.get("scaleout.rounds").value() > 0

    def test_budget_exhaustion_names_scenario_and_partition(self):
        scenario = scenarios()["escl-torus-16"]
        kill = FaultScenario("k", [
            FaultEvent("kill_worker", 50_000, 0, target="2")])
        with pytest.raises(ScaleoutError) as excinfo:
            run_partitioned(scenario, 4, faults=kill, max_restarts=0)
        message = str(excinfo.value)
        assert "escl-torus-16" in message
        assert "partition 2" in message
        assert "crash" in message
        assert "restart budget" in message
        forensics = excinfo.value.forensics
        assert len(forensics) == 4
        entry = [f for f in forensics if f["partition"] == 2][0]
        assert entry["failures"][0]["reason"] == "crash"
        # SIGKILL shows up as a negative exit code.
        assert entry["failures"][0]["exit_code"] == -9
        assert entry["last_window"] is not None


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
        assert result.restarts == 0

    def test_chaos_and_sim_faults_compose(self):
        scenario = scenarios()["escl-torus-16"]
        campaign = escl_campaign("drop-burst", scenario.config())
        faulted_reference = run_single(scenario, faults=campaign)
        mixed = FaultScenario(
            "mixed", list(campaign.events) + [
                FaultEvent("kill_worker", 60_000, 0, target="0")])
        result = run_partitioned(scenario, 4, faults=mixed)
        assert result.worker_kills == 1
        assert result.restarts >= 1
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
        # checked, restarts are immediate, the hang timeout is a module
        # constant and the lookahead matrix alone bounds each grant:
        # none of these knobs exists any more.
        for gone in ({"transport": "shm"}, {"snapshot_every": 8},
                     {"backoff_base_s": 0.01}, {"hang_timeout_s": 1.0},
                     {"batch": 8}):
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

    def test_cli_rejects_negative_restart_budget(self, capsys):
        from repro.__main__ import main
        status = main(["scaleout", "escl-torus-16", "--partitions", "2",
                       "--max-restarts", "-1"])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.err == "error: --max-restarts must be >= 0\n"
        assert captured.out == ""

    @pytest.mark.parametrize("flag", [["--verify"], ["--batch", "8"]],
                             ids=["verify", "batch"])
    def test_cli_has_no_removed_flag(self, flag, capsys):
        from repro.__main__ import main
        with pytest.raises(SystemExit) as caught:
            main(["scaleout", "escl-torus-16", "--partitions", "1,2", *flag])
        assert caught.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_run_single_ignores_process_events(self, torus16_reference):
        scenario = scenarios()["escl-torus-16"]
        kills = FaultScenario("k", [
            FaultEvent("kill_worker", 0, 0, target="*")])
        result = run_single(scenario, faults=kills)
        assert result.digest == torus16_reference.digest
