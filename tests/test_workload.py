"""Unit and integration tests for the workload subsystem."""

import random

import pytest

from repro.config import NectarConfig
from repro.errors import WorkloadError
from repro.sim import units
from repro.topology import single_hub_system
from repro.workload import (AllToAll, BurstyArrivals, DeterministicArrivals,
                            Hotspot, LoadSweep, Permutation, PoissonArrivals,
                            SLORecorder, Transpose, UniformRandom, Workload,
                            make_arrivals, make_pattern)

ENDPOINTS = [f"cab{i}" for i in range(8)]


def rng(salt="t"):
    return random.Random(salt)


class TestPatterns:
    def test_uniform_never_self_and_covers_all(self):
        pattern = UniformRandom(ENDPOINTS, rng())
        seen = {pattern.destination("cab3") for _ in range(400)}
        assert "cab3" not in seen
        assert seen == set(ENDPOINTS) - {"cab3"}

    def test_permutation_is_a_derangement_bijection(self):
        pattern = Permutation(ENDPOINTS, rng())
        targets = [pattern.destination(src) for src in ENDPOINTS]
        assert sorted(targets) == sorted(ENDPOINTS)  # bijective
        assert all(dst != src for src, dst in zip(ENDPOINTS, targets))
        # Static: a source always hits the same peer.
        assert pattern.destination("cab0") == targets[0]

    def test_transpose_square_mapping(self):
        endpoints = [f"e{i}" for i in range(9)]     # 3x3
        pattern = Transpose(endpoints)
        # index 1 = (row 0, col 1) -> (row 1, col 0) = index 3
        assert pattern.destination("e1") == "e3"
        assert all(pattern.destination(src) != src for src in endpoints)

    def test_hotspot_skew(self):
        pattern = Hotspot(ENDPOINTS, rng(), fraction=0.5, hotspot="cab7")
        draws = [pattern.destination("cab0") for _ in range(2000)]
        hot_share = draws.count("cab7") / len(draws)
        assert hot_share == pytest.approx(0.5, abs=0.05)
        # A cold endpoint splits the other half with 5 peers.
        assert draws.count("cab1") / len(draws) == pytest.approx(
            0.5 / 6, abs=0.05)
        # The hotspot itself spreads uniformly, never self-sends.
        hot_draws = {pattern.destination("cab7") for _ in range(200)}
        assert hot_draws == set(ENDPOINTS) - {"cab7"}

    def test_all_to_all_round_robin(self):
        pattern = AllToAll(ENDPOINTS)
        first_cycle = [pattern.destination("cab2") for _ in range(7)]
        assert sorted(first_cycle) == sorted(set(ENDPOINTS) - {"cab2"})
        assert [pattern.destination("cab2") for _ in range(7)] == first_cycle

    def test_validation(self):
        with pytest.raises(WorkloadError):
            UniformRandom(["only-one"], rng())
        with pytest.raises(WorkloadError):
            UniformRandom(["a", "a"], rng())
        with pytest.raises(WorkloadError):
            Hotspot(ENDPOINTS, rng(), fraction=1.5)
        with pytest.raises(WorkloadError):
            Hotspot(ENDPOINTS, rng(), hotspot="not-there")
        with pytest.raises(WorkloadError):
            UniformRandom(ENDPOINTS, rng()).destination("stranger")

    def test_factory(self):
        assert isinstance(make_pattern("transpose", ENDPOINTS), Transpose)
        with pytest.raises(WorkloadError):
            make_pattern("zipf", ENDPOINTS)
        with pytest.raises(WorkloadError):
            make_pattern("uniform", ENDPOINTS)  # RNG required


class TestArrivals:
    def test_deterministic_constant_gap(self):
        arrivals = DeterministicArrivals(1000.4)
        assert [arrivals.next_gap() for _ in range(5)] == [1000] * 5

    def test_poisson_mean_and_determinism(self):
        gaps = [PoissonArrivals(10_000, rng("p")).next_gap()
                for _ in range(1)]  # noqa: F841 - just constructs
        first = PoissonArrivals(10_000, rng("p"))
        second = PoissonArrivals(10_000, rng("p"))
        a = [first.next_gap() for _ in range(3000)]
        b = [second.next_gap() for _ in range(3000)]
        assert a == b, "same RNG stream must replay the same arrivals"
        assert sum(a) / len(a) == pytest.approx(10_000, rel=0.1)

    def test_bursty_preserves_long_run_mean(self):
        arrivals = BurstyArrivals(10_000, rng("b"), burst_length=8,
                                  duty_cycle=0.25)
        gaps = [arrivals.next_gap() for _ in range(8 * 400)]
        assert sum(gaps) / len(gaps) == pytest.approx(10_000, rel=0.1)
        # On-gaps are much shorter than the off-gap that ends each burst.
        on = [g for i, g in enumerate(gaps) if i % 8 != 7]
        off = [g for i, g in enumerate(gaps) if i % 8 == 7]
        assert sum(on) / len(on) < sum(off) / len(off)

    def test_validation(self):
        with pytest.raises(WorkloadError):
            DeterministicArrivals(0.5)
        with pytest.raises(WorkloadError):
            BurstyArrivals(1000, rng(), duty_cycle=0.0)
        with pytest.raises(WorkloadError):
            make_arrivals("weibull", 1000, rng())
        with pytest.raises(WorkloadError):
            make_arrivals("poisson", 1000)  # RNG required


class TestSLORecorder:
    def test_windowing(self):
        recorder = SLORecorder(window=(1000, 2000))
        recorder.record_send(500, 100)      # before window: ignored
        recorder.record_send(1500, 100)
        recorder.record_send(2000, 100)     # at end: ignored (half-open)
        assert recorder.sent == 1
        # Latency follows the send's membership even when the delivery
        # completes after the window closes.
        recorder.record_delivery(1500, 1600, 2500, 100)
        assert recorder.response.count == 1
        assert recorder.response.maximum == 1000   # vs intended
        assert recorder.service.maximum == 900     # vs actual send
        assert recorder.delivered == 0             # completed out of window
        recorder.record_delivery(900, 900, 1100, 100)
        assert recorder.delivered == 1             # completed in window
        assert recorder.response.count == 1        # but sent before it

    def test_loss_and_empty_percentile(self):
        recorder = SLORecorder(window=(0, 1000))
        assert recorder.loss_fraction == 0.0
        assert recorder.percentile_us(0.99) == 0.0
        recorder.record_send(10, 100)
        recorder.record_send(20, 100)
        recorder.record_delivery(10, 10, 50, 100)
        recorder.record_error(20)
        assert recorder.loss_fraction == pytest.approx(0.5)
        assert recorder.errors == 1


def run_workload(seed=1989, **kwargs):
    system = single_hub_system(4, cfg=NectarConfig(seed=seed))
    defaults = dict(warmup_ns=units.ms(0.5), duration_ns=units.ms(1),
                    drain_ns=units.ms(1))
    defaults.update(kwargs)
    return Workload(system, **defaults).run()


class TestWorkloadEndToEnd:
    def test_same_seed_same_run(self):
        first = run_workload(offered_load=0.3)
        second = run_workload(offered_load=0.3)
        assert first.summary() == second.summary()
        assert first.recorder.response.buckets \
            == second.recorder.response.buckets

    def test_open_loop_below_saturation_serves_offered(self):
        result = run_workload(offered_load=0.1)
        assert result.recorder.delivered > 0
        assert result.efficiency > 0.85

    def test_open_loop_past_saturation(self):
        result = run_workload(offered_load=1.0)
        # Offered load keeps counting even though emitters are blocked …
        assert result.efficiency < 0.9
        # … and coordinated-omission correction separates response time
        # (includes queueing from the intended departure) from service
        # time (transport only).
        assert result.p_us(0.99, corrected=True) \
            > 2 * result.p_us(0.99, corrected=False)

    def test_closed_loop_self_limits(self):
        result = run_workload(mode="closed", window_depth=2)
        recorder = result.recorder
        assert recorder.delivered > 0
        # Closed loops issue-on-completion: intended == actual send time,
        # so the two latency views agree and nothing queues unaccounted.
        assert recorder.response.buckets == recorder.service.buckets
        assert recorder.errors == 0

    def test_validation(self):
        system = single_hub_system(4)
        with pytest.raises(WorkloadError):
            Workload(system, offered_load=0.0)
        with pytest.raises(WorkloadError):
            Workload(system, mode="half-open")
        with pytest.raises(WorkloadError):
            Workload(system, message_bytes=0)

    def test_sweep_validation(self):
        with pytest.raises(WorkloadError):
            LoadSweep(lambda: None, loads=[])
        with pytest.raises(WorkloadError):
            LoadSweep(lambda: None, loads=[0.5, 0.2])
        with pytest.raises(WorkloadError):
            LoadSweep(lambda: None, loads=[0.2], offered_load=0.3)


class TestCommandLine:
    def test_workload_subcommand_prints_sweep(self, capsys):
        from repro.__main__ import main
        code = main(["workload", "--cabs", "4", "--loads", "0.1,0.3",
                     "--duration-ms", "0.5", "--warmup-ms", "0.25"])
        out = capsys.readouterr().out
        assert code == 0
        assert "load 0.10" in out
        assert "load 0.30" in out

    def test_workload_rejects_bad_mesh(self, capsys):
        from repro.__main__ import main
        assert main(["workload", "--mesh", "nope"]) == 2
