"""Tests for repro.observe: registry, sampler, exporters, CLI."""

import json

import pytest

from repro.errors import ObserveError, TopologyError
from repro.observe import MetricRegistry, MetricSampler, chrome_trace
from repro.sim import Simulator
from repro.topology import single_hub_system
from repro.__main__ import main


class TestRegistry:
    def test_duplicate_name_rejected(self):
        registry = MetricRegistry()
        registry.add("x.count", lambda: 0, kind="counter")
        with pytest.raises(ObserveError, match="duplicate metric name"):
            registry.add("x.count", lambda: 0, kind="counter")

    def test_duplicate_across_kinds_rejected(self):
        registry = MetricRegistry()
        registry.add("same", lambda: 0, kind="counter")
        with pytest.raises(ObserveError):
            registry.add("same", lambda: 0.0)

    def test_empty_name_rejected(self):
        with pytest.raises(ObserveError, match="non-empty"):
            MetricRegistry().add("", lambda: 0.0)

    def test_value_is_a_float_read(self):
        registry = MetricRegistry()
        level = {"n": 3}
        registry.add("level", lambda: level["n"])
        level["n"] = 7
        assert registry.value("level") == 7.0
        with pytest.raises(ObserveError, match="no metric named"):
            registry.value("missing")

    def test_snapshot_sorted_by_name(self):
        registry = MetricRegistry()
        registry.add("b", lambda: 2, kind="counter", unit="events")
        registry.add("a", lambda: 1, kind="counter")
        snapshot = registry.snapshot()
        assert list(snapshot) == ["a", "b"]
        assert snapshot["a"]["kind"] == "counter"
        assert snapshot["b"] == {"name": "b", "kind": "counter",
                                 "unit": "events", "value": 2.0}


class TestSampler:
    def test_samples_at_fixed_interval(self):
        sim = Simulator()
        sampler = MetricSampler(sim, MetricRegistry(), interval_ns=1000)
        ticks = {"n": 0}
        sampler.add_probe("ticks", lambda: float(ticks["n"]))
        sampler.start()
        ticks["n"] = 5
        sim.run(until=3500)
        series = sampler.series["ticks"]
        assert series.times == [1000, 2000, 3000]
        assert series.values == [5.0, 5.0, 5.0]

    def test_utilization_probe_clamped(self):
        sim = Simulator()
        sampler = MetricSampler(sim, MetricRegistry(), interval_ns=1000)
        state = {"bytes": 0}
        sampler.add_utilization_probe("u", lambda: state["bytes"], 8.0)
        sampler.start()

        def producer():
            state["bytes"] += 100          # 800 ns busy in a 1000 ns window
            yield sim.timeout(1000)
            state["bytes"] += 1000         # would be 8.0 -> clamped to 1.0
            yield sim.timeout(1000)
        sim.process(producer())
        sim.run(until=2500)
        series = sampler.series["u"]
        assert series.values[0] == pytest.approx(0.8)
        assert series.values[1] == 1.0

    def test_utilization_probe_carries_what_the_clamp_cuts(self):
        sim = Simulator()
        sampler = MetricSampler(sim, MetricRegistry(), interval_ns=1000)
        state = {"bytes": 0}
        sampler.add_utilization_probe("u", lambda: state["bytes"], 8.0)
        sampler.start()

        def producer():
            state["bytes"] += 300          # 2400 ns busy at once
            yield sim.timeout(1)
        sim.process(producer())
        sim.run(until=4500)
        assert sampler.series["u"].values == \
            pytest.approx([1.0, 1.0, 0.4, 0.0])

    @pytest.mark.parametrize("period_us", [10, 100])
    def test_port_util_sums_to_the_bytes_sent(self, period_us):
        # A fiber counts a packet's bytes when its tail leaves, so a
        # 10 us window sees a 64 us packet as one jump; the carried
        # excess still adds up to bytes_sent x 80 ns.
        system = single_hub_system(4)
        period = period_us * 1000
        observatory = system.observe(interval_ns=period)
        for pair, size in ((0, 800), (1, 200)):
            src, dst = system.cab(f"cab{pair}"), system.cab(f"cab{pair + 2}")
            inbox = dst.create_mailbox("inbox")

            def rx(dst=dst, inbox=inbox):
                for _ in range(3):
                    yield from dst.kernel.wait(inbox.get())

            def tx(src=src, dst=dst, size=size):
                for _ in range(3):
                    yield from src.transport.datagram.send(
                        dst.name, "inbox", size=size)
                    yield from src.kernel.sleep(50_000)
            dst.spawn(rx())
            src.spawn(tx())
        system.run(until=2_000_000)
        hub = system.hubs["hub0"]
        checked = 0
        for port in hub.ports:
            if port.out_fiber is None or not port.out_fiber.bytes_sent:
                continue
            series = observatory.series[f"hub0.p{port.index}.util"]
            busy = sum(series.values) * period
            expected = port.out_fiber.bytes_sent * hub.fiber_cfg.ns_per_byte
            assert abs(busy - expected) <= period, (port.index, busy,
                                                    expected)
            checked += 1
        assert checked >= 2

    def test_mid_run_snapshot_leaves_every_series_unchanged(self):
        # A read is pure: only the sampler's tick closes a utilization
        # window, so a snapshot between ticks consumes nothing.
        from repro.observe import scenarios
        from repro.sim import units
        from repro.workload import Workload

        def series(peek):
            system, kwargs = scenarios.build("quickstart", 1989,
                                             units.ms(2))
            observatory = system.observe(interval_ns=50_000, trace=False)

            def reader():
                yield 1_025_000
                if peek:
                    observatory.snapshot()
            system.sim.process(reader())
            Workload(system, **kwargs).run()
            return {name: track.values
                    for name, track in observatory.series.items()}

        plain, peeked = series(False), series(True)
        assert any(name.endswith(".util") for name in plain)
        assert peeked == plain

    def test_observed_run_timing_unchanged(self):
        plain = single_hub_system(4)
        _drive(plain)
        plain_t = _measure(plain)
        observed = single_hub_system(4)
        observed.observe(interval_ns=10_000)
        _drive(observed)
        assert _measure(observed) == plain_t


def _drive(system):
    a, b = system.cab("cab0"), system.cab("cab1")
    inbox = b.create_mailbox("inbox")
    done = {}

    def rx():
        yield from b.kernel.wait(inbox.get())
        done["t"] = system.now

    def tx():
        yield from a.transport.datagram.send("cab1", "inbox", size=256)
    b.spawn(rx())
    a.spawn(tx())
    system.run(until=2_000_000)
    system.delivered_at = done["t"]


def _measure(system):
    return system.delivered_at


class TestObservatory:
    def test_double_attach_rejected(self):
        system = single_hub_system(2)
        system.observe()
        with pytest.raises(TopologyError, match="already has an observatory"):
            system.observe()

    def test_zero_interval_rejected(self):
        system = single_hub_system(2)
        with pytest.raises(ObserveError, match=">= 1 ns, got 0"):
            system.observe(interval_ns=0)

    def test_port_series_present(self):
        system = single_hub_system(4)
        observatory = system.observe(interval_ns=10_000)
        _drive(system)
        names = set(observatory.series)
        for port in range(4):
            assert f"hub0.p{port}.queue_depth" in names
            assert f"hub0.p{port}.ready" in names
            assert f"hub0.p{port}.util" in names
        util = observatory.series["hub0.p0.util"]
        assert len(util.values) > 10
        assert all(0.0 <= value <= 1.0 for value in util.values)

    def test_queue_depth_probes_read_the_state_machines(self):
        """The controller's and ports' ``queue_depth`` probes report what
        they reported when the controller was a process draining a Store:
        commands *waiting* (the one in its cycle is not queued).  Values
        are those of the parent of PR 17 for this exact run."""
        from repro.config import NectarConfig
        from repro.sim import units
        from repro.workload import Workload
        system = single_hub_system(12, cfg=NectarConfig(seed=1989))
        observatory = system.observe(interval_ns=500, trace=False)
        Workload(system, pattern="uniform", arrivals="poisson", mode="open",
                 message_bytes=64, offered_load=0.3,
                 warmup_ns=units.ms(0.5), duration_ns=units.ms(2),
                 drain_ns=units.ms(0.5), salt="e2e").run()
        depth = {name: series for name, series in observatory.series.items()
                 if name.endswith(".queue_depth")}
        controller = depth.pop("hub0.controller.queue_depth")
        assert (controller.maximum, sum(controller.values)) == (4.0, 56.0)
        assert len(depth) == 16
        assert all(series.maximum == 0.0 for series in depth.values())

    def test_sweep_points_carry_metrics(self):
        from repro.workload import LoadSweep
        sweep = LoadSweep(lambda: single_hub_system(2), [0.1],
                          observe=True, message_bytes=128,
                          warmup_ns=50_000, duration_ns=200_000).run()
        point = sweep.points[0]
        assert point.metrics is not None
        assert any(name.endswith(".util")
                   for name in point.series_means)


class TestChromeTrace:
    def test_structure(self):
        system = single_hub_system(2)
        observatory = system.observe(interval_ns=10_000)
        _drive(system)
        doc = chrome_trace(system.tracer.records, observatory.series)
        text = json.dumps(doc)
        parsed = json.loads(text)
        events = parsed["traceEvents"]
        assert events, "no events exported"
        phases = {event["ph"] for event in events}
        assert phases <= {"M", "i", "C"}
        assert "C" in phases and "i" in phases
        for event in events:
            assert isinstance(event["pid"], int)
            if event["ph"] != "M":
                assert isinstance(event["ts"], float)
                assert event["ts"] >= 0.0
        instants = [e for e in events if e["ph"] == "i"]
        assert all(e["s"] == "t" for e in instants)

    def test_counter_events_carry_values(self):
        system = single_hub_system(2)
        observatory = system.observe(interval_ns=10_000)
        _drive(system)
        doc = chrome_trace(system.tracer.records, observatory.series)
        counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        assert counters
        assert all("value" in e["args"] for e in counters)


class TestCli:
    def test_quickstart_outputs(self, tmp_path):
        out = tmp_path / "trace.json"
        rc = main(["observe", "quickstart", "--out", str(out),
                   "--duration-ms", "1"])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["traceEvents"]
        metrics = tmp_path / "trace.metrics.jsonl"
        rows = [json.loads(line)
                for line in metrics.read_text().splitlines()]
        sampled = {row["metric"] for row in rows
                   if row["type"] == "sample"}
        # Acceptance criterion: per-port utilization and queue-depth
        # time series for the HUB.
        assert any(name.startswith("hub0.p") and name.endswith(".util")
                   for name in sampled)
        assert any(name.startswith("hub0.p")
                   and name.endswith(".queue_depth") for name in sampled)
        assert rows[-1]["type"] == "snapshot"

    def test_deterministic_under_fixed_seed(self, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert main(["observe", "quickstart", "--out", str(first),
                     "--duration-ms", "1", "--seed", "7"]) == 0
        assert main(["observe", "quickstart", "--out", str(second),
                     "--duration-ms", "1", "--seed", "7"]) == 0
        assert first.read_bytes() == second.read_bytes()
        assert (tmp_path / "a.metrics.jsonl").read_bytes() == \
            (tmp_path / "b.metrics.jsonl").read_bytes()

    def test_workload_observe_flag(self, tmp_path):
        out = tmp_path / "sweep.jsonl"
        rc = main(["workload", "--cabs", "2", "--loads", "0.1",
                   "--duration-ms", "0.5", "--warmup-ms", "0.2",
                   "--message-bytes", "128", "--observe", str(out)])
        assert rc == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(rows) == 1
        assert rows[0]["offered_load"] == 0.1
        assert rows[0]["series_means"]

    @pytest.mark.parametrize("argv", [
        ["workload", "--cabs", "20"],
        ["workload", "--cabs", "0"],
        ["workload", "--mesh", "0x2"],
        ["observe", "quickstart", "--interval-us", "-5"],
        ["observe", "quickstart", "--interval-us", "0"],
    ], ids=["cabs-20", "cabs-0", "mesh-0x2", "interval-us-minus-5",
            "interval-us-0"])
    def test_bad_model_input_exits_2(self, argv, tmp_path, capsys):
        out = tmp_path / "trace.json"
        if argv[0] == "observe":
            argv = argv + ["--out", str(out), "--duration-ms", "0.1"]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()


class TestTracerRing:
    def test_drop_oldest_and_counter(self):
        sim = Simulator()
        from repro.sim import Tracer
        tracer = Tracer(sim)
        tracer.set_limit(3)
        tracer.enable()
        for index in range(5):
            tracer.record("src", f"k{index}")
        records = tracer.records
        assert [r.kind for r in records] == ["k2", "k3", "k4"]
        assert tracer.dropped == 2
