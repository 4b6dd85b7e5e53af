"""Unit tests for the measurement utilities (repro.stats)."""

import random

import pytest

from repro.stats import (ExperimentRow, ExperimentTable, LatencyHistogram,
                         LatencyRecorder, ThroughputMeter, percentile)


class TestLatencyRecorder:
    def test_basic_statistics(self):
        recorder = LatencyRecorder()
        for sample in (1_000, 2_000, 3_000, 4_000):
            recorder.add(sample)
        assert recorder.count == 4
        assert recorder.mean == 2_500
        assert recorder.minimum == 1_000
        assert recorder.maximum == 4_000
        assert recorder.mean_us == 2.5

    def test_percentiles(self):
        recorder = LatencyRecorder()
        for sample in range(1, 101):
            recorder.add(sample * 1_000)
        assert recorder.p(0.50) == 50_000
        assert recorder.p(0.95) == 95_000
        assert recorder.p(1.0) == 100_000

    def test_empty_recorder(self):
        recorder = LatencyRecorder()
        assert recorder.mean == 0.0
        assert recorder.summary() == {"count": 0}
        assert len(recorder) == 0

    def test_summary_fields(self):
        recorder = LatencyRecorder("x")
        recorder.add(10_000)
        summary = recorder.summary()
        assert summary["count"] == 1
        assert summary["mean_us"] == 10.0
        assert summary["p99_us"] == 10.0


class TestThroughputMeter:
    def test_rates(self):
        meter = ThroughputMeter()
        meter.start(0)
        meter.record(500_000, 1_000_000)       # 0.5 MB by t=1 ms
        meter.record(500_000, 2_000_000)       # 1.0 MB by t=2 ms
        assert meter.bytes_total == 1_000_000
        assert meter.messages == 2
        assert meter.elapsed_ns == 2_000_000
        assert meter.mbytes_per_second == pytest.approx(500.0)
        assert meter.mbits_per_second == pytest.approx(4_000.0)

    def test_implicit_start(self):
        meter = ThroughputMeter()
        meter.record(100, 5_000)
        meter.record(100, 10_000)
        assert meter.elapsed_ns == 5_000

    def test_zero_window(self):
        meter = ThroughputMeter()
        assert meter.mbits_per_second == 0.0


class TestPercentileFunction:
    def test_single_sample(self):
        assert percentile([42.0], 0.0) == 42.0
        assert percentile([42.0], 0.5) == 42.0
        assert percentile([42.0], 1.0) == 42.0

    def test_unsorted_input(self):
        assert percentile([3.0, 1.0, 2.0], 1.0) == 3.0
        assert percentile([3.0, 1.0, 2.0], 0.0) == 1.0
        assert percentile([5.0, 4.0, 1.0, 3.0, 2.0], 0.5) == 3.0

    def test_input_not_mutated(self):
        samples = [3.0, 1.0, 2.0]
        percentile(samples, 0.5)
        assert samples == [3.0, 1.0, 2.0]

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)

    def test_fraction_out_of_range_raises(self):
        with pytest.raises(ValueError):
            percentile([1.0], -0.1)
        with pytest.raises(ValueError):
            percentile([1.0], 1.1)

    def test_empty_recorder_percentile_raises(self):
        with pytest.raises(ValueError):
            LatencyRecorder().p(0.99)


class TestLatencyHistogram:
    def test_exact_below_sub_bucket_threshold(self):
        histogram = LatencyHistogram(sub_bits=6)
        for value in range(64):
            histogram.record(value)
        assert histogram.percentile(0.0) == 0
        assert histogram.percentile(0.5) == 31
        assert histogram.percentile(1.0) == 63

    def test_relative_error_bounded(self):
        rng = random.Random(9)
        histogram = LatencyHistogram(sub_bits=6)
        samples = [rng.randrange(1, 50_000_000) for _ in range(5_000)]
        for sample in samples:
            histogram.record(sample)
        for fraction in (0.5, 0.9, 0.99, 0.999):
            exact = percentile(samples, fraction)
            approx = histogram.percentile(fraction)
            assert abs(approx - exact) / exact < 2 ** -histogram.sub_bits

    def test_single_sample(self):
        histogram = LatencyHistogram()
        histogram.record(123_456)
        assert histogram.percentile(0.0) == 123_456
        assert histogram.percentile(1.0) == 123_456
        assert histogram.mean == 123_456

    def test_empty_percentile_raises(self):
        histogram = LatencyHistogram()
        assert histogram.mean == 0.0
        assert histogram.summary() == {"count": 0}
        with pytest.raises(ValueError):
            histogram.percentile(0.5)

    def test_fraction_out_of_range_raises(self):
        histogram = LatencyHistogram()
        histogram.record(1)
        with pytest.raises(ValueError):
            histogram.percentile(1.5)

    def test_negative_value_raises(self):
        with pytest.raises(ValueError):
            LatencyHistogram().record(-1)

    def test_weighted_record(self):
        histogram = LatencyHistogram()
        histogram.record(10, count=99)
        histogram.record(1_000_000)
        assert histogram.count == 100
        assert histogram.percentile(0.5) == 10
        assert histogram.percentile(0.999) == 1_000_000

    def test_merge(self):
        merged, other = LatencyHistogram(), LatencyHistogram()
        for value in (100, 200, 300):
            merged.record(value)
        for value in (5, 400_000):
            other.record(value)
        merged.merge(other)
        assert merged.count == 5
        assert merged.minimum == 5
        assert merged.maximum == 400_000
        assert merged.percentile(0.0) == 5

    def test_merge_resolution_mismatch_raises(self):
        with pytest.raises(ValueError):
            LatencyHistogram(sub_bits=6).merge(LatencyHistogram(sub_bits=4))

    def test_summary_fields(self):
        histogram = LatencyHistogram()
        histogram.record(10_000)
        summary = histogram.summary()
        assert summary["count"] == 1
        assert summary["p999_us"] == 10.0
        assert summary["min_us"] == summary["max_us"] == 10.0


class TestExperimentTable:
    def test_render_contains_everything(self):
        table = ExperimentTable("E0", "demo experiment")
        table.add("latency", "< 30 µs", "29.5 µs", True)
        table.add("bandwidth", "100 Mb/s", "99.8 Mb/s", False)
        table.add("informational", "-", "n/a")
        text = table.render()
        assert "E0: demo experiment" in text
        assert "PASS" in text
        assert "MISS" in text
        assert "29.5 µs" in text

    def test_all_ok_ignores_informational(self):
        table = ExperimentTable("E0", "t")
        table.add("a", "x", "y", True)
        table.add("b", "x", "y")          # informational row
        assert table.all_ok
        table.add("c", "x", "y", False)
        assert not table.all_ok

    def test_row_status(self):
        assert ExperimentRow("m", "p", "v", True).status() == "PASS"
        assert ExperimentRow("m", "p", "v", False).status() == "MISS"
        assert ExperimentRow("m", "p", "v").status() == "-"

    def test_check_prints_then_raises_naming_every_miss(self, capsys):
        table = ExperimentTable("E0", "t")
        table.add("latency", "< 30 µs", "29.5 µs", True)
        table.add("informational", "-", "n/a")
        table.check()                     # PASS + informational only
        assert capsys.readouterr().out == "\n" + table.render() + "\n"

        table.add("bandwidth", "100 Mb/s", "12.0 Mb/s", False)
        table.add("setup", "700 ns", "910 ns", False)
        with pytest.raises(AssertionError) as excinfo:
            table.check()
        message = str(excinfo.value)
        assert "bandwidth" in message and "setup" in message
        assert "latency" not in message and "informational" not in message
        # The table is printed before the raise, MISS rows included.
        assert "12.0 Mb/s  MISS" in capsys.readouterr().out

    def test_alignment(self):
        table = ExperimentTable("E0", "t")
        table.add("short", "a", "b", True)
        table.add("a much longer metric name", "c", "d", True)
        lines = table.render().splitlines()
        # Header separator matches column widths.
        assert lines[2].startswith("-" * len("a much longer metric name"))
