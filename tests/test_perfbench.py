"""The perf harness's correctness contract.

Speed work is only admissible if behaviour is bit-identical, so these
tests pin three things:

* **Golden timelines** — the full traced event interleaving of two macro
  scenarios, captured on the pre-optimization engine and checked in.
  Any reordering, gain or loss of an agenda entry shows up here.
* **Determinism** — running a scenario twice produces the same result
  digest and the same event count (the property
  ``run_scenario(repeat=...)`` enforces at measurement time, and CI's
  perf-smoke job asserts across processes).
* **Same answers as the parent** — every scenario's ``result_digest``
  equals the capture in ``data/perfbench_result_digests.json``, taken
  before the first hand-off elision.  The event count is free to fall;
  the result is not free to move.
* **The disabled-tracing hot path** — a disabled tracer records nothing
  and the counters still advance (the ``trace-disabled`` scenario then
  measures that this costs one attribute check per emission).
"""

import json
import pathlib
from dataclasses import replace

import pytest

from repro.config import NectarConfig
from repro.hardware import Hub
from repro.perfbench import (SCENARIOS, SMOKE_SCENARIOS, capture_timeline,
                             run_scenario)
from repro.sim import Simulator, Tracer

DATA = pathlib.Path(__file__).parent / "data"

GOLDEN = sorted(path.stem.replace("golden_timeline_", "")
                for path in DATA.glob("golden_timeline_*.json"))


class TestGoldenTimelines:
    def test_goldens_exist(self):
        assert GOLDEN, "no golden timeline captures checked in"

    @pytest.mark.parametrize("name", GOLDEN)
    def test_timeline_matches_pre_optimization_capture(self, name):
        """The optimized engine replays the exact pre-optimization
        interleaving: same events, same order, same timestamps."""
        document = json.loads(
            (DATA / f"golden_timeline_{name}.json").read_text())
        golden = [tuple(record) for record in document["records"]]
        current = [(time, source, kind)
                   for time, source, kind in capture_timeline(name)]
        assert len(current) == len(golden), (
            f"{name}: {len(current)} traced events, golden has {len(golden)}")
        assert current == golden


class TestDeterminism:
    @pytest.mark.parametrize("name", SMOKE_SCENARIOS)
    def test_repeat_runs_share_a_digest(self, name):
        first = run_scenario(name, repeat=1)
        second = run_scenario(name, repeat=1)
        assert first.result_digest == second.result_digest
        assert first.events == second.events
        assert first.sim_ns == second.sim_ns

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_result_digest_equals_the_pre_elision_capture(self, name):
        pinned = json.loads(
            (DATA / "perfbench_result_digests.json").read_text())
        assert sorted(pinned["result_digests"]) == sorted(SCENARIOS)
        assert run_scenario(name).result_digest \
            == pinned["result_digests"][name]

    def test_result_digest_ignores_the_event_count(self):
        result = run_scenario("timeout-storm")
        assert "events" not in result.fingerprint
        fewer = replace(result, events=result.events - 1)
        assert fewer.result_digest == result.result_digest
        assert fewer.summary()["events"] == result.events - 1

    def test_wire_integrity_delivers_every_message(self):
        result = run_scenario("wire-integrity", repeat=1)
        delivered = result.fingerprint["delivered"]
        assert sorted(delivered) == ["cab0", "cab1", "cab2", "cab3"]
        # Every receiver's hash covers all 14 messages addressed to it —
        # a lost, corrupted or reordered-by-sender fragment changes it.
        assert all(len(digest) == 64 for digest in delivered.values())
        repeat = run_scenario("wire-integrity", repeat=1)
        assert repeat.fingerprint == result.fingerprint

    def test_all_scenarios_are_registered_with_descriptions(self):
        for name, scenario in SCENARIOS.items():
            assert scenario.name == name
            assert scenario.description


class TestDisabledTracing:
    def test_disabled_tracer_records_nothing(self):
        cfg = NectarConfig(seed=1989)
        sim = Simulator()
        tracer = Tracer(sim, enabled=False)
        hub = Hub(sim, "hub0", cfg.hub, cfg.fiber, tracer=tracer)
        for _ in range(100):
            hub.count("probe")
        assert tracer.records == []
        assert hub.counters["probe"] == 100

    def test_trace_disabled_scenario_reports_zero_records(self):
        result = run_scenario("trace-disabled", repeat=1)
        assert result.fingerprint["records"] == 0
        assert result.fingerprint["counter"] == result.fingerprint["emissions"]


class TestBenchDocument:
    """``python -m repro bench``: the document CI reads, one comparator."""

    def test_fresh_document_carries_host_and_fingerprint(self, tmp_path,
                                                         capsys):
        from repro.__main__ import main
        out = tmp_path / "bench.json"
        assert main(["bench", "timeout-storm", "--repeat", "1",
                     "--label", "a", "--out", str(out)]) == 0
        assert main(["bench", "timeout-storm", "--repeat", "1",
                     "--label", "b", "--out", str(out)]) == 0
        runs = json.loads(out.read_text())["runs"]
        assert list(runs) == ["a", "b"]  # capture order, earlier run kept
        for run in runs.values():
            assert set(run["host"]) == {"cpus", "machine", "python"}
            assert run["host"]["cpus"] >= 1
            row = run["scenarios"]["timeout-storm"]
            # The CI collectives job reads fingerprint.finish_ns.
            assert row["fingerprint"] == {"final_now": row["sim_ns"]}
        assert "timeout-storm" in capsys.readouterr().out

    def test_checked_in_runs_are_summary_rows(self):
        document = json.loads(
            (DATA.parents[1] / "BENCH_engine.json").read_text())
        pins = json.loads((DATA / "perfbench_result_digests.json")
                          .read_text())["result_digests"]
        for label, run in document["runs"].items():
            for name, row in run["scenarios"].items():
                assert set(row) == {"events", "sim_ns", "wall_s",
                                    "events_per_sec",
                                    "result_digest"}, (label, name)
                assert row["result_digest"] == pins[name], (label, name)

    @pytest.mark.parametrize("flag", ["--compare", "--min-ratio=2",
                                      "--baseline-label=x"])
    def test_bench_has_no_second_comparator(self, flag, capsys):
        from repro.__main__ import main
        with pytest.raises(SystemExit) as caught:
            main(["bench", "--smoke", flag])
        assert caught.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
