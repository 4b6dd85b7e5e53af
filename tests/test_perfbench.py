"""The digest table's contract: the model computes what it computed.

A change to the engine or a model is only admissible if behaviour is
bit-identical, so these tests pin:

* **Golden timelines** — the full traced event interleaving of two macro
  scenarios, captured on the pre-optimization engine and checked in.
  Any reordering, gain or loss of an agenda entry shows up here.
* **Determinism** — running a scenario twice back to back in one
  process produces the same result digest and the same event count
  (state leaking from one run into the next is a bug the pins alone
  do not catch).
* **Same answers as the parent** — every scenario's ``result_digest``
  equals the capture in ``data/perfbench_result_digests.json``, taken
  before the first hand-off elision.  The event count is free to fall;
  the result is not free to move.
* **The disabled-tracing hot path** — a disabled tracer records nothing
  and the counters still advance.
* **No wall-clock harness** — ``bench``, ``collectives --repeat`` and
  every old comparator flag are argparse errors; host time is judged
  by ``benchmarks/e2e``.
"""

import json
import pathlib
from dataclasses import replace

import pytest

from repro.__main__ import main
from repro.config import NectarConfig
from repro.hardware import Hub
from repro.perfbench import SCENARIOS, capture_timeline, run_scenario
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
    @pytest.mark.parametrize("name", ("hotspot", "timeout-storm"))
    def test_repeat_runs_share_a_digest(self, name):
        first = run_scenario(name)
        second = run_scenario(name)
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

    def test_wire_integrity_delivers_every_message(self):
        result = run_scenario("wire-integrity")
        delivered = result.fingerprint["delivered"]
        assert sorted(delivered) == ["cab0", "cab1", "cab2", "cab3"]
        # Every receiver's hash covers all 14 messages addressed to it —
        # a lost, corrupted or reordered-by-sender fragment changes it.
        assert all(len(digest) == 64 for digest in delivered.values())
        repeat = run_scenario("wire-integrity")
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


class TestBenchDocument:
    """The bench document is gone, and no comparator outlives it."""

    @pytest.mark.parametrize("flag", ["--compare", "--min-ratio=2",
                                      "--baseline-label=x"])
    def test_bench_has_no_second_comparator(self, flag, capsys):
        for argv in (["bench", "--smoke", flag], ["collectives", flag]):
            with pytest.raises(SystemExit) as caught:
                main(argv)
            assert caught.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'bench'" in err
        assert f"unrecognized arguments: {flag}" in err


def test_wall_clock_commands_are_gone(capsys):
    for argv in (["bench"], ["collectives", "--repeat", "2"]):
        with pytest.raises(SystemExit) as caught:
            main(argv)
        assert caught.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice" in err and "unrecognized arguments" in err
