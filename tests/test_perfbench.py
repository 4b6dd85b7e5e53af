"""The table cells' contract: the model computes what it computed.

``tools/result_sweep.py`` writes the pins; the ``written`` fixture
recomputes its document once and these tests hold it to
``data/pins.json`` and the goldens:

* **Golden timelines** — the full traced interleaving of the
  ``hotspot`` and ``fault-campaign`` cells, captured on the
  pre-optimization engine: any reordering, gain or loss of an agenda
  entry shows up here.
* **Determinism** — a cell run twice in one process gives the same row
  and timeline.
* **Same answers as the parent** — every table cell's aspects equal
  ``pins.json``, which at its first writing reproduced the capture taken
  before the first hand-off elision.  The event count may fall; the
  result may not move.
* **The disabled-tracing hot path** and **no wall-clock harness**
  (``bench``, ``collectives --repeat`` and the old comparator flags are
  argparse errors; host time is judged by ``benchmarks/e2e``).
"""

import json
import pathlib

import pytest

from repro.__main__ import main
from repro.config import NectarConfig
from repro.hardware import Hub
from repro.sim import Simulator, Tracer

DATA = pathlib.Path(__file__).parent / "data"

GOLDEN = sorted(path.stem.replace("golden_timeline_", "")
                for path in DATA.glob("golden_timeline_*.json"))

TABLE = ("collective-exchange", "collective-hub", "collective-tree",
         "fault-campaign", "hotspot", "scaleout-hypercube-64",
         "scaleout-torus-256", "scaleout-torus-64")


class TestGoldenTimelines:
    def test_goldens_exist(self, result_sweep):
        assert GOLDEN == sorted(result_sweep.GOLDEN)

    @pytest.mark.parametrize("name", GOLDEN)
    def test_timeline_matches_pre_optimization_capture(self, name, written):
        """The optimized engine replays the exact pre-optimization
        interleaving: same events, same order, same timestamps."""
        golden = json.loads(
            (DATA / f"golden_timeline_{name}.json").read_text())["records"]
        current = written[2][name]
        assert len(current) == len(golden), (
            f"{name}: {len(current)} traced events, golden has {len(golden)}")
        assert current == golden


class TestDeterminism:
    @pytest.mark.parametrize("name", ("hotspot",))
    def test_repeat_runs_share_a_digest(self, name, written, result_sweep):
        document, _broken, timelines = written
        row, timeline = result_sweep.traced_cell(name)
        assert {"1989": row} == document[name]
        assert timeline == timelines[name]

    @pytest.mark.parametrize("name", TABLE)
    def test_result_digest_equals_the_pre_elision_capture(self, name, pinned,
                                                          written,
                                                          result_sweep):
        document, broken, _timelines = written
        assert broken == []
        assert result_sweep.moved({name: pinned[name]},
                                  {name: document[name]}) == []

    def test_result_digest_ignores_the_event_count(self, pinned, result_sweep):
        row = pinned["hotspot"]["1989"]
        fewer = {**row, "events": row["events"] - 1}
        assert result_sweep.moved({"hotspot": {"1989": row}},
                                  {"hotspot": {"1989": fewer}}) == []

    def test_wire_integrity_delivers_every_message(self, pinned, result_sweep):
        for seed in result_sweep.PIN_SEEDS:
            outcome = result_sweep.run_workload("bulk-wire", seed,
                                                result_sweep.PIN_SCALE)
            assert outcome.ops_failed == 0
            # Every receiver's count and content hash cover every message
            # addressed to it: a lost, corrupted or reordered-by-sender
            # fragment moves them.
            assert sorted(outcome.fingerprint["delivered"]) \
                == ["cab0", "cab1", "cab2", "cab3"]
            assert outcome.digests() \
                == pinned["bulk-wire"][str(seed)]["digests"]


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
