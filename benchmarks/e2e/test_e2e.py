"""Tests of the end-to-end benchmark itself (not part of tier-1).

Run explicitly with ``python -m pytest benchmarks/e2e``.  Every workload
goes through the same ``run.py`` code path the driver uses, shrunk to
1/20 scale; a full-scale run is what ``BENCHMARK.json`` records.
"""

import glob
import json
import multiprocessing
import os
import re
import sys
from multiprocessing import resource_tracker

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import compare  # noqa: E402
import run  # noqa: E402
from layers import LAYERS, layer_of  # noqa: E402

SCALE = "0.05"
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
CONTRACT = run.load_contract()
WORKLOADS = [entry["name"] for entry in CONTRACT["workloads"]]


def drive(tmp_path, capsys, workload, seed, trace, tag):
    """One ``run.py`` invocation; returns (last-line JSON, document)."""
    out = tmp_path / f"{workload}-{seed}-{trace}-{tag}.json"
    status = run.main(["--workload", workload, "--seed", str(seed),
                       "--seconds", "0", "--scale", SCALE,
                       "--trace", str(trace), "--out", str(out)])
    assert status == 0
    # No process of the benchmark's own outlives the run: workers joined,
    # and the resource tracker the shared-memory rings start stopped.
    assert multiprocessing.active_children() == []
    assert resource_tracker._resource_tracker._pid is None
    last = capsys.readouterr().out.strip().splitlines()[-1]
    return json.loads(last), json.loads(out.read_text())


def test_contract_file_is_well_formed():
    assert set(CONTRACT) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert CONTRACT["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(CONTRACT["workloads"]) <= 8
    assert 1 <= len(CONTRACT["end_to_end"]) <= 16
    assert 1 <= len(CONTRACT["per_layer"]) <= 128
    names = [entry["name"] for section in ("workloads", "end_to_end",
                                           "per_layer")
             for entry in CONTRACT[section]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for entry in CONTRACT["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    for entry in CONTRACT["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in CONTRACT["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for entry in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert UNIT.match(entry["unit"])
        assert entry["better"] in ("lower", "higher")
    end_to_end = {e["name"]: e for e in CONTRACT["end_to_end"]}
    assert end_to_end["setup_s"]["unit"] == "s" \
        and end_to_end["setup_s"]["better"] == "lower"
    # Set-up time gets the largest bound (the contract); memory keeps the
    # bound ISSUE 11 fixed; the simulated metrics' bounds only leave room
    # for the difference between seeds (compare.py holds one seed's
    # values exactly).
    assert end_to_end["setup_s"]["bound"] == max(
        e["bound"] for e in end_to_end.values())
    assert end_to_end["peak_rss_mib"]["bound"] == 0.05
    assert all(e["bound"] <= 0.10 for name, e in end_to_end.items()
               if name.startswith("sim_"))


def test_layer_map_covers_the_package():
    sources = glob.glob(os.path.join(run.SOURCE, "repro", "**", "*.py"),
                        recursive=True)
    assert len(sources) > 100
    unmapped = [path for path in sources if layer_of(path) == "other"]
    assert unmapped == []
    assert {layer_of(path) for path in sources} == set(LAYERS) - {"other"}
    assert layer_of(os.path.join(HERE, "run.py")) == "other"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(tmp_path, capsys, workload):
    """Schema, zero failures, and bit-identical simulated results on two
    runs of one seed and on two runs of a second seed."""
    expected = {e["name"]: e["unit"] for e in CONTRACT["end_to_end"]}
    results = {}
    for seed in (1989, 4242):
        for tag in "ab":
            line, document = drive(tmp_path, capsys, workload, seed, 0, tag)
            assert set(line) == {"correct", "attempted", "failed",
                                 "metrics"}
            assert line["correct"] is True
            assert line["attempted"] >= 1 and line["failed"] == 0
            assert {name: row["unit"] for name, row
                    in line["metrics"].items()} == expected
            assert all(row["value"] > 0 for row in line["metrics"].values())
            entry = document["workloads"][workload]
            assert document["schema"] == run.SCHEMA
            assert {"git_rev", "seed", "python", "cpus", "loadavg_start",
                    "loadavg_end"} <= set(document["manifest"])
            assert entry["ops_failed"] == 0
            assert entry["pin"] == "unpinned"  # pins are full-scale only
            assert len(entry["samples"]["run_s"]) >= run.MIN_REPETITIONS
            simulated = {name: row["value"] for name, row
                         in entry["end_to_end"].items()
                         if name.startswith("sim_")}
            results.setdefault(seed, []).append(
                (simulated, entry["fingerprint"], entry["events"]))
        first, second = results[seed]
        assert first == second
    assert results[1989][0][1] != results[4242][0][1]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(tmp_path, capsys, workload):
    expected = {e["name"]: e["unit"] for e in CONTRACT["per_layer"]}
    line, document = drive(tmp_path, capsys, workload, 1989, 1, "a")
    assert line["correct"] is True and line["failed"] == 0
    if workload == "torus-p2" and len(os.sched_getaffinity(0)) < 2:
        # Refused on a host that cannot run two partitions side by side.
        del expected["scaleout.speedup_vs_single"]
        assert any("speedup_vs_single not recorded" in note for note
                   in document["workloads"][workload]["notes"])
    assert {name: row["unit"] for name, row
            in line["metrics"].items()} == expected
    values = {name: row["value"] for name, row in line["metrics"].items()}
    assert sum(values[f"{layer}.share"] for layer in LAYERS) \
        == pytest.approx(1.0, abs=0.01)
    assert values["other.share"] < 0.03
    assert values["observe.result_match"] == 1
    assert values["sim.events"] > 0
    partitioned = workload == "torus-p2"
    assert (values["scaleout.wait_s"] + values["scaleout.exchange_s"] > 0) \
        == partitioned
    assert (values["scaleout.rounds"] > 0) == partitioned
    faulted = workload == "rpc-faulted"
    assert (values["faults.injected"] > 0) == faulted
    assert (values["resilience.reroutes"] > 0) == faulted
    assert document["workloads"][workload]["edges"]


def test_traced_call_counts_repeat(tmp_path, capsys):
    first, _ = drive(tmp_path, capsys, "smallmsg-hub", 1989, 1, "a")
    second, _ = drive(tmp_path, capsys, "smallmsg-hub", 1989, 1, "b")
    for layer in LAYERS:
        name = f"{layer}.calls"
        assert first["metrics"][name] == second["metrics"][name]


def test_compare_against_itself_is_all_same(tmp_path, capsys):
    _, document = drive(tmp_path, capsys, "smallmsg-hub", 1989, 0, "a")
    lines, regressed = compare.compare(document, document, CONTRACT)
    assert not regressed
    verdicts = [line.rsplit(None, 1)[-1] for line in lines
                if "bound" in line]
    assert verdicts == ["same"] * len(CONTRACT["end_to_end"])
    assert "  every exact value identical" in lines


def test_compare_flags_regressions_and_model_changes(tmp_path, capsys):
    _, base = drive(tmp_path, capsys, "bulk-wire", 1989, 0, "a")
    worse = json.loads(json.dumps(base))
    entry = worse["workloads"]["bulk-wire"]
    for key in ("value", "q1", "q3"):
        entry["end_to_end"]["peak_rss_mib"][key] *= 1.5
    entry["fingerprint"]["final_ns"] = "moved"
    entry["ops_failed"] = 1
    lines, regressed = compare.compare(base, worse, CONTRACT)
    assert regressed
    text = "\n".join(lines)
    assert "worse" in text and "fingerprint.final_ns (model-changed)" in text
    assert "more operations failed" in text


def test_compare_holds_simulated_metrics_exactly(tmp_path, capsys):
    """Same seed: the smallest move of a ``sim_*`` value is a verdict,
    whatever the bound; a base that delivered nothing does not crash."""
    _, base = drive(tmp_path, capsys, "bulk-wire", 1989, 0, "a")
    moved = json.loads(json.dumps(base))
    rows = moved["workloads"]["bulk-wire"]["end_to_end"]
    for key in ("value", "q1", "q3"):
        rows["sim_latency_p95_us"][key] *= 1.002
        rows["sim_goodput_mbps"][key] *= 1.002
    lines, regressed = compare.compare(base, moved, CONTRACT)
    verdicts = {line.split()[0]: line.rsplit(None, 1)[-1]
                for line in lines if "bound" in line}
    assert regressed
    assert verdicts["sim_latency_p95_us"] == "worse"
    assert verdicts["sim_goodput_mbps"] == "better"
    assert verdicts["sim_latency_p50_us"] == "same"
    for key in ("value", "q1", "q3"):
        rows["sim_goodput_mbps"][key] = 0.0
    moved["workloads"]["bulk-wire"]["ops_failed"] = 1
    lines, regressed = compare.compare(moved, base, CONTRACT)
    assert not regressed and any("n/a" in line for line in lines)
    lines, regressed = compare.compare(base, moved, CONTRACT)
    assert regressed and "  more operations failed: worse" in lines


def test_suite_keeps_the_gated_run_outcome():
    """A traced entry adds per-layer rows; it never replaces the gated
    run's operations, fingerprint or pin."""
    merged = {}
    run.fold(merged, {"ops_attempted": 256, "ops_failed": 256,
                      "fingerprint": {"content": "partitioned"},
                      "pin": "model-changed: content",
                      "end_to_end": {"run_s": {"value": 2.0}}}, traced=False)
    run.fold(merged, {"ops_attempted": 256, "ops_failed": 0,
                      "fingerprint": {"content": "single"}, "pin": "match",
                      "per_layer": {"sim.calls": {"value": 1}},
                      "edges": {"sim>kernel": 1}, "notes": []}, traced=True)
    assert merged["ops_failed"] == 256
    assert merged["fingerprint"] == {"content": "partitioned"}
    assert merged["pin"] == "model-changed: content"
    assert set(merged) >= {"end_to_end", "per_layer", "edges", "notes"}
