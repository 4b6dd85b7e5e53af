"""``tools/perf_report.py --compare``: the CI perf gate.

The gate compares wall time for the same simulated work.  Three cases it
used to get wrong or hide: a change that removes agenda entries (the
event rate falls while the wall time falls), an old run with no usable
wall time (the ``nan`` ratio was swallowed and the gate passed), and two
runs that did not simulate the same thing.
"""

import pytest


@pytest.fixture(scope="module")
def report(load_script):
    return load_script("tools/perf_report.py")


def run(events, wall_s, sim_ns=4_500_000, **extra):
    return {"events": events, "sim_ns": sim_ns, "wall_s": wall_s,
            "events_per_sec": events / wall_s if wall_s else 0.0, **extra}


def test_event_eliding_change_reads_as_a_gain(report, capsys):
    old = {"hotspot": run(9743, 0.030, result_digest="aa")}
    new = {"hotspot": run(6782, 0.024, result_digest="aa")}
    assert new["hotspot"]["events_per_sec"] < old["hotspot"]["events_per_sec"]
    assert report.compare_runs(old, new, min_ratio=0.9) == 0
    out = capsys.readouterr().out
    assert "1.25x" in out and "FAIL" not in out
    assert "9,743" in out and "6,782" in out  # events: shown, not gated
    assert out.splitlines()[2].split()[-1] == "yes"


def test_slower_wall_fails_whatever_the_event_rate_says(report, capsys):
    old = {"hotspot": run(9743, 0.030)}
    new = {"hotspot": run(19486, 0.040)}  # more events/s, more seconds
    assert new["hotspot"]["events_per_sec"] > old["hotspot"]["events_per_sec"]
    assert report.compare_runs(old, new, min_ratio=0.9) == 1
    assert "FAIL: hotspot: speedup 0.75x" in capsys.readouterr().out
    assert report.compare_runs(old, new) == 0  # report-only without a bar


@pytest.mark.parametrize("old_wall, new_wall", [(0.0, 0.03), (0.03, 0.0),
                                                (float("nan"), 0.03)])
def test_unusable_wall_time_is_na_and_fails_the_gate(report, capsys,
                                                     old_wall, new_wall):
    old = {"hotspot": run(9743, old_wall), "storm": run(45600, 0.03)}
    new = {"hotspot": run(9743, new_wall), "storm": run(45600, 0.02)}
    assert report.wall_speedup(old["hotspot"], new["hotspot"]) is None
    assert report.compare_runs(old, new, min_ratio=0.9) == 1
    out = capsys.readouterr().out
    assert "n/a" in out and "FAIL: hotspot: no wall-time ratio" in out
    assert "FAIL: storm" not in out
    assert "over 1 scenarios): 1.50x" in out  # aggregate skips the n/a row


def test_different_simulated_work_is_na_and_fails_the_gate(report, capsys):
    old = {"hotspot": run(9743, 0.030, sim_ns=4_500_000)}
    new = {"hotspot": run(9743, 0.020, sim_ns=4_400_000)}
    assert report.compare_runs(old, new, min_ratio=0.9) == 1
    assert "FAIL: hotspot: no wall-time ratio" in capsys.readouterr().out


def test_digest_column_compares_result_digests_when_both_have_one(
        report, capsys):
    old = {"a": run(10, 1.0, result_digest="x"),
           "b": run(10, 1.0, digest="legacy"),
           "c": run(10, 1.0, result_digest="x")}
    new = {"a": run(9, 1.0, result_digest="x"),
           "b": run(9, 1.0, result_digest="y"),
           "c": run(9, 1.0, result_digest="z")}
    # A changed result is a failure with or without a wall-time bar.
    assert report.compare_runs(old, new) == 1
    out = capsys.readouterr().out
    assert [row.split()[-1] for row in out.splitlines()[2:5]] \
        == ["yes", "n/a", "NO"]
    assert out.count("FAIL") == 1 and "FAIL: c: result digest" in out
    assert report.compare_runs(old, new, min_ratio=0.5) == 1
    del old["c"], new["c"]
    assert report.compare_runs(old, new) == 0
