"""``tools/result_sweep.py``: the one writer and reader of the pins.

``data/pins.json`` is what ``--repin`` wrote.  A change may move the
event counts recorded there; it may not move one digest.  At its first
writing it held every digest of the files it replaced (the e2e sweep
captured before the first hand-off elision, the partitioned cell
captured before envelopes became bytes, the scale-out protocol counts).
"""

import json
from types import SimpleNamespace

import pytest


def test_seed_lists_take_ranges_and_drop_duplicates(result_sweep, tmp_path,
                                                    capsys):
    assert result_sweep.parse_seeds("1989,4242,1..4,3") \
        == [1989, 4242, 1, 2, 3, 4]
    with pytest.raises(SystemExit) as caught:  # never an empty sweep
        result_sweep.main(["--seeds", "16..1", "--out",
                           str(tmp_path / "sweep.json")])
    assert caught.value.code == 2
    assert "empty seed range '16..1'" in capsys.readouterr().err


def test_sweep_reproduces_the_parent_capture(result_sweep, pinned, written,
                                             capsys):
    assert result_sweep.compare(pinned, written[0]) == 0
    assert "0 fingerprint aspect(s) moved" in capsys.readouterr().out


def test_pinned_cells_are_the_written_cells(pinned, written):
    assert sorted(pinned) == sorted(written[0])


def test_smallest_partitioned_cell_equals_single_and_the_pin(
        result_sweep, pinned, written):
    document, broken, _timelines = written
    assert broken == []
    # One cut no route crosses, one every flow crosses.
    assert result_sweep.PARTITIONED == ("escl-torus-64", "escl-hypercube-64")
    for name in result_sweep.PARTITIONED:
        rows = document[name]
        assert rows == pinned[name]
        for row in rows.values():
            digests = row["digests"]
            for partitions, faults in result_sweep.CELLS:
                suffix = f"+{faults}" if faults else ""
                assert digests[f"p{partitions}{suffix}"] \
                    == digests[f"single{suffix}"]
    assert (2, None) in result_sweep.CELLS and len(result_sweep.CELLS) == 4


def test_sweep_refuses_a_failed_run(result_sweep, monkeypatch, tmp_path):
    failed = SimpleNamespace(ops_failed=1, failure="cab3->cab0: timed out",
                             events=9, digests=dict)
    stub = lambda seed, scale: SimpleNamespace(  # noqa: E731
        build=lambda: (None, lambda until: failed))
    monkeypatch.setitem(result_sweep.load_workloads(), "smallmsg-hub", stub)
    out = tmp_path / "sweep.json"
    with pytest.raises(SystemExit) as caught:
        result_sweep.main(["--seeds", "7", "--out", str(out)])
    assert str(caught.value) == ("FAILED smallmsg-hub seed 7: 1 operation(s) "
                                 "failed: cab3->cab0: timed out")
    assert not out.exists()


def test_compare_names_every_aspect_that_moved(result_sweep, tmp_path,
                                               capsys):
    old = {"bulk-wire": {
        "7": {"events": 10, "digests": {"content": "a", "final_ns": "b"}},
        "8": {"events": 10, "digests": {"content": "a", "final_ns": "b"}}}}
    new = {"bulk-wire": {
        "7": {"events": 6, "digests": {"content": "a", "final_ns": "b"}},
        "8": {"events": 6, "digests": {"content": "a", "final_ns": "X"}}}}
    assert result_sweep.moved(old, {"bulk-wire": {"7": new["bulk-wire"]["7"]}}) \
        == [("bulk-wire", "8", "missing")]
    for name, document in (("old.json", old), ("new.json", new)):
        (tmp_path / name).write_text(json.dumps(document))
    same = [str(tmp_path / "old.json")] * 2
    assert result_sweep.main(["--compare", *same]) == 0
    capsys.readouterr()
    assert result_sweep.main(["--compare", str(tmp_path / "old.json"),
                              str(tmp_path / "new.json")]) == 1
    out = capsys.readouterr().out
    assert "MOVED bulk-wire seed 8: final_ns" in out
    assert "events          20 ->          12" in out  # shown, not gated
    assert "1 fingerprint aspect(s) moved" in out


def test_repin_takes_no_other_option(result_sweep, capsys):
    for extra in (["--seeds", "7"], ["--scale", "0.2"], ["--out", "x.json"],
                  ["--compare", "a.json", "b.json"]):
        with pytest.raises(SystemExit) as caught:
            result_sweep.main(["--repin", *extra])
        assert caught.value.code == 2
        assert "--repin" in capsys.readouterr().err
