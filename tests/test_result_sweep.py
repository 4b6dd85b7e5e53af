"""``tools/result_sweep.py``: same answers over many seeds.

The pinned sweep in ``data/result_sweep_scale02.json`` was captured on
the commit before the first hand-off elision (PR 17's parent): 3 seeds
x 3 single-process e2e workloads at ``--scale 0.2``.  A change may move
the event counts recorded there; it may not move one digest.

``data/result_sweep_partitioned.json`` pins the smallest cell of the
partitioned leg (``escl-torus-64``, seed 1989, 2 partitions, clean,
scale 0.2), captured on the commit before envelopes became bytes; the
full leg is ``tools/result_sweep.py``'s to run.
"""

import json
import pathlib

import pytest

PINNED = pathlib.Path(__file__).parent / "data" / "result_sweep_scale02.json"
PINNED_PARTITIONED = PINNED.with_name("result_sweep_partitioned.json")


@pytest.fixture(scope="module")
def tool(load_script):
    return load_script("tools/result_sweep.py")


def test_seed_lists_take_ranges_and_drop_duplicates(tool):
    assert tool.parse_seeds("1989,4242,1..4,3") == [1989, 4242, 1, 2, 3, 4]


def test_sweep_reproduces_the_parent_capture(tool, capsys):
    pinned = json.loads(PINNED.read_text())
    seeds = [int(seed) for seed in pinned["smallmsg-hub"]]
    assert len(seeds) == 3 and sorted(pinned) == sorted(tool.WORKLOAD_NAMES)
    current = tool.sweep(seeds, scale=0.2)
    assert tool.moved(pinned, current) == []
    assert tool.compare(pinned, current) == 0
    assert "0 fingerprint aspect(s) moved" in capsys.readouterr().out


def test_smallest_partitioned_cell_equals_single_and_the_pin(tool):
    pinned = json.loads(PINNED_PARTITIONED.read_text())
    rows, broken = tool.sweep_partitioned([1989], scale=0.2,
                                          cells=((2, None),))
    assert broken == []
    assert {tool.PARTITIONED: rows} == pinned
    digests = rows["1989"]["digests"]
    assert digests["p2"] == digests["single"]
    assert (2, None) in tool.CELLS and len(tool.CELLS) == 4


def test_compare_names_every_aspect_that_moved(tool, tmp_path, capsys):
    old = {"bulk-wire": {
        "7": {"events": 10, "digests": {"content": "a", "final_ns": "b"}},
        "8": {"events": 10, "digests": {"content": "a", "final_ns": "b"}}}}
    new = {"bulk-wire": {
        "7": {"events": 6, "digests": {"content": "a", "final_ns": "b"}},
        "8": {"events": 6, "digests": {"content": "a", "final_ns": "X"}}}}
    assert tool.moved(old, {"bulk-wire": {"7": new["bulk-wire"]["7"]}}) \
        == [("bulk-wire", "8", "missing")]
    for name, document in (("old.json", old), ("new.json", new)):
        (tmp_path / name).write_text(json.dumps(document))
    same = [str(tmp_path / "old.json")] * 2
    assert tool.main(["--compare", *same]) == 0
    capsys.readouterr()
    assert tool.main(["--compare", str(tmp_path / "old.json"),
                      str(tmp_path / "new.json")]) == 1
    out = capsys.readouterr().out
    assert "MOVED bulk-wire seed 8: final_ns" in out
    assert "events          20 ->          12" in out  # shown, not gated
    assert "1 fingerprint aspect(s) moved" in out
