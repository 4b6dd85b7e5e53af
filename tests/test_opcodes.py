"""``tools/opcodes.py``: an e2e workload's opcodes per layer, keyed by
code object, at a tiny scale."""

import pytest


@pytest.fixture(scope="module")
def opcodes(load_script):
    return load_script("tools/opcodes.py")


def test_a_tiny_drive_counts_every_layer_it_reaches(opcodes):
    result = opcodes.measure("smallmsg-hub", seed=1989, scale=0.001)
    rows = result["layers"]
    assert result["operations"] > 0 and result["events"] > 0
    assert list(rows) == list(opcodes.load_benchmark()[2])
    # The engine is the largest layer, and every layer the datagram
    # path crosses executed opcodes.
    assert max(rows, key=lambda layer: rows[layer]["opcodes"]) == "sim"
    for layer in ("hardware.hub", "hardware.fiber", "hardware.cab",
                  "datalink", "transport", "kernel"):
        assert rows[layer]["opcodes"] > 0 and rows[layer]["calls"] > 0
    assert "sim" in opcodes.table(result).splitlines()[2]


def test_functions_sharing_file_line_and_name_stay_apart(opcodes):
    """Two dataclasses' generated ``__init__``s share ``(file, line,
    name)``: a profile keyed that way folds them into one row of no
    layer, the counter keys them by code object."""
    from dataclasses import dataclass

    @dataclass
    class First:
        x: int

    @dataclass
    class Second:
        y: int

    _, counts, calls = opcodes.count(lambda: (First(1), Second(2)))
    inits = [code for code in calls if code.co_name == "__init__"]
    assert len(inits) == 2
    assert len({(code.co_filename, code.co_firstlineno, code.co_name)
                for code in inits}) == 1
    assert all(counts[code] > 0 for code in inits)
