#!/usr/bin/env python3
"""Reachability census (method and table: ``docs/REACHABILITY.md``).

``PYTHONPATH=src:tools pytest -p reachability --reachability-out A.json ...``
profiles the session and merges every ``(file, function, first line)`` called
under ``src/repro`` into ``A.json``; ``reachability.py --report A.json B.json``
joins two such files with an ``ast`` listing of every ``def``.
"""
import ast
import json
import os
import sys
import threading
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src" / "repro") + os.sep
_codes = set()


def _profile(frame, event, _arg):
    if event == "call":
        _codes.add(frame.f_code)


def _load(path):
    path = Path(path)
    return set(map(tuple, json.loads(path.read_text()))) if path.exists() \
        else set()


def pytest_addoption(parser):
    parser.addoption("--reachability-out", default="reachability.json")


def _install():
    threading.setprofile(_profile)
    sys.setprofile(_profile)


# Per test too: one that runs cProfile (traced e2e) leaves the hook cleared.
pytest_sessionstart = pytest_runtest_setup = _install


def pytest_sessionfinish(session):
    sys.setprofile(None)
    out = session.config.getoption("--reachability-out")
    called = ((os.path.abspath(code.co_filename), code) for code in _codes)
    seen = _load(out) | {(path[len(SRC):], code.co_name, code.co_firstlineno)
                         for path, code in called if path.startswith(SRC)}
    Path(out).write_text(json.dumps(sorted(seen)))


def report(first, second):
    """Per package: function lines, by A, by B only, by neither; then
    every function neither reached."""
    first, second = _load(first), _load(second)
    rows, unreached = {}, []
    for path in sorted(Path(SRC).rglob("*.py")):
        name = str(path)[len(SRC):]
        row = rows.setdefault(name.split(os.sep)[0], [0, 0, 0, 0])
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                top = min(d.lineno for d in node.decorator_list + [node])
                key, lines = (name, node.name, top), node.end_lineno - top + 1
                column = 1 if key in first else 2 if key in second else 3
                row[0] += lines
                row[column] += lines
                if column == 3:
                    unreached.append(f"{name}:{top} {node.name} ({lines})")
    rows["total"] = [sum(column) for column in zip(*rows.values())]
    for package, row in rows.items():
        print(f"| `{package}` |", " | ".join(map(str, row)), "|")
    print(*unreached, sep="\n")


if __name__ == "__main__":
    report(*sys.argv[2:]) if sys.argv[1:2] == ["--report"] \
        else sys.exit(__doc__)
