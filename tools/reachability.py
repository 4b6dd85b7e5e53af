#!/usr/bin/env python3
"""Reachability census (method and table: ``docs/REACHABILITY.md``).

``PYTHONPATH=src:tools pytest -p reachability --reachability-out A.json ...``
profiles the session, forked ``multiprocessing`` children (the scale-out
workers) included, and merges every ``(file, function, first line)`` called
under ``src/repro`` into ``A.json``; ``reachability.py --report A.json B.json``
joins two such files with an ``ast`` listing of every ``def``.
"""
import ast
import json
import multiprocessing.util
import os
import sys
import threading
from multiprocessing.connection import Connection
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src" / "repro") + os.sep
_codes = set()
_out = None


def _profile(frame, event, _arg):
    if event == "call":
        _codes.add(frame.f_code)


def _load(path):
    path = Path(path)
    return set(map(tuple, json.loads(path.read_text()))) if path.exists() \
        else set()


def _keys():
    # A copy: in a child the profile hook is still on and adds codes.
    called = [(os.path.abspath(code.co_filename), code)
              for code in list(_codes)]
    return {(path[len(SRC):], code.co_name, code.co_firstlineno)
            for path, code in called if path.startswith(SRC)}


class _Out:
    """The session's output path; also the handle that arms each child.

    A forked ``multiprocessing`` child keeps the inherited profile hook
    but exits through ``os._exit``, so it writes its own codes to
    ``<out>.<pid>``: from a finalizer when it exits by itself, and before
    each ``Connection.send`` that follows a new call, because a parent
    may SIGKILL it as soon as it has reported (the scale-out coordinator
    does).  ``multiprocessing`` clears its finalizer registry right after
    the fork, so both are armed from its after-fork hook, which runs
    later.
    """

    def __init__(self, path):
        self.path = path
        self.dumped = 0

    def arm(self):
        _codes.clear()
        send = Connection.send

        def dump_then_send(conn, obj):
            self.dump()
            send(conn, obj)
        Connection.send = dump_then_send
        multiprocessing.util.Finalize(None, self.dump, exitpriority=0)

    def dump(self):
        if len(_codes) != self.dumped:
            self.dumped = len(_codes)
            # Write, then rename: a SIGKILL mid-write keeps the last dump.
            path = f"{self.path}.{os.getpid()}"
            Path(f"{path}.part").write_text(json.dumps(sorted(_keys())))
            os.replace(f"{path}.part", path)

    def children(self):
        """``(file, complete)`` for every child's dump."""
        out = Path(self.path)
        for path in out.parent.glob(f"{out.name}.*"):
            pid, _, part = path.name[len(out.name) + 1:].partition(".")
            if pid.isdigit() and part in ("", "part"):
                yield path, not part


def pytest_addoption(parser):
    parser.addoption("--reachability-out", default="reachability.json")


def _install():
    threading.setprofile(_profile)
    sys.setprofile(_profile)


def pytest_sessionstart(session):
    global _out
    _out = _Out(session.config.getoption("--reachability-out"))
    multiprocessing.util.register_after_fork(_out, _Out.arm)
    _install()


# Per test too: one that runs cProfile (traced e2e) leaves the hook cleared.
pytest_runtest_setup = _install


def pytest_sessionfinish(session):
    sys.setprofile(None)
    seen = _load(_out.path) | _keys()
    for child, complete in _out.children():
        if complete:
            seen |= _load(child)
        child.unlink()
    Path(_out.path).write_text(json.dumps(sorted(seen)))


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
