#!/usr/bin/env python3
"""Docstring and ``__all__`` conventions checker (stdlib-only).

The CI docs job and ``tests/test_docs.py`` run this over ``src/repro``.
It enforces, without third-party linters:

* every module has a module docstring (pydocstyle D100/D104);
* every package ``__init__.py`` declares ``__all__``;
* every module on the curated :data:`PUBLIC_MODULES` list declares
  ``__all__`` — these are the modules user code imports from directly.

Exit status 0 when clean; 1 with one ``path: problem`` line per finding.

Run:  python tools/check_docstrings.py [src-root]
"""

from __future__ import annotations

import ast
import pathlib
import sys

#: Non-package modules whose names are part of the public API surface;
#: each must declare ``__all__``.  Extend this list when a module starts
#: being imported from directly by user code or examples.
PUBLIC_MODULES = {
    "repro/errors.py",
    "repro/collectives/group.py",
    "repro/collectives/tree.py",
    "repro/datalink/protocol.py",
    "repro/faults/campaigns.py",
    "repro/faults/injector.py",
    "repro/faults/report.py",
    "repro/faults/scenario.py",
    "repro/hardware/cab.py",
    "repro/hardware/dma.py",
    "repro/hardware/fiber.py",
    "repro/hardware/hub.py",
    "repro/hardware/hub_port.py",
    "repro/hardware/vme.py",
    "repro/kernel/mailbox.py",
    "repro/observe/export.py",
    "repro/observe/metrics.py",
    "repro/observe/observatory.py",
    "repro/observe/sampler.py",
    "repro/resilience/breaker.py",
    "repro/resilience/detector.py",
    "repro/resilience/monitor.py",
    "repro/resilience/report.py",
    "repro/resilience/rto.py",
    "repro/sim/trace.py",
    "repro/stats/recorders.py",
    "repro/stats/tables.py",
    "repro/system/builder.py",
    "repro/transport/base.py",
    "repro/transport/reqresp.py",
    "repro/workload/driver.py",
    "repro/workload/experiments.py",
}


def _declares_all(tree: ast.Module) -> bool:
    for node in tree.body:
        if isinstance(node, ast.Assign):
            if any(getattr(target, "id", None) == "__all__"
                   for target in node.targets):
                return True
        elif isinstance(node, ast.AnnAssign):
            if getattr(node.target, "id", None) == "__all__":
                return True
    return False


def check(src_root: pathlib.Path) -> list[str]:
    """Return one ``path: problem`` line per convention violation."""
    problems = []
    for path in sorted(src_root.rglob("*.py")):
        rel = path.relative_to(src_root).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=rel)
        if ast.get_docstring(tree) is None:
            problems.append(f"{rel}: missing module docstring")
        needs_all = path.name == "__init__.py" or rel in PUBLIC_MODULES
        if needs_all and not _declares_all(tree):
            problems.append(f"{rel}: public module without __all__")
    return problems


def main(argv: list[str]) -> int:
    src_root = pathlib.Path(argv[1]) if len(argv) > 1 else \
        pathlib.Path(__file__).resolve().parent.parent / "src"
    missing = [rel for rel in PUBLIC_MODULES
               if not (src_root / rel).exists()]
    problems = [f"{rel}: listed in PUBLIC_MODULES but does not exist"
                for rel in missing]
    problems += check(src_root)
    for problem in problems:
        print(problem)
    if problems:
        print(f"\n{len(problems)} docstring/__all__ problem(s)",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
