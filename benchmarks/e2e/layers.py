"""Host-time attribution by layer, from outside the program.

A *layer* is a module (or group of modules) under ``src/repro``.  The
traced run wraps the drive call in ``cProfile.Profile(builtins=False)``
and folds every profiled function into its layer by file path:

* ``<layer>.calls`` — Python-level calls into the layer's functions
  (generator resumptions included); exact and repeatable;
* ``<layer>.self_s`` — ``tottime``: time inside the layer's own frames,
  children excluded (C builtins are not profiled separately, so their
  time stays with the frame that called them);
* ``<layer>.share`` — ``self_s`` over the sum of all layers;
* the caller→callee call counts that cross a layer boundary, kept in
  the JSON document as the boundary spans.

cProfile charges a fixed cost per call, so call-heavy layers (``sim``,
``kernel``) read larger than they are and byte-heavy ones
(``hardware.fiber``, whose work sits in a few long frames) read
smaller; use the shares to rank and to compare a layer with itself
across commits, and the untraced ``run_s`` to size a gain.
"""

from __future__ import annotations

import os
import pstats
from collections import defaultdict
from typing import Any

__all__ = ["LAYERS", "layer_of", "fold_profile"]

_HUB = {"hub", "hub_port", "hub_controller", "hub_commands",
        "hub_collectives", "crossbar"}
_FIBER = {"fiber", "frames", "checksum"}
_PLAN = {"wiring", "bom"}
_PACKAGES = {
    "sim": "sim", "datalink": "datalink", "transport": "transport",
    "kernel": "kernel", "workload": "workload", "stats": "stats",
    "observe": "observe", "faults": "faults", "resilience": "resilience",
    "scaleout": "scaleout", "topology": "topology", "system": "topology",
    "nectarine": "app", "nodeiface": "app", "collectives": "app",
    "ipsc": "app", "inet": "app", "apps": "app", "mapper": "app",
    "baseline": "app",
}
_TOP_LEVEL = {"config.py": "topology", "errors.py": "topology",
              "__init__.py": "topology", "__main__.py": "app",
              "perfbench.py": "app"}

#: Every layer a traced run reports, in table order.  ``other`` is what
#: is not under ``src/repro``: the benchmark's own frames and the
#: standard library.
LAYERS = ("sim", "hardware.hub", "hardware.fiber", "hardware.cab",
          "datalink", "transport", "kernel", "workload", "stats",
          "observe", "faults", "resilience", "scaleout", "topology",
          "app", "other")

_MARKER = os.sep + os.path.join("src", "repro") + os.sep


def layer_of(path: str) -> str:
    """The layer a source file belongs to (``other`` outside the package)."""
    _, marker, relative = path.rpartition(_MARKER)
    if not marker:
        return "other"
    parts = relative.split(os.sep)
    if len(parts) == 1:
        return _TOP_LEVEL.get(parts[0], "other")
    if parts[0] == "hardware":
        stem = os.path.splitext(parts[1])[0]
        if stem in _HUB:
            return "hardware.hub"
        if stem in _FIBER:
            return "hardware.fiber"
        if stem in _PLAN:
            return "topology"
        return "hardware.cab"
    return _PACKAGES.get(parts[0], "other")


def fold_profile(profiler) -> dict[str, Any]:
    """Fold a finished ``cProfile.Profile`` into per-layer rows + edges."""
    stats = pstats.Stats(profiler).stats  # type: ignore[attr-defined]
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    edges: dict[str, int] = defaultdict(int)
    for (path, _line, _name), (_cc, ncalls, tottime, _ct, callers) \
            in stats.items():
        layer = layer_of(path)
        calls[layer] += ncalls
        self_s[layer] += tottime
        for (caller_path, _cl, _cn), edge in callers.items():
            caller = layer_of(caller_path)
            if caller != layer:
                edges[f"{caller}->{layer}"] += edge[1]
    total = sum(self_s.values()) or 1.0
    return {
        "layers": {layer: {"calls": calls[layer],
                           "self_s": self_s[layer],
                           "share": self_s[layer] / total}
                   for layer in LAYERS},
        "edges": dict(sorted(edges.items(), key=lambda item: -item[1])),
    }
