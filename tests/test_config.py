"""Unit tests for configuration validation and derivation."""

import ast
from dataclasses import MISSING, fields, replace
from pathlib import Path

import pytest

from repro.config import (COPY_BYTES_PER_NS, DATA_MEMORY_BYTES, FIBER_MBITS,
                          INPUT_QUEUE_BYTES, MEMORY_BANDWIDTH_MBYTES,
                          PAGE_BYTES, PORT_COMMAND_CYCLES, PROTECTION_DOMAINS,
                          SETUP_CYCLES, THREAD_SWITCH_NS, TRANSFER_CYCLES,
                          TRANSPORT_HEADER_BYTES, VME_BANDWIDTH_MBYTES,
                          FiberConfig, HubConfig, NectarConfig)
from repro.errors import ConfigError
from repro.hardware.frames import FRAMING_BYTES

ROOT = Path(__file__).resolve().parents[1]
#: Where a caller may set a config field; ``src/repro/config.py`` itself
#: (defaults and presets) does not count.
CALLER_DIRS = ("src", "benchmarks", "tools", "examples", "tests")


class TestDefaults:
    def test_paper_values(self):
        cfg = NectarConfig()
        assert cfg.hub.cycle_ns == 70
        assert cfg.hub.num_ports == 16
        assert cfg.hub.setup_ns == 700
        assert cfg.hub.transfer_ns == 350
        assert INPUT_QUEUE_BYTES == 1024
        assert FIBER_MBITS == 100.0
        assert DATA_MEMORY_BYTES == 1 << 20
        assert MEMORY_BANDWIDTH_MBYTES == 66.0
        assert VME_BANDWIDTH_MBYTES == 10.0
        assert PROTECTION_DOMAINS == 32
        assert PAGE_BYTES == 1024
        assert COPY_BYTES_PER_NS == pytest.approx(0.02)

    def test_thread_switch_in_paper_band(self):
        assert 10_000 <= THREAD_SWITCH_NS <= 15_000

    def test_hub_cycle_decomposition(self):
        # 4 (port) + 1 (controller) + 5 (transfer) = 10 cycles = 700 ns.
        total = PORT_COMMAND_CYCLES + 1 + TRANSFER_CYCLES
        assert total == SETUP_CYCLES
        assert total * HubConfig().cycle_ns == 700


class TestValidation:
    def test_rejects_tiny_hub(self):
        with pytest.raises(ConfigError):
            NectarConfig(hub=HubConfig(num_ports=1))

    def test_rejects_zero_cycle(self):
        with pytest.raises(ConfigError):
            NectarConfig(hub=HubConfig(cycle_ns=0))

    def test_rejects_bad_drop_probability(self):
        with pytest.raises(ConfigError):
            NectarConfig(fiber=FiberConfig(drop_probability=1.5))

    def test_rejects_oversized_packets(self):
        cfg = NectarConfig()
        with pytest.raises(ConfigError):
            replace(cfg,
                    transport=replace(cfg.transport, max_payload_bytes=2048))

    def test_rejects_zero_window(self):
        cfg = NectarConfig()
        with pytest.raises(ConfigError):
            replace(cfg, transport=replace(cfg.transport, window_packets=0))


class TestOverrides:
    def test_replace_copies_section(self):
        cfg = NectarConfig()
        new = replace(cfg, fiber=replace(cfg.fiber, drop_probability=0.1))
        assert new.fiber.drop_probability == 0.1
        assert cfg.fiber.drop_probability == 0.0

    def test_rng_deterministic_per_salt(self):
        cfg = NectarConfig()
        a = cfg.rng_stream("x").random()
        b = cfg.rng_stream("x").random()
        c = cfg.rng_stream("y").random()
        assert a == b
        assert a != c

    def test_rng_differs_by_seed(self):
        assert NectarConfig(seed=1).rng_stream("s").random() != \
            NectarConfig(seed=2).rng_stream("s").random()


class TestDerived:
    def test_fiber_ns_per_byte(self):
        assert FiberConfig().ns_per_byte == pytest.approx(80.0)

    def test_max_packet_fits_queue(self):
        cfg = NectarConfig()
        total = (cfg.transport.max_payload_bytes + TRANSPORT_HEADER_BYTES
                 + FRAMING_BYTES)
        assert total <= INPUT_QUEUE_BYTES


def config_sections():
    """The section dataclasses a :class:`NectarConfig` aggregates."""
    return [f.default_factory for f in fields(NectarConfig)
            if f.default_factory is not MISSING]


def keywords_passed(root):
    """Every keyword name passed to any call in the caller trees (by
    name only: a keyword counts for every section with a field of that
    name)."""
    names = set()
    config_py = root / "src" / "repro" / "config.py"
    for top in CALLER_DIRS:
        for path in sorted((root / top).rglob("*.py")):
            if path == config_py:
                continue
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Call):
                    names.update(k.arg for k in node.keywords if k.arg)
    return names


def test_every_config_field_is_set_by_some_caller():
    """A field nothing sets is a constant: it belongs at module level in
    ``repro/config.py`` (ROADMAP aim 2: every knob earns its keep)."""
    passed = keywords_passed(ROOT)
    unset = [f"{section.__name__}.{f.name}"
             for section in config_sections()
             for f in fields(section) if f.name not in passed]
    assert not unset, (
        f"{len(unset)} config field(s) that no call in "
        f"{', '.join(CALLER_DIRS)} sets; make them module constants: "
        f"{', '.join(unset)}")


def _callee(call: ast.Call):
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    return func.attr if isinstance(func, ast.Attribute) else None


def registry_aliases(tree):
    """``{variable: [function names]}`` for every variable assigned an
    entry of a registry (a module-level dict whose values are all bare
    names, e.g. ``builder = CAMPAIGNS[name]``): a call of the variable is
    a call of each registered function."""
    registries = {}
    for node in tree.body:
        value = getattr(node, "value", None)
        target = getattr(node, "target", None) or \
            (node.targets[0] if isinstance(node, ast.Assign) else None)
        if isinstance(value, ast.Dict) and isinstance(target, ast.Name) \
                and value.values and all(isinstance(v, ast.Name)
                                         for v in value.values):
            registries[target.id] = [v.id for v in value.values]
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) \
                and isinstance(node.value, ast.Subscript) \
                and isinstance(node.value.value, ast.Name) \
                and node.value.value.id in registries:
            for target in node.targets:
                if isinstance(target, ast.Name):
                    aliases[target.id] = registries[node.value.value.id]
    return aliases


def calls_seen(roots):
    """What the calls under ``roots`` pass, keyed by callee name: the
    keyword names each callee name is given; the callee names given
    ``*`` or ``**``; and the most positional arguments any call of each
    callee name passes.  ``partial(f, ...)`` counts as a call of ``f``,
    and a call through a registry entry as a call of every registered
    function (:func:`registry_aliases`).

    Callees are matched by name only: same-named methods of different
    classes still share what their calls pass."""
    keywords, starred, positional = {}, set(), {}
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            aliases = registry_aliases(tree)
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                name, args = _callee(node), node.args
                if name == "partial" and args:
                    name, args = _callee(ast.Call(args[0], [], [])), args[1:]
                if name is None:
                    continue
                passed = {k.arg for k in node.keywords if k.arg}
                spread = any(isinstance(a, ast.Starred) for a in args) \
                    or any(k.arg is None for k in node.keywords)
                for callee in aliases.get(name, [name]):
                    keywords.setdefault(callee, set()).update(passed)
                    if spread:
                        starred.add(callee)
                    positional[callee] = max(positional.get(callee, 0),
                                             len(args))
    return keywords, starred, positional


def defaulted_parameters(package):
    """``(label, callee name, parameter, positional slot)`` for every
    defaulted parameter of every module-level function and method under
    ``package``.  An ``__init__`` is called by its class name; a method's
    slot does not count ``self`` / ``cls``; keyword-only parameters have
    no slot."""
    found = []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        scopes = [(None, tree.body)] + [
            (node.name, node.body) for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)]
        for owner, body in scopes:
            for fn in body:
                if not isinstance(fn, (ast.FunctionDef,
                                       ast.AsyncFunctionDef)):
                    continue
                callee = owner if fn.name == "__init__" and owner \
                    else fn.name
                label = f"{path.stem}.{owner + '.' if owner else ''}" \
                    f"{fn.name}"
                args = fn.args.posonlyargs + fn.args.args
                skip = 1 if owner and args \
                    and args[0].arg in ("self", "cls") else 0
                first = len(args) - len(fn.args.defaults)
                for slot, arg in enumerate(args):
                    if slot >= first:
                        found.append((label, callee, arg.arg, slot - skip))
                for arg, default in zip(fn.args.kwonlyargs,
                                        fn.args.kw_defaults):
                    if default is not None:
                        found.append((label, callee, arg.arg, None))
    return found


def unset_parameters(package, caller_roots):
    """The defaulted parameters under ``package`` that no call under
    ``caller_roots`` sets: not by keyword to a callable of that name,
    not through ``*`` / ``**`` to one, not positionally."""
    keywords, starred, positional = calls_seen(caller_roots)
    return [f"{label}({name})"
            for label, callee, name, slot in defaulted_parameters(package)
            if name not in keywords.get(callee, ())
            and callee not in starred
            and (slot is None or positional.get(callee, 0) <= slot)]


def test_every_default_parameter_is_set_by_some_caller():
    """A defaulted parameter nothing sets is a constant: it belongs in
    the function body or at module level (ROADMAP aim 2), as the rule
    above holds for config fields."""
    unset = unset_parameters(ROOT / "src" / "repro",
                             [ROOT / top for top in CALLER_DIRS])
    assert not unset, (
        f"{len(unset)} defaulted parameter(s) that no call in "
        f"{', '.join(CALLER_DIRS)} sets; make them constants: "
        f"{', '.join(unset)}")


def test_default_parameter_scan_flags_what_nothing_sets(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "mod.py").write_text(
        "def by_keyword(a, b=1): pass\n"
        "def never(a, c=2): pass\n"
        "def through_star(a, d=3): pass\n"
        "class Box:\n"
        "    def __init__(self, e=4, f=5): pass\n"
        "    def put(self, g=6, *, h=7): pass\n")
    (tmp_path / "use.py").write_text(
        "by_keyword(0, b=9)\nnever(0)\nthrough_star(*args)\n"
        "Box(1).put(2)\n")
    assert unset_parameters(package, [tmp_path]) == [
        "mod.never(c)", "mod.Box.__init__(f)", "mod.Box.put(h)"]


def test_default_parameter_scan_keys_keywords_by_callee(tmp_path):
    """A keyword sets the parameter of the callee it is passed to, not
    every parameter of that name; ``partial`` and registry entries are
    calls of the function they hold."""
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "mod.py").write_text(
        "def lone(a, k=1): pass\n"
        "def other(a, k=1): pass\n"
        "def bound(a, m=1): pass\n"
        "def entry(a, n=1): pass\n"
        "REGISTRY = {'entry': entry}\n"
        "def dispatch(name, **params):\n"
        "    builder = REGISTRY[name]\n"
        "    return builder(0, **params)\n")
    (tmp_path / "use.py").write_text(
        "from functools import partial\n"
        "other(0, k=2)\nlone(0)\npartial(bound, m=3)(0)\n")
    assert unset_parameters(package, [tmp_path]) == ["mod.lone(k)"]
