"""Repository-wide conventions: links resolve, docstrings/__all__
present, no process-global id counters, no attribute written that
nothing reads, no fixed delay built as a ``Timeout`` only to be
yielded.

Runs the same stdlib checkers the CI docs job runs
(``tools/check_links.py``, ``tools/check_docstrings.py``) so a broken
intra-repo link or an undocumented public module fails locally too.
"""

import ast
import pathlib
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def _run_tool(name, *args):
    return subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / name), *args],
        capture_output=True, text=True)


def test_markdown_links_resolve():
    result = _run_tool("check_links.py", str(REPO_ROOT))
    assert result.returncode == 0, \
        f"broken markdown links:\n{result.stdout}"


def test_docstrings_and_all_exports():
    result = _run_tool("check_docstrings.py", str(REPO_ROOT / "src"))
    assert result.returncode == 0, \
        f"docstring/__all__ violations:\n{result.stdout}"


def test_architecture_doc_covers_every_package():
    """Every repro subpackage must appear in docs/ARCHITECTURE.md."""
    text = (REPO_ROOT / "docs" / "ARCHITECTURE.md").read_text()
    src = REPO_ROOT / "src" / "repro"
    for package in sorted(p.name for p in src.iterdir()
                          if p.is_dir() and (p / "__init__.py").exists()):
        assert f"repro.{package}" in text, \
            f"docs/ARCHITECTURE.md does not mention repro.{package}"


def test_readme_links_docs():
    text = (REPO_ROOT / "README.md").read_text()
    assert "docs/ARCHITECTURE.md" in text
    assert "docs/OBSERVABILITY.md" in text


def test_documentation_index_is_complete(load_script):
    """Every docs/*.md is linked from the README's index table."""
    check_links = load_script("tools/check_links.py")
    assert check_links.check_docs_index(REPO_ROOT) == []


def test_documentation_index_check_catches_omissions(load_script, tmp_path):
    """An unlisted docs file must fail the link checker."""
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "LISTED.md").write_text("# Listed\n")
    (tmp_path / "docs" / "ORPHAN.md").write_text("# Orphan\n")
    (tmp_path / "README.md").write_text(
        "[listed](docs/LISTED.md)\n")
    problems = load_script("tools/check_links.py").check(tmp_path)
    assert any("ORPHAN.md" in problem for problem in problems)
    assert not any("LISTED.md" in problem for problem in problems)


def _is_count(func):
    if isinstance(func, ast.Name):
        return func.id == "count"
    return (isinstance(func, ast.Attribute) and func.attr == "count"
            and isinstance(func.value, ast.Name)
            and func.value.id == "itertools")


def import_time_counters(root):
    """``path:line`` of every ``count(...)`` / ``itertools.count(...)``
    call under ``root`` that runs when its module is imported: at module
    or class scope, or in a decorator or a default argument."""
    found = []
    for path in sorted(root.rglob("*.py")):
        pending = [ast.parse(path.read_text(), str(path))]
        while pending:
            node = pending.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                pending.extend(getattr(node, "decorator_list", []))
                pending.extend(node.args.defaults)
                pending.extend(default for default in node.args.kw_defaults
                               if default is not None)
                continue
            if isinstance(node, ast.Call) and _is_count(node.func):
                found.append(f"{path.relative_to(root)}:{node.lineno}")
            pending.extend(ast.iter_child_nodes(node))
    return sorted(found)


def test_no_process_global_counters():
    """Ids are minted by the object that owns their scope: a counter
    shared by the whole interpreter makes a run's answer depend on what
    was built before it."""
    found = import_time_counters(REPO_ROOT / "src" / "repro")
    assert found == [], "process-global counters:\n" + "\n".join(found)


def test_counter_check_catches_import_time_calls(tmp_path):
    (tmp_path / "bad.py").write_text(
        "import itertools\n"
        "from itertools import count\n"
        "_ids = count(1)\n"
        "class Thing:\n"
        "    ids = itertools.count()\n"
        "def mint(ids=count(1)):\n"
        "    return next(ids)\n")
    (tmp_path / "good.py").write_text(
        "from itertools import count\n"
        "class Owner:\n"
        "    def __init__(self):\n"
        "        self._ids = count(1)\n")
    assert import_time_counters(tmp_path) == ["bad.py:3", "bad.py:5",
                                              "bad.py:6"]


#: Where an attribute may be read: everything that runs the model.
READER_DIRS = ("src", "tests", "benchmarks", "tools", "examples")
#: ``Enum`` reads ``_value_`` itself; a member sets it in ``__new__``.
EXEMPT_ATTRIBUTES = {"_value_"}


def unread_attributes(package, reader_roots):
    """``{name: "path:line"}`` of every attribute stored under
    ``package`` (``obj.name = ...``, ``obj.name += ...`` or a class-body
    annotation such as a dataclass field) that no expression under
    ``reader_roots`` loads and no string constant there contains as a
    whitespace-separated word (``getattr`` names, keys, prose).

    The scan works by name only, so it misses state that is:

    * stored under a name some other object's attribute reads;
    * named as a word in any string, prose included;
    * written only by key (``self.table[key] = value`` into a table
      nothing reads is a load of ``table``, not a store).
    """
    stored, loaded, words = {}, set(), set()
    for root in reader_roots:
        for path in sorted(root.rglob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            inside = path.is_relative_to(package)
            where = path.relative_to(package) if inside else None
            for node in ast.walk(tree):
                if isinstance(node, ast.Attribute):
                    if isinstance(node.ctx, ast.Load):
                        loaded.add(node.attr)
                    elif inside and isinstance(node.ctx, ast.Store):
                        stored.setdefault(node.attr,
                                          f"{where}:{node.lineno}")
                elif isinstance(node, ast.Constant) \
                        and isinstance(node.value, str):
                    words.update(node.value.split())
                elif inside and isinstance(node, ast.ClassDef):
                    for field in node.body:
                        if isinstance(field, ast.AnnAssign) \
                                and isinstance(field.target, ast.Name):
                            stored.setdefault(field.target.id,
                                              f"{where}:{field.lineno}")
    return {name: where for name, where in sorted(stored.items())
            if name not in loaded and name not in words
            and name not in EXEMPT_ATTRIBUTES}


def test_no_attribute_is_written_that_nothing_reads():
    """State nothing loads is work on every write and a field a reader
    must understand for nothing (ROADMAP aim 2)."""
    found = unread_attributes(REPO_ROOT / "src" / "repro",
                              [REPO_ROOT / top for top in READER_DIRS])
    assert found == {}, "written, never read:\n" + "\n".join(
        f"{name} ({where})" for name, where in found.items())


def test_unread_attribute_check_catches_them(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "mod.py").write_text(
        "from dataclasses import dataclass\n"
        "from enum import Enum\n"
        "@dataclass\n"
        "class Record:\n"
        "    kept: int = 0\n"
        "    stamped: int = 0\n"
        "class Counter:\n"
        "    def __init__(self):\n"
        "        self.hits = 0\n"
        "        self.misses = 0\n"
        "        self.named = 0\n"
        "    def hit(self, record):\n"
        "        self.hits += 1\n"
        "        record.stamped = 1\n"
        "        return record.kept\n"
        "class Op(Enum):\n"
        "    A = 1\n"
        "    def __new__(cls, value):\n"
        "        op = object.__new__(cls)\n"
        "        op._value_ = value\n"
        "        return op\n")
    (tmp_path / "use.py").write_text(
        "print(counter.hits, getattr(counter, 'named'))\n")
    assert unread_attributes(package, [tmp_path]) == {
        "misses": "mod.py:10", "stamped": "mod.py:6"}


def yielded_timeouts(root):
    """``path:line`` of every ``yield <expr>.timeout(...)`` under
    ``root``: a fixed delay a process waits out is ``yield n``, which
    allocates nothing (``repro.sim.process``)."""
    found = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Yield) \
                    and isinstance(node.value, ast.Call) \
                    and isinstance(node.value.func, ast.Attribute) \
                    and node.value.func.attr == "timeout":
                found.append(f"{path.relative_to(root)}:{node.lineno}")
    return found


def test_no_yielded_timeouts():
    found = yielded_timeouts(REPO_ROOT / "src" / "repro")
    assert found == [], "yield n instead of:\n" + "\n".join(found)


def test_yielded_timeout_check_catches_them(tmp_path):
    (tmp_path / "bad.py").write_text(
        "def body(sim):\n"
        "    yield sim.timeout(5)\n"
        "    deadline = sim.timeout(9)\n"
        "    yield sim.any_of([deadline])\n"
        "    yield 5\n")
    assert yielded_timeouts(tmp_path) == ["bad.py:2"]
