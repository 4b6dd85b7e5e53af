"""Repository-wide conventions: links resolve, docstrings/__all__
present, no process-global id counters, no fixed delay built as a
``Timeout`` only to be yielded.

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
