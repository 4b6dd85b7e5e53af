"""Documentation conventions: links resolve, docstrings/__all__ present.

Runs the same stdlib checkers the CI docs job runs
(``tools/check_links.py``, ``tools/check_docstrings.py``) so a broken
intra-repo link or an undocumented public module fails locally too.
"""

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
