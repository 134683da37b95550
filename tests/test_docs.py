"""Documentation stays truthful: links resolve, doctest blocks execute.

Runs the same checks as ``tools/check_docs.py`` (and the CI docs job) so
that a broken README example or a dangling cross-reference fails tier-1
locally, not just in CI.
"""

import importlib.util
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

spec = importlib.util.spec_from_file_location("check_docs", REPO_ROOT / "tools" / "check_docs.py")
check_docs = importlib.util.module_from_spec(spec)
sys.modules["check_docs"] = check_docs
spec.loader.exec_module(check_docs)


def test_doc_files_exist():
    assert (REPO_ROOT / "README.md").exists()
    assert (REPO_ROOT / "docs" / "ARCHITECTURE.md").exists()


def test_links_and_path_references_resolve():
    problems = []
    for doc in check_docs.DOC_FILES:
        problems.extend(check_docs.check_links(doc))
    assert not problems, "\n".join(problems)


def test_doctest_blocks_execute():
    problems = []
    for doc in check_docs.DOC_FILES:
        problems.extend(check_docs.check_doctests(doc))
    assert not problems, "\n".join(problems)


def test_md_citations_in_code_resolve():
    assert check_docs.check_md_citations() == []


def test_md_citation_check_flags_only_missing_files(tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "README.md").write_text("")
    (tmp_path / "docs" / "GUIDE.md").write_text("")
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "module.py").write_text(
        '"""See README.md, docs/GUIDE.md, GUIDE.md and DESIGN.md."""\n'
    )
    assert check_docs.check_md_citations(tmp_path) == ["src/module.py: cites missing DESIGN.md"]


def test_github_slug_rules():
    assert check_docs.github_slug("Reweighting backends") == "reweighting-backends"
    assert check_docs.github_slug("Algorithm 1 in this codebase") == "algorithm-1-in-this-codebase"
    assert check_docs.github_slug("The autograd substrate (`repro/autograd`)") \
        == "the-autograd-substrate-reproautograd"
