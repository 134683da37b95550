"""Documentation stays truthful: links resolve, doctest blocks execute,
quoted CLI flags and code names exist.

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


def test_cli_flags_quoted_in_docs_exist():
    problems = []
    for doc in check_docs.DOC_FILES:
        problems.extend(check_docs.check_cli_flags(doc.read_text(), doc.name))
    assert not problems, "\n".join(problems)


def test_cli_flag_check_reports_deleted_flags():
    text = (
        "```bash\n"
        "python -m repro.serve model.npz --input requests.json \\\n"
        "    --calibrate validation.json   # --not-a-flag: comment\n"
        "python -m repro.run --dataset triangles --seeds 2 | grep --count ood\n"
        "```\n"
        "Prose quotes `python -m repro.run --dataset dd300\n--workers 4` too.\n"
    )
    assert check_docs.check_cli_flags(text, "GUIDE.md") == [
        "GUIDE.md: `python -m repro.serve` has no flag --calibrate",
        "GUIDE.md: `python -m repro.run` has no flag --workers",
    ]


def test_prose_flag_check_reports_deleted_flags():
    """A bare ``--flag [value]`` span must name an option of some CLI."""
    text = (
        "Train with `--batched-seeds`, serve with `--dtype float32`, and report\n"
        "`--top 10` rows.  `--temperature` and `--calibrate data.json`\n"
        "are gone; `make --help-me` and `--seeds 8 --batched-seeds` are not bare.\n"
        "```bash\n--not-checked-in-fences\n```\n"
    )
    assert check_docs.check_cli_flags(text, "GUIDE.md") == [
        "GUIDE.md: no `repro.run`, `repro.serve` or `repro.obs` option --temperature",
        "GUIDE.md: no `repro.run`, `repro.serve` or `repro.obs` option --calibrate",
    ]


def test_code_names_quoted_in_docs_exist():
    words = check_docs.code_words()
    problems = []
    for doc in check_docs.DOC_FILES:
        problems.extend(check_docs.check_code_names(doc.read_text(), doc.name, words))
    assert not problems, "\n".join(problems)


def test_code_name_check_reports_made_up_names(tmp_path):
    """A name counts only where code gives it, not in a docstring, a
    comment or a string that is more than one dotted name."""
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "module.py").write_text(
        '"""Stack layers, as stale_docstring_name once did."""\n'
        "# stale_comment_name was deleted\n"
        "from repro.nn import layer_stacks as stacks\n\n"
        "class StackedLayer:\n    def from_layers(self): ...\n\n"
        "def stack_seed_modules():\n"
        "    return 'call stale_prose_name', 'repro_engine.queue_wait_ms'\n"
    )
    text = (
        "Stack with `stack_seed_modules()` or `repro.nn.layers.StackedLayer.from_layers`;\n"
        "`layer_stacks` and the metric `repro_engine.queue_wait_ms` are named too.\n"
        "`try_stack_modules` and `SeedFactorConv` are made up, and `stale_docstring_name`,\n"
        "`stale_comment_name` and `stale_prose_name` name no code.  `Trainer`,\n"
        "`FLAGS`, `repro.run` and `x + y` are not checked.\n"
        "```python\nnot_checked_in_fences()\n```\n"
    )
    assert check_docs.check_code_names(text, "GUIDE.md", check_docs.code_words(tmp_path)) == [
        "GUIDE.md: `try_stack_modules` names nothing in the code",
        "GUIDE.md: `SeedFactorConv` names nothing in the code",
        "GUIDE.md: `stale_docstring_name` names nothing in the code",
        "GUIDE.md: `stale_comment_name` names nothing in the code",
        "GUIDE.md: `stale_prose_name` names nothing in the code",
    ]


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
