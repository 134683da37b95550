"""Documentation checker: internal links, code references, doctest blocks.

Validates the repository's markdown documentation (README.md and
docs/*.md):

* every relative markdown link ``[text](path)`` resolves to an existing
  file or directory (external ``http(s)``/``mailto`` links are skipped);
* every anchor link ``[text](path#anchor)`` matches a heading in the
  target document (GitHub slug rules: lowercase, spaces to dashes,
  punctuation dropped);
* every backtick reference to a repository path (``src/...``,
  ``tests/...``, ``benchmarks/...``, ``docs/...``, ``tools/...``)
  points at an existing file;
* all ``>>>`` doctest examples execute and produce the documented
  output (``python -m doctest`` semantics);
* every ``--flag`` of a ``python -m repro.run ...`` or ``python -m
  repro.serve ...`` command line (in a code block, backslash
  continuations followed, or in inline code) is an option of that module's
  ``build_parser()``;
* every inline-code span that is a bare ``--flag [value]`` (a flag
  quoted in prose) names an option of ``repro.run``, ``repro.serve`` or
  a ``repro.obs`` subcommand;
* every ``*.md`` name cited in a ``src/`` or ``benchmarks/`` Python file
  exists at the repository root or under ``docs/``;
* every inline-code span that reads as a code name — a Python
  identifier, optionally dotted and optionally followed by ``()``, whose
  last part contains ``_`` or a lower-to-upper case change — names
  something that code in some Python file under ``src/``, ``tests/``,
  ``benchmarks/``, ``perfbench/`` or ``tools/`` names (see
  :func:`code_words`); a name left only in docstrings, comments or prose
  strings does not count.

Exit code 0 when everything checks out, 1 otherwise.  Run from anywhere:

    PYTHONPATH=src python tools/check_docs.py
"""

from __future__ import annotations

import argparse
import ast
import doctest
import importlib
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DOC_FILES = [REPO_ROOT / "README.md", *sorted((REPO_ROOT / "docs").glob("*.md"))]

_LINK = re.compile(r"\[[^\]]+\]\(([^)\s]+)\)")
_HEADING = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
_CODE_PATH = re.compile(r"`((?:src|tests|benchmarks|docs|tools)/[A-Za-z0-9_./-]+)`")
_FENCE = re.compile(r"```.*?```", re.DOTALL)
_MD_CITATION = re.compile(r"[A-Za-z0-9_./-]*[A-Za-z0-9_-]\.md\b")
_INLINE_CODE = re.compile(r"`([^`]+)`")
_CLI_COMMAND = re.compile(r"python3? -m (repro\.run|repro\.serve)\b(.*)")
_SHELL_BREAK = re.compile(r"[|;#>]|&&")
_FLAG = re.compile(r"(?<![\w-])--[A-Za-z][\w-]*")
_BARE_FLAG = re.compile(r"--[A-Za-z][\w-]*(?: [^\s-]\S*)?")
_CODE_NAME = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*(?:\(\))?")
_CASE_CHANGE = re.compile(r"[a-z][A-Z]")
CLI_MODULES = {"repro.run": "repro.run", "repro.serve": "repro.serve.__main__"}
CITING_DIRS = ("src", "benchmarks")
CODE_DIRS = ("src", "tests", "benchmarks", "perfbench", "tools")


def github_slug(heading: str) -> str:
    """GitHub's anchor slug for a heading."""
    slug = heading.strip().lower()
    slug = re.sub(r"[^\w\s-]", "", slug)
    return re.sub(r"\s+", "-", slug)


def heading_slugs(path: Path) -> set[str]:
    return {github_slug(m.group(1)) for m in _HEADING.finditer(path.read_text())}


def check_links(path: Path) -> list[str]:
    """Problems with markdown links and backtick path references."""
    problems = []
    text = path.read_text()
    prose = _FENCE.sub("", text)  # don't treat code-block contents as links
    for match in _LINK.finditer(prose):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        file_part, _, anchor = target.partition("#")
        resolved = (path.parent / file_part).resolve() if file_part else path
        if not resolved.exists():
            problems.append(f"{path.name}: broken link -> {target}")
            continue
        if anchor and resolved.suffix == ".md" and github_slug(anchor) not in heading_slugs(resolved):
            problems.append(f"{path.name}: missing anchor -> {target}")
    for match in _CODE_PATH.finditer(text):
        ref = match.group(1).rstrip("/")
        if not (REPO_ROOT / ref).exists():
            problems.append(f"{path.name}: dangling path reference -> `{match.group(1)}`")
    return problems


def cli_options(command: str) -> set[str]:
    """Option strings of ``python -m <command>`` (its ``build_parser()``)."""
    parser = importlib.import_module(CLI_MODULES[command]).build_parser()
    return set(parser._option_string_actions)


def prose_flag_options() -> set[str]:
    """Option strings a bare flag in prose may name: ``repro.run``,
    ``repro.serve`` and every ``repro.obs`` subcommand."""
    options = cli_options("repro.run") | cli_options("repro.serve")
    obs = importlib.import_module("repro.obs.__main__").build_parser()
    for action in obs._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                options |= set(sub._option_string_actions)
    return options


def check_cli_flags(text: str, name: str) -> list[str]:
    """``--flags`` quoted in docs that no CLI has: in ``python -m
    repro.run|serve`` commands, and as bare ``--flag [value]`` spans."""
    fenced = [block.replace("\\\n", " ") for block in _FENCE.findall(text)]
    inline = [span.replace("\n", " ") for span in _INLINE_CODE.findall(_FENCE.sub("", text))]
    problems = []
    bare = [span.split()[0] for span in inline if _BARE_FLAG.fullmatch(span.strip())]
    if bare:
        options = prose_flag_options()
        problems.extend(
            f"{name}: no `repro.run`, `repro.serve` or `repro.obs` option {flag}"
            for flag in bare if flag not in options
        )
    options: dict[str, set[str]] = {}
    for line in "\n".join(fenced + inline).splitlines():
        match = _CLI_COMMAND.search(line)
        if match is None:
            continue
        command, args = match.groups()
        if command not in options:
            options[command] = cli_options(command)
        for flag in _FLAG.findall(_SHELL_BREAK.split(args, maxsplit=1)[0]):
            if flag not in options[command]:
                problems.append(f"{name}: `python -m {command}` has no flag {flag}")
    return problems


def check_doctests(path: Path) -> list[str]:
    """Failing ``>>>`` examples in the document, if any."""
    results = doctest.testfile(
        str(path), module_relative=False, optionflags=doctest.NORMALIZE_WHITESPACE, verbose=False
    )
    if results.failed:
        return [f"{path.name}: {results.failed}/{results.attempted} doctest examples failed"]
    return []


def check_md_citations(root: Path = REPO_ROOT) -> list[str]:
    """``*.md`` names cited in ``root``'s src/ and benchmarks/ Python files
    that exist neither at ``root`` nor under ``root/docs``."""
    problems = []
    for directory in CITING_DIRS:
        for path in sorted((root / directory).rglob("*.py")):
            for name in sorted(set(_MD_CITATION.findall(path.read_text()))):
                if not ((root / name).exists() or (root / "docs" / name).exists()):
                    problems.append(f"{path.relative_to(root)}: cites missing {name}")
    return problems


def code_words(root: Path = REPO_ROOT) -> set[str]:
    """Every name that code gives in the Python files under ``root``'s :data:`CODE_DIRS`.

    That is every identifier, attribute, ``def`` and ``class`` name,
    argument and import, and every string constant that is one dotted
    name (a metric name such as ``repro_engine_queue_wait_ms``), split at
    its dots.  Docstrings, comments and other strings name nothing, so a
    name deleted from the code but left in one of them is not counted.
    """
    words: set[str] = set()
    for directory in CODE_DIRS:
        for path in (root / directory).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Constant) and isinstance(node.value, str):
                    parts = node.value.split(".")
                    if all(part.isidentifier() for part in parts):
                        words.update(parts)
                for field in ("id", "attr", "name", "arg", "asname", "module"):
                    value = getattr(node, field, None)
                    if isinstance(value, str):
                        words.update(value.split("."))
    return words


def check_code_names(text: str, name: str, words: set[str]) -> list[str]:
    """Inline-code names in ``text`` whose last part is not in ``words``.

    Only spans that read as code are checked (``stack_seed_modules``,
    ``Trainer.fit_many``, ``sync_seed()``); ``Trainer`` or ``repro.run``
    could be plain words and are skipped.
    """
    problems = []
    for span in _INLINE_CODE.findall(_FENCE.sub("", text)):
        if not _CODE_NAME.fullmatch(span):
            continue
        last = span.removesuffix("()").rsplit(".", 1)[-1]
        if ("_" in last or _CASE_CHANGE.search(last)) and last not in words:
            problems.append(f"{name}: `{span}` names nothing in the code")
    return problems


def main() -> int:
    problems: list[str] = check_md_citations()
    words = code_words()
    for doc in DOC_FILES:
        if not doc.exists():
            problems.append(f"missing documentation file: {doc.relative_to(REPO_ROOT)}")
            continue
        problems.extend(check_links(doc))
        problems.extend(check_cli_flags(doc.read_text(), doc.name))
        problems.extend(check_code_names(doc.read_text(), doc.name, words))
        problems.extend(check_doctests(doc))
    if problems:
        print("documentation check FAILED:")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    names = ", ".join(d.relative_to(REPO_ROOT).as_posix() for d in DOC_FILES)
    print(f"documentation check passed ({names})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
