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
* every ``*.md`` name cited in a ``src/`` or ``benchmarks/`` Python file
  exists at the repository root or under ``docs/``.

Exit code 0 when everything checks out, 1 otherwise.  Run from anywhere:

    PYTHONPATH=src python tools/check_docs.py
"""

from __future__ import annotations

import doctest
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
CITING_DIRS = ("src", "benchmarks")


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


def main() -> int:
    problems: list[str] = check_md_citations()
    for doc in DOC_FILES:
        if not doc.exists():
            problems.append(f"missing documentation file: {doc.relative_to(REPO_ROOT)}")
            continue
        problems.extend(check_links(doc))
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
