#!/usr/bin/env python3
"""Link/reference checker for the repository's markdown documentation.

Checks, without any network access:

1. every relative markdown link (``[text](path)``) in the repo's ``*.md``
   files resolves to an existing file or directory (anchors are stripped;
   ``http(s)://`` / ``mailto:`` links and inline code spans are skipped);
2. every markdown anchor referenced as ``path#anchor`` exists as a heading
   in the target file (GitHub-style slugs);
3. every experiment family in ``repro.harness.figures.FAMILIES`` is
   covered by the experiments handbook (``docs/experiments.md``) *and* the
   README figure index — the experiment catalogue cannot rot;
4. every figure ``render`` draws (``repro.analysis.rendered_figures``:
   the charted families plus ``perf``) appears in the handbook — ``render``
   output cannot go undocumented;
5. every backticked path in ``README.md``, ``docs/*.md`` and
   ``benchmarks/perf/README.md`` exists, so a doc cannot keep naming a
   deleted module.

Run from anywhere: ``python tools/check_docs.py``.  Exits non-zero and
prints one line per problem; also exercised by ``tests/docs/test_docs.py``
and the CI docs job.
"""

from __future__ import annotations

import glob
import os
import re
import sys
from typing import List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SKIP_DIRS = {".git", "__pycache__", ".pytest_cache", "node_modules", ".benchmarks"}
# (?<!!) skips image embeds: retrieved paper dumps (PAPERS.md) reference
# figure bitmaps that are intentionally not vendored into the repo
LINK_RE = re.compile(r"(?<!!)\[[^\]]*\]\(([^)\s]+)\)")
HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
CODE_SPAN_RE = re.compile(r"`([^`\n]+)`")
# a pytest node id (``file.py::test``) or a line number (``file.py:110``)
SUFFIX_RE = re.compile(r"(::.*|:\d+)$")
#: docs whose backticked paths are checked (globs relative to the root)
PATH_CHECKED_DOCS = ("README.md", os.path.join("docs", "*.md"),
                     os.path.join("benchmarks", "perf", "README.md"))


def markdown_files() -> List[str]:
    found = []
    for directory, subdirs, filenames in os.walk(ROOT):
        subdirs[:] = [d for d in subdirs if d not in SKIP_DIRS]
        for filename in filenames:
            if filename.endswith(".md"):
                found.append(os.path.join(directory, filename))
    return sorted(found)


def github_slug(heading: str) -> str:
    """GitHub's anchor slug: lowercase, spaces to dashes, drop punctuation."""
    slug = heading.strip().lower()
    slug = re.sub(r"[^\w\- ]", "", slug, flags=re.UNICODE)
    return slug.replace(" ", "-")


def check_links() -> List[str]:
    problems = []
    for path in markdown_files():
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        relpath = os.path.relpath(path, ROOT)
        # `a[i](x)` inside a code span is code, not a link
        for match in LINK_RE.finditer(CODE_SPAN_RE.sub("``", text)):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            if target.startswith("#"):
                anchor, file_target = target[1:], path
            else:
                file_part, _, anchor = target.partition("#")
                file_target = os.path.normpath(
                    os.path.join(os.path.dirname(path), file_part)
                )
                if not os.path.exists(file_target):
                    problems.append(f"{relpath}: broken link -> {target}")
                    continue
            if anchor and file_target.endswith(".md"):
                with open(file_target, "r", encoding="utf-8") as fh:
                    headings = HEADING_RE.findall(fh.read())
                slugs = {github_slug(h) for h in headings}
                if anchor.lower() not in slugs:
                    problems.append(f"{relpath}: broken anchor -> {target}")
    return problems


def _read(relpath: str) -> str:
    """The text of a repo file, or ``""`` when it is missing."""
    path = os.path.join(ROOT, relpath)
    if not os.path.exists(path):
        return ""
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def check_experiments_handbook() -> List[str]:
    """Every ``FAMILIES`` entry must appear in the handbook and README index.

    Names are looked up as backticked code spans (`` `name` ``), the way
    both documents list experiments.
    """
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        from repro.harness.figures import FAMILIES
    except Exception as error:  # pragma: no cover - import environment issue
        return [f"could not import repro to verify the experiments handbook: {error}"]
    handbook_text = _read(os.path.join("docs", "experiments.md"))
    readme_text = _read("README.md")
    problems = []
    for name in FAMILIES:
        if f"`{name}`" not in handbook_text:
            problems.append(
                f"docs/experiments.md: experiment family {name!r} missing "
                f"from the handbook"
            )
        if f"`{name}`" not in readme_text:
            problems.append(
                f"README.md: experiment family {name!r} missing from the "
                f"figure index"
            )
    return problems


def check_rendered_figures() -> List[str]:
    """Every ``render`` figure must be documented in the handbook.

    Names are looked up as backticked code spans, like the experiment
    families; this covers ``perf``, which is not a family.
    """
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        from repro.analysis import rendered_figures
    except Exception as error:  # pragma: no cover - import environment issue
        return [f"could not import repro.analysis to verify the rendered figures: {error}"]
    handbook_text = _read(os.path.join("docs", "experiments.md"))
    return [
        f"docs/experiments.md: rendered figure {name!r} missing from "
        f"the handbook (From runs to figures)"
        for name in rendered_figures()
        if f"`{name}`" not in handbook_text
    ]


def check_code_paths() -> List[str]:
    """Every backticked path in the front-door docs must exist.

    A code span is taken as a path when it contains ``/`` and no
    whitespace (commands and prose fractions have spaces or no slash).
    It resolves against the repo root, ``src/`` or ``src/repro/``;
    ``::test`` and ``:line`` suffixes are dropped and glob patterns must
    match at least one file.  Home (``~``), environment (``$``), absolute
    and URL spans are skipped: they name places outside the checkout.
    """
    problems = []
    for doc_glob in PATH_CHECKED_DOCS:
        for path in sorted(glob.glob(os.path.join(ROOT, doc_glob))):
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
            doc = os.path.relpath(path, ROOT)
            for span in CODE_SPAN_RE.findall(text):
                if "/" not in span or any(c.isspace() for c in span):
                    continue
                if span.startswith(("~", "$", "/")) or "://" in span:
                    continue
                target = SUFFIX_RE.sub("", span)
                if not any(
                    glob.glob(os.path.join(ROOT, base, target))
                    for base in ("", "src", os.path.join("src", "repro"))
                ):
                    problems.append(f"{doc}: backticked path does not exist -> {span}")
    return problems


def main() -> int:
    problems = (
        check_links()
        + check_experiments_handbook()
        + check_rendered_figures()
        + check_code_paths()
    )
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        print(f"{len(problems)} documentation problem(s)", file=sys.stderr)
        return 1
    print(f"docs OK: {len(markdown_files())} markdown files checked")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
