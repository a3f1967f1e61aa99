"""Documentation conformance: markdown links resolve, figure index complete.

Thin pytest wrapper around ``tools/check_docs.py`` (which CI also runs
directly) so broken doc links fail the tier-1 suite, not just the docs job.
"""

from __future__ import annotations

import importlib.util
import os

_TOOL = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "tools",
    "check_docs.py",
)
_spec = importlib.util.spec_from_file_location("check_docs", _TOOL)
check_docs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_docs)


def test_markdown_links_resolve():
    assert check_docs.check_links() == []


def test_readme_figure_index_is_complete():
    """Every family is named in the README figure index."""
    problems = check_docs.check_experiments_handbook()
    assert [p for p in problems if p.startswith("README.md")] == []


def test_repo_has_the_documentation_front_door():
    for path in ("README.md", os.path.join("docs", "architecture.md")):
        assert os.path.exists(os.path.join(check_docs.ROOT, path)), path


def test_experiments_handbook_is_complete():
    """Every family is in the handbook and the README figure index."""
    assert check_docs.check_experiments_handbook() == []


def test_handbook_check_catches_an_undocumented_family(monkeypatch):
    """A family absent from the handbook/index must fail loudly."""
    from repro.harness import figures

    ghost = figures.Family("fig_unwritten", "ghost", lambda: None)
    monkeypatch.setitem(figures.FAMILIES, "fig_unwritten", ghost)
    problems = check_docs.check_experiments_handbook()
    assert any("docs/experiments.md" in p and "fig_unwritten" in p for p in problems)
    assert any("README.md" in p and "fig_unwritten" in p for p in problems)


def test_link_check_ignores_code_spans(tmp_path, monkeypatch):
    """``a[i](x)`` in a code span is code; the same text outside one is a link."""
    (tmp_path / "README.md").write_text("`plans[name](**kw)` and [name](gone.md)\n")
    monkeypatch.setattr(check_docs, "ROOT", str(tmp_path))
    assert check_docs.check_links() == ["README.md: broken link -> gone.md"]


def test_rendered_figures_are_documented_and_wired():
    assert check_docs.check_rendered_figures() == []


def test_backticked_doc_paths_exist():
    assert check_docs.check_code_paths() == []


def test_path_check_catches_a_stale_path(tmp_path, monkeypatch):
    """A doc naming a deleted module fails; live, glob and node-id spans pass."""
    (tmp_path / "src" / "repro" / "sim").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "sim" / "eventlist.py").write_text("")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_x.py").write_text("")
    (tmp_path / "README.md").write_text(
        "`sim/eventlist.py`, `repro/sim/eventlist.py`, `tests/test_*.py`, "
        "`tests/test_x.py::test_y`, `~/.cache/repro`, `a / b`, "
        "`repro/sim/gone.py`\n"
    )
    monkeypatch.setattr(check_docs, "ROOT", str(tmp_path))
    assert check_docs.check_code_paths() == [
        "README.md: backticked path does not exist -> repro/sim/gone.py"
    ]


def test_figure_check_catches_an_undocumented_figure(monkeypatch):
    """A charted family missing from the handbook fails, not just at render."""
    from repro.harness import figures

    ghost = figures.Family(
        "fig_ghost", "not documented anywhere", lambda: None,
        chart=figures.FAMILIES["fig12"].chart,
    )
    monkeypatch.setitem(figures.FAMILIES, "fig_ghost", ghost)
    problems = check_docs.check_rendered_figures()
    assert any(
        "docs/experiments.md" in p and "fig_ghost" in p for p in problems
    )
