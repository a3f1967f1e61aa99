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
    assert check_docs.check_figure_index() == []


def test_repo_has_the_documentation_front_door():
    for path in ("README.md", os.path.join("docs", "architecture.md")):
        assert os.path.exists(os.path.join(check_docs.ROOT, path)), path


def test_experiments_handbook_is_complete():
    assert check_docs.check_experiments_handbook() == []


def test_handbook_check_catches_an_undocumented_family(monkeypatch):
    """A FIGURE_PLANS family absent from the handbook/index must fail loudly."""
    from repro import cli
    from repro.harness import figures

    monkeypatch.setitem(figures.FIGURE_PLANS, "fig_unwritten", lambda: None)
    monkeypatch.setitem(cli.EXPERIMENTS, "fig_unwritten", ("ghost", lambda: None))
    problems = check_docs.check_experiments_handbook()
    assert any("docs/experiments.md" in p and "fig_unwritten" in p for p in problems)
    assert any("README.md" in p and "fig_unwritten" in p for p in problems)


def test_handbook_check_catches_a_registry_mismatch(monkeypatch):
    from repro.harness import figures

    monkeypatch.setitem(figures.FIGURE_PLANS, "fig_orphan", lambda: None)
    problems = check_docs.check_experiments_handbook()
    assert any("registry mismatch" in p and "fig_orphan" in p for p in problems)


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


def test_figure_check_catches_an_undocumented_or_dangling_figure(monkeypatch):
    """A registered render figure must be in the handbook and name a real
    family — both failure modes must be caught, not discovered at render
    time."""
    from repro.analysis import registry
    from repro.harness.figures import FIGURE_META

    ghost = registry.RegisteredFigure(
        name="fig_ghost",
        description="not documented anywhere",
        meta=FIGURE_META["fig12"],
        tabulate=lambda assembled: [],
        family="no_such_family",
    )
    monkeypatch.setitem(registry.REGISTERED_FIGURES, "fig_ghost", ghost)
    problems = check_docs.check_rendered_figures()
    assert any(
        "docs/experiments.md" in p and "fig_ghost" in p for p in problems
    )
    assert any(
        "unknown family" in p and "no_such_family" in p for p in problems
    )
