"""The checked-in generated documents stay in sync with the code.

``python -m repro.docgen`` is the one entry point for ``docs/CLI.md``,
``docs/lint.md`` and ``docs/PROPERTIES.md``."""

import pathlib

import pytest

from repro.docgen import DOCUMENTS, main
from repro.properties.docgen import render

ROOT = pathlib.Path(__file__).resolve().parents[2]
DOC = ROOT / "docs/PROPERTIES.md"
PATHS = [path for path, _renderer in DOCUMENTS]


def test_document_in_sync():
    assert DOC.read_text() == render()


def test_document_covers_all_properties():
    from repro.properties import ALL_PROPERTIES
    text = DOC.read_text()
    for prop in ALL_PROPERTIES:
        assert f"## {prop.identifier} " in text


@pytest.fixture
def docs_tree(tmp_path, monkeypatch):
    """A scratch repository root holding current copies of every doc."""
    (tmp_path / "docs").mkdir()
    for path, renderer in DOCUMENTS:
        (tmp_path / path).write_text(renderer())
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestCheckMode:
    def test_check_passes_on_current_document(self, monkeypatch, capsys):
        monkeypatch.chdir(ROOT)
        assert main(["--check"]) == 0
        out = capsys.readouterr().out
        for path in PATHS:
            assert f"{path} is up to date" in out

    @pytest.mark.parametrize("path", PATHS)
    def test_check_fails_on_stale_document(self, docs_tree, capsys, path):
        stale = docs_tree / path
        stale.write_text(stale.read_text() + "\nstale trailing edit\n")
        assert main(["--check"]) == 1
        assert f"{path} is stale" in capsys.readouterr().err

    def test_check_fails_on_missing_document(self, docs_tree, capsys):
        (docs_tree / "docs/PROPERTIES.md").unlink()
        assert main(["--check"]) == 1
        assert "unreadable" in capsys.readouterr().err

    def test_write_mode_regenerates(self, docs_tree):
        for path in PATHS:
            (docs_tree / path).write_text("outdated\n")
        assert main([]) == 0
        for path, renderer in DOCUMENTS:
            assert (docs_tree / path).read_text() == renderer()
