"""CLI figure regeneration at tiny scale (every figure target)."""

import pytest

from repro.cli import main

from tests.conftest import needs_numpy

pytestmark = needs_numpy


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setenv("REPRO_CLUSTERS", "1")
    monkeypatch.setenv("REPRO_SCALE", "0.1")


def run_figure(tmp_path, name, extra=()):
    code = main(["figures", name, "--out", str(tmp_path),
                 "--clusters", "1", "--scale", "0.1", *extra])
    assert code == 0
    return tmp_path / f"{name}.txt"


class TestFigureTargets:
    def test_fig02(self, tmp_path, tiny, capsys):
        path = run_figure(tmp_path, "fig02")
        text = path.read_text()
        assert "[cg]" in text and "[stencil]" in text
        assert "SWcc" in text and "HWccIdeal" in text

    def test_fig08(self, tmp_path, tiny, capsys):
        path = run_figure(tmp_path, "fig08")
        assert "HWccReal" in path.read_text()

    def test_fig09a(self, tmp_path, tiny, capsys):
        path = run_figure(tmp_path, "fig09a")
        text = path.read_text()
        assert "256" in text and "16384" in text

    def test_fig09c(self, tmp_path, tiny, capsys):
        path = run_figure(tmp_path, "fig09c")
        text = path.read_text()
        assert "Cohesion" in text and "HWcc" in text

    def test_fig10(self, tmp_path, tiny, capsys):
        path = run_figure(tmp_path, "fig10")
        text = path.read_text()
        assert "CohesionLimited" in text and "HWccLimited" in text

    def test_ablation(self, tmp_path, tiny, capsys):
        path = run_figure(tmp_path, "ablation")
        assert "stack-only" in path.read_text()
