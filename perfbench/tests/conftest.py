"""Make the benchmark modules and the ``repro`` sources importable, and
keep every simulator cache off and inside a temporary directory."""

import pathlib
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
for path in (str(ROOT / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)


@pytest.fixture(autouse=True)
def _caches_off(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE", "0")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    for name in ("REPRO_PLANS", "REPRO_BACKEND"):
        monkeypatch.delenv(name, raising=False)
