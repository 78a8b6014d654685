"""BENCHMARK.json well-formedness and a tiny smoke run of each workload."""

import dataclasses
import json
import re
from types import SimpleNamespace

import pytest

import cells
import run as runner
from conftest import ROOT

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_metric_names_and_units_are_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
    assert [w["name"] for w in SPEC["workloads"]] == list(cells.WORKLOADS)
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.fixture
def tiny_cells(monkeypatch):
    """Each simulation workload shrunk to its first cell at a tiny scale."""
    tiny = {name: (dataclasses.replace(cell_list[0], scale=0.05),)
            for name, cell_list in cells.SIM_WORKLOADS.items()}
    monkeypatch.setattr(cells, "SIM_WORKLOADS", tiny)
    import simload
    monkeypatch.setattr(simload, "SIM_WORKLOADS", tiny)
    monkeypatch.setattr(runner, "SETUP_SAMPLES", 1)


def _smoke(workload, trace, capsys, seconds=0.0):
    args = SimpleNamespace(workload=workload, seed=99991, seconds=seconds,
                           trace=trace, out=None)
    doc = runner.run(args, ROOT)
    assert doc["correct"], doc["detail"]["errors"]
    assert doc["recorded_check"] == "unchecked"
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(doc["metrics"]) == [m["name"] for m in wanted]
    for metric in wanted:
        assert doc["metrics"][metric["name"]]["unit"] == metric["unit"]
    return doc


@pytest.mark.parametrize("workload", list(cells.SIM_WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_simulation_smoke(tiny_cells, workload, trace, capsys):
    doc = _smoke(workload, trace, capsys)
    values = {k: v["value"] for k, v in doc["metrics"].items()}
    if trace:
        assert values["runtime.ops"] > 0
        assert values["trace.overhead_ratio"] > 0
        assert "serve.hits" in doc["not_exercised"]
    else:
        assert values["sim_ops_per_s"] > 0 and values["setup_s"] > 0


def test_serve_smoke(monkeypatch, capsys):
    import serveload
    monkeypatch.setattr(serveload, "SETUPS", 1)
    monkeypatch.setattr(serveload, "LOCAL_VERIFY", 1)
    doc = _smoke("serve-mixed", 0, capsys, seconds=0.5)
    values = {k: v["value"] for k, v in doc["metrics"].items()}
    assert values["req_per_s"] > 0 and values["cold_ms_p50"] > 0
    assert doc["detail"]["server_stats"]["serve"]["counters"]["executed"] > 0
    requests = doc["detail"]["requests"]
    assert requests["warm_hits"] > 0 and "cold_hits" in requests


def test_main_prints_every_metric_with_its_unit(tiny_cells, capsys,
                                                 monkeypatch, tmp_path):
    monkeypatch.setattr(runner.envpin, "work_dir", lambda root: tmp_path)
    monkeypatch.setattr(runner.envpin, "pin", lambda root: None)
    assert runner.main(["--workload", "swcc-local", "--seed", "99991",
                        "--seconds", "0"]) == 0
    captured = capsys.readouterr()
    assert "UNCHECKED: seed 99991" in captured.err
    lines = captured.out.strip().splitlines()
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    for metric in SPEC["end_to_end"]:
        assert last["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert any(line.split()[0] == metric["name"]
                   and line.split()[-1] == metric["unit"] for line in lines)


def test_cold_p50_is_the_geometric_mean_of_per_kind_medians():
    from serveload import cold_p50
    by_cell = {"a": [20.0, 21.0, 22.0], "b": [50.0, 80.0, 45.0]}
    assert cold_p50(by_cell) == pytest.approx((21.0 * 50.0) ** 0.5)
    # The pooled median would jump between kinds; this does not.
    by_cell["a"].append(23.0)
    assert cold_p50(by_cell) == pytest.approx((21.5 * 50.0) ** 0.5)
    assert cold_p50({}) == 0.0
