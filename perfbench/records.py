"""Recorded results: the expected ``RunStats.as_dict()`` of every cell.

``expected.json`` maps seed -> workload -> cell label -> statistics, for
the default seed (1234), one held-out seed (4321) and the further seeds
the suite runs, so every suite run is checked against a record. A run
whose seed has no record still runs every other check, and reports its
recorded check as ``unchecked``, never as passed.

Regenerate (only when a change is meant to alter simulated results)::

    python3 perfbench/records.py --write
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Dict, List, Optional

HERE = pathlib.Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"
#: The default seed first, then the held-out seed, then the seeds that
#: complete the suite's ten.
RECORDED_SEEDS = (1234, 4321) + tuple(range(1, 9))


def load(path: pathlib.Path = EXPECTED) -> dict:
    with open(path) as fh:
        return json.load(fh)


def expected_for(records: dict, seed: int, workload: str
                 ) -> Optional[Dict[str, dict]]:
    """The recorded cells of ``workload`` at ``seed``, or None."""
    return records.get(str(seed), {}).get(workload)


def diff(expected: dict, actual: dict) -> List[str]:
    """Names of the statistics that differ (empty when equal)."""
    keys = sorted(set(expected) | set(actual))
    return [key for key in keys if expected.get(key) != actual.get(key)]


def as_json(value):
    """Round-trip through JSON so recorded and live values compare alike."""
    return json.loads(json.dumps(value))


def run_wire_cell(wire: dict) -> dict:
    """Statistics of one ``repro serve`` wire cell, simulated in-process
    through the same decoding and ``run_workload`` call the server uses."""
    from repro.analysis.experiments import run_workload
    from repro.serve.wire import decode_cell

    cell = decode_cell(wire)
    stats, _machine = run_workload(
        cell.workload, cell.policy, cell.exp,
        force_hw_data=cell.force_hw_data, **dict(cell.config_extra))
    return as_json(stats.as_dict())


def generate(seeds=RECORDED_SEEDS) -> dict:
    from cells import SIM_WORKLOADS, serve_warm_set
    import simload

    out: dict = {}
    for seed in seeds:
        per_seed = out[str(seed)] = {}
        for workload, cells in SIM_WORKLOADS.items():
            per_seed[workload] = {
                cell.label: as_json(simload.run_cell(cell, seed).stats)
                for cell in cells}
        per_seed["serve-mixed"] = {wire["label"]: run_wire_cell(wire)
                                   for wire in serve_warm_set(seed)}
        print(f"recorded seed {seed}", file=sys.stderr)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="regenerate expected.json from this tree")
    args = parser.parse_args(argv)
    if not args.write:
        parser.print_help()
        return 2
    import envpin

    envpin.pin(envpin.repo_root())
    records = generate()
    with open(EXPECTED, "w") as fh:
        json.dump(records, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
