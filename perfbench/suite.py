"""Run the whole benchmark: every workload over several seeds.

Each run is a fresh ``perfbench/run.py`` process, as the runs a grader
makes are. The seeds are the recorded ones (``records.RECORDED_SEEDS``,
default seed first), so every run is checked against recorded results.
Workloads are interleaved seed by seed, so slow drift of the box spreads
over all of them; one traced run per workload at the default seed
follows. The runs are collected into one result file, and the spread of
every end-to-end metric is printed as a table::

    python3 perfbench/suite.py --seeds 10 --out .perfbench/parent.json
    python3 perfbench/compare.py .perfbench/parent.json .perfbench/change.json
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys
import tempfile
import time

import envpin

HERE = pathlib.Path(__file__).resolve().parent


def run_one(root: pathlib.Path, workload: str, seed: int, seconds: float,
            trace: int) -> dict:
    """One fresh ``run.py`` process; returns its result document."""
    out_dir = envpin.work_dir(root) / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.NamedTemporaryFile(dir=out_dir, prefix="suite-",
                                     suffix=".json", delete=False) as fh:
        out = pathlib.Path(fh.name)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace), "--out", str(out)],
            cwd=root, stdin=subprocess.DEVNULL, capture_output=True,
            text=True, timeout=600)
        if proc.returncode != 0:
            raise RuntimeError(f"{workload} seed {seed} trace {trace} exited "
                               f"{proc.returncode}:\n{proc.stderr[-2000:]}")
        return json.loads(out.read_text())
    finally:
        out.unlink(missing_ok=True)


def main(argv=None) -> int:
    import compare
    from cells import WORKLOADS
    from records import RECORDED_SEEDS

    root = envpin.repo_root()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=len(RECORDED_SEEDS),
                        choices=range(1, len(RECORDED_SEEDS) + 1),
                        metavar=f"1..{len(RECORDED_SEEDS)}",
                        help="untraced runs per workload, on the first N "
                             "recorded seeds (default all)")
    parser.add_argument("--out", default=None, help="suite result file")
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]

    runs = []
    plan = [(seed, workload, 0) for seed in RECORDED_SEEDS[:args.seeds]
            for workload in WORKLOADS]
    plan += [(RECORDED_SEEDS[0], workload, 1) for workload in WORKLOADS]
    for seed, workload, trace in plan:
        doc = run_one(root, workload, seed, seconds, trace)
        runs.append(doc)
        print(f"{workload:<13} seed {seed:<5} trace {trace}: correct="
              f"{doc['correct']} attempted={doc['attempted']} "
              f"failed={doc['failed']} "
              f"recorded_check={doc['recorded_check']}", file=sys.stderr)
    out = pathlib.Path(args.out) if args.out else (
        envpin.work_dir(root) / f"suite-{time.strftime('%Y%m%d-%H%M%S')}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"schema": 1, "seconds": seconds,
                               "runs": runs}, indent=1) + "\n")
    print(f"suite result file: {out}")
    ok = compare.print_table(spec, compare.collect(runs))
    return 0 if ok and all(doc["correct"]
                           and doc["recorded_check"] == "checked"
                           for doc in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
