"""Run one workload of the repo benchmark and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload swcc-local --seed 1234 \\
        --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace
1`` the per-layer metrics of the traced run. Every metric is printed by
name with its unit; the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. A
result file (and, when traced, a span file) is written under
``.perfbench/`` in the checkout. The whole benchmark, every workload over
several seeds, is ``python3 perfbench/suite.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

import envpin

SETUP_SAMPLES = 5

#: What a simulation sweep imports before its first timed operation.
SIM_IMPORTS = ("import repro.sim.machine, repro.workloads, "
               "repro.cache.programs, repro.analysis.experiments")


def _sim_setup_s(root: pathlib.Path) -> list:
    """Fresh interpreters, each timed from spawn until its imports finish."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SIM_IMPORTS], cwd=root,
                       env=env, check=True, stdin=subprocess.DEVNULL,
                       timeout=120)
        samples.append(time.perf_counter() - start)
    return samples


def _parse(argv):
    from cells import WORKLOADS

    parser = argparse.ArgumentParser(
        description="Run one workload of the repo benchmark.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1234,
                        help="workload seed (default 1234, recorded)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long the run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run printing per-layer metrics")
    parser.add_argument("--out", default=None,
                        help="result file (default under .perfbench/)")
    return parser.parse_args(argv)


def run(args, root: pathlib.Path) -> dict:
    """Run the workload; returns the full result document."""
    import records
    import serveload
    import simload

    spec = json.loads((root / "BENCHMARK.json").read_text())
    expected = records.expected_for(records.load(), args.seed, args.workload)
    env = envpin.provenance(root)
    trace = bool(args.trace)
    if args.workload == "serve-mixed":
        scratch = envpin.work_dir(root) / "tmp"
        result = serveload.run(root, scratch, args.seed, args.seconds,
                               trace, expected)
    else:
        setups = None if trace else _sim_setup_s(root)
        result = simload.run(args.workload, args.seed, args.seconds, trace,
                             expected)
        if setups is not None:
            result["setups_s"] = setups
            result["metrics"]["setup_s"] = statistics.median(setups)

    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics, not_exercised = {}, []
    for entry in wanted:
        name = entry["name"]
        if name in result["metrics"]:
            value = result["metrics"][name]
        elif trace:
            # A layer this workload does not run reads zero.
            value = 0
            not_exercised.append(name)
        else:
            raise KeyError(f"workload {args.workload} produced no {name}")
        metrics[name] = {"value": value, "unit": entry["unit"]}
    return {
        "schema": 1,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "recorded_check": "checked" if expected is not None else "unchecked",
        "env": env,
        "correct": result["failed"] == 0 and result["attempted"] > 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "fail_ratio": result["failed"] / max(result["attempted"], 1),
        "metrics": metrics,
        "not_exercised": not_exercised,
        "detail": {k: v for k, v in result.items()
                   if k not in ("metrics", "attempted", "failed", "trace")},
        "spans": result.get("trace"),
    }


def _write(doc: dict, root: pathlib.Path, out) -> pathlib.Path:
    stamp = time.strftime("%Y%m%d-%H%M%S")
    base = (f"{doc['workload']}-seed{doc['seed']}-trace{doc['trace']}-"
            f"{stamp}-{os.getpid()}")
    spans = doc.pop("spans")
    results = envpin.work_dir(root) / "results"
    path = pathlib.Path(out) if out else results / f"{base}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    if spans is not None:
        span_path = envpin.work_dir(root) / "traces" / f"{base}.json"
        span_path.parent.mkdir(parents=True, exist_ok=True)
        span_path.write_text(json.dumps(spans))
        doc["span_file"] = str(span_path.relative_to(root))
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return path


def main(argv=None) -> int:
    args = _parse(argv)
    root = envpin.repo_root()
    if not (root / "src" / "repro").is_dir():
        print(f"error: no repro sources under {root / 'src'}",
              file=sys.stderr)
        return 2
    envpin.pin(root)
    doc = run(args, root)
    path = _write(doc, root, args.out)
    for error in doc["detail"]["errors"][:20]:
        print(f"FAILED: {error}", file=sys.stderr)
    if doc["recorded_check"] == "unchecked":
        # The last line's keys are fixed, so say it here: `correct` then
        # covers only the checks that need no record.
        print(f"UNCHECKED: seed {doc['seed']} has no recorded results; "
              f"results were not compared with a record", file=sys.stderr)
    print(f"# {doc['workload']} seed {doc['seed']} trace {doc['trace']}: "
          f"{doc['attempted']} attempted, {doc['failed']} failed, "
          f"recorded check {doc['recorded_check']}; result file {path}")
    for name, metric in doc["metrics"].items():
        print(f"{name:<34} {metric['value']:>16.6f} {metric['unit']}")
    print(json.dumps({"correct": doc["correct"],
                      "attempted": doc["attempted"],
                      "failed": doc["failed"],
                      "metrics": doc["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
