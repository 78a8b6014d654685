"""One-table comparison of benchmark result files.

Given one suite result file, print every end-to-end metric of every
workload with its median, quartiles and spread, and whether the spread
is within the metric's bound. Given two (a parent and a change), print
both sides in one table with the change of the median and a verdict
against the bound::

    python3 perfbench/compare.py PARENT.json CHANGE.json

Verdicts follow the benchmark's rules: ``regressed`` when the change's
median is worse than the parent's by more than the bound; ``unresolved``
when either side's spread is wider than the bound, unless every run of
the change beats every run of the parent (``improved``); ``better`` when
the median improves by more than the parent's own spread; otherwise
``within bound``. The exit code is 1 when any row regressed (or, with
one file, when any spread but ``setup_s``'s exceeds its bound).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Dict, List, Optional, Tuple

from quantiles import quartiles, spread

Series = Dict[Tuple[str, str], List[float]]


def collect(runs: List[dict]) -> Series:
    """(workload, metric) -> values over the untraced runs."""
    series: Series = {}
    for doc in runs:
        if doc.get("trace"):
            continue
        for name, metric in doc["metrics"].items():
            series.setdefault((doc["workload"], name), []).append(
                metric["value"])
    return series


def load(path: str) -> Series:
    """A suite file, or a directory of ``run.py`` result files."""
    p = pathlib.Path(path)
    if p.is_dir():
        runs = [json.loads(f.read_text()) for f in sorted(p.glob("*.json"))]
    else:
        runs = json.loads(p.read_text())["runs"]
    return collect(runs)


def _worse_share(spec: dict, base: float, new: float) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``."""
    change = (new - base) / base
    return change if spec["better"] == "lower" else -change


def verdict(spec: dict, a: List[float], b: List[float]) -> str:
    worse = _worse_share(spec, quartiles(a)[1], quartiles(b)[1])
    if worse > spec["bound"]:
        return "regressed"
    if max(spread(a), spread(b)) > spec["bound"]:
        lower = spec["better"] == "lower"
        beats = max(b) < min(a) if lower else min(b) > max(a)
        return "improved" if beats else "unresolved"
    if -worse > spread(a):
        return "better"
    return "within bound"


def _cell(values: List[float]) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}"


def print_table(spec: dict, a: Series, b: Optional[Series] = None) -> bool:
    """Print the table; returns False on a regression or unsteady spread."""
    ok = True
    workloads = sorted({w for w, _ in a})
    head = f"{'workload':<13} {'metric':<14} {'unit':<5} " + (
        f"{'median [q1, q3]':<40} {'spread':>7} {'bound':>6}  verdict"
        if b is None else
        f"{'parent median [q1, q3]':<40} {'change median [q1, q3]':<40} "
        f"{'change':>7} {'bound':>6}  verdict")
    print(head)
    print("-" * len(head))
    for workload in workloads:
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if key not in a:
                continue
            prefix = (f"{workload:<13} {metric['name']:<14} "
                      f"{metric['unit']:<5} ")
            if b is None:
                s = spread(a[key])
                if metric["name"] == "setup_s":
                    word = "set-up (spread not bounded)"
                elif s <= metric["bound"] / 3:
                    word = "steady"
                elif s <= metric["bound"]:
                    word = "within bound"
                else:
                    word, ok = "UNSTEADY", False
                print(f"{prefix}{_cell(a[key]):<40} {s:>7.1%} "
                      f"{metric['bound']:>6.0%}  {word}")
                continue
            if key not in b:
                print(f"{prefix}{_cell(a[key]):<40} {'(missing)':<40}")
                ok = False
                continue
            word = verdict(metric, a[key], b[key])
            change = (quartiles(b[key])[1] - quartiles(a[key])[1]) \
                / quartiles(a[key])[1]
            ok = ok and word != "regressed"
            print(f"{prefix}{_cell(a[key]):<40} {_cell(b[key]):<40} "
                  f"{change:>+7.1%} {metric['bound']:>6.0%}  {word}")
    return ok


def main(argv=None) -> int:
    import envpin

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="suite file or result directory")
    parser.add_argument("change", nargs="?", default=None)
    args = parser.parse_args(argv)
    spec = json.loads((envpin.repo_root() / "BENCHMARK.json").read_text())
    a = load(args.parent)
    b = load(args.change) if args.change else None
    return 0 if print_table(spec, a, b) else 1


if __name__ == "__main__":
    sys.exit(main())
