#!/usr/bin/env python3
"""Interleaved A/B of two revisions of this repository on one machine.

Only pairs of runs made back to back on the same box separate a code
change from host drift, so every verdict here comes from such pairs, and
the side that runs first flips on every pair::

    python tools/ab.py BASE [HEAD] [--workloads W[,W...]] [--pairs N]
                       [--seconds S] [--out DIR]
    python tools/ab.py BASE [HEAD] --cells WORKLOAD:POLICY:CLUSTERS[,...]
                       [--pairs N]

BASE and HEAD are git revisions; HEAD defaults to the working tree. A
revision is checked out as a git worktree under ``.perfbench/ab/`` and
removed again at exit.

By default each pair runs ``perfbench/run.py --seed 1234 --trace 0``
(the recorded benchmark seed) on both sides for every workload (all of
BENCHMARK.json unless ``--workloads``), for ``run_seconds`` of
BENCHMARK.json unless ``--seconds``. The result files
go under ``--out``. The frozen ``perfbench/compare.py`` prints its
median/quartile table of the two result directories; this script then
prints one markdown table of what that table lacks: the per-pair
HEAD/BASE ratios, the win count (ties count for neither side) and a
fixed-seed bootstrap 95% interval of the median ratio. A row reads
``regressed`` only when its whole interval lies beyond the metric's
BENCHMARK.json bound in the worse direction.

``--cells`` runs ``python -m repro run --json`` of each cell on both
sides instead (result cache off), records each child's wall time and
peak RSS (``os.wait4``), and requires its standard output to be
byte-identical on both sides. Wall time is graded against the bound of
``sim_ops_per_s`` (a cell is fixed work, so its wall time is the inverse
of its throughput), peak RSS against that of ``peak_rss_mb``.

Exit status: 0 when no row regressed; 1 when a row regressed, a run was
not ``correct`` or failed, or a cell's output differed between runs; 2
on a usage error, and when ``perfbench/`` or ``BENCHMARK.json`` differs
between BASE and HEAD, because the benchmark code must be the same on
both sides. ``--cells`` reads peak RSS as Linux reports it.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import random
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional, Sequence, Tuple

REPO = pathlib.Path(__file__).resolve().parent.parent
BENCH_PATHS = ("perfbench", "BENCHMARK.json")
SIDES = ("base", "head")
BOOTSTRAP_RESAMPLES = 2000
BOOTSTRAP_SEED = 2010
#: The recorded workload seed of every untraced benchmark run.
SEED = 1234

#: (row, metric) -> values in pair order, for one side.
Series = Dict[Tuple[str, str], List[float]]


def run_order(pair: int) -> Tuple[str, str]:
    """BASE runs first on even pairs, HEAD on odd ones."""
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def win_count(ratios: Sequence[float], better: str) -> Tuple[int, int]:
    """(HEAD wins, BASE wins) over HEAD/BASE ratios; ties count for neither."""
    above = sum(1 for r in ratios if r > 1)
    below = sum(1 for r in ratios if r < 1)
    return (above, below) if better == "higher" else (below, above)


def bootstrap_interval(ratios: Sequence[float],
                       resamples: int = BOOTSTRAP_RESAMPLES,
                       seed: int = BOOTSTRAP_SEED) -> Tuple[float, float]:
    """Percentile bootstrap 95% interval of the median ratio.

    The generator is seeded, so the same ratios always give the same
    interval.
    """
    rng = random.Random(seed)
    medians = sorted(statistics.median(rng.choices(ratios, k=len(ratios)))
                     for _ in range(resamples))
    return (medians[int(0.025 * resamples)],
            medians[int(0.975 * resamples) - 1])


def verdict(better: str, bound: float, low: float, high: float) -> str:
    """Grade a HEAD/BASE interval; the worse share is as in compare.py."""
    if better == "higher":
        worse_low, worse_high = 1 - high, 1 - low
    else:
        worse_low, worse_high = low - 1, high - 1
    if worse_low > bound:
        return "regressed"
    if worse_low > 0:
        return "worse, within bound"
    if worse_high < 0:
        return "better"
    return "within noise"


def ratio_rows(metrics: Sequence[dict], base: Series,
               head: Series) -> List[dict]:
    """One row per (row label, metric) present on both sides."""
    rows = []
    for label in sorted({label for label, _ in base}):
        for metric in metrics:
            key = (label, metric["name"])
            if key not in base or key not in head:
                continue
            ratios = [h / b for b, h in zip(base[key], head[key])]
            low, high = bootstrap_interval(ratios)
            rows.append({
                "row": label, "metric": metric["name"],
                "unit": metric["unit"], "better": metric["better"],
                "bound": metric["bound"],
                "base": statistics.median(base[key]),
                "head": statistics.median(head[key]),
                "ratios": ratios, "median": statistics.median(ratios),
                "interval": (low, high),
                "wins": win_count(ratios, metric["better"]),
                "verdict": verdict(metric["better"], metric["bound"],
                                   low, high),
            })
    return rows


def format_table(title: str, rows: Sequence[dict]) -> str:
    lines = [f"### {title}", "",
             "| row | metric | BASE median | HEAD median | HEAD/BASE median "
             "| 95% interval | wins HEAD:BASE | per-pair HEAD/BASE | bound "
             "| verdict |",
             "|---|---|---:|---:|---:|---|---:|---|---:|---|"]
    for r in rows:
        low, high = r["interval"]
        ahead, behind = r["wins"]
        lines.append(
            f"| {r['row']} | {r['metric']} ({r['unit']}, {r['better']}) "
            f"| {r['base']:.5g} | {r['head']:.5g} | {r['median']:.3f} "
            f"| [{low:.3f}, {high:.3f}] | {ahead}:{behind} "
            f"| {' '.join(f'{x:.3f}' for x in r['ratios'])} "
            f"| {r['bound']:.0%} | {r['verdict']} |")
    return "\n".join(lines)


class Host:
    """Every git call and child process; tests substitute a fake."""

    def __init__(self, repo: pathlib.Path = REPO):
        self.repo = repo
        self.trees: List[pathlib.Path] = []

    def _git(self, *args: str, check: bool = True):
        return subprocess.run(["git", "-C", str(self.repo), *args],
                              capture_output=True, text=True, check=check)

    def bench_differs(self, base: str, head: Optional[str]) -> bool:
        """Whether the benchmark code differs between the two sides."""
        revs = [base] if head is None else [base, head]
        proc = self._git("diff", "--quiet", *revs, "--", *BENCH_PATHS,
                         check=False)
        if proc.returncode not in (0, 1):
            raise subprocess.CalledProcessError(
                proc.returncode, proc.args, proc.stdout, proc.stderr)
        return proc.returncode == 1

    def checkout(self, rev: Optional[str], side: str) -> pathlib.Path:
        """A tree of ``rev``; the working tree itself when ``rev`` is None."""
        if rev is None:
            return self.repo
        sha = self._git("rev-parse", "--verify",
                        f"{rev}^{{commit}}").stdout.strip()
        parent = self.repo / ".perfbench" / "ab"
        parent.mkdir(parents=True, exist_ok=True)
        path = pathlib.Path(tempfile.mkdtemp(prefix=f"{side}-{sha[:12]}-",
                                             dir=parent))
        self._git("worktree", "add", "--detach", str(path), sha)
        self.trees.append(path)
        return path

    def close(self) -> None:
        for path in self.trees:
            self._git("worktree", "remove", "--force", str(path),
                      check=False)
        self.trees.clear()

    def perfbench(self, root: pathlib.Path, workload: str, seconds: float,
                  out: pathlib.Path) -> dict:
        """One untraced benchmark run; its result document."""
        proc = subprocess.run(
            [sys.executable, str(root / "perfbench" / "run.py"),
             "--workload", workload, "--seed", str(SEED),
             "--seconds", str(seconds), "--trace", "0", "--out", str(out)],
            cwd=root, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        if proc.returncode != 0 or not out.exists():
            return {"correct": False, "exit": proc.returncode}
        return json.loads(out.read_text())

    def compare(self, root: pathlib.Path, base: pathlib.Path,
                head: pathlib.Path) -> str:
        """The frozen compare.py table of two result directories."""
        proc = subprocess.run(
            [sys.executable, str(root / "perfbench" / "compare.py"),
             str(base), str(head)],
            cwd=root, capture_output=True, text=True)
        return proc.stdout + proc.stderr

    def run_cell(self, root: pathlib.Path,
                 argv: Sequence[str]) -> Tuple[bytes, float, float, int]:
        """Stdout, wall seconds, peak RSS in MB and exit status of
        ``python -m repro ARGV`` in ``root``, result cache off."""
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        env.update(PYTHONPATH=str(root / "src"), REPRO_CACHE="0")
        with tempfile.TemporaryFile() as stdout:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "repro", *argv],
                                    cwd=root, env=env, stdout=stdout,
                                    stdin=subprocess.DEVNULL)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            stdout.seek(0)
            # Linux reports ru_maxrss in KiB.
            return stdout.read(), wall, usage.ru_maxrss / 1024, proc.returncode


def _log(message: str) -> None:
    print(f"ab: {message}", file=sys.stderr, flush=True)


def _series_add(series: Series, row: str, values: Dict[str, float]) -> None:
    for name, value in values.items():
        series.setdefault((row, name), []).append(value)


def ab_bench(args, host, roots: Dict[str, pathlib.Path]) -> int:
    spec = json.loads((roots["head"] / "BENCHMARK.json").read_text())
    known = [w["name"] for w in spec["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else known
    unknown = sorted(set(workloads) - set(known))
    if unknown:
        _log(f"unknown workload(s) {', '.join(unknown)} "
             f"(have: {', '.join(known)})")
        return 2
    seconds = args.seconds or spec["run_seconds"]
    out = pathlib.Path(args.out) if args.out else (
        REPO / ".perfbench" / "ab" / time.strftime("results-%Y%m%d-%H%M%S"))
    if any(out.glob("*/*.json")):
        # compare.py reads every result file in the directory.
        _log(f"{out} already holds result files")
        return 2
    series: Dict[str, Series] = {side: {} for side in SIDES}
    for workload in workloads:
        for pair in range(args.pairs):
            for side in run_order(pair):
                path = (out / side
                        / f"{workload}-seed{SEED}-pair{pair}.json")
                path.parent.mkdir(parents=True, exist_ok=True)
                doc = host.perfbench(roots[side], workload, seconds, path)
                if not doc.get("correct"):
                    _log(f"{workload} pair {pair + 1} {side}: run not "
                         f"correct ({path})")
                    return 1
                _log(f"{workload} pair {pair + 1}/{args.pairs} {side}: "
                     f"correct")
                _series_add(series[side], workload,
                            {name: m["value"]
                             for name, m in doc["metrics"].items()})
    _log(f"result files in {out}")
    print("```")
    print(host.compare(roots["head"], out / "base", out / "head").rstrip())
    print("```")
    print()
    rows = ratio_rows(spec["end_to_end"], series["base"], series["head"])
    print(format_table(
        f"HEAD/BASE per pair: {args.pairs} pairs of {seconds:g} s, "
        f"seed {SEED}", rows))
    return 1 if any(r["verdict"] == "regressed" for r in rows) else 0


def parse_cells(text: str) -> List[Tuple[str, List[str]]]:
    """``W:P:C[,...]`` -> (label, ``repro`` argv) per cell."""
    cells = []
    for item in text.split(","):
        parts = item.strip().split(":")
        if len(parts) != 3 or not parts[2].isdigit():
            raise argparse.ArgumentTypeError(
                f"bad cell {item!r}: want WORKLOAD:POLICY:CLUSTERS")
        workload, policy, clusters = parts
        cells.append((item.strip(),
                      ["run", "--workload", workload, "--policy", policy,
                       "--clusters", clusters, "--json"]))
    return cells


def ab_cells(args, host, roots: Dict[str, pathlib.Path]) -> int:
    spec = json.loads((roots["head"] / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    metrics = [
        {"name": "wall_s", "unit": "s", "better": "lower",
         "bound": bounds["sim_ops_per_s"]},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower",
         "bound": bounds["peak_rss_mb"]},
    ]
    series: Dict[str, Series] = {side: {} for side in SIDES}
    for label, argv in args.cells:
        first: Optional[Tuple[str, bytes]] = None
        for pair in range(args.pairs):
            for side in run_order(pair):
                stdout, wall, peak, code = host.run_cell(roots[side], argv)
                if code != 0:
                    _log(f"{label} pair {pair + 1} {side}: "
                         f"`repro {' '.join(argv)}` exited {code}")
                    return 1
                if first is None:
                    first = (side, stdout)
                elif stdout != first[1]:
                    _log(f"{label} pair {pair + 1}: {side}'s --json output "
                         f"differs from {first[0]}'s first run")
                    return 1
                _log(f"{label} pair {pair + 1}/{args.pairs} {side}: "
                     f"{wall:.2f} s, {peak:.0f} MB")
                _series_add(series[side], label,
                            {"wall_s": wall, "peak_rss_mb": peak})
    rows = ratio_rows(metrics, series["base"], series["head"])
    print(format_table(
        f"HEAD/BASE per pair: {args.pairs} pairs of `repro run --json`, "
        f"output byte-identical on both sides", rows))
    return 1 if any(r["verdict"] == "regressed" for r in rows) else 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="git revision of the BASE side")
    parser.add_argument("head", nargs="?", default=None,
                        help="git revision of the HEAD side "
                             "(default: the working tree)")
    parser.add_argument("--pairs", type=int, default=5,
                        help="pairs of runs per workload or cell "
                             "(default: 5)")
    parser.add_argument("--workloads", default=None, metavar="W[,W...]",
                        help="benchmark workloads (default: all)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: run_seconds of "
                             "BENCHMARK.json)")
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="result files (default: under .perfbench/ab/)")
    parser.add_argument("--cells", default=None, type=parse_cells,
                        metavar="WORKLOAD:POLICY:CLUSTERS[,...]",
                        help="time `repro run --json` cells instead of "
                             "the benchmark")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    return args


def main(argv=None, host=None) -> int:
    args = parse_args(argv)
    host = Host() if host is None else host
    try:
        if not args.cells and host.bench_differs(args.base, args.head):
            _log("perfbench/ or BENCHMARK.json differs between BASE and "
                 "HEAD; the benchmark code must be the same on both sides")
            return 2
        roots = {"base": host.checkout(args.base, "base"),
                 "head": host.checkout(args.head, "head")}
        return (ab_cells if args.cells else ab_bench)(args, host, roots)
    except subprocess.CalledProcessError as err:
        _log(f"`{' '.join(err.cmd)}` failed: {(err.stderr or '').strip()}")
        return 2
    finally:
        host.close()


if __name__ == "__main__":
    sys.exit(main())
