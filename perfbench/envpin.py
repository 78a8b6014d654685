"""Environment pinning and provenance, applied before any workload starts.

Every ``REPRO_*`` knob that changes what or how the simulator runs is
scrubbed, so a developer's shell cannot silently turn plans off or a
cache on. The interpreter's garbage collector is left at its default,
as a user's ``repro figures`` run has it. Every result file records the
interpreter, CPU count, platform, source identity and the resolved
backend and plans state, so two result files are either comparable or
visibly not.
"""

from __future__ import annotations

import gc
import os
import pathlib
import platform
import subprocess
import sys

SCRUBBED = ("REPRO_BACKEND", "REPRO_PLANS", "REPRO_CACHE", "REPRO_CACHE_DIR",
            "REPRO_JOBS", "REPRO_CLUSTERS", "REPRO_SCALE", "REPRO_FULL")


def repo_root() -> pathlib.Path:
    return pathlib.Path(__file__).resolve().parent.parent


def work_dir(root: pathlib.Path) -> pathlib.Path:
    """Where runs leave result files, traces and scratch cache dirs."""
    return root / ".perfbench"


def scrubbed_env(env=None) -> dict:
    env = dict(os.environ if env is None else env)
    for name in list(env):
        if name in SCRUBBED or name.startswith("REPRO_SERVE_"):
            del env[name]
    return env


def pin(root: pathlib.Path) -> None:
    """Scrub the knobs, point every cache and temp dir inside ``root``,
    turn the simulator caches off, and make ``repro`` importable."""
    clean = scrubbed_env()
    os.environ.clear()
    os.environ.update(clean)
    scratch = work_dir(root) / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(scratch)
    os.environ["REPRO_CACHE"] = "0"
    os.environ["REPRO_CACHE_DIR"] = str(work_dir(root) / "cache")
    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)


def _git_commit(root: pathlib.Path):
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def provenance(root: pathlib.Path) -> dict:
    from repro.cache.srchash import source_tree_hash
    from repro.runtime.backends import DEFAULT_BACKEND
    from repro.runtime.plans import plans_enabled

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": nproc,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "git_commit": _git_commit(root),
        "source_tree_hash": source_tree_hash(),
        "backend": DEFAULT_BACKEND,
        "plans": "on" if plans_enabled() else "off",
        "gc": {"enabled": gc.isenabled(), "thresholds": gc.get_threshold()},
    }
