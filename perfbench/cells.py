"""The workloads: which simulation cells and which request mix each runs.

Every simulation cell goes through the same public calls
``repro.analysis.experiments.run_workload`` makes, on a 16-cluster
machine, with the workload seed taken from ``--seed``. Scales below 1.0
shrink a cell's dataset so that one sweep takes about five seconds on a
2-core x86 box and a run of ``run_seconds`` holds several sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

CLUSTERS = 16

#: Directory shape of the Fig. 9a/9b pressure points: 256 entries per
#: bank, fully associative (as ``run_directory_sweep`` builds them).
SMALL_DIR = 256
DEFAULT_DIR = (16 * 1024, 128)


@dataclass(frozen=True)
class SimCell:
    workload: str
    policy: str                      # swcc | cohesion | hwcc-real
    scale: float = 1.0
    dir_entries: int = DEFAULT_DIR[0]
    dir_assoc: int = DEFAULT_DIR[1]
    track_data: bool = False

    @property
    def label(self) -> str:
        parts = [self.workload, self.policy]
        if (self.dir_entries, self.dir_assoc) != DEFAULT_DIR:
            parts.append(f"dir{self.dir_entries}")
        if self.scale != 1.0:
            parts.append(f"x{self.scale:g}")
        if self.track_data:
            parts.append("data")
        return "/".join(parts)

    def policy_obj(self):
        from repro.config import Policy

        if self.policy == "swcc":
            return Policy.swcc()
        if self.policy == "cohesion":
            return Policy.cohesion(self.dir_entries, self.dir_assoc)
        if self.policy == "hwcc-real":
            return Policy.hwcc_real(self.dir_entries, self.dir_assoc)
        raise ValueError(f"unknown policy {self.policy!r}")

    def experiment(self, seed: int):
        from repro.analysis.experiments import ExperimentConfig

        return ExperimentConfig(n_clusters=CLUSTERS, scale=self.scale,
                                seed=seed, track_data=self.track_data)


def _pressure(workload: str, policy: str, scale: float = 1.0) -> SimCell:
    return SimCell(workload, policy, scale, SMALL_DIR, SMALL_DIR)


#: Why each workload exists is recorded in BENCHMARK.md.
SIM_WORKLOADS: Dict[str, Tuple[SimCell, ...]] = {
    # Fig. 3's policy: most ops hit in L1/L2, so the executor and the
    # cluster hit path dominate and the protocol is a small share.
    "swcc-local": (
        SimCell("cg", "swcc"),
        SimCell("gjk", "swcc"),
        SimCell("mri", "swcc"),
        SimCell("dmm", "swcc", 0.5),
    ),
    # Default 16K-entry directories: nearly every miss-path call replays
    # a compiled plan. The track_data cell checks real data values.
    "hwcc-replay": (
        SimCell("kmeans", "cohesion"),
        SimCell("sobel", "cohesion", 0.5),
        SimCell("kmeans", "hwcc-real", 0.6),
        SimCell("heat", "cohesion", 0.25),
        SimCell("kmeans", "cohesion", 0.25, track_data=True),
    ),
    # Fig. 9a/9b points: allocations that evict a directory entry fall
    # through to the interpreted protocol, so plans are mostly bypassed.
    "dir-pressure": (
        _pressure("kmeans", "hwcc-real", 0.5),
        _pressure("gjk", "hwcc-real", 0.6),
        _pressure("sobel", "hwcc-real", 0.3),
        _pressure("kmeans", "cohesion", 0.25),
    ),
}

# -- serve-mixed -------------------------------------------------------------

#: Small cells (tens of milliseconds cold) so a 20 s closed loop sees
#: hundreds of cold executions next to thousands of warm hits.
SERVE_SHAPE = {"clusters": 2, "scale": 0.1}
SERVE_WARM = tuple((w, p) for w in ("kmeans", "sobel", "gjk", "mri", "dmm",
                                     "heat")
                   for p in ("cohesion", "swcc"))
SERVE_COLD = (("kmeans", "cohesion"), ("gjk", "cohesion"),
              ("sobel", "cohesion"), ("mri", "swcc"))
#: One request in COLD_EVERY is a cold cell (sent by both clients at once).
COLD_EVERY = 10
SERVE_CLIENTS = 2


def serve_cell(workload: str, policy: str, seed: int) -> dict:
    """One wire-format cell of the serve mix."""
    return {"workload": workload, "policy": policy, "seed": seed,
            "label": f"{workload}/{policy}", **SERVE_SHAPE}


def serve_warm_set(seed: int) -> Tuple[dict, ...]:
    return tuple(serve_cell(w, p, seed) for w, p in SERVE_WARM)


def serve_cold_cell(seed: int, index: int) -> dict:
    """The ``index``-th cold cell: a fresh seed no warm cell uses."""
    workload, policy = SERVE_COLD[index % len(SERVE_COLD)]
    return serve_cell(workload, policy, seed + 1 + index)


WORKLOADS = tuple(SIM_WORKLOADS) + ("serve-mixed",)
