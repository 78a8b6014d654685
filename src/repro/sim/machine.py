"""Machine builder: wires clusters, memory system, runtime, and API.

A :class:`Machine` is one complete simulated chip plus its runtime: the
cluster cache controllers, the banked L3/directory front-end, the DRAM
channels, the Cohesion region tables, and the per-core clocks the
event-interleaved executor schedules on.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.config import MachineConfig, Policy
from repro.core.cohesion import MemorySystem
from repro.errors import SimulationError
from repro.runtime.layout import AddressLayout
from repro.sim.cluster import Cluster
from repro.sim.stats import RunStats


class Machine:
    """One simulated accelerator chip and its application runtime."""

    def __init__(self, config: MachineConfig, policy: Policy,
                 layout: Optional[AddressLayout] = None) -> None:
        from repro.runtime.system import Runtime  # machine <-> runtime wiring

        self.config = config
        self.policy = policy
        self.layout = layout or AddressLayout(n_cores=config.n_cores)
        if self.layout.n_cores != config.n_cores:
            raise ValueError("layout core count does not match machine config")
        self.memsys = MemorySystem(config, policy, self.layout)
        #: The machine-wide observability bus (see repro.obs): tracers,
        #: checkers, and samplers subscribe here.
        self.obs = self.memsys.obs
        self.clusters: List[Cluster] = [
            Cluster(cid, config, policy, self.memsys)
            for cid in range(config.n_clusters)]
        self.memsys.attach_clusters(self.clusters)
        # Compiled miss-path plans (repro.runtime.plans): installed
        # after the clusters are attached so plan bodies can bake the
        # cluster list. REPRO_PLANS=0 disables.
        from repro.runtime.plans import install_plans
        install_plans(self.memsys)
        self.core_clocks: List[float] = [0.0] * config.n_cores
        self.runtime = Runtime(self)
        self.api = self.runtime.api

    # -- convenience ----------------------------------------------------------
    def cluster_of_core(self, core: int) -> Tuple[Cluster, int]:
        per = self.config.cores_per_cluster
        return self.clusters[core // per], core % per

    def reset_message_counters(self) -> None:
        """Zero the L2->L3 message taxonomy (e.g. after warm-up)."""
        self.memsys.counters.reset()

    # -- snapshot / restore ----------------------------------------------------
    def snapshot(self) -> dict:
        """Capture all protocol-visible state of the whole machine.

        The snapshot covers the memory system (L3, directories, fine
        table, backing store) and every cluster's caches. Core clocks,
        timing backlog, and statistics are excluded: restoring rewinds
        simulated time to zero, which is what replay-style tools (the
        model checker) need.
        """
        return {
            "memsys": self.memsys.snapshot(),
            "clusters": [c.snapshot() for c in self.clusters],
        }

    def restore(self, snap: dict) -> None:
        """Reset protocol state to a :meth:`snapshot` and rewind clocks."""
        self.memsys.restore(snap["memsys"])
        for cluster, cluster_snap in zip(self.clusters, snap["clusters"]):
            cluster.restore(cluster_snap)
        for core in range(len(self.core_clocks)):
            self.core_clocks[core] = 0.0

    def run(self, program, ops_per_slice: int = 8,
            backend: str = "interp") -> RunStats:
        """Execute a BSP program to completion and return its stats.

        ``backend`` must be ``"interp"``, the only executor.
        """
        from repro.runtime.executor import BspExecutor

        if backend != "interp":
            raise SimulationError(
                f"unknown backend {backend!r}; the only backend is 'interp'")
        return BspExecutor(self, program, ops_per_slice=ops_per_slice).run()

    # -- functional-data helpers (track_data machines only) ----------------------
    def drain_caches(self) -> None:
        """Push every dirty word in every cache down to the backing store.

        Used by verification after a run: makes all surviving dirty data
        globally visible regardless of the coherence mode, without
        touching timing or message counters.
        """
        backing = self.memsys.backing
        # L3 first: an L3 line can hold *older* dirty words (merged from a
        # downgrade or flush) than an L2 copy that was modified again
        # afterwards, and a dirty word in an L2 is always the newest
        # version of that word, so L2 contents must land last.
        for bank in self.memsys.l3:
            for entry in bank.lines():
                if entry.dirty_mask and entry.data is not None:
                    backing.write_line(entry.line, entry.data,
                                       entry.dirty_mask & entry.valid_mask)
                entry.clean()
        for cluster in self.clusters:
            for entry in cluster.l2.lines():
                if entry.dirty_mask and entry.data is not None:
                    backing.write_line(entry.line, entry.data,
                                       entry.dirty_mask & entry.valid_mask)
                entry.clean()

    def verify_expected(self, expected: Dict[int, int],
                        drain: bool = True) -> List[Tuple[int, int, int]]:
        """Compare backing-store words against ``expected``.

        Returns a list of (address, expected, actual) mismatches; empty
        means every checked word holds the value the program's logical
        data flow promises. Requires a ``track_data=True`` machine.
        """
        if not self.config.track_data:
            raise ValueError("verification requires MachineConfig.track_data")
        if drain:
            self.drain_caches()
        backing = self.memsys.backing
        mismatches = []
        for addr, want in expected.items():
            got = backing.read_word_addr(addr)
            if got != want:
                mismatches.append((addr, want, got))
        return mismatches
