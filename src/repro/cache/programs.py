"""Level 1: the compiled-program artifact store.

Caches :class:`~repro.runtime.program.FrozenProgram` artifacts keyed by
everything :meth:`Workload.build` reads -- the workload name, its
dataset scale and RNG seed, the policy *kind* (workloads branch only on
the kind, e.g. kmeans's atomic mode under pure SWcc), ``force_hw_data``,
``track_data``, the core count, and the full address layout -- plus the
source-tree hash. A hit replays the artifact's allocation log through
the live machine (reproducing build-time protocol side effects exactly)
instead of regenerating the op stream.

Artifacts are pickles (op tuples, bounds, dicts -- no callables; a
program with ``after`` hooks raises at freeze time and is simply not
stored). As with results, any unreadable or mismatched artifact is a
miss.
"""

from __future__ import annotations

import os
import pathlib
import pickle
from typing import Optional, Union

from repro.cache import srchash
from repro.cache.keys import cache_enabled, cache_root, canonical, digest
from repro.cache.results import ReuseStats
from repro.errors import FreezeError
from repro.mem.address import WORD_SHIFT
from repro.runtime.program import FROZEN_FORMAT, FrozenProgram, Program

#: Bumped whenever the artifact payload layout changes incompatibly.
PROGRAM_SCHEMA = 1

#: Process-wide program-store accounting (mirrors RESULT_STATS).
PROGRAM_STATS = ReuseStats()


def program_key(name: str, workload, machine) -> dict:
    """The canonical build key of one (workload, machine) pairing."""
    return {
        "schema": PROGRAM_SCHEMA,
        "format": FROZEN_FORMAT,
        "source": srchash.source_tree_hash(),
        "workload": name,
        "scale": workload.scale,
        "seed": workload.seed,
        "policy_kind": machine.policy.kind.value,
        "force_hw_data": bool(workload.force_hw_data),
        "track_data": bool(machine.config.track_data),
        "n_cores": machine.config.n_cores,
        "layout": canonical(machine.layout),
    }


class ProgramStore:
    """Disk store of frozen programs under ``<root>/programs/``."""

    def __init__(self, root=None) -> None:
        self.root = pathlib.Path(root) if root is not None else cache_root()
        self.programs_dir = self.root / "programs"

    def _path(self, fingerprint: str) -> pathlib.Path:
        return self.programs_dir / fingerprint[:2] / f"{fingerprint}.pkl"

    def load(self, key: dict) -> Optional[FrozenProgram]:
        """The stored artifact for ``key``, or None (never raises)."""
        try:
            with open(self._path(digest(key)), "rb") as fh:
                payload = pickle.load(fh)
            if payload["schema"] != PROGRAM_SCHEMA:
                raise ValueError("schema mismatch")
            frozen = payload["frozen"]
            if not isinstance(frozen, FrozenProgram):
                raise TypeError("payload is not a FrozenProgram")
            if frozen.format != FROZEN_FORMAT:
                raise ValueError("frozen format mismatch")
        except Exception:
            return None
        return frozen

    def save(self, key: dict, frozen: FrozenProgram) -> bool:
        """Store one artifact (atomically); False on any write failure."""
        path = self._path(digest(key))
        payload = {"schema": PROGRAM_SCHEMA, "key": key, "frozen": frozen}
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
            with open(tmp, "wb") as fh:
                pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except (OSError, pickle.PicklingError):
            return False
        return True


def load_artifact(path) -> FrozenProgram:
    """Load one frozen-program artifact from an explicit file path.

    Accepts both a bare pickled :class:`FrozenProgram` (as
    :func:`dump_artifact` writes) and a :class:`ProgramStore` payload
    dict, so ``repro analyze --artifact`` can be pointed straight at a
    file under ``<cache>/programs/``. Unlike the store's forgiving
    :meth:`ProgramStore.load`, an explicit path that cannot be used is
    an error, not a miss.
    """
    from repro.errors import StaleArtifactError

    try:
        with open(path, "rb") as fh:
            payload = pickle.load(fh)
    except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
            ImportError) as err:
        raise StaleArtifactError(f"cannot read artifact {path}: {err}")
    frozen = payload.get("frozen") if isinstance(payload, dict) else payload
    if not isinstance(frozen, FrozenProgram):
        raise StaleArtifactError(
            f"artifact {path} does not contain a frozen program")
    if frozen.format != FROZEN_FORMAT:
        raise StaleArtifactError(
            f"artifact {path} has frozen format {frozen.format}, "
            f"this tree expects {FROZEN_FORMAT}")
    return frozen


def dump_artifact(frozen: FrozenProgram, path) -> None:
    """Write one frozen program as a standalone artifact file."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
    with open(tmp, "wb") as fh:
        pickle.dump(frozen, fh, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(tmp, path)


def build_program(name: str, workload, machine
                  ) -> Union[Program, FrozenProgram]:
    """Build ``workload`` on ``machine``, reusing a stored artifact.

    On a store hit the artifact's allocation log is replayed through the
    machine's real allocation API (reproducing addresses *and* protocol
    side effects -- ``coh_malloc`` converts regions under Cohesion) and
    the frozen program is returned for direct execution. On a miss the
    workload builds normally and the frozen form is stored for next
    time.

    Raises :class:`~repro.errors.StaleArtifactError` if replay diverges
    from the recorded addresses; the machine may then be part-allocated,
    so the caller must rebuild on a *fresh* machine.
    """
    if not cache_enabled():
        return workload.build(machine)
    store = ProgramStore()
    try:
        key = program_key(name, workload, machine)
    except Exception:
        return workload.build(machine)
    frozen = store.load(key)
    if frozen is not None:
        frozen.apply_to(machine)
        PROGRAM_STATS.hits += 1
        return frozen
    PROGRAM_STATS.misses += 1
    program = workload.build(machine)
    try:
        frozen = program.freeze()
    except FreezeError:
        return program
    frozen.alloc_log = list(workload._alloc_log)
    if machine.config.track_data:
        words = getattr(machine.memsys.backing, "_words", None)
        if words:
            frozen.initial_memory = {word << WORD_SHIFT: value
                                     for word, value in words.items()}
    if store.save(key, frozen):
        PROGRAM_STATS.stores += 1
    return program
