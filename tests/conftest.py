"""Shared fixtures: small machines for every design point."""

import pytest

from repro import Machine, MachineConfig, Policy

try:
    import numpy  # noqa: F401
    HAVE_NUMPY = True
except ImportError:  # exercised by the no-numpy CI job
    HAVE_NUMPY = False

#: Workloads whose dataset generators need numpy (``repro[workloads]``).
NUMPY_WORKLOADS = frozenset({"dmm", "heat"})

needs_numpy = pytest.mark.skipif(
    not HAVE_NUMPY, reason="needs numpy (the repro[workloads] extra)")


def pytest_collection_modifyitems(config, items):
    """Without numpy, skip every test parametrized over dmm or heat."""
    if HAVE_NUMPY:
        return
    for item in items:
        callspec = getattr(item, "callspec", None)
        if callspec is not None and any(
                isinstance(value, str) and value in NUMPY_WORKLOADS
                for value in callspec.params.values()):
            item.add_marker(needs_numpy)


@pytest.fixture(scope="session", autouse=True)
def _isolated_cache_dir(tmp_path_factory):
    """Point the experiment cache at a per-session temp directory.

    Keeps the suite from reading a developer's warm ``~/.cache/repro``
    (which would mask regressions behind stale hits) and from leaving
    test artifacts there. Individual cache tests override this with
    their own directories or disable caching outright.
    """
    import os

    root = tmp_path_factory.mktemp("repro-cache")
    old = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(root)
    yield root
    if old is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = old


def small_config(n_clusters: int = 2, track_data: bool = True,
                 **overrides) -> MachineConfig:
    """A tiny machine for tests: 2 clusters (16 cores), data-tracking."""
    config = MachineConfig(track_data=track_data).scaled(n_clusters)
    if overrides:
        import dataclasses
        config = dataclasses.replace(config, **overrides)
    return config


def make_machine(policy: Policy, n_clusters: int = 2,
                 track_data: bool = True, **overrides) -> Machine:
    return Machine(small_config(n_clusters, track_data, **overrides), policy)


@pytest.fixture
def config():
    return small_config()


@pytest.fixture
def swcc_machine():
    return make_machine(Policy.swcc())


@pytest.fixture
def hwcc_machine():
    return make_machine(Policy.hwcc_ideal())


@pytest.fixture
def hwcc_real_machine():
    return make_machine(Policy.hwcc_real(entries_per_bank=512, assoc=8))


@pytest.fixture
def cohesion_machine():
    return make_machine(Policy.cohesion())


ALL_POLICY_LABELS = ["swcc", "hwcc_ideal", "hwcc_real", "dir4b", "cohesion",
                     "cohesion_ideal"]


def policy_by_label(label: str) -> Policy:
    from repro.types import DirectoryKind

    return {
        "swcc": Policy.swcc(),
        "hwcc_ideal": Policy.hwcc_ideal(),
        "hwcc_real": Policy.hwcc_real(entries_per_bank=1024, assoc=64),
        "dir4b": Policy(directory=DirectoryKind.DIR4B,
                        kind=Policy.hwcc_real().kind,
                        dir_entries_per_bank=1024, dir_assoc=64),
        "cohesion": Policy.cohesion(entries_per_bank=1024, assoc=64),
        "cohesion_ideal": Policy.cohesion_ideal(),
    }[label]
