"""Equality suite for compiled miss-path plans (repro.runtime.plans).

Every test drives the *same* operation sequence through two identically
configured machines -- one with plan compilation enabled (the default),
one with ``REPRO_PLANS=0`` -- and requires **bit-identical**
observables: per-op return times and values, the full protocol-visible
state snapshot, the L2->L3 message taxonomy, network/port/DRAM resource
statistics, and the obs event stream.

The generative half (hypothesis) explores random miss sequences over a
small line pool spanning both heaps, from cores in different clusters,
across all three policies -- random directory states arise organically
from the interleavings. The directed half pins the invalidation
contract: a ``region.valid`` flip mid-run must drop every compiled plan
and recompile, never replay stale domain classifications. The
whole-program half runs every paper kernel, and random well-synchronised
BSP programs from the tier-1 generator, through the executor on both
machines.
"""

import pytest

from repro import Policy
from repro.runtime.executor import _add
from repro.runtime.program import Phase, Program, Task
from repro.types import OP_STORE
from repro.workloads import ALL_WORKLOADS, get_workload
from tests.conftest import make_machine

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from tests.test_random_bsp_programs import bsp_programs  # noqa: E402

COHERENT_HEAP = 0x2000_0000
INCOHERENT_HEAP = 0x4000_0000

#: Small pools per heap so sequences revisit lines: revisits are what
#: create directory churn (S -> M upgrades, multi-sharer probes,
#: read releases) and L3 set pressure.
ADDRS = tuple(COHERENT_HEAP + 32 * i for i in range(6)) + \
        tuple(INCOHERENT_HEAP + 32 * i for i in range(6))

POLICIES = {
    "swcc": Policy.swcc,
    "hwcc": lambda: Policy.hwcc_real(entries_per_bank=512, assoc=8),
    "cohesion": Policy.cohesion,
}

OP_KINDS = ("load", "store", "ifetch", "flush", "inv", "atomic")


def _twin_machines(policy_name, monkeypatch, track_data=True):
    """One plans-on machine and one plans-off machine, same config."""
    monkeypatch.delenv("REPRO_PLANS", raising=False)
    planned = make_machine(POLICIES[policy_name](), track_data=track_data)
    monkeypatch.setenv("REPRO_PLANS", "0")
    interp = make_machine(POLICIES[policy_name](), track_data=track_data)
    monkeypatch.delenv("REPRO_PLANS", raising=False)
    assert planned.memsys._plans is not None
    assert interp.memsys._plans is None
    return planned, interp


def _record_obs(machine):
    events = []
    machine.obs.subscribe(lambda ev: events.append(
        (ev.time, ev.kind, ev.cluster, ev.core, ev.line, ev.addr,
         ev.value, ev.dur, ev.detail)))
    return events


def _drive(machine, ops, t=0.0):
    """Apply an op sequence through the raw cluster interface from ``t``."""
    out = []
    for kind, core, slot, value in ops:
        cluster, local = machine.cluster_of_core(core)
        addr = ADDRS[slot]
        line = addr >> 5
        if kind == "load":
            t, v = cluster.load(local, addr, t)
            out.append(("load", t, v))
        elif kind == "store":
            t = cluster.store(local, addr, value, t)
            out.append(("store", t))
        elif kind == "ifetch":
            t = cluster.ifetch(local, addr, t)
            out.append(("ifetch", t))
        elif kind == "flush":
            t = cluster.flush_line(local, line, t)
            out.append(("flush", t))
        elif kind == "inv":
            t = cluster.invalidate_line(local, line, t)
            out.append(("inv", t))
        else:
            t, old = cluster.atomic(local, addr, _add, value, t)
            out.append(("atomic", t, old))
    return out


def _resource_fingerprint(machine):
    """Every resource statistic, plus the protocol counters beside them."""
    ms = machine.memsys
    net = ms.net
    def res(r):
        return (r.acquisitions, r.total_busy, sorted(r._used.items()))
    return {
        "ports": [res(c.port) for c in machine.clusters],
        "up": [res(m) for m in net.up_links.members],
        "down": [res(m) for m in net.down_links.members],
        "xbar": res(net.crossbar),
        "bank_ports": [res(m) for m in ms.bank_ports.members],
        "dram": [res(m) for m in ms.dram.channels.members],
        "dram_accesses": list(ms.dram.accesses),
        "net_messages": net.messages,
        "l3": [(b.hits, b.misses, b.evictions) for b in ms.l3],
        "counters": [(name, getattr(ms.counters, name))
                     for name in ms.counters.__slots__],
        "max_time": ms.max_time,
    }


def _assert_equal(planned, interp, out_planned, out_interp,
                  obs_planned=None, obs_interp=None):
    assert out_planned == out_interp
    assert _resource_fingerprint(planned) == _resource_fingerprint(interp)
    assert planned.snapshot() == interp.snapshot()
    if obs_planned is not None:
        assert obs_planned == obs_interp


ops_strategy = st.lists(
    st.tuples(st.sampled_from(OP_KINDS),
              st.integers(min_value=0, max_value=15),
              st.integers(min_value=0, max_value=len(ADDRS) - 1),
              st.integers(min_value=0, max_value=2 ** 31 - 1)),
    min_size=1, max_size=60)


class TestGenerativeEquality:
    """Random miss sequences, plan-compiled vs interpreted."""

    @pytest.mark.parametrize("policy_name", sorted(POLICIES))
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(ops=ops_strategy)
    def test_random_sequences_bit_identical(self, policy_name, ops,
                                            monkeypatch):
        planned, interp = _twin_machines(policy_name, monkeypatch)
        _assert_equal(planned, interp, _drive(planned, ops),
                      _drive(interp, ops))

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(ops=ops_strategy)
    def test_resource_statistics_match_after_every_op(self, ops,
                                                      monkeypatch):
        """Plan replay keeps every resource tally current: nothing is
        batched up for a later phase barrier or stats collection."""
        planned, interp = _twin_machines("cohesion", monkeypatch)
        t = 0.0
        for op in ops:
            out = _drive(planned, [op], t)
            assert out == _drive(interp, [op], t)
            assert (_resource_fingerprint(planned)
                    == _resource_fingerprint(interp))
            t = out[-1][1]

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(ops=ops_strategy)
    def test_observed_replay_emits_identical_streams(self, ops,
                                                     monkeypatch):
        """obs-active signatures carry every emit the interpreter has."""
        planned, interp = _twin_machines("cohesion", monkeypatch)
        obs_p = _record_obs(planned)
        obs_i = _record_obs(interp)
        _assert_equal(planned, interp, _drive(planned, ops),
                      _drive(interp, ops), obs_p, obs_i)
        assert planned.obs.active and interp.obs.active


class TestDirectedEquality:
    """Deterministic sequence long enough to prove replay happened."""

    SEQ = [(("load", "store", "atomic", "flush")[i % 4],
            (i * 5) % 16, (i * 7) % len(ADDRS), i * 3 + 1)
           for i in range(160)]

    @pytest.mark.parametrize("policy_name", sorted(POLICIES))
    def test_plans_replay_and_match(self, policy_name, monkeypatch):
        planned, interp = _twin_machines(policy_name, monkeypatch)
        _assert_equal(planned, interp, _drive(planned, self.SEQ),
                      _drive(interp, self.SEQ))
        stats = planned.memsys._plans.stats()
        assert stats["compiled"] > 0
        assert stats["replayed"] > 0


def _run_program(machine, program, expected):
    """Everything a whole-program run reports, for twin comparison."""
    stats = machine.run(program)
    checked = (machine.verify_expected(expected)
               if machine.config.track_data else [])
    return stats.as_dict(), stats.load_mismatches, checked


def _kernel_twins(workload, policy_name, monkeypatch, track_data=True,
                  scale=0.5, observe=False):
    """Run one paper kernel on plans-on/plans-off twins and require
    equal stats, values, snapshots and (if ``observe``) obs streams."""
    planned, interp = _twin_machines(policy_name, monkeypatch, track_data)
    outs, streams = [], []
    for machine in (planned, interp):
        program = get_workload(workload, scale=scale,
                               seed=1234).build(machine)
        streams.append(_record_obs(machine) if observe else None)
        outs.append(_run_program(machine, program, program.expected))
    _assert_equal(planned, interp, *outs, *streams)
    assert outs[0][1] == [] and outs[0][2] == []
    assert planned.memsys._plans.stats()["replayed"] > 0


class TestKernelEquality:
    """Every paper kernel end to end, plan-compiled vs interpreted."""

    @pytest.mark.parametrize("policy_name", sorted(POLICIES))
    @pytest.mark.parametrize("workload", ALL_WORKLOADS)
    def test_all_kernels_all_policies(self, workload, policy_name,
                                      monkeypatch):
        _kernel_twins(workload, policy_name, monkeypatch)

    @pytest.mark.parametrize("workload", ["kmeans", "gjk"])
    def test_untracked_data(self, workload, monkeypatch):
        """track_data=False turns the value plumbing off."""
        _kernel_twins(workload, "cohesion", monkeypatch, track_data=False)

    def test_state_identical_after_run(self, monkeypatch):
        """Every protocol-visible bit of machine state matches: cache
        contents word for word, directory state, fine-table bits."""
        planned, interp = _twin_machines("cohesion", monkeypatch)
        for machine in (planned, interp):
            machine.run(get_workload("kmeans", scale=0.5,
                                     seed=1234).build(machine))
        assert planned.memsys._plans.stats()["replayed"] > 0
        snapshot = planned.snapshot()
        assert snapshot and snapshot == interp.snapshot()


class TestObsStreamEquality:
    """Observed whole-program runs announce identical event streams."""

    @pytest.mark.parametrize("policy_name", sorted(POLICIES))
    def test_kmeans_stream(self, policy_name, monkeypatch):
        _kernel_twins("kmeans", policy_name, monkeypatch, scale=0.4,
                      observe=True)

    def test_store_heavy_stream(self, monkeypatch):
        """Same-line store runs, each store announcing itself."""
        base = INCOHERENT_HEAP
        ops = [(OP_STORE, base + 4 * word, 7_000 + word)
               for word in range(8) for _ in range(3)]
        task = Task(ops=ops, flush_lines=[base >> 5],
                    input_lines=[base >> 5], stack_words=2)
        program = Program("stores", [Phase("p0", [task], code_addr=0x10000,
                                           code_lines=1)])
        planned, interp = _twin_machines("swcc", monkeypatch)
        streams = [_record_obs(machine) for machine in (planned, interp)]
        outs = [_run_program(machine, program, {})
                for machine in (planned, interp)]
        _assert_equal(planned, interp, *outs, *streams)
        assert streams[0]


class TestRandomProgramEquality:
    """The tier-1 BSP program generator, plan-compiled vs interpreted."""

    @pytest.mark.parametrize("policy_name", sorted(POLICIES))
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(built=bsp_programs())
    def test_random_programs(self, policy_name, built, monkeypatch):
        program, expected = built
        planned, interp = _twin_machines(policy_name, monkeypatch)
        outs = [_run_program(machine, program, expected)
                for machine in (planned, interp)]
        _assert_equal(planned, interp, *outs)
        assert outs[0][1] == [] and outs[0][2] == []


class TestInvalidation:
    """region.valid flips must recompile, never replay stale plans."""

    def _warm(self, machine, region_addr):
        ops = [("store", i % 16, 6 + i % 6, i + 1) for i in range(40)]
        ops += [("load", i % 16, 6 + i % 6, 0) for i in range(40)]
        return _drive(machine, ops)

    def test_region_flip_drops_compiled_plans(self, monkeypatch):
        monkeypatch.delenv("REPRO_PLANS", raising=False)
        machine = make_machine(Policy.cohesion())
        region = machine.memsys.coarse.add(INCOHERENT_HEAP, 4096,
                                           name="test-heap")
        cache = machine.memsys._plans
        self._warm(machine, INCOHERENT_HEAP)
        assert cache.compiled > 0
        assert cache.sources
        gen = cache.generation
        region.valid = False
        assert not cache.sources, "valid flip must drop every plan"
        assert cache.generation == gen + 1

    def test_flip_mid_run_recompiles_and_stays_identical(self, monkeypatch):
        """The full contract: flip mid-run, equality end to end."""
        monkeypatch.delenv("REPRO_PLANS", raising=False)
        planned = make_machine(Policy.cohesion())
        monkeypatch.setenv("REPRO_PLANS", "0")
        interp = make_machine(Policy.cohesion())
        monkeypatch.delenv("REPRO_PLANS", raising=False)
        outs = []
        for machine in (planned, interp):
            region = machine.memsys.coarse.add(INCOHERENT_HEAP, 4096,
                                               name="test-heap")
            out = self._warm(machine, INCOHERENT_HEAP)
            # Software discipline before the domain flip: push dirty
            # data out and drop the cached copies, as the runtime's
            # convert_region path would.
            out += _drive(machine, [("flush", 0, 6 + i, 0)
                                    for i in range(6)])
            out += _drive(machine, [("inv", 0, 6 + i, 0)
                                    for i in range(6)])
            region.valid = False
            # Same addresses, now hardware-coherent: fresh signatures.
            out += self._warm(machine, INCOHERENT_HEAP)
            outs.append(out)
        _assert_equal(planned, interp, outs[0], outs[1])
        stats = planned.memsys._plans.stats()
        assert stats["compiled"] > 0, "post-flip traffic must recompile"
        assert stats["replayed"] > 0


class TestDispatchCounters:
    """Every miss-path dispatch is counted as replayed or fallen through."""

    MISS_PATH = ("read_line", "write_line_request", "upgrade_request",
                 "writeback", "read_release")

    def test_replayed_plus_fallthrough_is_every_miss_path_call(
            self, monkeypatch):
        from repro.analysis.experiments import ExperimentConfig, run_workload

        monkeypatch.delenv("REPRO_PLANS", raising=False)
        calls = []

        def count_calls(machine, _program):
            ms = machine.memsys
            for name in self.MISS_PATH:
                def counted(*args, _orig=getattr(ms, name), **kwargs):
                    calls.append(1)
                    return _orig(*args, **kwargs)
                setattr(ms, name, counted)

        # A Fig. 9 point: 256-entry fully associative directories, so
        # allocations that would evict fall through before any plan.
        stats, machine = run_workload(
            "kmeans", Policy.hwcc_real(entries_per_bank=256, assoc=256),
            ExperimentConfig(n_clusters=4, scale=0.2),
            instrument=count_calls)
        plans = machine.memsys._plans.stats()
        assert stats.dir_evictions > 0
        assert plans["fallthrough"] > plans["interpreted"]
        assert plans["replayed"] > 0
        assert plans["replayed"] + plans["fallthrough"] == len(calls)
