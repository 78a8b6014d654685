"""Compiled miss-path transition plans (ROADMAP item 1 / item 5 idiom).

The protocol slow path -- ``MemorySystem.read_line`` /
``write_line_request`` / ``upgrade_request`` / ``writeback`` /
``read_release`` and the single-line domain transitions -- dominates the
wall time of miss-heavy runs. Each of those walks re-executes
the same Python decision tree per miss: resolve the domain, consult the
directory, reserve network legs and the bank port, touch the L3 data
array, reply. For a given *control signature* the walk is identical
every time; only addresses, times and data differ.

This module memoizes that walk. On the first miss with a given
signature -- (op kind, domain-resolution class, requester-relative
directory shape, L3 line-validity class, alias class, observer
activity) -- the compiler emits the transition's straight-line source
(counter deltas, message emissions with their ``obs.emit`` hooks, state
writes, resource acquisitions with their occupancy classes), bakes the
machine's construction-time constants into it, and ``exec``s it into a
*plan*: a single flat function. Every later miss with the same
signature replays the plan instead of re-walking the interpreter.

Three layers keep replay cheap:

* **Observer specialisation.** ``obs.active`` is part of the signature,
  so the hot (observer-less) variants carry no emit code and no
  branches; the observed variants emit every event the interpreter
  would, unconditionally and in the same order.
* **Deferred resource statistics.** The ``acquisitions`` /
  ``total_busy`` tallies of the tree links, crossbar, bank port and
  DRAM channel (and ``DRAM.accesses``) are pure monotonic statistics:
  nothing reads them between protocol calls, every plan-issued
  occupancy is a power of two, and partial sums stay far inside
  float53's exact range -- so batch application is bit-identical to
  eager updates. A deferred plan bumps one per-(tree, bank) replay
  counter; :meth:`PlanCache.settle` expands the counts at phase
  barriers and stats collection. Time-bearing state (the ``_used``
  bucket maps), protocol counters (``MessageCounters``,
  ``net.messages``, L3 hit/miss/eviction counts) and all cache/
  directory state stay eager.
* **A process-wide code cache.** Plan source depends only on the
  signature and construction-time constants, so the compiled code
  object is shared across machines; a fresh machine pays one ``exec``
  per shape, not a ``compile``.

Soundness:

* The signature is recomputed from **pure probes** on every dispatch
  (directory ``get``, coarse-table memo, L3 set peek, fine-table bit),
  so a plan can never replay against control state it was not compiled
  for -- domain flips, directory churn and L3 eviction pressure are all
  re-observed per call.
* Probes whose outcome a *later step of the same walk* could change are
  never baked. The fine-table paths access the table word's L3 line
  before the data line -- that access can evict the data line when they
  share an L3 set -- so same-set fine-path data accesses (and every
  path that merges probe data into the L3 first) use the interpreter's
  ``_l3_access`` verbatim instead of a baked validity class.
* Signatures outside the compiled footprint (a partially valid L3 line,
  a directory set at associativity, an owner-read fault, an installed
  region profiler) are negative-cached as *uncompilable* and always
  interpret.
* Plans bake only construction-time constants (latencies, occupancies,
  bank geometry, channel map, ``track_data``). Coarse-region changes
  (``region.valid`` flips, ``add``/``remove``) additionally invalidate
  the compiled tables wholesale via :meth:`PlanCache.invalidate` --
  defence in depth on top of per-call signature recomputation.
* Replay is bit-identical to interpretation: same float operation
  order for every time-bearing value, same counter/LRU/occupancy
  updates, same ``obs`` events in the same order. The equality suite
  in ``tests/runtime/test_plans.py`` and the golden full-driver diffs
  pin this.

The model checker's mutation harness monkey-patches protocol methods on
live instances; plans would hide those injected bugs, so machines built
by ``repro.mc.presets.build_machine`` run with plans disabled.

Set ``REPRO_PLANS=0`` to disable plan compilation machine-wide.
"""

from __future__ import annotations

import os
import re
from typing import Optional

from operator import attrgetter

from repro.coherence.directory import DIR_M, DIR_S
from repro.mem.address import FULL_WORD_MASK, WORDS_PER_LINE, line_of
from repro.mem.cache import CacheLine
from repro.obs.bus import (EV_NET, EV_TO_HWCC, EV_TO_SWCC, ObsEvent)
from repro.timing import BUCKET_CYCLES, _INV_BUCKET
from repro.types import MessageType, PolicyKind

_MISSING = object()

#: Process-wide source-text -> code-object cache: plan source depends
#: only on the signature and machine-shape constants, so every machine
#: with the same shape shares the compiled bytecode.
_CODE_CACHE: dict = {}

#: Deferred-stats preamble: one replay tick per (tree, bank) key.
_DEFER_KEY = """
    DC[cluster_id // CPT * NBANKS + bank] += 1
"""

#: Exec-namespace names whose values are plain numbers (or short
#: strings) fixed at machine construction. :meth:`PlanCache._exec`
#: substitutes them into the plan source as literals, so replay does no
#: name lookup at all for them (and ``int(t * INV_BUCKET)``-style
#: expressions run on constants).
_SCALAR_NAMES = (
    "BUCKET_CYCLES", "INV_BUCKET", "TREE_OCC", "XBAR_OCC", "ONE_WAY",
    "L3_LAT", "DRAM_LAT", "DRAM_OCC", "CPT", "NBANKS", "N_SETS",
    "FULL_WORD_MASK", "WORDS_PER_LINE", "NACK_SER", "NCLU", "DIR_S",
    "DIR_M", "MSG_READ", "MSG_IREAD", "MSG_WRITE", "MSG_PROBE_RESP",
    "MSG_RDREL", "MSG_FLUSH", "MSG_EVICT", "MSG_ATOMIC", "EV_NET",
    "EV_TO_SWCC", "EV_TO_HWCC",
)

#: Names a plan body may reference whose values are *objects* with
#: stable identity (plus the builtins the fragments use). ``_exec``
#: binds the ones a body actually uses as keyword defaults, turning
#: every reference into a local-variable load.
_OBJ_NAMES = (
    "Reply", "CacheLine", "ObsEvent", "LRU_KEY", "C", "OBS", "NET",
    "UP", "DOWN", "XBAR", "PORTS", "L3BANKS", "DIRS", "LAYOUT",
    "CLUSTERS", "FINE", "BACKING", "DRAM", "DRAMCH", "CHAN", "ENGINE",
    "min", "int", "list", "len", "range",
)

_NAME_PAT = re.compile(
    r"\b(" + "|".join(_SCALAR_NAMES + _OBJ_NAMES) + r")\b")


def plans_enabled() -> bool:
    """Whether the ``REPRO_PLANS`` knob allows plan compilation."""
    return os.environ.get("REPRO_PLANS", "1") != "0"


def install_plans(memsys) -> Optional["PlanCache"]:
    """Attach a :class:`PlanCache` to ``memsys`` (the machine builder hook).

    Respects ``REPRO_PLANS``; wires coarse-region invalidation so any
    ``region.valid`` flip or table mutation drops every compiled plan.
    """
    if not plans_enabled():
        memsys._plans = None
        return None
    cache = PlanCache(memsys)
    memsys._plans = cache
    memsys.coarse._on_invalidate = cache.invalidate
    return cache


class _Recipe:
    """Static per-replay resource-statistic deltas of one deferred plan.

    Filled in while the plan's fragments are generated; applied by
    :meth:`PlanCache.settle` as ``count x delta`` in one batch. Every
    delta is an integer count or a multiple of a power-of-two occupancy
    (tree 2^-2, crossbar 2^-4, port 2^0/2^-1, DRAM 2^1), so the batch
    lands on exactly the bits eager per-replay updates would.
    """

    __slots__ = ("up", "down", "xbar", "ports", "dram")

    def __init__(self) -> None:
        self.up = 0
        self.down = 0
        self.xbar = 0
        #: occupancy -> acquisitions of the home bank's port per replay.
        self.ports: dict = {}
        self.dram = 0

    def apply(self, env: dict, tree: int, bank: int, n: int) -> None:
        if self.up:
            link = env["UP"][tree]
            link.acquisitions += n * self.up
            link.total_busy += n * self.up * env["TREE_OCC"]
        if self.down:
            link = env["DOWN"][tree]
            link.acquisitions += n * self.down
            link.total_busy += n * self.down * env["TREE_OCC"]
        if self.xbar:
            xbar = env["XBAR"]
            xbar.acquisitions += n * self.xbar
            xbar.total_busy += n * self.xbar * env["XBAR_OCC"]
        if self.ports:
            port = env["PORTS"][bank]
            for occ, cnt in self.ports.items():
                port.acquisitions += n * cnt
                port.total_busy += n * cnt * occ
        if self.dram:
            chan = env["CHAN"][bank]
            res = env["DRAMCH"][chan]
            res.acquisitions += n * self.dram
            res.total_busy += n * self.dram * env["DRAM_OCC"]
            env["DRAM"].accesses[chan] += n * self.dram


# --------------------------------------------------------------------------
# Source fragments. Each returns indented source text; locals are reused
# sequentially (every fragment leaves ``t`` holding the current time).
# Baked names (upper case) live in the plan's exec namespace. ``obs``
# switches emit code in or out at generation time; ``recipe`` (when not
# None) absorbs the fragment's resource statistics for deferral.
# --------------------------------------------------------------------------

def _frag_to_l3(cl: str, src: str, obs: bool, recipe) -> str:
    """Inline ``Network.to_l3`` for cluster expression ``cl``; sets ``t``."""
    if recipe is not None:
        recipe.up += 1
        recipe.xbar += 1
        link_stats = xbar_stats = ""
    else:
        link_stats = """
    link.acquisitions += 1
    link.total_busy += TREE_OCC"""
        xbar_stats = """
    XBAR.acquisitions += 1
    XBAR.total_busy += XBAR_OCC"""
    text = f"""
    NET.messages += 1
    link = UP[{cl} // CPT]{link_stats}
    u = link._used
    b = int({src} * INV_BUCKET)
    f = u.get(b, 0.0)
    if f + TREE_OCC > BUCKET_CYCLES:
        b, f = link._slot_after(b, TREE_OCC)
    u[b] = f + TREE_OCC
    start = b * BUCKET_CYCLES
    if {src} > start:
        start = {src}{xbar_stats}
    u = XBAR._used
    b = int(start * INV_BUCKET)
    f = u.get(b, 0.0)
    if f + XBAR_OCC > BUCKET_CYCLES:
        b, f = XBAR._slot_after(b, XBAR_OCC)
    u[b] = f + XBAR_OCC
    begin = b * BUCKET_CYCLES
    if start > begin:
        begin = start
    t = begin + ONE_WAY
"""
    if obs:
        text += f"""
    OBS.emit(ObsEvent({src}, EV_NET, {cl}, dur=t - {src}, detail="up"))
"""
    return text


def _frag_to_cluster(cl: str, src: str, dst: str, obs: bool, recipe) -> str:
    """Inline ``Network.to_cluster`` toward ``cl``; sets ``dst``."""
    if recipe is not None:
        recipe.down += 1
        recipe.xbar += 1
        link_stats = xbar_stats = ""
    else:
        xbar_stats = """
    XBAR.acquisitions += 1
    XBAR.total_busy += XBAR_OCC"""
        link_stats = """
    link.acquisitions += 1
    link.total_busy += TREE_OCC"""
    text = f"""
    NET.messages += 1{xbar_stats}
    u = XBAR._used
    b = int({src} * INV_BUCKET)
    f = u.get(b, 0.0)
    if f + XBAR_OCC > BUCKET_CYCLES:
        b, f = XBAR._slot_after(b, XBAR_OCC)
    u[b] = f + XBAR_OCC
    start = b * BUCKET_CYCLES
    if {src} > start:
        start = {src}
    link = DOWN[{cl} // CPT]{link_stats}
    u = link._used
    b = int(start * INV_BUCKET)
    f = u.get(b, 0.0)
    if f + TREE_OCC > BUCKET_CYCLES:
        b, f = link._slot_after(b, TREE_OCC)
    u[b] = f + TREE_OCC
    begin = b * BUCKET_CYCLES
    if start > begin:
        begin = start
    {dst} = begin + ONE_WAY
"""
    if obs:
        text += f"""
    OBS.emit(ObsEvent({src}, EV_NET, {cl}, dur={dst} - {src}, detail="down"))
"""
    return text


def _frag_bank_port(occ: str, recipe) -> str:
    """Inline the L3 bank-port reservation at occupancy ``occ``; t -> t."""
    if recipe is not None:
        key = float(occ)
        recipe.ports[key] = recipe.ports.get(key, 0) + 1
        stats = ""
    else:
        stats = f"""
    port.acquisitions += 1
    port.total_busy += {occ}"""
    return f"""
    port = PORTS[bank]{stats}
    u = port._used
    b = int(t * INV_BUCKET)
    f = u.get(b, 0.0)
    if f + {occ} > BUCKET_CYCLES:
        b, f = port._slot_after(b, {occ})
    u[b] = f + {occ}
    tt = b * BUCKET_CYCLES
    if t > tt:
        tt = t
    t = tt
"""


_FRAG_NOTE = """
    if t > ms.max_time:
        ms.max_time = t
"""


def _frag_dram_fill(obs: bool, wide: bool, recipe) -> str:
    """One DRAM line fill at time ``t``; t -> completion time."""
    if obs or wide:
        # DRAM.access self-counts and carries the EV_DRAM emit, and is
        # the only correct path for occupancies wider than a bucket.
        return """
    t = DRAM.access(CHAN[bank], t)
"""
    if recipe is not None:
        recipe.dram += 1
        stats = ""
        acc = ""
    else:
        stats = """
    res.acquisitions += 1
    res.total_busy += DRAM_OCC"""
        acc = """
    DRAM.accesses[CHAN[bank]] += 1"""
    return f"""
    res = DRAMCH[CHAN[bank]]{stats}
    u = res._used
    b = int(t * INV_BUCKET)
    f = u.get(b, 0.0)
    if f + DRAM_OCC > BUCKET_CYCLES:
        b, f = res._slot_after(b, DRAM_OCC)
    u[b] = f + DRAM_OCC
    start = b * BUCKET_CYCLES
    if t > start:
        start = t{acc}
    t = start + DRAM_LAT + DRAM_OCC
"""


def _frag_l3(l3cls: str, line: str, need_data: bool, track: bool,
             obs: bool, wide: bool, recipe, entry: str = "l3e",
             wm: str = "", wv: str = "") -> str:
    """Baked-class replica of ``MemorySystem._l3_access``.

    ``l3cls`` is the dispatch-probed validity class of ``line``'s L3
    entry: ``hit`` (present; fully valid when ``need_data``), ``room``
    (absent, set below associativity) or ``evict`` (absent, full set).
    The probed ``entry`` is reused for ``hit``; the others allocate.
    Partially valid lines are uncompilable and never reach here.
    """
    src = _frag_bank_port("1.0", recipe) + """
    t = t + L3_LAT
    cache = L3BANKS[bank]
"""
    if l3cls == "hit":
        src += f"""
    cache._tick += 1
    {entry}.lru = cache._tick
    cache.hits += 1
"""
    else:
        src += f"""
    cache.misses += 1
"""
        if need_data:
            src += _frag_dram_fill(obs, wide, recipe)
        vm0 = "FULL_WORD_MASK" if need_data else (wm or "0")
        src += f"""
    set_ = cache.sets[{line} % N_SETS]
    cache._tick += 1
"""
        if l3cls == "evict":
            # Manual LRU scan: ties break on first-encountered, exactly
            # like min(..., key=LRU_KEY) with a strict < comparison.
            src += f"""
    _vals = iter(set_.values())
    {entry} = next(_vals)
    _best = {entry}.lru
    for _e in _vals:
        if _e.lru < _best:
            _best = _e.lru
            {entry} = _e
    del set_[{entry}.line]
    cache.evictions += 1
    if {entry}.dirty_mask:
        ms._l3_victim(bank, {entry}, t)
    {entry}.line = {line}
    {entry}.valid_mask = {vm0}
    {entry}.dirty_mask = 0
    {entry}.incoherent = False
"""
            if track:
                src += f"""
    if {entry}.data is not None:
        {entry}.data[:] = (0,) * WORDS_PER_LINE
"""
        else:
            data0 = "[0] * WORDS_PER_LINE" if track else "None"
            src += f"""
    {entry} = CacheLine({line}, {vm0}, 0, False, {data0})
"""
        src += f"""
    {entry}.lru = cache._tick
    set_[{line}] = {entry}
    cache._occupied[{line} % N_SETS] = None
"""
        if need_data and track:
            src += f"""
    {entry}.data[:] = BACKING.read_line({line})
"""
    if wm:
        src += f"""
    {entry}.valid_mask |= {wm}
    {entry}.dirty_mask |= {wm}
"""
        if track:
            src += f"""
    if {entry}.data is not None and {wv} is not None:
        data_ = {entry}.data
        for w_ in range(len({wv})):
            if {wm} & (1 << w_):
                data_[w_] = {wv}[w_]
"""
    return src + _FRAG_NOTE


def _frag_reply_data(track: bool) -> str:
    """Snapshot the reply payload; ``track_data=False`` machines never
    attach data arrays to cache lines, so the copy bakes to ``None``."""
    if not track:
        return """
    data = None
"""
    return """
    data = list(l3e.data) if l3e.data is not None else None
"""


class PlanCache:
    """Per-machine signature -> compiled-plan tables with stats."""

    def __init__(self, ms) -> None:
        self.ms = ms
        config = ms.config
        net = ms.net
        from repro.interconnect.network import _XBAR_OCCUPANCY
        self.generation = 0
        self.compiled = 0
        self.replayed = 0
        #: Dispatches answered by the negative cache (no plan for the
        #: signature); a subset of ``fallthrough``.
        self.interpreted = 0
        #: Dispatches that returned None for any reason, counted by the
        #: callers: replayed + fallthrough == dispatch calls.
        self.fallthrough = 0
        #: Plan source by signature, kept for tests and selfcheck S005.
        self.sources: dict = {}
        self._read: dict = {}
        self._write: dict = {}
        self._upgrade: dict = {}
        self._wb: dict = {}
        self._rr: dict = {}
        self._trans: dict = {}
        #: (recipe, per-plan replay-count dict) pairs awaiting settle().
        self._defers: list = []
        self._track = config.track_data
        self._swcc_all = ms.policy.kind is PolicyKind.SWCC
        self._dram_wide = ms.dram.occupancy_per_line > BUCKET_CYCLES
        # Dispatch fast paths. These bind mutable *containers* whose
        # identity is stable for the machine's lifetime (the memo dicts
        # are ``.clear()``-ed, never reassigned), so reading through
        # them each call observes current state without the attribute
        # chains of the interpreter helpers.
        self._bank_memo = ms._bank_memo
        self._coarse_memo = ms.coarse._line_memo
        self._l3sets = [c.sets for c in ms.l3]
        self._nsets = ms.l3[0].n_sets
        self._assoc = ms.l3[0].assoc
        #: line -> L3 line of its fine-table word (pure address math).
        self._tline_memo: dict = {}
        # Baked exec namespace: construction-time constants only. The
        # object identities bound here (counters, caches, resource
        # lists, the event bus) are created once in MemorySystem's
        # constructor and never reassigned.
        self._env = {
            "Reply": None,  # filled below (import cycle)
            "CacheLine": CacheLine,
            "ObsEvent": ObsEvent,
            "EV_NET": EV_NET,
            "EV_TO_SWCC": EV_TO_SWCC,
            "EV_TO_HWCC": EV_TO_HWCC,
            "BUCKET_CYCLES": BUCKET_CYCLES,
            "INV_BUCKET": _INV_BUCKET,
            "LRU_KEY": attrgetter("lru"),
            "FULL_WORD_MASK": FULL_WORD_MASK,
            "WORDS_PER_LINE": WORDS_PER_LINE,
            "DIR_S": DIR_S,
            "DIR_M": DIR_M,
            "MSG_READ": MessageType.READ_REQUEST.value,
            "MSG_IREAD": MessageType.INSTRUCTION_REQUEST.value,
            "MSG_WRITE": MessageType.WRITE_REQUEST.value,
            "MSG_PROBE_RESP": MessageType.PROBE_RESPONSE.value,
            "MSG_RDREL": MessageType.READ_RELEASE.value,
            "MSG_FLUSH": MessageType.SOFTWARE_FLUSH.value,
            "MSG_EVICT": MessageType.CACHE_EVICTION.value,
            "MSG_ATOMIC": MessageType.UNCACHED_ATOMIC.value,
            "C": ms.counters,
            "OBS": ms.obs,
            "NET": net,
            "UP": net.up_links.members,
            "DOWN": net.down_links.members,
            "XBAR": net.crossbar,
            "CPT": net.clusters_per_tree,
            "TREE_OCC": net.tree_occupancy,
            "XBAR_OCC": _XBAR_OCCUPANCY,
            "ONE_WAY": net.one_way_latency,
            "PORTS": ms.bank_ports.members,
            "L3BANKS": ms.l3,
            "NBANKS": len(ms.l3),
            "N_SETS": ms.l3[0].n_sets,
            "L3_LAT": ms.l3_latency,
            "DIRS": ms.dirs,
            "LAYOUT": ms.layout,
            "CLUSTERS": None,  # bound lazily: attach_clusters runs later
            "FINE": ms.fine,
            "BACKING": ms.backing,
            "DRAM": ms.dram,
            "DRAMCH": ms.dram.channels.members,
            "CHAN": ms._chan_of_bank,
            "DRAM_LAT": ms.dram.latency,
            "DRAM_OCC": ms.dram.occupancy_per_line,
            "NCLU": ms.n_clusters,
            "ENGINE": ms.transitions,
            "NACK_SER": None,  # bound below
        }
        from repro.core.cohesion import Reply
        from repro.core.transitions import _NACK_SERIALISATION
        self._env["Reply"] = Reply
        self._env["NACK_SER"] = _NACK_SERIALISATION
        #: name -> source literal for the scalar bakes (``repr`` of a
        #: float round-trips exactly, so the literal is the value).
        self._lit_map = {n: repr(self._env[n]) for n in _SCALAR_NAMES}
        self._ntrees = len(net.up_links.members)
        self._fixed = ms._fixed_domain
        self._obs = ms.obs
        self._dirget = tuple(d.get for d in ms.dirs)

    # -- invalidation / stats ------------------------------------------------
    def invalidate(self) -> None:
        """Drop every compiled plan (coarse-region/domain flip hook)."""
        self.settle()
        self.generation += 1
        self._read.clear()
        self._write.clear()
        self._upgrade.clear()
        self._wb.clear()
        self._rr.clear()
        self._trans.clear()
        self._defers.clear()
        self.sources.clear()

    def settle(self) -> None:
        """Apply every deferred resource-statistic delta (exact).

        Deferred plans count replays per (tree, bank) instead of eagerly
        bumping ``acquisitions``/``total_busy``/``accesses`` on five
        resources per miss; this expands the counts into the identical
        final values (integer counts are exact, and the busy sums add
        multiples of power-of-two occupancies whose partial sums are all
        exactly representable, so batching cannot move a bit). Runs at
        phase barriers, at stats collection and before invalidation;
        code reading resource statistics between *raw* protocol calls on
        a plans-enabled machine must call it first.
        """
        env = self._env
        nbanks = env["NBANKS"]
        for recipe, dc in self._defers:
            for k in range(len(dc)):
                n = dc[k]
                if n:
                    recipe.apply(env, k // nbanks, k % nbanks, n)
                    dc[k] = 0

    def stats(self) -> dict:
        return {
            "compiled": self.compiled,
            "replayed": self.replayed,
            "interpreted": self.interpreted,
            "fallthrough": self.fallthrough,
            "generation": self.generation,
            "signatures": sorted(str(k) for k in self.sources),
        }

    def _exec(self, sig, src: str, argnames: str, recipe=None):
        """Compile one plan body into a function; record its source.

        ``recipe`` switches the plan to deferred resource statistics:
        the body bumps one per-(tree, bank) replay counter (``DC``,
        bound per plan through a default argument) and :meth:`settle`
        applies the aggregate deltas. Code objects are cached
        process-wide by source text, so a fresh machine reuses the
        bytecode of every plan shape any earlier machine compiled.
        """
        if recipe is not None:
            argnames += ", DC=DEFER"
            src = _DEFER_KEY + src
        # Bake scalar constants as literals and bind every referenced
        # object name as a keyword default: the compiled body then runs
        # entirely on constants and local loads. ``used`` is in first-
        # appearance order, so identical sources keep hitting the
        # process-wide code cache.
        lit = self._lit_map
        used: list = []
        seen: set = set()

        def _sub(m) -> str:
            name = m.group(1)
            r = lit.get(name)
            if r is not None:
                return r
            if name not in seen:
                seen.add(name)
                used.append(name)
            return name

        src = _NAME_PAT.sub(_sub, src)
        binds = "".join(f", {n}={n}" for n in used)
        text = f"def _plan(ms, {argnames}{binds}):{src}"
        code = _CODE_CACHE.get(text)
        if code is None:
            code = _CODE_CACHE[text] = compile(text, f"<plan:{sig}>", "exec")
        loc: dict = {}
        env = self._env
        if env["CLUSTERS"] is None:
            env["CLUSTERS"] = self.ms.clusters
        if recipe is not None:
            dc = [0] * (self._ntrees * env["NBANKS"])
            loc["DEFER"] = dc
            self._defers.append((recipe, dc))
        exec(code, env, loc)
        self.sources[sig] = text
        self.compiled += 1
        return loc["_plan"]

    # -- read ---------------------------------------------------------------
    def read_line(self, cluster_id: int, line: int, now: float,
                  instruction: bool):
        """Dispatch one RdReq; returns a Reply or None (interpret)."""
        ms = self.ms
        if ms.profiler is not None:
            return None
        bank = self._bank_memo.get(line)
        if bank is None:
            bank = ms._bank(line)
        fixed = self._fixed
        dentry = None
        if fixed is None:
            dentry = self._dirget[bank](line)
            if dentry is not None:
                domcls = "dir"
            else:
                hit = self._coarse_memo.get(line)
                if hit is None:
                    hit = ms.coarse.lookup_line(line)
                if hit:
                    domcls = "coarse"
                else:
                    domcls = "fineS" if ms.fine.is_swcc(line) else "fineH"
        elif fixed:
            domcls = "S"
        else:
            domcls = "H"
            dentry = self._dirget[bank](line)
        dircls = ""
        l3e = None
        l3cls = "dyn"
        if domcls in ("dir", "H"):
            if dentry is None:
                dircls = "none"
                if self._dir_set_full(bank, line):
                    return None  # allocation would evict: interpret
            elif dentry.state == DIR_M:
                if dentry.sharers.bit_length() - 1 == cluster_id \
                        or dentry.n_sharers != 1:
                    return None  # interpreter raises the protocol error
                dircls = "M"
            else:
                dircls = "S"
        if domcls in ("S", "coarse") or dircls in ("none", "S"):
            bucket = self._l3sets[bank][line % self._nsets]
            l3e = bucket.get(line)
            if l3e is None:
                l3cls = "evict" if len(bucket) >= self._assoc else "room"
            elif l3e.valid_mask == FULL_WORD_MASK:
                l3cls = "hit"
            else:
                return None  # partial-valid merge path: interpret
        if domcls == "fineS" or domcls == "fineH":
            if domcls == "fineH" and self._dir_set_full(bank, line):
                return None  # allocation would evict: interpret
            table_line = self._table_line(line)
            if table_line == line:
                return None  # self-aliasing table word: interpret
            tl3cls, tl3e = self._probe_l3(bank, table_line, True)
            if tl3cls is None:
                return None
            if table_line % self._nsets != line % self._nsets:
                # The table-word access cannot disturb the data line's
                # set, so the data-leg validity class probed here is
                # still true when the plan reaches it: bake it.
                l3cls, l3e = self._probe_l3(bank, line, True)
                if l3cls is None:
                    return None
        else:
            table_line = tl3cls = tl3e = None
        sig = ("read", instruction, domcls, dircls, l3cls, tl3cls,
               self._obs.active)
        fn = self._read.get(sig, _MISSING)
        if fn is _MISSING:
            fn = self._compile_read(sig)
            self._read[sig] = fn
        if fn is None:
            self.interpreted += 1
            return None
        self.replayed += 1
        return fn(ms, cluster_id, line, now, bank, dentry, l3e,
                  table_line, tl3e)

    def _table_line(self, line: int) -> int:
        """Memoized L3 line of ``line``'s fine-table word (pure math)."""
        tl = self._tline_memo.get(line)
        if tl is None:
            tl = self._tline_memo[line] = \
                line_of(self.ms.fine.table_word_addr(line))
        return tl

    def _dir_set_full(self, bank: int, line: int) -> bool:
        """Would a directory allocation for ``line`` evict a victim?"""
        directory = self.ms.dirs[bank]
        if getattr(directory, "assoc", None) is None:
            return False  # infinite directory never evicts
        return len(directory.sets[line % directory.n_sets]) >= directory.assoc

    def _probe_l3(self, bank: int, line: int, need_full: bool):
        """Pure L3 validity-class probe; (None, None) means interpret."""
        bucket = self._l3sets[bank][line % self._nsets]
        entry = bucket.get(line)
        if entry is None:
            return ("evict" if len(bucket) >= self._assoc else "room"), None
        if not need_full or entry.valid_mask == FULL_WORD_MASK:
            return "hit", entry
        return None, None

    def _compile_read(self, sig):
        _op, instruction, domcls, dircls, l3cls, tl3cls, obs = sig
        track = self._track
        wide = self._dram_wide
        # The owner-downgrade path reserves network legs toward the
        # *owner*, whose tree the (tree, bank) defer key cannot carry;
        # it keeps eager statistics.
        recipe = None if dircls == "M" else _Recipe()
        counter = "C.instruction_request" if instruction else "C.read_request"
        msg = "MSG_IREAD" if instruction else "MSG_READ"
        src = f"""
    {counter} += 1
"""
        if obs:
            src += f"""
    ms._emit_msg(now, cluster_id, line, {msg})
"""
        src += _frag_to_l3("cluster_id", "now", obs, recipe)
        swcc = domcls in ("S", "coarse", "fineS")
        if domcls.startswith("fine"):
            src += """
    ms.fine_lookups += 1
"""
            src += _frag_l3(tl3cls, "table_line", True, track, obs, wide,
                            recipe, entry="tl3e")
        if swcc:
            if l3cls == "dyn":
                src += """
    t, l3e = ms._l3_access(bank, line, t)
"""
            else:
                src += _frag_l3(l3cls, "line", True, track, obs, wide, recipe)
            src += _frag_reply_data(track)
            src += _frag_to_cluster("cluster_id", "t", "rt", obs, recipe)
            src += """
    if rt > ms.max_time:
        ms.max_time = rt
    return Reply(rt, True, data)
"""
            return self._exec(
                sig, src,
                "cluster_id, line, now, bank, dentry, l3e, "
                "table_line, tl3e", recipe)
        # hardware-coherent read
        src += """
    directory = DIRS[bank]
"""
        if dircls == "none" or domcls == "fineH":
            src += """
    dentry, victim = directory.allocate(
        line, LAYOUT.classify_line(line), t)
    if victim is not None:
        t = ms._evict_directory_victim(bank, victim, t)
"""
        elif dircls == "M":
            src += """
    owner = dentry.sharers.bit_length() - 1
"""
            src += _frag_to_cluster("owner", "t", "at", obs, recipe)
            src += """
    dmask, values, svc = CLUSTERS[owner].probe_downgrade(line, at)
    C.probe_response += 1
"""
            if obs:
                src += """
    ms._emit_msg(svc, owner, line, MSG_PROBE_RESP)
"""
            src += _frag_to_l3("owner", "svc", obs, recipe)
            src += """
    if dmask:
        t, _e = ms._l3_access(bank, line, t, write_mask=dmask,
                              write_values=values, need_data=False)
    dentry.state = DIR_S
"""
        src += """
    directory.add_sharer(dentry, cluster_id)
"""
        if dircls == "M" or l3cls == "dyn":
            # Prior steps may have moved the data line's L3 set: the
            # downgrade merge inserts the line, a same-set table-word
            # access can evict it. Re-walk the data access dynamically.
            src += """
    t, l3e = ms._l3_access(bank, line, t)
"""
        else:
            src += _frag_l3(l3cls, "line", True, track, obs, wide, recipe)
        src += _frag_reply_data(track)
        src += _frag_to_cluster("cluster_id", "t", "rt", obs, recipe)
        src += """
    if rt > ms.max_time:
        ms.max_time = rt
    return Reply(rt, False, data)
"""
        return self._exec(
            sig, src,
            "cluster_id, line, now, bank, dentry, l3e, "
            "table_line, tl3e", recipe)

    # -- write --------------------------------------------------------------
    def write_line_request(self, cluster_id: int, line: int, now: float):
        """Dispatch one WrReq; returns a Reply or None (interpret)."""
        ms = self.ms
        if ms.profiler is not None:
            return None
        bank = self._bank_memo.get(line)
        if bank is None:
            bank = ms._bank(line)
        fixed = self._fixed
        dentry = None
        if fixed is None:
            dentry = self._dirget[bank](line)
            if dentry is not None:
                domcls = "dir"
            else:
                hit = self._coarse_memo.get(line)
                if hit is None:
                    hit = ms.coarse.lookup_line(line)
                if hit:
                    domcls = "coarse"
                else:
                    domcls = "fineS" if ms.fine.is_swcc(line) else "fineH"
        elif fixed:
            domcls = "S"
        else:
            domcls = "H"
            dentry = self._dirget[bank](line)
        dircls = ""
        targets = None
        l3e = None
        l3cls = "dyn"
        if domcls in ("dir", "H"):
            if dentry is None:
                dircls = "none"
                if self._dir_set_full(bank, line):
                    return None
            else:
                targets, _bcast = ms.dirs[bank].invalidation_targets(
                    dentry, ms.n_clusters, exclude=cluster_id)
                dircls = "hitN" if targets else "hit0"
        elif domcls == "fineH" and self._dir_set_full(bank, line):
            return None
        if domcls in ("S", "coarse") or dircls in ("none", "hit0"):
            bucket = self._l3sets[bank][line % self._nsets]
            l3e = bucket.get(line)
            if l3e is None:
                l3cls = "evict" if len(bucket) >= self._assoc else "room"
            elif l3e.valid_mask == FULL_WORD_MASK:
                l3cls = "hit"
            else:
                return None
        if domcls == "fineS" or domcls == "fineH":
            table_line = self._table_line(line)
            if table_line == line:
                return None
            tl3cls, tl3e = self._probe_l3(bank, table_line, True)
            if tl3cls is None:
                return None
            if table_line % self._nsets != line % self._nsets:
                # Disjoint sets: the table-word access cannot disturb
                # the data line's probed class (see read dispatch).
                l3cls, l3e = self._probe_l3(bank, line, True)
                if l3cls is None:
                    return None
        else:
            table_line = tl3cls = tl3e = None
        sig = ("write", domcls, dircls, l3cls, tl3cls, self._obs.active)
        fn = self._write.get(sig, _MISSING)
        if fn is _MISSING:
            fn = self._compile_write(sig)
            self._write[sig] = fn
        if fn is None:
            self.interpreted += 1
            return None
        self.replayed += 1
        return fn(ms, cluster_id, line, now, bank, dentry, l3e, targets,
                  table_line, tl3e)

    def _compile_write(self, sig):
        _op, domcls, dircls, l3cls, tl3cls, obs = sig
        track = self._track
        wide = self._dram_wide
        recipe = _Recipe()
        src = """
    C.write_request += 1
"""
        if obs:
            src += """
    ms._emit_msg(now, cluster_id, line, MSG_WRITE)
"""
        src += _frag_to_l3("cluster_id", "now", obs, recipe)
        swcc = domcls in ("S", "coarse", "fineS")
        if domcls.startswith("fine"):
            src += """
    ms.fine_lookups += 1
"""
            src += _frag_l3(tl3cls, "table_line", True, track, obs, wide,
                            recipe, entry="tl3e")
        if swcc:
            if l3cls == "dyn":
                src += """
    t, l3e = ms._l3_access(bank, line, t)
"""
            else:
                src += _frag_l3(l3cls, "line", True, track, obs, wide, recipe)
            src += _frag_reply_data(track)
            src += _frag_to_cluster("cluster_id", "t", "rt", obs, recipe)
            src += """
    if rt > ms.max_time:
        ms.max_time = rt
    return Reply(rt, True, data)
"""
            return self._exec(
                sig, src,
                "cluster_id, line, now, bank, dentry, l3e, targets, "
                "table_line, tl3e", recipe)
        src += """
    directory = DIRS[bank]
"""
        if dircls == "none" or domcls == "fineH":
            src += """
    dentry, victim = directory.allocate(
        line, LAYOUT.classify_line(line), t)
    if victim is not None:
        t = ms._evict_directory_victim(bank, victim, t)
"""
        else:
            if dircls == "hitN":
                src += """
    t = ms._probe_invalidate_targets(line, targets, bank, t)
"""
            src += """
    dentry.sharers = 0
"""
        src += """
    dentry.state = DIR_M
    directory.add_sharer(dentry, cluster_id)
"""
        if dircls == "hitN" or l3cls == "dyn":
            src += """
    t, l3e = ms._l3_access(bank, line, t)
"""
        else:
            src += _frag_l3(l3cls, "line", True, track, obs, wide, recipe)
        src += _frag_reply_data(track)
        src += _frag_to_cluster("cluster_id", "t", "rt", obs, recipe)
        src += """
    if rt > ms.max_time:
        ms.max_time = rt
    return Reply(rt, False, data)
"""
        return self._exec(
            sig, src,
            "cluster_id, line, now, bank, dentry, l3e, targets, "
            "table_line, tl3e", recipe)

    # -- upgrade ------------------------------------------------------------
    def upgrade_request(self, cluster_id: int, line: int, now: float):
        """Dispatch one S->M upgrade; returns a time or None (interpret)."""
        ms = self.ms
        if ms.profiler is not None:
            return None
        bank = self._bank_memo.get(line)
        if bank is None:
            bank = ms._bank(line)
        dentry = self._dirget[bank](line)
        if dentry is None or not dentry.sharers & (1 << cluster_id):
            return None  # interpreter raises the protocol error
        targets, _bcast = ms.dirs[bank].invalidation_targets(
            dentry, ms.n_clusters, exclude=cluster_id)
        sig = ("upg", bool(targets), self._obs.active)
        fn = self._upgrade.get(sig, _MISSING)
        if fn is _MISSING:
            fn = self._compile_upgrade(sig)
            self._upgrade[sig] = fn
        self.replayed += 1
        return fn(ms, cluster_id, line, now, bank, dentry, targets)

    def _compile_upgrade(self, sig):
        _op, has_targets, obs = sig
        recipe = _Recipe()
        src = """
    C.write_request += 1
"""
        if obs:
            src += """
    ms._emit_msg(now, cluster_id, line, MSG_WRITE)
"""
        src += _frag_to_l3("cluster_id", "now", obs, recipe)
        if has_targets:
            src += """
    t = ms._probe_invalidate_targets(line, targets, bank, t)
"""
        src += """
    dentry.sharers = 1 << cluster_id
    dentry.state = DIR_M
    DIRS[bank].touch(dentry)
"""
        src += _frag_to_cluster("cluster_id", "t", "rt", obs, recipe)
        src += """
    if rt > ms.max_time:
        ms.max_time = rt
    return rt
"""
        return self._exec(
            sig, src, "cluster_id, line, now, bank, dentry, targets", recipe)

    # -- writeback ----------------------------------------------------------
    def writeback(self, cluster_id: int, line: int, dirty_mask: int,
                  values, now: float, message, incoherent: bool,
                  releases_ownership: bool):
        """Dispatch one WB/eviction writeback; None means interpret."""
        ms = self.ms
        if ms.profiler is not None:
            return None
        if message is MessageType.SOFTWARE_FLUSH:
            flush = True
        elif message is MessageType.CACHE_EVICTION:
            flush = False
        else:
            return None  # interpreter raises the protocol error
        bank = self._bank_memo.get(line)
        if bank is None:
            bank = ms._bank(line)
        coh_dir = (not incoherent and ms.policy.uses_directory
                   and releases_ownership)
        dentry = None
        if coh_dir:
            dentry = self._dirget[bank](line)
            if dentry is None:
                return None  # interpreter raises the protocol error
        l3cls, l3e = self._probe_l3(bank, line, need_full=False)
        sig = ("wb", flush, coh_dir, l3cls, self._obs.active)
        fn = self._wb.get(sig, _MISSING)
        if fn is _MISSING:
            fn = self._compile_wb(sig)
            self._wb[sig] = fn
        self.replayed += 1
        return fn(ms, cluster_id, line, dirty_mask, values, now, bank,
                  dentry, l3e)

    def _compile_wb(self, sig):
        _op, flush, coh_dir, l3cls, obs = sig
        recipe = _Recipe()
        counter = "C.software_flush" if flush else "C.cache_eviction"
        msg = "MSG_FLUSH" if flush else "MSG_EVICT"
        src = f"""
    {counter} += 1
"""
        if obs:
            src += f"""
    ms._emit_msg(now, cluster_id, line, {msg})
"""
        src += _frag_to_l3("cluster_id", "now", obs, recipe)
        src += _frag_l3(l3cls, "line", False, self._track, obs,
                        self._dram_wide, recipe, wm="dirty_mask", wv="values")
        if coh_dir:
            src += """
    directory = DIRS[bank]
    directory.remove_sharer(dentry, cluster_id)
    if dentry.sharers == 0:
        directory.deallocate(dentry, t)
    else:
        dentry.state = DIR_S
"""
        src += _FRAG_NOTE
        src += """
    return t
"""
        return self._exec(
            sig, src,
            "cluster_id, line, dirty_mask, values, now, bank, dentry, l3e",
            recipe)

    # -- read release --------------------------------------------------------
    def read_release(self, cluster_id: int, line: int, now: float):
        """Dispatch one RdRel; returns a time or None (interpret)."""
        ms = self.ms
        if ms.profiler is not None:
            return None
        bank = self._bank_memo.get(line)
        if bank is None:
            bank = ms._bank(line)
        sig = ("rr", self._obs.active)
        fn = self._rr.get(sig, _MISSING)
        if fn is _MISSING:
            fn = self._compile_rr(sig)
            self._rr[sig] = fn
        self.replayed += 1
        return fn(ms, cluster_id, line, now, bank)

    def _compile_rr(self, sig):
        _op, obs = sig
        recipe = _Recipe()
        src = """
    C.read_release += 1
"""
        if obs:
            src += """
    ms._emit_msg(now, cluster_id, line, MSG_RDREL)
"""
        src += _frag_to_l3("cluster_id", "now", obs, recipe)
        src += _frag_bank_port("0.5", recipe)
        src += """
    directory = DIRS[bank]
    dentry = directory.get(line)
    if dentry is not None:
        directory.remove_sharer(dentry, cluster_id)
        if dentry.sharers == 0:
            directory.deallocate(dentry, t)
"""
        src += _FRAG_NOTE
        src += """
    return t
"""
        return self._exec(sig, src, "cluster_id, line, now, bank", recipe)

    # -- domain transitions --------------------------------------------------
    def _table_probe(self, line: int):
        """Pure probes shared by the transition dispatchers."""
        ms = self.ms
        bank = self._bank_memo.get(line)
        if bank is None:
            bank = ms._bank(line)
        table_line = self._table_line(line)
        if table_line == line:
            return None
        tl3cls, tl3e = self._probe_l3(bank, table_line, True)
        if tl3cls is None:
            return None
        twa = ms.fine.table_word_addr(line)
        return bank, table_line, tl3cls, tl3e, 1 << ((twa >> 2) & 7)

    def to_swcc(self, cluster_id: int, line: int, now: float):
        """Dispatch one HWcc->SWcc transition; None means interpret."""
        ms = self.ms
        if ms.profiler is not None:
            return None
        probe = self._table_probe(line)
        if probe is None:
            return None
        bank, table_line, tl3cls, tl3e, twbit = probe
        dentry = self._dirget[bank](line)
        targets = None
        if dentry is not None:
            targets, _bcast = ms.dirs[bank].invalidation_targets(
                dentry, ms.n_clusters)
        sig = ("tsw", dentry is not None, tl3cls, self._obs.active)
        fn = self._trans.get(sig, _MISSING)
        if fn is _MISSING:
            fn = self._compile_tsw(sig)
            self._trans[sig] = fn
        self.replayed += 1
        return fn(ms, cluster_id, line, now, bank, dentry, targets,
                  table_line, tl3e, twbit)

    def _compile_tsw(self, sig):
        _op, has_entry, tl3cls, obs = sig
        recipe = _Recipe()
        src = """
    C.uncached_atomic += 1
"""
        if obs:
            src += """
    ms._emit_msg(now, cluster_id, line, MSG_ATOMIC)
"""
        src += _frag_to_l3("cluster_id", "now", obs, recipe)
        src += _frag_l3(tl3cls, "table_line", True, self._track, obs,
                        self._dram_wide, recipe, entry="tl3e")
        src += """
    tl3e.dirty_mask |= twbit
"""
        if obs:
            src += """
    OBS.emit(ObsEvent(t, EV_TO_SWCC, -1, None, line,
                      detail="directory transition"))
"""
        if has_entry:
            src += """
    if targets:
        t = ms._probe_invalidate_targets(line, targets, bank, t)
    DIRS[bank].deallocate(dentry, t)
"""
        src += """
    FINE.set_swcc(line)
    ENGINE.to_swcc_count += 1
"""
        src += _frag_to_cluster("cluster_id", "t", "rt", obs, recipe)
        src += """
    if rt > ms.max_time:
        ms.max_time = rt
    return rt
"""
        return self._exec(
            sig, src,
            "cluster_id, line, now, bank, dentry, targets, table_line, "
            "tl3e, twbit", recipe)

    def to_hwcc(self, cluster_id: int, line: int, now: float):
        """Dispatch one SWcc->HWcc transition; None means interpret.

        Only the held-nowhere case (Figure 7b Case 1b) compiles; any
        cached copy routes to the interpreter's broadcast machinery.
        """
        ms = self.ms
        if ms.profiler is not None:
            return None
        for cluster in ms.clusters:
            if cluster.l2.peek(line) is not None:
                return None
        probe = self._table_probe(line)
        if probe is None:
            return None
        bank, table_line, tl3cls, tl3e, twbit = probe
        sig = ("thw", tl3cls, self._obs.active)
        fn = self._trans.get(sig, _MISSING)
        if fn is _MISSING:
            fn = self._compile_thw(sig)
            self._trans[sig] = fn
        self.replayed += 1
        return fn(ms, cluster_id, line, now, bank, table_line, tl3e, twbit)

    def _compile_thw(self, sig):
        _op, tl3cls, obs = sig
        recipe = _Recipe()
        src = """
    C.uncached_atomic += 1
"""
        if obs:
            src += """
    ms._emit_msg(now, cluster_id, line, MSG_ATOMIC)
"""
        src += _frag_to_l3("cluster_id", "now", obs, recipe)
        src += _frag_l3(tl3cls, "table_line", True, self._track, obs,
                        self._dram_wide, recipe, entry="tl3e")
        src += """
    tl3e.dirty_mask |= twbit
"""
        if obs:
            src += """
    OBS.emit(ObsEvent(t, EV_TO_HWCC, -1, None, line,
                      detail="directory transition"))
"""
        src += """
    C.probe_response += NCLU
    done = t + NCLU * NACK_SER
    floor = t + 2 * ONE_WAY
    if floor > done:
        done = floor
    t = done
"""
        src += _FRAG_NOTE
        src += """
    FINE.clear_swcc(line)
    ENGINE.to_hwcc_count += 1
"""
        src += _frag_to_cluster("cluster_id", "t", "rt", obs, recipe)
        src += """
    if rt > ms.max_time:
        ms.max_time = rt
    return rt
"""
        return self._exec(
            sig, src,
            "cluster_id, line, now, bank, table_line, tl3e, twbit", recipe)
