#!/usr/bin/env python3
"""Repo-invariant meta-lint: AST checks over the simulator's own source.

The repository relies on four source-level invariants that ordinary tests
can only probe pointwise, because all are about *code shape* rather
than behaviour:

S001  emit-hook preservation (docs/performance.md): every inlined fast
      path in ``BspExecutor._execute_slice`` must announce the ops it
      consumes on the observability bus exactly as the ``Cluster``
      method it bypasses would -- otherwise tracers, the barrier
      invariant checker, and the metrics aggregator silently go blind
      on the hottest ops. Concretely: (a) each canonical ``Cluster``
      handler carries a guarded ``obs.emit`` with its event constant,
      (b) each ``kind == OP_*`` dispatch branch either delegates to the
      matching cluster method or, when it touches cache internals
      directly (a fast path), also references the matching ``EV_*``
      constant, and (c) every ``obs.emit`` in both files sits under an
      ``obs.active``/``obs_active`` guard so the quiescent bus costs
      one attribute probe.

S002  deterministic measured paths: simulation/analysis code must not
      read wall clocks (``time.time``/``perf_counter``/...) or draw
      from process-global RNGs (``random.random()``, ``np.random.*``)
      -- results must be pure functions of config + seed, which is what
      makes the content-addressed result cache and the mc explorer's
      canonical states sound. Seeded generators (``random.Random(s)``,
      ``np.random.default_rng(s)``) are fine. Host-side tooling that
      legitimately measures wall time (the parallel sweep runner's
      progress meter, the mc explorer's elapsed budget, the CLI, the
      job server) is allowlisted.

S003  footprint-table coverage: every model-checker action kind --
      declared in ``mc/presets.py``'s ``ACTION_KINDS`` or constructed /
      dispatched in ``mc/actions.py`` -- must carry an entry in
      ``mc/footprints.py``'s ``FOOTPRINTS`` table, and the table must
      not carry stale entries for kinds that no longer exist. The
      partial-order reduction derives action independence from these
      declared footprints, so an action kind silently missing from the
      table would make the reduction *unsound* (the runtime also
      fail-fasts, but only on models that use the kind; this catches
      it on every CI run).

S005  plan emit-hook coverage: every codegen fragment in
      ``runtime/plans.py`` that emits protocol messages (bumps
      ``NET.messages``) must take the signature's ``obs`` flag and
      generate an ``OBS.emit(ObsEvent(...))`` hook for the observed
      variant, and every generated ``OBS.emit`` must sit under an
      ``if obs:`` specialization branch -- compiled replay on an
      observed machine must announce exactly what the interpreter
      would, and the quiescent variants must carry no emit code at
      all. The companion dynamic check is the obs-stream equality
      test in ``tests/runtime/test_plans.py``.

Run as ``python tools/selfcheck.py`` (CI does); exit 1 on any finding.
"""

from __future__ import annotations

import argparse
import ast
import json
import pathlib
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src" / "repro"

#: Canonical Cluster handler -> the bus event constant it must emit.
CLUSTER_HOOKS: Dict[str, str] = {
    "load": "EV_LOAD",
    "store": "EV_STORE",
    "ifetch": "EV_IFETCH",
    "atomic": "EV_ATOMIC",
    "flush_line": "EV_FLUSH",
    "invalidate_line": "EV_INV",
}

#: Executor dispatch op -> (delegate cluster method, event constant).
#: OP_COMPUTE (pure clock advance) and OP_BARRIER (always raises) touch
#: no memory and are exempt.
DISPATCH_HOOKS: Dict[str, tuple] = {
    "OP_LOAD": ("load", "EV_LOAD"),
    "OP_STORE": ("store", "EV_STORE"),
    "OP_IFETCH": ("ifetch", "EV_IFETCH"),
    "OP_ATOMIC": ("atomic", "EV_ATOMIC"),
    "OP_WB": ("flush_line", "EV_FLUSH"),
    "OP_INV": ("invalidate_line", "EV_INV"),
}

#: Files (relative to src/repro) allowed to read wall clocks: host-side
#: tooling whose own wall time is the measurement, never simulated state.
WALLCLOCK_ALLOWLIST: Set[str] = {
    "analysis/parallel.py",
    "mc/explorer.py",
    "cli.py",
    # The job server is host tooling end to end: job latency, uptime,
    # and drain grace are wall-clock by definition.
    "serve/jobs.py",
    "serve/metrics.py",
    "serve/server.py",
}

_WALLCLOCK_TIME_ATTRS = {"time", "perf_counter", "perf_counter_ns",
                         "process_time", "process_time_ns", "monotonic",
                         "monotonic_ns", "clock", "strftime", "localtime",
                         "gmtime"}
_WALLCLOCK_DATETIME_ATTRS = {"now", "utcnow", "today"}


@dataclass(frozen=True)
class Finding:
    """One meta-lint violation."""

    rule: str
    path: str
    line: int
    message: str

    def __str__(self) -> str:
        return f"{self.rule} {self.path}:{self.line}: {self.message}"

    def as_dict(self) -> Dict[str, object]:
        return {"rule": self.rule, "path": self.path, "line": self.line,
                "message": self.message}


def _attr_chain(node: ast.AST) -> List[str]:
    """``a.b.c`` -> ["a", "b", "c"]; empty when not a pure name chain."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return []


def _names_in(node: ast.AST) -> Set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _attrs_in(node: ast.AST) -> Set[str]:
    return {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}


def _find_class(tree: ast.Module, name: str) -> Optional[ast.ClassDef]:
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == name:
            return node
    return None


def _find_method(cls: ast.ClassDef, name: str) -> Optional[ast.FunctionDef]:
    for node in cls.body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    return None


def _emit_calls(node: ast.AST) -> List[ast.Call]:
    """Every ``*.emit(...)`` call under ``node``."""
    calls = []
    for sub in ast.walk(node):
        if (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute)
                and sub.func.attr == "emit"):
            calls.append(sub)
    return calls


def _guarded_emits_ok(func: ast.FunctionDef, rel: str,
                      findings: List[Finding]) -> None:
    """Every emit in ``func`` must sit under an active-bus guard."""
    guarded: Set[int] = set()
    for sub in ast.walk(func):
        if not isinstance(sub, ast.If):
            continue
        test_ok = ("obs_active" in _names_in(sub.test)
                   or "active" in _attrs_in(sub.test))
        if not test_ok:
            continue
        for call in _emit_calls(sub):
            guarded.add(id(call))
    for call in _emit_calls(func):
        if id(call) not in guarded:
            findings.append(Finding(
                "S001", rel, call.lineno,
                f"{func.name}: obs.emit not guarded by an obs.active/"
                "obs_active test (the quiescent bus must cost one "
                "attribute probe)"))


def check_emit_hooks(src_root: pathlib.Path = SRC_ROOT) -> List[Finding]:
    """S001: fast paths preserve the cluster methods' emit hooks."""
    findings: List[Finding] = []

    cluster_path = src_root / "sim" / "cluster.py"
    rel_cluster = str(cluster_path.relative_to(src_root.parent.parent))
    tree = ast.parse(cluster_path.read_text())
    cluster = _find_class(tree, "Cluster")
    if cluster is None:
        return [Finding("S001", rel_cluster, 1, "class Cluster not found")]
    for method, ev in CLUSTER_HOOKS.items():
        func = _find_method(cluster, method)
        if func is None:
            findings.append(Finding(
                "S001", rel_cluster, cluster.lineno,
                f"Cluster.{method} missing (canonical {ev} hook site)"))
            continue
        names = _names_in(func)
        if ev not in names or not _emit_calls(func):
            findings.append(Finding(
                "S001", rel_cluster, func.lineno,
                f"Cluster.{method} no longer emits {ev}; tracers and the "
                "invariant checker would go blind on this op"))
        _guarded_emits_ok(func, rel_cluster, findings)

    exec_path = src_root / "runtime" / "executor.py"
    rel_exec = str(exec_path.relative_to(src_root.parent.parent))
    tree = ast.parse(exec_path.read_text())
    executor = _find_class(tree, "BspExecutor")
    if executor is None:
        return findings + [Finding("S001", rel_exec, 1,
                                   "class BspExecutor not found")]
    for func in (node for node in executor.body
                 if isinstance(node, ast.FunctionDef)):
        _guarded_emits_ok(func, rel_exec, findings)
    slice_fn = _find_method(executor, "_execute_slice")
    if slice_fn is None:
        findings.append(Finding(
            "S001", rel_exec, executor.lineno,
            "BspExecutor._execute_slice missing; the op dispatch the "
            "emit-hook rule pins is gone"))
        return findings

    seen_ops: Set[str] = set()
    for node in ast.walk(slice_fn):
        if not isinstance(node, ast.If):
            continue
        op = _dispatch_op(node.test)
        if op is None or op not in DISPATCH_HOOKS:
            continue
        seen_ops.add(op)
        delegate, ev = DISPATCH_HOOKS[op]
        branch = ast.Module(body=node.body, type_ignores=[])
        delegates = any(
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Attribute)
            and sub.func.attr == delegate
            and isinstance(sub.func.value, ast.Name)
            and sub.func.value.id == "cluster"
            for sub in ast.walk(branch))
        names = _names_in(branch)
        attrs = _attrs_in(branch)
        # A branch "fast-paths" when it reads cache internals directly
        # instead of going through the cluster: the hoisted l1 set dict
        # or any .sets probe (either may be a local name or an
        # attribute, depending on how the hoist is written).
        fast = ("l1_sets" in names or "l1_sets" in attrs
                or "sets" in attrs)
        if fast and ev not in names:
            findings.append(Finding(
                "S001", rel_exec, node.lineno,
                f"{op} branch fast-paths past Cluster.{delegate} without "
                f"referencing {ev}: inlined ops would vanish from the "
                "observability bus (docs/performance.md)"))
        elif not fast and not delegates:
            findings.append(Finding(
                "S001", rel_exec, node.lineno,
                f"{op} branch neither delegates to cluster.{delegate} "
                f"nor carries its own {ev} fast-path hook"))
    for op in DISPATCH_HOOKS:
        if op not in seen_ops:
            findings.append(Finding(
                "S001", rel_exec, slice_fn.lineno,
                f"_execute_slice has no ``kind == {op}`` dispatch branch "
                "(rule map out of date with the op set?)"))
    return findings


def _dispatch_op(test: ast.AST) -> Optional[str]:
    """``kind == OP_X`` -> "OP_X" (either comparison order)."""
    if not (isinstance(test, ast.Compare) and len(test.ops) == 1
            and isinstance(test.ops[0], ast.Eq)):
        return None
    sides = [test.left, test.comparators[0]]
    names = [s.id for s in sides if isinstance(s, ast.Name)]
    if "kind" not in names:
        return None
    for name in names:
        if name.startswith("OP_"):
            return name
    return None


def scan_measured_path(source: str, rel: str) -> List[Finding]:
    """S002 findings for one (non-allowlisted) source file."""
    findings: List[Finding] = []
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "time":
            bad = [a.name for a in node.names
                   if a.name in _WALLCLOCK_TIME_ATTRS]
            if bad:
                findings.append(Finding(
                    "S002", rel, node.lineno,
                    f"imports wall-clock function(s) {', '.join(bad)} "
                    "from time; measured paths must be deterministic"))
            continue
        if not isinstance(node, ast.Call):
            continue
        chain = _attr_chain(node.func)
        if not chain:
            continue
        if chain[0] == "time" and chain[-1] in _WALLCLOCK_TIME_ATTRS:
            findings.append(Finding(
                "S002", rel, node.lineno,
                f"wall-clock call {'.'.join(chain)}(); simulated results "
                "must be pure functions of config + seed"))
        elif ("datetime" in chain[:-1]
              and chain[-1] in _WALLCLOCK_DATETIME_ATTRS):
            findings.append(Finding(
                "S002", rel, node.lineno,
                f"wall-clock call {'.'.join(chain)}(); simulated results "
                "must be pure functions of config + seed"))
        elif chain[0] == "random" and len(chain) == 2:
            if chain[1] == "Random" and (node.args or node.keywords):
                continue  # seeded instance
            findings.append(Finding(
                "S002", rel, node.lineno,
                f"process-global RNG call {'.'.join(chain)}(); use a "
                "seeded random.Random(seed) instance"))
        elif (len(chain) >= 3 and chain[0] in ("np", "numpy")
              and chain[1] == "random"):
            if chain[2] == "default_rng" and (node.args or node.keywords):
                continue  # seeded generator
            findings.append(Finding(
                "S002", rel, node.lineno,
                f"process-global RNG call {'.'.join(chain)}(); use a "
                "seeded np.random.default_rng(seed)"))
    return findings


def check_measured_paths(src_root: pathlib.Path = SRC_ROOT) -> List[Finding]:
    """S002: no wall clocks / unseeded RNGs outside the allowlist."""
    findings: List[Finding] = []
    for path in sorted(src_root.rglob("*.py")):
        rel_to_pkg = path.relative_to(src_root).as_posix()
        if rel_to_pkg in WALLCLOCK_ALLOWLIST:
            continue
        rel = str(path.relative_to(src_root.parent.parent))
        findings.extend(scan_measured_path(path.read_text(), rel))
    return findings


def _kind_literals_in_actions(tree: ast.Module) -> Dict[str, int]:
    """Action-kind string literals ``mc/actions.py`` works with.

    Collected from (a) literal arguments to ``Action(...)`` calls,
    (b) ``==``/``!=`` comparisons whose other side is a name or
    attribute ending in ``kind``, (c) ``kind in (...)`` membership
    tests, and (d) container literals assigned to ``*KINDS*`` names.
    Returns kind -> first line number seen.
    """
    kinds: Dict[str, int] = {}

    def note(node: ast.AST) -> None:
        for sub in ast.walk(node):
            if (isinstance(sub, ast.Constant)
                    and isinstance(sub.value, str)
                    and sub.value not in kinds):
                kinds[sub.value] = sub.lineno

    def is_kindish(node: ast.AST) -> bool:
        if isinstance(node, ast.Name):
            return node.id.lower().endswith("kind")
        if isinstance(node, ast.Attribute):
            return node.attr.lower().endswith("kind")
        return False

    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "Action"):
            for arg in node.args[:1]:  # kind is the first field
                note(arg)
            for kw in node.keywords:
                if kw.arg == "kind":
                    note(kw.value)
        elif isinstance(node, ast.Compare) and len(node.ops) == 1:
            left, right = node.left, node.comparators[0]
            if isinstance(node.ops[0], (ast.Eq, ast.NotEq)):
                if is_kindish(left):
                    note(right)
                elif is_kindish(right):
                    note(left)
            elif isinstance(node.ops[0], (ast.In, ast.NotIn)):
                if is_kindish(left):
                    note(right)
        elif isinstance(node, ast.Assign):
            if any(isinstance(t, ast.Name) and "KIND" in t.id.upper()
                   for t in node.targets):
                note(node.value)
    return kinds


def _tuple_of_strings(node: ast.AST) -> Optional[List[str]]:
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        out = []
        for element in node.elts:
            if not (isinstance(element, ast.Constant)
                    and isinstance(element.value, str)):
                return None
            out.append(element.value)
        return out
    return None


def scan_footprint_table(presets_src: str, actions_src: str,
                         footprints_src: str,
                         rel_prefix: str = "src/repro/mc") -> List[Finding]:
    """S003 findings for one (presets, actions, footprints) triple."""
    findings: List[Finding] = []
    rel_presets = f"{rel_prefix}/presets.py"
    rel_actions = f"{rel_prefix}/actions.py"
    rel_footprints = f"{rel_prefix}/footprints.py"

    required: Dict[str, tuple] = {}  # kind -> (rel path, line)
    presets_tree = ast.parse(presets_src)
    action_kinds = None
    for node in presets_tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "ACTION_KINDS"
                for t in node.targets):
            action_kinds = _tuple_of_strings(node.value)
            if action_kinds is not None:
                for kind in action_kinds:
                    required.setdefault(kind, (rel_presets, node.lineno))
    if action_kinds is None:
        findings.append(Finding(
            "S003", rel_presets, 1,
            "ACTION_KINDS tuple-of-strings literal not found; the "
            "footprint-coverage rule cannot anchor the kind set"))

    actions_tree = ast.parse(actions_src)
    for kind, line in _kind_literals_in_actions(actions_tree).items():
        required.setdefault(kind, (rel_actions, line))

    footprints_tree = ast.parse(footprints_src)
    declared: Dict[str, int] = {}
    table_found = False
    for node in footprints_tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        else:
            continue
        if not any(isinstance(t, ast.Name) and t.id == "FOOTPRINTS"
                   for t in targets):
            continue
        if isinstance(node.value, ast.Dict):
            table_found = True
            for key in node.value.keys:
                if (isinstance(key, ast.Constant)
                        and isinstance(key.value, str)):
                    declared[key.value] = key.lineno
    if not table_found:
        findings.append(Finding(
            "S003", rel_footprints, 1,
            "FOOTPRINTS dict literal not found; every action kind must "
            "declare its read/write footprint there"))
        return findings

    for kind in sorted(required):
        if kind not in declared:
            path, line = required[kind]
            findings.append(Finding(
                "S003", path, line,
                f"action kind {kind!r} has no entry in the FOOTPRINTS "
                "table; partial-order reduction would be unsound for "
                "models using it"))
    for kind in sorted(declared):
        if kind not in required:
            findings.append(Finding(
                "S003", rel_footprints, declared[kind],
                f"FOOTPRINTS declares unknown action kind {kind!r} "
                "(stale table entry?)"))
    return findings


def check_footprint_table(src_root: pathlib.Path = SRC_ROOT) -> List[Finding]:
    """S003: every mc action kind carries a declared footprint."""
    mc = src_root / "mc"
    rel_prefix = (mc.relative_to(src_root.parent.parent)).as_posix()
    return scan_footprint_table(
        (mc / "presets.py").read_text(),
        (mc / "actions.py").read_text(),
        (mc / "footprints.py").read_text(),
        rel_prefix=rel_prefix)


def scan_plan_emitters(plans_src: str,
                       rel: str = "src/repro/runtime/plans.py"
                       ) -> List[Finding]:
    """S005 findings for one plans.py source text."""
    findings: List[Finding] = []
    tree = ast.parse(plans_src)
    frag_fns = [node for node in tree.body
                if isinstance(node, ast.FunctionDef)
                and node.name.startswith("_frag_")]
    if not frag_fns:
        findings.append(Finding(
            "S005", rel, 1,
            "no _frag_* codegen fragment functions found; the plan "
            "emit-hook rule cannot anchor"))
        return findings

    def string_consts(node: ast.AST) -> List[ast.Constant]:
        return [sub for sub in ast.walk(node)
                if isinstance(sub, ast.Constant)
                and isinstance(sub.value, str)]

    # (a) message-emitting fragments carry the observed-variant hook.
    for fn in frag_fns:
        texts = string_consts(fn)
        if not any("NET.messages += 1" in c.value for c in texts):
            continue
        if not any(arg.arg == "obs" for arg in fn.args.args):
            findings.append(Finding(
                "S005", rel, fn.lineno,
                f"plan fragment {fn.name} emits protocol messages but "
                f"takes no 'obs' parameter, so observed signatures "
                f"cannot get an emitting variant"))
            continue
        if not any("OBS.emit(ObsEvent(" in c.value for c in texts):
            findings.append(Finding(
                "S005", rel, fn.lineno,
                f"plan fragment {fn.name} emits protocol messages "
                f"(NET.messages += 1) but generates no "
                f"OBS.emit(ObsEvent(...)) hook; observed replay would "
                f"go blind on this op-emitter"))

    # (b) every generated OBS.emit sits under an `if obs:` branch, so
    # quiescent variants carry no emit code and observed ones always do.
    guarded: Set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.If):
            continue
        if "obs" not in _names_in(node.test):
            continue
        for sub in node.body:
            for c in string_consts(sub):
                guarded.add(id(c))
    for c in string_consts(tree):
        if "OBS.emit(" in c.value and id(c) not in guarded:
            findings.append(Finding(
                "S005", rel, c.lineno,
                "generated OBS.emit is not under an `if obs:` "
                "specialization branch; either quiescent plans would "
                "pay emit code or the guard discipline has drifted"))
    return findings


def check_plan_emitters(src_root: pathlib.Path = SRC_ROOT) -> List[Finding]:
    """S005: plan codegen op-emitters carry their obs emit hooks."""
    plans = src_root / "runtime" / "plans.py"
    rel = plans.relative_to(src_root.parent.parent).as_posix()
    return scan_plan_emitters(plans.read_text(), rel=rel)


def run_all(src_root: pathlib.Path = SRC_ROOT) -> List[Finding]:
    return (check_emit_hooks(src_root) + check_measured_paths(src_root)
            + check_footprint_table(src_root)
            + check_plan_emitters(src_root))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="repo-invariant meta-lint (S001 emit hooks, "
                    "S002 deterministic measured paths, "
                    "S003 footprint-table coverage, "
                    "S005 plan emit-hook coverage)")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output")
    args = parser.parse_args(argv)
    findings = run_all()
    if args.json:
        print(json.dumps([f.as_dict() for f in findings], indent=2))
    else:
        for finding in findings:
            print(finding)
        print(f"selfcheck: {len(findings)} finding(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
