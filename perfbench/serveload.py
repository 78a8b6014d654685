"""The ``serve-mixed`` workload: a real ``repro serve`` under closed-loop load.

``repro serve --jobs 1`` boots on a fresh cache directory. Set-up is
server boot to a healthy ``/healthz`` plus filling the warm set, done
several times (a fresh server each time) and reported as the median;
the last server takes the load. Two closed-loop client threads each
send their next request only after the previous reply (the server
answers ``Connection: close``, so every request opens a connection):

* most requests re-submit a cell of the warm set, which exercises the
  result-cache read path;
* every ``COLD_EVERY``-th request is a cold cell with a fresh seed, sent
  by both clients at once, which exercises single-flight coalescing,
  the process pool and the cache write path.

A request fails if the reply is not HTTP 200, if its status is not
``hit``, ``executed`` or ``coalesced``, or if its result differs from
the recorded one (the committed record where the seed has one, the
fill result for warm cells, the partner client's result for cold
cells). A sample of cold cells is also recomputed in this process after
the timed loop.
"""

from __future__ import annotations

import contextlib
import os
import pathlib
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from typing import Dict, Iterator, List, Optional

from cells import (COLD_EVERY, SERVE_CLIENTS, serve_cold_cell,
                   serve_warm_set)
from quantiles import percentile
import records

SETUPS = 3
BOOT_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0
LOCAL_VERIFY = 6
CLIENT_SWITCH_INTERVAL_S = 0.0005
OK_STATUSES = ("hit", "executed", "coalesced")


class Server:
    """One ``repro serve`` subprocess on a fresh cache directory."""

    def __init__(self, root: pathlib.Path, scratch: pathlib.Path) -> None:
        import envpin

        self.dir = pathlib.Path(tempfile.mkdtemp(prefix="serve-",
                                                 dir=scratch))
        env = envpin.scrubbed_env()
        env["REPRO_CACHE_DIR"] = str(self.dir / "cache")
        env["TMPDIR"] = str(self.dir)
        env["PYTHONPATH"] = str(root / "src")
        port_file = self.dir / "port"
        self.log = open(self.dir / "server.log", "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
             "--port", "0", "--port-file", str(port_file), "--jobs", "1"],
            cwd=root, env=env, stdin=subprocess.DEVNULL, stdout=self.log,
            stderr=subprocess.STDOUT)
        try:
            self.client = self._await_healthy(port_file)
        except BaseException:
            self.stop()
            raise

    def _await_healthy(self, port_file: pathlib.Path):
        from repro.serve.client import ServeClient, ServeUnreachable

        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"repro serve exited with code "
                                   f"{self.proc.returncode} during boot")
            text = port_file.read_text().strip() if port_file.exists() else ""
            if text:
                client = ServeClient(port=int(text), timeout_s=120.0)
                try:
                    if client.health().get("status") == "ok":
                        return client
                except ServeUnreachable:
                    pass
            time.sleep(0.01)
        raise RuntimeError("repro serve did not become healthy in "
                           f"{BOOT_TIMEOUT_S:.0f}s")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()
        shutil.rmtree(self.dir, ignore_errors=True)


def _fill(client, warm) -> Dict[str, dict]:
    results = {}
    for cell in warm:
        status, record = client.submit_cell(cell)
        if status != 200 or record.get("status") != "executed":
            raise RuntimeError(f"warm-set fill of {cell['label']} answered "
                               f"HTTP {status} / {record.get('status')}: "
                               f"{record.get('error')}")
        results[cell["label"]] = record["result"]
    return results


class _Load:
    """Shared state of the closed-loop clients."""

    def __init__(self, client, warm, reference: Dict[str, dict], seed: int,
                 deadline: float, traced: bool) -> None:
        self.client = client
        self.warm = warm
        self.reference = reference
        self.seed = seed
        self.deadline = deadline
        self.traced = traced
        self.lock = threading.Lock()
        self.barrier = threading.Barrier(SERVE_CLIENTS, action=self._decide)
        self.stop = False
        self.cold_index = -1
        self.cold_results: Dict[int, List[dict]] = {}
        self.samples: List[tuple] = []   # (kind, status, ms, ops, label)
        self.spans: List[dict] = []
        self.errors: List[str] = []
        self.attempted = 0
        self.failed = 0

    def _decide(self) -> None:
        # Runs once per barrier crossing, so both clients see one answer.
        self.stop = time.perf_counter() >= self.deadline
        self.cold_index += 1

    def _one(self, cell: dict, kind: str) -> Optional[dict]:
        start = time.perf_counter()
        error = None
        record: dict = {}
        try:
            status, record = self.client.submit_cell(cell)
        except Exception as err:   # transport failure counts as failed
            status, error = None, f"{type(err).__name__}: {err}"
        end = time.perf_counter()
        if error is None and status != 200:
            error = f"HTTP {status}: {record.get('error')}"
        elif error is None and record.get("status") not in OK_STATUSES:
            error = f"status {record.get('status')}: {record.get('error')}"
        elif error is None and kind == "warm" and records.diff(
                self.reference[cell["label"]], record["result"]["stats"]):
            error = "result differs from the recorded one"
        ops = record["result"]["stats"]["ops_executed"] if error is None else 0
        with self.lock:
            self.attempted += 1
            if error is not None:
                self.failed += 1
                self.errors.append(f"{kind} {cell['label']} seed "
                                   f"{cell['seed']}: {error}")
            self.samples.append((kind, record.get("status"),
                                 1000.0 * (end - start), ops, cell["label"]))
            if self.traced:
                self.spans.append({"name": "serve.submit", "start": start,
                                   "end": end, "parent": None,
                                   "cell": f"{cell['label']}@{cell['seed']}",
                                   "kind": kind,
                                   "status": record.get("status")})
        return None if error is not None else record

    def client_loop(self, index: int) -> None:
        rng = random.Random(self.seed * 1000 + index)
        step = 0
        while True:
            step += 1
            if step % COLD_EVERY:
                self._one(rng.choice(self.warm), "warm")
                continue
            try:
                self.barrier.wait(timeout=120.0)
            except threading.BrokenBarrierError:
                with self.lock:
                    self.failed += 1
                    self.errors.append("client barrier broke")
                return
            if self.stop:
                return
            # Stable until both clients reach the next barrier.
            cold_index = self.cold_index
            record = self._one(serve_cold_cell(self.seed, cold_index), "cold")
            if record is not None:
                with self.lock:
                    self.cold_results.setdefault(cold_index, []).append(
                        record["result"])


def _verify_cold(load: _Load) -> None:
    """Partner agreement for every cold cell, local recompute for a sample."""
    for index, results in sorted(load.cold_results.items()):
        if any(result != results[0] for result in results[1:]):
            load.failed += 1
            load.errors.append(f"cold cell {index}: the two clients got "
                               f"different results")
    for index in sorted(load.cold_results)[:LOCAL_VERIFY]:
        local = records.run_wire_cell(serve_cold_cell(load.seed, index))
        if local != load.cold_results[index][0]["stats"]:
            load.failed += 1
            load.errors.append(f"cold cell {index}: served result differs "
                               f"from a local run")


def _run_loop(load: _Load) -> float:
    threads = [threading.Thread(target=load.client_loop, args=(i,),
                                name=f"serve-client-{i}")
               for i in range(SERVE_CLIENTS)]
    # A client thread woken by its reply waits for the other to release
    # the GIL; at the default 5 ms switch interval that wait, not the
    # server, would set the hit-latency tail.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(CLIENT_SWITCH_INTERVAL_S)
    try:
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=170.0)
            if thread.is_alive():
                raise RuntimeError("a serve client did not finish")
        return time.perf_counter() - start
    finally:
        sys.setswitchinterval(interval)


@contextlib.contextmanager
def _one_cpu() -> Iterator[None]:
    """Keep this process, the server and its pool worker on one CPU.

    The closed loop is a ping-pong between client and server, so it
    runs as fast on one CPU as on two; spread over several it measures
    how the scheduler places three processes, which varies run to run.
    """
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


def run(root: pathlib.Path, scratch: pathlib.Path, seed: int,
        seconds: float, trace: bool, expected: Optional[Dict[str, dict]]
        ) -> dict:
    with _one_cpu():
        return _run(root, scratch, seed, seconds, trace, expected)


def _run(root: pathlib.Path, scratch: pathlib.Path, seed: int,
         seconds: float, trace: bool, expected: Optional[Dict[str, dict]]
         ) -> dict:
    warm = serve_warm_set(seed)
    setups: List[float] = []
    server = None
    try:
        for attempt in range(SETUPS):
            start = time.perf_counter()
            server = Server(root, scratch)
            fill = _fill(server.client, warm)
            setups.append(time.perf_counter() - start)
            if attempt < SETUPS - 1:
                server.stop()
                server = None
        reference = {label: result["stats"] for label, result in fill.items()}
        begin = time.perf_counter()
        load = _Load(server.client, warm, expected or reference, seed,
                     begin + seconds, trace)
        if expected is not None:
            # The fill requests are checked operations too.
            for label, stats in reference.items():
                load.attempted += 1
                bad = records.diff(expected[label], stats)
                if bad:
                    load.failed += 1
                    load.errors.append(f"warm {label}: differs from the "
                                       f"recorded statistics in "
                                       f"{', '.join(bad)}")
        wall = _run_loop(load)
        stats = server.client.stats()
        peak_rss = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()
    _verify_cold(load)

    hits = [s[2] for s in load.samples if s[0] == "warm" and s[1] == "hit"]
    cold_by_cell: Dict[str, List[float]] = {}
    for s in load.samples:
        if s[0] == "cold" and s[1] in ("executed", "coalesced"):
            cold_by_cell.setdefault(s[4], []).append(s[2])
    # A cold cell whose partner's flight had already stored the result is
    # answered from the cache: neither a warm hit nor a cold execution.
    cold_hits = sum(1 for s in load.samples
                    if s[0] == "cold" and s[1] == "hit")
    result = {"attempted": load.attempted, "failed": load.failed,
              "errors": load.errors, "setups_s": setups,
              "requests": {"warm_hits": len(hits),
                           "cold": sum(map(len, cold_by_cell.values())),
                           "cold_ms_p50_by_cell": {
                               label: percentile(ms, 50)
                               for label, ms in sorted(cold_by_cell.items())},
                           "cold_hits": cold_hits},
              "server_stats": stats}
    if trace:
        result["metrics"] = _layer_metrics(stats, hits)
        result["trace"] = {
            "note": "one full span per request, timed by the client; no "
                    "server layer is wrapped, so trace.overhead_ratio is "
                    "not exercised",
            "spans": load.spans}
        return result
    result["metrics"] = {
        "sim_ops_per_s": sum(s[3] for s in load.samples) / wall,
        "req_per_s": len(load.samples) / wall,
        "req_ms_p50": percentile(hits, 50) if hits else 0.0,
        "cold_ms_p50": cold_p50(cold_by_cell),
        "peak_rss_mb": peak_rss,
        "setup_s": statistics.median(setups),
    }
    return result


def cold_p50(by_cell: Dict[str, List[float]]) -> float:
    """Geometric mean over the cold cell kinds of each kind's median.

    The four kinds take from about 20 to 55 ms each and come in equal
    numbers, so the median of all cold samples falls in the sparse gap
    between the second and the third kind, where a small shift of either
    moves it by up to a quarter. A median per kind sits inside a tight
    cluster instead.
    """
    medians = [percentile(ms, 50) for ms in by_cell.values() if ms]
    return statistics.geometric_mean(medians) if medians else 0.0


def _layer_metrics(stats: dict, hits: List[float]) -> dict:
    counters = stats["serve"]["counters"]
    latency = stats["serve"]["latency"]
    results = stats["cache"]["results"]
    lookups = results["hits"] + results["misses"] + results["skipped"]
    cold = counters["executed"] + counters["coalesced"]
    metrics = {
        "serve.hits": counters["hits"],
        "serve.coalesced": counters["coalesced"],
        "serve.executed": counters["executed"],
        "serve.shed": counters["shed"],
        "serve.timeouts": counters["timeouts"],
        "serve.failed": counters["failed"],
        "serve.coalesce_ratio": counters["coalesced"] / cold if cold else 0.0,
        "cache.hit_rate": results["hits"] / lookups if lookups else 0.0,
        "serve.hit_ms_p90": percentile(hits, 90) if hits else 0.0,
        "serve.server_hit_ms_mean": latency["hit"]["mean_ms"],
        "serve.server_exec_ms_mean": latency["exec"]["mean_ms"],
        "serve.client_overhead_ms": (statistics.mean(hits)
                                     - latency["hit"]["mean_ms"])
        if hits else 0.0,
    }
    return metrics
