"""``serve``: open-loop Zipf traffic to one ``serve-http`` process.

The server runs with its defaults (one worker, micro-batching with a 2 ms
window, a 1,024-entry cache) over a saved MWSA store.  Requests arrive as a
Poisson process at one fixed rate, about half the server's capacity, over
two keep-alive connections, and follow a Zipf stream over a pattern pool
four times the cache size.  Latency runs from when a request was due, so a
stall also charges the requests queued behind it; it is reported, while
``op_ms`` is the server's CPU time per request at nominal speed, measured
by ``speed_probe.py`` on the server's CPU, and ``peak_mib`` the server's
peak RSS.  Every answer is checked against the brute-force oracle after
the timed phase.
"""

from __future__ import annotations

import asyncio
import json
import os
import select
import signal
import subprocess
import sys
import time

import numpy as np

import tracing
from common import (
    CPUS, HERE, SETUP_REPEATS, Speed, child_env, cpu_seconds, peak_rss_bytes, store_bytes,
    timed_setup,
)
from httpload import closed_loop, get_json, open_loop
from inputs import pattern_pool
from wl_query import query_layers

LAUNCHER = os.path.join(HERE, "serve_launcher.py")
PROBE = os.path.join(HERE, "speed_probe.py")

#: Seconds between two reference samples on the server's CPU.
PROBE_INTERVAL_S = 0.05


class _Server:
    """A running ``serve-http`` process and the inputs it was set up with."""

    def __init__(self, store, source, pool, bodies, process, host, port) -> None:
        self.store = store
        self.source = source
        self.pool = pool
        self.bodies = bodies
        self.process = process
        self.host = host
        self.port = port

    def close(self) -> None:
        """SIGTERM (graceful drain) and wait; SIGKILL if it hangs."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


class _Probe:
    """``speed_probe.py`` on the server's CPU, sampling while the load runs."""

    def __init__(self, cpus) -> None:
        self.process = subprocess.Popen(
            [sys.executable, PROBE, str(PROBE_INTERVAL_S)], env=child_env(),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        if cpus is not None:
            os.sched_setaffinity(self.process.pid, cpus)
        ready, _, _ = select.select([self.process.stdout], [], [], 60)
        if not ready or self.process.stdout.readline().strip() != "ready":
            self.close()
            raise RuntimeError("speed_probe.py did not start")

    def finish(self) -> Speed:
        """Stop sampling; return the samples."""
        output, _ = self.process.communicate(timeout=30)
        samples = json.loads(output.splitlines()[-1])
        return Speed(samples["starts"], samples["took"])

    def close(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.communicate()


def _cpus() -> tuple[set, set] | None:
    """Separate CPUs for the server and the load generator, when there are two.

    Without pinning, the scheduler may run both processes on one CPU,
    and the load generator then takes CPU time from the server it measures.
    """
    if len(CPUS) < 2:
        return None
    return {CPUS[-1]}, set(CPUS[:-1])


def _start(store, params, spans, log_path):
    arguments = ["serve-http", "--store", store, "--port", "0", *params["server"]]
    if spans:
        command = [sys.executable, LAUNCHER, spans, *arguments]
    else:
        command = [sys.executable, "-m", "repro.cli", *arguments]
    with open(log_path, "ab") as log:
        process = subprocess.Popen(
            command, env=child_env(), stdout=subprocess.PIPE, stderr=log,
        )
    pinning = _cpus()
    if pinning is not None:
        os.sched_setaffinity(process.pid, pinning[0])
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        ready, _, _ = select.select([process.stdout], [], [], 1.0)
        if ready:
            line = process.stdout.readline().decode()
            if line.startswith("serving on http://"):
                host, port = line.strip()[len("serving on http://"):].rsplit(":", 1)
                return process, host, int(port)
            if not line:
                break
        if process.poll() is not None:
            break
    process.kill()
    process.wait()
    raise RuntimeError(f"serve-http did not start; see {log_path}")


def _setup(params, seed, workdir, spans=None):
    from repro.datasets.patterns import sample_zipf_workload
    from repro.datasets.registry import load_dataset
    from repro.indexes.registry import build_index
    from repro.io.store import save_index

    def setup(number):
        source = load_dataset(params["dataset"], params["length"], seed=seed)
        index = build_index(source, params["z"], kind=params["kind"], ell=params["ell"])
        store = workdir.file(f"serve-{number}.idx")
        save_index(store, index)
        per_length = params["pool"] // len(params["lengths"])
        pool = pattern_pool(
            source, params["z"], params["lengths"], per_length, 0, seed,
            estimation=index.data.estimation,
        )
        bodies = [
            json.dumps({"pattern": source.alphabet.decode(pattern)}).encode()
            for pattern in pool
        ]
        process, host, port = _start(store, params, spans, workdir.file("server.log"))
        server = _Server(store, source, pool, bodies, process, host, port)
        warm = sample_zipf_workload(
            list(range(len(pool))), params["warmup_requests"], s=params["zipf"],
            seed=seed + 2,
        )
        try:
            asyncio.run(closed_loop(host, port, [bodies[row] for row in warm], 2))
        except BaseException:
            server.close()
            raise
        return server

    return setup


def _schedule(params, seed, pool_size, seconds):
    """Zipf-ranked pool rows and Poisson due offsets within ``seconds``."""
    from repro.datasets.patterns import sample_zipf_workload

    rng = np.random.default_rng(seed + 3)
    count = int(params["rate"] * seconds * 1.5) + 64
    offsets = np.cumsum(rng.exponential(1.0 / params["rate"], size=count))
    offsets = offsets[offsets < seconds]
    rows = sample_zipf_workload(
        list(range(pool_size)), len(offsets), s=params["zipf"], seed=seed + 4
    )
    return rows, offsets


async def _measure(server, rows, offsets, connections):
    before = await get_json(server.host, server.port, "/stats")
    server_cpu = cpu_seconds(server.process.pid)
    own_cpu = cpu_seconds(os.getpid())
    records, window = await open_loop(
        server.host, server.port, [server.bodies[row] for row in rows], offsets,
        connections,
    )
    health = {
        "server_cpu": cpu_seconds(server.process.pid) - server_cpu,
        "loadgen_cpu": cpu_seconds(os.getpid()) - own_cpu,
        "server_peak_bytes": peak_rss_bytes(server.process.pid),
    }
    after = await get_json(server.host, server.port, "/stats")
    return records, window, health, before, after


def _phase(run, server, params, seed, seconds):
    rows, offsets = _schedule(params, seed, len(server.pool), seconds)
    pinning = _cpus()
    probe = _Probe(pinning[0] if pinning is not None else None)
    try:
        records, window, health, before, after = asyncio.run(
            _measure(server, rows, offsets, params["connections"])
        )
        speed = probe.finish()
    finally:
        probe.close()
    _check(run, server, params, rows, records)
    wall = window[1] - window[0]
    server_cpu_ms = 1e3 * health["server_cpu"] / len(records)
    latencies = [done - due for _, due, _, done, _, _ in records]
    lateness = [sent - due for _, due, sent, _, _, _ in records]
    service = {key: after["service"][key] - before["service"][key]
               for key in ("queries", "cache_hits")}
    batching = {key: after["server"]["batching"][key] - before["server"]["batching"][key]
                for key in ("batches", "batched_requests")}
    return {
        "latencies": latencies,
        "lateness": lateness,
        "window": window,
        "server_cpu_share": health["server_cpu"] / wall,
        "server_cpu_ms": server_cpu_ms * speed.factors([window])[0],
        "server_cpu_ms_wall": server_cpu_ms,
        "server_peak_mib": health["server_peak_bytes"] / 2**20,
        "store_bytes": store_bytes(server.store),
        "loadgen_cpu_share": health["loadgen_cpu"] / wall,
        "cache_hit_ratio": service["cache_hits"] / max(1, service["queries"]),
        "mean_batch": batching["batched_requests"] / max(1, batching["batches"]),
        "offered_per_s": len(records) / wall,
    }


def _check(run, server, params, rows, records) -> None:
    """Every response must be a 200 whose positions equal the oracle's."""
    from repro.indexes import brute_force_occurrences

    expected: dict[int, list[int]] = {}
    failed = 0
    for number, _, _, _, status, payload in records:
        row = rows[number]
        if row not in expected:
            expected[row] = brute_force_occurrences(
                server.source, server.pool[row], params["z"]
            )
        if status != 200:
            failed += 1
            if failed <= 5:
                run.problem(f"request answered {status}: {payload[:200]!r}")
            continue
        if json.loads(payload).get("positions") != expected[row]:
            failed += 1
            if failed <= 5:
                run.problem(f"wrong answer for pool pattern {row}")
    run.operations(len(records), failed)


def _health_lines(run, phase) -> None:
    late = np.asarray(phase["lateness"]) * 1e3
    run.lines.append(
        f"harness: offered {phase['offered_per_s']:.1f} req/s; server CPU "
        f"{phase['server_cpu_share']:.1%} and load generator CPU "
        f"{phase['loadgen_cpu_share']:.1%} of timed wall time on "
        f"{os.cpu_count()} cores; send lateness p50 {np.percentile(late, 50):.3f} ms, "
        f"p99 {np.percentile(late, 99):.3f} ms"
    )
    run.lines.append(
        f"server: cache hit ratio {phase['cache_hit_ratio']:.3f}, "
        f"mean batch {phase['mean_batch']:.2f}"
    )


def run(run, params, seed, seconds, workdir) -> None:
    pinning = _cpus()
    if pinning is not None:
        os.sched_setaffinity(0, pinning[1])
        run.lines.append(
            f"pinning: serve-http on CPU {sorted(pinning[0])}, "
            f"load generator on CPU {sorted(pinning[1])}"
        )
    repeats = 1 if run.trace else SETUP_REPEATS
    server, setups = timed_setup(_setup(params, seed, workdir), repeats)
    try:
        phase = _phase(run, server, params, seed, seconds)
    finally:
        server.close()
    if not run.trace:
        run.median("setup_s", setups)
        run.metric(
            "op_ms", phase["server_cpu_ms"],
            f"serve-http CPU per request at nominal speed, {len(phase['latencies'])} "
            f"requests; {phase['server_cpu_ms_wall']:.6g} ms as measured",
        )
        run.metric("peak_mib", phase["server_peak_mib"],
                   "peak RSS of the serve-http process after the timed phase")
        run.metric("store_bytes", phase["store_bytes"], "size of the saved MWSA store")
        run.percentile("http_p50_ms", phase["latencies"], 50, 1e3, report_unit="ms")
        run.percentile("http_p99_ms", phase["latencies"], 99, 1e3, report_unit="ms")
        _health_lines(run, phase)
        return
    spans_path = workdir.file("server-spans.json")
    server, traced_setups = timed_setup(_setup(params, seed, workdir, spans_path), 1)
    try:
        traced = _phase(run, server, params, seed, seconds)
    finally:
        server.close()
    with open(spans_path, encoding="utf-8") as handle:
        recorded = json.load(handle)
    _health_lines(run, traced)
    run.overhead("setup_s", setups, traced_setups)
    run.overhead("op_ms", [phase["server_cpu_ms"]], [traced["server_cpu_ms"]])
    run.overhead("peak_mib", [phase["server_peak_mib"]], [traced["server_peak_mib"]])
    run.overhead("store_bytes", [phase["store_bytes"]], [traced["store_bytes"]])
    for q in (50, 99):
        untraced_ms = 1e3 * float(np.percentile(phase["latencies"], q))
        traced_ms = 1e3 * float(np.percentile(traced["latencies"], q))
        run.lines.append(
            f"tracing overhead on http_p{q}_ms = {traced_ms - untraced_ms:.6g} ms "
            f"(traced {traced_ms:.6g} minus untraced {untraced_ms:.6g}; reported, not gated)"
        )
    _layers(run, recorded, traced)


def _layers(run, recorded, phase) -> None:
    spans, window = recorded["spans"], phase["window"]
    requests = len(phase["latencies"])
    totals = tracing.self_times(spans, window)
    note = f"per request, {requests} requests"
    run.metric("service.exec_busy_s", totals.get("service.exec", 0.0) / requests, note)
    run.metric("service.cache_hit_ratio", phase["cache_hit_ratio"],
               "cache hits / queries, from /stats deltas")
    run.metric("batcher.mean_batch", phase["mean_batch"],
               "batched requests / batches, from /stats deltas")
    wait, submits = tracing.batcher_wait_seconds(spans, window)
    run.metric("batcher.wait_s", wait / max(1, submits),
               f"per request, {submits} submits")
    run.metric("http.server_cpu_share", phase["server_cpu_share"])
    run.metric("loadgen.cpu_share", phase["loadgen_cpu_share"])
    run.percentile("loadgen.late_p99_ms", phase["lateness"], 99, 1e3)
    whole = tracing.self_times(spans)
    run.metric("store.load_busy_s", whole.get("store.load", 0.0),
               "the server's store load at start-up")
    # Query-path counters over the whole server life: the warm-up requests
    # share them, the timed phase dominates.
    query_layers(run, spans, recorded["counts"], window, requests, per="request")
    run.coverage(tracing.covered_seconds(spans, window), window[1] - window[0], {
        "open-loop idle time": "at about half of capacity the server waits for "
        "requests for much of the timed phase",
        "HTTP layer": "request parsing, JSON encoding and the event loop of "
        "serve-http run outside the service spans",
    })
