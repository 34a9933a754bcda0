"""Prefork multi-worker serving: aggregation, soak, crash recovery, SIGTERM.

Every test drives the real ``serve-http --workers N`` CLI in a subprocess —
the supervisor must never fork inside the pytest process.  Answers are
checked bit-identically against a brute-force oracle mirrored in the test:
the served store round-trips through a PWM file, so the test reads the same
file to hold exactly the source the cluster serves, and replays the same
updates locally to know the truth *per generation* (each response carries
the generation that produced it).
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.datasets.patterns import sample_valid_patterns
from repro.indexes import build_index
from repro.indexes.base import brute_force_occurrences
from repro.io.pwm import read_pwm, write_pwm
from repro.service.protocol import parse_updates

Z = 4.0
ELL = 4
ROOT = Path(__file__).resolve().parent.parent

needs_fork = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="prefork serving needs os.fork"
)


def _cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


@pytest.fixture(scope="module")
def served_store(tmp_path_factory):
    """A PWM file + a 2-shard directory store built from it via the CLI."""
    from repro.datasets.synthetic import sparse_uncertainty_string

    root = tmp_path_factory.mktemp("cluster-store")
    source = sparse_uncertainty_string(120, 4, delta=0.3, seed=23)
    pwm = root / "source.pwm"
    write_pwm(pwm, source)
    store = root / "store"
    subprocess.run(
        [sys.executable, "-m", "repro.cli", "build", "--pwm", str(pwm),
         "--z", str(Z), "--ell", str(ELL), "--shards", "2",
         "--max-pattern-len", "8", "--store-dir", str(store)],
        check=True, env=_cli_env(), capture_output=True, timeout=120,
    )
    return pwm, store


class Cluster:
    """One running ``serve-http`` subprocess plus a tiny sync HTTP client."""

    def __init__(self, args, *, expect_ready: bool = True, timeout: float = 60.0):
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve-http", *args],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=_cli_env(), text=True,
        )
        self.base = None
        if expect_ready:
            line = self.proc.stdout.readline().strip()
            if not line.startswith("serving on http://"):
                self.proc.kill()
                raise AssertionError(
                    f"no ready line, got {line!r}; stderr: "
                    f"{self.proc.stderr.read()[-2000:]}"
                )
            self.base = line.split("serving on ", 1)[1]

    def get(self, path, timeout=15.0):
        with urllib.request.urlopen(self.base + path, timeout=timeout) as response:
            return json.loads(response.read())

    def get_text(self, path, timeout=15.0):
        with urllib.request.urlopen(self.base + path, timeout=timeout) as response:
            return response.read().decode()

    def post(self, path, payload, timeout=30.0):
        request = urllib.request.Request(
            self.base + path,
            data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=timeout) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read() or b"{}")

    def terminate(self, timeout=25.0) -> int:
        self.proc.send_signal(signal.SIGTERM)
        return self.proc.wait(timeout=timeout)

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=10)


@needs_fork
class TestClusterServing:
    def test_metrics_aggregate_to_the_client_tally(self, served_store):
        _, store = served_store
        cluster = Cluster(["--store", str(store), "--workers", "2", "--port", "0"])
        try:
            source = read_pwm(served_store[0])
            patterns = [
                list(pattern)
                for pattern in sample_valid_patterns(source, Z, m=ELL, count=4, seed=1)
            ]
            sent = 0
            for round_number in range(6):
                for pattern in patterns:
                    status, body = cluster.post("/query", {"pattern": pattern})
                    assert status == 200
                    sent += 1
            payload = cluster.get("/stats")
            workers = payload["workers"]
            assert sorted(workers) == ["0", "1"]
            per_worker = [w["service"]["queries"] for w in workers.values()]
            assert sum(per_worker) == sent
            supervisor = payload["supervisor"]
            assert supervisor["workers"] == 2
            assert supervisor["respawns"] == 0
            text = cluster.get_text("/metrics")
            # The summed total equals the client tally, and the per-worker
            # labelled series add up to exactly that total.
            assert f"repro_service_queries_total {sent}" in text
            labelled = [
                int(line.rsplit(" ", 1)[1])
                for line in text.splitlines()
                if line.startswith("repro_cluster_worker_queries_total{")
            ]
            assert len(labelled) == 2 and sum(labelled) == sent
            assert cluster.terminate() == 0
        finally:
            cluster.kill()

    def test_update_fanout_soak_is_generation_exact(self, served_store):
        import threading

        pwm, store = served_store
        cluster = Cluster(["--store", str(store), "--workers", "2", "--port", "0"])
        try:
            # The local mirror: same PWM file, same update pipeline — after g
            # local updates its source is bit-identical to the cluster's
            # generation-g store.
            mirror_source = read_pwm(pwm)
            mirror = build_index(mirror_source, Z, kind="MWSA", ell=ELL)
            patterns = [
                list(pattern)
                for pattern in sample_valid_patterns(
                    mirror_source, Z, m=ELL, count=5, seed=9
                )
            ]
            updates = [
                [{"position": 5, "distribution": {"A": 0.6, "C": 0.4}}],
                [{"position": 100, "distribution": {"B": 0.55, "D": 0.45}}],
            ]
            oracles = {
                0: {
                    json.dumps(p): brute_force_occurrences(mirror_source, p, Z)
                    for p in patterns
                }
            }
            answers: list[tuple[str, list, int]] = []
            statuses: list[int] = []
            lock = threading.Lock()

            def query_worker(worker: int) -> None:
                for step in range(12):
                    pattern = patterns[(worker + step) % len(patterns)]
                    status, body = cluster.post("/query", {"pattern": pattern})
                    with lock:
                        statuses.append(status)
                        if status == 200:
                            answers.append(
                                (json.dumps(pattern), body["positions"],
                                 body["generation"])
                            )

            threads = [
                threading.Thread(target=query_worker, args=(n,)) for n in range(4)
            ]
            for thread in threads:
                thread.start()
            # Mid-soak mutations, serialized through the supervisor; the
            # update response only returns after every worker re-mapped.
            for generation, update in enumerate(updates, start=1):
                time.sleep(0.05)
                status, body = cluster.post("/update", {"updates": update})
                assert status == 200, body
                mirror.apply_updates(parse_updates(update))
                oracles[generation] = {
                    json.dumps(p): brute_force_occurrences(mirror_source, p, Z)
                    for p in patterns
                }
            for thread in threads:
                thread.join(timeout=60)
            assert all(status == 200 for status in statuses)  # never a 5xx
            assert len(answers) == 48
            for key, positions, generation in answers:
                assert positions == oracles[generation][key], (key, generation)
            # Post-update queries serve the newest generation exactly.
            for pattern in patterns:
                status, body = cluster.post("/query", {"pattern": pattern})
                assert status == 200
                assert body["generation"] == len(updates)
                assert body["positions"] == oracles[len(updates)][json.dumps(pattern)]
            payload = cluster.get("/stats")
            assert payload["supervisor"]["generation"] == len(updates)
            assert payload["supervisor"]["updates"] == len(updates)
            assert cluster.terminate() == 0
        finally:
            cluster.kill()

    def test_worker_crash_respawns_and_port_stays_bound(self, served_store):
        _, store = served_store
        cluster = Cluster(["--store", str(store), "--workers", "2", "--port", "0"])
        try:
            payload = cluster.get("/stats")
            pids_before = set(map(int, payload["supervisor"]["pids"].values()))
            assert len(pids_before) == 2
            victim = min(pids_before)
            os.kill(victim, signal.SIGKILL)
            deadline = time.monotonic() + 20.0
            respawned = None
            while time.monotonic() < deadline:
                # The port must stay bound throughout: the supervisor holds
                # the listen socket, so connections are never refused — at
                # worst an in-flight request rides a dying worker once.
                try:
                    respawned = cluster.get("/stats", timeout=5.0)
                except (urllib.error.URLError, ConnectionError, OSError):
                    time.sleep(0.1)
                    continue
                supervisor = respawned["supervisor"]
                if supervisor["respawns"] >= 1 and supervisor["workers"] == 2:
                    break
                time.sleep(0.1)
            assert respawned is not None
            supervisor = respawned["supervisor"]
            assert supervisor["respawns"] >= 1
            assert supervisor["workers"] == 2
            pids_after = set(map(int, supervisor["pids"].values()))
            assert victim not in pids_after
            assert len(pids_after) == 2
            assert cluster.get("/healthz")["status"] == "ok"
            assert cluster.terminate() == 0
        finally:
            cluster.kill()

    def test_warm_log_primes_every_worker_before_traffic(self, served_store, tmp_path):
        pwm, store = served_store
        source = read_pwm(pwm)
        patterns = [
            list(pattern)
            for pattern in sample_valid_patterns(source, Z, m=ELL, count=3, seed=4)
        ]
        log = tmp_path / "warm.log"
        # Log order and repeats: the most frequent pattern must be warmed.
        log.write_text("\n".join(
            json.dumps(patterns[step % len(patterns)]) for step in range(9)
        ))
        cluster = Cluster(
            ["--store", str(store), "--workers", "2", "--port", "0",
             "--warm-log", str(log)]
        )
        try:
            # The very first wave is all cache hits on every worker: warming
            # finished before the ready line, whichever worker answers.
            for pattern in patterns:
                for _ in range(2):
                    status, body = cluster.post("/query", {"pattern": pattern})
                    assert status == 200
                    assert body["cached"] is True, pattern
            assert cluster.terminate() == 0
        finally:
            cluster.kill()


@needs_fork
class TestSigtermDuringStartup:
    """``serve-http`` terminated while still loading must exit 0 quietly."""

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_exit_zero_when_terminated_mid_build(self, workers):
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve-http",
             "--dataset", "EFM", "--length", "200000", "--z", "8", "--ell", "4",
             "--workers", workers, "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=_cli_env(), text=True,
        )
        try:
            # Past interpreter startup (~0.3 s, handlers installed), inside
            # the ~7 s index build: the startup window the fix covers.
            time.sleep(2.5)
            proc.send_signal(signal.SIGTERM)
            code = proc.wait(timeout=30)
            stdout, stderr = proc.communicate(timeout=10)
            assert code == 0, stderr[-2000:]
            assert "serving on" not in stdout
            assert "Traceback" not in stderr
        finally:
            if proc.poll() is None:
                proc.kill()
