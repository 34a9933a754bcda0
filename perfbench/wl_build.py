"""``build-g`` and ``build-se``: from-scratch builds of an EFM-like genome.

One kind (MWST-G or MWST-SE) builds in a fresh process
(``build_child.py``), so the peak-RSS increase of its first build is the
build's own; it builds again and again for the timed phase.  The saved
store is then reloaded and sampled and mutated patterns are checked against
the brute-force oracle.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
import time

import tracing
from common import HERE, SETUP_REPEATS, SPEED_SAMPLES, Speed, child_env, timed_setup
from inputs import oracle, pattern_pool, save_source

CHILD = os.path.join(HERE, "build_child.py")
BUILD_TIMEOUT = 120


class _Builder:
    """A ``build_child.py`` process that builds one kind on request."""

    def __init__(self, input_path, params, store, log_path, spans=None) -> None:
        kind = params["kind"]
        command = [sys.executable, CHILD, input_path, kind, str(params["z"]),
                   str(params["ell"]), store]
        if spans:
            command.append(spans)
        self.kind = kind
        self.spans = spans
        self.log_path = log_path
        with open(log_path, "ab") as log:
            self.process = subprocess.Popen(
                command, env=child_env(), stdin=subprocess.PIPE,
                stdout=subprocess.PIPE, stderr=log, text=True,
            )

    def wait_ready(self) -> None:
        """Wait until the process has imported ``repro`` and loaded its input."""
        self._reply("start")

    def build(self) -> dict:
        self.process.stdin.write("build\n")
        self.process.stdin.flush()
        return self._reply("build")

    def _reply(self, what: str) -> dict:
        ready, _, _ = select.select([self.process.stdout], [], [], BUILD_TIMEOUT)
        line = self.process.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError(f"{self.kind} {what} failed: {self._log_tail()}")
        return json.loads(line)

    def close(self) -> dict | None:
        """End the process; return its spans when it recorded any."""
        if self.process.poll() is None:
            self.process.stdin.close()
            try:
                self.process.wait(timeout=BUILD_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        if self.spans and self.process.returncode == 0:
            with open(self.spans, encoding="utf-8") as handle:
                return json.load(handle)
        return None

    def _log_tail(self) -> str:
        with open(self.log_path, encoding="utf-8", errors="replace") as handle:
            return handle.read()[-2000:].strip()


def _setup(params, seed, workdir):
    from repro.datasets.registry import load_dataset

    def setup(number):
        source = load_dataset(params["dataset"], params["length"], seed=seed)
        save_source(workdir.file("input.npz"), source)
        # Warm-up: one fresh-process build of a small prefix of the input
        # fills the page cache with the interpreter, numpy and repro.
        warm_path = workdir.file("warm.npz")
        save_source(warm_path, source.slice(0, params["warmup_length"]))
        warm = _Builder(warm_path, params, workdir.file("warm.idx"),
                        workdir.file("build.log"))
        try:
            warm.wait_ready()
            warm.build()
        finally:
            warm.close()
        return source

    return setup


def _phase(run, params, seconds, workdir, check, expected, traced) -> dict:
    """Build for ``seconds`` (at least once), then check the saved store."""
    from repro.io.store import load_index

    store = workdir.file("store.idx")
    builder = _Builder(
        workdir.file("input.npz"), params, store, workdir.file("build.log"),
        workdir.file("spans.json") if traced else None,
    )
    builds, speed = [], None
    try:
        builder.wait_ready()
        # The builds run on this process's CPU; the reference task runs
        # here between them.
        speed = Speed()
        started = time.perf_counter()
        while time.perf_counter() - started < seconds or not builds:
            builds.append(builder.build())
            speed.sample(SPEED_SAMPLES)
    except RuntimeError as error:
        run.operations(1, 1)
        run.problem(str(error))
    finally:
        trace = builder.close()
    if builds:
        answers = load_index(store).match_many(check)
        wrong = sum(answer != want for answer, want in zip(answers, expected))
        # Every build rewrote the same store; the last one is checked.
        run.operations(len(builds), len(builds) if wrong else 0)
        if wrong:
            run.problem(
                f"{params['kind']} store answered {wrong} of {len(check)} patterns wrongly"
            )
    return {"builds": builds, "speed": speed, "trace": trace}


def _values(results) -> dict:
    """Samples of the end-to-end metrics: build times at nominal speed."""
    builds = results["builds"]
    windows = [build["window"] for build in builds]
    seconds = [end - start for start, end in windows]
    return {
        "op_ms": [1e3 * x for x in results["speed"].nominal(seconds, windows)],
        "peak_mib": [builds[0]["peak_bytes"] / 2**20],
        "store_bytes": [builds[-1]["store_bytes"]],
    }


def run(run, params, seed, seconds, workdir) -> None:
    repeats = 1 if run.trace else SETUP_REPEATS
    source, setups = timed_setup(_setup(params, seed, workdir), repeats)
    check = pattern_pool(
        source, params["z"], params["check_lengths"], params["check_valid"],
        params["check_mutants"], seed,
    )
    expected = oracle(source, check, params["z"])
    results = _phase(run, params, seconds, workdir, check, expected, False)
    if not results["builds"]:
        return
    values = _values(results)
    if not run.trace:
        run.median("setup_s", setups)
        run.median("op_ms", values["op_ms"])
        run.metric("peak_mib", values["peak_mib"][0],
                   "peak-RSS increase of a fresh process over its first build")
        run.metric("store_bytes", values["store_bytes"][0], "size of the saved store")
        wall = [1e3 * (end - start) for start, end in
                (build["window"] for build in results["builds"])]
        run.percentile("wall.op_ms", wall, 50, report_unit="ms")
        return
    traced = _phase(run, params, seconds, workdir, check, expected, True)
    if not traced["builds"]:
        return
    for name, samples in _values(traced).items():
        run.overhead(name, values[name], samples)
    run.metric("overhead.setup_s", 0.0, "the set-up is not repeated traced")
    _layers(run, traced)


def _layers(run, results) -> None:
    """Self time per layer for one build."""
    spans = results["trace"]["spans"]
    windows = [build["window"] for build in results["builds"]]
    builds = len(windows)
    per_build: dict[str, float] = {}
    covered = wall = 0.0
    for window in windows:
        for name, value in tracing.self_times(spans, window).items():
            per_build[name] = per_build.get(name, 0.0) + value / builds
        covered += tracing.covered_seconds(spans, window)
        wall += window[1] - window[0]
    counts = {name: value / builds for name, value in results["trace"]["counts"].items()}
    note = f"per build, {builds} builds"
    for name, layer in (
        ("estimation.busy_s", "estimation"),
        ("leaves.derive_busy_s", "leaves.derive"),
        ("sort.busy_s", "sort"),
        ("lcp.busy_s", "lcp"),
        ("trie.busy_s", "trie"),
        ("grid.build_busy_s", "grid.build"),
        ("se.busy_s", "se"),
        ("store.save_busy_s", "store.save"),
    ):
        run.metric(name, per_build.get(layer, 0.0), note)
    run.metric("leaves.count", counts.get("leaves", 0.0), "forward + backward leaves per build")
    run.metric("store.bytes_written", counts.get("store.bytes_written", 0.0), note)
    first = results["builds"][0]
    run.metric("space.index_model_ratio", first["store_bytes"] / first["model_index_bytes"],
               "saved bytes / modelled index size")
    run.metric("space.construction_model_ratio",
               first["peak_bytes"] / first["model_construction_bytes"],
               "peak-RSS increase / modelled construction space")
    run.coverage(covered, wall, {
        "unspanned build glue": "heavy string, leaf pairing and the size model "
        "run between the traced stages",
    })
