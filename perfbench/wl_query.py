"""``query``: closed-loop ``match_many`` batches on an mmap-loaded MWST-G store.

Three quarters of the pool are patterns sampled from the z-estimation, one
quarter one-substitution mutants of them; every batch draws 64 patterns
from the pool.  Every answer is checked against the brute-force oracle,
computed for the pool before the timed phase.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

import footprint
import tracing
from common import SETUP_REPEATS, Speed, store_bytes, timed_setup
from inputs import oracle, pattern_pool


class _State:
    def __init__(self, source, index, pool, batches) -> None:
        self.source = source
        self.index = index
        self.pool = pool
        self.batches = batches


def _setup(params, seed, workdir):
    from repro.datasets.registry import load_dataset
    from repro.indexes.registry import build_index
    from repro.io.store import load_index, save_index

    def setup(number):
        source = load_dataset(params["dataset"], params["length"], seed=seed)
        built = build_index(source, params["z"], kind=params["kind"], ell=params["ell"])
        store = workdir.file("query.idx")
        save_index(store, built)
        pool = pattern_pool(
            source, params["z"], params["lengths"], params["valid"],
            params["mutants"], seed, estimation=built.data.estimation,
        )
        del built
        index = load_index(store, mmap=True)
        rng = np.random.default_rng(seed)
        batches = rng.integers(0, len(pool), size=(4096, params["batch"]))
        for rows in batches[: params["warmup_batches"]]:
            index.match_many([pool[row] for row in rows])
        return _State(source, index, pool, batches)

    return setup


def _phase(run, state, expected, seconds, tracer=None):
    """Send batches for ``seconds``; return the batch latencies at nominal
    speed, the wall-clock ones, the window and the speed samples.

    Each answer is checked right after its batch, outside the batch's timed
    interval, and then dropped: keeping every answer would grow the heap the
    garbage collector walks during later batches.  The reference task runs
    once between batches to measure the machine's speed.
    """
    index, pool, batches = state.index, state.pool, state.batches
    latencies, windows = [], []
    speed = Speed()
    number = 0
    started = time.perf_counter()
    while time.perf_counter() - started < seconds:
        rows = batches[number % len(batches)]
        patterns = [pool[row] for row in rows]
        if tracer is not None:
            tracer.operation = number
        number += 1
        sent = time.perf_counter()
        try:
            result = index.match_many(patterns)
        except Exception as error:  # noqa: BLE001 - counted as failed patterns
            run.operations(len(rows), len(rows))
            run.problem(f"batch failed: {error!r}")
            continue
        done = time.perf_counter()
        latencies.append(done - sent)
        windows.append((sent, done))
        wrong = sum(answer != expected[row] for row, answer in zip(rows, result))
        run.operations(len(rows), wrong)
        if wrong:
            run.problem(f"{wrong} of {len(rows)} patterns answered wrongly")
        speed.sample()
    window = (started, time.perf_counter())
    return speed.nominal(latencies, windows), latencies, window, speed


def _patterns_per_s(latencies, batch) -> float:
    """Patterns answered per second spent inside ``match_many``."""
    return batch * len(latencies) / sum(latencies)


def _footprint(run, state, expected, workdir, trace=False) -> float | None:
    return footprint.measure(
        run, workdir, workdir.file("query.idx"), [list(p) for p in state.pool],
        [list(map(int, answer)) for answer in expected], trace,
    )


def run(run, params, seed, seconds, workdir) -> None:
    repeats = 1 if run.trace else SETUP_REPEATS
    state, setups = timed_setup(_setup(params, seed, workdir), repeats)
    expected = oracle(state.source, state.pool, params["z"])
    latencies, wall, _, _ = _phase(run, state, expected, seconds)
    peak = _footprint(run, state, expected, workdir)
    size = store_bytes(workdir.file("query.idx"))
    batch = params["batch"]
    if not latencies or peak is None:
        return
    if not run.trace:
        run.median("setup_s", setups)
        run.median("op_ms", latencies, 1e3)
        run.metric("peak_mib", peak, "peak-RSS increase of a fresh process over an "
                   "mmap load of the store and one pass over the pattern pool")
        run.metric("store_bytes", size, "size of the saved MWST-G store")
        run.reported(
            "query_patterns_per_s", _patterns_per_s(latencies, batch), "1/s",
            f"{batch * len(latencies)} patterns in {len(latencies)} batches, "
            f"{sum(latencies):.3f} s of reads at nominal speed, {sum(wall):.3f} s wall",
        )
        run.percentile("query_batch_p99_ms", latencies, 99, 1e3, report_unit="ms")
        run.percentile("wall.op_ms", wall, 50, 1e3, report_unit="ms")
        return
    tracer = tracing.install(tracing.Tracer())
    try:
        traced_state, traced_setups = timed_setup(_setup(params, seed, workdir), 1)
        tracer.counts.clear()  # the warm-up batches are not the timed phase
        traced, _, window, speed = _phase(run, traced_state, expected, seconds, tracer)
    finally:
        tracer.uninstall()
    traced_peak = _footprint(run, traced_state, expected, workdir, trace=True)
    run.overhead("setup_s", setups, traced_setups)
    run.overhead("op_ms", [1e3 * x for x in latencies], [1e3 * x for x in traced])
    if traced_peak is not None:
        run.overhead("peak_mib", [peak], [traced_peak])
    run.overhead("store_bytes", [size], [store_bytes(workdir.file("query.idx"))])
    query_layers(run, tracer.spans, tracer.counts, window, len(traced))
    totals = tracing.self_times(tracer.spans)
    run.metric("store.load_busy_s", totals.get("store.load", 0.0),
               "one mmap load of the saved store during set-up")
    timed = window[1] - window[0] - speed.seconds_within(window)
    run.coverage(tracing.covered_seconds(tracer.spans, window), timed, {
        "match_many front-end": "the BatchQueryEngine shim, the answer checks and "
        "the benchmark loop run outside the planner span",
    })


def query_layers(run, spans, counts, window, batches, per="batch") -> None:
    """Per-batch (or per-request) self times and counts of the query path."""
    totals = tracing.self_times(spans, window)
    counts = defaultdict(float, counts)
    note = f"per {per}, {batches} timed"
    run.metric("planner.self_s", totals.get("planner", 0.0) / batches, note)
    run.metric(
        "planner.unique_ratio",
        counts["planner.unique"] / max(1.0, counts["planner.patterns"]),
    )
    run.metric("minimizers.busy_s", totals.get("minimizers", 0.0) / batches, note)
    run.metric("range.busy_s", totals.get("range", 0.0) / batches, note)
    run.metric(
        "range.nonempty_ratio",
        counts["range.nonempty"] / max(1.0, counts["range.pieces"]),
    )
    run.metric("grid.report_busy_s", totals.get("grid.report", 0.0) / batches, note)
    run.metric("grid.report_calls", counts["grid.report_calls"] / batches, note)
    run.metric("grid.points", counts["grid.points"] / batches, note)
    run.metric("verify.busy_s", totals.get("verify", 0.0) / batches, note)
    run.metric("verify.candidates", counts["verify.candidates"] / batches, note)
    run.metric(
        "verify.useful_ratio",
        counts["verify.occurrences"] / max(1.0, counts["verify.candidates"]),
    )
