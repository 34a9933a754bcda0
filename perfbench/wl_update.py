"""``update-mix``: durable updates beside reads on an 8-shard MWSA store.

One closed-loop caller alternates an ``apply_updates_durably`` call (mostly
point updates, some short ranges across a shard boundary, so both shards
sharing the overlap are dirtied) with a ``match_many`` batch.  A few
patterns of each batch cover the position just updated.  After the timed
phase the run is replayed on a separate copy of the source: every answer is
checked against the brute-force oracle on the source as mutated at that
moment, the store must pass ``verify_store``, and a reload must answer like
the live index.
"""

from __future__ import annotations

import os
import shutil
import time

import numpy as np

import footprint
import tracing
from common import SETUP_REPEATS, Speed, store_bytes, timed_setup
from inputs import oracle, pattern_pool
from wl_query import query_layers


class _State:
    def __init__(self, source, index, store, pool, plan) -> None:
        self.source = source
        self.index = index
        self.store = store
        self.pool = pool
        self.plan = plan

    def close(self) -> None:
        shutil.rmtree(self.store, ignore_errors=True)


def _distribution(rng, sigma: int) -> np.ndarray:
    """A certain letter, or a major/minor split like the generator's."""
    row = np.zeros(sigma)
    major = int(rng.integers(sigma))
    if rng.random() < 0.5:
        row[major] = 1.0
    else:
        minor = (major + 1 + int(rng.integers(sigma - 1))) % sigma
        weight = float(rng.uniform(0.05, 0.3))
        row[major], row[minor] = 1.0 - weight, weight
    return row


def _plan(source, shards, params, seed) -> list[tuple]:
    """(updates, covering patterns, pool rows) for every cycle."""
    rng = np.random.default_rng(seed + 1)
    n, sigma = len(source), source.sigma
    heavy = np.argmax(source.matrix, axis=1)
    low, high = params["range_lengths"]
    cycles = []
    for cycle in range(params["plan"]):
        # A fixed cadence, not a coin flip: the share of (slower) range
        # updates, on which the update latencies depend, is then the same on
        # every seed.
        if cycle % params["range_every"] == params["range_every"] - 1:
            boundary = shards[int(rng.integers(len(shards) - 1))].core_end
            span = int(rng.integers(low, high + 1))
            start = boundary - int(rng.integers(1, span))
            positions = list(range(start, start + span))
        else:
            positions = [int(rng.integers(n))]
        updates = [(position, _distribution(rng, sigma)) for position in positions]
        for position, row in updates:
            heavy[position] = int(np.argmax(row))
        covering = []
        for number in range(params["covering"]):
            m = params["lengths"][number % len(params["lengths"])]
            start = min(max(0, positions[0] - int(rng.integers(m))), n - m)
            covering.append([int(code) for code in heavy[start : start + m]])
        rows = rng.integers(0, params["pool_size"], size=params["batch"] - len(covering))
        cycles.append((updates, covering, rows))
    return cycles


def _setup(params, seed, workdir):
    from repro.core.weighted_string import WeightedString
    from repro.datasets.synthetic import sparse_uncertainty_string
    from repro.indexes.registry import build_index
    from repro.io.store import save_sharded_store

    def setup(number):
        source = sparse_uncertainty_string(
            params["length"], params["sigma"], delta=params["delta"], seed=seed
        )
        live = WeightedString(np.array(source.matrix), source.alphabet)
        index = build_index(
            live, params["z"], kind=params["kind"], ell=params["ell"],
            shards=params["shards"], max_pattern_len=params["max_pattern_len"],
        )
        store = workdir.file(f"store-{number}")
        save_sharded_store(store, index)
        pool = pattern_pool(source, params["z"], params["lengths"], params["valid"], 0, seed)
        plan = _plan(source, index.shards, {**params, "pool_size": len(pool)}, seed)
        index.match_many(pool[: params["batch"]])
        return _State(source, index, store, pool, plan)

    return setup


def _phase(run, state, seconds, tracer=None):
    from repro.io.store import apply_updates_durably

    updates, reads, answers = [], [], []
    update_windows, read_windows = [], []
    speed = Speed()
    started = time.perf_counter()
    for number, (updates_, covering, rows) in enumerate(state.plan):
        if time.perf_counter() - started >= seconds:
            break
        if tracer is not None:
            tracer.operation = number
        sent = time.perf_counter()
        try:
            apply_updates_durably(state.store, state.index, updates_)
        except Exception as error:  # noqa: BLE001 - counted as a failed update
            run.operations(1, 1)
            run.problem(f"update failed: {error!r}")
            break
        done = time.perf_counter()
        updates.append(done - sent)
        update_windows.append((sent, done))
        patterns = [state.pool[row] for row in rows] + covering
        sent = time.perf_counter()
        try:
            result = state.index.match_many(patterns)
        except Exception as error:  # noqa: BLE001 - counted as failed patterns
            run.operations(len(patterns), len(patterns))
            run.problem(f"batch failed: {error!r}")
            answers.append(None)
            continue
        done = time.perf_counter()
        reads.append(done - sent)
        read_windows.append((sent, done))
        answers.append(result)
        speed.sample()
    window = (started, time.perf_counter())
    wall = {"updates": updates, "reads": reads, "probe": speed.seconds_within(window)}
    updates = speed.nominal(updates, update_windows)
    reads = speed.nominal(reads, read_windows)
    return updates, reads, answers, window, wall


def _check(run, state, params, expected, answers) -> list:
    """Replay the executed cycles on a copy of the source, checking answers."""
    from repro.core.weighted_string import WeightedString
    from repro.indexes import brute_force_occurrences

    z = params["z"]
    source = WeightedString(np.array(state.source.matrix), state.source.alphabet)
    current = [np.asarray(answer, dtype=np.int64) for answer in expected]
    lengths = sorted({len(pattern) for pattern in state.pool})
    n = len(source)
    for (updates, covering, rows), result in zip(state.plan, answers):
        positions = source.apply_updates(updates)
        for m in lengths:
            # Only starts whose window covers an updated row can change.
            lo, hi = max(0, positions[0] - m + 1), min(positions[-1], n - m)
            if lo > hi:
                continue
            window = source.slice(lo, hi + m)
            for number, pattern in enumerate(state.pool):
                if len(pattern) != m:
                    continue
                answer = current[number]
                fresh = np.asarray(brute_force_occurrences(window, pattern, z)) + lo
                current[number] = np.concatenate(
                    [answer[answer < lo], fresh, answer[answer > hi]]
                ).astype(np.int64)
        run.operations(1, 0)
        if result is None:  # the batch raised; its patterns counted as failed
            continue
        wanted = [current[row].tolist() for row in rows]
        wanted += [brute_force_occurrences(source, pattern, z) for pattern in covering]
        wrong = sum(got != want for got, want in zip(result, wanted))
        run.operations(len(result), wrong)
        if wrong:
            run.problem(f"{wrong} of {len(result)} patterns answered wrongly after an update")
    return current


def _check_store(run, state, final_answers) -> None:
    from repro.io.store import load_sharded_store, verify_store

    try:
        report = verify_store(state.store)
        reloaded = load_sharded_store(state.store)
        live = state.index.match_many(state.pool)
        stored = reloaded.match_many(state.pool)
    except Exception as error:  # noqa: BLE001 - counted as failed patterns
        run.operations(len(state.pool), len(state.pool))
        run.problem(f"store check failed: {error!r}")
        return
    if not report["ok"]:
        run.problem(f"verify_store failed: {report['problems'][:3]}")
    mismatches = sum(a != b for a, b in zip(live, stored))
    wrong = sum(a != b.tolist() for a, b in zip(live, final_answers))
    if mismatches or wrong:
        run.problem(
            f"after the run the reloaded store differs from the live index on "
            f"{mismatches} patterns and the live index from the oracle on {wrong}"
        )


def _run_once(run, params, seed, seconds, workdir, repeats, tracer=None):
    from repro.io.store import WAL_NAME

    state, setups = timed_setup(_setup(params, seed, workdir), repeats)
    expected = oracle(state.source, state.pool, params["z"])
    if tracer is not None:
        tracer.counts.clear()  # count the timed phase only
    updates, reads, answers, window, wall = _phase(run, state, seconds, tracer)
    counts = dict(tracer.counts) if tracer is not None else {}
    final_answers = _check(run, state, params, expected, answers)
    _check_store(run, state, final_answers)
    wal = os.path.join(state.store, WAL_NAME)
    wall["wal_bytes"] = os.path.getsize(wal) if os.path.exists(wal) else 0
    return state, setups, updates, reads, answers, window, counts, wall, final_answers


def _patterns(answers) -> int:
    return sum(len(result) for result in answers if result is not None)


def _footprint(run, state, final_answers, workdir, trace=False) -> float | None:
    return footprint.measure(
        run, workdir, state.store, [list(p) for p in state.pool],
        [answer.tolist() for answer in final_answers], trace,
    )


def run(run, params, seed, seconds, workdir) -> None:
    repeats = 1 if run.trace else SETUP_REPEATS
    state, setups, updates, reads, answers, _, _, wall, final = _run_once(
        run, params, seed, seconds, workdir, repeats
    )
    peak = _footprint(run, state, final, workdir)
    size = store_bytes(state.store)
    if not updates or peak is None:
        return
    if not run.trace:
        run.median("setup_s", setups)
        run.median("op_ms", updates, 1e3)
        run.metric("peak_mib", peak, "peak-RSS increase of a fresh process over an "
                   "mmap load of the updated store and one pass over the pattern pool")
        run.metric("store_bytes", size, "shard files and manifest after the run, "
                   f"the WAL ({wall['wal_bytes']} B) left out")
        run.percentile("update_p95_ms", updates, 95, 1e3, report_unit="ms")
        if reads:
            patterns = _patterns(answers)
            run.reported(
                "query_patterns_per_s", patterns / sum(reads), "1/s",
                f"{patterns} patterns in {len(reads)} batches, {sum(reads):.3f} s of "
                f"reads at nominal speed, {sum(wall['reads']):.3f} s wall",
            )
            run.percentile("query_batch_p50_ms", reads, 50, 1e3, report_unit="ms")
        run.percentile("wall.op_ms", wall["updates"], 50, 1e3, report_unit="ms")
        return
    state.close()  # the traced run sets up its own store under the same name
    tracer = tracing.install(tracing.Tracer())
    try:
        traced = _run_once(run, params, seed, seconds, workdir, 1, tracer)
    finally:
        tracer.uninstall()
    traced_state, traced_setups, traced_updates, _, _, window, counts, traced_wall, final = traced
    traced_peak = _footprint(run, traced_state, final, workdir, trace=True)
    run.overhead("setup_s", setups, traced_setups)
    run.overhead("op_ms", [1e3 * x for x in updates], [1e3 * x for x in traced_updates])
    if traced_peak is not None:
        run.overhead("peak_mib", [peak], [traced_peak])
    run.overhead("store_bytes", [size], [store_bytes(traced_state.store)])
    if traced_updates:
        _layers(run, tracer.spans, counts, window, len(traced_updates), traced_wall["probe"])


def _layers(run, spans, counts, window, cycles, probe_seconds) -> None:
    totals = tracing.self_times(spans, window)
    note = f"per update, {cycles} updates"
    for name, layer in (
        ("estimation.busy_s", "estimation"),
        ("leaves.derive_busy_s", "leaves.derive"),
        ("sort.busy_s", "sort"),
        ("lcp.busy_s", "lcp"),
        ("update.apply_busy_s", "update.apply"),
        ("wal.append_busy_s", "wal.append"),
        ("store.refresh_busy_s", "store.refresh"),
        ("store.save_busy_s", "store.save"),
    ):
        run.metric(name, totals.get(layer, 0.0) / cycles, note)
    run.metric(
        "sharded.dirty_shards_per_update",
        counts.get("sharded.dirty_shards", 0.0) / max(1.0, counts.get("sharded.updates", 0.0)),
    )
    run.metric("wal.bytes", counts.get("wal.bytes", 0.0) / cycles, note)
    run.metric("wal.fsyncs", counts.get("wal.fsyncs", 0.0) / cycles, note)
    run.metric(
        "store.bytes_written_per_update",
        counts.get("store.bytes_written", 0.0) / max(1.0, counts.get("updated_positions", 0.0)),
        "shard bytes rewritten per updated position",
    )
    query_layers(run, spans, counts, window, cycles)
    timed = window[1] - window[0] - probe_seconds
    run.coverage(tracing.covered_seconds(spans, window), timed, {
        "match_many front-end": "the BatchQueryEngine shim and the benchmark "
        "loop run outside the planner and store spans",
    })
