"""Span-recording wrappers around the public functions of each layer.

The wrappers live here, in the benchmark, and are installed from outside:
nothing inside ``src/`` knows it is being traced.  A :class:`Tracer` keeps
every span in memory (name, start, end, parent span, operation id) and
every counter the wrappers see; :func:`layer_metrics` turns them into the
per-layer figures of one traced run.

Spans nest through a plain stack, which is right for synchronous calls in
one thread.  ``MicroBatcher.submit`` is a coroutine that interleaves with
other requests on the event loop, so its spans are recorded without
entering the stack (they are nobody's parent and have no parent).
"""

from __future__ import annotations

import bisect
import importlib
import json
import os
import sys
import time
from collections import defaultdict

#: Modules imported before wrapping, so every ``from x import f`` binding
#: that must be redirected already exists.
MODULES = (
    "repro.core.estimation",
    "repro.indexes.minimizer_core",
    "repro.indexes.se_construction",
    "repro.indexes.mwst",
    "repro.indexes.wsa",
    "repro.indexes.registry",
    "repro.indexes.engine",
    "repro.indexes.query",
    "repro.indexes.sharded",
    "repro.indexes.verification",
    "repro.geometry.grid",
    "repro.sampling.minimizers",
    "repro.io.store",
    "repro.service.query_service",
    "repro.service.batching",
    "repro.service.server",
    "repro.datasets.patterns",
    "repro.cli",
)


class Tracer:
    """In-memory span and counter recorder."""

    def __init__(self) -> None:
        # Each span: [name, start, end, parent index or -1, operation id].
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        # Set by the caller before each timed operation (a build, a batch,
        # an update cycle).  Inside serve-http it stays 0: requests merged
        # into one micro-batch share that batch's execution spans.
        self.operation = 0
        self._stack: list[int] = []
        self._restore: list = []

    # -- recording ------------------------------------------------------------------
    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.operation])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, function, count=None):
        """A synchronous wrapper recording one span (and counters) per call."""
        tracer = self

        def traced(*args, **kwargs):
            index = tracer._open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer._close(index)
            if count is not None:
                count(tracer.counts, args, kwargs, result)
            return result

        traced.__wrapped__ = function
        return traced

    def wrap_async(self, name: str, function):
        """A coroutine wrapper; its spans stay off the nesting stack."""
        tracer = self

        async def traced(*args, **kwargs):
            start = time.perf_counter()
            try:
                return await function(*args, **kwargs)
            finally:
                tracer.spans.append(
                    [name, start, time.perf_counter(), -1, tracer.operation]
                )

        traced.__wrapped__ = function
        return traced

    # -- installation ---------------------------------------------------------------
    def patch_function(self, module_name: str, attribute: str, name: str, count=None):
        """Wrap a module-level function everywhere ``repro`` bound it.

        ``from .store import save_index`` copies the function object into
        the importing module, so every ``repro`` module attribute that *is*
        the original is redirected to the wrapper.
        """
        original = getattr(importlib.import_module(module_name), attribute)
        wrapper = self.wrap(name, original, count)
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    self._restore.append((module, key, original, True))

    def patch_method(self, owner, attribute: str, name: str, count=None, asynchronous=False):
        """Wrap a method on its class (inherited methods get an override)."""
        own = attribute in vars(owner)
        original = getattr(owner, attribute)
        if asynchronous:
            wrapper = self.wrap_async(name, original)
        else:
            wrapper = self.wrap(name, original, count)
        setattr(owner, attribute, wrapper)
        self._restore.append((owner, attribute, original, own))

    def uninstall(self) -> None:
        """Put every wrapped attribute back."""
        for owner, key, original, own in reversed(self._restore):
            if own:
                setattr(owner, key, original)
            else:
                delattr(owner, key)
        self._restore.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, handle)


# --------------------------------------------------------------------------- #
# counters recorded at the wrapped boundaries                                  #
# --------------------------------------------------------------------------- #
def _count_leaves(counts, args, kwargs, result) -> None:
    forward, backward = result
    counts["leaves"] += len(forward) + len(backward)


def _count_ranges(counts, args, kwargs, result) -> None:
    counts["range.pieces"] += len(result)
    if len(result):
        counts["range.nonempty"] += int((result[:, 0] < result[:, 1]).sum())


def _count_report(counts, args, kwargs, result) -> None:
    counts["grid.report_calls"] += 1
    counts["grid.points"] += len(result)


def _count_verify(counts, args, kwargs, result) -> None:
    candidates = args[3] if len(args) > 3 else kwargs["candidates_per_row"]
    counts["verify.candidates"] += sum(len(row) for row in candidates if row is not None)
    with_probabilities = kwargs.get("with_probabilities", False)
    for row in result:
        counts["verify.occurrences"] += len(row[0] if with_probabilities else row)


def _count_planner(counts, args, kwargs, result) -> None:
    stats = args[0].last_stats
    counts["planner.patterns"] += stats.get("patterns", 0)
    counts["planner.unique"] += stats.get("unique_patterns", 0)


def _count_sharded_update(counts, args, kwargs, result) -> None:
    counts["sharded.updates"] += 1
    counts["sharded.dirty_shards"] += len(result.details.get("rebuilt_shards", ()))


def _count_save(counts, args, kwargs, result) -> None:
    path = args[0] if args else kwargs["path"]
    counts["store.bytes_written"] += os.path.getsize(path)


def _count_wal(counts, args, kwargs, result) -> None:
    from repro.io.store import WAL_NAME

    directory = args[0] if args else kwargs["directory"]
    counts["wal.fsyncs"] += 1
    counts["wal.bytes"] += os.path.getsize(os.path.join(directory, WAL_NAME)) - result


def _count_durable(counts, args, kwargs, result) -> None:
    report = result[0]
    counts["updated_positions"] += len(report.positions)


def install(tracer: Tracer) -> Tracer:
    """Wrap every traced layer boundary of the ``repro`` package."""
    for module in MODULES:
        importlib.import_module(module)
    from repro.geometry.grid import Grid2D
    from repro.indexes.minimizer_core import LeafCollection
    from repro.indexes.query import QueryPlanner
    from repro.indexes.sharded import ShardedIndex
    from repro.sampling.minimizers import MinimizerScheme
    from repro.service.batching import MicroBatcher
    from repro.service.query_service import QueryService

    for attribute in ("build_z_estimation", "resume_z_estimation"):
        tracer.patch_function("repro.core.estimation", attribute, "estimation")
    tracer.patch_function(
        "repro.indexes.minimizer_core", "build_leaf_arrays_from_estimation",
        "leaves.derive", _count_leaves,
    )
    tracer.patch_method(LeafCollection, "__init__", "sort")
    tracer.patch_method(LeafCollection, "adjacent_lcps", "lcp")
    tracer.patch_method(LeafCollection, "build_trie", "trie")
    tracer.patch_method(LeafCollection, "prefix_range_many", "range", _count_ranges)
    tracer.patch_method(Grid2D, "__init__", "grid.build")
    tracer.patch_method(Grid2D, "report", "grid.report", _count_report)
    tracer.patch_function(
        "repro.indexes.se_construction", "build_index_data_space_efficient", "se"
    )
    tracer.patch_method(
        MinimizerScheme, "leftmost_pattern_minimizers", "minimizers"
    )
    tracer.patch_method(QueryPlanner, "execute", "planner", _count_planner)
    # The batch strategy calls verification through the engine module's
    # binding, which patch_function redirects with every other binding.
    tracer.patch_function(
        "repro.indexes.verification", "verify_candidate_batches", "verify", _count_verify
    )
    tracer.patch_method(ShardedIndex, "apply_updates", "update.apply", _count_sharded_update)
    tracer.patch_function("repro.io.store", "save_index", "store.save", _count_save)
    tracer.patch_function("repro.io.store", "load_index", "store.load")
    tracer.patch_function("repro.io.store", "append_wal", "wal.append", _count_wal)
    tracer.patch_function("repro.io.store", "refresh_sharded_store", "store.refresh")
    tracer.patch_function(
        "repro.io.store", "apply_updates_durably", "store.durable", _count_durable
    )
    tracer.patch_method(QueryService, "query_many", "service.exec")
    tracer.patch_method(MicroBatcher, "submit", "batcher.submit", asynchronous=True)
    return tracer


# --------------------------------------------------------------------------- #
# aggregation                                                                  #
# --------------------------------------------------------------------------- #
def self_times(spans, window=None) -> dict[str, float]:
    """Total self time per span name (span minus its direct children).

    With ``window=(start, end)`` only spans starting inside it count.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0 and end is not None:
            child_time[parent] += end - start
    totals: dict[str, float] = defaultdict(float)
    for number, (name, start, end, parent, _) in enumerate(spans):
        if end is None:
            continue
        if window is not None and not window[0] <= start <= window[1]:
            continue
        totals[name] += (end - start) - child_time[number]
    return totals


def covered_seconds(spans, window) -> float:
    """Wall time inside ``window`` covered by at least one root span."""
    lo, hi = window
    intervals = sorted(
        (max(start, lo), min(end, hi))
        for name, start, end, parent, _ in spans
        if parent < 0 and end is not None and end > lo and start < hi
        and name != "batcher.submit"
    )
    covered = 0.0
    current_start = current_end = None
    for start, end in intervals:
        if current_end is None or start > current_end:
            if current_end is not None:
                covered += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        covered += current_end - current_start
    return covered


def batcher_wait_seconds(spans, window) -> tuple[float, int]:
    """Total ``MicroBatcher.submit`` time not spent executing its batch.

    A request's batch is the ``QueryService.query_many`` span that ended
    last inside its submit span; the remainder is the wait for the window,
    for the batch lock and for the event loop.
    """
    executions = sorted(
        (end, start)
        for name, start, end, parent, _ in spans
        if name == "service.exec" and end is not None
    )
    ends = [end for end, _ in executions]
    wait = 0.0
    requests = 0
    for name, start, end, parent, _ in spans:
        if name != "batcher.submit" or not window[0] <= start <= window[1]:
            continue
        requests += 1
        position = bisect.bisect_right(ends, end) - 1
        executed = 0.0
        if position >= 0 and executions[position][1] >= start:
            executed = executions[position][0] - executions[position][1]
        wait += (end - start) - executed
    return wait, requests
