"""``QueryService`` — cached serving front-end over any uncertain-string index.

Production pattern traffic is heavily skewed: a small set of hot patterns
dominates the request stream.  The service exploits that with an LRU cache
of finished :class:`~repro.indexes.query.QueryResult` objects keyed by the
*normalized* request — the coerced letter codes plus the query mode and
threshold parameters — so ``"AB"`` and ``[0, 1]`` are one cache entry, and a
repeated request costs a dictionary lookup instead of a planner execution.

The service never changes answers: every miss is answered by the shared
:class:`~repro.indexes.query.QueryPlanner`, identical to calling the index
directly.  Hit/miss/eviction counters feed capacity planning and the
``servemix`` benchmark.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Sequence

import numpy as np

from ..errors import QueryError, ReproError
from ..indexes.base import affected_pattern_starts
from ..indexes.query import Query, QueryPlanner, QueryResult, coerce_pattern_array

__all__ = ["QueryService"]

#: Default number of cached results (a few MB for typical occurrence lists).
DEFAULT_CACHE_SIZE = 1024


class QueryService:
    """Serving front-end: normalization, deduplication and an LRU result cache.

    Parameters
    ----------
    index:
        Any built :class:`~repro.indexes.base.UncertainStringIndex`
        (monolithic, sharded, or loaded from the binary index store).
    cache_size:
        Maximum number of cached results; least-recently-used entries are
        evicted beyond it.
    cache_enabled:
        Disable to measure the uncached baseline (requests are still
        deduplicated within each batch).

    Notes
    -----
    Cached :class:`~repro.indexes.query.QueryResult` objects are shared
    between callers — treat them as read-only.
    """

    def __init__(
        self,
        index,
        *,
        cache_size: int = DEFAULT_CACHE_SIZE,
        cache_enabled: bool = True,
        generation: int = 0,
    ) -> None:
        self._index = index
        self._planner = QueryPlanner(index)
        self._cache: OrderedDict[tuple, QueryResult] = OrderedDict()
        self._cache_size = max(0, int(cache_size))
        self._cache_enabled = bool(cache_enabled) and self._cache_size > 0
        self._queries = 0
        self._cache_hits = 0
        self._dedup_hits = 0
        self._misses = 0
        self._evictions = 0
        self._updates = 0
        self._invalidations = 0
        self._rewarms = 0
        # Warm-log queries remembered by ``warm(..., remember=True)`` so the
        # cache entries an update invalidates can be re-executed immediately
        # (see :meth:`rewarm`) instead of degrading the first post-update
        # request wave into planner misses.
        self._warm_set: list[Query] = []
        # A worker respawned mid-run starts at the cluster's current
        # generation, not 0, so its responses tag the store state they
        # actually serve.
        self._generation = int(generation)

    # -- shape ------------------------------------------------------------------
    @property
    def index(self):
        """The served index."""
        return self._index

    @property
    def cache_enabled(self) -> bool:
        """Whether results are being cached."""
        return self._cache_enabled

    @property
    def hits(self) -> int:
        """Requests served without execution so far: cache hits plus in-batch
        duplicates (cheap accessor for per-request hit detection)."""
        return self._cache_hits + self._dedup_hits

    @property
    def generation(self) -> int:
        """Number of update batches applied through this service."""
        return self._generation

    # -- queries ----------------------------------------------------------------
    def query(self, pattern, *, mode="locate", k=None, z=None, zs=None) -> QueryResult:
        """Answer one request (a pattern or a prepared :class:`Query`).

        Mode/threshold options alongside a prebuilt :class:`Query` are
        rejected (they would be silently ignored otherwise).
        """
        if isinstance(pattern, Query):
            if mode != "locate" or k is not None or z is not None or zs is not None:
                raise QueryError(
                    "query options cannot be combined with a prebuilt Query; "
                    "set them on the Query itself"
                )
            request = pattern
        else:
            request = Query(pattern, mode=mode, k=k, z=z, zs=zs)
        return self.query_many([request])[0]

    def query_many(
        self, requests: Sequence, *, provenance: bool = False
    ) -> list[QueryResult] | tuple[list[QueryResult], list[str]]:
        """Answer a batch of requests, serving repeats from the cache.

        Entries may be :class:`Query` objects or bare patterns (``locate``
        mode).  Requests repeated within the batch are answered once; a
        request whose key is already cached counts as a hit, each distinct
        uncached key as one miss.

        With ``provenance=True`` the return value is ``(results, origins)``
        where ``origins[i]`` is ``"cache"``, ``"dedup"`` or ``"miss"`` for
        request ``i`` — the per-request provenance concurrent callers need
        (a global hit-counter delta misattributes hits as soon as two
        requests are in flight).
        """
        queries = [
            request if isinstance(request, Query) else Query(request)
            for request in requests
        ]
        keys = [self._key(query) for query in queries]
        results: list[QueryResult | None] = [None] * len(queries)
        origins: list[str] = ["miss"] * len(queries)
        pending: OrderedDict[tuple, list[int]] = OrderedDict()
        cache_hits = dedup_hits = misses = 0
        for position, key in enumerate(keys):
            if self._cache_enabled and key in self._cache:
                self._cache.move_to_end(key)
                results[position] = self._cache[key]
                origins[position] = "cache"
                cache_hits += 1
            elif key in pending:
                # Duplicate of an uncached request earlier in this batch:
                # served without a second execution.  Tracked separately from
                # cache hits but counted into the hit rate — it reflects
                # traffic served without touching the index, whether the
                # saved execution came from the cache or from deduplication.
                pending[key].append(position)
                origins[position] = "dedup"
                dedup_hits += 1
            else:
                pending[key] = [position]
                misses += 1
        if pending:
            # Executed before the counters commit: a batch that fails
            # validation raises here and leaves the statistics untouched.
            batch = [queries[positions[0]] for positions in pending.values()]
            answers = self._planner.execute(batch)
            for (key, positions), answer in zip(pending.items(), answers):
                for position in positions:
                    results[position] = answer
                self._store(key, answer)
        self._cache_hits += cache_hits
        self._dedup_hits += dedup_hits
        self._misses += misses
        self._queries += len(queries)
        if provenance:
            return results, origins
        return results

    def _key(self, query: Query) -> tuple:
        """Normalized cache key: coerced codes + mode + threshold parameters.

        Coercion *validates* the pattern (strict integral codes, alphabet
        range) before keying: an invalid pattern must raise
        :class:`~repro.errors.PatternError` here, on the hit path, never
        reach the cache lookup with a truncated key that can collide with a
        cached valid pattern and silently be served that entry's answer.
        """
        codes = coerce_pattern_array(query.pattern, self._index.source)
        return (codes.tobytes(), query.mode, query.k, query.z, query.zs)

    def validate(self, request) -> Query:
        """Normalize and fully validate one request without executing it.

        Returns the :class:`Query` (built from a bare pattern if needed)
        after running the same pattern checks the planner would — strict
        code coercion, alphabet range and the index's pattern-length bounds.
        Admission layers (the HTTP micro-batcher) use this to reject an
        invalid request individually instead of poisoning the whole batch
        it would have been coalesced into.
        """
        query = request if isinstance(request, Query) else Query(request)
        codes = coerce_pattern_array(query.pattern, self._index.source)
        self._index._prepare_pattern(codes)
        index_z = self._index.z
        overrides = query.zs if query.zs is not None else (
            (query.z,) if query.z is not None else ()
        )
        for value in overrides:
            if value > index_z:
                raise QueryError(
                    f"query threshold z={value:g} is looser than the index's "
                    f"z={index_z:g}; occurrences with probability below "
                    f"1/{index_z:g} are not indexed"
                )
        return query

    def warm(self, patterns, *, top: int | None = None, remember: bool = False) -> dict:
        """Pre-populate the cache by replaying patterns from a query log.

        ``patterns`` is an iterable of raw patterns (strings or code
        sequences) in log order, typically with repeats.  They are ranked by
        frequency (first appearance breaks ties, so the warm set is stable
        across runs), truncated to ``top`` — default: the cache capacity —
        and executed through :meth:`query_many` in chunks, so after warm-up
        the first wave of production traffic hits the cache instead of the
        planner.  Patterns that fail validation are skipped, not fatal: a log
        replayed against a newer index may contain patterns that no longer
        coerce.  Returns ``{"warmed": ..., "skipped": ..., "patterns_seen": ...}``.

        With ``remember=True`` the warm set is kept, and every later update
        that invalidates cache entries automatically re-executes the warm
        patterns that fell out (:meth:`rewarm`) — without it, an updated hot
        pattern would miss on its first post-update request even though the
        operator declared it hot.
        """
        counts: OrderedDict[tuple, tuple[int, object]] = OrderedDict()
        seen = 0
        for pattern in patterns:
            seen += 1
            token = (
                ("s", pattern)
                if isinstance(pattern, str)
                else ("l", tuple(np.asarray(pattern).ravel().tolist()))
            )
            if token in counts:
                counts[token] = (counts[token][0] + 1, counts[token][1])
            else:
                counts[token] = (1, pattern)
        limit = self._cache_size if top is None else max(0, int(top))
        if not self._cache_enabled:
            limit = 0
        ranked = sorted(
            enumerate(counts.values()), key=lambda item: (-item[1][0], item[0])
        )
        warm_set = []
        skipped = 0
        for _, (_, pattern) in ranked:
            if len(warm_set) >= limit:
                break
            try:
                warm_set.append(self.validate(pattern))
            except (ReproError, ValueError, TypeError):
                skipped += 1
        for start in range(0, len(warm_set), 256):
            self.query_many(warm_set[start : start + 256])
        if remember:
            self._warm_set = list(warm_set)
        return {"warmed": len(warm_set), "skipped": skipped, "patterns_seen": seen}

    def rewarm(self) -> dict:
        """Re-execute remembered warm patterns whose cache entries are gone.

        Called automatically after :meth:`update` / :meth:`adopt_index`
        invalidation when a warm set was remembered; harmless (and cheap) to
        call by hand.  Warm patterns still cached are left alone — only the
        invalidated ones are re-executed and re-cached, so the first
        post-update request wave hits the cache for the whole warm set.
        Patterns that no longer validate against the current index are
        dropped from the warm set.
        """
        if not self._warm_set or not self._cache_enabled:
            return {"rewarmed": 0, "already_cached": 0, "dropped": 0}
        pending: list[Query] = []
        kept: list[Query] = []
        already = 0
        dropped = 0
        for query in self._warm_set:
            try:
                query = self.validate(query)
            except (ReproError, ValueError, TypeError):
                dropped += 1
                continue
            kept.append(query)
            if self._key(query) in self._cache:
                already += 1
            else:
                pending.append(query)
        self._warm_set = kept
        for start in range(0, len(pending), 256):
            self.query_many(pending[start : start + 256])
        self._rewarms += len(pending)
        return {
            "rewarmed": len(pending),
            "already_cached": already,
            "dropped": dropped,
        }

    def adopt_index(self, new_index, *, positions=(), generation=None) -> dict:
        """Swap in a reloaded index, invalidating stale cache entries exactly.

        Multi-worker serving applies updates in the supervisor and ships
        workers a *reloaded* index (new store generation) instead of mutating
        the served one in place.  This installs that index with the same
        exactness contract as :meth:`update`: given the updated ``positions``,
        each cached entry's occurrence probabilities over the affected
        windows are probed on the old and new source, and only entries whose
        answers could differ are dropped.  With unknown provenance (empty
        ``positions`` or a changed string length) the whole cache is cleared
        instead.  ``generation`` pins the service generation to the
        supervisor's global counter so every worker reports the same value.
        """
        old_source = self._index.source
        new_source = new_index.source
        positions = sorted({int(p) for p in positions})
        invalidated = 0
        if len(new_source) != len(old_source) or not positions:
            invalidated = len(self._cache)
            self._cache.clear()
        elif self._cache:
            n = len(new_source)
            stale = []
            for key in self._cache:
                codes = np.frombuffer(key[0], dtype=np.int64)
                starts = affected_pattern_starts(len(codes), positions, n)
                before = old_source.occurrence_log_probabilities(codes, starts)
                after = new_source.occurrence_log_probabilities(codes, starts)
                if not np.array_equal(before, after):
                    stale.append(key)
            for key in stale:
                self._cache.pop(key, None)
            invalidated = len(stale)
        self._index = new_index
        self._planner = QueryPlanner(new_index)
        self._updates += 1
        self._invalidations += invalidated
        self._generation = (
            int(generation) if generation is not None else self._generation + 1
        )
        rewarmed = self.rewarm()["rewarmed"] if invalidated and self._warm_set else 0
        return {
            "invalidated_entries": invalidated,
            "surviving_entries": len(self._cache),
            "rewarmed_entries": rewarmed,
            "service_generation": self._generation,
        }

    def _store(self, key: tuple, result: QueryResult) -> None:
        if not self._cache_enabled:
            return
        self._cache[key] = result
        self._cache.move_to_end(key)
        while len(self._cache) > self._cache_size:
            self._cache.popitem(last=False)
            self._evictions += 1

    # -- updates ----------------------------------------------------------------
    def update(self, updates) -> dict:
        """Apply point updates to the served index, invalidating stale entries.

        ``updates`` is a sequence of ``(position, distribution)`` pairs,
        forwarded to :meth:`UncertainStringIndex.apply_updates`.  Cache
        invalidation is *exact*: an update at position ``u`` can only change
        a pattern's answer through the occurrence starts whose window covers
        ``u`` (see :func:`~repro.indexes.base.affected_pattern_starts`), so
        each cached entry's occurrence probabilities over that window are
        probed before and after the update — entries whose probed
        probabilities are bit-identical kept their answer and survive, every
        other entry is dropped.  A cached result is therefore never served
        after an update that changed it, and entries the update could not
        have touched keep producing cache hits.
        """
        source = self._index.source
        n = len(source)
        # Materialize once: the batch is iterated here for probing and again
        # inside apply_updates — a generator would be exhausted after the
        # first pass and the update silently dropped.
        updates = list(updates)
        # Coercion validates the batch and yields the touched positions
        # before anything mutates (the raw updates are re-coerced inside
        # apply_updates; coercion is deterministic, so the rows agree).
        positions = sorted({p for p, _ in source.coerce_updates(updates)})
        probes: list[tuple[tuple, np.ndarray, np.ndarray]] = []
        if positions and self._cache:
            for key in self._cache:
                codes = np.frombuffer(key[0], dtype=np.int64)
                starts = affected_pattern_starts(len(codes), positions, n)
                probes.append(
                    (key, starts, source.occurrence_log_probabilities(codes, starts))
                )
        report = self._index.apply_updates(updates)
        invalidated = 0
        for key, starts, before in probes:
            codes = np.frombuffer(key[0], dtype=np.int64)
            after = source.occurrence_log_probabilities(codes, starts)
            if not np.array_equal(before, after):
                self._cache.pop(key, None)
                invalidated += 1
        self._updates += 1
        self._invalidations += invalidated
        self._generation += 1
        rewarmed = self.rewarm()["rewarmed"] if invalidated and self._warm_set else 0
        response = report.as_dict()
        response["invalidated_entries"] = invalidated
        response["surviving_entries"] = len(self._cache)
        response["rewarmed_entries"] = rewarmed
        response["service_generation"] = self._generation
        return response

    # -- introspection ----------------------------------------------------------
    def stats(self) -> dict:
        """Serving counters: requests, hits, misses, evictions, updates.

        ``hits`` counts every request served without an execution — true
        cache hits plus requests deduplicated inside a batch (broken down in
        ``cache_hits`` / ``dedup_hits``) — so ``hit_rate`` reflects the
        served traffic, not only the cache.
        """
        hits = self._cache_hits + self._dedup_hits
        answered = hits + self._misses
        return {
            "queries": self._queries,
            "hits": hits,
            "cache_hits": self._cache_hits,
            "dedup_hits": self._dedup_hits,
            "misses": self._misses,
            "evictions": self._evictions,
            "hit_rate": hits / answered if answered else 0.0,
            "entries": len(self._cache),
            "capacity": self._cache_size,
            "cache_enabled": self._cache_enabled,
            "updates": self._updates,
            "invalidations": self._invalidations,
            "rewarms": self._rewarms,
            "warm_set": len(self._warm_set),
            "generation": self._generation,
            "index_generation": getattr(self._index, "generation", 0),
        }

    def clear_cache(self) -> None:
        """Drop every cached result (counters are kept)."""
        self._cache.clear()

    def reset_stats(self) -> None:
        """Zero the serving counters (cache content and generation are kept)."""
        self._queries = self._cache_hits = self._dedup_hits = 0
        self._misses = self._evictions = 0
        self._updates = self._invalidations = 0
