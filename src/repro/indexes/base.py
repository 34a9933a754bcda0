"""Common interface of every uncertain-string index.

All indexes solve (variants of) the Weighted Indexing problem: report every
position where a pattern has a z-valid occurrence in the indexed weighted
string.  They share the small protocol defined here so that examples,
benchmarks and tests can treat them uniformly.
"""

from __future__ import annotations

import abc
import time
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from ..core.numerics import validate_threshold
from ..core.weighted_string import WeightedString
from ..errors import PatternError, QueryError
from .query import Query, QueryPlanner, coerce_pattern_array
from .space import IndexStats

__all__ = [
    "UncertainStringIndex",
    "UpdateReport",
    "affected_pattern_starts",
    "coerce_pattern",
    "brute_force_occurrences",
    "EMPTY_PATTERN_MESSAGE",
]

#: The one canonical complaint about empty patterns: every query entry point
#: and the brute-force oracle raise ``PatternError`` with it.
EMPTY_PATTERN_MESSAGE = "empty patterns are not supported"


def coerce_pattern(pattern, source: WeightedString) -> list[int]:
    """Convert a pattern given as text or as letter codes into a code list."""
    return [int(code) for code in coerce_pattern_array(pattern, source)]


def brute_force_occurrences(source: WeightedString, pattern, z: float) -> list[int]:
    """Reference oracle: all z-valid occurrences by direct probability products.

    Rejects empty patterns with the same :class:`~repro.errors.PatternError`
    every index raises, so oracle tests and index queries agree on the edge
    case too (an empty pattern "occurs everywhere" under the mathematical
    definition, which is never what a caller meant).
    """
    z = validate_threshold(z)
    codes = coerce_pattern(pattern, source)
    if not codes:
        raise PatternError(EMPTY_PATTERN_MESSAGE)
    return source.occurrences(codes, z)


def affected_pattern_starts(length: int, positions, n: int) -> np.ndarray:
    """Occurrence starts of a length-``length`` pattern that point updates touch.

    An update at position ``u`` can only change the occurrence probability of
    starts in ``[u - length + 1, u]`` (the occurrences whose window covers
    ``u``); everything outside depends on untouched rows only.  Returns the
    sorted union over all updated positions, clamped to the valid start range
    ``[0, n - length]``.  This is the window the serving layer probes to
    decide — exactly — which cached answers an update could have changed.
    """
    starts: set[int] = set()
    for position in positions:
        low = max(0, int(position) - length + 1)
        high = min(int(position), n - length)
        if low <= high:
            starts.update(range(low, high + 1))
    return np.asarray(sorted(starts), dtype=np.int64)


@dataclass
class UpdateReport:
    """What one :meth:`UncertainStringIndex.apply_updates` call did.

    ``strategy`` names the repair path taken (``"noop"``, ``"full-rebuild"``,
    ``"localized"`` for the minimizer indexes' leaf-level re-derivation,
    ``"dirty-shards"`` for the sharded index); ``details`` carries
    strategy-specific counters (re-derived leaf counts, rebuilt shard ids,
    ...) consumed by tests, benchmarks and the serving layer's responses.
    """

    positions: list[int]
    strategy: str
    seconds: float
    generation: int
    details: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        """JSON-ready report (for the CLI and the serve loop)."""
        return {
            "positions": list(self.positions),
            "strategy": self.strategy,
            "seconds": self.seconds,
            "generation": self.generation,
            **self.details,
        }


class UncertainStringIndex(abc.ABC):
    """Abstract base class of every index over a weighted string.

    Concrete indexes are constructed through their ``build`` classmethods and
    implement one query hook — :meth:`_batch_locate`, which answers a list of
    validated, distinct letter-code patterns — and may override
    :meth:`_batch_locate_probs` to report probabilities straight out of
    their verification stage.  Every public query entry point
    (:meth:`locate` / :meth:`count` / :meth:`exists` / :meth:`locate_probs` /
    :meth:`topk` / :meth:`query` / :meth:`query_many` / :meth:`match_many`)
    routes through the unified :class:`~repro.indexes.query.QueryPlanner`,
    which validates and deduplicates patterns and calls those hooks; a
    single pattern is a batch of one.
    """

    #: Short display name used by the benchmark reports (e.g. ``"MWSA"``).
    name: str = "index"

    def __init__(self, source: WeightedString, z: float) -> None:
        self._source = source
        self._z = validate_threshold(z)
        self._stats = IndexStats(name=self.name)
        self._generation = 0

    # -- shared accessors -----------------------------------------------------
    @property
    def source(self) -> WeightedString:
        """The indexed weighted string."""
        return self._source

    @property
    def z(self) -> float:
        """The threshold parameter (the index answers ``1/z`` queries)."""
        return self._z

    @property
    def stats(self) -> IndexStats:
        """Size / construction statistics recorded at build time."""
        return self._stats

    @property
    def minimum_pattern_length(self) -> int:
        """Smallest pattern length the index supports (ℓ; 1 for the baselines)."""
        return 1

    @property
    def maximum_pattern_length(self) -> int | None:
        """Largest supported pattern length (``None`` when unbounded).

        Monolithic indexes answer patterns of any length; a
        :class:`~repro.indexes.sharded.ShardedIndex` is only complete up to
        the pattern length its shard overlap was planned for.
        """
        return None

    @property
    def generation(self) -> int:
        """Number of update batches applied to this index since it was built."""
        return self._generation

    # -- updates -----------------------------------------------------------------
    def apply_updates(self, updates) -> UpdateReport:
        """Apply point updates to the indexed string and repair the index.

        ``updates`` is a sequence of ``(position, distribution)`` pairs
        (distributions as ``{letter: probability}`` mappings or length-σ
        vectors; re-normalized).  The source is mutated in place, then the
        variant's repair strategy (:meth:`_rebuild_updated`) brings the
        derived structures back in sync.  Afterwards every query answer is
        bit-identical to a from-scratch build over the mutated string — the
        contract the differential fuzz harness enforces.

        Other index objects built over the *same* :class:`WeightedString`
        observe the mutated rows but keep their stale structures; apply the
        same update batch to each of them (updates are absolute, hence
        idempotent on the shared source).
        """
        started = time.perf_counter()
        # WeightedString.apply_updates coerces the whole batch before any row
        # is touched, so a bad update cannot leave the source half-applied.
        positions = self._source.apply_updates(updates)
        if positions:
            details = self._rebuild_updated(positions) or {}
        else:
            details = {"strategy": "noop"}
        self._generation += 1
        strategy = details.pop("strategy", "full-rebuild")
        return UpdateReport(
            positions=positions,
            strategy=strategy,
            seconds=time.perf_counter() - started,
            generation=self._generation,
            details=details,
        )

    def update_position(self, position: int, distribution) -> UpdateReport:
        """Apply one point update (see :meth:`apply_updates`)."""
        return self.apply_updates([(position, distribution)])

    def apply_range_update(self, start: int, rows) -> UpdateReport:
        """Replace one contiguous span of distributions and repair the index.

        ``rows[i]`` becomes the new distribution of position ``start + i``.
        Equivalent to :meth:`apply_updates` over consecutive positions; the
        localized repair sees one contiguous dirty span — a single
        estimation replay window — instead of scattered points.
        """
        rows = list(rows)
        report = self.apply_updates(
            [(start + offset, row) for offset, row in enumerate(rows)]
        )
        report.details["range"] = [int(start), int(start) + len(rows)]
        return report

    def _rebuild_updated(self, positions: list[int]) -> dict:
        """Repair strategy hook: derived structures after source rows changed.

        The universal default re-derives the whole index through the registry
        (always bit-identical to a fresh build — the z-estimation is a
        sequential left-to-right construction, so a monolithic index cannot
        generally confine an update's ripple).  Variants override with
        narrower strategies: the minimizer indexes re-derive only the leaves
        whose derivation actually changed (at least the ``2ℓ−1`` window of
        minimizer windows around each touched position, extended by
        estimation ripple), the sharded index rebuilds only dirty shards.
        """
        from .registry import rebuild_in_place

        return rebuild_in_place(self)

    # -- queries -----------------------------------------------------------------
    def query(self, request, **options):
        """Answer one :class:`~repro.indexes.query.Query` through the planner.

        ``request`` is either a built :class:`~repro.indexes.query.Query` or
        a bare pattern, in which case any keyword options (``mode``, ``k``,
        ``z``, ``zs``) are forwarded to the Query constructor.  Options
        alongside a prebuilt Query are rejected — silently dropping an
        override would answer a different question than the caller asked.
        """
        if isinstance(request, Query):
            if options:
                raise QueryError(
                    f"query options {sorted(options)} cannot be combined with a "
                    "prebuilt Query; set them on the Query itself"
                )
        else:
            request = Query(request, **options)
        return QueryPlanner(self).execute([request])[0]

    def query_many(self, requests: Sequence):
        """Answer a whole batch of queries/patterns through the planner."""
        return QueryPlanner(self).execute(requests)

    def locate(self, pattern) -> list[int]:
        """Sorted positions of all z-valid occurrences of ``pattern``."""
        return self.query(pattern).positions

    def count(self, pattern) -> int:
        """Number of z-valid occurrences of ``pattern``."""
        return self.query(pattern, mode="count").count

    def exists(self, pattern) -> bool:
        """Whether ``pattern`` has at least one z-valid occurrence."""
        return self.query(pattern, mode="exists").exists

    def locate_probs(self, pattern) -> list[tuple[int, float]]:
        """Sorted ``(position, occurrence probability)`` pairs of ``pattern``."""
        result = self.query(pattern, mode="locate_probs")
        return list(zip(result.positions, result.probabilities))

    def topk(self, pattern, k: int) -> list[tuple[int, float]]:
        """The ``k`` most probable occurrences, most probable first."""
        result = self.query(pattern, mode="topk", k=k)
        return list(zip(result.positions, result.probabilities))

    def match_many(self, patterns: Sequence) -> list[list[int]]:
        """Occurrence lists of a whole pattern batch, in input order.

        Equivalent to ``[self.locate(p) for p in patterns]``, but duplicate
        patterns are answered once and the whole batch shares one call of
        the batch hook.
        """
        return [result.positions for result in self.query_many(patterns)]

    # -- query hooks ---------------------------------------------------------------
    @abc.abstractmethod
    def _batch_locate(self, code_lists: list) -> list[list[int]]:
        """Sorted occurrences of each pattern (already coerced, validated, distinct)."""

    def _batch_locate_probs(self, code_lists: list) -> list[tuple[list[int], np.ndarray]]:
        """Batch strategy that also reports exact occurrence probabilities.

        Default: occurrences from :meth:`_batch_locate`, probabilities from
        one :func:`~repro.indexes.verification.exact_occurrence_products`
        gather per pattern (this is how the WST/WSA baselines answer — their
        property structures never compute probabilities).  The minimizer
        families override this to surface the products straight out of their
        verification stage; the sharded index fans it out per shard.
        """
        from .verification import exact_occurrence_products

        all_positions = self._batch_locate(code_lists)
        return [
            (positions, exact_occurrence_products(self._source, codes, positions))
            for codes, positions in zip(code_lists, all_positions)
        ]

    # -- helpers for subclasses ------------------------------------------------------
    def _prepare_pattern(self, pattern) -> list[int]:
        codes = coerce_pattern(pattern, self._source)
        if len(codes) == 0:
            raise PatternError(EMPTY_PATTERN_MESSAGE)
        if len(codes) < self.minimum_pattern_length:
            raise PatternError(
                f"{self.name} was built for patterns of length >= "
                f"{self.minimum_pattern_length}, got {len(codes)}"
            )
        maximum = self.maximum_pattern_length
        if maximum is not None and len(codes) > maximum:
            raise PatternError(
                f"{self.name} was built for patterns of length <= "
                f"{maximum}, got {len(codes)}"
            )
        return codes

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(n={len(self._source)}, z={self._z:g}, "
            f"size={self._stats.index_size_bytes}B)"
        )
