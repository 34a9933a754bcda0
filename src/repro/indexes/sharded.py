"""Sharded indexes: overlapping chunks built in parallel, queried as one.

A :class:`ShardedIndex` splits a weighted string into ``shard_count``
near-equal chunks and builds one monolithic index (any registered kind) per
chunk.  Consecutive shards overlap by ``max_pattern_len - 1`` positions, so
every occurrence of a pattern of length ``m <= max_pattern_len`` is fully
contained in at least one shard; each shard *owns* the occurrences starting
inside its core (non-overlap) range, which makes the merged answer an exact,
duplicate-free reconstruction of the monolithic answer:

* every query (one pattern or a batch, through the planner's
  ``_batch_locate`` / ``_batch_locate_probs`` hooks) fans the deduplicated
  pattern batch out across the shards, shifts each shard's local positions
  by the shard start, keeps only owned starts and merges per pattern.

Shard construction is embarrassingly parallel: with ``workers > 1`` the
shards are built in separate processes via :mod:`multiprocessing` and the
finished indexes are shipped back, which is what makes the build wall-clock
scale with cores (and, later, with machines).  Patterns longer than
``max_pattern_len`` could straddle more than one shard and are rejected with
the same :class:`~repro.errors.PatternError` discipline as too-short
patterns on the minimizer indexes.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from ..core.weighted_string import WeightedString
from ..errors import ConstructionError
from .base import UncertainStringIndex
from .space import IndexStats

__all__ = ["Shard", "ShardedIndex", "plan_shards"]


@dataclass(frozen=True)
class Shard:
    """One chunk of the shard plan.

    The shard's index covers global positions ``[start, end)``; the shard
    owns occurrences starting in ``[start, core_end)`` (its core range), and
    ``[core_end, end)`` is the overlap into the next shard's core.
    """

    start: int
    core_end: int
    end: int

    @property
    def length(self) -> int:
        """Number of positions the shard's index covers."""
        return self.end - self.start


def plan_shards(n: int, shard_count: int, overlap: int) -> list[Shard]:
    """Split ``[0, n)`` into ``shard_count`` cores with ``overlap`` lookahead.

    Cores are near-equal; each shard extends ``overlap`` positions past its
    core (clamped to ``n``) so patterns starting in the core never overhang
    the shard.
    """
    if shard_count <= 0:
        raise ConstructionError("shard_count must be positive")
    if overlap < 0:
        raise ConstructionError("shard overlap cannot be negative")
    shard_count = min(shard_count, n) or 1
    bounds = [round(index * n / shard_count) for index in range(shard_count + 1)]
    return [
        Shard(start=bounds[index], core_end=bounds[index + 1],
              end=min(bounds[index + 1] + overlap, n))
        for index in range(shard_count)
    ]


def _build_shard(payload):
    """Build one shard's index (module-level so worker processes can import it)."""
    matrix, alphabet, z, kind, ell, options = payload
    from .registry import build_index

    source = WeightedString(matrix, alphabet)
    return build_index(source, z, kind=kind, ell=ell, **options)


class ShardedIndex(UncertainStringIndex):
    """A horizontally sharded uncertain-string index.

    Built through :meth:`build` (or ``build_index(..., shards=N)``); answers
    are bit-identical to the equivalent monolithic index for every pattern of
    length in ``[minimum_pattern_length, max_pattern_len]``.
    """

    name = "SHARDED"

    def __init__(
        self,
        source: WeightedString,
        z: float,
        shards: list[Shard],
        indexes: list[UncertainStringIndex],
        kind: str,
        max_pattern_len: int,
        stats: IndexStats,
        *,
        ell: int | None = None,
        build_options: dict | None = None,
        generations: list[int] | None = None,
    ) -> None:
        super().__init__(source, z)
        self._shards = shards
        self._indexes = indexes
        self._kind = kind
        self._max_pattern_len = max_pattern_len
        self._stats = stats
        self._ell = ell
        self._build_options = dict(build_options or {})
        self._generations = (
            list(generations) if generations is not None else [0] * len(shards)
        )
        self.name = f"SHARDED[{kind}]"

    # -- construction -----------------------------------------------------------------
    @classmethod
    def build(
        cls,
        source: WeightedString,
        z: float,
        *,
        kind: str = "MWSA",
        ell: int | None = None,
        shard_count: int = 1,
        workers: int | None = None,
        max_pattern_len: int | None = None,
        estimation=None,  # noqa: ARG003 — accepted for harness symmetry
        **options,
    ) -> "ShardedIndex":
        """Build ``shard_count`` per-chunk indexes of ``kind`` (in parallel).

        ``max_pattern_len`` fixes the overlap (``max_pattern_len - 1``) and
        the largest supported query length; it defaults to ``2·ell`` for the
        minimizer kinds (covering the workloads of the paper's figures) and
        must be given explicitly for the baselines.  ``workers`` > 1 builds
        the shards in that many processes.  A shared ``estimation`` is
        accepted for call-site symmetry with the monolithic builds but
        ignored: each shard estimates its own chunk.
        """
        from .registry import get_spec

        spec = get_spec(kind)  # validate the inner kind up front
        if spec.needs_ell and ell is None:
            raise ConstructionError(f"index kind {kind!r} requires the ell parameter")
        if max_pattern_len is None:
            if ell is None:
                raise ConstructionError(
                    "sharded builds need max_pattern_len (or ell to default it "
                    "to 2*ell): the shard overlap must bound the query length"
                )
            max_pattern_len = 2 * ell
        if max_pattern_len < 1 or (ell is not None and max_pattern_len < ell):
            raise ConstructionError(
                f"max_pattern_len {max_pattern_len} cannot be smaller than the "
                f"minimum pattern length"
            )
        started = time.perf_counter()
        shards = plan_shards(len(source), shard_count, max_pattern_len - 1)
        payloads = [
            (
                source.matrix[shard.start : shard.end],
                source.alphabet,
                z,
                kind,
                ell,
                options,
            )
            for shard in shards
        ]
        if workers is not None and workers > 1 and len(shards) > 1:
            import multiprocessing

            with multiprocessing.Pool(min(workers, len(shards))) as pool:
                indexes = pool.map(_build_shard, payloads)
        else:
            indexes = [_build_shard(payload) for payload in payloads]
        stats = IndexStats(
            name=f"SHARDED[{kind}]",
            index_size_bytes=sum(index.stats.index_size_bytes for index in indexes),
            construction_space_bytes=max(
                (index.stats.construction_space_bytes for index in indexes), default=0
            ),
            construction_seconds=time.perf_counter() - started,
            counters={
                "shards": len(shards),
                "kind": kind,
                "overlap": max_pattern_len - 1,
                "workers": workers or 1,
                "shard_lengths": [shard.length for shard in shards],
            },
        )
        return cls(
            source, z, shards, indexes, kind, max_pattern_len, stats,
            ell=ell, build_options=options,
        )

    # -- shape ------------------------------------------------------------------------
    @property
    def shards(self) -> list[Shard]:
        """The shard plan (for inspection, storage and tests)."""
        return self._shards

    @property
    def shard_indexes(self) -> list[UncertainStringIndex]:
        """The per-shard indexes, in shard order."""
        return self._indexes

    @property
    def kind(self) -> str:
        """The per-shard index kind."""
        return self._kind

    @property
    def generations(self) -> list[int]:
        """Per-shard rebuild generations (bumped by dirty-shard updates).

        The binary store stamps these into saved sharded indexes so a
        persisted index can be refreshed shard by shard: only shards whose
        generation moved since the last save are rewritten.
        """
        return list(self._generations)

    @property
    def minimum_pattern_length(self) -> int:
        return max(
            (index.minimum_pattern_length for index in self._indexes), default=1
        )

    @property
    def maximum_pattern_length(self) -> int:
        return self._max_pattern_len

    # -- updates ----------------------------------------------------------------------
    def dirty_shards(self, positions) -> list[int]:
        """Shard numbers whose covered range contains an updated position.

        A shard's index is built over ``[start, end)`` — core *plus* the
        ``max_pattern_len - 1`` overlap — so an update anywhere in that range
        invalidates it.  An update inside an overlap region therefore dirties
        both the shard that owns the position and the predecessor whose
        overlap reaches into it; updates elsewhere dirty exactly one shard.
        """
        updated = sorted({int(position) for position in positions})
        dirty = []
        for number, shard in enumerate(self._shards):
            low = bisect_left(updated, shard.start)
            if low < len(updated) and updated[low] < shard.end:
                dirty.append(number)
        return dirty

    def _infer_ell(self) -> int | None:
        """The per-shard ``ell`` for rebuilds (recovered for loaded indexes)."""
        if self._ell is not None:
            return self._ell
        from .registry import get_spec

        if get_spec(self._kind).needs_ell and self._indexes:
            self._ell = self._indexes[0].minimum_pattern_length
        return self._ell

    def _rebuild_updated(self, positions) -> dict:
        """Dirty-shard repair: rebuild only the shards an update touched.

        Clean shards keep their structures untouched — their slice of the
        probability matrix did not change — so the merged answers stay
        bit-identical to a full rebuild over the mutated string while the
        work is proportional to the number of dirty shards.
        """
        dirty = self.dirty_shards(positions)
        ell = self._infer_ell()
        options = dict(self._build_options)
        if dirty and "scheme" not in options:
            # Store-loaded indexes arrive without their build options; reuse
            # the live shards' minimizer scheme so a dirty rebuild cannot
            # drift from the clean shards' construction parameters.
            scheme = getattr(getattr(self._indexes[dirty[0]], "data", None), "scheme", None)
            if scheme is not None:
                options["scheme"] = scheme
                self._build_options = options
        for number in dirty:
            shard = self._shards[number]
            self._indexes[number] = _build_shard(
                (
                    self._source.matrix[shard.start : shard.end],
                    self._source.alphabet,
                    self._z,
                    self._kind,
                    ell,
                    options,
                )
            )
            self._generations[number] += 1
        self._stats.index_size_bytes = sum(
            index.stats.index_size_bytes for index in self._indexes
        )
        self._stats.counters["generations"] = list(self._generations)
        return {
            "strategy": "dirty-shards",
            "rebuilt_shards": dirty,
            "clean_shards": len(self._shards) - len(dirty),
        }

    # -- queries ----------------------------------------------------------------------
    @staticmethod
    def _accumulate(shard: Shard, local_positions, owned: set[int]) -> None:
        """Shift one shard's local starts and keep only the starts it owns.

        A global start belongs to the shard whose core contains it, so
        filtering on the core upper bound yields each occurrence exactly once.
        """
        for position in local_positions:
            globally = shard.start + int(position)
            if globally < shard.core_end:
                owned.add(globally)

    def _fitting_rows(self, code_lists: list, shard: Shard) -> list[int]:
        """Rows of the batch whose patterns fit inside ``shard``.

        Short tail shards never run the batch machinery on patterns they
        cannot contain.
        """
        return [
            row
            for row in range(len(code_lists))
            if len(code_lists[row]) <= shard.length
        ]

    def _batch_locate(self, code_lists: list) -> list[list[int]]:
        """Fan the deduplicated batch out across the shards and merge back."""
        owned: list[set[int]] = [set() for _ in code_lists]
        for shard, index in zip(self._shards, self._indexes):
            rows = self._fitting_rows(code_lists, shard)
            if not rows:
                continue
            shard_results = index._batch_locate([code_lists[row] for row in rows])
            for row, local_positions in zip(rows, shard_results):
                self._accumulate(shard, local_positions, owned[row])
        return [sorted(positions) for positions in owned]

    def _batch_locate_probs(self, code_lists: list):
        """Probability-carrying fan-out: merge per-shard ``(positions, probs)``.

        A shard computes each occurrence's probability from its own slice of
        the probability matrix — the very same ``float64`` entries in the
        same order as the monolithic index — so merged probabilities are
        bit-identical to the monolithic answer.
        """
        owned: list[dict[int, float]] = [{} for _ in code_lists]
        for shard, index in zip(self._shards, self._indexes):
            rows = self._fitting_rows(code_lists, shard)
            if not rows:
                continue
            shard_results = index._batch_locate_probs(
                [code_lists[row] for row in rows]
            )
            for row, (local_positions, probabilities) in zip(rows, shard_results):
                mapping = owned[row]
                for position, probability in zip(local_positions, probabilities):
                    globally = shard.start + int(position)
                    if globally < shard.core_end:
                        mapping[globally] = float(probability)
        out = []
        for mapping in owned:
            positions = sorted(mapping)
            out.append(
                (
                    positions,
                    np.array([mapping[p] for p in positions], dtype=np.float64),
                )
            )
        return out
