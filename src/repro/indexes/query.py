"""The query model and the unified planner/executor of every index variant.

Every query — one pattern or a batch, any mode, monolithic or sharded
index — runs through one pipeline:

* :class:`Query` describes a request: a pattern, a :class:`QueryMode`
  (``exists`` / ``count`` / ``locate`` / ``locate_probs`` / ``topk``), an
  optional per-query threshold override ``z`` and an optional multi-z sweep
  ``zs``;
* :class:`QueryResult` carries the answer — occurrence positions **and**
  their exact occurrence probabilities, which the verification stage used to
  compute and throw away;
* :class:`QueryPlanner` turns a batch of queries into an
  :class:`ExecutionPlan` (coerce + validate once, deduplicate patterns) and
  executes it through the index's ``_batch_locate`` /
  ``_batch_locate_probs`` hooks — the one query path of every variant; a
  single pattern is a batch of one, and the sharded index fans the hooks
  out across its shards.

Exactness contract: ``locate`` positions equal the brute-force oracle's, and
every reported probability equals the brute-force left-to-right ``float64``
product ``p(P[0]) · p(P[1]) · ...`` exactly (see
:func:`~repro.indexes.verification.exact_occurrence_products`).

Threshold overrides answer *stricter* thresholds only: an occurrence valid
for ``z' <= z`` is necessarily valid for the built ``z``, so the planner
filters the indexed answer; ``z' > z`` would require occurrences the index
never stored and raises :class:`~repro.errors.QueryError`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ..core.numerics import solid_probability_mask, validate_threshold
from ..core.weighted_string import WeightedString
from ..errors import PatternError, QueryError

__all__ = [
    "QueryMode",
    "Query",
    "QueryResult",
    "ExecutionPlan",
    "QueryPlanner",
    "coerce_pattern_array",
]


def coerce_pattern_array(
    pattern, source: WeightedString, *, validate: bool = True
) -> np.ndarray:
    """Convert a pattern given as text or as letter codes into a code array.

    This is the one conversion routine of every query path; ``validate=False``
    skips the per-letter range check so the planner can validate a whole
    batch with a single reduction (it re-runs the validating path on failure
    to raise the canonical error).

    Coercion itself is always strict: non-integral letter codes (``0.9``,
    ``-0.5``, ``nan``) raise :class:`~repro.errors.PatternError` instead of
    silently truncating to a *different* pattern's codes — truncation once
    let an invalid pattern alias a valid one's cache key and be answered
    that entry's result.
    """
    if isinstance(pattern, str):
        codes = np.asarray(source.alphabet.encode(pattern), dtype=np.int64)
    else:
        if not isinstance(pattern, (list, tuple, np.ndarray)):
            pattern = list(pattern)
        raw = np.array(pattern, ndmin=1)
        if raw.dtype == np.int64:
            codes = raw
        elif raw.dtype.kind in "iub":
            codes = raw.astype(np.int64)
        else:
            try:
                codes = raw.astype(np.int64)
            except (TypeError, ValueError, OverflowError) as error:
                raise PatternError(
                    f"letter codes must be integers: {error}"
                ) from error
            if not np.array_equal(codes, raw):
                raise PatternError(
                    "letter codes must be integers; a non-integral code "
                    "would silently truncate to a different pattern"
                )
    if validate and len(codes):
        lowest, highest = int(codes.min()), int(codes.max())
        if lowest < 0 or highest >= source.sigma:
            offender = lowest if lowest < 0 else highest
            raise PatternError(
                f"letter code {offender} outside alphabet of size {source.sigma}"
            )
    return codes


class QueryMode(str, Enum):
    """What a query asks for about its pattern's z-valid occurrences."""

    #: Is there at least one occurrence?
    EXISTS = "exists"
    #: How many occurrences are there?
    COUNT = "count"
    #: The sorted occurrence positions (the classic query).
    LOCATE = "locate"
    #: The sorted positions together with their occurrence probabilities.
    LOCATE_PROBS = "locate_probs"
    #: The ``k`` most probable occurrences, most probable first.
    TOPK = "topk"


#: Modes whose results carry per-occurrence probabilities.
_PROBABILITY_MODES = (QueryMode.LOCATE_PROBS, QueryMode.TOPK)


@dataclass(frozen=True)
class Query:
    """One query request (pattern + mode + optional threshold overrides).

    ``z`` answers at a single stricter threshold; ``zs`` sweeps several
    thresholds in one request (the result then carries one sub-result per
    z in :attr:`QueryResult.sweep`).  The two are mutually exclusive.
    """

    pattern: object
    mode: QueryMode = QueryMode.LOCATE
    k: int | None = None
    z: float | None = None
    zs: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        try:
            mode = QueryMode(self.mode)
        except ValueError:
            known = ", ".join(m.value for m in QueryMode)
            raise QueryError(
                f"unknown query mode {self.mode!r}; known modes: {known}"
            ) from None
        object.__setattr__(self, "mode", mode)
        if mode is QueryMode.TOPK:
            try:
                k = None if self.k is None else int(self.k)
            except (TypeError, ValueError):
                raise QueryError(f"k must be an integer, got {self.k!r}") from None
            if k is None or k < 1:
                raise QueryError("topk queries need k >= 1")
            object.__setattr__(self, "k", k)
        elif self.k is not None:
            raise QueryError(
                f"k is only meaningful for topk queries, not {mode.value!r}"
            )
        if self.z is not None and self.zs is not None:
            raise QueryError("give either a z override or a multi-z sweep, not both")
        if self.z is not None:
            object.__setattr__(self, "z", validate_threshold(self.z))
        if self.zs is not None:
            zs = tuple(validate_threshold(value) for value in self.zs)
            if not zs:
                raise QueryError("a multi-z sweep needs at least one z value")
            object.__setattr__(self, "zs", zs)


@dataclass
class QueryResult:
    """The answer to one :class:`Query` (treat as read-only).

    ``count`` and ``exists`` are always filled for single-z results;
    ``positions`` / ``probabilities`` are filled according to the mode
    (``topk`` results are ordered most-probable-first, position-ascending on
    ties; every other mode reports positions in ascending order).  Multi-z
    sweep results have ``z is None`` and one single-z result per requested
    threshold in :attr:`sweep`.
    """

    pattern: object
    mode: QueryMode
    z: float | None
    count: int | None = None
    exists: bool = False
    positions: list[int] | None = None
    probabilities: list[float] | None = None
    sweep: tuple["QueryResult", ...] | None = None

    def as_dict(self) -> dict:
        """JSON-ready dictionary (``None`` payload fields are omitted)."""
        payload: dict = {"mode": self.mode.value}
        if isinstance(self.pattern, str):
            payload["pattern"] = self.pattern
        else:
            payload["pattern"] = [int(code) for code in self.pattern]
        if self.sweep is not None:
            payload["exists"] = self.exists
            payload["sweep"] = [result.as_dict() for result in self.sweep]
            return payload
        payload["z"] = self.z
        payload["count"] = self.count
        payload["exists"] = self.exists
        if self.positions is not None:
            payload["positions"] = self.positions
        if self.probabilities is not None:
            payload["probabilities"] = self.probabilities
        return payload


@dataclass
class ExecutionPlan:
    """A validated, deduplicated batch of queries.

    ``fan_out`` records whether the index distributes the batch hooks
    across shards.  ``assignment[i]`` maps query ``i`` to its slot
    in ``unique_codes``; ``z_values[i]`` lists the effective thresholds the
    query must be answered at; ``probability_slots`` are the unique-pattern
    slots referenced by at least one probability-reporting query (only those
    pay for exact products).
    """

    queries: list[Query]
    prepared: list[np.ndarray]
    unique_codes: list[np.ndarray]
    assignment: list[int]
    z_values: list[tuple[float, ...]]
    probability_slots: frozenset[int]
    fan_out: bool


class QueryPlanner:
    """Plans and executes query batches over one index.

    Every public query entry point of the library —
    ``UncertainStringIndex.locate/count/exists/query/query_many/match_many``
    and the serving layer's
    :class:`~repro.service.QueryService` — funnels through this class, so
    every variant (monolithic or sharded, freshly built or store-loaded)
    validates, deduplicates and answers queries identically.
    """

    def __init__(self, index) -> None:
        self._index = index
        self.last_stats: dict = {}

    @property
    def index(self):
        """The planned-over index."""
        return self._index

    # -- planning ---------------------------------------------------------------
    def plan(self, queries: Sequence) -> ExecutionPlan:
        """Validate and deduplicate ``queries``.

        Entries may be :class:`Query` objects or bare patterns (answered in
        ``locate`` mode).  Pattern validation raises the index's
        ``_prepare_pattern`` errors exactly, but costs one concatenated
        min/max reduction for the whole batch.
        """
        index = self._index
        normalized = [
            query if isinstance(query, Query) else Query(query) for query in queries
        ]
        prepared = [
            coerce_pattern_array(query.pattern, index.source, validate=False)
            for query in normalized
        ]
        self._validate_patterns(prepared)
        index_z = index.z
        z_values: list[tuple[float, ...]] = []
        for query in normalized:
            if query.zs is not None:
                values = query.zs
            elif query.z is not None:
                values = (query.z,)
            else:
                values = (index_z,)
            for value in values:
                if value > index_z:
                    raise QueryError(
                        f"query threshold z={value:g} is looser than the index's "
                        f"z={index_z:g}; occurrences with probability below "
                        f"1/{index_z:g} are not indexed"
                    )
            z_values.append(values)
        unique_codes: list[np.ndarray] = []
        assignment: list[int] = []
        slots: dict[bytes, int] = {}
        for codes in prepared:
            key = codes.tobytes()
            slot = slots.get(key)
            if slot is None:
                slot = len(unique_codes)
                slots[key] = slot
                unique_codes.append(codes)
            assignment.append(slot)
        probability_slots = frozenset(
            assignment[position]
            for position, query in enumerate(normalized)
            if query.mode in _PROBABILITY_MODES
        )
        fan_out = bool(getattr(index, "shard_indexes", None))
        return ExecutionPlan(
            queries=normalized,
            prepared=prepared,
            unique_codes=unique_codes,
            assignment=assignment,
            z_values=z_values,
            probability_slots=probability_slots,
            fan_out=fan_out,
        )

    def _validate_patterns(self, prepared: list[np.ndarray]) -> None:
        """Whole-batch validation with the canonical per-pattern errors.

        The happy path costs one concatenation and one max reduction; when
        anything is invalid, every pattern is re-validated through the
        index's ``_prepare_pattern`` so the raised
        :class:`~repro.errors.PatternError` names the first offending
        pattern.
        """
        if not prepared:
            return
        index = self._index
        maximum = index.maximum_pattern_length
        lengths = [len(codes) for codes in prepared]
        valid = min(lengths) >= max(1, index.minimum_pattern_length) and (
            maximum is None or max(lengths) <= maximum
        )
        if valid:
            flat = prepared[0] if len(prepared) == 1 else np.concatenate(prepared)
            # Read as unsigned, a negative code is huge: one maximum checks
            # both ends of the alphabet.
            valid = int(np.maximum.reduce(flat.view(np.uint64))) < index.source.sigma
        if not valid:
            for codes in prepared:  # raise the canonical per-pattern error
                index._prepare_pattern(codes)
            raise PatternError("invalid pattern batch")  # pragma: no cover

    # -- execution --------------------------------------------------------------
    def execute(self, queries: Sequence) -> list[QueryResult]:
        """Answer a batch of queries (one :class:`QueryResult` per entry)."""
        plan = self.plan(queries)
        index = self._index
        base = self._run_base(plan)
        results: list[QueryResult] = []
        subqueries = 0
        for query, codes, slot, values in zip(
            plan.queries, plan.prepared, plan.assignment, plan.z_values
        ):
            positions, probabilities = base[slot]
            per_z = [
                self._assemble(query, codes, z, positions, probabilities)
                for z in values
            ]
            subqueries += len(per_z)
            if query.zs is not None:
                results.append(
                    QueryResult(
                        pattern=query.pattern,
                        mode=query.mode,
                        z=None,
                        exists=any(result.exists for result in per_z),
                        sweep=tuple(per_z),
                    )
                )
            else:
                results.append(per_z[0])
        self.last_stats = {
            "patterns": len(plan.queries),
            "unique_patterns": len(plan.unique_codes),
            "subqueries": subqueries,
            "fan_out": plan.fan_out,
            # Which state of a mutable index answered this batch — lets the
            # serving layer correlate answers with applied update batches.
            "generation": getattr(index, "generation", 0),
        }
        return results

    def _run_base(self, plan: ExecutionPlan) -> list[tuple[np.ndarray, np.ndarray | None]]:
        """Occurrences (and probabilities, when needed) of every distinct pattern.

        All answers are computed at the *index's* threshold; per-query
        overrides filter them in :meth:`_assemble`.  Exact probability
        products are computed only for the slots a probability-reporting
        query actually references — a single ``topk`` in a large ``locate``
        batch does not tax the rest of the batch.
        """
        index = self._index
        unique = plan.unique_codes
        if not unique:
            return []
        probability_slots = plan.probability_slots
        base: list = [None] * len(unique)
        with_probs = sorted(probability_slots)
        plain = [slot for slot in range(len(unique)) if slot not in probability_slots]
        if with_probs:
            answers = index._batch_locate_probs([unique[slot] for slot in with_probs])
            for slot, (positions, probabilities) in zip(with_probs, answers):
                base[slot] = (
                    np.asarray(positions, dtype=np.int64),
                    np.asarray(probabilities, dtype=np.float64),
                )
        if plain:
            answers = index._batch_locate([unique[slot] for slot in plain])
            for slot, positions in zip(plain, answers):
                base[slot] = (np.asarray(positions, dtype=np.int64), None)
        return base

    def _assemble(
        self,
        query: Query,
        codes: np.ndarray,
        z: float,
        positions: np.ndarray,
        probabilities: np.ndarray | None,
    ) -> QueryResult:
        """Fill one single-z :class:`QueryResult` from the base answer."""
        index = self._index
        if z != index.z:
            # Filter with the same log-cache probabilities and tolerance rule
            # the brute-force oracle uses, so overridden answers equal
            # brute_force_occurrences(source, pattern, z) exactly.
            oracle = index.source.occurrence_probabilities(codes, positions)
            mask = solid_probability_mask(oracle, z)
            positions = positions[mask]
            if probabilities is not None:
                probabilities = probabilities[mask]
        count = int(len(positions))
        exists = count > 0
        mode = query.mode
        result = QueryResult(
            pattern=query.pattern, mode=mode, z=z, count=count, exists=exists
        )
        if mode is QueryMode.LOCATE:
            result.positions = positions.tolist()
        elif mode is QueryMode.LOCATE_PROBS:
            result.positions = positions.tolist()
            result.probabilities = probabilities.tolist()
        elif mode is QueryMode.TOPK:
            order = np.lexsort((positions, -probabilities))[: query.k]
            result.positions = positions[order].tolist()
            result.probabilities = probabilities[order].tolist()
        return result
