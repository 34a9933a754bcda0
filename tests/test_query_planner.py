"""The query planner/executor: modes, probabilities, thresholds, all variants.

Probability reporting is checked against a brute-force O(n·m) *product*
oracle — the direct left-to-right float64 multiplication over the raw
probability matrix — and must match to exact float64 equality on every
variant (7 monolithic kinds + the sharded index, freshly built and
store-loaded), including boundary-straddling pattern lengths on the sharded
index.
"""

from __future__ import annotations

import numpy as np
import pytest

from test_oracle_equivalence import random_source

from repro.core.estimation import build_z_estimation
from repro.datasets.patterns import sample_valid_patterns
from repro.errors import PatternError, QueryError
from repro.indexes import (
    EMPTY_PATTERN_MESSAGE,
    Query,
    QueryMode,
    QueryPlanner,
    brute_force_occurrences,
    build_index,
)
from repro.io.store import load_index, save_index

VARIANTS = ("WST", "WSA", "MWST", "MWSA", "MWST-G", "MWSA-G", "MWST-SE", "SHARDED")
Z = 4.0
ELL = 4


@pytest.fixture(scope="module")
def source():
    return random_source(44, 3, 7)


@pytest.fixture(scope="module")
def indexes(source):
    built = {}
    for kind in VARIANTS:
        if kind == "SHARDED":
            built[kind] = build_index(
                source, Z, kind="MWSA", ell=ELL, shards=3, max_pattern_len=2 * ELL
            )
        else:
            built[kind] = build_index(source, Z, kind=kind, ell=ELL)
    return built


def product_oracle(source, pattern, position) -> float:
    """The O(m) direct product of matrix entries (the reference probability)."""
    probability = 1.0
    for offset, code in enumerate(pattern):
        probability *= float(source.matrix[position + offset, code])
    return probability


def expected_probs(source, pattern):
    """Brute-force O(n·m) ``locate_probs`` oracle at the built threshold."""
    positions = brute_force_occurrences(source, pattern, Z)
    return positions, [product_oracle(source, pattern, p) for p in positions]


def expected_topk(source, pattern, k):
    positions, probabilities = expected_probs(source, pattern)
    ranked = sorted(zip(positions, probabilities), key=lambda pair: (-pair[1], pair[0]))
    return ranked[:k]


@pytest.fixture(scope="module")
def patterns(source):
    """Valid + random patterns spanning ℓ .. 2ℓ (the sharded overlap bound)."""
    estimation = build_z_estimation(source, Z)
    rng = np.random.default_rng(13)
    pool = []
    for m in (ELL, ELL + 1, 2 * ELL - 1, 2 * ELL):
        try:
            pool.extend(
                sample_valid_patterns(
                    source, Z, m=m, count=2, estimation=estimation, seed=m
                )
            )
        except Exception:
            pass  # no valid window of this length — fine
        pool.append([int(code) for code in rng.integers(0, source.sigma, size=m)])
    assert pool
    return pool


class TestQueryModel:
    def test_mode_normalization(self):
        assert Query([0], mode="locate").mode is QueryMode.LOCATE
        assert Query([0], mode=QueryMode.COUNT).mode is QueryMode.COUNT

    def test_unknown_mode_rejected(self):
        with pytest.raises(QueryError, match="unknown query mode"):
            Query([0], mode="fuzzy")

    def test_topk_requires_k(self):
        with pytest.raises(QueryError, match="k >= 1"):
            Query([0], mode="topk")
        with pytest.raises(QueryError, match="k >= 1"):
            Query([0], mode="topk", k=0)

    def test_k_rejected_outside_topk(self):
        with pytest.raises(QueryError, match="only meaningful for topk"):
            Query([0], mode="locate", k=3)

    def test_z_and_zs_mutually_exclusive(self):
        with pytest.raises(QueryError, match="not both"):
            Query([0], z=2.0, zs=(2.0, 4.0))

    def test_empty_sweep_rejected(self):
        with pytest.raises(QueryError, match="at least one z"):
            Query([0], zs=())

    def test_non_integer_k_rejected(self):
        with pytest.raises(QueryError, match="k must be an integer"):
            Query([0], mode="topk", k="x")

    def test_options_with_prebuilt_query_rejected(self, indexes):
        index = indexes["MWSA"]
        with pytest.raises(QueryError, match="prebuilt Query"):
            index.query(Query([0] * ELL), z=2.0)


class TestModesAcrossVariants:
    @pytest.mark.parametrize("kind", VARIANTS)
    def test_locate_matches_oracle(self, indexes, source, patterns, kind):
        index = indexes[kind]
        for pattern in patterns:
            assert index.locate(pattern) == brute_force_occurrences(source, pattern, Z)

    @pytest.mark.parametrize("kind", VARIANTS)
    def test_count_and_exists_modes(self, indexes, source, patterns, kind):
        index = indexes[kind]
        for pattern in patterns:
            oracle = brute_force_occurrences(source, pattern, Z)
            assert index.query(pattern, mode="count").count == len(oracle)
            assert index.query(pattern, mode="exists").exists == bool(oracle)

    @pytest.mark.parametrize("kind", VARIANTS)
    def test_locate_probs_exact_against_product_oracle(
        self, indexes, source, patterns, kind
    ):
        index = indexes[kind]
        for pattern in patterns:
            result = index.query(pattern, mode="locate_probs")
            positions, probabilities = expected_probs(source, pattern)
            assert result.positions == positions
            # exact float64 equality against the O(n·m) product oracle
            assert result.probabilities == probabilities

    @pytest.mark.parametrize("kind", VARIANTS)
    def test_topk_ranking_exact(self, indexes, source, patterns, kind):
        index = indexes[kind]
        for pattern in patterns:
            for k in (1, 2, 100):
                assert index.topk(pattern, k) == expected_topk(source, pattern, k)

    @pytest.mark.parametrize("kind", VARIANTS)
    def test_batched_rich_queries_match_scalar(self, indexes, patterns, kind):
        """A mixed batch (duplicates included) equals per-pattern queries."""
        index = indexes[kind]
        batch = [Query(p, mode="locate_probs") for p in patterns + patterns[:2]]
        batched = index.query_many(batch)
        for query, result in zip(batch, batched):
            single = index.query(Query(query.pattern, mode="locate_probs"))
            assert result.positions == single.positions
            assert result.probabilities == single.probabilities

    @pytest.mark.parametrize("kind", ("MWSA", "WST", "SHARDED"))
    def test_mixed_mode_batch(self, indexes, source, patterns, kind):
        """locate and topk queries mixed in one batch each get their answer."""
        index = indexes[kind]
        batch = [Query(p) for p in patterns]
        batch.append(Query(patterns[0], mode="topk", k=2))
        batch.append(Query(patterns[1], mode="count"))
        results = index.query_many(batch)
        for pattern, result in zip(patterns, results):
            assert result.positions == brute_force_occurrences(source, pattern, Z)
            assert result.probabilities is None
        ranked = results[len(patterns)]
        assert list(zip(ranked.positions, ranked.probabilities)) == expected_topk(
            source, patterns[0], 2
        )
        assert results[-1].count == len(
            brute_force_occurrences(source, patterns[1], Z)
        )


class TestStoreLoadedIndexes:
    @pytest.mark.parametrize("kind", ("MWSA", "WSA", "SHARDED"))
    def test_rich_modes_after_store_round_trip(
        self, tmp_path, indexes, source, patterns, kind
    ):
        index = indexes[kind]
        path = tmp_path / f"{kind}.idx"
        save_index(path, index)
        loaded = load_index(path)
        for pattern in patterns:
            assert loaded.locate_probs(pattern) == index.locate_probs(pattern)
            assert loaded.topk(pattern, 3) == index.topk(pattern, 3)
            positions, probabilities = expected_probs(source, pattern)
            assert loaded.query(pattern, mode="locate_probs").probabilities == (
                probabilities
            )


class TestThresholdOverrides:
    @pytest.mark.parametrize("kind", VARIANTS)
    def test_stricter_z_matches_oracle(self, indexes, source, patterns, kind):
        index = indexes[kind]
        for pattern in patterns:
            for z in (1.5, 2.0, Z):
                result = index.query(pattern, z=z)
                assert result.positions == brute_force_occurrences(source, pattern, z)
                assert result.z == z

    def test_looser_z_rejected(self, indexes, patterns):
        for index in indexes.values():
            with pytest.raises(QueryError, match="looser than the index's"):
                index.query(patterns[0], z=2 * Z)

    @pytest.mark.parametrize("kind", ("MWSA", "WST", "SHARDED"))
    def test_multi_z_sweep(self, indexes, source, patterns, kind):
        index = indexes[kind]
        zs = (1.5, 2.0, Z)
        for pattern in patterns[:4]:
            result = index.query(pattern, mode="locate_probs", zs=zs)
            assert result.z is None
            assert len(result.sweep) == len(zs)
            for z, sub in zip(zs, result.sweep):
                oracle = brute_force_occurrences(source, pattern, z)
                assert sub.z == z
                assert sub.positions == oracle
                assert sub.probabilities == [
                    product_oracle(source, pattern, p) for p in oracle
                ]
            assert result.exists == any(sub.exists for sub in result.sweep)

    def test_sweep_probabilities_are_filtered_not_recomputed(self, indexes, source):
        """A sweep's stricter-z probabilities are a subset of the full set."""
        index = indexes["MWSA"]
        pattern = [0] * ELL
        result = index.query(pattern, mode="locate_probs", zs=(2.0, Z))
        strict, full = result.sweep
        pairs_full = dict(zip(full.positions, full.probabilities))
        for position, probability in zip(strict.positions, strict.probabilities):
            assert pairs_full[position] == probability


class TestEmptyPatternSemantics:
    """Scalar locate, match_many and the brute-force oracle agree exactly."""

    @pytest.mark.parametrize("empty", ([], "", np.array([], dtype=np.int64)))
    def test_all_paths_raise_the_same_error(self, indexes, source, empty):
        with pytest.raises(PatternError) as oracle_error:
            brute_force_occurrences(source, empty, Z)
        assert str(oracle_error.value) == EMPTY_PATTERN_MESSAGE
        for index in indexes.values():
            with pytest.raises(PatternError) as scalar_error:
                index.locate(empty)
            assert str(scalar_error.value) == EMPTY_PATTERN_MESSAGE
            with pytest.raises(PatternError) as batch_error:
                index.match_many([[0] * ELL, empty])
            assert str(batch_error.value) == EMPTY_PATTERN_MESSAGE

    def test_query_modes_reject_empty_patterns_too(self, indexes):
        index = indexes["MWSA"]
        for mode in ("exists", "count", "locate_probs"):
            with pytest.raises(PatternError) as error:
                index.query([], mode=mode)
            assert str(error.value) == EMPTY_PATTERN_MESSAGE


class TestPlannerStrategies:
    def test_single_patterns_take_the_batch_hooks(
        self, tmp_path, monkeypatch, indexes, source, patterns
    ):
        """One-pattern queries of every mode reach the batch hooks, on every
        variant, the 3-shard index and store-loaded indexes alike."""
        under_test = dict(indexes)
        for kind in ("MWST", "SHARDED"):
            path = tmp_path / f"{kind}.idx"
            save_index(path, indexes[kind])
            under_test[f"stored {kind}"] = load_index(path)
        pattern = patterns[0]
        oracle = expected_probs(source, pattern)
        calls: list[tuple[str, int]] = []

        def spy(index, hook):
            original = getattr(index, hook)

            def recorded(code_lists):
                calls.append((hook, len(code_lists)))
                return original(code_lists)

            return recorded

        queries = (
            (lambda index: index.locate(pattern), "_batch_locate", oracle[0]),
            (lambda index: index.count(pattern), "_batch_locate", len(oracle[0])),
            (lambda index: index.exists(pattern), "_batch_locate", bool(oracle[0])),
            (
                lambda index: index.locate_probs(pattern),
                "_batch_locate_probs",
                list(zip(*oracle)),
            ),
            (
                lambda index: index.topk(pattern, 2),
                "_batch_locate_probs",
                expected_topk(source, pattern, 2),
            ),
        )
        for name, index in under_test.items():
            shards = getattr(index, "shard_indexes", None) or []
            for target in (index, *shards):
                assert not hasattr(target, "_locate_codes"), name
            for hook in ("_batch_locate", "_batch_locate_probs"):
                monkeypatch.setattr(index, hook, spy(index, hook))
            for ask, hook, expected in queries:
                calls.clear()
                assert ask(index) == expected, name
                assert calls[:1] == [(hook, 1)], (name, calls)

    def test_sharded_fan_out_recorded(self, indexes, patterns):
        planner = QueryPlanner(indexes["SHARDED"])
        planner.execute(patterns[:2])
        assert planner.last_stats["fan_out"] is True

    def test_duplicate_patterns_answered_once(self, indexes, patterns):
        planner = QueryPlanner(indexes["MWSA"])
        pattern = patterns[0]
        results = planner.execute([pattern, pattern, Query(pattern, mode="count")])
        assert planner.last_stats["unique_patterns"] == 1
        assert results[0].positions == results[1].positions
        assert results[2].count == len(results[0].positions)

    def test_engine_compat_wrapper(self, indexes, patterns):
        planner = QueryPlanner(indexes["MWSA"])
        results = planner.execute([patterns[0], patterns[0]])
        assert planner.last_stats == {
            "patterns": 2,
            "unique_patterns": 1,
            "subqueries": 2,
            "fan_out": False,
            "generation": 0,
        }
        assert results[0].positions == indexes["MWSA"].match_many([patterns[0]])[0]
        assert results[0].positions == indexes["MWSA"].locate(patterns[0])

    def test_sweep_counts_subqueries(self, indexes, patterns):
        planner = QueryPlanner(indexes["MWSA"])
        planner.execute([Query(patterns[0], zs=(2.0, 3.0, Z))])
        assert planner.last_stats["subqueries"] == 3
