"""Tests for repro.indexes.se_construction (Section 4, MWST-SE)."""

import random

import numpy as np
import pytest

from repro.core.heavy import max_mismatches
from repro.datasets.registry import load_dataset
from repro.datasets.synthetic import sparse_uncertainty_string
from repro.errors import ConstructionError
from repro.indexes import brute_force_occurrences, build_index_data_from_estimation
from repro.indexes.se_construction import (
    SpaceEfficientMWST,
    build_index_data_space_efficient,
)
from repro.sampling.minimizers import MinimizerScheme


class TestSpaceEfficientData:
    def test_counters_and_no_pairs(self, small_genomic_string):
        data, counters = build_index_data_space_efficient(small_genomic_string, 8, 16)
        assert data.pairs is None
        assert data.construction == "space_efficient"
        assert counters["forward_leaves"] == len(data.forward)
        assert counters["forward_nodes"] > 0

    def test_leaves_respect_lemma3_on_solid_part(self, paper_example):
        data, _ = build_index_data_space_efficient(paper_example, 4, 3)
        bound = max_mismatches(4)
        for collection in (data.forward, data.backward):
            for leaf in collection:
                assert leaf.mismatch_count() <= bound

    def test_anchor_positions_are_consistent(self, paper_example):
        data, _ = build_index_data_space_efficient(paper_example, 4, 3)
        n = len(paper_example)
        for leaf in data.forward:
            assert leaf.anchor == leaf.position
            assert leaf.length == n - leaf.position
        for leaf in data.backward:
            assert leaf.anchor == n - 1 - leaf.position
            assert leaf.length == leaf.position + 1

    def test_minimizer_positions_match_explicit_construction(self, paper_example):
        scheme = MinimizerScheme(3, 2, k=2, order="lexicographic")
        explicit = build_index_data_from_estimation(paper_example, 4, 3, scheme=scheme)
        space_efficient, _ = build_index_data_space_efficient(
            paper_example, 4, 3, scheme=scheme
        )
        explicit_positions = {leaf.position for leaf in explicit.forward}
        se_positions = {leaf.position for leaf in space_efficient.forward}
        assert explicit_positions == se_positions

    @pytest.mark.parametrize(
        ("dataset", "z", "ell"),
        [("EFM", 16, 16), ("EFM", 32, 8), ("sparse", 8, 16)],
    )
    def test_minimizer_positions_match_explicit_default_scheme(self, dataset, z, ell):
        # The default random-order scheme (real k, mix64 order) on inputs
        # where the traversal branches: every solid window's minimizer must
        # be sampled by both constructions, in both orientations.
        if dataset == "EFM":
            source = load_dataset("EFM", 1_500)
        else:
            source = sparse_uncertainty_string(2_000, 4, delta=0.1, seed=17)
        explicit = build_index_data_from_estimation(source, z, ell)
        space_efficient, _ = build_index_data_space_efficient(source, z, ell)
        for orientation in ("forward", "backward"):
            expected = np.unique(getattr(explicit, orientation).positions)
            actual = np.unique(getattr(space_efficient, orientation).positions)
            assert len(expected) > 0
            np.testing.assert_array_equal(actual, expected)

    def test_invalid_ell_rejected(self, paper_example):
        with pytest.raises(ConstructionError):
            build_index_data_space_efficient(paper_example, 4, 0)

    def test_node_budget_guard(self, small_genomic_string):
        with pytest.raises(ConstructionError):
            build_index_data_space_efficient(small_genomic_string, 8, 8, max_nodes=3)

    def test_node_budget_is_checked_up_front_and_otherwise_inert(self, small_genomic_string):
        source = small_genomic_string
        unlimited, unlimited_counters = build_index_data_space_efficient(source, 8, 8)
        budgeted, budgeted_counters = build_index_data_space_efficient(
            source, 8, 8, max_nodes=10**9
        )
        assert budgeted_counters == unlimited_counters
        for orientation in ("forward", "backward"):
            expected = getattr(unlimited, orientation).arrays
            actual = getattr(budgeted, orientation).arrays
            for field in expected.__slots__:
                np.testing.assert_array_equal(
                    getattr(actual, field), getattr(expected, field)
                )
        # The heavy spine alone needs len(source) nodes.
        with pytest.raises(ConstructionError):
            build_index_data_space_efficient(source, 8, 8, max_nodes=len(source) - 1)
        # The budget holds per pass: the larger pass's node count is enough.
        needed = max(unlimited_counters["forward_nodes"], unlimited_counters["backward_nodes"])
        assert needed > len(source)
        build_index_data_space_efficient(source, 8, 8, max_nodes=needed)
        with pytest.raises(ConstructionError):
            build_index_data_space_efficient(source, 8, 8, max_nodes=needed - 1)

    def test_string_shorter_than_ell_yields_no_leaves(self, paper_example):
        data, _ = build_index_data_space_efficient(paper_example, 4, 10)
        assert len(data.forward) == 0 and len(data.backward) == 0


class TestSpaceEfficientIndex:
    def test_queries_match_oracle(self, random_weighted_string_factory):
        rng = random.Random(5)
        ws = random_weighted_string_factory(28, sigma=3, uncertain_fraction=0.7, seed=9)
        z, ell = 8, 4
        index = SpaceEfficientMWST.build(ws, z, ell)
        for _ in range(40):
            m = rng.randint(ell, 8)
            start = rng.randrange(len(ws) - m + 1)
            pattern = [
                int(ws.matrix[start + offset].argmax())
                if rng.random() < 0.8
                else rng.randrange(ws.sigma)
                for offset in range(m)
            ]
            assert index.locate(pattern) == brute_force_occurrences(ws, pattern, z)

    def test_stats_record_dfs_counters(self, small_genomic_string):
        index = SpaceEfficientMWST.build(small_genomic_string, 8, 16)
        assert index.stats.counters["forward_nodes"] > 0
        assert index.stats.counters["backward_nodes"] > 0
        assert index.stats.index_size_bytes > 0

    def test_construction_space_grows_slowly_with_z(self, small_genomic_string):
        low = SpaceEfficientMWST.build(small_genomic_string, 4, 16)
        high = SpaceEfficientMWST.build(small_genomic_string, 32, 16)
        # The z-estimation is never materialised, so the footprint is far from
        # proportional to z (it only grows through the sampled leaves).
        assert (
            high.stats.construction_space_bytes
            < 4 * low.stats.construction_space_bytes
        )
