"""Tests for repro.core.heavy (heavy strings, Lemma 3, prefix products)."""

import math

import pytest

from repro.core.heavy import HeavyString, apply_mismatches, max_mismatches
from repro.core.solid import iter_solid_factors


class TestHeavyString:
    def test_paper_example5_heavy_string(self, paper_example):
        # The paper breaks ties differently (ABAAAB); our deterministic
        # tie-break towards the smallest code yields AAAAB with A at ties.
        heavy = HeavyString(paper_example)
        assert heavy.text() == "AAAAAB"

    def test_codes_and_letters(self, paper_example):
        heavy = HeavyString(paper_example)
        assert heavy.code(5) == 1
        assert heavy.letter(5) == "B"
        assert len(heavy) == 6

    def test_probabilities(self, paper_example):
        heavy = HeavyString(paper_example)
        assert heavy.probabilities[2] == pytest.approx(0.75)

    def test_range_product_matches_direct_product(self, paper_example):
        heavy = HeavyString(paper_example)
        direct = 0.5 * 0.75 * 0.8
        assert heavy.range_product(1, 4) == pytest.approx(direct)
        assert heavy.log_range_product(1, 4) == pytest.approx(math.log(direct))

    def test_empty_range_product_is_one(self, paper_example):
        heavy = HeavyString(paper_example)
        assert heavy.range_product(3, 3) == pytest.approx(1.0)

    def test_factor_codes_applies_mismatches(self, paper_example):
        heavy = HeavyString(paper_example)
        codes = heavy.factor_codes(0, 4, [(1, 1)])
        assert codes == [0, 1, 0, 0]

    def test_apply_mismatches_helper(self, paper_example):
        heavy = HeavyString(paper_example)
        assert apply_mismatches(heavy, 2, 5, [(3, 1)]) == [0, 1, 0]

    def test_mismatches_outside_range_ignored(self, paper_example):
        heavy = HeavyString(paper_example)
        assert heavy.factor_codes(0, 2, [(5, 1)]) == [0, 0]


class TestLemma3:
    @pytest.mark.parametrize("z,expected", [(1, 0), (2, 1), (4, 2), (8, 3), (1024, 10)])
    def test_max_mismatches(self, z, expected):
        assert max_mismatches(z) == expected

    def test_lemma3_holds_for_all_solid_factors(self, paper_example):
        heavy = HeavyString(paper_example)
        for factor in iter_solid_factors(paper_example, 4):
            assert heavy.verify_lemma3(
                paper_example, list(factor.codes), factor.start, 4
            )

    def test_lemma3_holds_on_random_strings(self, random_weighted_string_factory):
        ws = random_weighted_string_factory(12, sigma=3, uncertain_fraction=0.8, seed=5)
        heavy = HeavyString(ws)
        for factor in iter_solid_factors(ws, 8):
            assert heavy.verify_lemma3(ws, list(factor.codes), factor.start, 8)
