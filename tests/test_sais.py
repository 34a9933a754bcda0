"""Suffix-array differential tests: prefix doubling vs the naive suffix sort.

The file and class names date from a second, SA-IS construction that was
compared against prefix doubling; the same input families (every alphabet
width, sparse huge codes, periodic texts) now pin the one construction,
vectorised prefix doubling, against sorting the suffixes directly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.strings.suffix_array import suffix_array


def naive_suffix_array(text) -> list[int]:
    return sorted(range(len(text)), key=lambda start: tuple(text[start:]))


def assert_matches_naive(text) -> None:
    codes = np.asarray(text, dtype=np.int64)
    np.testing.assert_array_equal(
        suffix_array(codes), np.asarray(naive_suffix_array(list(codes)), dtype=np.int64)
    )


class TestSaisMatchesPrefixDoubling:
    @pytest.mark.parametrize("sigma", [1, 2, 4, 26, 255, 1000])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_texts(self, sigma, seed):
        rng = np.random.default_rng(1000 * sigma + seed)
        for length in (1, 2, 3, 7, 50, 300):
            assert_matches_naive(rng.integers(0, sigma, size=length))

    def test_edge_cases(self):
        for text in ([], [5], [0, 0, 0, 0], [3, 2, 1, 0], [0, 1, 2, 3], [7] * 40):
            assert_matches_naive(text)

    def test_large_sparse_codes(self):
        # Rank compression must handle huge, sparse letter codes.
        rng = np.random.default_rng(9)
        assert_matches_naive(rng.integers(0, 10**9, size=200))

    @pytest.mark.parametrize("seed", range(6))
    def test_against_naive(self, seed):
        rng = np.random.default_rng(seed)
        text = rng.integers(0, 3, size=int(rng.integers(1, 60))).astype(np.int64)
        np.testing.assert_array_equal(suffix_array(text), naive_suffix_array(list(text)))

    def test_repeats_stress_lms_naming(self):
        # Highly periodic strings need the most doubling rounds.
        for period in ([0, 1], [0, 0, 1], [1, 0, 0, 1], [2, 1, 0]):
            assert_matches_naive(period * 40)
