"""CSR compacted-trie parity: array construction vs the object-trie oracle.

The CSR trie must be *bit-identical* to the per-node object builder in
``construction_oracles`` — same node set in the same pre-order, same child
order, same terminal sets, same ``descend`` / ``matching_keys`` answers —
for every index variant and across store round-trips.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from construction_oracles import (
    assert_same_tree,
    assert_trie_matches_object_builder,
    object_descend,
    object_trie,
    preorder,
)

from repro.strings.trie import CompactedTrie


def random_keys(rng: random.Random, count: int, sigma: int, max_len: int):
    """Sorted, deduplicated random keys plus their adjacent LCP array."""
    keys = sorted(
        {
            tuple(rng.randrange(sigma) for _ in range(rng.randint(1, max_len)))
            for _ in range(count)
        }
    )
    lcps = [0] * len(keys)
    for index in range(1, len(keys)):
        previous, current = keys[index - 1], keys[index]
        common = 0
        while (
            common < len(previous)
            and common < len(current)
            and previous[common] == current[common]
        ):
            common += 1
        lcps[index] = common
    return keys, lcps


class ObjectTrie:
    """The oracle trie with the query surface the tests compare."""

    def __init__(self, lengths, lcps, letter) -> None:
        self.root, self.node_count = object_trie(lengths, lcps, letter)
        self.key_count = len(lengths)
        self._letter = letter

    def iter_nodes(self):
        return preorder(self.root)

    def descend(self, pattern):
        return object_descend(self.root, pattern, self._letter)

    def matching_keys(self, pattern):
        return list(range(*self.descend(pattern)))


def build_pair(keys, lcps):
    lengths = np.array([len(key) for key in keys], dtype=np.int64)
    lcp_array = np.array(lcps, dtype=np.int64)

    def letter(index: int, offset: int) -> int:
        return keys[index][offset]

    def bulk_letter(rows: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        return np.array(
            [keys[int(row)][int(offset)] for row, offset in zip(rows, offsets)],
            dtype=np.int64,
        )

    csr = CompactedTrie(lengths, lcp_array, letter, bulk_letter=bulk_letter)
    return csr, ObjectTrie(lengths, lcp_array, letter)


class TestStructuralParity:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_key_sets(self, seed):
        rng = random.Random(seed)
        keys, lcps = random_keys(rng, rng.randint(1, 60), rng.choice([2, 4, 26]), 12)
        csr, obj = build_pair(keys, lcps)
        assert csr.node_count == obj.node_count
        assert csr.key_count == obj.key_count
        assert_same_tree(csr.root, obj.root)

    def test_empty_and_single(self):
        csr, obj = build_pair([], [])
        assert csr.node_count == obj.node_count == 1
        csr, obj = build_pair([(0, 1, 0)], [0])
        assert_same_tree(csr.root, obj.root)

    def test_iter_nodes_preorder_matches(self):
        rng = random.Random(99)
        keys, lcps = random_keys(rng, 40, 3, 10)
        csr, obj = build_pair(keys, lcps)
        csr_nodes = [(n.depth, n.lo, n.hi) for n in csr.iter_nodes()]
        obj_nodes = [(n.depth, n.lo, n.hi) for n in obj.iter_nodes()]
        assert csr_nodes == obj_nodes


class TestQueryParity:
    @pytest.mark.parametrize("seed", range(8))
    def test_descend_and_matching_keys(self, seed):
        rng = random.Random(1000 + seed)
        sigma = rng.choice([2, 4])
        keys, lcps = random_keys(rng, rng.randint(1, 50), sigma, 10)
        csr, obj = build_pair(keys, lcps)
        patterns = [[]]
        for key in keys[:: max(1, len(keys) // 10)]:
            for cut in (1, len(key) // 2, len(key)):
                patterns.append(list(key[:cut]))
        patterns += [
            [rng.randrange(sigma) for _ in range(rng.randint(1, 12))] for _ in range(30)
        ]
        for pattern in patterns:
            assert csr.descend(pattern) == obj.descend(pattern), pattern
            assert list(csr.matching_keys(pattern)) == list(obj.matching_keys(pattern))

    def test_descend_after_view_materialisation(self):
        # Materialising the .root view must not change descend's answers.
        rng = random.Random(5)
        keys, lcps = random_keys(rng, 30, 2, 8)
        csr_a, _ = build_pair(keys, lcps)
        csr_b, _ = build_pair(keys, lcps)
        csr_b.root  # materialise the view on one copy only
        for key in keys:
            for cut in (1, len(key)):
                assert csr_a.descend(key[:cut]) == csr_b.descend(key[:cut])


class TestArrayRoundTrip:
    def test_to_from_arrays(self):
        rng = random.Random(7)
        keys, lcps = random_keys(rng, 45, 4, 9)
        csr, _ = build_pair(keys, lcps)
        arrays = csr.to_arrays()
        lengths = np.array([len(key) for key in keys], dtype=np.int64)
        clone = CompactedTrie.from_arrays(
            arrays, lengths, lambda index, offset: keys[index][offset]
        )
        assert clone.node_count == csr.node_count
        assert_same_tree(clone.root, csr.root)


def _variant_tries(index):
    if index.name == "WST":
        return [index._trie]
    return [index.data.forward.build_trie(), index.data.backward.build_trie()]


class TestIndexVariantsUnderObjectTrie:
    """Every trie-using variant's tries equal the object builder's."""

    @pytest.mark.parametrize("kind", ["WST", "MWST", "MWST-G", "MWST-SE"])
    def test_variant_parity(self, kind):
        from repro.core.alphabet import Alphabet
        from repro.core.weighted_string import WeightedString
        from repro.indexes.registry import build_index

        rng = np.random.default_rng(21)
        base = rng.integers(0, 4, size=300)
        matrix = np.full((300, 4), 0.03)
        matrix[np.arange(300), base] = 0.91
        source = WeightedString(matrix, Alphabet("ACGT"))
        ell = None if kind == "WST" else 6
        index = build_index(source, 4.0, kind=kind, ell=ell)
        for trie in _variant_tries(index):
            assert_trie_matches_object_builder(trie)

    def test_store_round_trip_under_both_builders(self, tmp_path):
        from repro.core.alphabet import Alphabet
        from repro.core.weighted_string import WeightedString
        from repro.indexes.registry import build_index
        from repro.io.store import load_index, save_index

        rng = np.random.default_rng(3)
        base = rng.integers(0, 4, size=250)
        matrix = np.full((250, 4), 0.02)
        matrix[np.arange(250), base] = 0.94
        source = WeightedString(matrix, Alphabet("ACGT"))
        patterns = [[int(c) for c in base[start : start + 7]] for start in range(0, 200, 13)]
        for kind, ell in (("MWST", 6), ("WST", None)):
            fresh = build_index(source, 4.0, kind=kind, ell=ell)
            path = tmp_path / f"{kind}.idx"
            save_index(path, fresh)
            loaded = load_index(path)
            # Reloaded tries come from the stored arrays, not a rebuild, and
            # still equal the object builder's.
            for trie in _variant_tries(loaded):
                assert_trie_matches_object_builder(trie)
            for pattern in patterns:
                assert loaded.locate(pattern) == fresh.locate(pattern)
