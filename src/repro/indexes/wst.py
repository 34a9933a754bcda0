"""WST — the weighted suffix tree baseline (state of the art, tree flavour).

The weighted suffix tree is the compacted trie of the property suffixes of
the z-estimation; it supports O(m + |Occ|) queries but occupies Θ(nz) tree
nodes, which is what makes it impractical for large inputs (the paper's
motivating observation).  Our implementation materialises the explicit node
structure on top of the generalised suffix array so that its size behaves
like a pointer-based suffix tree.
"""

from __future__ import annotations

import time

import numpy as np

from ..core.estimation import ZEstimation, build_z_estimation
from ..core.weighted_string import WeightedString
from ..strings.trie import CompactedTrie
from .base import UncertainStringIndex
from .property_structures import PropertySuffixStructure
from .space import DEFAULT_SPACE_MODEL, ConstructionTracker, IndexStats, SpaceModel

__all__ = ["WeightedSuffixTree"]


class _SuffixLetterAccessor:
    """Letter accessor over the concatenated suffix text.

    A named class (rather than a closure) so built trees can cross process
    boundaries — the sharded builder ships finished indexes back from its
    worker processes by pickling them.
    """

    __slots__ = ("text", "sa")

    def __init__(self, text, sa) -> None:
        self.text = text
        self.sa = sa

    def __call__(self, key: int, depth: int) -> int:
        return int(self.text[self.sa[key] + depth])

    def bulk(self, keys: np.ndarray, depths: np.ndarray) -> np.ndarray:
        """Vectorised twin over parallel key/depth arrays."""
        keys = np.asarray(keys, dtype=np.int64)
        depths = np.asarray(depths, dtype=np.int64)
        return np.asarray(self.text, dtype=np.int64)[np.asarray(self.sa)[keys] + depths]


class WeightedSuffixTree(UncertainStringIndex):
    """The WST baseline: property suffix tree over the z-estimation."""

    name = "WST"

    def __init__(
        self,
        source: WeightedString,
        z: float,
        structure: PropertySuffixStructure,
        trie: CompactedTrie,
        stats: IndexStats,
    ) -> None:
        super().__init__(source, z)
        self._structure = structure
        self._trie = trie
        self._stats = stats

    # -- construction ---------------------------------------------------------------
    @classmethod
    def build(
        cls,
        source: WeightedString,
        z: float,
        *,
        estimation: ZEstimation | None = None,
        space_model: SpaceModel = DEFAULT_SPACE_MODEL,
    ) -> "WeightedSuffixTree":
        """Build the WST for ``source`` and threshold ``1/z``."""
        started = time.perf_counter()
        tracker = ConstructionTracker()
        # The input probability matrix is resident during every construction.
        tracker.allocate(space_model.probabilities(len(source) * source.sigma))
        if estimation is None:
            estimation = build_z_estimation(source, z)
        estimation_cost = space_model.codes(
            estimation.width * estimation.length
        ) + space_model.words(estimation.width * estimation.length)
        tracker.allocate(estimation_cost)
        structure = PropertySuffixStructure(estimation, with_lcp=True)
        entries = structure.entry_count
        tracker.allocate(space_model.codes(entries) + space_model.words(4 * entries))
        text = structure.text
        sa = structure.sa
        lengths = len(text) - sa
        accessor = _SuffixLetterAccessor(text, sa)
        trie = CompactedTrie(lengths, structure.lcp, accessor, bulk_letter=accessor.bulk)
        tracker.allocate(space_model.tree_nodes(trie.node_count))
        stats = IndexStats(
            name=cls.name,
            index_size_bytes=cls._index_size(structure, trie, space_model),
            construction_space_bytes=tracker.peak_bytes,
            construction_seconds=time.perf_counter() - started,
            counters={
                "entries": entries,
                "nodes": trie.node_count,
            },
        )
        return cls(source, z, structure, trie, stats)

    @staticmethod
    def _index_size(
        structure: PropertySuffixStructure, trie: CompactedTrie, model: SpaceModel
    ) -> int:
        entries = structure.entry_count
        # Explicit tree nodes with edge pointers, plus per-leaf position and
        # valid length, plus the report structure.
        return (
            model.tree_nodes(trie.node_count)
            + model.words(3 * entries)
            + model.codes(entries)
        )

    # -- queries -------------------------------------------------------------------------
    def _batch_locate(self, code_lists: list) -> list[list[int]]:
        """One trie walk plus the output-sensitive report per pattern."""
        answers = []
        for codes in code_lists:
            lo, hi = self._trie.descend([int(code) + 1 for code in codes])
            reported = np.asarray(
                self._structure.report_valid(lo, hi, len(codes)), dtype=np.int64
            )
            answers.append([int(position) for position in np.unique(reported)])
        return answers

    @property
    def node_count(self) -> int:
        """Number of explicit suffix-tree nodes."""
        return self._trie.node_count

    @property
    def structure(self) -> PropertySuffixStructure:
        """The underlying property suffix structure (for inspection/storage)."""
        return self._structure
