"""Test-only reference constructions the production pipeline is compared to.

Each oracle is the straightforward, one-item-at-a-time form of a
construction stage whose production version is vectorised:

* :func:`reference_z_estimation` — the per-position z-estimation scan
  (every position, certain or not, goes through the builder one by one);
* :func:`reference_leaves` — the per-leaf Lemma 5 derivation, one
  :class:`FactorLeaf` pair per sampled ``(q, j)``;
* :func:`reference_sort_order` / :func:`reference_adjacent_lcps` — a plain
  comparison sort and per-pair LCP walk with the exact heavy-LCE comparator;
* :func:`reference_index_data` — the three above assembled into
  :class:`MinimizerIndexData`;
* :func:`object_trie` / :func:`object_descend` — the per-node compacted-trie
  builder and its walk, against which the CSR trie arrays are checked.

The parity tests (``test_construction_parity.py``, ``test_trie_csr.py``,
``test_minimizer_core.py``) build through both and demand identical
output; nothing in ``src/`` imports this module.
"""

from __future__ import annotations

from functools import cmp_to_key

import numpy as np

from repro.core.estimation import ZEstimation, _EstimationBuilder
from repro.core.heavy import HeavyString
from repro.errors import ConstructionError
from repro.indexes.minimizer_core import (
    FactorLeaf,
    LeafCollection,
    MinimizerIndexData,
    _iter_sampled_strings,
)
from repro.sampling.minimizers import MinimizerScheme
from repro.strings.trie import TrieNode


# --------------------------------------------------------------------------- #
# z-estimation                                                                 #
# --------------------------------------------------------------------------- #
class _PerPositionBuilder(_EstimationBuilder):
    """The estimation builder driven one position at a time."""

    def build(self) -> ZEstimation:
        if self.width == 0:
            raise ConstructionError("z must be at least 1 to build a z-estimation")
        every = self.checkpoint_every
        for position in range(self.length):
            if every and position and position % every == 0:
                self.checkpoints.append(self._snapshot(position))
            row = np.asarray(self.source.distribution(position), dtype=np.float64)
            total = row.sum()
            if total <= 0.0:
                raise ConstructionError(f"position {position} has zero total probability")
            row = row / total
            positive = np.nonzero(row > 0.0)[0]
            if len(positive) == 1:
                # Every token keeps its groups and takes the certain letter.
                self.strings[:, position] = int(positive[0])
                lo, _, weight = self.root.segments[0]
                self.root.segments[0] = (lo, position + 1, weight)
            else:
                self._uncertain_step(position, row)
        for token in range(self.width):
            start = int(self.alive_from[token])
            if start < self.length:
                self.ends[token, start:] = self.length - 1
        return ZEstimation(
            self.strings, self.ends, self.z, self.source.alphabet, self.checkpoints
        )


def reference_z_estimation(source, z: float, *, checkpoint_every=None) -> ZEstimation:
    """The z-estimation built by a per-position scan."""
    return _PerPositionBuilder(source, z, checkpoint_every).build()


# --------------------------------------------------------------------------- #
# leaves                                                                       #
# --------------------------------------------------------------------------- #
def derive_leaf_pair(n, string_j, ends_j, mismatch_positions, q: int, j: int):
    """The forward/backward leaf pair of minimizer position ``q`` in ``S_j``."""
    forward_end = int(ends_j[q])
    lo = int(np.searchsorted(mismatch_positions, q, side="left"))
    hi = int(np.searchsorted(mismatch_positions, forward_end, side="right"))
    forward = FactorLeaf(
        anchor=q,
        length=forward_end - q + 1,
        mismatches=tuple((int(p - q), int(string_j[p])) for p in mismatch_positions[lo:hi]),
        position=q,
        source=j,
    )
    backward_start = int(np.searchsorted(ends_j, q, side="left"))
    lo = int(np.searchsorted(mismatch_positions, backward_start, side="left"))
    hi = int(np.searchsorted(mismatch_positions, q, side="right"))
    backward = FactorLeaf(
        anchor=n - 1 - q,
        length=q - backward_start + 1,
        mismatches=tuple(
            sorted((int(q - p), int(string_j[p])) for p in mismatch_positions[lo:hi])
        ),
        position=q,
        source=j,
    )
    return forward, backward


def reference_leaves(source, ell: int, scheme, estimation, heavy):
    """Per-leaf Lemma 5 sampling: raw forward/backward leaf lists and pairs."""
    n = len(source)
    forward: list[FactorLeaf] = []
    backward: list[FactorLeaf] = []
    for j, string_j, ends_j, qs in _iter_sampled_strings(source, ell, scheme, estimation):
        mismatch_positions = np.nonzero(string_j != heavy.codes)[0]
        for q in qs:
            forward_leaf, backward_leaf = derive_leaf_pair(
                n, string_j, ends_j, mismatch_positions, int(q), j
            )
            forward.append(forward_leaf)
            backward.append(backward_leaf)
    pairs = list(zip(range(len(forward)), range(len(backward))))
    return forward, backward, pairs


def reference_sort_order(collection: LeafCollection) -> np.ndarray:
    """Sorted order of the collection's rows by the exact comparator."""
    order = sorted(range(len(collection)), key=cmp_to_key(collection._compare))
    return np.asarray(order, dtype=np.int64)


def reference_adjacent_lcps(collection: LeafCollection) -> np.ndarray:
    """LCP of each consecutive leaf pair, walked pair by pair."""
    lcps = np.zeros(len(collection), dtype=np.int64)
    for index in range(1, len(collection)):
        lcps[index] = collection._leaf_lcp(index - 1, index)
    return lcps


def reference_collection(leaves, reference) -> LeafCollection:
    """A leaf collection sorted, LCP-annotated and mapped by the oracles."""
    raw = LeafCollection(leaves, reference, presorted=True)
    order = reference_sort_order(raw)
    collection = LeafCollection(raw.arrays.take(order), reference, presorted=True)
    collection._cached_lcps = reference_adjacent_lcps(collection)
    collection.raw_to_sorted = np.empty(len(order), dtype=np.int64)
    collection.raw_to_sorted[order] = np.arange(len(order), dtype=np.int64)
    return collection


def reference_index_data(
    source, z: float, ell: int, *, scheme=None, estimation=None
) -> MinimizerIndexData:
    """Minimizer index data built entirely through the oracles."""
    if scheme is None:
        scheme = MinimizerScheme(ell, source.sigma)
    if estimation is None:
        estimation = reference_z_estimation(source, z)
    heavy = HeavyString(source)
    raw_forward, raw_backward, _ = reference_leaves(source, ell, scheme, estimation, heavy)
    forward = reference_collection(raw_forward, heavy.codes)
    backward = reference_collection(raw_backward, heavy.codes[::-1].copy())
    pairs = np.column_stack((forward.raw_to_sorted, backward.raw_to_sorted))
    return MinimizerIndexData(
        source=source,
        z=z,
        ell=ell,
        scheme=scheme,
        heavy=heavy,
        forward=forward,
        backward=backward,
        pairs=pairs,
        construction="estimation",
        counters={
            "forward_leaves": len(forward),
            "backward_leaves": len(backward),
            "estimation_entries": estimation.width * estimation.length,
        },
        estimation=estimation,
    )


# --------------------------------------------------------------------------- #
# compacted trie                                                               #
# --------------------------------------------------------------------------- #
def object_trie(lengths, lcps, letter) -> tuple[TrieNode, int]:
    """Per-node compacted trie over sorted keys: ``(root, node count)``."""
    lengths = [int(value) for value in lengths]
    lcp_list = [int(value) for value in lcps]
    root = TrieNode(0, 0, 0 if lengths else -1)
    node_count = 1
    stack: list[TrieNode] = [root]
    for index, length in enumerate(lengths):
        depth = 0 if index == 0 else min(lcp_list[index], length)
        last_popped: TrieNode | None = None
        while stack[-1].depth > depth:
            last_popped = stack.pop()
        attach = stack[-1]
        if attach.depth < depth:
            # Split the edge entering `last_popped` at string depth `depth`.
            middle = TrieNode(depth, attach.depth, last_popped.edge_key)
            attach.children[letter(last_popped.edge_key, attach.depth)] = middle
            middle.children[letter(last_popped.edge_key, depth)] = last_popped
            last_popped.parent_depth = depth
            attach = middle
            stack.append(middle)
            node_count += 1
        if length > attach.depth:
            leaf = TrieNode(length, attach.depth, index)
            leaf.terminal.append(index)
            attach.children[letter(index, attach.depth)] = leaf
            stack.append(leaf)
            node_count += 1
        else:
            attach.terminal.append(index)
    # Post-order pass computing each node's key-index range.
    order: list[TrieNode] = []
    walk = [root]
    while walk:
        node = walk.pop()
        order.append(node)
        walk.extend(node.children.values())
    for node in reversed(order):
        lo, hi = len(lengths), -1
        for key in node.terminal:
            lo = min(lo, key)
            hi = max(hi, key + 1)
        for child in node.children.values():
            if child.lo >= 0:
                lo = min(lo, child.lo)
                hi = max(hi, child.hi)
        node.lo, node.hi = (lo, hi) if hi >= 0 else (0, 0)
    return root, node_count


def object_descend(root: TrieNode, pattern, letter) -> tuple[int, int]:
    """Key range below the node ``pattern`` leads to, walking node objects."""
    node = root
    depth = 0
    m = len(pattern)
    while depth < m:
        child = node.children.get(int(pattern[depth]))
        if child is None:
            return 0, 0
        offset = depth + 1
        while offset < min(m, child.depth):
            if letter(child.edge_key, offset) != int(pattern[offset]):
                return 0, 0
            offset += 1
        node = child
        depth = child.depth
    return node.lo, node.hi


def preorder(root: TrieNode):
    """Every node of an object trie, in the order ``iter_nodes`` yields."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children.values())


def assert_same_tree(a: TrieNode, b: TrieNode) -> None:
    """Structural equality: depths, ranges, terminals, child letters and order."""
    assert a.depth == b.depth
    assert a.parent_depth == b.parent_depth
    assert a.edge_length == b.edge_length
    assert (a.lo, a.hi) == (b.lo, b.hi)
    assert a.terminal == b.terminal
    assert a.is_leaf() == b.is_leaf()
    assert list(a.children) == list(b.children)  # same child letters, same order
    for letter in a.children:
        assert_same_tree(a.children[letter], b.children[letter])


def assert_trie_matches_object_builder(trie) -> None:
    """A built :class:`CompactedTrie` equals the object builder on its keys."""
    lengths = [trie.key_length(index) for index in range(trie.key_count)]
    lcps = [0] * len(lengths)
    for index in range(1, len(lengths)):
        common = 0
        limit = min(lengths[index - 1], lengths[index])
        while common < limit and trie._letter(index - 1, common) == trie._letter(index, common):
            common += 1
        lcps[index] = common
    root, node_count = object_trie(lengths, lcps, trie._letter)
    assert trie.node_count == node_count
    assert_same_tree(trie.root, root)
