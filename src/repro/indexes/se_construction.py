"""MWST-SE: the space-efficient construction (Section 4, Algorithms 1–4).

The explicit construction of the minimizer indexes first materialises the
z-estimation, which costs Θ(nz) working space even though the final index is
only ``O(n + (nz/ℓ)·log z)``.  The space-efficient construction avoids this
by a depth-first traversal of the *extended solid factor trees*: solid
factors are grown one letter at a time away from the heavy string, the
probability of the grown part is maintained incrementally, a sliding
structure over the last ℓ positions of the current root-to-node path detects
the minimizers of solid length-ℓ windows, and a leaf (anchor position +
mismatch list, the Corollary-4 encoding) is emitted whenever the traversal
backtracks through a pending minimizer position.  At any moment only the
current path, O(n) bookkeeping arrays and the already-emitted output are
alive, so the peak working space is ``O(n + output)``.

Two passes are run: one on the weighted string itself (producing the
``Tsuff`` leaves) and one on its reverse (producing the ``Tpref`` leaves);
both use the *same* minimizer function on the forward reading of every
window, so the sampled positions coincide with the explicit construction's.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..core.heavy import HeavyString
from ..core.numerics import is_solid_probability, validate_threshold
from ..core.weighted_string import WeightedString
from ..errors import ConstructionError
from ..sampling.minimizers import MinimizerScheme
from .minimizer_core import FactorLeaf, LeafCollection, MinimizerIndexData
from .mwst import MinimizerIndexBase
from .space import DEFAULT_SPACE_MODEL, ConstructionTracker, IndexStats, SpaceModel

__all__ = ["SpaceEfficientMWST", "build_index_data_space_efficient", "DFSStatistics"]


@dataclass
class DFSStatistics:
    """Counters of one extended-solid-factor-tree traversal."""

    nodes: int = 0
    max_depth: int = 0
    leaves: int = 0
    solid_windows: int = 0


class _MinSegmentTree:
    """Point-update / range-min segment tree over packed integer keys.

    Keys are ``(order value << 32) | (tie + offset)`` integers — one machine
    comparison instead of a tuple compare — and :meth:`set` stops climbing as
    soon as an ancestor's minimum is unchanged, which is the common case
    when inserting a random-order k-mer into a populated window.
    :meth:`bulk_fill` seeds every leaf at once and builds the internal nodes
    bottom-up in O(size), which is how the heavy-spine descent batches its
    ``n`` point updates into one pass.
    """

    _SENTINEL = 1 << 100

    def __init__(self, size: int) -> None:
        self._size = 1
        while self._size < max(1, size):
            self._size *= 2
        self._keys = [self._SENTINEL] * (2 * self._size)

    def set(self, position: int, key: int) -> None:
        keys = self._keys
        node = self._size + position
        keys[node] = key
        node >>= 1
        while node:
            left = keys[2 * node]
            right = keys[2 * node + 1]
            smallest = left if left < right else right
            if keys[node] == smallest:
                break
            keys[node] = smallest
            node >>= 1

    def clear(self, position: int) -> None:
        self.set(position, self._SENTINEL)

    def bulk_fill(self, leaf_keys: list) -> None:
        """Set leaves ``0 .. len(leaf_keys)`` at once (O(size) rebuild)."""
        keys = self._keys
        size = self._size
        keys[size : size + len(leaf_keys)] = leaf_keys
        for node in range(size - 1, 0, -1):
            left = keys[2 * node]
            right = keys[2 * node + 1]
            keys[node] = left if left < right else right

    def range_min(self, lo: int, hi: int) -> int:
        """Minimum key over positions [lo, hi); the sentinel if empty."""
        best = self._SENTINEL
        keys = self._keys
        lo += self._size
        hi += self._size
        while lo < hi:
            if lo & 1:
                if keys[lo] < best:
                    best = keys[lo]
                lo += 1
            if hi & 1:
                hi -= 1
                if keys[hi] < best:
                    best = keys[hi]
            lo >>= 1
            hi >>= 1
        return best


class _ExtendedFactorDFS:
    """One traversal of the (forward or backward) extended solid factor tree."""

    def __init__(
        self,
        view: WeightedString,
        heavy: HeavyString,
        z: float,
        ell: int,
        scheme: MinimizerScheme,
        *,
        reverse_orientation: bool,
        max_nodes: int | None = None,
    ) -> None:
        self.view = view
        self.heavy = heavy
        self.z = z
        self.ell = ell
        self.scheme = scheme
        self.reverse_orientation = reverse_orientation
        self.max_nodes = max_nodes
        self.statistics = DFSStatistics()
        n = len(view)
        self.n = n
        self.k = scheme.k
        self.heavy_codes = heavy.codes
        # Letters sorted by decreasing probability per position, so the DFS
        # can stop trying letters as soon as the solidity check fails.  One
        # whole-matrix argsort instead of n per-row sorts; the count vector
        # bounds each position's loop to its positive letters (zeros sort
        # last under the stable descending order).
        matrix = view.matrix
        if n:
            self.letter_order = np.argsort(-matrix, axis=1, kind="stable")
            self.letter_probs = np.take_along_axis(matrix, self.letter_order, axis=1)
            self.letter_counts = np.count_nonzero(matrix > 0.0, axis=1).tolist()
        else:
            self.letter_order = np.empty((0, view.sigma), dtype=np.int64)
            self.letter_probs = np.empty((0, view.sigma), dtype=np.float64)
            self.letter_counts = []
        # Packed order keys of every *heavy* k-mer, so the (frequent) k-mer
        # windows that lie entirely on the heavy spine skip the per-letter
        # code accumulation.
        self._heavy_keys = self._pack_heavy_keys()

    # -- k-mer handling ----------------------------------------------------------------
    def _pack_key(self, order_value: int, position: int) -> int:
        """One integer encoding the (order value, tie) pair, order-preserving."""
        tie = -position if self.reverse_orientation else position
        return (int(order_value) << 32) | (tie + self.n)

    def _pack_heavy_keys(self) -> list[int]:
        """Packed keys of all heavy-spine k-mers, computed vectorised."""
        n, k, sigma = self.n, self.k, self.scheme.sigma
        if n < k:
            return []
        codes = np.zeros(n - k + 1, dtype=np.int64)
        offsets = (
            range(k - 1, -1, -1) if self.reverse_orientation else range(k)
        )
        # Mirrors _kmer_key's accumulation order: the reverse orientation
        # reads the view letters backwards (the original-orientation k-mer).
        for offset in offsets:
            codes = codes * sigma + self.heavy_codes[offset : n - k + 1 + offset]
        orders = self.scheme.order_values(codes)
        return [
            self._pack_key(int(order), position)
            for position, order in enumerate(orders)
        ]

    def _kmer_key(self, path_letters: np.ndarray, position: int) -> int:
        """Order key of the k-mer anchored at ``position`` of the current path."""
        sigma = self.scheme.sigma
        code = 0
        if self.reverse_orientation:
            # The original-orientation k-mer reads the view letters backwards.
            for offset in range(self.k - 1, -1, -1):
                code = code * sigma + int(path_letters[position + offset])
        else:
            for offset in range(self.k):
                code = code * sigma + int(path_letters[position + offset])
        return self._pack_key(self.scheme.order_value(code), position)

    def _pending_from_key(self, key: int) -> int:
        """Map a selected k-mer key back to the path position that must emit."""
        selected_tie = (key & 0xFFFFFFFF) - self.n
        if self.reverse_orientation:
            return -selected_tie + self.k - 1
        return selected_tie

    # -- the traversal ------------------------------------------------------------------
    def run(self) -> list[FactorLeaf]:
        n, k, ell, z = self.n, self.k, self.ell, self.z
        if n < ell:
            return []
        heavy = self.heavy
        heavy_codes = self.heavy_codes
        path_letters = np.zeros(n, dtype=np.int64)
        tree = _MinSegmentTree(max(1, n - k + 1))
        pending: set[int] = set()
        diff_stack: list[tuple[int, int]] = []
        leaves: list[FactorLeaf] = []
        statistics = self.statistics

        def window_is_solid(position: int, probability: float) -> bool:
            if position + ell > n:
                return False
            if not diff_stack:
                window_probability = heavy.range_product(position, position + ell)
            else:
                last_mismatch = diff_stack[0][0]
                if last_mismatch >= position + ell:
                    return True
                window_probability = probability * heavy.range_product(
                    last_mismatch + 1, position + ell
                )
            return is_solid_probability(window_probability, z)

        def emit(position: int) -> None:
            offsets = sorted(
                ((diff_position - position, code) for diff_position, code in diff_stack)
            )
            anchor = position
            original_position = (n - 1 - position) if self.reverse_orientation else position
            leaves.append(
                FactorLeaf(
                    anchor=anchor,
                    length=n - position,
                    mismatches=tuple(offsets),
                    position=original_position,
                    source=-1,
                )
            )
            statistics.leaves += 1

        # Frames: [node_position, letter_index, child_undo]; the root frame sits
        # at position n (the empty string) and descends towards position 0.
        stack = [[n, 0, None]]
        probability = 1.0
        letter_counts = self.letter_counts
        letter_order = self.letter_order
        letter_probs = self.letter_probs
        heavy_keys = self._heavy_keys
        sentinel = _MinSegmentTree._SENTINEL

        if self.max_nodes is None:
            # Batch the leftmost branch: the heavy spine is always tried
            # first (heavy letters are probability-sorted first) and is
            # always solid (its grown part is empty), so the first n frames,
            # the n segment-tree point updates and the per-window solidity
            # checks collapse into one vectorised prologue: frames are
            # stacked in bulk, the tree is bottom-up filled with the
            # precomputed heavy k-mer keys, and the pending minimizers of
            # every solid spine window are seeded by plain range-min probes.
            path_letters[:] = heavy_codes
            tree.bulk_fill(heavy_keys)
            for child_position in range(n - 1, -1, -1):
                kmer_position = child_position if child_position + k <= n else -1
                stack[-1][1] = 1
                stack[-1][2] = (False, 1.0, kmer_position)
                stack.append([child_position, 0, None])
                if window_is_solid(child_position, 1.0):
                    statistics.solid_windows += 1
                    # Every queried window lies at positions ≥ child_position,
                    # exactly the keys a stepwise descent would have set.
                    key = tree.range_min(
                        child_position, child_position + ell - k + 1
                    )
                    if key != sentinel:
                        pending.add(self._pending_from_key(key))
            statistics.nodes += n
            statistics.max_depth = n

        while stack:
            frame = stack[-1]
            node_position, letter_index, child_undo = frame
            if child_undo is not None:
                # A child subtree just finished: undo its letter application.
                (pushed_diff, previous_probability, kmer_position) = child_undo
                child_position = node_position - 1
                if child_position in pending:
                    pending.discard(child_position)
                    emit(child_position)
                if pushed_diff:
                    diff_stack.pop()
                probability = previous_probability
                if kmer_position >= 0:
                    tree.clear(kmer_position)
                frame[2] = None
            child_position = node_position - 1
            descended = False
            while child_position >= 0 and frame[1] < letter_counts[child_position]:
                letter_probability = float(letter_probs[child_position, frame[1]])
                code = int(letter_order[child_position, frame[1]])
                frame[1] += 1
                pure_heavy = not diff_stack and code == int(heavy_codes[child_position])
                if pure_heavy:
                    new_probability = 1.0
                else:
                    candidate = (
                        letter_probability
                        if not diff_stack
                        else probability * letter_probability
                    )
                    if not is_solid_probability(candidate, z):
                        # Letters are sorted by decreasing probability: once one
                        # fails, the remaining (non-heavy) letters fail too.
                        frame[1] = letter_counts[child_position]
                        break
                    new_probability = candidate
                if self.max_nodes is not None and statistics.nodes >= self.max_nodes:
                    raise ConstructionError(
                        "space-efficient construction exceeded the node budget"
                    )
                # Apply the letter and open the child frame.
                statistics.nodes += 1
                statistics.max_depth = max(statistics.max_depth, n - child_position)
                path_letters[child_position] = code
                pushed_diff = False
                if not pure_heavy and code != int(heavy_codes[child_position]):
                    diff_stack.append((child_position, code))
                    pushed_diff = True
                previous_probability = probability
                probability = new_probability
                kmer_position = -1
                if child_position + k <= n:
                    kmer_position = child_position
                    if not diff_stack or diff_stack[-1][0] >= kmer_position + k:
                        # The k-mer window lies entirely on the heavy spine
                        # (the deepest diff sits past it): reuse the
                        # precomputed packed key.
                        key = heavy_keys[kmer_position]
                    else:
                        key = self._kmer_key(path_letters, kmer_position)
                    tree.set(kmer_position, key)
                if window_is_solid(child_position, probability):
                    statistics.solid_windows += 1
                    key = tree.range_min(child_position, child_position + ell - k + 1)
                    if key != sentinel:
                        pending.add(self._pending_from_key(key))
                frame[2] = (pushed_diff, previous_probability, kmer_position)
                stack.append([child_position, 0, None])
                descended = True
                break
            if descended:
                continue
            # All children explored: close this frame (the parent will undo).
            stack.pop()
        return leaves


def build_index_data_space_efficient(
    source: WeightedString,
    z: float,
    ell: int,
    *,
    scheme: MinimizerScheme | None = None,
    max_nodes: int | None = None,
) -> tuple[MinimizerIndexData, dict]:
    """Build the minimizer index data without materialising the z-estimation."""
    z = validate_threshold(z)
    if ell <= 0:
        raise ConstructionError("ell must be positive")
    if scheme is None:
        scheme = MinimizerScheme(ell, source.sigma)
    heavy = HeavyString(source)
    forward_dfs = _ExtendedFactorDFS(
        source, heavy, z, ell, scheme, reverse_orientation=False, max_nodes=max_nodes
    )
    forward_leaves = forward_dfs.run()
    reversed_view = source.reverse()
    reversed_heavy = HeavyString(reversed_view)
    backward_dfs = _ExtendedFactorDFS(
        reversed_view,
        reversed_heavy,
        z,
        ell,
        scheme,
        reverse_orientation=True,
        max_nodes=max_nodes,
    )
    backward_leaves = backward_dfs.run()
    forward = LeafCollection(forward_leaves, heavy.codes)
    backward = LeafCollection(backward_leaves, reversed_heavy.codes)
    counters = {
        "forward_leaves": len(forward),
        "backward_leaves": len(backward),
        "forward_nodes": forward_dfs.statistics.nodes,
        "backward_nodes": backward_dfs.statistics.nodes,
        "solid_windows": forward_dfs.statistics.solid_windows,
    }
    data = MinimizerIndexData(
        source=source,
        z=z,
        ell=ell,
        scheme=scheme,
        heavy=heavy,
        forward=forward,
        backward=backward,
        pairs=None,
        construction="space_efficient",
        counters=counters,
    )
    return data, counters


class SpaceEfficientMWST(MinimizerIndexBase):
    """MWST-SE: the MWST index built by the space-efficient DFS construction.

    Queries are identical to :class:`MinimizerWST` (the simple Section-5
    query over the minimizer solid-factor trees); only the construction path
    — and therefore the construction space and time — differs.
    """

    name = "MWST-SE"
    use_trie = True
    use_grid = False

    @classmethod
    def build(
        cls,
        source: WeightedString,
        z: float,
        ell: int,
        *,
        scheme: MinimizerScheme | None = None,
        space_model: SpaceModel = DEFAULT_SPACE_MODEL,
        max_nodes: int | None = None,
        **_ignored,
    ) -> "SpaceEfficientMWST":
        started = time.perf_counter()
        tracker = ConstructionTracker()
        data, counters = build_index_data_space_efficient(
            source, z, ell, scheme=scheme, max_nodes=max_nodes
        )
        n = len(source)
        # Working space: the input matrix, the O(n) traversal bookkeeping and
        # the emitted leaves — but no z-estimation.  (The Python implementation
        # materialises a reversed copy of the matrix for convenience; an
        # array-based implementation reads the same matrix backwards, so the
        # input is charged once, as for every other construction.)
        tracker.allocate(space_model.probabilities(n * source.sigma))
        tracker.allocate(space_model.words(6 * n))
        tracker.allocate(
            data.forward.size_bytes(space_model) + data.backward.size_bytes(space_model)
        )
        index_size = data.size_bytes(space_model, as_tree=True, with_grid=False)
        stats = IndexStats(
            name=cls.name,
            index_size_bytes=index_size,
            construction_space_bytes=tracker.peak_bytes,
            construction_seconds=time.perf_counter() - started,
            counters=counters,
        )
        return cls(source, z, data, stats, None)
