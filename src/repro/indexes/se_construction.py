"""MWST-SE: the space-efficient construction (Section 4, Algorithms 1–4).

The explicit construction of the minimizer indexes first materialises the
z-estimation, which costs Θ(nz) working space even though the final index is
only ``O(n + (nz/ℓ)·log z)``.  The space-efficient construction avoids this
by a depth-first traversal of the *extended solid factor trees*: solid
factors are grown one letter at a time away from the heavy string, the
probability of the grown part is maintained incrementally, the minimizer of
every solid length-ℓ window is the minimum k-mer key over the last ℓ
positions of the current root-to-node path, and a leaf (anchor position +
mismatch list, the Corollary-4 encoding) is emitted whenever the traversal
backtracks through a pending minimizer position.  At any moment only the
current path, O(n) per-position lists, the sorted letters of the uncertain
rows and the already-emitted output are alive, so the peak working space is
``O(n + output)``.

Two passes are run: one on the weighted string itself (producing the
``Tsuff`` leaves) and one on its reverse (producing the ``Tpref`` leaves);
both use the *same* minimizer function on the forward reading of every
window, so the sampled positions coincide with the explicit construction's.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from ..core.heavy import HeavyString
from ..core.numerics import RELATIVE_TOLERANCE, validate_threshold
from ..core.weighted_string import WeightedString
from ..errors import ConstructionError
from ..sampling.minimizers import MinimizerScheme
from .minimizer_core import LeafArrays, LeafCollection, MinimizerIndexData
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
        self.z = z
        self.ell = ell
        self.scheme = scheme
        self.reverse_orientation = reverse_orientation
        self.max_nodes = max_nodes
        self.statistics = DFSStatistics()
        n = len(view)
        self.n = n
        self.k = scheme.k
        self.heavy_codes = heavy.codes.tolist()
        self.log_prefix = heavy.log_prefix.tolist()
        # The positive letters of every uncertain row, by decreasing
        # probability (ties by code), so the DFS stops trying letters as soon
        # as the solidity check fails.  A certain row's one letter is its
        # heavy letter with probability 1, so only the uncertain rows (a few
        # percent on genomic data) are sorted and kept.
        matrix = view.matrix
        uncertain = np.flatnonzero(
            (heavy.probabilities != 1.0) | (np.count_nonzero(matrix > 0.0, axis=1) > 1)
        )
        order = np.argsort(-matrix[uncertain], axis=1, kind="stable")
        probabilities = np.take_along_axis(matrix[uncertain], order, axis=1)
        self.choices = {
            position: [
                (code, probability)
                for code, probability in zip(codes, row)
                if probability > 0.0
            ]
            for position, codes, row in zip(
                uncertain.tolist(), order.tolist(), probabilities.tolist()
            )
        }
        # Packed order keys of every *heavy* k-mer, so the (frequent) k-mer
        # windows that lie entirely on the heavy spine skip the per-letter
        # code accumulation.
        self.heavy_keys = self._pack_heavy_keys(heavy.codes)

    # -- k-mer handling ----------------------------------------------------------------
    # A k-mer's key is ``(order value << 32) | (tie + n)``: one integer
    # comparison orders by value, then by tie.  The tie is the path position
    # (forward) or its negation (backward, so the leftmost position of the
    # original string wins either way).
    def _pack_heavy_keys(self, heavy_codes: np.ndarray) -> list[int]:
        """Packed keys of all heavy-spine k-mers, computed vectorised."""
        n, k, sigma = self.n, self.k, self.scheme.sigma
        if n < k:
            return []
        codes = np.zeros(n - k + 1, dtype=np.int64)
        offsets = (
            range(k - 1, -1, -1) if self.reverse_orientation else range(k)
        )
        # The reverse orientation reads the view letters backwards (the
        # original-orientation k-mer), as the DFS's own k-mer codes do.
        for offset in offsets:
            codes = codes * sigma + heavy_codes[offset : n - k + 1 + offset]
        orders = self.scheme.order_values(codes).tolist()
        sign = -1 if self.reverse_orientation else 1
        return [
            (order << 32) | (sign * position + n) for position, order in enumerate(orders)
        ]

    # -- the traversal ------------------------------------------------------------------
    def run(self) -> LeafArrays:
        """Traverse the tree; the leaves come out in emission order.

        The path is kept in per-position lists: the node at position ``c``
        spells the path letters ``c .. n-1``, and the traversal descends
        towards position 0.  The minimizer of a solid window ``[c, c + ℓ)`` is
        the minimum of the k-mer keys at positions ``c .. c + ℓ - k``, all of
        which lie on the current path, so backtracking never has to clear a
        key: a position's key is rewritten whenever the path reaches it again.
        """
        n, k, ell, z = self.n, self.k, self.ell, self.z
        if n < ell:
            return LeafArrays.empty()
        if self.max_nodes is not None and n > self.max_nodes:
            # The heavy spine alone is n nodes.
            raise ConstructionError("space-efficient construction exceeded the node budget")
        limit = math.inf if self.max_nodes is None else self.max_nodes
        heavy = self.heavy_codes
        log_prefix = self.log_prefix
        choices = self.choices
        heavy_keys = self.heavy_keys
        sigma = self.scheme.sigma
        order_value = self.scheme.order_value
        reverse = self.reverse_orientation
        # Solidity is tested inline with is_solid_probability's arithmetic:
        # z·p + tol·max(1, z·p) ≥ 1.
        tolerance = RELATIVE_TOLERANCE
        span = ell - k + 1
        # A k-mer at path position q has tie ``sign * q``.  A selected key's
        # low 32 bits are ``tie + n``; the leaf that must be emitted sits at
        # the k-mer's first letter in the original orientation: path position
        # ``tie`` forward, ``-tie + k - 1`` backward.
        mask = 0xFFFFFFFF
        sign = -1 if reverse else 1
        pending_offset = n + k - 1 if reverse else -n

        path = list(heavy)
        keys = list(heavy_keys)
        # probabilities[c]: probability of the grown part of the node at c
        # (1 on the heavy spine); tried[c]: next letter index to try at c.
        probabilities = [1.0] * (n + 1)
        tried = [1] * n
        pending = [False] * n
        diff_positions: list[int] = []
        diff_codes: list[int] = []
        anchors: list[int] = []
        mm_positions: list[int] = []
        mm_codes: list[int] = []
        mm_ends: list[int] = [0]

        # The leftmost branch is the heavy spine: heavy letters are tried
        # first and are always solid (the grown part is empty), so its n
        # nodes are applied at once and only its solid windows are probed.
        # heavy_pending[c]: the position the heavy window at c selects, which
        # any path whose deepest mismatch lies past the window shares.
        heavy_pending = [
            sign * (min(heavy_keys[c : c + span]) & mask) + pending_offset
            for c in range(n - ell + 1)
        ]
        solid_windows = 0
        for c in range(n - ell, -1, -1):
            scaled = z * math.exp(log_prefix[c + ell] - log_prefix[c])
            if scaled + tolerance * (scaled if scaled > 1.0 else 1.0) >= 1.0:
                solid_windows += 1
                pending[heavy_pending[c]] = True
        nodes = n

        # Backtrack from the deepest spine node (position 0) and explore
        # every other branch.  Every node opened below has a mismatch on its
        # path (the spine's heavy letters were all tried above), so
        # ``diff_positions`` is never empty while a node is being applied.
        finished = 0
        while finished < n:
            # The node at ``finished`` has no children left: emit it if a
            # solid window selected it, then undo its letter.
            if pending[finished]:
                pending[finished] = False
                anchors.append(finished)
                mm_positions.extend(reversed(diff_positions))
                mm_codes.extend(reversed(diff_codes))
                mm_ends.append(len(mm_positions))
            if diff_positions and diff_positions[-1] == finished:
                diff_positions.pop()
                diff_codes.pop()
            c = finished
            index = tried[c]
            probability = probabilities[c + 1]
            while c >= 0:
                letters = choices.get(c)
                if letters is None:
                    # Certain row: the heavy letter keeps the probability.
                    if index:
                        break
                    code = heavy[c]
                else:
                    if index == len(letters):
                        break
                    code, letter_probability = letters[index]
                    candidate = probability * letter_probability
                    scaled = z * candidate
                    if scaled + tolerance * (scaled if scaled > 1.0 else 1.0) < 1.0:
                        # Letters are sorted by decreasing probability: once
                        # one fails, the remaining letters fail too.
                        break
                    probability = candidate
                    if code != heavy[c]:
                        diff_positions.append(c)
                        diff_codes.append(code)
                if nodes >= limit:
                    raise ConstructionError(
                        "space-efficient construction exceeded the node budget"
                    )
                nodes += 1
                tried[c] = index + 1
                probabilities[c] = probability
                path[c] = code
                if c + k <= n:
                    if diff_positions[-1] >= c + k:
                        # The k-mer lies on the heavy spine (the deepest
                        # mismatch sits past it): reuse its precomputed key.
                        keys[c] = heavy_keys[c]
                    else:
                        kmer = path[c : c + k]
                        value = 0
                        for letter in reversed(kmer) if reverse else kmer:
                            value = value * sigma + letter
                        keys[c] = (order_value(value) << 32) | (sign * c + n)
                end = c + ell
                if end <= n:
                    if diff_positions[-1] >= end:
                        # A heavy window inside the (solid) grown part.
                        solid_windows += 1
                        pending[heavy_pending[c]] = True
                    else:
                        # The window is solid if it lies inside the grown
                        # part, or if the grown part times the heavy tail is.
                        first = diff_positions[0]
                        solid = first >= end
                        if not solid:
                            scaled = z * (
                                probability
                                * math.exp(log_prefix[end] - log_prefix[first + 1])
                            )
                            solid = (
                                scaled + tolerance * (scaled if scaled > 1.0 else 1.0) >= 1.0
                            )
                        if solid:
                            solid_windows += 1
                            key = min(keys[c : c + span])
                            pending[sign * (key & mask) + pending_offset] = True
                c -= 1
                index = 0
            # The letters at ``c`` are exhausted: the node at ``c + 1`` is done.
            finished = c + 1

        statistics = self.statistics
        statistics.nodes = nodes
        statistics.max_depth = n
        statistics.leaves = len(anchors)
        statistics.solid_windows = solid_windows
        anchor_array = np.asarray(anchors, dtype=np.int64)
        mm_start = np.asarray(mm_ends, dtype=np.int64)
        # Mismatches were recorded at path positions in increasing order;
        # the leaf stores them as offsets from its anchor.
        mm_offset = np.asarray(mm_positions, dtype=np.int64) - np.repeat(
            anchor_array, np.diff(mm_start)
        )
        return LeafArrays(
            anchor_array,
            n - anchor_array,
            (n - 1 - anchor_array) if reverse else anchor_array,
            np.full(len(anchor_array), -1, dtype=np.int64),
            mm_start,
            mm_offset,
            np.asarray(mm_codes, dtype=np.int64),
        )


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
        # Working space: the input matrix, six words per position for the
        # traversal (path letters, path and heavy k-mer keys, path
        # probabilities, letter cursors, pending flags) and the emitted
        # leaves — but no z-estimation.  The sorted letters of the uncertain
        # rows are a subset of the input, charged with it.  (The Python
        # implementation materialises a reversed copy of the matrix for
        # convenience; an array-based implementation reads the same matrix
        # backwards, so the input is charged once, as for every other
        # construction.)
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
