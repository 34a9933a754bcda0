"""The minimizer-based indexes: MWST, MWSA, MWST-G, MWSA-G.

All four variants share the :class:`MinimizerIndexData` built in
:mod:`repro.indexes.minimizer_core`; they differ in

* how the leaf collections are stored — the tree variants (MWST*) add a
  compacted trie over the sorted leaves, the array variants (MWSA*) keep
  only the sorted leaf arrays (exactly the suffix-tree vs suffix-array
  trade-off of the paper, and what the index-size figures charge).  Every
  variant finds its leaf ranges with the same sorted byte-key search
  (:meth:`~repro.indexes.minimizer_core.LeafCollection.prefix_range_many`);
* how candidates are generated — the plain variants use the simple,
  practically fast query of Section 5 (match the longer pattern piece, then
  verify every candidate), the *-G* variants implement the Theorem 9 query
  that intersects both pieces through a 2D range-reporting grid.

Every variant verifies its candidates against the weighted string, so all of
them return exactly ``Occ_{1/z}(P, X)``.
"""

from __future__ import annotations

import time

from ..core.estimation import ZEstimation
from ..core.weighted_string import WeightedString
from ..errors import ConstructionError
from ..geometry.grid import Grid2D
from ..sampling.minimizers import MinimizerScheme
from .base import UncertainStringIndex
from .engine import locate_minimizer_batch
from .minimizer_core import MinimizerIndexData, build_index_data_from_estimation
from .space import DEFAULT_SPACE_MODEL, ConstructionTracker, IndexStats, SpaceModel

__all__ = [
    "MinimizerIndexBase",
    "MinimizerWST",
    "MinimizerWSA",
    "GridMinimizerWST",
    "GridMinimizerWSA",
]


class MinimizerIndexBase(UncertainStringIndex):
    """Shared implementation of the four minimizer-based index variants."""

    name = "MWST"
    #: Tree variants also store compacted tries over their leaves (sized, persisted).
    use_trie = True
    #: Grid variants intersect both pattern pieces through the 2D grid.
    use_grid = False

    def __init__(
        self,
        source: WeightedString,
        z: float,
        data: MinimizerIndexData,
        stats: IndexStats,
        grid: Grid2D | None = None,
    ) -> None:
        super().__init__(source, z)
        self._data = data
        self._stats = stats
        self._grid = grid
        self._grid_brute_force_limit: int | None = (
            grid.brute_force_limit if grid is not None else None
        )

    # -- construction -----------------------------------------------------------------
    @classmethod
    def build(
        cls,
        source: WeightedString,
        z: float,
        ell: int,
        *,
        scheme: MinimizerScheme | None = None,
        estimation: ZEstimation | None = None,
        data: MinimizerIndexData | None = None,
        space_model: SpaceModel = DEFAULT_SPACE_MODEL,
        grid_brute_force_limit: int | None = None,
    ) -> "MinimizerIndexBase":
        """Build the index through the explicit z-estimation path (Lemma 5).

        A pre-built :class:`MinimizerIndexData` (or z-estimation) may be
        shared across variants; the benchmark harness relies on this to
        compare the variants on identical samples.
        ``grid_brute_force_limit`` overrides the grid's backend-selection
        threshold (grid variants only; ignored elsewhere).
        """
        started = time.perf_counter()
        tracker = ConstructionTracker()
        # The input probability matrix is resident during every construction.
        tracker.allocate(space_model.probabilities(len(source) * source.sigma))
        if data is None:
            data = build_index_data_from_estimation(
                source, z, ell, scheme=scheme, estimation=estimation
            )
        elif data.ell != ell:
            raise ConstructionError(
                f"shared index data was built for ell={data.ell}, not ell={ell}"
            )
        entries = data.counters.get("estimation_entries", len(source) * int(z))
        # Explicit construction keeps the z-estimation plus the sampled leaves.
        tracker.allocate(space_model.codes(entries) + space_model.words(entries))
        tracker.allocate(
            data.forward.size_bytes(space_model) + data.backward.size_bytes(space_model)
        )
        grid = None
        if cls.use_grid:
            if data.pairs is None:
                raise ConstructionError(
                    "grid variants need the leaf pairing; build the index data "
                    "with keep_pairs=True (the estimation path does by default)"
                )
            grid = Grid2D(data.pairs, brute_force_limit=grid_brute_force_limit)
            tracker.allocate(space_model.words(4 * len(data.pairs)))
        index_size = data.size_bytes(
            space_model, as_tree=cls.use_trie, with_grid=cls.use_grid
        )
        stats = IndexStats(
            name=cls.name,
            index_size_bytes=index_size,
            construction_space_bytes=tracker.peak_bytes,
            construction_seconds=time.perf_counter() - started,
            counters=dict(data.counters),
        )
        return cls(source, z, data, stats, grid)

    # -- updates ----------------------------------------------------------------------------
    def _rebuild_updated(self, positions) -> dict:
        """Localized repair: re-derive only the leaves an update touched.

        :func:`~repro.indexes.minimizer_core.apply_updates_to_data` diffs the
        old and new derivations and rebuilds only the affected leaves (plus
        the query caches on top); when the data cannot be repaired locally —
        space-efficient construction, store-loaded data, or updates dirtying
        most of the index — it returns ``None`` and the universal
        full-rebuild strategy takes over.
        """
        from .minimizer_core import apply_updates_to_data

        outcome = apply_updates_to_data(self._data, positions)
        if outcome is None:
            return super()._rebuild_updated(positions)
        data, details = outcome
        self._data = data
        self._grid = (
            Grid2D(data.pairs, brute_force_limit=self._grid_brute_force_limit)
            if self.use_grid
            else None
        )
        self._stats.index_size_bytes = data.size_bytes(
            as_tree=self.use_trie, with_grid=self.use_grid
        )
        self._stats.counters.update(
            {key: data.counters[key] for key in ("forward_leaves", "backward_leaves")}
        )
        return details

    # -- queries ----------------------------------------------------------------------------
    @property
    def minimum_pattern_length(self) -> int:
        return self._data.ell

    @property
    def data(self) -> MinimizerIndexData:
        """The shared minimizer index data (for inspection and tests)."""
        return self._data

    @property
    def grid(self) -> Grid2D | None:
        """The 2D range-reporting grid (grid variants only)."""
        return self._grid

    def _batch_locate(self, code_lists: list) -> list[list[int]]:
        """Vectorised batch strategy shared by all minimizer variants."""
        return locate_minimizer_batch(self, code_lists)

    def _batch_locate_probs(self, code_lists: list):
        """Batch strategy surfacing the verification stage's exact products."""
        return locate_minimizer_batch(self, code_lists, with_probabilities=True)


class MinimizerWST(MinimizerIndexBase):
    """MWST: minimizer solid-factor *trees* with the simple Section-5 query."""

    name = "MWST"
    use_trie = True
    use_grid = False


class MinimizerWSA(MinimizerIndexBase):
    """MWSA: array (binary-search) variant with the simple Section-5 query."""

    name = "MWSA"
    use_trie = False
    use_grid = False


class GridMinimizerWST(MinimizerIndexBase):
    """MWST-G: tree variant with the Theorem 9 grid-based query."""

    name = "MWST-G"
    use_trie = True
    use_grid = True


class GridMinimizerWSA(MinimizerIndexBase):
    """MWSA-G: array variant with the Theorem 9 grid-based query."""

    name = "MWSA-G"
    use_trie = False
    use_grid = True
