"""The batch query strategy of the minimizer-based indexes.

Every query reaches an index through
:class:`~repro.indexes.query.QueryPlanner`, which validates and deduplicates
the patterns and hands them to the index's ``_batch_locate`` /
``_batch_locate_probs`` hooks; a single pattern is a batch of one.  The
minimizer indexes answer those hooks with :func:`locate_minimizer_batch`,
which keeps every stage an array operation over the whole batch:

* leftmost minimizers of the batch come from a single vectorised argmin
  (:meth:`MinimizerScheme.leftmost_pattern_minimizers`);
* leaf ranges of all query pieces are found with two ``np.searchsorted``
  calls over cached byte keys (:meth:`LeafCollection.prefix_range_many`) —
  for the tree variants too, whose tries are the paper's index structure
  (sized and persisted) but are not walked at query time;
* candidate occurrence positions are gathered with array slices and verified
  in bulk through the source's log-probability cache, grouped by pattern
  length (:func:`~repro.indexes.verification.verify_candidate_batches`).
"""

from __future__ import annotations

import numpy as np

from .verification import verify_candidate_batches

__all__ = ["locate_minimizer_batch"]


def locate_minimizer_batch(
    index, code_lists: list, *, with_probabilities: bool = False
):
    """Batch query strategy of the minimizer-based indexes.

    Implements the Section-5 simple query (longer piece + verification) and
    the Theorem-9 grid query over a whole batch: minimizers, leaf ranges,
    candidate gathering and verification are all array operations; only the
    per-pattern grid reporting remains scalar.  With
    ``with_probabilities=True`` the verification stage reports each
    surviving occurrence's exact probability product alongside its position
    (``(positions, probabilities)`` pairs instead of bare position lists).
    """
    if not code_lists:
        return []
    data = index.data
    mus = data.scheme.leftmost_pattern_minimizers(code_lists).tolist()
    candidates_per_row: list = [None] * len(code_lists)

    if index.use_grid:
        # The forward piece reads rightward from the minimizer, the backward
        # piece leftward (reversed); both are views, never copies.
        forward_ranges = data.forward.prefix_range_many(
            [codes[mu:] for codes, mu in zip(code_lists, mus)]
        ).tolist()
        backward_ranges = data.backward.prefix_range_many(
            [codes[mu::-1] for codes, mu in zip(code_lists, mus)]
        ).tolist()
        forward_positions = data.forward.positions
        for row, ((flo, fhi), (blo, bhi)) in enumerate(
            zip(forward_ranges, backward_ranges)
        ):
            if flo >= fhi or blo >= bhi:
                continue
            points = index._grid.report(flo, fhi, blo, bhi)
            if not points:
                continue
            xs = np.fromiter((x for x, _ in points), dtype=np.int64, count=len(points))
            candidates_per_row[row] = np.unique(forward_positions[xs] - mus[row])
    else:
        # Simple query: search only the longer piece of each pattern, batched
        # per collection so each side is one vectorised range computation.
        forward_rows, forward_pieces, backward_rows, backward_pieces = [], [], [], []
        for row, (codes, mu) in enumerate(zip(code_lists, mus)):
            if len(codes) - mu >= mu + 1:
                forward_rows.append(row)
                forward_pieces.append(codes[mu:])
            else:
                backward_rows.append(row)
                backward_pieces.append(codes[mu::-1])
        for rows, pieces, collection in (
            (forward_rows, forward_pieces, data.forward),
            (backward_rows, backward_pieces, data.backward),
        ):
            if not rows:
                continue
            positions = collection.positions
            ranges = collection.prefix_range_many(pieces).tolist()
            for row, (lo, hi) in zip(rows, ranges):
                if lo < hi:
                    candidates = positions[lo:hi] - mus[row]
                    # One leaf gives one start; only more need deduplicating.
                    candidates_per_row[row] = (
                        np.unique(candidates) if hi - lo > 1 else candidates
                    )
    return verify_candidate_batches(
        index.source, index.z, code_lists, candidates_per_row,
        with_probabilities=with_probabilities,
    )
