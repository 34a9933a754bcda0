"""Kasai's LCP recurrence as a kernel.

One sequential pass over text positions; the amortised O(n) bound depends on
carrying ``length - 1`` between iterations, so the loop cannot vectorise.
"""

from __future__ import annotations

__all__ = ["kasai"]


def kasai(text, sa, ranks, lcp):
    """Fill ``lcp`` (same convention as ``lcp_array``: lcp[0] = 0)."""
    n = text.shape[0]
    length = 0
    for position in range(n):
        rank = ranks[position]
        if rank == 0:
            length = 0
            continue
        other = sa[rank - 1]
        longer = position if position > other else other
        limit = n - longer
        while length < limit and text[position + length] == text[other + length]:
            length += 1
        lcp[rank] = length
        if length > 0:
            length -= 1
