"""Heavy strings and heavy prefix products (Definition 2, Lemma 3).

The heavy string ``H_X`` contains at each position the most probable letter.
Lemma 3 bounds the Hamming distance between any z-solid factor and the
corresponding heavy-string fragment by ``log2 z``, which is what makes the
Corollary-4 edge encoding (heavy interval + at most ``log2 z`` mismatches)
possible.  This module provides:

* :class:`HeavyString` — the heavy letters, their probabilities and
  log-domain prefix sums, giving O(1) products of heavy probabilities over
  arbitrary ranges (the ``PPH`` array of Algorithm 2);
* helpers to materialise a factor described as "heavy string plus a list of
  mismatches" and to verify Lemma 3.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .numerics import is_solid_probability, validate_threshold
from .weighted_string import WeightedString

__all__ = ["HeavyString", "max_mismatches", "apply_mismatches"]


def max_mismatches(z: float) -> int:
    """``⌊log2 z⌋`` — Lemma 3's bound on mismatches of a solid factor vs ``H_X``."""
    z = validate_threshold(z)
    return int(math.floor(math.log2(z) + 1e-12))


class HeavyString:
    """The heavy string of a weighted string, with O(1) range products.

    Parameters
    ----------
    source:
        The weighted string ``X``.

    Notes
    -----
    Probability products over heavy ranges are computed from prefix sums of
    logarithms, so a single query costs O(1) and there is no underflow for
    long ranges.  Positions with heavy probability 0 cannot occur for a
    well-formed weighted string (rows sum to 1), so logs are always finite.
    """

    __slots__ = ("_codes", "_probabilities", "_logs", "_log_prefix", "_alphabet", "_length")

    def __init__(self, source: WeightedString) -> None:
        self._codes = source.heavy_codes()
        self._probabilities = source.heavy_probabilities()
        self._logs = np.log(np.maximum(self._probabilities, np.finfo(np.float64).tiny))
        self._log_prefix = np.concatenate([[0.0], np.cumsum(self._logs)])
        self._alphabet = source.alphabet
        self._length = len(source)

    # -- content -------------------------------------------------------------
    def __len__(self) -> int:
        return self._length

    @property
    def codes(self) -> np.ndarray:
        """Heavy letter codes, one per position."""
        return self._codes

    @property
    def probabilities(self) -> np.ndarray:
        """Probability of the heavy letter at each position."""
        return self._probabilities

    def code(self, position: int) -> int:
        """Heavy letter code at ``position``."""
        return int(self._codes[position])

    def letter(self, position: int) -> str:
        """Heavy letter symbol at ``position``."""
        return self._alphabet.letter(self.code(position))

    def text(self) -> str:
        """The heavy string as text (``H_X``)."""
        return self._alphabet.decode(int(code) for code in self._codes)

    @property
    def log_probabilities(self) -> np.ndarray:
        """Natural logs of the heavy probabilities, one per position."""
        return self._logs

    # -- probabilities over ranges --------------------------------------------
    @property
    def log_prefix(self) -> np.ndarray:
        """Prefix sums of :attr:`log_probabilities` (``n + 1`` entries, from 0)."""
        return self._log_prefix

    def log_range_product(self, start: int, stop: int) -> float:
        """Natural log of the product of heavy probabilities over ``[start, stop)``."""
        if start >= stop:
            return 0.0
        return float(self._log_prefix[stop] - self._log_prefix[start])

    def log_range_products(self, starts, stops) -> np.ndarray:
        """Vectorised :meth:`log_range_product` over arrays of ranges.

        The log-prefix cache turns a whole batch of heavy-range products into
        one subtraction; empty ranges (``start >= stop``) contribute 0.
        """
        starts = np.asarray(starts, dtype=np.int64)
        stops = np.asarray(stops, dtype=np.int64)
        clamped = np.maximum(stops, starts)
        return self._log_prefix[clamped] - self._log_prefix[starts]

    def range_product(self, start: int, stop: int) -> float:
        """Product of heavy probabilities over ``[start, stop)`` (the PPH ratio)."""
        return math.exp(self.log_range_product(start, stop))

    # -- point updates ---------------------------------------------------------
    def updated_copy(self, source: WeightedString, positions) -> "HeavyString":
        """A heavy string reflecting ``source`` after point updates at ``positions``.

        Bit-identical to ``HeavyString(source)`` but computed by patching
        this (pre-update) heavy string: only the updated rows are re-argmaxed
        and only the log-prefix tail from the first touched position is
        re-accumulated.  Exactness of the tail relies on the prefix sums
        being a left-to-right accumulation: re-summing from the first
        changed index replays the identical addition order.
        """
        positions = sorted({int(position) for position in positions})
        clone = HeavyString.__new__(HeavyString)
        clone._alphabet = self._alphabet
        clone._length = self._length
        if not positions:
            clone._codes = self._codes
            clone._probabilities = self._probabilities
            clone._logs = self._logs
            clone._log_prefix = self._log_prefix
            return clone
        codes = self._codes.copy()
        probabilities = self._probabilities.copy()
        logs = self._logs.copy()
        tiny = np.finfo(np.float64).tiny
        for position in positions:
            row = source.distribution(position)
            codes[position] = int(np.argmax(row))
            probabilities[position] = row.max()
            logs[position] = np.log(max(probabilities[position], tiny))
        first = positions[0]
        log_prefix = self._log_prefix.copy()
        # np.cumsum is a sequential accumulation, so seeding it with the
        # prefix value at ``first`` replays the fresh build's addition order
        # exactly (a detached ``prefix[first] + cumsum(tail)`` would not).
        log_prefix[first:] = np.cumsum(
            np.concatenate([log_prefix[first : first + 1], logs[first:]])
        )
        clone._codes = codes
        clone._probabilities = probabilities
        clone._logs = logs
        clone._log_prefix = log_prefix
        return clone

    # -- factors expressed relative to the heavy string ------------------------
    def factor_codes(
        self, start: int, length: int, mismatches: Sequence[tuple[int, int]] = ()
    ) -> list[int]:
        """Materialise a factor = heavy fragment with substitutions applied.

        ``mismatches`` is a sequence of ``(absolute_position, code)`` pairs,
        exactly the Corollary-4 edge information.
        """
        codes = [int(code) for code in self._codes[start : start + length]]
        for position, code in mismatches:
            offset = position - start
            if 0 <= offset < length:
                codes[offset] = int(code)
        return codes

    def verify_lemma3(
        self, source: WeightedString, pattern: Sequence[int], position: int, z: float
    ) -> bool:
        """Check Lemma 3 for one factor: solid ⇒ ≤ log2 z mismatches with ``H_X``.

        Returns True when the implication holds (it always should); exposed
        mainly for tests and for documentation value.
        """
        z = validate_threshold(z)
        probability = source.occurrence_probability(pattern, position)
        if not is_solid_probability(probability, z):
            return True
        window = self._codes[position : position + len(pattern)]
        mismatches = int(np.count_nonzero(np.asarray(pattern) != window))
        return mismatches <= max_mismatches(z)


def apply_mismatches(
    heavy: HeavyString, start: int, stop: int, mismatches: Sequence[tuple[int, int]]
) -> list[int]:
    """Stand-alone variant of :meth:`HeavyString.factor_codes` on ``[start, stop)``."""
    return heavy.factor_codes(start, stop - start, mismatches)
