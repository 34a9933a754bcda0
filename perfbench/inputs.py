"""Seeded inputs and oracle answers shared by the workloads."""

from __future__ import annotations

import numpy as np

from repro.datasets.patterns import mutate_pattern, sample_valid_patterns
from repro.indexes import brute_force_occurrences


def pattern_pool(source, z, lengths, valid, mutants, seed, estimation=None) -> list[list[int]]:
    """Per length: ``valid`` patterns sampled from the z-estimation and
    ``mutants`` one-substitution mutants of them (mostly absent)."""
    rng = np.random.default_rng(seed)
    pool: list[list[int]] = []
    for m in lengths:
        sampled = sample_valid_patterns(
            source, z, m, valid, estimation=estimation, seed=int(rng.integers(2**31))
        )
        pool.extend(sampled)
        for number in range(mutants):
            pool.append(mutate_pattern(
                sampled[number % len(sampled)], source.sigma, 1,
                seed=int(rng.integers(2**31)),
            ))
    return pool


def oracle(source, patterns, z) -> list[list[int]]:
    """Brute-force answers, answered once per distinct pattern."""
    answers: dict[tuple, list[int]] = {}
    result = []
    for pattern in patterns:
        key = tuple(pattern)
        if key not in answers:
            answers[key] = brute_force_occurrences(source, list(pattern), z)
        result.append(answers[key])
    return result


def save_source(path, source) -> None:
    """Write a weighted string for a child process (exact float64 rows)."""
    np.savez(path, matrix=source.matrix, letters=np.array(source.alphabet.letters))
