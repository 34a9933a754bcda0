"""Seeded randomized differential harness over the whole index stack.

Every scenario draws a random weighted string (skewed, uniform or degenerate
distribution mix), a random pattern mix and a random point-update sequence,
then checks that **all 7 monolithic variants, the sharded index and
store-loaded indexes answer every query mode bit-identically to the
O(n·m) brute-force oracle** — before any update, after every update batch,
and (structurally, for the minimizer family) against a from-scratch rebuild
on the mutated string.

The harness is deterministic: every random draw comes from seeds fixed in
the scenario table, so a failure reproduces exactly.  Runtime is bounded by
design (small n, few seeds) — CI runs it as the fuzz smoke step.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.alphabet import Alphabet
from repro.core.weighted_string import WeightedString
from repro.indexes import (
    ConstructionPipeline,
    Query,
    brute_force_occurrences,
    build_index,
)
from repro.io.store import (
    load_index,
    load_sharded_store,
    save_index,
    save_sharded_store,
)

MONOLITHIC = ("WST", "WSA", "MWST", "MWSA", "MWST-G", "MWSA-G", "MWST-SE")
MODES = ("exists", "count", "locate", "locate_probs", "topk")

#: (name, style, n, sigma, z, ell, seed, update_batches)
SCENARIOS = [
    ("skewed-small", "skewed", 48, 4, 4.0, 3, 101, 2),
    ("skewed-wide", "skewed", 90, 4, 4.0, 4, 202, 2),
    ("uniform", "uniform", 56, 3, 2.0, 3, 303, 2),
    ("degenerate", "degenerate", 72, 4, 5.5, 4, 404, 2),
    ("binary-skewed", "skewed", 60, 2, 3.0, 2, 505, 2),
    ("skewed-deep-z", "skewed", 50, 4, 8.0, 3, 606, 2),
]


# --------------------------------------------------------------------------- #
# random generators                                                            #
# --------------------------------------------------------------------------- #
def random_weighted_string(style: str, n: int, sigma: int, seed: int) -> WeightedString:
    """A random weighted string with the scenario's distribution style."""
    rng = np.random.default_rng(seed)
    alphabet = Alphabet("ABCDEFGH"[:sigma])
    if style == "uniform":
        matrix = rng.random((n, sigma)) + 0.05
    elif style == "skewed":
        matrix = np.full((n, sigma), 0.08)
        matrix[np.arange(n), rng.integers(0, sigma, n)] = 1.0
        certain = rng.random(n) < 0.35
        matrix[certain] = 0.0
        matrix[certain, rng.integers(0, sigma, int(certain.sum()))] = 1.0
    elif style == "degenerate":
        # Mostly certain positions with a few maximally uncertain ones.
        matrix = np.zeros((n, sigma))
        matrix[np.arange(n), rng.integers(0, sigma, n)] = 1.0
        fuzzy = rng.random(n) < 0.15
        matrix[fuzzy] = 1.0 / sigma
    else:  # pragma: no cover - scenario table is fixed
        raise ValueError(style)
    return WeightedString(matrix, alphabet, normalize=True)


def random_patterns(source: WeightedString, ell: int, seed: int, count: int = 14):
    """A pattern mix: heavy windows, sampled strings, pure noise, boundaries."""
    rng = np.random.default_rng(seed)
    n = len(source)
    heavy = source.heavy_codes()
    patterns = []
    lengths = [ell, ell + 1, 2 * ell - 1, 2 * ell]
    for index in range(count):
        m = int(lengths[index % len(lengths)])
        if m > n:
            continue
        start = int(rng.integers(0, n - m + 1))
        kind = index % 3
        if kind == 0:  # heavy window: likely hit
            patterns.append([int(code) for code in heavy[start : start + m]])
        elif kind == 1:  # a sampled realization window: plausible hit
            sampled = source.sample_string(rng)
            patterns.append([int(code) for code in sampled[start : start + m]])
        else:  # random noise: likely miss
            patterns.append([int(code) for code in rng.integers(0, source.sigma, m)])
    return patterns


def random_update_batch(source: WeightedString, seed: int, count: int):
    """Random point updates mixing re-weighting, letter flips and certainty."""
    rng = np.random.default_rng(seed)
    sigma = source.sigma
    updates = []
    for _ in range(count):
        position = int(rng.integers(0, len(source)))
        kind = int(rng.integers(3))
        if kind == 0:  # make the position certain
            row = np.zeros(sigma)
            row[int(rng.integers(sigma))] = 1.0
        elif kind == 1:  # skewed re-weight
            row = np.full(sigma, 0.05)
            row[int(rng.integers(sigma))] = 1.0
        else:  # arbitrary distribution
            row = rng.random(sigma) + 0.02
        updates.append((position, row / row.sum()))
    return updates


# --------------------------------------------------------------------------- #
# oracle + equivalence checks                                                  #
# --------------------------------------------------------------------------- #
def product_oracle(source: WeightedString, pattern, position: int) -> float:
    """Direct left-to-right float64 product — the exact reference probability."""
    probability = 1.0
    for offset, code in enumerate(pattern):
        probability *= float(source.matrix[position + offset, code])
    return probability


def oracle_answers(source: WeightedString, pattern, z: float):
    positions = brute_force_occurrences(source, pattern, z)
    probabilities = [product_oracle(source, pattern, p) for p in positions]
    ranked = sorted(zip(positions, probabilities), key=lambda pair: (-pair[1], pair[0]))
    return positions, probabilities, ranked


def assert_index_matches_oracle(index, source, patterns, z, label):
    """All five query modes of ``index`` against the brute-force oracle."""
    queries = []
    for pattern in patterns:
        for mode in MODES:
            queries.append(Query(pattern, mode=mode, k=3 if mode == "topk" else None))
    results = index.query_many(queries)
    slot = 0
    for pattern in patterns:
        positions, probabilities, ranked = oracle_answers(source, pattern, z)
        per_mode = {mode: results[slot + offset] for offset, mode in enumerate(MODES)}
        slot += len(MODES)
        context = (label, pattern)
        assert per_mode["exists"].exists == bool(positions), context
        assert per_mode["count"].count == len(positions), context
        assert per_mode["locate"].positions == positions, context
        assert per_mode["locate_probs"].positions == positions, context
        # Bit-identical float64 products, not approximate equality.
        assert per_mode["locate_probs"].probabilities == probabilities, context
        top = per_mode["topk"]
        assert list(zip(top.positions, top.probabilities)) == ranked[:3], context


def leaf_tuples(collection):
    return [
        (leaf.anchor, leaf.length, leaf.mismatches, leaf.position, leaf.source)
        for leaf in collection
    ]


def pair_set(data):
    """The grid pairing of minimizer index data as a set of (x, y) tuples."""
    return set(map(tuple, data.pairs.tolist()))


# --------------------------------------------------------------------------- #
# the harness                                                                  #
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "name,style,n,sigma,z,ell,seed,batches",
    SCENARIOS,
    ids=[scenario[0] for scenario in SCENARIOS],
)
def test_differential_fuzz(tmp_path, name, style, n, sigma, z, ell, seed, batches):
    source = random_weighted_string(style, n, sigma, seed)
    pipeline = ConstructionPipeline(source, z, ell=ell)
    indexes = {kind: pipeline.build(kind) for kind in MONOLITHIC}
    indexes["SHARDED"] = build_index(
        source, z, kind="MWSA", ell=ell, shards=3, max_pattern_len=2 * ell
    )
    save_index(tmp_path / "mono.idx", indexes["MWSA-G"])
    indexes["STORE"] = load_index(tmp_path / "mono.idx")
    save_sharded_store(tmp_path / "sharded", indexes["SHARDED"])
    indexes["STORE-SHARDED"] = load_sharded_store(tmp_path / "sharded")

    patterns = random_patterns(source, ell, seed + 1)
    assert patterns, "scenario produced no patterns"
    for label, index in indexes.items():
        assert_index_matches_oracle(
            index, index.source, patterns, z, f"{name}/{label}/pre"
        )

    for batch_number in range(batches):
        updates = random_update_batch(source, seed + 10 + batch_number, count=3)
        # Updates are absolute (idempotent), so every index — including the
        # store-loaded ones with their own source copies — applies the same
        # batch and must converge to the same answers.
        for label, index in indexes.items():
            report = index.apply_updates(updates)
            assert report.generation == batch_number + 1, (name, label)
        patterns = random_patterns(source, ell, seed + 20 + batch_number)
        for label, index in indexes.items():
            assert_index_matches_oracle(
                index,
                index.source,
                patterns,
                z,
                f"{name}/{label}/batch{batch_number}",
            )
            # Store-loaded indexes mutate their own matrix copy; it must have
            # converged to the shared source bit-for-bit.
            assert np.array_equal(np.asarray(index.source.matrix), source.matrix), (
                name,
                label,
            )

    # Structural bit-identity: the incrementally repaired minimizer data
    # equals a from-scratch build over the mutated string, leaf for leaf.
    fresh = build_index(source, z, kind="MWSA", ell=ell)
    repaired = indexes["MWSA"]
    assert leaf_tuples(repaired.data.forward) == leaf_tuples(fresh.data.forward)
    assert leaf_tuples(repaired.data.backward) == leaf_tuples(fresh.data.backward)
    fresh_grid = build_index(source, z, kind="MWST-G", ell=ell)
    repaired_grid = indexes["MWST-G"]
    assert pair_set(repaired_grid.data) == pair_set(fresh_grid.data)
    assert np.array_equal(
        repaired_grid.data.forward.adjacent_lcps(),
        fresh_grid.data.forward.adjacent_lcps(),
    )


def test_fuzz_checkpointed_repair_at_boundaries(tmp_path, monkeypatch):
    """Checkpointed z-estimation replay around its own boundaries.

    With the snapshot cadence forced down to K=16, a 96-position string has
    checkpoints inside the update range.  Update waves are aimed exactly at
    the replay edge cases — just before / at / just after a checkpoint
    boundary, a ranged update spanning a boundary, and the string ends
    (position 0 resumes from nothing, position n-1 replays the tail) — and
    after every wave all 7 monolithic variants, the sharded index and both
    store-loaded indexes must stay oracle-exact, with the minimizer family's
    repaired leaves bit-identical to from-scratch builds on the mutated
    string.
    """
    import repro.core.estimation as estimation_module

    K = 16
    monkeypatch.setattr(estimation_module, "DEFAULT_CHECKPOINT_EVERY", K)
    n, sigma, z, ell, seed = 96, 4, 4.0, 3, 909
    source = random_weighted_string("skewed", n, sigma, seed)
    pipeline = ConstructionPipeline(source, z, ell=ell)
    indexes = {kind: pipeline.build(kind) for kind in MONOLITHIC}
    indexes["SHARDED"] = build_index(
        source, z, kind="MWSA", ell=ell, shards=3, max_pattern_len=2 * ell
    )
    save_index(tmp_path / "mono.idx", indexes["MWSA-G"])
    indexes["STORE"] = load_index(tmp_path / "mono.idx")
    save_sharded_store(tmp_path / "sharded", indexes["SHARDED"])
    indexes["STORE-SHARDED"] = load_sharded_store(tmp_path / "sharded")
    # The store round-trip must preserve the (small-K) checkpoints, or the
    # replay paths below would silently test full replay only.
    stored_estimation = indexes["STORE"].data.estimation
    assert stored_estimation is not None
    assert [cp.position for cp in stored_estimation.checkpoints] == list(
        range(K, n, K)
    )

    rng = np.random.default_rng(seed + 1)

    def random_row():
        row = rng.random(sigma) + 0.02
        return row / row.sum()

    waves = [
        ("before-boundary", [(2 * K - 1, random_row())]),
        ("at-boundary", [(2 * K, random_row())]),
        ("after-boundary", [(2 * K + 1, random_row())]),
        ("spanning-range", (3 * K - 2, [random_row() for _ in range(5)])),
        ("position-zero", [(0, random_row())]),
        ("last-position", [(n - 1, random_row())]),
    ]
    replay_modes = set()
    for wave_number, (label, updates) in enumerate(waves):
        for index_label, index in indexes.items():
            if label == "spanning-range":
                start, rows = updates
                report = index.apply_range_update(start, [row.copy() for row in rows])
            else:
                report = index.apply_updates(
                    [(position, row.copy()) for position, row in updates]
                )
            replay = report.details.get("estimation_replay")
            if replay is not None:
                replay_modes.add(replay)
        # The monolithic indexes share ``source``, so it already carries the
        # wave; the store-loaded copies applied the same absolute rows.
        patterns = random_patterns(source, ell, seed + 30 + wave_number, count=8)
        for index_label, index in indexes.items():
            assert_index_matches_oracle(
                index, index.source, patterns, z, f"checkpoint/{label}/{index_label}"
            )
            assert np.array_equal(np.asarray(index.source.matrix), source.matrix), (
                label,
                index_label,
            )
        # Leaf-level bit-identity of the repaired minimizer data against a
        # from-scratch build over the mutated string, every wave.
        for kind in ("MWSA", "MWST"):
            fresh = build_index(source, z, kind=kind, ell=ell)
            assert leaf_tuples(indexes[kind].data.forward) == leaf_tuples(
                fresh.data.forward
            ), (label, kind)
            assert leaf_tuples(indexes[kind].data.backward) == leaf_tuples(
                fresh.data.backward
            ), (label, kind)
        fresh_grid = build_index(source, z, kind="MWST-G", ell=ell)
        assert pair_set(indexes["MWST-G"].data) == pair_set(fresh_grid.data), label
    # The boundary waves must have exercised the checkpoint-resume path, not
    # only full replay — otherwise this test is not testing the tentpole.
    assert "checkpoint" in replay_modes, replay_modes


def test_fuzz_updates_on_store_loaded_sharded_roundtrip(tmp_path):
    """Update → refresh → reload keeps the directory store oracle-exact."""
    from repro.io.store import refresh_sharded_store

    source = random_weighted_string("skewed", 64, 4, 77)
    z, ell = 4.0, 3
    sharded = build_index(
        source, z, kind="MWSA", ell=ell, shards=4, max_pattern_len=2 * ell
    )
    save_sharded_store(tmp_path / "store", sharded)
    for batch in range(3):
        updates = random_update_batch(source, 500 + batch, count=2)
        sharded.apply_updates(updates)
        refresh_sharded_store(tmp_path / "store", sharded)
        reloaded = load_sharded_store(tmp_path / "store")
        assert reloaded.generations == sharded.generations
        patterns = random_patterns(source, ell, 600 + batch, count=8)
        assert_index_matches_oracle(
            reloaded, reloaded.source, patterns, z, f"reload{batch}"
        )
