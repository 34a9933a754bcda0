"""Construction-parity sweep: the vectorised pipeline vs the test oracles.

The construction pipeline is a structure-of-arrays pipeline (vectorised
z-estimation materialisation, radix-sorted leaf arrays, vectorised mismatch
extraction).  ``construction_oracles`` holds the per-position / per-leaf
reference constructions; these tests pin the contract that the pipeline is
**bit-identical** to them:

* z-estimations agree entry-for-entry, including the edge cases (z = 1,
  single-letter alphabets, fully-certain strings, tied-probability rows,
  rows at the weight-floor rounding boundary);
* every estimation-built index variant is leaf-identical (anchors, lengths,
  mismatch lists, labels, adjacent LCPs, grid pairing);
* all 7 variants + the sharded build + store round-trips answer every query
  mode identically whether built by the pipeline or from the oracles.
"""

from __future__ import annotations

import numpy as np
import pytest
from construction_oracles import (
    reference_adjacent_lcps,
    reference_index_data,
    reference_z_estimation,
)
from test_differential_fuzz import (
    MODES,
    leaf_tuples,
    random_patterns,
    random_weighted_string,
)

from repro.core.alphabet import Alphabet
from repro.core.estimation import build_z_estimation
from repro.core.weighted_string import WeightedString
from repro.indexes import ConstructionPipeline, Query, build_index
from repro.io.store import load_index, save_index

#: The estimation-built kinds whose leaf data must be row-identical.
ESTIMATION_MINIMIZER_KINDS = ("MWST", "MWSA", "MWST-G", "MWSA-G")
ALL_MONOLITHIC = ("WST", "WSA", "MWST", "MWSA", "MWST-G", "MWSA-G", "MWST-SE")

#: (name, style, n, sigma, z, ell, seed) — a bounded, deterministic sweep.
SWEEP = [
    ("skewed", "skewed", 72, 4, 4.0, 3, 1301),
    ("uniform", "uniform", 60, 3, 2.0, 3, 1402),
    ("degenerate", "degenerate", 84, 4, 5.5, 4, 1503),
    ("deep-z", "skewed", 64, 4, 8.0, 4, 1604),
]


def assert_estimations_identical(source: WeightedString, z: float) -> None:
    reference = reference_z_estimation(source, z, checkpoint_every=16)
    vectorized = build_z_estimation(source, z, checkpoint_every=16)
    assert np.array_equal(reference.strings, vectorized.strings)
    assert np.array_equal(reference.ends, vectorized.ends)
    assert reference.z == vectorized.z
    assert len(reference.checkpoints) == len(vectorized.checkpoints)
    for old, new in zip(reference.checkpoints, vectorized.checkpoints):
        assert old.matches(new)


# --------------------------------------------------------------------------- #
# estimation edge cases through the vectorised builder                         #
# --------------------------------------------------------------------------- #
class TestEstimationEdgeCases:
    def test_z_equal_one(self):
        source = random_weighted_string("uniform", 40, 3, 7)
        assert_estimations_identical(source, 1.0)
        estimation = build_z_estimation(source, 1.0)
        assert estimation.width == 1
        # The single string of a 1-estimation is the heavy string.
        assert np.array_equal(estimation.strings[0], source.heavy_codes())

    def test_single_letter_alphabet(self):
        source = WeightedString(
            np.ones((25, 1), dtype=np.float64), Alphabet("A")
        )
        assert_estimations_identical(source, 3.0)
        estimation = build_z_estimation(source, 3.0)
        assert np.all(estimation.strings == 0)
        assert np.all(estimation.ends == len(source) - 1)

    def test_fully_certain_string(self):
        source = WeightedString.from_string("ABBABAABBA")
        assert_estimations_identical(source, 6.0)
        estimation = build_z_estimation(source, 6.0)
        # Every token spells the input with a full-span property.
        for j in range(estimation.width):
            assert np.array_equal(estimation.strings[j], source.heavy_codes())
            assert np.all(estimation.ends[j] == len(source) - 1)

    def test_tied_probability_rows(self):
        rows = [{"A": 0.5, "B": 0.5}] * 6 + [{"A": 1.0}] + [
            {"A": 0.25, "B": 0.25, "C": 0.25, "D": 0.25}
        ] * 4
        source = WeightedString.from_dicts(rows, Alphabet("ABCD"))
        for z in (2.0, 4.0, 8.0):
            assert_estimations_identical(source, z)

    def test_weight_floor_boundary_rows(self):
        # z·P lands exactly on integers (0.5/0.25 quotas at z = 4) and just
        # below them (1/3 rows at z = 3): the rounding-tolerance floor must
        # behave identically through both builders.
        rows = [
            {"A": 0.5, "B": 0.5},
            {"A": 0.5, "B": 0.25, "C": 0.25},
            {"A": 1.0 / 3.0, "B": 1.0 / 3.0, "C": 1.0 / 3.0},
            {"A": 0.75, "B": 0.25},
            {"A": 1.0},
            {"A": 2.0 / 3.0, "B": 1.0 / 3.0},
            {"A": 0.125, "B": 0.875},
        ] * 3
        source = WeightedString.from_dicts(rows, Alphabet("ABC"), normalize=True)
        for z in (2.0, 3.0, 4.0, 8.0):
            assert_estimations_identical(source, z)

    def test_edge_sources_against_count_oracle(self):
        # The defining Count property must hold through the fast path on the
        # edge sources too (spot checks on short patterns).
        source = WeightedString.from_dicts(
            [{"A": 0.5, "B": 0.5}] * 5 + [{"B": 1.0}] * 3,
            Alphabet("AB"),
        )
        z = 4.0
        estimation = build_z_estimation(source, z)
        rng = np.random.default_rng(11)
        for _ in range(25):
            m = int(rng.integers(1, 4))
            start = int(rng.integers(0, len(source) - m + 1))
            pattern = [int(code) for code in rng.integers(0, 2, m)]
            expected = int(
                np.floor(
                    z * source.occurrence_probability(pattern, start) + 1e-9
                )
            )
            assert estimation.count(pattern, start) == expected



# --------------------------------------------------------------------------- #
# the sweep: leaf identity + query identity across every variant               #
# --------------------------------------------------------------------------- #
def assert_same_answers(old_index, new_index, patterns, label):
    queries = [
        Query(pattern, mode=mode, k=3 if mode == "topk" else None)
        for pattern in patterns
        for mode in MODES
    ]
    old_results = old_index.query_many(queries)
    new_results = new_index.query_many(queries)
    for old, new in zip(old_results, new_results):
        assert old.as_dict() == new.as_dict(), label


def assert_same_leaf_data(old_data, new_data):
    assert leaf_tuples(old_data.forward) == leaf_tuples(new_data.forward)
    assert leaf_tuples(old_data.backward) == leaf_tuples(new_data.backward)
    assert np.array_equal(old_data.forward.adjacent_lcps(), new_data.forward.adjacent_lcps())
    assert np.array_equal(old_data.backward.adjacent_lcps(), new_data.backward.adjacent_lcps())
    assert np.array_equal(old_data.pairs, new_data.pairs)
    assert np.array_equal(old_data.forward.raw_to_sorted, new_data.forward.raw_to_sorted)
    assert np.array_equal(old_data.backward.raw_to_sorted, new_data.backward.raw_to_sorted)


def oracle_build(source, z, ell, kind, estimation, data):
    """One variant assembled from oracle-built stages (MWST-SE has none)."""
    if kind in ("WST", "WSA"):
        return build_index(source, z, kind=kind, estimation=estimation)
    if kind in ESTIMATION_MINIMIZER_KINDS:
        return build_index(source, z, kind=kind, ell=ell, data=data)
    return build_index(source, z, kind=kind, ell=ell)


@pytest.mark.parametrize(
    "name,style,n,sigma,z,ell,seed", SWEEP, ids=[entry[0] for entry in SWEEP]
)
def test_construction_parity_sweep(tmp_path, name, style, n, sigma, z, ell, seed):
    source = random_weighted_string(style, n, sigma, seed)
    assert_estimations_identical(source, z)
    patterns = random_patterns(source, ell, seed + 1)
    assert patterns

    oracle_estimation = reference_z_estimation(source, z)
    oracle_data = reference_index_data(source, z, ell, estimation=oracle_estimation)
    pipeline = ConstructionPipeline(source, z, ell=ell)
    for kind in ALL_MONOLITHIC:
        old_index = oracle_build(source, z, ell, kind, oracle_estimation, oracle_data)
        new_index = pipeline.build(kind)
        assert_same_answers(old_index, new_index, patterns, (name, kind))
        if kind in ESTIMATION_MINIMIZER_KINDS:
            assert_same_leaf_data(old_index.data, new_index.data)

    # Sharded builds: every shard is leaf-identical to the oracles on its
    # slice, and the sharded answers equal the monolithic oracle build's.
    oracle_mwsa = oracle_build(source, z, ell, "MWSA", oracle_estimation, oracle_data)
    sharded = build_index(
        source, z, kind="MWSA", ell=ell, shards=3, max_pattern_len=2 * ell
    )
    assert_same_answers(oracle_mwsa, sharded, patterns, (name, "sharded"))
    for shard in sharded.shard_indexes:
        shard_oracle = reference_index_data(
            shard.source, z, ell, scheme=shard.data.scheme
        )
        assert leaf_tuples(shard_oracle.forward) == leaf_tuples(shard.data.forward)
        assert leaf_tuples(shard_oracle.backward) == leaf_tuples(shard.data.backward)

    # Store round-trip: persisting the pipeline build and reloading it must
    # reproduce the oracle answers and leaves too.
    save_index(tmp_path / "new.idx", pipeline.build("MWSA-G"))
    reloaded = load_index(tmp_path / "new.idx")
    oracle_grid = oracle_build(source, z, ell, "MWSA-G", oracle_estimation, oracle_data)
    assert_same_answers(oracle_grid, reloaded, patterns, (name, "store"))
    assert leaf_tuples(reloaded.data.forward) == leaf_tuples(oracle_data.forward)


def test_sort_parity_with_tiny_widening_limits(monkeypatch):
    """Force the widening rounds and the scalar-comparator fallback.

    Shrinking the prefix/widening limits makes every sort exercise the
    doubling rounds and the heavy-LCE fallback, which realistic alphabets
    almost never reach; the resulting order must still equal the oracle
    sort's (the total order is unique).
    """
    from repro.indexes.minimizer_core import LeafCollection

    monkeypatch.setattr(LeafCollection, "PRESORT_PREFIX", 2)
    monkeypatch.setattr(LeafCollection, "SORT_WIDEN_LIMIT", 4)
    for seed in (31, 32):
        source = random_weighted_string("degenerate", 90, 3, seed)
        z, ell = 4.0, 3
        old_data = reference_index_data(source, z, ell)
        new_data = ConstructionPipeline(source, z, ell=ell).index_data()
        assert_same_leaf_data(old_data, new_data)


def wide_alphabet_source(sigma: int = 300, n: int = 60, seed: int = 21) -> WeightedString:
    """A source whose letter codes do not fit one key byte (``>u2`` keys)."""
    rng = np.random.default_rng(seed)
    alphabet = Alphabet([f"s{i}" for i in range(sigma)])
    matrix = np.zeros((n, sigma))
    matrix[np.arange(n), rng.integers(0, sigma, n)] = 1.0
    fuzzy = rng.random(n) < 0.3
    matrix[fuzzy] = 0.0
    matrix[fuzzy, rng.integers(0, sigma, int(fuzzy.sum()))] = 0.6
    matrix[fuzzy, rng.integers(0, sigma, int(fuzzy.sum()))] += 0.4
    return WeightedString(matrix, alphabet, normalize=True)


def test_sort_parity_beyond_byte_packing():
    """Alphabets too wide for one-byte keys sort on big-endian ``>u2`` keys."""
    source = wide_alphabet_source()
    z, ell = 3.0, 2
    old_data = reference_index_data(source, z, ell)
    new_data = ConstructionPipeline(source, z, ell=ell).index_data()
    assert len(new_data.forward) > 0
    assert new_data.forward._key_dtype() == np.dtype(">u2")
    assert_same_leaf_data(old_data, new_data)


LCP_CASES = [(entry[0], entry) for entry in SWEEP] + [
    ("tiny-widening", ("degenerate", "degenerate", 90, 3, 4.0, 3, 31)),
    ("sigma-300", None),
]


@pytest.mark.parametrize("case,entry", LCP_CASES, ids=[case for case, _ in LCP_CASES])
def test_sort_and_presorted_lcps_match_oracle(monkeypatch, case, entry):
    """Both LCP paths equal the pair-by-pair oracle.

    A sorted collection takes its adjacent LCPs from the radix sort; a
    ``presorted=True`` copy of it (how an update merge arrives) computes
    them in :meth:`LeafCollection.adjacent_lcps`.  This pins the LCPs of
    every estimation-built collection, the array kinds' included (their
    LCPs are not persisted, so no golden digest covers them), through the
    comparator fallback (tiny widening limits) and ``>u2`` keys (σ = 300).
    """
    from repro.indexes.minimizer_core import LeafCollection

    if case == "tiny-widening":
        monkeypatch.setattr(LeafCollection, "PRESORT_PREFIX", 2)
        monkeypatch.setattr(LeafCollection, "SORT_WIDEN_LIMIT", 4)
    if entry is None:
        source, z, ell = wide_alphabet_source(), 3.0, 2
    else:
        _, style, n, sigma, z, ell, seed = entry
        source = random_weighted_string(style, n, sigma, seed)
    data = ConstructionPipeline(source, z, ell=ell).index_data()
    for collection in (data.forward, data.backward):
        expected = reference_adjacent_lcps(collection)
        assert collection._cached_lcps is not None  # emitted by the sort
        assert np.array_equal(collection.adjacent_lcps(), expected)
        presorted = LeafCollection(collection.arrays, collection.reference, presorted=True)
        assert presorted._cached_lcps is None
        assert np.array_equal(presorted.adjacent_lcps(), expected)


def test_merge_carries_search_caches():
    """Update-merge keeps kept rows' packed search keys; fresh rows get new ones."""
    source = random_weighted_string("skewed", 80, 4, 2203)
    z, ell = 4.0, 3
    index = build_index(source, z, kind="MWSA", ell=ell)
    data = index.data
    # Warm the byte-key cache, then update through the localized repair.
    piece = [int(code) for code in source.heavy_codes()[:ell]]
    data.forward.prefix_range_many([piece])
    assert data.forward._search_keys is not None
    cached_width = data.forward._search_width
    rng = np.random.default_rng(5)
    position = int(rng.integers(0, len(source)))
    row = np.zeros(source.sigma)
    row[int(rng.integers(source.sigma))] = 1.0
    report = index.apply_updates([(position, row)])
    if report.strategy == "localized":
        merged = index.data.forward
        if merged._search_keys is not None:
            # The fast two-run merge re-keys at (at least) the presort
            # prefix width, so the carried cache can be wider than the
            # query-seeded one — never narrower.
            assert merged._search_width >= cached_width
            assert len(merged._search_keys) == len(merged)
            # The carried keys must equal a from-scratch recomputation.
            fresh = build_index(source, z, kind="MWSA", ell=ell).data.forward
            fresh._batch_search_keys(merged._search_width)
            assert np.array_equal(merged._search_keys, fresh._search_keys)
    # Whatever the strategy, answers must stay oracle-exact.
    fresh = build_index(source, z, kind="MWSA", ell=ell)
    patterns = random_patterns(source, ell, 99)
    assert index.match_many(patterns) == fresh.match_many(patterns)
