"""Golden digests: every persisted construction array, pinned bit for bit.

For a fixed set of seeded inputs every index variant is built through the
production path and each array the store would persist (z-estimation
strings, property ends and checkpoints; forward/backward leaf arrays,
adjacent LCPs and the grid pairing; CSR trie arrays; grid range-tree
levels; WSA/WST suffix, LCP and rank arrays) is reduced to a sha256 over
its name, dtype, shape and bytes.  The digests are compared against the
committed ``golden_digests.json``; the store *file* is not digested because
its JSON header carries wall-clock construction seconds.

A construction change that alters any array fails here with the names of
the arrays that moved.  To regenerate the file after an intended change,
run this module as a script::

    PYTHONPATH=src python tests/test_golden_digests.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

SOURCE_ROOT = Path(__file__).resolve().parent.parent / "src"
if str(SOURCE_ROOT) not in sys.path:  # allow running as a script
    sys.path.insert(0, str(SOURCE_ROOT))

from test_differential_fuzz import random_weighted_string  # noqa: E402

from repro.core.alphabet import Alphabet  # noqa: E402
from repro.core.weighted_string import WeightedString  # noqa: E402
from repro.datasets.registry import load_dataset  # noqa: E402
from repro.datasets.synthetic import sparse_uncertainty_string  # noqa: E402
from repro.indexes import build_index  # noqa: E402
from repro.indexes.minimizer_core import LeafCollection  # noqa: E402
from repro.io.store import stored_arrays  # noqa: E402

GOLDEN_PATH = Path(__file__).resolve().parent / "golden_digests.json"

ALL_KINDS = ("WST", "WSA", "MWST", "MWSA", "MWST-G", "MWSA-G", "MWST-SE")

#: (name, style, n, sigma, z, ell, seed): the construction-parity sweep.
SWEEP = [
    ("skewed", "skewed", 72, 4, 4.0, 3, 1301),
    ("uniform", "uniform", 60, 3, 2.0, 3, 1402),
    ("degenerate", "degenerate", 84, 4, 5.5, 4, 1503),
    ("deep-z", "skewed", 64, 4, 8.0, 4, 1604),
]


def _sparse_source():
    """The sparse-uncertainty workload of the construction bench at n=4,000."""
    return sparse_uncertainty_string(4_000, 4, delta=0.1, seed=17)


def _efm_source():
    """EFM-like n=1,500: at z=32 the MWST-SE traversal branches deeply."""
    return load_dataset("EFM", 1_500)


def _wide_alphabet_source():
    """σ = 300: too wide for byte-packed sort keys."""
    rng = np.random.default_rng(21)
    sigma, n = 300, 60
    alphabet = Alphabet([f"s{i}" for i in range(sigma)])
    matrix = np.zeros((n, sigma))
    matrix[np.arange(n), rng.integers(0, sigma, n)] = 1.0
    fuzzy = rng.random(n) < 0.3
    matrix[fuzzy] = 0.0
    matrix[fuzzy, rng.integers(0, sigma, int(fuzzy.sum()))] = 0.6
    matrix[fuzzy, rng.integers(0, sigma, int(fuzzy.sum()))] += 0.4
    return WeightedString(matrix, alphabet, normalize=True)


def _cases():
    """``{case: (source factory, z, ell, kind, shards, narrow sort limits)}``."""
    cases = {}
    sources = [
        (
            f"sweep-{name}",
            lambda style=style, n=n, sigma=sigma, seed=seed: random_weighted_string(
                style, n, sigma, seed
            ),
            z,
            ell,
        )
        for name, style, n, sigma, z, ell, seed in SWEEP
    ]
    sources.append(("sparse4000", _sparse_source, 8.0, 16))
    for label, factory, z, ell in sources:
        for kind in ALL_KINDS:
            cases[f"{label}-{kind}"] = (factory, z, ell, kind, None, False)
        cases[f"{label}-MWSA-shards3"] = (factory, z, ell, "MWSA", 3, False)
    for seed in (31, 32):
        factory = lambda seed=seed: random_weighted_string("degenerate", 90, 3, seed)  # noqa: E731
        cases[f"narrow-sort-{seed}-MWST-G"] = (factory, 4.0, 3, "MWST-G", None, True)
    cases["sigma300-MWST-G"] = (_wide_alphabet_source, 3.0, 2, "MWST-G", None, False)
    cases["efm1500-z32-MWST-SE"] = (_efm_source, 32.0, 16, "MWST-SE", None, False)
    cases["sparse4000-ell8-MWST-SE"] = (_sparse_source, 8.0, 8, "MWST-SE", None, False)
    return cases


CASES = _cases()


def array_digest(name: str, array) -> str:
    """sha256 over an array's name, dtype, shape and bytes."""
    array = np.ascontiguousarray(array)
    digest = hashlib.sha256()
    digest.update(name.encode())
    digest.update(array.dtype.str.encode())
    digest.update(repr(tuple(array.shape)).encode())
    digest.update(array.tobytes())
    return digest.hexdigest()


def case_digests(case: str) -> dict[str, str]:
    """Digest of every stored array of one case's index (input matrix excluded)."""
    factory, z, ell, kind, shards, narrow = CASES[case]
    source = factory()
    saved = (LeafCollection.PRESORT_PREFIX, LeafCollection.SORT_WIDEN_LIMIT)
    if narrow:
        # Force the widening rounds and the exact-comparator fallback.
        LeafCollection.PRESORT_PREFIX, LeafCollection.SORT_WIDEN_LIMIT = 2, 4
    try:
        if shards is None:
            index = build_index(source, z, kind=kind, ell=ell)
        else:
            index = build_index(
                source, z, kind=kind, ell=ell, shards=shards, max_pattern_len=2 * ell
            )
        arrays = stored_arrays(index)
    finally:
        LeafCollection.PRESORT_PREFIX, LeafCollection.SORT_WIDEN_LIMIT = saved
    arrays.pop("source")
    return {name: array_digest(name, arrays[name]) for name in sorted(arrays)}


def _golden() -> dict[str, dict[str, str]]:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def test_golden_file_covers_every_case():
    assert sorted(_golden()) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_digests(case):
    expected = _golden()[case]
    actual = case_digests(case)
    missing = sorted(set(expected) - set(actual))
    extra = sorted(set(actual) - set(expected))
    changed = sorted(
        name for name in set(expected) & set(actual) if expected[name] != actual[name]
    )
    assert not (missing or extra or changed), (
        f"{case}: missing={missing} extra={extra} changed={changed}"
    )


def main() -> int:
    golden = {case: case_digests(case) for case in sorted(CASES)}
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    total = sum(len(digests) for digests in golden.values())
    print(f"wrote {total} digests over {len(golden)} cases to {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
