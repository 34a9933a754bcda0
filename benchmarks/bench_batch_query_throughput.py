"""Batch query throughput — one ``match_many`` call vs one query per pattern.

Not a paper figure: this benchmark tracks what answering a whole batch at
once saves over answering it pattern by pattern.  The workload is a 1,000-pattern batch (70 % patterns
sampled from the z-estimation, 30 % uniformly random) over the synthetic
sparse-uncertainty dataset; the timed payloads are

* ``per-pattern`` — ``[index.locate(p) for p in batch]``: every pattern is
  its own single-pattern query, i.e. a batch of one on the same batch path,
  so this column carries the per-call cost (planning, minimizers, range
  search and verification set-up) once per pattern;
* ``batch``       — one ``index.match_many(batch)`` call, which deduplicates
  the batch and pays those fixed costs once.

Run under pytest-benchmark (``pytest benchmarks/ --benchmark-only``) or
standalone with tiny parameters for CI smoke tests::

    python benchmarks/bench_batch_query_throughput.py --length 600 --patterns 100
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

SOURCE_ROOT = Path(__file__).resolve().parent.parent / "src"
if str(SOURCE_ROOT) not in sys.path:  # allow running without installation
    sys.path.insert(0, str(SOURCE_ROOT))

import pytest

from repro.core.estimation import build_z_estimation
from repro.datasets.patterns import sample_random_patterns, sample_valid_patterns
from repro.datasets.synthetic import sparse_uncertainty_string
from repro.indexes import build_index

KINDS = ("MWSA", "MWST", "MWSA-G", "MWST-G")
DEFAULT_LENGTH = 4000
DEFAULT_PATTERNS = 1000
DEFAULT_Z = 8.0
DEFAULT_ELL = 16


def make_workload(length: int, pattern_count: int, z: float, ell: int):
    """The synthetic source, a shared estimation and the mixed pattern batch."""
    source = sparse_uncertainty_string(length, 4, delta=0.1, seed=11)
    estimation = build_z_estimation(source, z)
    valid_count = (7 * pattern_count) // 10
    patterns = sample_valid_patterns(
        source, z, m=ell, count=valid_count, estimation=estimation, seed=1
    )
    patterns += sample_random_patterns(
        source, m=ell, count=pattern_count - valid_count, seed=2
    )
    return source, estimation, patterns


def run_per_pattern(index, patterns):
    return [index.locate(pattern) for pattern in patterns]


def run_batch(index, patterns):
    return index.match_many(patterns)


@pytest.fixture(scope="module")
def batch_workload():
    return make_workload(DEFAULT_LENGTH, DEFAULT_PATTERNS, DEFAULT_Z, DEFAULT_ELL)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("mode", ("per-pattern", "batch"))
def test_batch_query_throughput(benchmark, batch_workload, kind, mode):
    source, estimation, patterns = batch_workload
    index = build_index(
        source, DEFAULT_Z, kind=kind, ell=DEFAULT_ELL, estimation=estimation
    )
    payload = run_per_pattern if mode == "per-pattern" else run_batch

    results = benchmark(payload, index, patterns)

    benchmark.extra_info["kind"] = kind
    benchmark.extra_info["mode"] = mode
    benchmark.extra_info["patterns"] = len(patterns)
    benchmark.extra_info["patterns_per_second"] = round(
        len(patterns) / benchmark.stats["mean"], 1
    )
    assert len(results) == len(patterns)


def main(argv=None) -> int:
    """Standalone per-pattern vs batch comparison (patterns/sec and speedups)."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--length", type=int, default=DEFAULT_LENGTH)
    parser.add_argument("--patterns", type=int, default=DEFAULT_PATTERNS)
    parser.add_argument("--z", type=float, default=DEFAULT_Z)
    parser.add_argument("--ell", type=int, default=DEFAULT_ELL)
    parser.add_argument("--kinds", nargs="*", default=list(KINDS))
    arguments = parser.parse_args(argv)

    source, estimation, patterns = make_workload(
        arguments.length, arguments.patterns, arguments.z, arguments.ell
    )
    print(
        f"workload: n={len(source)}, z={arguments.z:g}, ell={arguments.ell}, "
        f"{len(patterns)} patterns"
    )
    for kind in arguments.kinds:
        index = build_index(
            source, arguments.z, kind=kind, ell=arguments.ell, estimation=estimation
        )
        index.match_many(patterns[:5])  # warm the caches outside the timers
        started = time.perf_counter()
        per_pattern = run_per_pattern(index, patterns)
        mid = time.perf_counter()
        batch = run_batch(index, patterns)
        finished = time.perf_counter()
        if per_pattern != batch:
            print(f"{kind}: MISMATCH between per-pattern and batch results")
            return 1
        per_pattern_rate = len(patterns) / (mid - started)
        batch_rate = len(patterns) / (finished - mid)
        print(
            f"{kind}: per-pattern {per_pattern_rate:,.0f} pat/s, "
            f"batch {batch_rate:,.0f} pat/s, "
            f"speedup {batch_rate / per_pattern_rate:.1f}x"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
