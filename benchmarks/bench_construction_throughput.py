"""Construction-throughput benchmark — calibrated build times of every variant.

Not a paper figure: this benchmark tracks the construction pipeline
(vectorised z-estimation, radix-sorted leaf arrays, CSR tries, grid levels)
on a synthetic sparse-uncertainty source (default n = 20,000).  It builds
every index variant plus one sharded build and reports, per build:

* the wall-clock seconds of the build;
* the median time of a fixed CPU-bound calibration task sampled right
  before and right after the build;
* their ratio, the **normalised build time**: the build's cost in
  calibration tasks.  A change to the program moves it; a slower or busier
  machine moves both sides and mostly cancels out.

Each build is repeated (round-robin over the variants, so drift spreads
evenly) and the median normalised time is reported.  Two families are
summed: the monolithic minimizer family (MWST, MWSA, MWST-G, MWSA-G) and
the tree family (WST, MWST).  Every variant must answer a shared pattern
batch identically, and so must each index after a store round-trip, whose
save time and median load time (over the same number of repeats) give the
reload rows.  Peak construction memory is measured
per build with ``tracemalloc`` in a separate untimed pass.
``check_construction_regression.py`` gates a fresh ``--json`` run against
the committed ``BENCH_construction.json``.  Run under pytest-benchmark
(``pytest benchmarks/ --benchmark-only``) or standalone::

    python benchmarks/bench_construction_throughput.py --length 20000
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

SOURCE_ROOT = Path(__file__).resolve().parent.parent / "src"
if str(SOURCE_ROOT) not in sys.path:  # allow running without installation
    sys.path.insert(0, str(SOURCE_ROOT))

import pytest

from repro.bench.measure import peak_rss_bytes
from repro.datasets.patterns import sample_random_patterns, sample_valid_patterns
from repro.datasets.synthetic import sparse_uncertainty_string
from repro.indexes import build_index

DEFAULT_LENGTH = 20_000
DEFAULT_Z = 8.0
DEFAULT_ELL = 16
DEFAULT_SHARDS = 8
DEFAULT_PATTERNS = 100
#: Every monolithic kind (the rows, and the store reload rows).
ALL_MONOLITHIC_KINDS = ("WST", "WSA", "MWST", "MWSA", "MWST-G", "MWSA-G", "MWST-SE")
#: The families whose normalised build times are summed and gated.
FAMILIES = {
    "minimizer": ("MWST", "MWSA", "MWST-G", "MWSA-G"),
    "tree": ("WST", "MWST"),
}
#: Timed builds (and store reloads) per variant; medians are reported.
REPEATS = 3
#: Calibration samples taken right before and right after each timed build.
CALIBRATION_SAMPLES = 15


def make_workload(length: int, pattern_count: int, z: float, ell: int):
    source = sparse_uncertainty_string(length, 4, delta=0.1, seed=17)
    valid = (7 * pattern_count) // 10
    patterns = sample_valid_patterns(source, z, m=ell, count=valid, seed=5)
    patterns += sample_random_patterns(
        source, m=ell, count=pattern_count - valid, seed=6
    )
    return source, patterns


def build_variant(source, z, ell, kind, shards=None):
    """One full construction, z-estimation included."""
    if shards is not None:
        return build_index(
            source, z, kind=kind, ell=ell, shards=shards, max_pattern_len=2 * ell
        )
    return build_index(source, z, kind=kind, ell=ell)


def calibration_task() -> int:
    """A fixed piece of interpreter work, about a millisecond: integer
    arithmetic, tuple-keyed dict inserts and a keyed sort."""
    total = 0
    for k in range(4000):
        total += k * k % 7
    table = {}
    for k in range(800):
        table[(k, k % 7)] = [k]
    return total + len(sorted(table, key=lambda key: -key[0]))


def calibration_samples(count: int) -> list[float]:
    """Wall-clock seconds of ``count`` runs of :func:`calibration_task`.

    The cyclic garbage collector is paused meanwhile: its passes scan every
    live object, so they would make the samples depend on how many objects
    the previous builds left alive rather than on the machine's speed.
    """
    samples = []
    gc.disable()
    try:
        for _ in range(count):
            started = time.perf_counter()
            calibration_task()
            samples.append(time.perf_counter() - started)
    finally:
        gc.enable()
    return samples


def calibrated(builder):
    """Run ``builder`` between two calibration bursts.

    Returns ``(result, seconds, calibration seconds)``: the build's wall
    time and the median calibration time of the samples around it.
    """
    before = calibration_samples(CALIBRATION_SAMPLES)
    started = time.perf_counter()
    result = builder()
    seconds = time.perf_counter() - started
    after = calibration_samples(CALIBRATION_SAMPLES)
    return result, seconds, statistics.median(before + after)


def traced_peak_mb(builder) -> float:
    """Peak tracemalloc bytes of one build, in MB (separate untimed pass)."""
    tracemalloc.start()
    builder()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak / 1e6


# --------------------------------------------------------------------------- #
# pytest-benchmark entry points (tiny workload)                                #
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def construction_workload():
    return make_workload(4_000, 30, DEFAULT_Z, DEFAULT_ELL)


@pytest.mark.parametrize("kind", ["MWSA", "MWST", "MWSA-G", "MWST-SE"])
def test_construction_fast_path(benchmark, construction_workload, kind):
    source, _ = construction_workload
    index = benchmark(lambda: build_variant(source, DEFAULT_Z, DEFAULT_ELL, kind))
    benchmark.extra_info["kind"] = kind
    benchmark.extra_info["index_size_mb"] = round(
        index.stats.index_size_bytes / 1e6, 4
    )


def test_variants_agree(construction_workload):
    source, patterns = construction_workload
    answers = [
        build_variant(source, DEFAULT_Z, DEFAULT_ELL, kind).match_many(patterns)
        for kind in ("WSA", "MWSA", "MWST-G")
    ]
    assert answers[0] == answers[1] == answers[2]


# --------------------------------------------------------------------------- #
# standalone runner                                                            #
# --------------------------------------------------------------------------- #
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--length", type=int, default=DEFAULT_LENGTH)
    parser.add_argument("--z", type=float, default=DEFAULT_Z)
    parser.add_argument("--ell", type=int, default=DEFAULT_ELL)
    parser.add_argument("--shards", type=int, default=DEFAULT_SHARDS)
    parser.add_argument("--patterns", type=int, default=DEFAULT_PATTERNS)
    parser.add_argument(
        "--skip-memory", action="store_true",
        help="skip the separate tracemalloc peak-memory pass",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable report")
    arguments = parser.parse_args(argv)

    source, patterns = make_workload(
        arguments.length, arguments.patterns, arguments.z, arguments.ell
    )
    if not arguments.json:
        print(
            f"workload: n={len(source)}, z={arguments.z:g}, ell={arguments.ell}, "
            f"shards={arguments.shards}, {len(patterns)} patterns, "
            f"{os.cpu_count()} cpus, {REPEATS} repeats"
        )

    # Warm caches (numpy kernels, dataset pages) so the first timed build is
    # not charged the process's one-off costs.
    warmup_source, _ = make_workload(min(1_000, arguments.length), 4, arguments.z, arguments.ell)
    build_variant(warmup_source, arguments.z, arguments.ell, "MWSA")
    calibration_samples(CALIBRATION_SAMPLES)

    targets = [(kind, None) for kind in ALL_MONOLITHIC_KINDS]
    targets.append(("MWSA", arguments.shards))  # the sharded build
    labels = [f"SHARDED[{kind}]x{shards}" if shards else kind for kind, shards in targets]
    samples: dict[str, list[tuple[float, float]]] = {label: [] for label in labels}
    built: dict[str, object] = {}
    for _ in range(REPEATS):
        for label, (kind, shards) in zip(labels, targets):
            index, seconds, calibration = calibrated(
                lambda kind=kind, shards=shards: build_variant(
                    source, arguments.z, arguments.ell, kind, shards
                )
            )
            samples[label].append((seconds, calibration))
            built[label] = index

    expected = built["WSA"].match_many(patterns)
    for label in labels:
        if built[label].match_many(patterns) != expected:
            print(f"MISMATCH: {label} answers differ from WSA")
            return 1

    rows = []
    normalized: dict[str, float] = {}
    for label, (kind, shards) in zip(labels, targets):
        runs = samples[label]
        normalized[label] = statistics.median(seconds / calib for seconds, calib in runs)
        row = {
            "kind": label,
            "build_seconds": statistics.median(seconds for seconds, _ in runs),
            "calibration_seconds": statistics.median(calib for _, calib in runs),
            "normalized": normalized[label],
        }
        if not arguments.skip_memory:
            row["peak_mb"] = traced_peak_mb(
                lambda kind=kind, shards=shards: build_variant(
                    source, arguments.z, arguments.ell, kind, shards
                )
            )
        rows.append(row)
    families = {
        name: {"kinds": list(kinds), "normalized": sum(normalized[kind] for kind in kinds)}
        for name, kinds in FAMILIES.items()
    }

    # Store round-trip rows: persisted CSR tries and grid levels mean a
    # reload re-derives nothing, so load time should sit far below build time.
    from repro.io.store import load_index, save_index

    reload_rows = []
    with tempfile.TemporaryDirectory() as directory:
        for kind in ALL_MONOLITHIC_KINDS:
            path = os.path.join(directory, f"{kind}.idx")
            started = time.perf_counter()
            save_index(path, built[kind])
            save_seconds = time.perf_counter() - started
            load_samples = []
            for _ in range(REPEATS):
                started = time.perf_counter()
                loaded = load_index(path)
                load_samples.append(time.perf_counter() - started)
            load_seconds = statistics.median(load_samples)
            if loaded.match_many(patterns) != expected:
                print(f"MISMATCH: {kind} answers differ after a store round-trip")
                return 1
            build_seconds = statistics.median(seconds for seconds, _ in samples[kind])
            reload_rows.append({
                "kind": kind,
                "build_seconds": build_seconds,
                "save_seconds": save_seconds,
                "load_seconds": load_seconds,
                "reload_speedup": (
                    build_seconds / load_seconds if load_seconds > 0 else None
                ),
            })

    from repro.bench.metadata import run_metadata

    report = {
        "schema": "repro.bench.construction_throughput.v3",
        "metadata": run_metadata(),
        "length": len(source),
        "z": arguments.z,
        "ell": arguments.ell,
        "shards": arguments.shards,
        "patterns": len(patterns),
        "repeats": REPEATS,
        "rows": rows,
        "families": families,
        "reload_rows": reload_rows,
        "peak_rss_bytes": peak_rss_bytes(),
    }
    if arguments.json:
        print(json.dumps(report, indent=2))
        return 0
    for row in rows:
        parts = [
            f"{row['kind']}:",
            f"build={row['build_seconds']:.3f}s",
            f"calibration={row['calibration_seconds'] * 1e3:.3f}ms",
            f"normalized={row['normalized']:.0f}",
        ]
        if "peak_mb" in row:
            parts.append(f"peak {row['peak_mb']:.1f}MB")
        print("  ".join(parts))
    for name, family in families.items():
        print(f"{name} family ({'+'.join(family['kinds'])}): normalized={family['normalized']:.0f}")
    for row in reload_rows:
        print(
            f"{row['kind']}: build={row['build_seconds']:.3f}s  "
            f"save={row['save_seconds']:.3f}s  load={row['load_seconds']:.3f}s  "
            f"reload-speedup={row['reload_speedup']:.1f}x"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
