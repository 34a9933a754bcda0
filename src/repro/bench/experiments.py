"""One experiment per table/figure of the paper's evaluation (Section 7).

Every function returns an :class:`ExperimentResult` whose ``rows`` are flat
dictionaries (one per data point) and whose ``text`` renders the same series
the paper plots.  The sweep values come from a :class:`BenchScale`, so the
same code runs in CI (``tiny``), on a laptop (``small``) or at the paper's
parameters (``paper``).

Expected qualitative outcomes, as the paper reports them: the minimizer
indexes are 1–2 orders of magnitude smaller than WST/WSA and shrink as ℓ
grows; arrays beat trees; MWST-SE needs by far the least construction
space; MWSA queries are competitive with WSA.  No captured run is committed
yet; compare the printed series against the paper's Section 7 figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.estimation import build_z_estimation
from ..datasets.registry import DATASETS, dataset_characteristics
from ..datasets.rssi import rssi_family, rssi_like
from ..indexes.space import DEFAULT_SPACE_MODEL
from .harness import ARRAY_KINDS, SCALES, SE_KINDS, TREE_KINDS, BenchScale, build_index_suite, query_workload, sweep_rows
from .measure import timed
from .report import format_series, format_table

__all__ = [
    "ExperimentResult",
    "table2",
    "fig06",
    "fig07",
    "fig08",
    "fig09",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "shardscale",
    "servemix",
    "ALL_EXPERIMENTS",
    "run_all",
]

GENOMIC_DATASETS = ("SARS", "EFM", "HUMAN")
SPACE_DATASETS = ("EFM", "HUMAN")


@dataclass
class ExperimentResult:
    """Rows and rendered text of one reproduced table/figure."""

    experiment: str
    description: str
    rows: list = field(default_factory=list)
    text: str = ""

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.text


def _resolve_scale(scale) -> BenchScale:
    if isinstance(scale, BenchScale):
        return scale
    return SCALES[scale]


def _series_text(title: str, rows, x_column: str, value_column: str) -> str:
    blocks = []
    datasets = []
    for row in rows:
        if row["dataset"] not in datasets:
            datasets.append(row["dataset"])
    for dataset in datasets:
        subset = [row for row in rows if row["dataset"] == dataset]
        blocks.append(
            format_series(
                f"{title} — {dataset}", subset, x_column, "index", value_column
            )
        )
    return "\n".join(blocks)


def _sweep(
    scale: BenchScale,
    datasets,
    kinds,
    *,
    vary: str,
    value_column: str,
    with_queries: bool = False,
    trace_memory: bool = False,
    title: str,
    experiment: str,
    description: str,
) -> ExperimentResult:
    """Shared ℓ-sweep / z-sweep runner behind most figures.

    ``trace_memory`` runs every build under the harness's peak-memory
    tracking (tracemalloc + RSS high-water mark), so the space figures
    report measured peaks next to the space-model accounting.
    """
    rows = []
    for dataset_name in datasets:
        source = scale.dataset(dataset_name)
        if vary == "ell":
            sweep_values = scale.ell_values
        else:
            sweep_values = scale.zs(dataset_name)
        for value in sweep_values:
            ell = value if vary == "ell" else scale.default_ell
            z = scale.default_z(dataset_name) if vary == "ell" else value
            if ell > len(source):
                continue
            measurements = build_index_suite(
                source, z, ell, kinds, trace_memory=trace_memory
            )
            patterns = None
            if with_queries:
                patterns = query_workload(
                    source, z, m=ell, count=scale.pattern_count, seed=0
                )
            rows.extend(
                sweep_rows(
                    measurements,
                    {"dataset": dataset_name, "ell": ell, "z": z},
                    patterns=patterns,
                )
            )
    x_column = vary
    text = _series_text(title, rows, x_column, value_column)
    return ExperimentResult(experiment, description, rows, text)


# --------------------------------------------------------------------------- #
# Table 2                                                                      #
# --------------------------------------------------------------------------- #
def table2(scale="tiny") -> ExperimentResult:
    """Table 2: dataset characteristics and z-estimation sizes."""
    scale = _resolve_scale(scale)
    rows = []
    for name in DATASETS:
        characteristics = dataset_characteristics(
            name, scale.dataset_lengths.get(name)
        )
        source = scale.dataset(name)
        z = scale.default_z(name)
        estimation = build_z_estimation(source, z)
        model = DEFAULT_SPACE_MODEL
        estimation_mb = (
            model.codes(estimation.width * estimation.length)
            + model.words(estimation.width * estimation.length)
        ) / 1e6
        characteristics.update(
            {"bench_z": z, "z_estimation_mb": estimation_mb, "delta_percent": 100 * source.delta}
        )
        rows.append(characteristics)
    text = "Table 2 — dataset characteristics\n" + format_table(
        rows,
        ["name", "length", "paper_length", "sigma", "delta_percent", "bench_z", "z_estimation_mb"],
    )
    return ExperimentResult("table2", "Dataset characteristics", rows, text)


# --------------------------------------------------------------------------- #
# Index size (Figs. 6 and 7)                                                   #
# --------------------------------------------------------------------------- #
def fig06(scale="tiny") -> ExperimentResult:
    """Fig. 6: index size (MB) vs ℓ for the tree and array index families."""
    scale = _resolve_scale(scale)
    return _sweep(
        scale,
        GENOMIC_DATASETS,
        TREE_KINDS + ARRAY_KINDS,
        vary="ell",
        value_column="index_size_mb",
        title="Fig. 6 — index size (MB) vs ell",
        experiment="fig06",
        description="Index size vs ell",
    )


def fig07(scale="tiny") -> ExperimentResult:
    """Fig. 7: index size (MB) vs z."""
    scale = _resolve_scale(scale)
    return _sweep(
        scale,
        GENOMIC_DATASETS,
        TREE_KINDS + ARRAY_KINDS,
        vary="z",
        value_column="index_size_mb",
        title="Fig. 7 — index size (MB) vs z",
        experiment="fig07",
        description="Index size vs z",
    )


# --------------------------------------------------------------------------- #
# Construction space (Figs. 8 and 9)                                           #
# --------------------------------------------------------------------------- #
def fig08(scale="tiny") -> ExperimentResult:
    """Fig. 8: construction space (MB) vs ℓ."""
    scale = _resolve_scale(scale)
    return _sweep(
        scale,
        SPACE_DATASETS,
        TREE_KINDS + ARRAY_KINDS,
        vary="ell",
        value_column="construction_space_mb",
        trace_memory=True,
        title="Fig. 8 — construction space (MB) vs ell",
        experiment="fig08",
        description="Construction space vs ell",
    )


def fig09(scale="tiny") -> ExperimentResult:
    """Fig. 9: construction space (MB) vs z."""
    scale = _resolve_scale(scale)
    return _sweep(
        scale,
        SPACE_DATASETS,
        TREE_KINDS + ARRAY_KINDS,
        vary="z",
        value_column="construction_space_mb",
        trace_memory=True,
        title="Fig. 9 — construction space (MB) vs z",
        experiment="fig09",
        description="Construction space vs z",
    )


# --------------------------------------------------------------------------- #
# Query time (Figs. 10 and 11)                                                 #
# --------------------------------------------------------------------------- #
def fig10(scale="tiny") -> ExperimentResult:
    """Fig. 10: average query time (µs) vs ℓ (patterns of length m = ℓ)."""
    scale = _resolve_scale(scale)
    return _sweep(
        scale,
        GENOMIC_DATASETS,
        TREE_KINDS + ARRAY_KINDS,
        vary="ell",
        value_column="avg_query_us",
        with_queries=True,
        title="Fig. 10 — average query time (us) vs ell",
        experiment="fig10",
        description="Query time vs ell",
    )


def fig11(scale="tiny") -> ExperimentResult:
    """Fig. 11: average query time (µs) vs z."""
    scale = _resolve_scale(scale)
    return _sweep(
        scale,
        GENOMIC_DATASETS,
        TREE_KINDS + ARRAY_KINDS,
        vary="z",
        value_column="avg_query_us",
        with_queries=True,
        title="Fig. 11 — average query time (us) vs z",
        experiment="fig11",
        description="Query time vs z",
    )


# --------------------------------------------------------------------------- #
# Construction time (Fig. 12)                                                  #
# --------------------------------------------------------------------------- #
def fig12(scale="tiny") -> ExperimentResult:
    """Fig. 12: construction time (s) vs ℓ and vs z (EFM)."""
    scale = _resolve_scale(scale)
    ell_part = _sweep(
        scale,
        ("EFM",),
        TREE_KINDS + ARRAY_KINDS,
        vary="ell",
        value_column="construction_seconds",
        title="Fig. 12(a,b) — construction time (s) vs ell",
        experiment="fig12",
        description="Construction time vs ell",
    )
    z_part = _sweep(
        scale,
        ("EFM",),
        TREE_KINDS + ARRAY_KINDS,
        vary="z",
        value_column="construction_seconds",
        title="Fig. 12(c,d) — construction time (s) vs z",
        experiment="fig12",
        description="Construction time vs z",
    )
    rows = ell_part.rows + z_part.rows
    text = ell_part.text + "\n" + z_part.text
    return ExperimentResult("fig12", "Construction time (EFM)", rows, text)


# --------------------------------------------------------------------------- #
# Space-efficient construction (Figs. 13 and 15)                               #
# --------------------------------------------------------------------------- #
def fig13(scale="tiny") -> ExperimentResult:
    """Fig. 13: construction space (MB) incl. MWST-SE vs ℓ and z."""
    scale = _resolve_scale(scale)
    ell_part = _sweep(
        scale,
        SPACE_DATASETS,
        SE_KINDS,
        vary="ell",
        value_column="construction_space_mb",
        trace_memory=True,
        title="Fig. 13(a,b) — construction space (MB) vs ell",
        experiment="fig13",
        description="SE construction space vs ell",
    )
    z_part = _sweep(
        scale,
        SPACE_DATASETS,
        SE_KINDS,
        vary="z",
        value_column="construction_space_mb",
        trace_memory=True,
        title="Fig. 13(c,d) — construction space (MB) vs z",
        experiment="fig13",
        description="SE construction space vs z",
    )
    rows = ell_part.rows + z_part.rows
    return ExperimentResult("fig13", "SE construction space", rows, ell_part.text + "\n" + z_part.text)


def fig15(scale="tiny") -> ExperimentResult:
    """Fig. 15: construction time (s) incl. MWST-SE vs ℓ and z."""
    scale = _resolve_scale(scale)
    ell_part = _sweep(
        scale,
        SPACE_DATASETS,
        SE_KINDS,
        vary="ell",
        value_column="construction_seconds",
        title="Fig. 15(a,b) — construction time (s) vs ell",
        experiment="fig15",
        description="SE construction time vs ell",
    )
    z_part = _sweep(
        scale,
        SPACE_DATASETS,
        SE_KINDS,
        vary="z",
        value_column="construction_seconds",
        title="Fig. 15(c,d) — construction time (s) vs z",
        experiment="fig15",
        description="SE construction time vs z",
    )
    rows = ell_part.rows + z_part.rows
    return ExperimentResult("fig15", "SE construction time", rows, ell_part.text + "\n" + z_part.text)


# --------------------------------------------------------------------------- #
# RSSI experiments (Figs. 14 and 16)                                           #
# --------------------------------------------------------------------------- #
def _rssi_sweep(scale: BenchScale, value_column: str, experiment: str, title: str) -> ExperimentResult:
    kinds = ("WSA", "MWST-SE")
    rows = []
    base_length = scale.dataset_lengths.get("RSSI", 1_200)
    base = rssi_like(base_length, seed=23)
    default_z = scale.default_z("RSSI")
    # (a) ell sweep and (b) z sweep on the base RSSI string.
    for ell in scale.ell_values:
        if ell > len(base):
            continue
        measurements = build_index_suite(base, default_z, ell, kinds)
        rows.extend(
            sweep_rows(
                measurements,
                {"dataset": "RSSI", "sweep": "ell", "ell": ell, "z": default_z,
                 "sigma": base.sigma, "n": len(base)},
            )
        )
    for z in scale.zs("RSSI"):
        measurements = build_index_suite(base, z, scale.default_ell, kinds)
        rows.extend(
            sweep_rows(
                measurements,
                {"dataset": "RSSI", "sweep": "z", "ell": scale.default_ell, "z": z,
                 "sigma": base.sigma, "n": len(base)},
            )
        )
    # (c) alphabet-size sweep (RSSI_{1,sigma}).
    for sigma in scale.rssi_sigma_values:
        variant = rssi_family(base, sigma=sigma if sigma != base.sigma else None)
        measurements = build_index_suite(variant, default_z, scale.default_ell, kinds)
        rows.extend(
            sweep_rows(
                measurements,
                {"dataset": "RSSI", "sweep": "sigma", "ell": scale.default_ell,
                 "z": default_z, "sigma": variant.sigma, "n": len(variant)},
            )
        )
    # (d) length sweep (RSSI_{n,32}).
    for factor in scale.rssi_length_factors:
        variant = rssi_family(base, sigma=32, length_factor=factor)
        measurements = build_index_suite(variant, default_z, scale.default_ell, kinds)
        rows.extend(
            sweep_rows(
                measurements,
                {"dataset": "RSSI", "sweep": "n", "ell": scale.default_ell,
                 "z": default_z, "sigma": variant.sigma, "n": len(variant)},
            )
        )
    blocks = []
    for sweep_name, x_column in (("ell", "ell"), ("z", "z"), ("sigma", "sigma"), ("n", "n")):
        subset = [row for row in rows if row["sweep"] == sweep_name]
        if subset:
            blocks.append(
                format_series(
                    f"{title} — vs {sweep_name}", subset, x_column, "index", value_column
                )
            )
    return ExperimentResult(experiment, title, rows, "\n".join(blocks))


def fig14(scale="tiny") -> ExperimentResult:
    """Fig. 14: construction space on RSSI vs ℓ, z, σ and n (WSA vs MWST-SE)."""
    return _rssi_sweep(
        _resolve_scale(scale),
        "construction_space_mb",
        "fig14",
        "Fig. 14 — RSSI construction space (MB)",
    )


def fig16(scale="tiny") -> ExperimentResult:
    """Fig. 16: construction time on RSSI vs ℓ, z, σ and n (WSA vs MWST-SE)."""
    return _rssi_sweep(
        _resolve_scale(scale),
        "construction_seconds",
        "fig16",
        "Fig. 16 — RSSI construction time (s)",
    )


# --------------------------------------------------------------------------- #
# Sharded construction and the index store (not a paper figure)                 #
# --------------------------------------------------------------------------- #
def shardscale(scale="tiny") -> ExperimentResult:
    """Build throughput vs shard count/workers, plus store save/load times.

    Not a paper figure: this experiment tracks the scaling behaviour of the
    sharded index architecture.  Every configuration builds the same
    synthetic sparse-uncertainty input; the single-shard serial build is the
    baseline every speedup column refers to.  The last rows measure the
    binary index store: saving the largest sharded build, reloading it
    (memory-mapped) and verifying the reloaded index answers a spot-check
    query batch identically.
    """
    import os
    import tempfile

    from ..datasets.synthetic import sparse_uncertainty_string
    from ..indexes import build_index
    from ..io.store import load_index, save_index

    scale = _resolve_scale(scale)
    z, ell, kind = 8.0, 16, "MWSA"
    source = sparse_uncertainty_string(scale.shard_length, 4, delta=0.1, seed=11)
    patterns = query_workload(source, z, m=ell, count=scale.pattern_count, seed=0)
    rows = []
    baseline_seconds = None
    built = None
    for shard_count in scale.shard_counts:
        for workers in scale.shard_workers:
            if workers > shard_count:
                continue
            index, seconds = timed(
                build_index,
                source,
                z,
                kind=kind,
                ell=ell,
                shards=shard_count,
                workers=workers,
            )
            if baseline_seconds is None:
                baseline_seconds = seconds
            built = index
            rows.append(
                {
                    "dataset": "SYN-SPARSE",
                    "n": len(source),
                    "index": kind,
                    "shards": shard_count,
                    "workers": workers,
                    "construction_seconds": seconds,
                    "positions_per_second": len(source) / seconds if seconds else None,
                    "speedup_vs_single": baseline_seconds / seconds if seconds else None,
                    "index_size_mb": index.stats.index_size_bytes / 1e6,
                }
            )
    store_rows = []
    if built is not None:
        handle, path = tempfile.mkstemp(suffix=".idx")
        os.close(handle)
        try:
            _, save_seconds = timed(save_index, path, built)
            loaded, load_seconds = timed(load_index, path)
            loaded_results, query_seconds = timed(loaded.match_many, patterns)
            store_rows.append(
                {
                    "dataset": "SYN-SPARSE",
                    "n": len(source),
                    "store_bytes": os.path.getsize(path),
                    "save_seconds": save_seconds,
                    "load_seconds": load_seconds,
                    "loaded_query_seconds": query_seconds,
                    "loaded_matches_built": loaded_results
                    == built.match_many(patterns),
                }
            )
        finally:
            os.unlink(path)
    text = "Shard scaling — build throughput\n" + format_table(
        rows,
        ["shards", "workers", "construction_seconds", "positions_per_second",
         "speedup_vs_single", "index_size_mb"],
    )
    if store_rows:
        text += "\nIndex store — save/load round trip\n" + format_table(
            store_rows,
            ["store_bytes", "save_seconds", "load_seconds",
             "loaded_query_seconds", "loaded_matches_built"],
        )
    return ExperimentResult(
        "shardscale", "Sharded build scaling and index store", rows + store_rows, text
    )


# --------------------------------------------------------------------------- #
# Serving mix through the cached QueryService (not a paper figure)              #
# --------------------------------------------------------------------------- #
def servemix(scale="tiny") -> ExperimentResult:
    """Skewed serving traffic through ``QueryService``, cache on vs off.

    Not a paper figure: this experiment tracks the serving layer.  A Zipf
    request stream (a few hot patterns dominating, the shape of production
    query traffic) is answered through a :class:`~repro.service.QueryService`
    twice — with the LRU result cache disabled and enabled — and the rows
    report throughput, hit rate and evictions.  The cached run must answer
    identically and, on any skewed mix, faster.
    """
    import time

    from ..datasets.patterns import (
        sample_random_patterns,
        sample_valid_patterns,
        sample_zipf_workload,
    )
    from ..datasets.synthetic import sparse_uncertainty_string
    from ..indexes import build_index
    from ..service import QueryService

    scale = _resolve_scale(scale)
    z, ell, kind = 8.0, 16, "MWSA"
    source = sparse_uncertainty_string(scale.shard_length, 4, delta=0.1, seed=11)
    index = build_index(source, z, kind=kind, ell=ell)
    pool_size = scale.serve_unique_patterns
    valid_count = (7 * pool_size) // 10
    pool = sample_valid_patterns(source, z, m=ell, count=valid_count, seed=1)
    pool += sample_random_patterns(source, m=ell, count=pool_size - valid_count, seed=2)
    requests = sample_zipf_workload(
        pool, scale.serve_request_count, s=scale.serve_zipf_s, seed=7
    )
    rows = []
    baseline_results = None
    for enabled in (False, True):
        service = QueryService(
            index, cache_size=2 * pool_size, cache_enabled=enabled
        )
        started = time.perf_counter()
        results = [service.query(pattern) for pattern in requests]
        elapsed = time.perf_counter() - started
        answers = [result.positions for result in results]
        if baseline_results is None:
            baseline_results = answers
        stats = service.stats()
        rows.append(
            {
                "dataset": "SYN-SPARSE",
                "n": len(source),
                "index": kind,
                "cache": "on" if enabled else "off",
                "requests": len(requests),
                "unique_patterns": pool_size,
                "zipf_s": scale.serve_zipf_s,
                "elapsed_seconds": elapsed,
                "queries_per_second": len(requests) / elapsed if elapsed else None,
                "hit_rate": stats["hit_rate"],
                "evictions": stats["evictions"],
                "matches_uncached": answers == baseline_results,
            }
        )
    text = "Serving mix — QueryService, Zipf traffic, cache off vs on\n" + format_table(
        rows,
        ["cache", "requests", "unique_patterns", "queries_per_second",
         "hit_rate", "evictions", "matches_uncached"],
    )
    return ExperimentResult(
        "servemix", "Cached serving throughput on a skewed pattern mix", rows, text
    )


#: All experiments in paper order.
ALL_EXPERIMENTS = {
    "table2": table2,
    "fig06": fig06,
    "fig07": fig07,
    "fig08": fig08,
    "fig09": fig09,
    "fig10": fig10,
    "fig11": fig11,
    "fig12": fig12,
    "fig13": fig13,
    "fig14": fig14,
    "fig15": fig15,
    "fig16": fig16,
    "shardscale": shardscale,
    "servemix": servemix,
}


def run_all(scale="tiny", experiments=None) -> list[ExperimentResult]:
    """Run (a subset of) the experiment suite and return the results."""
    names = list(experiments) if experiments else list(ALL_EXPERIMENTS)
    results = []
    for name in names:
        results.append(ALL_EXPERIMENTS[name](scale))
    return results
