"""Regression gate: compare a fresh construction-benchmark run to the snapshot.

``BENCH_construction.json`` (committed at the repository root) holds one
``bench_construction_throughput.py --json`` report per workload length
(``runs``): the reference workload n = 20,000 and the CI length n = 4,000.
This checker picks the snapshot run at the fresh run's length and compares
**normalised build times** — each build's wall time divided by the median
time of a fixed calibration task sampled around it, i.e. the build's cost
in calibration tasks — so the same code on a slower machine lands close to
its snapshot.  Three kinds of bands:

* **every row and family** (the monolithic minimizer family MWST+MWSA+
  MWST-G+MWSA-G and the tree family WST+MWST): fresh ≤ snapshot /
  ``--min-ratio`` (default 0.25, i.e. at most 4× the snapshot), generous
  enough for noisy shared runners, tight enough to catch a stage silently
  falling back to a quadratic path;
* **full scale** (n = 20,000 only): the minimizer family at most 1.39×,
  the tree family at most 1.72× and the MWST-SE row at most 2.43× its
  snapshot.  These are the margins the earlier bars left in the n = 20,000
  snapshot they were measured on: the minimizer family built 4.17× faster
  than the per-leaf reference path against a 3× bar (4.17 / 3), the tree
  family 3.45× faster than the object-trie path against a 2× bar
  (3.45 / 2), and MWST-SE 3.47× faster than the segment-tree traversal it
  replaced against the 1 / 0.7 bar of a ≥ 30% gain (3.47 × 0.7);
* **reload speedups** (build seconds / load seconds) keep an *absolute*
  floor (default 2×): a reload that re-derived its tries or grid would land
  near 1×.

Usage::

    python benchmarks/bench_construction_throughput.py --length 4000 \\
        --shards 4 --patterns 40 --skip-memory --json > fresh.json
    python benchmarks/check_construction_regression.py \\
        --snapshot BENCH_construction.json --fresh fresh.json

To regenerate the snapshot, run the benchmark with ``--json`` at the full
length (default flags) and with the CI flags above, then combine::

    python -c 'import json, sys; print(json.dumps({"runs": [json.load(open(p))
        for p in sys.argv[1:]]}, indent=2))' full.json ci.json > BENCH_construction.json
"""

from __future__ import annotations

import argparse
import json
import sys

DEFAULT_MIN_RATIO = 0.25
DEFAULT_MIN_RELOAD_SPEEDUP = 2.0
#: Length of the reference workload, where the tighter family bands apply.
FULL_SCALE_LENGTH = 20_000
#: Fresh / snapshot ceilings of the family and row normalised times at full scale.
FULL_SCALE_FAMILY_BANDS = {"minimizer": 1.39, "tree": 1.72}
FULL_SCALE_ROW_BANDS = {"MWST-SE": 2.43}


def normalized_times(report: dict) -> dict[str, float]:
    """Normalised build time of every row and family of one report."""
    times = {f"rows/{row['kind']}": float(row["normalized"]) for row in report["rows"]}
    for name, family in report["families"].items():
        times[f"families/{name}"] = float(family["normalized"])
    return times


def reload_speedups(report: dict) -> dict[str, float]:
    """The reload speedups (gated on an absolute floor)."""
    return {
        f"reload_rows/{row['kind']}": float(row["reload_speedup"])
        for row in report.get("reload_rows", ())
        if row.get("reload_speedup") is not None
    }


def snapshot_run(snapshot: dict, length: int) -> dict | None:
    """The snapshot's report at ``length`` (None when it has none)."""
    for run in snapshot["runs"]:
        if run["length"] == length:
            return run
    return None


def compare(
    snapshot: dict,
    fresh: dict,
    min_ratio: float,
    min_reload_speedup: float,
) -> list[str]:
    """Violation messages; empty when the fresh run is within every band."""
    reference = snapshot_run(snapshot, fresh["length"])
    if reference is None:
        lengths = sorted(run["length"] for run in snapshot["runs"])
        return [f"no snapshot run at n={fresh['length']} (snapshot lengths: {lengths})"]
    violations = []
    for key in ("z", "ell"):
        if reference[key] != fresh[key]:
            violations.append(f"{key}: fresh {fresh[key]} != snapshot {reference[key]}")
    ceilings = {name: 1.0 / min_ratio for name in normalized_times(reference)}
    if fresh["length"] == FULL_SCALE_LENGTH:
        for name, band in FULL_SCALE_FAMILY_BANDS.items():
            ceilings[f"families/{name}"] = band
        for name, band in FULL_SCALE_ROW_BANDS.items():
            ceilings[f"rows/{name}"] = band
    fresh_times = normalized_times(fresh)
    for name, value in sorted(normalized_times(reference).items()):
        current = fresh_times.get(name)
        if current is None:
            violations.append(f"{name}: missing from the fresh run")
            continue
        ratio = current / value
        if ratio > ceilings[name]:
            violations.append(
                f"{name}: fresh normalised build time {current:.0f} is {ratio:.2f}x "
                f"the snapshot's {value:.0f} (band {ceilings[name]:g}x)"
            )
    fresh_reloads = reload_speedups(fresh)
    for name in sorted(reload_speedups(reference)):
        value = fresh_reloads.get(name)
        if value is None:
            violations.append(f"{name}: missing from the fresh run")
        elif value < min_reload_speedup:
            violations.append(
                f"{name}: fresh {value:.2f}x reload speedup is below the "
                f"{min_reload_speedup:g}x floor (reload may be re-deriving "
                f"its tries or grid)"
            )
    return violations


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--snapshot", required=True, help="committed BENCH_construction.json")
    parser.add_argument("--fresh", required=True, help="fresh --json run to check")
    parser.add_argument(
        "--min-ratio", type=float, default=DEFAULT_MIN_RATIO,
        help=f"fresh build speed (1 / normalised time) must reach this "
        f"fraction of the snapshot's (default {DEFAULT_MIN_RATIO:g})",
    )
    parser.add_argument(
        "--min-reload-speedup", type=float, default=DEFAULT_MIN_RELOAD_SPEEDUP,
        help=f"absolute floor on every reload speedup "
        f"(default {DEFAULT_MIN_RELOAD_SPEEDUP:g}x)",
    )
    arguments = parser.parse_args(argv)
    with open(arguments.snapshot, "r", encoding="utf-8") as handle:
        snapshot = json.load(handle)
    with open(arguments.fresh, "r", encoding="utf-8") as handle:
        fresh = json.load(handle)
    violations = compare(
        snapshot, fresh, arguments.min_ratio, arguments.min_reload_speedup
    )
    reference = snapshot_run(snapshot, fresh["length"]) or {"rows": [], "families": {}}
    compared = len(normalized_times(reference)) + len(reload_speedups(reference))
    if violations:
        print(f"REGRESSION: {len(violations)} of {compared} metrics out of band")
        for message in violations:
            print(f"  {message}")
        return 1
    full_scale = (
        f", full-scale family bands {FULL_SCALE_FAMILY_BANDS}, "
        f"row bands {FULL_SCALE_ROW_BANDS}"
        if fresh["length"] == FULL_SCALE_LENGTH
        else ""
    )
    print(
        f"OK: {compared} metrics within band at n={fresh['length']} "
        f"(min ratio {arguments.min_ratio:g}{full_scale}, reload floor "
        f"{arguments.min_reload_speedup:g}x)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
