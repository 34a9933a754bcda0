"""The repository benchmark: build-g, build-se, query, update-mix and serve
workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload build-g --seed 1 --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` repeats the
timed phase with span-recording wrappers installed around each layer and
reports the per-layer metrics, the share of timed wall time the spans
cover, and the tracing overhead on every end-to-end metric.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Every workload reports the same end-to-end
metrics, each meaning what it measures on that workload (``README.md``).
Workload parameters live in ``perfbench/workloads.py``.
"""

from __future__ import annotations

import argparse
import os
import platform
import sys

from common import CPUS, END_TO_END, PER_LAYER, RUN_SECONDS, SRC, Run, Workdir, log


def environment() -> dict:
    """The fields of ``repro.bench.metadata.run_metadata`` a run depends on.

    Collected directly: ``run_metadata`` also asks git for the commit, which
    searches the directories above the checkout.
    """
    import numpy as np

    from repro._kernels import engine

    return {
        "nproc": os.cpu_count(),
        "numpy_version": np.__version__,
        "engine": engine(),
        "python_version": platform.python_version(),
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        log(f"error: no repro package under {SRC}; run from a checkout's root")
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if arguments.workload not in WORKLOADS:
        log(f"error: unknown workload {arguments.workload!r}; one of {', '.join(WORKLOADS)}")
        return 2
    # One CPU for the whole run (build processes inherit it), so that the
    # machine's speed (``common.Speed``) is sampled on the CPU the timed
    # work runs on; ``serve`` then moves the load generator off the
    # server's CPU.
    os.sched_setaffinity(0, {CPUS[-1]})
    spec = WORKLOADS[arguments.workload]
    seed = spec["default_seed"] if arguments.seed is None else arguments.seed
    run = Run(arguments.workload, seed, bool(arguments.trace))
    with Workdir(arguments.workload) as workdir:
        spec["run"](run, spec["params"], seed, arguments.seconds, workdir)
    missing = [name for name in END_TO_END if name not in run.metrics]
    if not run.trace and missing:
        # A run that could not measure every metric has no result line.
        for message in run.problems:
            log(f"check failed: {message}")
        log(f"error: end-to-end metrics not measured: {', '.join(missing)}")
        return 1
    if run.trace:
        for name in PER_LAYER:
            if name not in run.metrics:
                run.metric(name, 0.0, "not exercised by this workload")
    run.finish({"params": spec["params"], "default_seed": spec["default_seed"], **environment()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
