"""The five workloads: their input parameters and default seed.

Every input is generated from ``--seed``; the program under test only ever
sees the generated inputs.  Why each workload exists is recorded in
``BENCHMARK.json`` and ``README.md``: each layer a change is likely to
optimise does most of the work in one workload and little in another.
"""

from __future__ import annotations

import wl_build
import wl_query
import wl_serve
import wl_update

WORKLOADS = {
    "build-g": {
        "run": wl_build.run,
        "default_seed": 1,
        "params": {
            "dataset": "EFM", "length": 6_000, "z": 32, "ell": 16, "kind": "MWST-G",
            "warmup_length": 600,
            "check_lengths": [16, 32, 64], "check_valid": 12, "check_mutants": 4,
        },
    },
    "build-se": {
        "run": wl_build.run,
        "default_seed": 1,
        "params": {
            "dataset": "EFM", "length": 6_000, "z": 32, "ell": 16, "kind": "MWST-SE",
            "warmup_length": 600,
            "check_lengths": [16, 32, 64], "check_valid": 12, "check_mutants": 4,
        },
    },
    "query": {
        "run": wl_query.run,
        "default_seed": 1,
        "params": {
            "dataset": "EFM", "length": 12_000, "z": 32, "ell": 16, "kind": "MWST-G",
            "lengths": [16, 32, 64], "valid": 240, "mutants": 80, "batch": 64,
            "warmup_batches": 16,
        },
    },
    "update-mix": {
        "run": wl_update.run,
        "default_seed": 1,
        "params": {
            "length": 16_000, "sigma": 4, "delta": 0.1, "z": 8, "ell": 16,
            "kind": "MWSA", "shards": 8, "max_pattern_len": 64,
            "lengths": [16, 32, 64], "valid": 128, "batch": 64, "covering": 4,
            "range_every": 5, "range_lengths": [2, 6], "plan": 1500,
        },
    },
    "serve": {
        "run": wl_serve.run,
        "default_seed": 1,
        "params": {
            "dataset": "HUMAN", "length": 16_000, "z": 8, "ell": 16, "kind": "MWSA",
            "lengths": [16, 32], "pool": 4096, "zipf": 1.2, "rate": 300.0,
            "connections": 2, "warmup_requests": 256,
            "server": ["--cache-size", "1024", "--batch-window-ms", "2"],
        },
    },
}
