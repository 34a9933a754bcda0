#!/usr/bin/env python3
"""Reproduce every table and figure of the paper's evaluation (Section 7).

Thin wrapper over ``python -m repro.bench`` kept as an example entry point:

    python examples/reproduce_paper.py --scale tiny          # seconds
    python examples/reproduce_paper.py --scale small         # minutes
    python examples/reproduce_paper.py --scale paper         # full parameters

The output prints one text table per figure/series, to be read against the
corresponding figure of the paper's Section 7 (no captured run is committed).
"""

from __future__ import annotations

import sys

from repro.bench.__main__ import main

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
