"""From-scratch index builds in a fresh process (``build-g`` and ``build-se``).

Usage::

    python3 perfbench/build_child.py INPUT.npz KIND Z ELL STORE [SPANS.json]

Loads the generated input and answers ``{"ready": true}`` on one line,
then reads commands from standard input: each ``build`` line builds
``KIND`` from scratch, saves it to ``STORE`` and answers one JSON line with
the build's start and end time, the saved and modelled sizes and, for the
first build, the peak-RSS increase over it (the build's construction
space, from ``common.peak_rss_bytes``).  An empty line or end of input ends
the process.  With ``SPANS.json``
the layer wrappers are installed first and the spans are written there
before the process ends.
"""

from __future__ import annotations

import json
import os
import sys
import time

import numpy as np

from common import peak_rss_bytes


def main(argv) -> int:
    input_path, kind, z, ell, store = argv[:5]
    spans_path = argv[5] if len(argv) > 5 else None
    tracer = None
    if spans_path:
        import tracing

        tracer = tracing.install(tracing.Tracer())
    from repro.core.alphabet import Alphabet
    from repro.core.weighted_string import WeightedString
    from repro.indexes.registry import build_index
    from repro.io.store import save_index

    with np.load(input_path) as data:
        letters = [str(letter) for letter in data["letters"]]
        source = WeightedString(data["matrix"], Alphabet(letters))
    print(json.dumps({"ready": True}), flush=True)
    for number, command in enumerate(sys.stdin):
        if command.strip() != "build":
            break
        if tracer is not None:
            tracer.operation = number
        before = peak_rss_bytes()
        started = time.perf_counter()
        index = build_index(source, float(z), kind=kind, ell=int(ell))
        save_index(store, index)
        reply = {
            "window": [started, time.perf_counter()],
            "store_bytes": os.path.getsize(store),
            "model_index_bytes": index.stats.index_size_bytes,
            "model_construction_bytes": index.stats.construction_space_bytes,
        }
        if number == 0:
            reply["peak_bytes"] = peak_rss_bytes() - before
        del index  # the next build must not run beside this one
        print(json.dumps(reply), flush=True)
    if tracer is not None:
        tracer.dump(spans_path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
