"""Resident memory of a fresh process that loads a store and answers from it.

Usage::

    python3 perfbench/footprint.py STORE CHECK.json [trace]

Loads ``STORE`` memory-mapped (a store file with ``load_index``, a
directory store with ``load_sharded_store``), answers the patterns of
``CHECK.json`` (``{"patterns": [...], "expected": [...]}``) in batches of 64
and prints one JSON line: the peak-RSS increase over the load and the
answers (``common.peak_rss_bytes``), and how many answers differ from the
expected ones.  With ``trace`` the layer wrappers of ``tracing.py`` are
installed first, for the tracing overhead.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from common import child_env, peak_rss_bytes

BATCH = 64
TIMEOUT = 120


def measure(run, workdir, store, patterns, expected, trace=False) -> float | None:
    """Run this script on ``store``; return the peak-RSS increase in MiB.

    The answers count as operations of ``run``; a failure is a problem of
    the run and gives ``None``.
    """
    check_path = workdir.file("footprint.json")
    with open(check_path, "w", encoding="utf-8") as handle:
        json.dump({"patterns": patterns, "expected": expected}, handle)
    command = [sys.executable, os.path.abspath(__file__), store, check_path]
    try:
        done = subprocess.run(
            command + (["trace"] if trace else []), env=child_env(),
            capture_output=True, text=True, timeout=TIMEOUT,
        )
        if done.returncode != 0:
            raise RuntimeError(done.stderr[-2000:].strip())
        reply = json.loads(done.stdout.splitlines()[-1])
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as error:
        run.operations(len(patterns), len(patterns))
        run.problem(f"footprint process failed: {error}")
        return None
    run.operations(len(patterns), reply["wrong"])
    if reply["wrong"]:
        run.problem(f"a fresh load of the store answered {reply['wrong']} patterns wrongly")
    return reply["peak_bytes"] / 2**20


def main(argv) -> int:
    store, check_path = argv[:2]
    if argv[2:] == ["trace"]:
        import tracing

        tracing.install(tracing.Tracer())
    from repro.io.store import load_index, load_sharded_store

    with open(check_path, encoding="utf-8") as handle:
        check = json.load(handle)
    before = peak_rss_bytes()
    index = load_sharded_store(store) if os.path.isdir(store) else load_index(store, mmap=True)
    patterns, expected = check["patterns"], check["expected"]
    wrong = 0
    for start in range(0, len(patterns), BATCH):
        answers = index.match_many(patterns[start : start + BATCH])
        wrong += sum(a != b for a, b in zip(answers, expected[start : start + BATCH]))
    print(json.dumps({"peak_bytes": peak_rss_bytes() - before, "wrong": wrong}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
