"""Sample the machine's speed on one CPU while another process works there.

Usage::

    python3 perfbench/speed_probe.py INTERVAL

Runs the reference task of ``common.py`` (see ``common.Speed``) a few times,
prints ``ready``, then once every ``INTERVAL`` seconds until its standard
input closes, and prints the samples as one JSON line:
``{"starts": [...], "took": [...]}`` in ``perf_counter`` time.  The
``serve`` workload runs it pinned to the server's CPU, where it takes
about 1% of the CPU.
"""

from __future__ import annotations

import json
import select
import sys

from common import Speed


def main(argv) -> int:
    interval = float(argv[0])
    speed = Speed()
    print("ready", flush=True)
    while True:
        readable, _, _ = select.select([sys.stdin], [], [], interval)
        if readable and not sys.stdin.readline():
            break
        speed.sample()
    print(json.dumps({"starts": speed.starts, "took": speed.took}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
