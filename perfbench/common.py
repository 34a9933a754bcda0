"""Shared helpers: raw-sample statistics, machine speed, run results,
scratch space, CPU time."""

from __future__ import annotations

import json
import os
import shutil
import statistics
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: The CPUs this run may use, read before the run pins itself to one.
CPUS = sorted(os.sched_getaffinity(0))

#: How many times each workload sets itself up; ``setup_s`` is the median.
SETUP_REPEATS = 3


def _declared() -> tuple[dict[str, str], list[str], list[str], float]:
    """Units of every metric of the JSON result, the end-to-end and the
    per-layer names, and the length of one run.

    ``BENCHMARK.json`` is the one place that declares them.
    """
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    metrics = spec["end_to_end"] + spec["per_layer"]
    return (
        {m["name"]: m["unit"] for m in metrics},
        [m["name"] for m in spec["end_to_end"]],
        [m["name"] for m in spec["per_layer"]],
        float(spec["run_seconds"]),
    )


UNITS, END_TO_END, PER_LAYER, RUN_SECONDS = _declared()

#: Share of timed wall time the root spans should cover.
COVERAGE_TARGET = 0.9

#: Reference-task time that defines nominal machine speed: a time measured
#: while the reference task takes this long is reported unchanged.
NOMINAL_REFERENCE_S = 0.25e-3

#: Reference samples this close to an operation give its speed.
SPEED_WINDOW_S = 1.0

#: Reference samples taken around an operation that lasts seconds.
SPEED_SAMPLES = 25


def reference_task() -> int:
    """A fixed piece of interpreter work, a few tenths of a millisecond:
    integer arithmetic, tuple keys, dict and list allocation, a keyed sort.

    Interpreter work tracked the query path's changes of speed more closely
    than numpy sorts or random reads from a large array did.
    """
    total = 0
    for k in range(2000):
        total += k * k % 7
    table = {}
    for k in range(400):
        table[(k, k % 7)] = [k]
    return total + len(sorted(table, key=lambda key: -key[0]))


class Speed:
    """The speed of the machine while the workload runs.

    On a shared virtual machine the same code does not take the same time
    from one minute to the next: a fixed task took from 24 to 44 ms within
    two minutes, with CPU time equal to wall time and no steal time
    recorded.  Timed operations are therefore reported at nominal speed:
    each time is scaled by ``NOMINAL_REFERENCE_S`` over the median time of
    the reference task sampled within ``SPEED_WINDOW_S`` of the operation,
    on the same CPU, between operations.  A change to the program moves
    the scaled time; a change of the machine's speed moves both.
    """

    def __init__(self, starts=None, took=None) -> None:
        """Start sampling here, or adopt the samples of another process."""
        self.starts: list[float] = list(starts or [])
        self.took: list[float] = list(took or [])
        if not self.took:
            self.sample(SPEED_SAMPLES)  # so that no window is without samples

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            start = time.perf_counter()
            reference_task()
            self.starts.append(start)
            self.took.append(time.perf_counter() - start)

    def factors(self, windows) -> np.ndarray:
        """Nominal over current speed for each ``(start, end)`` window."""
        starts = np.asarray(self.starts)
        took = np.asarray(self.took)
        windows = np.asarray(windows, dtype=np.float64).reshape(-1, 2)
        low = np.searchsorted(starts, windows[:, 0] - SPEED_WINDOW_S)
        high = np.searchsorted(starts, windows[:, 1] + SPEED_WINDOW_S)
        factors = np.empty(len(windows))
        for number, (a, b) in enumerate(zip(low, high)):
            if b <= a:  # no sample that close: take the nearest ones
                a, b = max(0, a - 1), min(len(took), a + 1)
            factors[number] = NOMINAL_REFERENCE_S / np.median(took[a:b])
        return factors

    def seconds_within(self, window) -> float:
        """Time the reference task ran inside ``window``: not the workload's."""
        return sum(took for start, took in zip(self.starts, self.took)
                   if window[0] <= start <= window[1])

    def nominal(self, seconds, windows) -> list[float]:
        """Each duration in ``seconds`` scaled to nominal speed."""
        return (np.asarray(seconds, dtype=np.float64) * self.factors(windows)).tolist()


def child_env() -> dict:
    """Environment of a benchmark child process: the checkout's ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def log(message: str) -> None:
    """Progress lines go to stderr; stdout carries the report and the result."""
    print(message, file=sys.stderr, flush=True)


class Workdir:
    """A private scratch directory inside the checkout, removed on exit."""

    def __init__(self, workload: str) -> None:
        self.path = os.path.join(ROOT, ".perfbench_work", f"{workload}-{os.getpid()}")

    def __enter__(self) -> "Workdir":
        shutil.rmtree(self.path, ignore_errors=True)
        os.makedirs(self.path)
        return self

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        parent = os.path.dirname(self.path)
        if os.path.isdir(parent) and not os.listdir(parent):
            os.rmdir(parent)

    def file(self, name: str) -> str:
        return os.path.join(self.path, name)


def peak_rss_bytes(pid="self") -> int:
    """``VmHWM`` of a process, in bytes: the high-water mark of its own
    address space (``ru_maxrss`` of a child also carries the RSS its parent
    had when it forked)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return 1024 * int(line.split()[1])
    raise RuntimeError(f"no VmHWM line in /proc/{pid}/status")


def store_bytes(path) -> int:
    """Bytes of a saved store: the file, or every file of a directory store
    but its write-ahead log, whose length grows with the updates a run got
    through."""
    if os.path.isfile(path):
        return os.path.getsize(path)
    from repro.io.store import WAL_NAME

    return sum(
        os.path.getsize(os.path.join(path, name))
        for name in os.listdir(path)
        if name != WAL_NAME and os.path.isfile(os.path.join(path, name))
    )


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of a process, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat", "rb") as handle:
        fields = handle.read().rsplit(b")", 1)[1].split()
    # After the command name: state is field 3, utime 14 and stime 15.
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class Run:
    """Metrics, operation counts and the human-readable report of one run."""

    def __init__(self, workload: str, seed: int, trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.metrics: dict[str, dict] = {}
        self.lines: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def metric(self, name: str, value: float, note: str = "") -> None:
        """A metric of the JSON result, in the unit ``BENCHMARK.json`` gives it."""
        unit = UNITS[name]
        self.metrics[name] = {"value": float(value), "unit": unit}
        self.lines.append(f"{name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))

    def reported(self, name: str, value: float, unit: str, note: str = "") -> None:
        """A figure printed in the report only, outside the JSON result."""
        self.lines.append(f"{name} = {value:.6g} {unit}  ({note}; reported, not gated)")

    def median(self, name: str, samples, scale: float = 1.0) -> float:
        """Report the median of raw samples (with their count)."""
        value = statistics.median(samples) * scale
        self.metric(name, value, f"median of {len(samples)} samples")
        return value

    def percentile(
        self, name: str, samples, q: float, scale: float = 1.0, report_unit: str = "",
    ) -> float:
        """Report a percentile of raw samples, with the count beyond it.

        With ``report_unit`` it goes into the report only (see ``reported``).
        """
        raw = np.asarray(samples, dtype=np.float64) * scale
        value = float(np.percentile(raw, q))
        beyond = int((raw > value).sum())
        note = f"p{q:g} of {len(raw)} samples, {beyond} beyond it"
        if report_unit:
            self.reported(name, value, report_unit, note)
        else:
            self.metric(name, value, note)
        return value

    def overhead(self, name: str, untraced, traced) -> None:
        """Tracing overhead: traced median minus untraced median."""
        before = statistics.median(untraced)
        after = statistics.median(traced)
        self.metric(
            f"overhead.{name}", after - before,
            f"traced {after:.6g} minus untraced {before:.6g}",
        )

    def coverage(self, covered: float, window: float, gaps: dict) -> None:
        """Share of timed wall time inside root spans, naming any gap.

        ``window`` is the timed wall time less the reference samples.
        """
        share = covered / window if window > 0 else 0.0
        self.metric(
            "coverage.share", share,
            f"{covered:.4g} s of {window:.4g} s timed wall time in layer spans",
        )
        if share < COVERAGE_TARGET:
            for gap, reason in gaps.items():
                self.lines.append(
                    f"coverage gap (below {COVERAGE_TARGET:.0%}): {gap}: {reason}"
                )

    def operations(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed

    def problem(self, message: str) -> None:
        """A failed correctness check (wrong answer, error, bad store)."""
        self.problems.append(message)
        log(f"check failed: {message}")

    def finish(self, metadata: dict) -> None:
        """Print the report, then the one-line JSON result (last line)."""
        correct = not self.problems and self.failed == 0
        print(f"# workload {self.workload}, seed {self.seed}, "
              f"{'traced' if self.trace else 'untraced'} run")
        print("# environment " + json.dumps(metadata, sort_keys=True))
        for line in self.lines:
            print(line)
        print(f"operations: {self.attempted} attempted, {self.failed} failed")
        for message in self.problems[:20]:
            print(f"check failed: {message}")
        result = {
            "correct": correct,
            "attempted": max(1, int(self.attempted)),
            "failed": int(self.failed),
            "metrics": self.metrics,
        }
        print(json.dumps(result), flush=True)


def timed_setup(setup, repeats: int = SETUP_REPEATS):
    """Run ``setup`` ``repeats`` times; return (last state, durations).

    Every repeat but the last is torn down through the state's ``close``
    (when it has one), so exactly one set-up survives into the timed phase.
    The durations are at nominal speed (see :class:`Speed`), from reference
    samples taken just before and just after each set-up.
    """
    speed = Speed()
    windows = []
    state = None
    for number in range(repeats):
        if state is not None and hasattr(state, "close"):
            state.close()
            speed.sample(SPEED_SAMPLES)
        started = time.perf_counter()
        state = setup(number)
        windows.append((started, time.perf_counter()))
        speed.sample(SPEED_SAMPLES)
    return state, speed.nominal([end - start for start, end in windows], windows)
