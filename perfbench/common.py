"""Shared plumbing of the repo benchmark: paths, the pinned child
environment, child processes with their resource usage, statistics and
the result document.

Stdlib only and free of ``repro`` imports, so ``run.py`` can use it
before it knows whether the checkout holds the program at all.
"""

from __future__ import annotations

import bisect
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from typing import NamedTuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
#: everything a run writes: bytecode prefix, native cores, temp files,
#: exported specs, generated code (ignored by git)
WORK = os.path.join(BENCH_DIR, "_work")

EXPECTED_PATH = os.path.join(BENCH_DIR, "expected.json")

END_TO_END = ("op_p50_ms", "op_p90_ms", "ops_per_s", "setup_s", "peak_rss_mb")

#: the host probe's time on a 2-vCPU Xeon host at its usual speed; every
#: end-to-end time is reported as if the probe had taken this long
PROBE_NOMINAL_MS = 15.0
#: the probe runs between ops, at most this often
PROBE_EVERY_S = 0.25
#: an op is scaled by the probes taken this close to its start or end
PROBE_WINDOW_S = 0.5


def pin_to_one_cpu() -> None:
    """Run this process, and every child it starts, on one CPU.

    The host's speed swings by 1.5x to 2x in phases of a second to a
    minute, and each vCPU swings on its own, so the probe must share
    its CPU with the work it scales.
    """
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def _probe_work() -> int:
    """Fixed work in two parts: an interpreter loop over a small table,
    and a set of 60,000 fresh large ints (allocation and hashing over a
    few MB), which follows the search kernel's memory-bound hashing.
    Scaled by both, search ops spread about half as much as by the
    interpreter loop alone."""
    total = 0
    for i in range(60_000):
        total += i * i % 7
    table: dict[int, int] = {}
    for i in range(6_000):
        table[i % 997] = table.get(i % 997, 0) + i
    spread = set(range(0, 60_000 * 2_654_435_761, 2_654_435_761))
    return total + len(table) + len(spread)


class HostSpeed:
    """Samples the host's current speed with a fixed pure-Python probe.

    The probe never touches the program, so a change to the program
    cannot move it; only the host can.  An op's time is scaled by
    ``PROBE_NOMINAL_MS`` over the median probe time around the op, which
    takes out the host's speed phases and keeps what the program costs.
    """

    def __init__(self) -> None:
        self._at: list[float] = []
        self._ms: list[float] = []

    def sample(self) -> None:
        started = time.perf_counter()
        _probe_work()
        ended = time.perf_counter()
        self._at.append(started)
        self._ms.append((ended - started) * 1000.0)

    def maybe_sample(self) -> None:
        if not self._at or time.perf_counter() - self._at[-1] >= PROBE_EVERY_S:
            self.sample()

    def scaled_s(self, started: float, ended: float) -> float:
        """Seconds from ``started`` to ``ended`` at nominal host speed."""
        lo = bisect.bisect_left(self._at, started - PROBE_WINDOW_S)
        hi = bisect.bisect_right(self._at, ended + PROBE_WINDOW_S)
        near = self._ms[lo:hi] or self._ms
        return (ended - started) * PROBE_NOMINAL_MS / statistics.median(near)

    def median_ms(self) -> float:
        return statistics.median(self._ms)


def pinned_env() -> dict:
    """The one environment every benchmark child runs in.

    Built from scratch, so the caller's shell cannot change what is
    measured: bytecode is written to (and read from) a benchmark-owned
    prefix, the hash seed is fixed, temporary files and the native
    cores' build cache live under ``_work``, and ``EZRT_PURE`` is
    unset so the compiled cores are used when they build.
    """
    return {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "HOME": WORK,
        "LANG": "C.UTF-8",
        "PYTHONPATH": SRC + os.pathsep + BENCH_DIR,
        "PYTHONPYCACHEPREFIX": os.path.join(WORK, "pycache"),
        "PYTHONHASHSEED": "0",
        "PYTHONUNBUFFERED": "1",
        "TMPDIR": os.path.join(WORK, "tmp"),
        "EZRT_KERNEL_CACHE": os.path.join(WORK, "native"),
    }


def ensure_work_dirs() -> None:
    for sub in ("pycache", "tmp", "native"):
        os.makedirs(os.path.join(WORK, sub), exist_ok=True)


def python_argv(*args: str) -> list[str]:
    return [sys.executable, *args]


class ChildResult(NamedTuple):
    returncode: int
    stdout: str
    stderr: str
    started: float
    wall_ms: float
    maxrss_mb: float

    @property
    def ended(self) -> float:
        return self.started + self.wall_ms / 1000.0


def run_child(argv: list[str], cwd: str, env: dict) -> ChildResult:
    """Run one child to completion; wall time and its own peak RSS.

    The child is reaped with ``wait4`` so its resource usage is its
    own, not the running maximum over every child this process has
    had.  Standard error goes to a file, so a chatty child cannot fill
    a pipe while its standard output is being read.
    """
    err_path = os.path.join(WORK, "tmp", f"stderr-{os.getpid()}.txt")
    with open(err_path, "w+b") as err_file:
        started = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=err_file
        )
        try:
            out = proc.stdout.read()
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        wall_ms = (time.perf_counter() - started) * 1000.0
        err_file.seek(0)
        err = err_file.read()
    return ChildResult(
        proc.returncode,
        out.decode("utf-8", "replace"),
        err.decode("utf-8", "replace"),
        started,
        wall_ms,
        usage.ru_maxrss / 1024.0,
    )


def stop_process(proc: subprocess.Popen, timeout: float = 20.0) -> None:
    """SIGTERM, wait, then SIGKILL: never leave a child behind."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def self_maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def p50(samples: list[float]) -> float:
    return statistics.median(samples)


def p90(samples: list[float]) -> float:
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


def mean(samples: list[float]) -> float:
    return statistics.fmean(samples) if samples else 0.0


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def end_to_end(latencies_ms: list[float], setup_s: float, rss_mb: float) -> dict:
    """The five end-to-end metrics of one pass of a serial closed loop.

    The latencies are scaled to nominal host speed; the loop is serial,
    so its time is the sum of its op latencies.
    """
    return {
        "op_p50_ms": p50(latencies_ms),
        "op_p90_ms": p90(latencies_ms),
        "ops_per_s": len(latencies_ms) / (sum(latencies_ms) / 1000.0),
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
    }


def overhead(traced: dict, untraced: dict) -> dict:
    """Tracing overhead: traced minus untraced, per end-to-end metric."""
    return {
        f"trace.overhead.{name}": traced[name] - untraced[name]
        for name in END_TO_END
        if name != "setup_s"
    }


def emit(
    workload: str, attempted: int, failed: int, metrics: dict, notes: list[str]
) -> None:
    """Print the workload child's report: note lines, then one JSON line."""
    for note in notes:
        print(f"# {workload}: {note}")
    print(
        json.dumps(
            {
                "workload": workload,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
