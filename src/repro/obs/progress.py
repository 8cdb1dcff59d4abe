"""Progress heartbeats over the search's polling hook.

The search already pauses at a poll every 1024 expansions (the
``max_seconds`` budget, the portfolio's turns between slots); progress
streaming reuses exactly that cadence rather than adding a thread or a
timer: the poll calls the heartbeat with the live counters, and the
heartbeat rate-limits itself on wall-clock, so the cost between
samples is one monotonic read and a comparison per 1024 expansions.

A sample does three things, each optional:

* prints a ``[progress]`` line to ``stderr`` (the CLI's ``--progress``;
  stdout stays clean for reports and piping);
* emits a counter event to a :class:`~repro.obs.events.Recorder`
  (rendered as states/sec and depth curves in the Chrome trace);
* tracks the maximum observed stack depth into a
  :class:`~repro.obs.metrics.MetricsRegistry` gauge.

Per-slot liveness in a portfolio falls out for free: every slot
carries its own printer labelled with its slot, so a stalled slot is
the one whose ``[progress]`` lines stop appearing.
"""

from __future__ import annotations

import os
import sys
import time


class ProgressPrinter:
    """Rate-limited heartbeat; called as ``(visited, generated, depth)``."""

    __slots__ = (
        "label",
        "interval",
        "stream",
        "recorder",
        "metrics",
        "samples",
        "_last_time",
        "_last_visited",
    )

    def __init__(
        self,
        label: str = "search",
        interval: float = 0.5,
        stream=None,
        recorder=None,
        metrics=None,
    ):
        self.label = label
        self.interval = interval
        self.stream = stream
        self.recorder = recorder
        self.metrics = metrics
        self.samples = 0
        self._last_time = time.monotonic()
        self._last_visited = 0

    def __call__(self, visited: int, generated: int, depth: int) -> None:
        now = time.monotonic()
        elapsed = now - self._last_time
        if elapsed < self.interval:
            return
        rate = (visited - self._last_visited) / elapsed
        self._last_time = now
        self._last_visited = visited
        self.samples += 1
        stream = self.stream if self.stream is not None else sys.stderr
        print(
            f"[progress] {self.label}: {visited:,} states visited, "
            f"{rate:,.0f} states/s, depth {depth}",
            file=stream,
            flush=True,
        )
        recorder = self.recorder
        if recorder is not None and recorder.enabled:
            recorder.counter(
                "progress",
                states=visited,
                generated=generated,
                states_per_sec=round(rate),
                depth=depth,
            )
        if self.metrics is not None:
            self.metrics.inc("progress.samples")


class ProgressFile:
    """File-spooled heartbeat; called as ``(visited, generated, depth)``.

    The cross-process cousin of :class:`ProgressPrinter`: a batch pool
    worker runs the search in another process, so its heartbeat cannot
    reach the service's SSE subscribers directly.  Instead the worker
    spools rate-limited samples to a JSON file and the service's
    progress ticker reads the latest sample back (see
    :meth:`repro.service.jobs.JobManager._progress_ticker`).

    Each write is atomic (temp file + ``os.replace`` in the same
    directory), so a reader sees either the previous sample or the new
    one, never a torn line.  The payload carries the live search
    counters plus the ``slot`` label (the engine driving the search) —
    exactly what the SSE ``progress`` event forwards.
    """

    __slots__ = (
        "path",
        "slot",
        "interval",
        "samples",
        "_last_time",
        "_last_visited",
    )

    def __init__(
        self,
        path: str,
        slot: str = "search",
        interval: float = 0.25,
    ):
        self.path = path
        self.slot = slot
        self.interval = interval
        self.samples = 0
        self._last_time = time.monotonic()
        self._last_visited = 0

    def __call__(self, visited: int, generated: int, depth: int) -> None:
        now = time.monotonic()
        elapsed = now - self._last_time
        if elapsed < self.interval:
            return
        rate = (visited - self._last_visited) / elapsed
        self._last_time = now
        self._last_visited = visited
        self.samples += 1
        payload = {
            "slot": self.slot,
            "states_visited": visited,
            "states_generated": generated,
            "states_per_sec": round(rate),
            "depth": depth,
        }
        tmp = f"{self.path}.tmp.{os.getpid()}"
        import json

        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, sort_keys=True)
            os.replace(tmp, self.path)
        except OSError:
            # progress is best-effort: a full or vanished spool
            # directory must never fail the search itself
            try:
                os.unlink(tmp)
            except OSError:
                pass
