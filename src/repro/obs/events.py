"""Span/counter recording with a process-safe JSONL sink.

Design constraints, in priority order:

1. **Zero cost when disabled.**  Instrumentation points receive the
   shared :data:`NULL_RECORDER` by default; its ``enabled`` flag is
   ``False`` so hot loops can skip their measurement closures entirely,
   and every method is a no-op for the coarse-grained call sites that
   do not bother checking.  ``benchmarks/bench_obs_overhead.py`` gates
   the disabled path at <2% of the raw search-loop baseline.
2. **Process safety without coordination.**  Portfolio workers and
   batch pool workers all append to one JSONL file.  The sink opens
   the file with ``O_APPEND`` and emits each event as a single
   ``os.write`` — POSIX appends are atomic per write, so lines from
   concurrent processes interleave but never tear.  The file
   descriptor is opened lazily *per pid* (a fork-inherited descriptor
   is detected by the pid check and reopened), so a recorder created
   before ``fork`` keeps working in every child.
3. **Monotonic timestamps.**  All times are ``time.monotonic_ns()``
   (never the adjustable wall clock, matching the search budget's
   timing).  Monotonic clocks are per-boot, not per-process, so spans
   from different workers on one host share a timeline; the Chrome
   exporter (:mod:`repro.obs.trace`) can rebase them to zero for
   deterministic test comparisons.

The JSONL record shapes (one JSON object per line)::

    {"type": "span",    "name", "cat", "ts", "dur", "pid", "track", "args"}
    {"type": "instant", "name", "cat", "ts",        "pid", "track", "args"}
    {"type": "counter", "name",        "ts",        "pid", "track", "values"}

``ts``/``dur`` are integer nanoseconds; ``track`` is the logical
thread-track label (one per portfolio worker) the Chrome exporter maps
to a ``tid``.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager


class JsonlSink:
    """Append-only JSONL event file, safe across forked processes."""

    __slots__ = ("path", "_fd", "_pid", "_encode")

    def __init__(self, path: str):
        # json loads only with a sink, so an untraced command never
        # pays for it
        import json

        self.path = path
        self._fd: int | None = None
        self._pid: int | None = None
        self._encode = json.JSONEncoder(separators=(",", ":")).encode

    def emit(self, record: dict) -> None:
        """Write one event as a single atomic ``O_APPEND`` line."""
        pid = os.getpid()
        if self._fd is None or self._pid != pid:
            # lazy per-pid open: a descriptor inherited through fork
            # would share its offset with the parent; O_APPEND makes
            # that safe, but reopening keeps the invariant obvious and
            # covers spawn contexts where nothing was inherited
            self._fd = os.open(
                self.path,
                os.O_WRONLY | os.O_CREAT | os.O_APPEND,
                0o644,
            )
            self._pid = pid
        line = self._encode(record) + "\n"
        os.write(self._fd, line.encode("utf-8"))

    def close(self) -> None:
        if self._fd is not None and self._pid == os.getpid():
            os.close(self._fd)
        self._fd = None
        self._pid = None


class Recorder:
    """Live span/instant/counter recorder bound to one sink and track.

    ``track`` is the logical timeline label: the serial scheduler uses
    one per engine, the portfolio one per slot (``"w0:earliest"``),
    the batch engine one per job.  Reassigning ``recorder.track``
    re-labels subsequent events — each portfolio slot does exactly
    that before its search starts.
    """

    enabled = True

    __slots__ = ("sink", "track")

    def __init__(self, sink: JsonlSink, track: str = "main"):
        self.sink = sink
        self.track = track

    @staticmethod
    def now_ns() -> int:
        return time.monotonic_ns()

    def record_span(
        self,
        name: str,
        start_ns: int,
        end_ns: int,
        cat: str = "search",
        args: dict | None = None,
    ) -> None:
        """Record a completed span from explicit timestamps.

        The search uses this for its *aggregate* spans: the
        per-call successor/candidate costs are accumulated in plain
        nanosecond counters inside the loop and emitted as one span
        each at search end, so the hot path never formats an event.
        """
        self.sink.emit(
            {
                "type": "span",
                "name": name,
                "cat": cat,
                "ts": start_ns,
                "dur": max(0, end_ns - start_ns),
                "pid": os.getpid(),
                "track": self.track,
                "args": args or {},
            }
        )

    @contextmanager
    def span(self, name: str, cat: str = "search", **args):
        """Context manager measuring one phase (compile, replay, ...)."""
        start = time.monotonic_ns()
        try:
            yield
        finally:
            self.record_span(
                name, start, time.monotonic_ns(), cat=cat, args=args
            )

    def instant(self, name: str, cat: str = "search", **args) -> None:
        """A point event (cache hit, cancellation, restart)."""
        self.sink.emit(
            {
                "type": "instant",
                "name": name,
                "cat": cat,
                "ts": time.monotonic_ns(),
                "pid": os.getpid(),
                "track": self.track,
                "args": args,
            }
        )

    def counter(self, name: str, **values) -> None:
        """A counter sample (progress heartbeats: states/sec, depth)."""
        self.sink.emit(
            {
                "type": "counter",
                "name": name,
                "ts": time.monotonic_ns(),
                "pid": os.getpid(),
                "track": self.track,
                "values": values,
            }
        )

    def close(self) -> None:
        self.sink.close()


class _NullContext:
    """Reusable no-op context manager (cheaper than nullcontext())."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *_exc) -> bool:
        return False


_NULL_CONTEXT = _NullContext()


class NullRecorder:
    """No-op recorder: the default at every instrumentation point.

    ``enabled`` is ``False`` so hot paths can skip measurement
    entirely; the methods exist so coarse call sites (one span per
    compile, per replay) need no branching at all.
    """

    enabled = False
    track = "off"

    __slots__ = ()

    @staticmethod
    def now_ns() -> int:
        return time.monotonic_ns()

    def record_span(self, *_args, **_kwargs) -> None:
        pass

    def span(self, _name: str, cat: str = "search", **_args):
        return _NULL_CONTEXT

    def instant(self, *_args, **_kwargs) -> None:
        pass

    def counter(self, *_args, **_kwargs) -> None:
        pass

    def close(self) -> None:
        pass


#: The shared disabled recorder — instrumentation points default to it.
NULL_RECORDER = NullRecorder()
