"""Observability: tracing, metrics and progress for the whole pipeline.

**Overview for new contributors.**  The synthesis pipeline runs three
search engines under one loop, a multi-process portfolio racer and a
campaign-scale batch engine — this package is the shared window into
all of it, structured the way the formal-methods tooling the repository
reproduces against (Real-Time Maude and friends) treats execution
traces: as first-class analysis artifacts, not debug prints.

* :mod:`repro.obs.events` — a low-overhead span/counter recorder over
  ``time.monotonic_ns`` with a process-safe JSONL sink
  (:class:`JsonlSink`); the :data:`NULL_RECORDER` default makes every
  instrumentation point a no-op so the hot path pays nothing when
  tracing is off (gated <2% by ``benchmarks/bench_obs_overhead.py``);
* :mod:`repro.obs.trace` — converts recorded JSONL events into Chrome
  trace-event JSON viewable in Perfetto / ``chrome://tracing``, one
  thread track per portfolio slot;
* :mod:`repro.obs.metrics` — a registry of counters/gauges/histograms
  whose snapshots merge across portfolio slots and batch workers
  (landing on ``SchedulerResult.metrics`` and ``BatchStats.metrics``);
* :mod:`repro.obs.progress` — heartbeat streaming at the search's
  existing 1024-expansion poll (``ezrt schedule --progress`` /
  ``ezrt batch --progress``).

See ``docs/observability.md`` for the span and metric reference.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.obs.events import (
        NULL_RECORDER,
        JsonlSink,
        NullRecorder,
        Recorder,
    )
    from repro.obs.metrics import MetricsRegistry, format_metrics
    from repro.obs.progress import ProgressFile, ProgressPrinter
    from repro.obs.trace import chrome_trace, read_events, write_chrome_trace
else:
    __getattr__, __dir__ = lazy_exports(
        __name__,
        {
            "repro.obs.events": (
                "NULL_RECORDER JsonlSink NullRecorder Recorder"
            ),
            "repro.obs.metrics": "MetricsRegistry format_metrics",
            "repro.obs.progress": "ProgressFile ProgressPrinter",
            "repro.obs.trace": "chrome_trace read_events write_chrome_trace",
        },
    )

__all__ = [
    "JsonlSink",
    "MetricsRegistry",
    "NULL_RECORDER",
    "NullRecorder",
    "ProgressFile",
    "ProgressPrinter",
    "Recorder",
    "chrome_trace",
    "format_metrics",
    "read_events",
    "write_chrome_trace",
]
