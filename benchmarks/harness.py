"""Measurement helpers the throughput benches share.

* :func:`collector_free` — time one call with the garbage collector
  paused;
* :func:`deterministic_stats` — the ``SearchStats`` counters two runs
  of the same search must agree on;
* :func:`stored_baseline` — the frozen hot-path baseline in
  ``benchmarks/BASELINE_scheduler.json`` and whether this host can be
  compared with it.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import time

BASELINE_PATH = os.path.join(
    os.path.dirname(__file__), "BASELINE_scheduler.json"
)


def collector_free(fn):
    """``(fn(), seconds)`` with the collector paused.

    Collector pauses scale with whatever the rest of the process has
    allocated (other benches in the same run), which would punish the
    fastest engine the hardest, so throughput timings are
    collector-free.
    """
    gc.collect()
    reenable = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        value = fn()
        return value, time.perf_counter() - started
    finally:
        if reenable:
            gc.enable()


def deterministic_stats(result):
    """A result's ``SearchStats`` without the wall-clock fields."""
    return {
        name: value
        for name, value in result.stats.as_dict().items()
        if name not in ("elapsed_seconds", "states_per_second")
    }


def stored_baseline():
    """``(baseline, comparable)``: the stored absolute baseline and
    whether it was measured on this Python minor version and machine,
    or ``(None, None)`` when there is none."""
    if not os.path.exists(BASELINE_PATH):
        return None, None
    with open(BASELINE_PATH, encoding="utf-8") as fh:
        stored = json.load(fh)
    same_python = str(stored.get("python", "")).split(".")[:2] == (
        platform.python_version().split(".")[:2]
    )
    same_machine = stored.get("machine") in (None, platform.machine())
    return stored, same_python and same_machine
