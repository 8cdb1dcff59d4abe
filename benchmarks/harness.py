"""The one measurement harness every bench times, gates and records
through.

Timing
    :func:`measure` runs each variant once as a warm-up, whose value
    it returns for the bench's exactness checks, then ``rounds``
    rounds with the variants strictly interleaved and their order
    reversed every round (so host noise and drift hit them alike),
    each call timed by :func:`collector_free`.  It
    returns every variant's samples: throughput benches take their
    ``min``, the observability gate their median.

Recording
    :func:`write_bench` writes ``BENCH_<name>.json`` at the repository
    root: the host it ran on, the measured rows and the gates.  Every
    row has exactly the fields of :data:`ROW_FIELDS`:

    * ``workload`` — what ran (a worker count goes here too, e.g.
      ``portfolio-hard-x2:w4``);
    * ``tier`` — one of :data:`TIERS`: ``cold`` for a fresh process,
      ``warm`` for an in-process run under a second, ``large`` for
      an in-process run (or timed sample) of a second or more;
    * ``layer`` — the part of the pipeline the row times (``search``,
      ``finish``, ``end-to-end``, ``process``, ...);
    * ``engine`` — the engine or configuration that ran it (a
      portfolio race's winning slot goes here), or ``null``;
    * ``seconds``, ``states``, ``bytes`` — the measured time, visited
      states and bytes per visited state, each ``null`` where the
      bench does not measure it.

    Each gate is ``{name, bound, measured, met}`` (:func:`gate`).
    Rows merge with the file's earlier rows by ``(workload, tier,
    layer, engine)`` and gates by name, so two tests of one bench
    share one file.  The document is checked before it is written,
    and a gate the call was given that is not met fails the bench
    after the file is written.

Shared pieces
    :func:`deterministic_stats` (the ``SearchStats`` counters two runs
    of one search must agree on), :func:`on_spec` (a call run on the
    engines' executable specs), :func:`total` (a column summed over
    an engine's rows) and :func:`stored_baseline` (the frozen hot-path
    baseline in ``benchmarks/BASELINE_scheduler.json``).
"""

from __future__ import annotations

import gc
import json
import os
import platform
import time
from unittest import mock

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
BASELINE_PATH = os.path.join(
    os.path.dirname(__file__), "BASELINE_scheduler.json"
)

ROW_FIELDS = (
    "workload",
    "tier",
    "layer",
    "engine",
    "seconds",
    "states",
    "bytes",
)
GATE_FIELDS = ("name", "bound", "measured", "met")
TIERS = ("cold", "warm", "large")
_KEY = ROW_FIELDS[:4]


def collector_free(fn):
    """``(fn(), seconds)`` with the collector paused.

    Collector pauses scale with whatever the rest of the process has
    allocated (other benches in the same run), which would punish the
    fastest engine the hardest, so timings are collector-free.
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


def measure(variants, rounds):
    """``(first, samples)`` for a ``{name: callable}`` of variants.

    ``first[name]`` is the value of the untimed warm-up call and
    ``samples[name]`` the seconds of its ``rounds`` timed calls.
    """
    first = {name: fn() for name, fn in variants.items()}
    samples = {name: [] for name in variants}
    order = list(variants)
    for _ in range(rounds):
        for name in order:
            samples[name].append(collector_free(variants[name])[1])
        order.reverse()
    return first, samples


def row(workload, tier, layer, engine=None, seconds=None, states=None,
        bytes=None):
    """One BENCH row (see the module docstring for the fields)."""
    return {
        "workload": workload,
        "tier": tier,
        "layer": layer,
        "engine": engine,
        "seconds": seconds,
        "states": states,
        "bytes": bytes,
    }


def gate(name, bound, measured, met):
    """One BENCH gate: ``met`` is the bench's own comparison of
    ``measured`` against ``bound``."""
    return {"name": name, "bound": bound, "measured": measured, "met": met}


def total(rows, field, engine, prefix=""):
    """``field`` summed over ``engine``'s rows whose workload starts
    with ``prefix``."""
    return sum(
        r[field]
        for r in rows
        if r["engine"] == engine and r["workload"].startswith(prefix)
    )


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def check_bench(document):
    """Raise ``ValueError`` unless ``document`` is a valid BENCH file."""
    if set(document) != {"bench", "host", "rows", "gates"}:
        raise ValueError(f"BENCH keys {sorted(document)}")
    if not document["rows"] or not document["gates"]:
        raise ValueError("a BENCH file needs at least one row and gate")
    keys = set()
    for entry in document["rows"]:
        if tuple(entry) != ROW_FIELDS:
            raise ValueError(f"row fields {tuple(entry)}")
        for field in ("workload", "layer"):
            if not isinstance(entry[field], str) or not entry[field]:
                raise ValueError(f"row {field} {entry[field]!r}")
        if entry["tier"] not in TIERS:
            raise ValueError(f"row tier {entry['tier']!r}")
        if entry["engine"] is not None and not isinstance(
            entry["engine"], str
        ):
            raise ValueError(f"row engine {entry['engine']!r}")
        measured = [entry[f] for f in ("seconds", "states", "bytes")]
        if all(value is None for value in measured):
            raise ValueError(f"row {entry} measures nothing")
        for value in measured:
            if value is not None and not (_is_number(value) and value > 0):
                raise ValueError(f"row {entry} has a non-positive value")
        key = tuple(entry[f] for f in _KEY)
        if key in keys:
            raise ValueError(f"duplicate row {key}")
        keys.add(key)
    names = set()
    for entry in document["gates"]:
        if tuple(entry) != GATE_FIELDS:
            raise ValueError(f"gate fields {tuple(entry)}")
        if not isinstance(entry["name"], str) or entry["name"] in names:
            raise ValueError(f"gate name {entry['name']!r}")
        names.add(entry["name"])
        if not (_is_number(entry["bound"]) and _is_number(entry["measured"])):
            raise ValueError(f"gate {entry['name']} is not numeric")
        if not isinstance(entry["met"], bool):
            raise ValueError(f"gate {entry['name']} met {entry['met']!r}")


def _host():
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
        "pure": os.environ.get("EZRT_PURE") == "1",
    }


def write_bench(name, rows, gates):
    """Merge, check and write ``BENCH_<name>.json``; fail on an unmet
    gate of ``gates``.  Returns the written document."""
    path = os.path.join(ROOT, f"BENCH_{name}.json")
    merged_rows, merged_gates = {}, {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            earlier = json.load(fh)
        if earlier.get("bench") == name and "gates" in earlier:
            merged_rows = {
                tuple(r[f] for f in _KEY): r for r in earlier["rows"]
            }
            merged_gates = {g["name"]: g for g in earlier["gates"]}
    merged_rows.update((tuple(r[f] for f in _KEY), r) for r in rows)
    merged_gates.update((g["name"], g) for g in gates)
    document = {
        "bench": name,
        "host": _host(),
        "rows": list(merged_rows.values()),
        "gates": list(merged_gates.values()),
    }
    check_bench(document)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=2)
        fh.write("\n")
    unmet = [g for g in gates if not g["met"]]
    if unmet:
        raise AssertionError(
            "; ".join(
                f"{g['name']}: measured {g['measured']:.4g} against "
                f"bound {g['bound']:.4g}"
                for g in unmet
            )
        )
    return document


def deterministic_stats(result):
    """A result's ``SearchStats`` without the wall-clock fields."""
    return {
        name: value
        for name, value in result.stats.as_dict().items()
        if name not in ("elapsed_seconds", "states_per_second")
    }


def on_spec(run, *args):
    """``run(*args)`` on the engines' executable specs: ``EZRT_PURE=1``
    is set for this call only."""
    with mock.patch.dict(os.environ, EZRT_PURE="1"):
        return run(*args)


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
