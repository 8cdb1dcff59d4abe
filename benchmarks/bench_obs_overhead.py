"""Experiment OBS1 — observability overhead: the hot path stays hot.

Acceptance benchmark of the :mod:`repro.obs` layer (ISSUE 6).  The
instrumentation contract is that a search which nobody watches pays
(nearly) nothing: with tracing and progress off — the default — the
only live instrumentation is the always-on metrics registry, which
costs a handful of dict writes per *search*, not per state.  This
bench enforces that contract and records what full tracing costs, so
the trajectory is tracked PR over PR:

1. **Exactness** (hard gate): the deterministic ``SearchStats``
   counters and the firing schedule are identical across the bare,
   default and fully-traced runs on every workload.  Instrumentation
   that changes the search is a bug.
2. **Disabled-path overhead** (hard gate): aggregate wall-clock of the
   default path (metrics registry on, no recorder, no heartbeat) over
   the workload sweep within :data:`MAX_DISABLED_OVERHEAD` of the bare
   path (registry nulled out, exactly the pre-obs hot loop).
3. **Traced-path overhead** (recorded, not gated): the same aggregate
   with span recording to a JSONL sink — the price of ``--trace``.

Timing methodology: the three variants run strictly interleaved and
each takes the *median* of several rounds, so host noise hits all
variants alike and the median is robust against both scheduler
preemptions (which inflate a round) and lucky cache alignments (which
deflate one — taking the min instead let a single lucky ``default``
round report a negative "overhead").  The aggregate overhead is
additionally clamped at 0: the default path cannot actually be faster
than the bare loop, so any residual negative reading is timer noise
and would only mask a later regression by padding the gate.

Results are written to ``BENCH_obs.json`` at the repository root; CI
runs this bench as a gate and uploads the JSON as an artifact.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import tempfile
import time

from harness import deterministic_stats
from repro.blocks import compose
from repro.scheduler import PreRuntimeScheduler, SchedulerConfig
from repro.spec import paper_examples
from repro.workloads import random_task_set

#: Hard ceiling for the disabled-path slowdown (aggregate over the
#: sweep): default-config search may be at most 2% slower than the
#: bare hot loop.  ISSUE 6 acceptance criterion.
MAX_DISABLED_OVERHEAD = 0.02

ROUNDS = 7
JSON_PATH = os.path.join(
    os.path.dirname(__file__), "..", "BENCH_obs.json"
)


def _workloads():
    """Timed workloads: long enough that a 2% gate beats host noise.

    A sub-10ms search cannot support a 2% wall-clock gate (one timer
    tick or cache hiccup is worth more), so timing runs only on
    workloads in the 50ms+ range: the mine-pump case study and a
    ``max_states``-bounded sweep of a large seeded net (the budget
    makes the visited count — and thus the measured work — exactly
    reproducible even though the model itself is infeasible to
    exhaust).
    """
    yield "paper:mine-pump", paper_examples()["mine-pump"], {}
    yield (
        "bounded:n32",
        random_task_set(
            32,
            total_utilization=0.4,
            seed=132,
            period_grid=(20, 40, 80),
        ),
        {"max_states": 8000},
    )


def _exactness_workloads():
    """Small paper models: checked for parity, not timed."""
    for name, spec in paper_examples().items():
        yield f"paper:{name}", spec, {}


def _timed_search(net, variant, trace_path, limits):
    """One search under a given instrumentation variant."""
    if variant == "traced":
        config = SchedulerConfig(trace_jsonl=trace_path, **limits)
    else:
        config = SchedulerConfig(**limits)
    scheduler = PreRuntimeScheduler(net, config)
    if variant == "bare":
        # exactly the pre-obs hot loop: no registry, no recorder,
        # no heartbeat reach the search core
        scheduler.metrics = None
    started = time.perf_counter()
    result = scheduler.search()
    return result, time.perf_counter() - started


VARIANTS = ("bare", "default", "traced")


def _check_exactness(name, results):
    bare = results["bare"]
    for variant in ("default", "traced"):
        other = results[variant]
        assert (
            other.firing_schedule == bare.firing_schedule
        ), f"{name}: {variant} run changed the schedule"
        assert deterministic_stats(other) == (
            deterministic_stats(bare)
        ), f"{name}: {variant} run changed the search stats"
    # the default path must still ship the metrics snapshot home
    # (sections may be empty: the depth gauge is sampled only when a
    # deadline/tick/heartbeat pays for polling)
    assert set(results["default"].metrics) == {
        "counters",
        "gauges",
        "histograms",
    }, f"{name}: default run shipped no metrics snapshot"


def _measure(net, trace_path, limits):
    """Interleaved median-of-N timing for the three variants."""
    results = {}
    for variant in VARIANTS:  # warm-up + exactness outputs
        results[variant], _ = _timed_search(
            net, variant, trace_path, limits
        )
    samples = {variant: [] for variant in VARIANTS}
    for _ in range(ROUNDS):
        for variant in VARIANTS:
            _, seconds = _timed_search(
                net, variant, trace_path, limits
            )
            samples[variant].append(seconds)
    return results, {
        variant: statistics.median(rounds)
        for variant, rounds in samples.items()
    }


def test_obs_overhead(report):
    fd, trace_path = tempfile.mkstemp(
        prefix="bench-obs-", suffix=".jsonl"
    )
    os.close(fd)
    rows = []
    try:
        # parity of the small paper models (single run each, untimed)
        for name, spec, limits in _exactness_workloads():
            net = compose(spec).compiled()
            results = {
                variant: _timed_search(
                    net, variant, trace_path, limits
                )[0]
                for variant in VARIANTS
            }
            _check_exactness(name, results)

        for name, spec, limits in _workloads():
            net = compose(spec).compiled()
            results, medians = _measure(net, trace_path, limits)
            _check_exactness(name, results)
            rows.append(
                {
                    "workload": name,
                    "states_visited": results[
                        "bare"
                    ].stats.states_visited,
                    "bare_seconds": medians["bare"],
                    "default_seconds": medians["default"],
                    "traced_seconds": medians["traced"],
                    "disabled_overhead": medians["default"]
                    / medians["bare"]
                    - 1.0,
                    "traced_overhead": medians["traced"]
                    / medians["bare"]
                    - 1.0,
                }
            )
    finally:
        os.unlink(trace_path)

    total = {
        variant: sum(r[f"{variant}_seconds"] for r in rows)
        for variant in VARIANTS
    }
    # clamp at 0: the default path cannot truly beat the bare loop,
    # so a negative reading is timer noise, not a credit the gate
    # should bank against future regressions
    disabled_overhead = max(
        0.0, total["default"] / total["bare"] - 1.0
    )
    traced_overhead = total["traced"] / total["bare"] - 1.0
    payload = {
        "bench": "obs_overhead",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "rounds": ROUNDS,
        "max_disabled_overhead": MAX_DISABLED_OVERHEAD,
        "disabled_overhead": disabled_overhead,
        "traced_overhead": traced_overhead,
        "rows": rows,
    }
    with open(os.path.abspath(JSON_PATH), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")

    for row in rows:
        report(
            "OBS1",
            f"{row['workload']} disabled overhead",
            f"< {MAX_DISABLED_OVERHEAD:.0%}",
            f"{row['disabled_overhead']:+.2%} "
            f"(traced {row['traced_overhead']:+.2%})",
        )
    report(
        "OBS1",
        "aggregate disabled overhead",
        f"< {MAX_DISABLED_OVERHEAD:.0%}",
        f"{disabled_overhead:+.2%}",
    )

    # -- the gate ----------------------------------------------------
    assert disabled_overhead < MAX_DISABLED_OVERHEAD, (
        "observability made the default search path "
        f"{disabled_overhead:+.2%} slower than the bare hot loop "
        f"(ceiling {MAX_DISABLED_OVERHEAD:.0%})"
    )


def test_json_artifact_shape():
    """The emitted artifact stays machine-readable across PRs."""
    if not os.path.exists(os.path.abspath(JSON_PATH)):
        test_obs_overhead(lambda *a: None)
    with open(os.path.abspath(JSON_PATH), encoding="utf-8") as fh:
        payload = json.load(fh)
    assert payload["bench"] == "obs_overhead"
    assert payload["rows"], "no benchmark rows recorded"
    for row in payload["rows"]:
        assert row["bare_seconds"] > 0
        assert row["states_visited"] > 0
    assert payload["disabled_overhead"] < payload[
        "max_disabled_overhead"
    ]
