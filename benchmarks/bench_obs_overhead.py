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
4. **No per-expansion calls** (hard gate, deterministic): on the
   spec path (``engine="kernel"`` under ``EZRT_PURE=1``, the
   scheduler's Python loop) the default path's metrics-registry and
   recorder calls do not grow when ``max_states`` grows — counted by
   stand-ins over two budgets.  Unlike a timing, this catches one stray call per
   expansion on any host.

Timing methodology (:func:`harness.measure`): one repetition
searches the *same* two workloads once each, and the variants'
repetitions run strictly interleaved.  A timed sample is ``repeats``
consecutive rounds, where ``repeats`` is calibrated once, with
:data:`SAMPLE_MARGIN` headroom, so that a bare sample takes at least
:data:`SAMPLE_SECONDS` — a single 5-20 ms search cannot support a 2%
gate on a shared host.  A sample's overhead is the median, over its
rounds, of the default repetition's time over the bare one's: the two
run back to back, so a host speed phase cancels in the ratio and a
preemption burst is outvoted.  The gate reads the median over
:data:`ROUNDS` samples.  (Summing each sample instead read from −2.6%
to +2.3% across runs on a shared 2-vCPU x86-64 host, because a sum
keeps every burst.)  The overhead is additionally clamped at 0: the
default path cannot actually be faster than the bare loop, so any
residual negative reading is timer noise and would only mask a later
regression by padding the gate.

Results are written to ``BENCH_obs.json`` at the repository root
(:func:`harness.write_bench`); CI runs this bench as a gate and
uploads the JSON as an artifact.
"""

from __future__ import annotations

import math
import os
import statistics
import tempfile
from functools import partial

from harness import (
    deterministic_stats,
    gate,
    measure,
    on_spec,
    row,
    write_bench,
)
from repro.blocks import compose
from repro.scheduler import PreRuntimeScheduler, SchedulerConfig
from repro.spec import paper_examples
from repro.workloads import random_task_set

#: Hard ceiling for the disabled-path slowdown: default-config search
#: may be at most 2% slower than the bare hot loop.
MAX_DISABLED_OVERHEAD = 0.02

ROUNDS = 7
#: the shortest bare sample, in seconds
SAMPLE_SECONDS = 1.0
#: calibration headroom: the host may run faster after the probe
SAMPLE_MARGIN = 1.25
VARIANTS = ("bare", "default", "traced")


def _bounded_n32():
    return random_task_set(
        32,
        total_utilization=0.4,
        seed=132,
        period_grid=(20, 40, 80),
    )


def _workloads():
    """Timed workloads: mine-pump, where the instrumentation's fixed
    per-search costs show, and a ``max_states``-bounded sweep of a
    large seeded net (the budget makes the visited count — and thus
    the measured work — exactly reproducible even though the model
    itself is infeasible to exhaust)."""
    yield "paper:mine-pump", paper_examples()["mine-pump"], {}
    yield "bounded:n32", _bounded_n32(), {"max_states": 8000}


def _search(net, variant, trace_path, limits):
    """One search under a given instrumentation variant."""
    if variant == "traced":
        config = SchedulerConfig(trace_jsonl=trace_path, **limits)
    else:
        config = SchedulerConfig(**limits)
    scheduler = PreRuntimeScheduler(net, config)
    if variant == "bare":
        # exactly the pre-obs hot loop: no registry, no recorder,
        # no heartbeat reach the search loop
        scheduler.metrics = None
    return scheduler.search()


def _repetition(nets, variant, trace_path):
    """One search of every timed net; their results."""
    return [_search(net, variant, trace_path, limits) for net, limits in nets]


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


def test_obs_overhead(report):
    fd, trace_path = tempfile.mkstemp(
        prefix="bench-obs-", suffix=".jsonl"
    )
    os.close(fd)
    try:
        # parity of the small paper models (single run each, untimed)
        for name, spec in paper_examples().items():
            net = compose(spec).compiled()
            _check_exactness(
                f"paper:{name}",
                {v: _search(net, v, trace_path, {}) for v in VARIANTS},
            )

        names, nets = [], []
        for name, spec, limits in _workloads():
            names.append(name)
            nets.append((compose(spec).compiled(), limits))
        _, probe = measure(
            {"bare": partial(_repetition, nets, "bare", trace_path)}, 3
        )
        repeats = math.ceil(
            SAMPLE_MARGIN * SAMPLE_SECONDS / min(probe["bare"])
        )
        first, timings = measure(
            {v: partial(_repetition, nets, v, trace_path) for v in VARIANTS},
            ROUNDS * repeats,
        )
    finally:
        os.unlink(trace_path)
    for index, name in enumerate(names):
        _check_exactness(name, {v: first[v][index] for v in VARIANTS})

    samples = [
        range(k, k + repeats)
        for k in range(0, ROUNDS * repeats, repeats)
    ]
    overheads = [
        statistics.median(
            timings["default"][i] / timings["bare"][i] for i in sample
        )
        - 1.0
        for sample in samples
    ]
    seconds = {
        v: statistics.median(
            sum(timings[v][i] for i in sample) for sample in samples
        )
        for v in VARIANTS
    }
    states = repeats * sum(r.stats.states_visited for r in first["bare"])
    workload = "+".join(names)
    rows = [
        row(workload, "large", "search", v, seconds=seconds[v],
            states=states)
        for v in VARIANTS
    ]
    # clamp at 0: the default path cannot truly beat the bare loop,
    # so a negative reading is timer noise, not a credit the gate
    # should bank against future regressions
    disabled = max(0.0, statistics.median(overheads))
    traced = seconds["traced"] / seconds["bare"] - 1.0
    report(
        "OBS1",
        f"disabled overhead ({repeats} x {workload} per sample)",
        f"< {MAX_DISABLED_OVERHEAD:.0%}",
        f"{statistics.median(overheads):+.2%} (traced {traced:+.2%})",
    )
    write_bench(
        "obs",
        rows,
        [
            gate(
                "disabled_overhead",
                MAX_DISABLED_OVERHEAD,
                disabled,
                disabled < MAX_DISABLED_OVERHEAD,
            )
        ],
    )


class _Counting:
    """Stand-in forwarding to ``inner`` that counts method calls."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def __getattr__(self, name):
        value = getattr(self.inner, name)
        if not callable(value):
            return value

        def counted(*args, **kwargs):
            self.calls += 1
            return value(*args, **kwargs)

        return counted


def _disabled_path_calls(net, max_states):
    """``(registry calls, recorder calls)`` of one budget-bound
    default-path search on the spec loop."""
    return on_spec(_count_calls, net, max_states)


def _count_calls(net, max_states):
    scheduler = PreRuntimeScheduler(
        net, SchedulerConfig(engine="kernel", max_states=max_states)
    )
    metrics = scheduler.metrics = _Counting(scheduler.metrics)
    recorder = scheduler.adapter.obs = _Counting(scheduler.adapter.obs)
    result = scheduler.search()
    assert result.exhausted
    assert result.stats.states_visited == max_states
    return metrics.calls, recorder.calls


def test_disabled_path_calls_do_not_grow_with_budget():
    net = compose(_bounded_n32()).compiled()
    assert _disabled_path_calls(net, 2000) == _disabled_path_calls(
        net, 8000
    )
