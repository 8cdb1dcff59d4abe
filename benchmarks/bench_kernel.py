"""Experiment KN1 — packed kernel throughput: the 3× hot-path target.

Acceptance benchmark of the packed search kernel
(:mod:`repro.tpn.kernel`).  Every workload runs ``engine="kernel"`` on
the native core and on the reference engine, its executable spec
(``EZRT_PURE=1`` set around those runs only, :func:`harness.on_spec`),
strictly interleaved, and the bench enforces in order of importance:

1. **Exactness** (hard gate): byte-identical firing schedules and
   identical deterministic ``SearchStats`` counters across both
   discrete implementations on every workload.  A perf win that changes the
   search is a bug.
2. **The 3× target** (hard gate): aggregate states/sec of the kernel
   engine over the whole paper + scaling + grid sweep at least :data:`TARGET_SPEEDUP` times the reference
   engine.  Each family additionally has a noise-proof regression
   floor (:data:`MIN_FAMILY_SPEEDUP`).
3. **No-regression floor vs the stored baseline**: the kernel engine's
   absolute aggregate states/sec must stay within
   :data:`MAX_BASELINE_REGRESSION` of the frozen pre-kernel hot-path
   rate in ``benchmarks/BASELINE_scheduler.json`` (measured on the
   since-deleted tuple-based engine): a kernel that falls back to
   pre-kernel throughput is a regression even if it still leads the
   in-process reference run (asserted only when the stored baseline
   was measured on a comparable interpreter/machine; the kernel
   currently clears it at ~1.5-1.9x).

The sweep deliberately mixes search shapes: the paper case studies
(exactness on real models, mine-pump dominating the timing), a
``max_states``-bounded scaling family (the budget makes the visited
count — and thus the measured work — exactly reproducible even though
the models are infeasible to exhaust), and a bounded campaign-grid
family with preemption.  Bounded runs keep every engine's per-state
work identical, so states/sec ratios compare like for like.

Timing methodology (:func:`harness.measure`): engines run strictly
interleaved after a warm-up run, each workload takes the minimum of
:data:`ROUNDS` collector-free rounds, so host noise hits all engines
alike.

A second, *large* tier (:func:`test_driver_large_tier`) times ≥1 s
serial searches — the 32-task scaling net at a 60,000-state budget and
an exhaustive 70,059-state refutation — interleaved
min-of-:data:`LARGE_ROUNDS`: the native search driver (``kernel``)
against :class:`~repro.scheduler.dfs.PreRuntimeScheduler`'s Python
loop over the reference engine (the driver's executable spec); its
rows are the ``large`` tier, with engine ``kernel`` for the driver and
``reference`` for the spec.  It gates the driver at
:data:`DRIVER_TARGET_SPEEDUP` × the spec in aggregate, after
byte-identical exactness asserts.

The bench measures the native core, so it skips when the core cannot
be built (``EZRT_PURE=1`` runs every search on the spec).  Both tests
write their rows and gates to ``BENCH_kernel.json`` at the repository
root (:func:`harness.write_bench`); CI builds the
extension eagerly, runs this bench as a gate and uploads the JSON as
an artifact.
"""

from __future__ import annotations

from functools import partial

import pytest

from harness import (
    deterministic_stats,
    gate,
    measure,
    on_spec,
    row,
    stored_baseline,
    total,
    write_bench,
)
from repro.blocks import compose
from repro.scheduler import PreRuntimeScheduler, SchedulerConfig
from repro.spec import paper_examples
from repro.tpn import _kernelc
from repro.workloads import random_task_set

#: ROADMAP target, a hard gate.
TARGET_SPEEDUP = 3.0
#: Per-family noise-proof floor: the kernel engine has cleared 3× on
#: every family measured, but the paper family's margin is thin enough
#: that a shared-core hiccup should not fail CI.
MIN_FAMILY_SPEEDUP = 2.5
#: Floor against the stored absolute baseline
#: (``benchmarks/BASELINE_scheduler.json``).
MAX_BASELINE_REGRESSION = 0.95

#: Large-tier gate: native driver vs the reference spec.  The gate was
#: 5.8x a pure-Python kernel that ran the large tier in 0.73x of the
#: reference's time, so 5.8 / 0.73 (rounded up) keeps it no looser.
DRIVER_TARGET_SPEEDUP = 8.0

#: Row labels: the kernel's spec and the kernel on the native core.
ENGINES = ("reference", "kernel")
FAMILIES = ("paper", "scaling", "grid")
ROUNDS = 7
LARGE_ROUNDS = 3

pytestmark = pytest.mark.skipif(
    not _kernelc.available(),
    reason="the native core cannot be built here",
)


def _workloads():
    for name, spec in paper_examples().items():
        yield f"paper:{name}", spec, {}
    # budget-bounded scaling sweep: high utilisation + tight deadlines
    # make the searches exhaust the budget, so every engine visits the
    # same `max_states` states and the timing measures the hot loop
    for n in (8, 16, 24):
        yield (
            f"scaling:n{n}",
            random_task_set(
                n,
                total_utilization=0.9,
                seed=100 + n,
                deadline_slack=0.7,
                period_grid=(20, 40, 80),
            ),
            {"max_states": 3000},
        )
    yield (
        "scaling:n32",
        random_task_set(
            32,
            total_utilization=0.4,
            seed=132,
            period_grid=(20, 40, 80),
        ),
        {"max_states": 6000},
    )
    for n, u, seed in ((8, 0.8, 5), (12, 0.7, 7)):
        yield (
            f"grid:n{n}-u{u}-s{seed}",
            random_task_set(
                n,
                total_utilization=u,
                seed=seed,
                preemptive_fraction=0.5,
                deadline_slack=0.75,
                period_grid=(10, 20, 40),
            ),
            {"max_states": 4000},
        )


def _large_workloads():
    yield (
        "large:scaling-n32",
        random_task_set(
            32,
            total_utilization=0.4,
            seed=132,
            period_grid=(20, 40, 80),
        ),
        {"max_states": 60_000},
    )
    yield (
        "large:refute-n7",
        random_task_set(
            7,
            0.95,
            seed=1,
            preemptive_fraction=0.5,
            deadline_slack=0.6,
            period_grid=(10, 20, 40),
        ),
        {},
    )


def _search(net, config):
    return PreRuntimeScheduler(net, config).search()


def _sweep(workloads, tier, rounds):
    """Time every workload on both engines after the exactness gate:
    byte-identical schedules, verdicts and deterministic counters."""
    rows = []
    for name, spec, limits in workloads:
        net = compose(spec).compiled()
        config = SchedulerConfig(engine="kernel", **limits)
        first, samples = measure(
            {
                "reference": partial(on_spec, _search, net, config),
                "kernel": partial(_search, net, config),
            },
            rounds,
        )
        ref, kernel = first["reference"], first["kernel"]
        assert kernel.feasible == ref.feasible, name
        assert kernel.exhausted == ref.exhausted, name
        assert (
            kernel.firing_schedule == ref.firing_schedule
        ), f"{name}: kernel produced a different schedule"
        assert deterministic_stats(kernel) == (
            deterministic_stats(ref)
        ), f"{name}: kernel disagrees on search statistics"
        rows.extend(
            row(
                name,
                tier,
                "search",
                engine,
                seconds=min(samples[engine]),
                states=ref.stats.states_visited,
            )
            for engine in ENGINES
        )
    return rows


def _speedup(rows, prefix=""):
    return total(rows, "seconds", "reference", prefix) / total(
        rows, "seconds", "kernel", prefix
    )


def test_kernel_throughput(report):
    rows = _sweep(_workloads(), "warm", ROUNDS)
    overall = _speedup(rows)
    kernel_rate = total(rows, "states", "kernel") / total(
        rows, "seconds", "kernel"
    )
    gates = [gate("kernel_vs_reference", TARGET_SPEEDUP, overall,
                  overall >= TARGET_SPEEDUP)]
    for family in FAMILIES:
        speedup = _speedup(rows, f"{family}:")
        gates.append(
            gate(
                f"kernel_vs_reference:{family}",
                MIN_FAMILY_SPEEDUP,
                speedup,
                speedup >= MIN_FAMILY_SPEEDUP,
            )
        )
        report(
            "KN1",
            f"{family} aggregate kernel speedup",
            f">= {MIN_FAMILY_SPEEDUP} (target {TARGET_SPEEDUP})",
            f"{speedup:.2f}x",
        )
    report(
        "KN1",
        "overall aggregate kernel vs reference",
        f">= {TARGET_SPEEDUP}",
        f"{overall:.2f}x ({kernel_rate:,.0f} states/sec)",
    )
    stored, comparable = stored_baseline()
    if stored is not None and comparable:
        ratio = kernel_rate / stored["states_per_sec"]
        gates.append(
            gate(
                "kernel_vs_baseline",
                MAX_BASELINE_REGRESSION,
                ratio,
                ratio >= MAX_BASELINE_REGRESSION,
            )
        )
    write_bench("kernel", rows, gates)


def test_driver_large_tier(report):
    rows = _sweep(_large_workloads(), "large", LARGE_ROUNDS)
    speedup = _speedup(rows)
    report(
        "KN1",
        "large-tier driver vs reference spec",
        f">= {DRIVER_TARGET_SPEEDUP}",
        f"{speedup:.2f}x",
    )
    write_bench(
        "kernel",
        rows,
        [
            gate(
                "driver_vs_spec:large",
                DRIVER_TARGET_SPEEDUP,
                speedup,
                speedup >= DRIVER_TARGET_SPEEDUP,
            )
        ],
    )
