"""Experiment KN1 — packed kernel throughput: the 3× hot-path target.

Acceptance benchmark of the packed search kernel (ISSUE 7,
:mod:`repro.tpn.kernel`).  Every workload runs on the reference and
the kernel engine, strictly interleaved, and the bench enforces in
order of importance:

1. **Exactness** (hard gate): byte-identical firing schedules and
   identical deterministic ``SearchStats`` counters across both
   discrete engines on every workload.  A perf win that changes the
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

Timing methodology: engines run strictly interleaved, each workload
takes the minimum of :data:`ROUNDS` rounds, so host noise hits all
engines alike.

A second, *large* tier (:func:`test_driver_large_tier`) times ≥1 s
serial searches — the 32-task scaling net at a 60,000-state budget and
an exhaustive 70,059-state refutation — interleaved
min-of-:data:`LARGE_ROUNDS`: the native search driver (``kernel``)
against :class:`~repro.scheduler.core.SearchCore` over the reference
engine (the driver's executable spec).  It gates the driver at
:data:`DRIVER_TARGET_SPEEDUP` × the spec in aggregate, after
byte-identical exactness asserts.

The bench measures the native core, so it skips when the core cannot
be built (``EZRT_PURE=1`` runs every search on the spec).  Results are
written to ``BENCH_kernel.json`` at the repository root; CI builds the
extension eagerly, runs this bench as a gate and uploads the JSON as
an artifact.
"""

from __future__ import annotations

import json
import os
import platform

import pytest

from harness import collector_free, deterministic_stats, stored_baseline
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

ENGINES = ("reference", "kernel")
ROUNDS = 7
LARGE_ENGINES = ("driver", "spec")
LARGE_ROUNDS = 3
JSON_PATH = os.path.join(
    os.path.dirname(__file__), "..", "BENCH_kernel.json"
)

pytestmark = pytest.mark.skipif(
    not _kernelc.available(),
    reason="the native core cannot be built here",
)


def _read_artifact() -> dict:
    """``BENCH_kernel.json``, or ``{}`` when absent or another
    bench's."""
    path = os.path.abspath(JSON_PATH)
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        if payload.get("bench") == "kernel":
            return payload
    return {}


def _write_artifact(payload: dict) -> None:
    with open(os.path.abspath(JSON_PATH), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _workloads():
    for name, spec in paper_examples().items():
        yield f"paper:{name}", spec, "paper", {}
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
            "scaling",
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
        "scaling",
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
            "grid",
            {"max_states": 4000},
        )


def _timed_search(net, engine, limits):
    scheduler = PreRuntimeScheduler(
        net, SchedulerConfig(**limits), engine=engine
    )
    return collector_free(scheduler.search)


def _measure(net, limits):
    """Interleaved min-of-N timing for the three engines on one net."""
    results = {}
    for engine in ENGINES:  # warm-up + exactness outputs
        results[engine], _ = _timed_search(net, engine, limits)
    best = {engine: float("inf") for engine in ENGINES}
    for _ in range(ROUNDS):
        for engine in ENGINES:
            _, seconds = _timed_search(net, engine, limits)
            best[engine] = min(best[engine], seconds)
    return results, best


def _run_suite():
    rows = []
    for name, spec, family, limits in _workloads():
        net = compose(spec).compiled()
        results, best = _measure(net, limits)

        # -- exactness gate ------------------------------------------
        ref = results["reference"]
        kernel = results["kernel"]
        assert (
            kernel.firing_schedule == ref.firing_schedule
        ), f"{name}: kernel produced a different schedule"
        assert deterministic_stats(kernel) == (
            deterministic_stats(ref)
        ), f"{name}: kernel disagrees on search statistics"

        visited = ref.stats.states_visited
        rows.append(
            {
                "workload": name,
                "family": family,
                "transitions": net.num_transitions,
                "places": net.num_places,
                "feasible": ref.feasible,
                "states_visited": visited,
                "reference_seconds": best["reference"],
                "kernel_seconds": best["kernel"],
                "kernel_states_per_sec": visited / best["kernel"],
                "speedup_vs_reference": best["reference"]
                / best["kernel"],
            }
        )
    return rows


def _aggregate(rows, family=None):
    picked = [
        r for r in rows if family is None or r["family"] == family
    ]
    states = sum(r["states_visited"] for r in picked)
    seconds = {
        engine: sum(r[f"{engine}_seconds"] for r in picked)
        for engine in ENGINES
    }
    return {
        "family": family or "all",
        "workloads": len(picked),
        "states_visited": states,
        "reference_states_per_sec": states / seconds["reference"],
        "kernel_states_per_sec": states / seconds["kernel"],
        "speedup_vs_reference": seconds["reference"]
        / seconds["kernel"],
    }


def test_kernel_throughput(report):
    rows = _run_suite()
    families = ("paper", "scaling", "grid")
    aggregates = {f: _aggregate(rows, f) for f in families}
    overall = _aggregate(rows)
    stored, comparable = stored_baseline()
    baseline_ratio = None
    if stored is not None:
        baseline_ratio = (
            overall["kernel_states_per_sec"] / stored["states_per_sec"]
        )

    payload = {
        "bench": "kernel",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "rounds": ROUNDS,
        "target_speedup": TARGET_SPEEDUP,
        "min_family_speedup": MIN_FAMILY_SPEEDUP,
        "target_met": overall["speedup_vs_reference"] >= TARGET_SPEEDUP,
        "baseline_ratio": baseline_ratio,
        "baseline_comparable": comparable,
        "rows": rows,
        "aggregates": {**aggregates, "all": overall},
    }
    large_tier = _read_artifact().get("large_tier")
    if large_tier is not None:
        payload["large_tier"] = large_tier
    _write_artifact(payload)

    for row in rows:
        report(
            "KN1",
            f"{row['workload']} kernel vs reference",
            "faster",
            f"{row['speedup_vs_reference']:.2f}x",
        )
    for family in families:
        agg = aggregates[family]
        report(
            "KN1",
            f"{family} aggregate kernel speedup",
            f">= {MIN_FAMILY_SPEEDUP} (target {TARGET_SPEEDUP})",
            f"{agg['speedup_vs_reference']:.2f}x",
        )
    report(
        "KN1",
        "overall aggregate kernel vs reference",
        f">= {TARGET_SPEEDUP}",
        f"{overall['speedup_vs_reference']:.2f}x "
        f"({overall['kernel_states_per_sec']:,.0f} states/sec)",
    )

    # -- throughput gates --------------------------------------------
    assert overall["speedup_vs_reference"] >= TARGET_SPEEDUP, (
        "kernel engine missed the 3x hot-path target: "
        f"{overall['speedup_vs_reference']:.2f}x aggregate"
    )
    for family in families:
        agg = aggregates[family]
        assert agg["speedup_vs_reference"] >= MIN_FAMILY_SPEEDUP, (
            f"kernel engine regressed on the {family} family: "
            f"{agg['speedup_vs_reference']:.2f}x"
        )
    if baseline_ratio is not None and comparable:
        assert baseline_ratio >= MAX_BASELINE_REGRESSION, (
            "kernel aggregate states/sec fell below the stored "
            f"baseline floor: {baseline_ratio:.2f}x of "
            "BASELINE_scheduler.json"
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


def _timed_large(net, engine, limits):
    """One large-tier search: the driver is the kernel engine, the spec
    is SearchCore over the reference engine."""
    scheduler = PreRuntimeScheduler(
        net,
        SchedulerConfig(**limits),
        engine="kernel" if engine == "driver" else "reference",
    )
    return collector_free(scheduler.search)


def test_driver_large_tier(report):
    rows = []
    for name, spec, limits in _large_workloads():
        net = compose(spec).compiled()
        best = {engine: float("inf") for engine in LARGE_ENGINES}
        results = {}
        for _ in range(LARGE_ROUNDS):
            for engine in LARGE_ENGINES:
                results[engine], seconds = _timed_large(
                    net, engine, limits
                )
                best[engine] = min(best[engine], seconds)
        spec_result = results["spec"]
        driver = results["driver"]
        assert driver.feasible == spec_result.feasible, name
        assert driver.exhausted == spec_result.exhausted, name
        assert driver.firing_schedule == spec_result.firing_schedule
        assert deterministic_stats(driver) == (
            deterministic_stats(spec_result)
        ), f"{name}: driver disagrees on search statistics"
        visited = spec_result.stats.states_visited
        row = {"workload": name, "states_visited": visited}
        for engine in LARGE_ENGINES:
            row[f"{engine}_seconds"] = best[engine]
            row[f"{engine}_states_per_sec"] = visited / best[engine]
        rows.append(row)

    states = sum(r["states_visited"] for r in rows)
    totals = {
        engine: sum(r[f"{engine}_seconds"] for r in rows)
        for engine in LARGE_ENGINES
    }
    aggregate = {
        f"{engine}_states_per_sec": states / totals[engine]
        for engine in LARGE_ENGINES
    }
    speedup = totals["spec"] / totals["driver"]
    aggregate["driver_vs_spec"] = speedup

    payload = _read_artifact()
    payload["bench"] = "kernel"
    payload["large_tier"] = {
        "rounds": LARGE_ROUNDS,
        "target_speedup_vs_spec": DRIVER_TARGET_SPEEDUP,
        "rows": rows,
        "aggregate": aggregate,
    }
    _write_artifact(payload)

    for row in rows:
        report(
            "KN1",
            f"{row['workload']} states/sec",
            "large tier",
            ", ".join(
                f"{engine} {row[f'{engine}_states_per_sec']:,.0f}"
                for engine in LARGE_ENGINES
            ),
        )
    report(
        "KN1",
        "large-tier driver vs reference spec",
        f">= {DRIVER_TARGET_SPEEDUP}",
        f"{speedup:.2f}x",
    )
    assert speedup >= DRIVER_TARGET_SPEEDUP, (
        "native search driver missed its large-tier target: "
        f"{speedup:.2f}x the reference spec"
    )


def test_json_artifact_shape():
    """The emitted artifact stays machine-readable across PRs."""
    if "rows" not in _read_artifact():
        test_kernel_throughput(lambda *a: None)
    entry = _read_artifact()
    assert entry["rows"], "no benchmark rows recorded"
    for row in entry["rows"]:
        assert row["kernel_states_per_sec"] > 0
        assert row["states_visited"] > 0
    assert set(entry["aggregates"]) == {
        "paper",
        "scaling",
        "grid",
        "all",
    }
