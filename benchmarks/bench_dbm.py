"""Experiment DB1 — packed DBM core: dense-time search at kernel speed.

Acceptance benchmark of the packed state-class hot path
(:mod:`repro.tpn.dbm`).  Every workload runs on these two state-class
configurations, strictly interleaved:

* **legacy** — :class:`~repro.scheduler.core.StateClassSpecAdapter`,
  the pre-packing adapter promoted to the dense search's executable
  spec, over the tuple-of-tuples
  :class:`~repro.tpn.stateclass.StateClassEngine`: full Floyd–Warshall
  re-closure per firing, Python column scans per candidate list.  This
  is the engine the throughput target is measured against;
* **driver** — the production path: the whole search in the native
  core's ``dc_search_*`` driver over the packed
  :class:`~repro.tpn.dbm.DbmEngine`.

The bench measures the native core, so it skips when the core cannot
be built (``EZRT_PURE=1`` runs every search on the spec).

The bench enforces, in order of importance:

1. **Exactness** (hard gate): byte-identical firing schedules and
   identical deterministic ``SearchStats`` counters across all
   configurations on every workload.  A perf win that changes the
   search is a bug.
2. **The 9× target** (hard gate): aggregate states/sec of the driver
   over the wide-interval family at least :data:`TARGET_SPEEDUP` ×
   :data:`DRIVER_TARGET_SPEEDUP` times the legacy engine — wide
   release windows are exactly where dense-time search is the winning
   engine (see ``bench_stateclass``), so that is where its constant
   factor must be paid down.  The ratio is recorded as
   ``driver_vs_legacy``.
3. **Discrete-kernel no-regression floor**: the packed DBM core
   shares its C translation unit and build machinery with the search
   kernel, so the bench re-measures the kernel engine on a bounded
   discrete workload and holds it to the same absolute floor
   ``bench_kernel`` applies — at least
   :data:`MAX_BASELINE_REGRESSION` of the frozen pre-kernel hot-path
   rate in ``benchmarks/BASELINE_scheduler.json`` (asserted only when
   the stored baseline is comparable).
4. **The native finish** (hard gate): on every feasible workload the
   bench times the *finish* layer — concretising the class path and
   replaying the schedule through Definition 3.1 — as production runs
   it (``DbmEngine.realize`` then
   ``validate_with_reference``: ``dc_realize`` and ``ez_replay`` with
   the core live) and as its Python spec
   (``realize_firing_sequence`` then the Python replay), after
   asserting both give the search's schedule.  Rows record
   ``finish_ms`` and ``finish_spec_ms``; the aggregate spec time must
   be at least :data:`FINISH_TARGET_SPEEDUP` times the production
   time.

Timing methodology (as in ``bench_kernel``, through
:mod:`harness`): engines run strictly interleaved, each workload takes
the minimum of :data:`ROUNDS` rounds with the collector paused, so
host noise hits all engines alike.

Each row also records the driver's ``driver_bytes_per_class`` (its
``search.bytes_per_state`` gauge: key, record, arena bytes and table
slots per visited class, at their grown capacities) beside the times,
and each aggregate the state-weighted mean; no gate reads them.

Results are written to ``BENCH_dbm.json`` at the repository root;
CI builds the extension eagerly, runs this bench as a gate and uploads
the JSON as an artifact.
"""

from __future__ import annotations

import json
import os
import platform

import pytest

from harness import collector_free, deterministic_stats, stored_baseline
from repro.blocks import compose
from repro.scheduler import PreRuntimeScheduler, SchedulerConfig
from repro.scheduler.core import (
    StateClassSpecAdapter,
    _replay_with_reference,
    validate_with_reference,
)
from repro.spec import (
    fig3_precedence,
    fig4_exclusion,
    fig8_preemptive,
    mine_pump,
)
from repro.tpn import _dbmc
from repro.tpn.dbm import DbmEngine
from repro.tpn.stateclass import realize_firing_sequence
from repro.workloads import (
    random_task_set,
    wide_interval_family,
    wide_interval_job_net,
    wide_interval_race_net,
)

#: The packed core's target: aggregate states/sec over the
#: wide-interval family vs the tuple engine.
TARGET_SPEEDUP = 3.0
#: Floor for the discrete kernel engine against the stored absolute
#: baseline (same contract as ``bench_kernel``).
MAX_BASELINE_REGRESSION = 0.95
#: The search driver's own factor on top of :data:`TARGET_SPEEDUP`:
#: the driver must run the wide family at least ``TARGET_SPEEDUP *
#: DRIVER_TARGET_SPEEDUP`` times the tuple engine.
DRIVER_TARGET_SPEEDUP = 3.0
#: Native-finish gate: aggregate concretise + replay time of the
#: Python spec over the production finish, across the feasible
#: workloads.
FINISH_TARGET_SPEEDUP = 10.0

ENGINES = ("legacy", "driver")
ROUNDS = 7
WIDTHS = (4, 6, 8)
JSON_PATH = os.path.join(
    os.path.dirname(__file__), "..", "BENCH_dbm.json"
)


pytestmark = pytest.mark.skipif(
    not _dbmc.available(),
    reason="the native core cannot be built here",
)


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def _workloads():
    """``(name, compiled net, family)`` triples.

    The paper case studies pin exactness on real models (mine-pump
    dominates their timing mass); the wide-interval family is the
    gated one — exhaustive refutations plus one feasible member so
    concretisation and schedule byte-identity are exercised end to
    end.  Every workload either exhausts its class graph or finds a
    schedule, so both configurations do identical search work.
    """
    for spec in (
        fig3_precedence(),
        fig4_exclusion(),
        fig8_preemptive(),
        mine_pump(),
    ):
        yield f"paper:{spec.name}", compose(spec).compiled(), "paper"
    for label, net in wide_interval_family(widths=WIDTHS):
        yield f"wide:{label}", net.compile(), "wide"
    # the race nets scale the class-graph mass (376 → 7292 classes);
    # the larger members dominate the time-weighted wide aggregate,
    # which is exactly where the packed core's advantage compounds
    for n_jobs, width in ((4, 16), (4, 24), (5, 12), (6, 10)):
        net = wide_interval_race_net(n_jobs=n_jobs, width=width)
        yield f"wide:race-n{n_jobs}-w{width}", net.compile(), "wide"
    feasible = wide_interval_job_net(
        n_jobs=4, width=12, feasible=True
    )
    yield "wide:feasible-n4-w12", feasible.compile(), "wide"


def _scheduler(net, engine):
    scheduler = PreRuntimeScheduler(
        net, SchedulerConfig(), engine="stateclass"
    )
    if engine == "legacy":
        scheduler.adapter = StateClassSpecAdapter(net, scheduler.config)
    return scheduler


def _timed_search(net, engine):
    return collector_free(_scheduler(net, engine).search)


def _finish_layer(net, result):
    """Min-of-N milliseconds of a feasible search's finish layer:
    production (``DbmEngine.realize`` + ``validate_with_reference``)
    and its Python spec, interleaved, each checked to rebuild the
    search's schedule first."""
    config = result.config
    index = net.transition_index
    sequence = [index[name] for name, _d, _a in result.firing_schedule]
    engine = DbmEngine(net, reset_policy=config.reset_policy)

    def production():
        realized = engine.realize(sequence)
        validate_with_reference(net, config, realized.schedule)
        return realized

    def spec():
        realized = realize_firing_sequence(
            net, sequence, config.reset_policy
        )
        _replay_with_reference(net, config, realized.schedule)
        return realized

    for run in (production, spec):
        realized = run()
        assert realized.schedule == result.firing_schedule
        assert realized.windows == result.interval_schedule
    best = {production: float("inf"), spec: float("inf")}
    for _ in range(ROUNDS):
        for run in (production, spec):
            best[run] = min(best[run], collector_free(run)[1])
    return {
        "finish_ms": best[production] * 1000.0,
        "finish_spec_ms": best[spec] * 1000.0,
    }


def _finish_aggregate(rows):
    picked = [r for r in rows if "finish_ms" in r]
    finish = sum(r["finish_ms"] for r in picked)
    spec = sum(r["finish_spec_ms"] for r in picked)
    return {
        "workloads": len(picked),
        "finish_ms": finish,
        "finish_spec_ms": spec,
        "spec_vs_finish": spec / finish,
    }


def _measure(net):
    """Interleaved min-of-N timing for the configurations."""
    results = {}
    for engine in ENGINES:  # warm-up + exactness outputs
        results[engine], _ = _timed_search(net, engine)
    best = {engine: float("inf") for engine in ENGINES}
    for _ in range(ROUNDS):
        for engine in ENGINES:
            _, seconds = _timed_search(net, engine)
            best[engine] = min(best[engine], seconds)
    return results, best


def _run_suite():
    rows = []
    for name, net, family in _workloads():
        results, best = _measure(net)

        # -- exactness gate ------------------------------------------
        legacy = results["legacy"]
        driver = results["driver"]
        assert driver.feasible == legacy.feasible, (
            f"{name}: driver verdict diverged from legacy"
        )
        assert (
            driver.firing_schedule == legacy.firing_schedule
        ), f"{name}: driver produced a different schedule"
        assert deterministic_stats(driver) == (
            deterministic_stats(legacy)
        ), f"{name}: driver disagrees on search statistics"

        visited = legacy.stats.states_visited
        row = {
            "workload": name,
            "family": family,
            "transitions": net.num_transitions,
            "places": net.num_places,
            "feasible": legacy.feasible,
            "states_visited": visited,
            "driver_states_per_sec": visited / best["driver"],
            "driver_vs_legacy": best["legacy"] / best["driver"],
            # the driver's visited-class memory: key, record, arena
            # bytes and table slots at their grown capacities
            "driver_bytes_per_class": driver.metrics["gauges"][
                "search.bytes_per_state"
            ],
        }
        for engine in ENGINES:
            row[f"{engine}_seconds"] = best[engine]
        if legacy.feasible:
            row.update(_finish_layer(net, legacy))
        rows.append(row)
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
        "legacy_states_per_sec": states / seconds["legacy"],
        "driver_states_per_sec": states / seconds["driver"],
        "driver_vs_legacy": seconds["legacy"] / seconds["driver"],
        "driver_bytes_per_class": sum(
            r["driver_bytes_per_class"] * r["states_visited"]
            for r in picked
        )
        / states,
    }


def _kernel_floor():
    """Re-measure the discrete kernel engine against its baseline.

    The DBM core extends the same compiled translation unit the
    kernel's hot loop lives in, so this PR must not cost the discrete
    engine anything.  One bounded workload (``bench_kernel``'s
    scaling shape) is enough for an absolute-rate floor; the full
    sweep remains ``bench_kernel``'s job.
    """
    spec = random_task_set(
        16,
        total_utilization=0.9,
        seed=116,
        deadline_slack=0.7,
        period_grid=(20, 40, 80),
    )
    net = compose(spec).compiled()
    limits = {"max_states": 3000}

    def _timed_kernel():
        scheduler = PreRuntimeScheduler(
            net, SchedulerConfig(**limits), engine="kernel"
        )
        return collector_free(scheduler.search)

    result, _ = _timed_kernel()  # warm-up
    best = float("inf")
    for _ in range(ROUNDS):
        _, seconds = _timed_kernel()
        best = min(best, seconds)
    rate = result.stats.states_visited / best

    stored, comparable = stored_baseline()
    ratio = None
    if stored is not None:
        ratio = rate / stored["states_per_sec"]
    return {
        "workload": "scaling:n16",
        "states_visited": result.stats.states_visited,
        "kernel_states_per_sec": rate,
        "baseline_states_per_sec": (
            None if stored is None else stored["states_per_sec"]
        ),
        "baseline_ratio": ratio,
        "baseline_comparable": comparable,
    }


def test_dbm_throughput(report):
    rows = _run_suite()
    families = ("paper", "wide")
    aggregates = {f: _aggregate(rows, f) for f in families}
    overall = _aggregate(rows)
    finish = _finish_aggregate(rows)
    kernel_floor = _kernel_floor()

    wide = aggregates["wide"]
    wide_target = TARGET_SPEEDUP * DRIVER_TARGET_SPEEDUP
    payload = {
        "bench": "dbm",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "rounds": ROUNDS,
        "target_speedup": TARGET_SPEEDUP,
        "max_baseline_regression": MAX_BASELINE_REGRESSION,
        "driver_target_speedup": DRIVER_TARGET_SPEEDUP,
        "finish_target_speedup": FINISH_TARGET_SPEEDUP,
        "finish": finish,
        "target_met": wide["driver_vs_legacy"] >= wide_target,
        "kernel_floor": kernel_floor,
        "rows": rows,
        "aggregates": {**aggregates, "all": overall},
    }
    with open(os.path.abspath(JSON_PATH), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")

    for row in rows:
        report(
            "DB1",
            f"{row['workload']} driver vs legacy",
            "faster",
            f"{row['driver_vs_legacy']:.2f}x",
        )
    report(
        "DB1",
        "wide aggregate search driver vs legacy",
        f">= {wide_target}",
        f"{wide['driver_vs_legacy']:.2f}x "
        f"({wide['driver_states_per_sec']:,.0f} vs "
        f"{wide['legacy_states_per_sec']:,.0f} states/sec, "
        f"{wide['driver_bytes_per_class']:,.0f} B/class)",
    )
    report(
        "DB1",
        "finish layer: Python spec vs production",
        f">= {FINISH_TARGET_SPEEDUP}",
        f"{finish['spec_vs_finish']:.1f}x "
        f"({finish['finish_ms']:.2f} vs {finish['finish_spec_ms']:.2f} ms "
        f"over {finish['workloads']} feasible workloads)",
    )
    if kernel_floor["baseline_ratio"] is not None:
        report(
            "DB1",
            "discrete kernel floor (shared C build)",
            f">= {MAX_BASELINE_REGRESSION}x of baseline",
            f"{kernel_floor['baseline_ratio']:.2f}x "
            f"({kernel_floor['kernel_states_per_sec']:,.0f} "
            "states/sec)",
        )

    # -- throughput gates --------------------------------------------
    assert wide["driver_vs_legacy"] >= wide_target, (
        f"DBM search driver missed the {wide_target:g}x wide-interval "
        f"target: {wide['driver_vs_legacy']:.2f}x the tuple engine"
    )
    assert finish["spec_vs_finish"] >= FINISH_TARGET_SPEEDUP, (
        "the native finish missed its target: the Python spec "
        f"takes only {finish['spec_vs_finish']:.1f}x its time"
    )
    if (
        kernel_floor["baseline_comparable"]
        and kernel_floor["baseline_ratio"] is not None
    ):
        assert (
            kernel_floor["baseline_ratio"] >= MAX_BASELINE_REGRESSION
        ), (
            "discrete kernel states/sec fell below the stored "
            f"baseline floor: {kernel_floor['baseline_ratio']:.2f}x "
            "of BASELINE_scheduler.json"
        )


def test_json_artifact_shape():
    """The emitted artifact stays machine-readable across PRs."""
    path = os.path.abspath(JSON_PATH)
    entry = None
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            entry = json.load(fh)
    if not entry or entry.get("bench") != "dbm":
        test_dbm_throughput(lambda *a: None)
        with open(path, encoding="utf-8") as fh:
            entry = json.load(fh)
    assert entry["rows"], "no benchmark rows recorded"
    for row in entry["rows"]:
        assert row["driver_vs_legacy"] > 0
        assert row["driver_states_per_sec"] > 0
        assert row["states_visited"] > 0
        assert row["driver_bytes_per_class"] > 0
        assert ("finish_ms" in row) == row["feasible"]
    assert set(entry["aggregates"]) == {"paper", "wide", "all"}
    assert any(row["feasible"] for row in entry["rows"])
    assert entry["finish"]["workloads"] == sum(
        row["feasible"] for row in entry["rows"]
    )
    assert entry["kernel_floor"]["kernel_states_per_sec"] > 0
