"""Experiment DB1 — packed DBM core: dense-time search at kernel speed.

Acceptance benchmark of the packed state-class hot path
(:mod:`repro.tpn.dbm`).  Every workload runs on these two state-class
configurations, strictly interleaved:

* **legacy** — :class:`~repro.scheduler.core.StateClassSpecAdapter`,
  the pre-packing adapter promoted to the dense search's executable
  spec, over the tuple-of-tuples
  :class:`~repro.tpn.stateclass.StateClassEngine`: the same O(n²)
  incremental closure repair per firing on tuple-of-tuples matrices,
  Python column scans per candidate list.  This
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
:func:`harness.measure`): engines run strictly interleaved after a
warm-up run, each workload takes the minimum of :data:`ROUNDS` rounds
with the collector paused, so host noise hits all engines alike.

Each ``search`` row of the driver also records its ``bytes`` per
visited class (its ``search.bytes_per_state`` gauge: key, record,
arena bytes and table slots per visited class, at their grown
capacities); no gate reads them.  The finish layer's rows are
``finish`` rows with engines ``driver`` (production) and ``spec``.

Results are written to ``BENCH_dbm.json`` at the repository root
(:func:`harness.write_bench`); CI builds the extension eagerly, runs
this bench as a gate and uploads the JSON as an artifact.
"""

from __future__ import annotations

from functools import partial

import pytest

from harness import (
    deterministic_stats,
    gate,
    measure,
    row,
    stored_baseline,
    total,
    write_bench,
)
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


pytestmark = pytest.mark.skipif(
    not _dbmc.available(),
    reason="the native core cannot be built here",
)


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def _workloads():
    """``(name, compiled net)`` pairs.

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
        yield f"paper:{spec.name}", compose(spec).compiled()
    for label, net in wide_interval_family(widths=WIDTHS):
        yield f"wide:{label}", net.compile()
    # the race nets scale the class-graph mass (376 → 7292 classes);
    # the larger members dominate the time-weighted wide aggregate,
    # which is exactly where the packed core's advantage compounds
    for n_jobs, width in ((4, 16), (4, 24), (5, 12), (6, 10)):
        net = wide_interval_race_net(n_jobs=n_jobs, width=width)
        yield f"wide:race-n{n_jobs}-w{width}", net.compile()
    feasible = wide_interval_job_net(
        n_jobs=4, width=12, feasible=True
    )
    yield "wide:feasible-n4-w12", feasible.compile()


def _search(net, engine):
    scheduler = PreRuntimeScheduler(
        net, SchedulerConfig(engine="stateclass")
    )
    if engine == "legacy":
        scheduler.adapter = StateClassSpecAdapter(net, scheduler.config)
    return scheduler.search()


def _finish_rows(name, net, result):
    """Min-of-N ``finish`` rows of a feasible search: production
    (``DbmEngine.realize`` + ``validate_with_reference``) and its
    Python spec, each checked to rebuild the search's schedule."""
    config = result.config
    index = net.transition_index
    sequence = [index[t] for t, _d, _a in result.firing_schedule]
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

    first, samples = measure({"driver": production, "spec": spec}, ROUNDS)
    for realized in first.values():
        assert realized.schedule == result.firing_schedule
        assert realized.windows == result.interval_schedule
    return [
        row(name, "warm", "finish", engine, seconds=min(times))
        for engine, times in samples.items()
    ]


def _run_suite():
    rows = []
    for name, net in _workloads():
        first, samples = measure(
            {engine: partial(_search, net, engine) for engine in ENGINES},
            ROUNDS,
        )

        # -- exactness gate ------------------------------------------
        legacy = first["legacy"]
        driver = first["driver"]
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
        rows.append(
            row(name, "warm", "search", "legacy",
                seconds=min(samples["legacy"]), states=visited)
        )
        rows.append(
            row(
                name,
                "warm",
                "search",
                "driver",
                seconds=min(samples["driver"]),
                states=visited,
                bytes=driver.metrics["gauges"]["search.bytes_per_state"],
            )
        )
        if legacy.feasible:
            rows.extend(_finish_rows(name, net, legacy))
    return rows


def _kernel_floor_row():
    """Re-measure the discrete kernel engine for its baseline floor.

    The DBM core extends the same compiled translation unit the
    kernel's hot loop lives in, so it must not cost the discrete
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
    config = SchedulerConfig(engine="kernel", max_states=3000)
    first, samples = measure(
        {"kernel": lambda: PreRuntimeScheduler(net, config).search()},
        ROUNDS,
    )
    return row(
        "scaling:n16",
        "warm",
        "search",
        "kernel",
        seconds=min(samples["kernel"]),
        states=first["kernel"].stats.states_visited,
    )


def test_dbm_throughput(report):
    rows = _run_suite()
    search = [r for r in rows if r["layer"] == "search"]
    finish = [r for r in rows if r["layer"] == "finish"]
    assert finish, "no feasible workload exercised the finish layer"
    wide = total(search, "seconds", "legacy", "wide:") / total(
        search, "seconds", "driver", "wide:"
    )
    wide_target = TARGET_SPEEDUP * DRIVER_TARGET_SPEEDUP
    finish_speedup = total(finish, "seconds", "spec") / total(
        finish, "seconds", "driver"
    )
    gates = [
        gate("driver_vs_legacy:wide", wide_target, wide,
             wide >= wide_target),
        gate("finish_spec_vs_driver", FINISH_TARGET_SPEEDUP,
             finish_speedup, finish_speedup >= FINISH_TARGET_SPEEDUP),
    ]
    report(
        "DB1",
        "wide aggregate search driver vs legacy",
        f">= {wide_target}",
        f"{wide:.2f}x",
    )
    report(
        "DB1",
        "finish layer: Python spec vs production",
        f">= {FINISH_TARGET_SPEEDUP}",
        f"{finish_speedup:.1f}x over {len(finish) // 2} feasible "
        "workloads",
    )

    floor = _kernel_floor_row()
    rows.append(floor)
    stored, comparable = stored_baseline()
    if stored is not None and comparable:
        ratio = floor["states"] / floor["seconds"] / stored["states_per_sec"]
        report(
            "DB1",
            "discrete kernel floor (shared C build)",
            f">= {MAX_BASELINE_REGRESSION}x of baseline",
            f"{ratio:.2f}x",
        )
        gates.append(
            gate("kernel_vs_baseline", MAX_BASELINE_REGRESSION, ratio,
                 ratio >= MAX_BASELINE_REGRESSION)
        )
    write_bench("dbm", rows, gates)
