"""Experiment DB1 — packed DBM core: dense-time search at kernel speed.

Acceptance benchmark of the packed state-class hot path (ISSUE 10,
:mod:`repro.tpn.dbm`).  Every workload runs on three state-class
configurations, strictly interleaved:

* **legacy** — the pre-PR ``StateClassAdapter`` (embedded below,
  verbatim) over the tuple-of-tuples
  :class:`~repro.tpn.stateclass.StateClassEngine`: full Floyd–Warshall
  re-closure per firing, Python column scans per candidate list.  This
  is the engine the ISSUE's 3× target is measured against;
* **packed** — the production adapter over
  :class:`~repro.tpn.dbm.DbmEngine`, native C core when built;
* **pure** — the same packed adapter with the C core disabled
  (``EZRT_PURE=1`` equivalent), pinning the fallback's floor.

The bench enforces, in order of importance:

1. **Exactness** (hard gate): byte-identical firing schedules and
   identical deterministic ``SearchStats`` counters across all three
   configurations on every workload.  A perf win that changes the
   search is a bug.
2. **The 3× target** (hard gate with the compiled core): aggregate
   states/sec over the wide-interval family at least
   :data:`TARGET_SPEEDUP` times the legacy engine — wide release
   windows are exactly where dense-time search is the winning engine
   (see ``bench_stateclass``), so that is where its constant factor
   must be paid down.
3. **Pure fallback** (hard floor, always measured): the packed
   buffers without the C core must not lose to the legacy engine on
   the overall aggregate (:data:`MIN_PURE_SPEEDUP`) — a global
   no-regression claim for the fallback.  Its decisive wins are the
   larger-matrix paper case studies; the small wide race nets run at
   parity within host noise.
4. **Discrete-kernel no-regression floor**: the packed DBM core
   shares its C translation unit and build machinery with the search
   kernel (``_kernelc`` gained the candidates/window path in this
   PR), so the bench re-measures the kernel engine on a bounded
   discrete workload and holds it to the same absolute floor
   ``bench_kernel`` applies — at least
   :data:`MAX_BASELINE_REGRESSION` of the frozen pre-kernel hot-path
   rate in ``benchmarks/BASELINE_scheduler.json`` (asserted only when
   the stored baseline is comparable and the kernel core is native).

Timing methodology (as in ``bench_kernel``): engines run strictly
interleaved, each workload takes the minimum of :data:`ROUNDS`
rounds with the collector paused, so host noise hits all engines
alike.

Results are written to ``BENCH_dbm.json`` at the repository root; CI
builds the extension eagerly, runs this bench as a gate and uploads
the JSON as an artifact (plus a second pure-mode job with
``EZRT_PURE=1``).
"""

from __future__ import annotations

import gc
import json
import os
import platform
import time

from repro.blocks import compose
from repro.scheduler import PreRuntimeScheduler, SchedulerConfig
from repro.scheduler.core import DISABLED, _AdapterBase, _DenseView
from repro.scheduler.result import SearchStats
from repro.spec import (
    fig3_precedence,
    fig4_exclusion,
    fig8_preemptive,
    mine_pump,
)
from repro.tpn import _dbmc, _kernelc
from repro.tpn.stateclass import (
    StateClass,
    StateClassEngine,
    realize_firing_sequence,
)
from repro.workloads import (
    random_task_set,
    wide_interval_family,
    wide_interval_job_net,
    wide_interval_race_net,
)

#: ISSUE 10 target, a hard gate when the compiled DBM core is active:
#: aggregate states/sec over the wide-interval family vs the pre-PR
#: tuple engine.
TARGET_SPEEDUP = 3.0
#: Pure-Python fallback floor (overall aggregate): flat buffers +
#: incremental closure repair without the C core must still not lose
#: to the tuple engine.
MIN_PURE_SPEEDUP = 1.0
#: Floor for the discrete kernel engine against the stored absolute
#: baseline (same contract as ``bench_kernel``).
MAX_BASELINE_REGRESSION = 0.95

ENGINES = ("legacy", "packed", "pure")
ROUNDS = 7
WIDTHS = (4, 6, 8)
JSON_PATH = os.path.join(
    os.path.dirname(__file__), "..", "BENCH_dbm.json"
)
BASELINE_PATH = os.path.join(
    os.path.dirname(__file__), "BASELINE_scheduler.json"
)


# ----------------------------------------------------------------------
# The pre-PR comparator, embedded verbatim
# ----------------------------------------------------------------------
class _LegacyStateClassAdapter(_AdapterBase):
    """The pre-ISSUE-10 ``StateClassAdapter``, kept here as the
    measured baseline: tuple-of-tuples classes from
    :class:`StateClassEngine` (full Floyd–Warshall re-closure per
    firing), Python column scans and filters per candidate list.
    Everything below is the adapter exactly as it shipped, so the
    speedup the bench reports is the packed core, not loop drift.
    """

    name = "stateclass-legacy"

    def __init__(self, net, config):
        super().__init__(net, config)
        self.engine = StateClassEngine(
            net, reset_policy=config.reset_policy
        )

    def root(self) -> tuple[StateClass, int]:
        return self.engine.initial_class(), 0

    def successor(
        self, cls: StateClass, transition: int, _delay: int
    ) -> StateClass | None:
        return self.engine.try_fire(cls, transition)

    def candidates_of(
        self, cls: StateClass, stats: SearchStats
    ) -> list[tuple[int, int]]:
        miss = self._miss
        dbm = cls.dbm
        size = len(cls.enabled) + 1
        cands: list[tuple[int, int]] = []
        for var, t in enumerate(cls.enabled, start=1):
            if t in miss:
                continue
            for u in range(1, size):
                if dbm[u][var] < 0:
                    break
            else:
                cands.append((t, int(-dbm[0][var])))
        if not cands:
            return cands

        priorities = self._priority
        if self._strict:
            best = min(priorities[t] for t, _lo in cands)
            cands = [
                (t, lo) for t, lo in cands if priorities[t] == best
            ]

        if self._partial_order and len(cands) > 1:
            reduced = self._forced_immediate_dense(cls, cands)
            if reduced is not None:
                stats.reductions += 1
                return [reduced]

        if len(cands) == 1:
            return cands
        expanded = [(lower, priorities[t], t) for t, lower in cands]
        expanded.sort()
        return [(t, q) for q, _p, t in expanded]

    def _forced_immediate_dense(
        self, cls: StateClass, cands: list[tuple[int, int]]
    ) -> tuple[int, int] | None:
        net = self.net
        conflict_free = net.conflict_free
        post_conflicts = net.post_conflicts
        enabled = set(cls.enabled)
        dbm = cls.dbm
        for t, lower in cands:
            if lower != 0 or not conflict_free[t]:
                continue
            var = cls.enabled.index(t) + 1
            if dbm[var][0] != 0:
                continue  # not forced at this instant
            for other in post_conflicts[t]:
                if other in enabled:
                    break  # an enabled transition consumes from t•
            else:
                return (t, 0)
        return None

    def clocks_view(self, cls: StateClass) -> _DenseView:
        clocks = [DISABLED] * self.net.num_transitions
        eft = self._eft
        row0 = cls.dbm[0]
        for var, t in enumerate(cls.enabled, start=1):
            elapsed = eft[t] + int(row0[var])  # eft − lower bound
            clocks[t] = elapsed if elapsed > 0 else 0
        return _DenseView(tuple(clocks))

    def finalize_path(self, actions, stats):
        sequence = [t for t, _q, _at in actions]
        realized = realize_firing_sequence(
            self.net, sequence, self.config.reset_policy
        )
        from repro.scheduler.parallel import validate_with_reference

        validate_with_reference(
            self.net, self.config, realized.schedule
        )
        return realized.schedule, realized.windows


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
    schedule, so all three configurations do identical search work.
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
        scheduler.adapter = _LegacyStateClassAdapter(
            net, scheduler.config
        )
    elif engine == "pure":
        scheduler.adapter.engine._core = None
        scheduler.adapter.engine.native = False
    return scheduler


def _timed_search(net, engine):
    scheduler = _scheduler(net, engine)
    # collector pauses scale with whatever the rest of the process has
    # allocated (other benches in the same run), which would punish the
    # fastest engine the hardest — time every engine collector-free
    gc.collect()
    reenable = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        result = scheduler.search()
        seconds = time.perf_counter() - started
    finally:
        if reenable:
            gc.enable()
    return result, seconds


def _deterministic_stats(result):
    return {
        name: value
        for name, value in result.stats.as_dict().items()
        if name not in ("elapsed_seconds", "states_per_second")
    }


def _measure(net):
    """Interleaved min-of-N timing for the three configurations."""
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
        for engine in ("packed", "pure"):
            other = results[engine]
            assert other.feasible == legacy.feasible, (
                f"{name}: {engine} verdict diverged from legacy"
            )
            assert (
                other.firing_schedule == legacy.firing_schedule
            ), f"{name}: {engine} produced a different schedule"
            assert _deterministic_stats(other) == (
                _deterministic_stats(legacy)
            ), f"{name}: {engine} disagrees on search statistics"

        visited = legacy.stats.states_visited
        rows.append(
            {
                "workload": name,
                "family": family,
                "transitions": net.num_transitions,
                "places": net.num_places,
                "feasible": legacy.feasible,
                "states_visited": visited,
                "legacy_seconds": best["legacy"],
                "packed_seconds": best["packed"],
                "pure_seconds": best["pure"],
                "packed_states_per_sec": visited / best["packed"],
                "speedup_vs_legacy": best["legacy"]
                / best["packed"],
                "pure_speedup_vs_legacy": best["legacy"]
                / best["pure"],
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
        "legacy_states_per_sec": states / seconds["legacy"],
        "packed_states_per_sec": states / seconds["packed"],
        "pure_states_per_sec": states / seconds["pure"],
        "speedup_vs_legacy": seconds["legacy"] / seconds["packed"],
        "pure_speedup_vs_legacy": seconds["legacy"]
        / seconds["pure"],
    }


def _baseline():
    """The stored absolute baseline, or ``(None, None)``."""
    path = os.path.abspath(BASELINE_PATH)
    if not os.path.exists(path):
        return None, None
    with open(path, encoding="utf-8") as fh:
        stored = json.load(fh)
    same_python = str(stored.get("python", "")).split(".")[:2] == (
        platform.python_version().split(".")[:2]
    )
    same_machine = stored.get("machine") in (None, platform.machine())
    return stored, same_python and same_machine


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
        gc.collect()
        reenable = gc.isenabled()
        gc.disable()
        try:
            started = time.perf_counter()
            result = scheduler.search()
            seconds = time.perf_counter() - started
        finally:
            if reenable:
                gc.enable()
        return result, seconds

    result, _ = _timed_kernel()  # warm-up
    best = float("inf")
    for _ in range(ROUNDS):
        _, seconds = _timed_kernel()
        best = min(best, seconds)
    rate = result.stats.states_visited / best

    stored, comparable = _baseline()
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
        "native_core": _kernelc.available(),
    }


def test_dbm_throughput(report):
    native = _dbmc.available()
    rows = _run_suite()
    families = ("paper", "wide")
    aggregates = {f: _aggregate(rows, f) for f in families}
    overall = _aggregate(rows)
    kernel_floor = _kernel_floor()

    wide = aggregates["wide"]
    payload = {
        "bench": "dbm",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "rounds": ROUNDS,
        "native_core": native,
        "load_error": (
            None if _dbmc.LOAD_ERROR is None
            else str(_dbmc.LOAD_ERROR)
        ),
        "target_speedup": TARGET_SPEEDUP,
        "min_pure_speedup": MIN_PURE_SPEEDUP,
        "max_baseline_regression": MAX_BASELINE_REGRESSION,
        "target_met": wide["speedup_vs_legacy"] >= TARGET_SPEEDUP,
        "kernel_floor": kernel_floor,
        "rows": rows,
        "aggregates": {**aggregates, "all": overall},
    }
    with open(os.path.abspath(JSON_PATH), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")

    core = "native" if native else "pure"
    for row in rows:
        report(
            "DB1",
            f"{row['workload']} packed ({core}) vs legacy",
            "faster",
            f"{row['speedup_vs_legacy']:.2f}x "
            f"(pure {row['pure_speedup_vs_legacy']:.2f}x)",
        )
    report(
        "DB1",
        f"wide aggregate packed ({core}) vs legacy",
        f">= {TARGET_SPEEDUP}" if native else f">= {MIN_PURE_SPEEDUP}",
        f"{wide['speedup_vs_legacy']:.2f}x "
        f"({wide['packed_states_per_sec']:,.0f} states/sec)",
    )
    report(
        "DB1",
        "overall aggregate pure fallback vs legacy",
        f">= {MIN_PURE_SPEEDUP}",
        f"{overall['pure_speedup_vs_legacy']:.2f}x "
        f"(wide {wide['pure_speedup_vs_legacy']:.2f}x)",
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
    if native:
        assert wide["speedup_vs_legacy"] >= TARGET_SPEEDUP, (
            "packed DBM core missed the 3x wide-interval target: "
            f"{wide['speedup_vs_legacy']:.2f}x aggregate"
        )
    # the pure floor is a global no-regression claim: the fallback
    # must not lose to the tuple engine over the whole suite.  (On the
    # small wide race nets pure runs at parity within host noise; its
    # decisive wins are the paper's larger case studies — mine-pump
    # classes carry the biggest matrices — so the aggregate that
    # states the claim robustly is the overall one.)
    assert overall["pure_speedup_vs_legacy"] >= MIN_PURE_SPEEDUP, (
        "pure-Python packed fallback lost to the legacy tuple "
        f"engine: {overall['pure_speedup_vs_legacy']:.2f}x overall"
    )
    if (
        kernel_floor["native_core"]
        and kernel_floor["baseline_comparable"]
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
    if not os.path.exists(os.path.abspath(JSON_PATH)):
        test_dbm_throughput(lambda *a: None)
    with open(os.path.abspath(JSON_PATH), encoding="utf-8") as fh:
        payload = json.load(fh)
    assert payload["bench"] == "dbm"
    assert payload["rows"], "no benchmark rows recorded"
    for row in payload["rows"]:
        assert row["packed_states_per_sec"] > 0
        assert row["states_visited"] > 0
    assert set(payload["aggregates"]) == {"paper", "wide", "all"}
    assert any(row["feasible"] for row in payload["rows"])
    assert payload["kernel_floor"]["kernel_states_per_sec"] > 0
