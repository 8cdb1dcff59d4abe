"""Experiment PD1 — parallel DFS: portfolio racing and work stealing.

Acceptance benchmark of :mod:`repro.scheduler.parallel`.  Two
workload/strategy pairings are measured end-to-end (compose + compile
+ search + reference-replay validation, i.e. exactly what
``ezrt schedule --parallel N`` pays):

1. **Portfolio racing on the hard feasible model**
   (:func:`repro.workloads.hard_portfolio_task_set`): the serial
   default ordering needs ~300k states; alternative orderings reach a
   schedule in a few thousand.  Racing them wins even on a single
   core, because the winner's work is a fraction of the serial work —
   the speedup-vs-workers curve is recorded and the acceptance gate
   (:data:`MIN_SPEEDUP_AT_4`× at 4 workers) is asserted alongside
   verdict parity with the serial search.
2. **Work stealing on an exhaustively-infeasible model**: the subtree
   partition with a shared visited filter must reproduce the serial
   infeasible verdict with bounded duplicated work
   (:data:`MAX_WORKSTEAL_WORK_RATIO`× the serial visited count).  On a
   multi-core host this curve shows wall-clock scaling too; on the
   single-core CI box only the parity and bounded-work properties are
   gated.
3. **Mixed-engine portfolio on the wide-interval race model**
   (:func:`repro.workloads.wide_interval_race_net`, ISSUE 5): a
   ``stateclass:earliest`` slot races the discrete hot path under a
   delay-enumerating configuration.  The discrete state space grows
   with the release-window width while the class graph does not, so
   the dense slot must win the race (gated) — the dense-aware
   portfolio the ROADMAP asked for.  The winning slot is recorded per
   row (``winner_slot``), which is what
   :meth:`repro.scheduler.adaptive.AdaptiveStore.warm_start_from_bench`
   reads to seed future rotations.

The kernel's absolute throughput floor against the frozen
``benchmarks/BASELINE_scheduler.json`` lives in ``bench_kernel.py``
(KN1).

Results land in ``BENCH_parallel.json`` at the repository root; CI
uploads it as an artifact, so the speedup trajectory is tracked PR
over PR.
"""

from __future__ import annotations

import json
import os
import platform
import time

from repro.blocks import compose
from repro.scheduler import (
    SchedulerConfig,
    find_schedule,
    search,
)
from repro.workloads import (
    hard_portfolio_task_set,
    random_task_set,
    wide_interval_race_net,
)

#: Acceptance gate (ISSUE 3): `ezrt schedule --parallel 4` must beat
#: the serial search end-to-end by at least this factor on the hard
#: model.  Measured ~6-12x on a single shared vCPU; 1.8 is the
#: noise-proof floor.
MIN_SPEEDUP_AT_4 = 1.8

#: Work-stealing may duplicate some exploration (lock-free filter
#: claims, frontier overlap) but must stay within this factor of the
#: serial visited count on an exhaustive (infeasible) search.
MAX_WORKSTEAL_WORK_RATIO = 1.25

WORKER_CURVE = (2, 4)
ROUNDS = 2

JSON_PATH = os.path.join(
    os.path.dirname(__file__), "..", "BENCH_parallel.json"
)


def _end_to_end(spec, config):
    """Median-free min-of-N full synthesis latency."""
    times = []
    result = None
    for _ in range(ROUNDS):
        started = time.perf_counter()
        model = compose(spec)
        result = find_schedule(model, config)
        times.append(time.perf_counter() - started)
    return result, min(times)


def _portfolio_curve():
    spec = hard_portfolio_task_set()
    serial, serial_s = _end_to_end(spec, SchedulerConfig())
    rows = []
    for workers in WORKER_CURVE:
        result, seconds = _end_to_end(
            spec, SchedulerConfig(parallel=workers)
        )
        assert result.feasible == serial.feasible, (
            f"portfolio verdict diverged at {workers} workers"
        )
        rows.append(
            {
                "workers": workers,
                "seconds": seconds,
                "speedup": serial_s / seconds,
                "winner_policy": result.winner_policy,
                "states_visited": result.stats.states_visited,
                "restarts": result.stats.restarts,
            }
        )
    return {
        "model": spec.name,
        "mode": "portfolio",
        "serial_seconds": serial_s,
        "serial_states_visited": serial.stats.states_visited,
        "feasible": serial.feasible,
        "curve": rows,
    }


def _worksteal_curve():
    # exhaustively infeasible: ~7k states to refute, fully decidable
    spec = random_task_set(6, 0.95, seed=3, deadline_slack=0.6)
    serial, serial_s = _end_to_end(spec, SchedulerConfig())
    assert not serial.feasible and not serial.exhausted
    rows = []
    for workers in WORKER_CURVE:
        config = SchedulerConfig(
            parallel=workers, parallel_mode="worksteal"
        )
        result, seconds = _end_to_end(spec, config)
        assert result.feasible == serial.feasible, (
            f"worksteal verdict diverged at {workers} workers"
        )
        assert not result.exhausted
        rows.append(
            {
                "workers": workers,
                "seconds": seconds,
                "speedup": serial_s / seconds,
                "states_visited": result.stats.states_visited,
                "work_ratio": (
                    result.stats.states_visited
                    / serial.stats.states_visited
                ),
            }
        )
    return {
        "model": spec.name,
        "mode": "worksteal",
        "serial_seconds": serial_s,
        "serial_states_visited": serial.stats.states_visited,
        "feasible": serial.feasible,
        "curve": rows,
    }


def _mixed_engine_curve():
    """Race the dense state-class slot against the discrete hot path.

    The wide-interval race net is exhaustively infeasible under a
    complete (delay-enumerating) search: the discrete engine refutes
    it by visiting every integer release time, the dense slot by a
    width-independent class sweep — first definitive verdict wins.
    The stateclass slot must win (ISSUE 5 acceptance gate).
    """
    net = wide_interval_race_net().compile()
    serial_config = SchedulerConfig(delay_mode="full")
    times = []
    serial = None
    for _ in range(ROUNDS):
        started = time.perf_counter()
        serial = search(net, serial_config)
        times.append(time.perf_counter() - started)
    serial_s = min(times)
    assert not serial.feasible and not serial.exhausted

    config = SchedulerConfig(
        delay_mode="full",
        parallel=2,
        portfolio=("kernel:earliest", "stateclass:earliest"),
    )
    rows = []
    for _ in range(ROUNDS):
        started = time.perf_counter()
        result = search(net, config)
        seconds = time.perf_counter() - started
        assert result.feasible == serial.feasible
        assert not result.exhausted
        rows.append(
            {
                "workers": 2,
                "seconds": seconds,
                "speedup": serial_s / seconds,
                "winner_policy": result.winner_policy,
                "winner_engine": result.winner_engine,
                "winner_slot": (
                    f"{result.winner_engine}:{result.winner_policy}"
                ),
                "states_visited": result.stats.states_visited,
            }
        )
    return {
        "model": net.name,
        "mode": "portfolio",
        "flavour": "mixed-engine",
        "serial_seconds": serial_s,
        "serial_states_visited": serial.stats.states_visited,
        "feasible": serial.feasible,
        "curve": rows,
    }


def test_parallel_dfs(report):
    portfolio = _portfolio_curve()
    worksteal = _worksteal_curve()
    mixed = _mixed_engine_curve()
    at4 = next(
        row for row in portfolio["curve"] if row["workers"] == 4
    )
    payload = {
        "bench": "parallel_dfs",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "rounds": ROUNDS,
        "min_speedup_at_4": MIN_SPEEDUP_AT_4,
        "target_met": at4["speedup"] >= MIN_SPEEDUP_AT_4,
        "results": [portfolio, worksteal, mixed],
    }
    with open(os.path.abspath(JSON_PATH), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")

    report(
        "PD1",
        f"{portfolio['model']} serial",
        "baseline",
        f"{portfolio['serial_seconds']:.2f}s",
    )
    for row in portfolio["curve"]:
        report(
            "PD1",
            f"portfolio --parallel {row['workers']}",
            f">= {MIN_SPEEDUP_AT_4}x at 4",
            f"{row['speedup']:.2f}x (won by {row['winner_policy']})",
        )
    for row in worksteal["curve"]:
        report(
            "PD1",
            f"worksteal --parallel {row['workers']} work ratio",
            f"<= {MAX_WORKSTEAL_WORK_RATIO}",
            f"{row['work_ratio']:.2f}",
        )
    for row in mixed["curve"]:
        report(
            "PD1",
            f"mixed-engine race on {mixed['model']}",
            "stateclass slot wins",
            f"{row['winner_slot']} ({row['speedup']:.2f}x)",
        )

    # -- gates --------------------------------------------------------
    assert at4["speedup"] >= MIN_SPEEDUP_AT_4, (
        f"portfolio at 4 workers managed only {at4['speedup']:.2f}x "
        f"over serial on {portfolio['model']}"
    )
    for row in worksteal["curve"]:
        assert row["work_ratio"] <= MAX_WORKSTEAL_WORK_RATIO, (
            "work stealing duplicated too much exploration: "
            f"{row['work_ratio']:.2f}x serial at "
            f"{row['workers']} workers"
        )
    # ISSUE 5: a stateclass slot must win the wide-interval race —
    # the engine-aware portfolio's reason to exist
    for row in mixed["curve"]:
        assert row["winner_engine"] == "stateclass", (
            f"the dense slot lost the wide-interval race to "
            f"{row['winner_slot']}"
        )


def test_json_artifact_shape(report):
    """The emitted artifact stays machine-readable across PRs."""
    if not os.path.exists(os.path.abspath(JSON_PATH)):
        test_parallel_dfs(report)
    with open(os.path.abspath(JSON_PATH), encoding="utf-8") as fh:
        payload = json.load(fh)
    assert payload["bench"] == "parallel_dfs"
    modes = {entry["mode"] for entry in payload["results"]}
    assert modes == {"portfolio", "worksteal"}
    for entry in payload["results"]:
        assert entry["curve"], "empty speedup curve"
        for row in entry["curve"]:
            assert row["seconds"] > 0
