"""Experiment PD1 — parallel DFS: portfolio racing.

Acceptance benchmark of :mod:`repro.scheduler.parallel`.  Two
portfolio workloads are measured end-to-end (compose + compile
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
2. **Mixed-engine portfolio on the wide-interval race model**
   (:func:`repro.workloads.wide_interval_race_net`, ISSUE 5): a
   ``stateclass:earliest`` slot races the discrete hot path under a
   delay-enumerating configuration.  The discrete state space grows
   with the release-window width while the class graph does not, so
   the dense slot must win the race (gated) — the dense-aware
   portfolio the ROADMAP asked for.  The winning slot is recorded per
   row (``winner_slot``).
3. **A refutation past the lane threshold**
   (:data:`LANE_REFUTATION`, ~0.25 s serial): the only workload here
   still running after :data:`~repro.scheduler.parallel.LANE_THRESHOLD_SECONDS`,
   so ``--parallel 2`` reaches the forked-lane path.  It is reported
   serial, then at ``parallel=2`` with one usable CPU (the slots take
   turns in one process) and with two (two lanes; parallel only on a
   host with two CPUs to give).  The rows are reported, not gated;
   the bench asserts that every path refutes and that the one-process
   path is the serial search interleaved with a second slot: it is won
   by the serial search's policy and visits the same states on every
   run.

The kernel's absolute throughput floor against the frozen
``benchmarks/BASELINE_scheduler.json`` lives in ``bench_kernel.py``
(KN1).

Each configuration runs once as a warm-up and then :data:`ROUNDS`
interleaved rounds (:func:`harness.measure`); a row keeps the fastest.
Results land in ``BENCH_parallel.json`` at the repository root, one
row per worker count (``:w1`` is the serial search) with the winning
slot as its engine; CI uploads it as an artifact, so the speedup
trajectory is tracked PR over PR.
"""

from __future__ import annotations

from functools import partial

from harness import gate, measure, row, write_bench
from repro.blocks import compose
from repro.scheduler import (
    SchedulerConfig,
    find_schedule,
    parallel,
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

WORKER_CURVE = (2, 4)
ROUNDS = 2

#: A kernel refutation of ~403,000 states that outlives the lane
#: threshold (:func:`_lane_curve`).
LANE_REFUTATION = dict(
    n_tasks=8,
    total_utilization=0.9,
    seed=4,
    preemptive_fraction=0,
    deadline_slack=0.7,
)


def _slot(result):
    return f"{result.winner_engine}:{result.winner_policy}"


def _synthesise(spec, config):
    return find_schedule(compose(spec), config)


def _portfolio_curve():
    """Full synthesis (compose + search + replay) of the hard model:
    the serial row, then one per :data:`WORKER_CURVE` entry."""
    spec = hard_portfolio_task_set()
    configs = {1: SchedulerConfig()}
    configs.update(
        (workers, SchedulerConfig(parallel=workers))
        for workers in WORKER_CURVE
    )
    first, samples = measure(
        {w: partial(_synthesise, spec, c) for w, c in configs.items()},
        ROUNDS,
    )
    serial = first[1]
    rows = [
        row(f"{spec.name}:w1", "warm", "end-to-end", "kernel",
            seconds=min(samples[1]), states=serial.stats.states_visited)
    ]
    for workers in WORKER_CURVE:
        result = first[workers]
        assert result.feasible == serial.feasible, (
            f"portfolio verdict diverged at {workers} workers"
        )
        rows.append(
            row(f"{spec.name}:w{workers}", "warm", "end-to-end",
                _slot(result), seconds=min(samples[workers]),
                states=result.stats.states_visited)
        )
    return rows


def _mixed_engine_curve():
    """Race the dense state-class slot against the discrete hot path.

    The wide-interval race net is exhaustively infeasible under a
    complete (delay-enumerating) search: the discrete engine refutes
    it by visiting every integer release time, the dense slot by a
    width-independent class sweep — first definitive verdict wins.
    The stateclass slot must win every race (an acceptance gate);
    returns the serial and the raced row and every race's
    winning slot.
    """
    net = wide_interval_race_net().compile()
    serial_config = SchedulerConfig(delay_mode="full")
    config = SchedulerConfig(
        delay_mode="full",
        parallel=2,
        portfolio=("kernel:earliest", "stateclass:earliest"),
    )
    winners = []

    def race():
        result = search(net, config)
        assert not result.feasible and not result.exhausted
        winners.append(_slot(result))
        return result

    first, samples = measure(
        {"serial": lambda: search(net, serial_config), "race": race},
        ROUNDS,
    )
    serial = first["serial"]
    assert not serial.feasible and not serial.exhausted
    rows = [
        row(f"{net.name}:w1", "warm", "search", "kernel",
            seconds=min(samples["serial"]),
            states=serial.stats.states_visited),
        row(f"{net.name}:w2", "warm", "search", _slot(first["race"]),
            seconds=min(samples["race"]),
            states=first["race"].stats.states_visited),
    ]
    return rows, winners


def _lane_curve(monkeypatch):
    """The long refutation serial, then at ``parallel=2`` with
    :func:`~repro.scheduler.parallel.usable_cpus` pinned to one CPU and
    to two."""
    net = compose(random_task_set(**LANE_REFUTATION)).compiled()
    visited = {1: [], 2: []}

    def race(cpus):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
        result = search(net, SchedulerConfig(parallel=2))
        visited[cpus].append(result.stats.states_visited)
        return result

    first, samples = measure(
        {
            "serial": partial(search, net, SchedulerConfig()),
            1: partial(race, 1),
            2: partial(race, 2),
        },
        ROUNDS,
    )
    serial = first["serial"]
    for result in first.values():
        assert not result.feasible and not result.exhausted
    one_process = first[1]
    assert one_process.winner_policy == serial.config.policy
    assert len(set(visited[1])) == 1, visited[1]
    assert one_process.stats.states_visited > serial.stats.states_visited
    rows = [
        row(f"{net.name}:w1", "large", "search", "kernel",
            seconds=min(samples["serial"]),
            states=serial.stats.states_visited)
    ]
    rows.extend(
        row(f"{net.name}:w2-cpu{cpus}", "large", "search",
            _slot(first[cpus]), seconds=min(samples[cpus]),
            states=first[cpus].stats.states_visited)
        for cpus in (1, 2)
    )
    return rows


def test_parallel_dfs(report, monkeypatch):
    portfolio = _portfolio_curve()
    mixed, winners = _mixed_engine_curve()
    lanes = _lane_curve(monkeypatch)
    for r in portfolio:
        report(
            "PD1",
            r["workload"],
            f"speed-up vs w1 (>= {MIN_SPEEDUP_AT_4}x at w4)",
            f"{portfolio[0]['seconds'] / r['seconds']:.2f}x "
            f"(won by {r['engine']})",
        )
    report(
        "PD1",
        f"mixed-engine race on {mixed[0]['workload']}",
        "stateclass slot wins",
        f"{', '.join(winners)} "
        f"({mixed[0]['seconds'] / mixed[1]['seconds']:.2f}x)",
    )
    for r in lanes:
        report(
            "PD1",
            r["workload"],
            "reported (one CPU: one process; two: forked lanes)",
            f"{r['seconds']:.3f} s, {r['states']:,} states",
        )
    # the last row is WORKER_CURVE's last entry, 4 workers
    at4 = portfolio[0]["seconds"] / portfolio[-1]["seconds"]
    dense_wins = sum(w.startswith("stateclass:") for w in winners)
    write_bench(
        "parallel",
        portfolio + mixed + lanes,
        [
            gate("portfolio_speedup:w4", MIN_SPEEDUP_AT_4, at4,
                 at4 >= MIN_SPEEDUP_AT_4),
            # a stateclass slot must win the wide-interval
            # race — the engine-aware portfolio's reason to exist
            gate("mixed_race_dense_wins", len(winners), dense_wins,
                 dense_wins == len(winners)),
        ],
    )
