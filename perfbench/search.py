"""Workload ``search-large``: the search hot loop, serial and in-process.

One op is ``compose`` + ``find_schedule`` on a production engine pinned
by name.  Four op kinds, each a pinned input that passes prelint and
visits a pinned number of states (10,000 to 37,000):

* ``refute``   — exhaustive refutation on the kernel engine;
* ``budget``   — a state-budget stop on the kernel engine, its budget
  sized to cost what ``dense`` costs;
* ``dense``    — a feasible dense-time search on the state-class engine;
* ``feasible`` — a feasible search on the kernel engine, about twice as
  long as the others.

A round is ``refute, budget, dense, feasible``.  ``refute`` is the
cheapest and ``budget`` and ``dense`` cost the same, so the median of
whole rounds lands inside the ``budget``/``dense`` pair; ``feasible``
is the top quarter of the ops, so the p90 lands inside its samples.
Neither falls into a gap between kinds.  Each op takes a quarter to
half a second, so a run holds at least 80 of them and the host's speed
rarely changes inside one.

``python search.py --setup-probe`` is the set-up probe: a fresh process
that imports the library, loads the native cores and composes and
compiles every kind's model.
"""

from __future__ import annotations

import argparse
import gc
import math
import time
import tracemalloc
from dataclasses import replace

import repro.blocks
import repro.scheduler
from repro.errors import EzRealtimeError
from repro.scheduler import SchedulerConfig
from repro.scheduler.parallel import validate_with_reference
from repro.workloads import hard_portfolio_task_set, random_task_set

from common import (
    WORK,
    HostSpeed,
    emit,
    end_to_end,
    load_expected,
    mean,
    overhead,
    p50,
    pin_to_one_cpu,
    pinned_env,
    python_argv,
    run_child,
    self_maxrss_mb,
)
from spans import SEARCH_LAYERS, LayerClock

ROUND = ("refute", "budget", "dense", "feasible")
#: ops a run needs so that its p90 lies among twenty ``feasible`` samples
MIN_OPS = 80
#: nominal cost of one round on a 2-vCPU Xeon host; sizes a run from
#: ``--seconds`` so every run of a given length does the same work
NOMINAL_ROUND_S = 1.6
SETUP_REPEATS = 3
#: rounds per pass in a traced run
TRACE_ROUNDS = 3
#: state budget of the tracemalloc pass that gives bytes per state
MEMORY_STATES = 20_000


def kinds() -> dict[str, tuple]:
    """kind -> (spec, scheduler config); no wall-clock budget anywhere."""
    return {
        "refute": (
            random_task_set(
                6,
                0.9,
                seed=1,
                preemptive_fraction=0.5,
                deadline_slack=0.6,
                period_grid=(10, 20, 40),
            ),
            SchedulerConfig(engine="kernel"),
        ),
        "budget": (
            random_task_set(
                16, 0.9, seed=2, deadline_slack=0.7, period_grid=(20, 40, 80)
            ),
            SchedulerConfig(engine="kernel", max_states=15_600),
        ),
        "dense": (
            random_task_set(
                6,
                0.85,
                seed=3,
                preemptive_fraction=1.0,
                deadline_slack=0.7,
            ),
            SchedulerConfig(engine="stateclass"),
        ),
        "feasible": (
            hard_portfolio_task_set(1),
            SchedulerConfig(engine="kernel"),
        ),
    }


def run_op(spec, config):
    model = repro.blocks.compose(spec)
    model.compiled()
    return model, repro.scheduler.find_schedule(model, config)


def check(kind: str, model, config, result, expected: dict) -> str | None:
    pins = expected[kind]
    got = {
        "feasible": result.feasible,
        "exhausted": result.exhausted,
        "states": result.stats.states_visited,
    }
    if got != pins:
        return f"{kind}: {got} != {pins}"
    if result.feasible:
        try:
            validate_with_reference(
                model.compiled(), config, result.firing_schedule
            )
        except EzRealtimeError as err:
            return f"{kind}: reference replay failed: {err}"
    return None


def setup_probe() -> None:
    from repro.tpn import _dbmc, _kernelc

    _kernelc.load()
    _dbmc.load()
    for spec, _config in kinds().values():
        repro.blocks.compose(spec).compiled()


def timed_setup(speed: HostSpeed) -> float:
    """Median scaled seconds of fresh set-up probes (after one warm-up)."""
    env = pinned_env()
    times = []
    for rep in range(SETUP_REPEATS + 1):
        speed.sample()
        res = run_child(python_argv(__file__, "--setup-probe"), WORK, env)
        speed.sample()
        if res.returncode != 0:
            raise SystemExit(f"set-up probe failed: {res.stderr[-500:]}")
        if rep:
            times.append(speed.scaled_s(res.started, res.ended))
    return p50(times)


def run_pass(ops, specs, expected, speed, clock=None):
    """Run ``ops``; scaled latencies, failures, per-op layers."""
    spans, failures, traced = [], [], []
    for kind in ops:
        spec, config = specs[kind]
        gc.collect()
        speed.sample()
        started = time.perf_counter()
        model, result = run_op(spec, config)
        spans.append((started, time.perf_counter()))
        if clock is not None:
            traced.append((kind, clock.take(), result.stats.states_visited))
        reason = check(kind, model, config, result, expected)
        if reason is not None:
            failures.append(reason)
        del model, result
    speed.sample()
    latencies = [speed.scaled_s(*span) * 1000.0 for span in spans]
    return latencies, failures, traced


def bytes_per_state(specs) -> dict[str, float]:
    """tracemalloc peak / visited, per kind, on a capped state budget."""
    out = {}
    for kind, (spec, config) in specs.items():
        capped = replace(
            config, max_states=min(config.max_states, MEMORY_STATES)
        )
        model = repro.blocks.compose(spec)
        model.compiled()
        gc.collect()
        tracemalloc.start()
        try:
            result = repro.scheduler.find_schedule(model, capped)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        out[f"scheduler.{kind}.bytes_per_state"] = (
            peak / max(1, result.stats.states_visited)
        )
    return out


def layer_metrics(traced) -> dict[str, float]:
    metrics: dict[str, float] = {}
    names = sorted({name for _, layers, _ in traced for name in layers})
    for name in names:
        metrics[f"{name}_ms"] = mean(
            [layers.get(name, 0.0) for _, layers, _ in traced]
        )
    metrics["scheduler.states"] = mean([states for _, _, states in traced])
    for kind in sorted({kind for kind, _, _ in traced}):
        rows = [(layers, states) for k, layers, states in traced if k == kind]
        search_ms = sum(layers["scheduler.search"] for layers, _ in rows)
        metrics[f"scheduler.{kind}.states_per_s"] = (
            sum(states for _, states in rows) / (search_ms / 1000.0)
        )
    return metrics


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--setup-probe", action="store_true")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.setup_probe:
        setup_probe()
        return

    pin_to_one_cpu()
    speed = HostSpeed()
    expected = load_expected()["search-large"]
    setup_s = timed_setup(speed)
    specs = kinds()
    shift = args.seed % len(ROUND)
    one_round = list(ROUND[shift:] + ROUND[:shift])
    rounds = (
        TRACE_ROUNDS
        if args.trace
        else max(
            math.ceil(MIN_OPS / len(ROUND)),
            round(args.seconds / NOMINAL_ROUND_S),
        )
    )
    ops = one_round * rounds
    latencies, failures, _ = run_pass(ops, specs, expected, speed)
    untraced = end_to_end(latencies, setup_s, self_maxrss_mb())
    attempted = len(ops)
    if not args.trace:
        metrics = untraced
    else:
        clock = LayerClock()
        clock.install(SEARCH_LAYERS)
        try:
            latencies, traced_failures, traced = run_pass(
                ops, specs, expected, speed, clock
            )
        finally:
            clock.uninstall()
        attempted += len(ops)
        failures += traced_failures
        metrics = layer_metrics(traced)
        metrics.update(
            overhead(
                end_to_end(latencies, setup_s, self_maxrss_mb()), untraced
            )
        )
        metrics.update(bytes_per_state(specs))
        metrics["host.probe_ms"] = speed.median_ms()
    notes = [f"{len(ops)} ops ({rounds} rounds of {len(one_round)})"]
    notes += [f"FAILED {reason}" for reason in failures[:10]]
    emit("search-large", attempted, len(failures), metrics, notes)


if __name__ == "__main__":
    main()
