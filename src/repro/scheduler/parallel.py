"""Parallel pre-runtime search: a portfolio race.

**Overview for new contributors.**  ``repro.batch`` already
parallelises *across* models (one process per specification); this
module parallelises *within* one hard model, the ROADMAP's "a single
hard model should also scale" item.  Every worker runs a complete,
independent DFS over the same state space, each under a different
*(engine, policy)* slot: a candidate ordering from
:mod:`repro.scheduler.policies` (the serial default, latest-first,
min-laxity, seeded-random with geometric restarts), optionally on a
different successor engine (``"stateclass:earliest"`` races the dense
state-class search against the discrete hot path — the win on
wide-interval models).  Neither orderings nor engines change the
verdict, only the time to reach it, and combinatorial search times are
heavy-tailed — so the *first* definitive verdict wins the race and
cancels the rest.  This wins even on a single core: a 4-way race
time-shared on one CPU still finishes ~N/4× faster whenever some slot
needs N× fewer states than the default.

Determinism contract:

* the returned *verdict* (feasible / infeasible) matches the serial
  search on the same configuration — orderings change which schedule
  is found and how fast, never whether one exists;
* every feasible schedule is replayed through the **reference engine**
  (:class:`repro.tpn.state.StateEngine`, checked firing rule) before
  being returned, so a parallel win is independently proven legal;
* the winning policy is recorded on the result
  (``result.winner_policy``) and rerunning that policy serially
  (``SchedulerConfig(policy=..., policy_seed=...)``) reproduces the
  winner's search deterministically.

Cancellation is cooperative-first: workers poll a shared event every
1024 expansions (the scheduler's ``tick`` hook; the worker reaching a
definitive verdict sets it itself) and report their final counters
before exiting, so the merged :class:`SearchStats` accounts for the
whole race; ``terminate()`` is only the backstop for a worker
stuck outside the search loop.  :meth:`ParallelScheduler.search` does
not return until every worker process has been joined or killed — no
orphans survive a win.
"""

from __future__ import annotations

import queue as queue_module
import time
from multiprocessing import get_context

from repro.errors import SchedulingError
from repro.obs.events import NULL_RECORDER, JsonlSink, Recorder
from repro.obs.metrics import MetricsRegistry
from repro.scheduler.config import SchedulerConfig
from repro.scheduler.core import validate_with_reference
from repro.scheduler.dfs import PreRuntimeScheduler
from repro.scheduler.policies import (
    default_portfolio,
    parse_policy,
    parse_slot,
)
from repro.scheduler.result import SchedulerResult, SearchStats
from repro.tpn.net import CompiledNet

#: First restart budget (states) of the seeded-random portfolio
#: policy, doubled on every restart (geometric / Luby-style schedule).
RESTART_BASE_STATES = 4096

#: Seconds the parent keeps draining stats messages after a win.
_DRAIN_GRACE = 2.0


# ----------------------------------------------------------------------
# Worker processes
# ----------------------------------------------------------------------
def _portfolio_worker(
    index: int,
    slot_text: str,
    net: CompiledNet,
    config: SchedulerConfig,
    results,
    cancel,
    start,
) -> None:
    """Run one complete search under one slot; report the outcome.

    A slot is ``[engine:]policy[:seed]`` — the engine prefix races
    successor engines as well as orderings; without one the slot
    inherits ``config.engine``.  The message is ``(kind, index, slot,
    stats, metrics snapshot, payload)``: ``stats`` sums the slot's
    restarts.
    """
    engine, policy_text = parse_slot(slot_text)
    if engine is None:
        engine = config.engine
    name, seed = parse_policy(policy_text)
    if seed is None:
        seed = index
    total = SearchStats()
    restarts = 0
    # one registry for the worker's whole lifetime (shared across
    # restarts); its snapshot rides home beside the stats and the
    # parent merges every worker's snapshot onto result.metrics
    metrics = MetricsRegistry()
    start.wait()  # every slot enters the race at the same moment
    worker_started = time.monotonic()
    try:
        deadline = (
            None
            if config.max_seconds is None
            else time.monotonic() + config.max_seconds
        )

        def tick(*_counters) -> bool:
            return cancel.is_set()

        def run_once(cfg: SchedulerConfig) -> SchedulerResult:
            scheduler = PreRuntimeScheduler(net, cfg)
            scheduler.tick = tick
            scheduler.metrics = metrics
            if scheduler.obs is not None:
                # one trace track per portfolio worker slot
                scheduler.obs.track = f"w{index}:{slot_text}"
            if scheduler.heartbeat is not None:
                scheduler.heartbeat.label = f"w{index}:{slot_text}"
                scheduler.heartbeat.metrics = metrics
            return scheduler.search()

        overrides = dict(
            engine=engine,
            parallel=0,
            portfolio=(),
            policy=name,
            policy_seed=seed,
        )
        if engine == "stateclass" and config.delay_mode != "earliest":
            # one state class covers *every* dense firing delay, so
            # the discrete delay-enumeration modes have nothing to
            # enumerate for this slot — and the dense search already
            # subsumes them: with finite LFTs a delay-enumerated
            # discrete run is one realisation of some class path
            overrides["delay_mode"] = "earliest"
        base = config.replace(**overrides)
        if name == "random":
            # geometric restarts: heavy-tailed instances usually fall
            # to *some* seed quickly; doubling budgets bound the total
            # overhead to <= 2x the lucky seed's work
            spent = 0
            budget = min(RESTART_BASE_STATES, config.max_states)
            result = None
            while True:
                remaining = config.max_states - spent
                if remaining <= 0:
                    break
                seconds_left = (
                    None
                    if deadline is None
                    else max(0.001, deadline - time.monotonic())
                )
                cfg = base.replace(
                    policy_seed=seed + restarts,
                    max_states=min(budget, remaining),
                    max_seconds=seconds_left,
                )
                attempt = run_once(cfg)
                total.add(attempt.stats)
                spent += attempt.stats.states_visited
                result = attempt
                if cancel.is_set():
                    break
                if attempt.feasible or not attempt.exhausted:
                    break
                if deadline is not None and time.monotonic() >= deadline:
                    break
                restarts += 1
                budget *= 2
        else:
            result = run_once(base)
            total.add(result.stats)

        total.restarts = restarts
        if cancel.is_set():
            kind = "cancelled"
        elif result is None or (not result.feasible and result.exhausted):
            kind = "exhausted"
        elif result.feasible:
            kind = "feasible"
        else:
            kind = "infeasible"
        if kind in ("feasible", "infeasible"):
            cancel.set()  # end the race without the parent's round trip
        # per-slot wall-clock and outcome land in the metrics snapshot
        # (gauges carry the slot name, so workers never collide)
        metrics.set_gauge(
            f"slot.{slot_text}.wall_seconds",
            round(time.monotonic() - worker_started, 6),
        )
        metrics.inc(f"slot.{slot_text}.{kind}")
        if restarts:
            metrics.inc(f"slot.{slot_text}.restarts", restarts)
        # feasible payload: the schedule plus the dense windows the
        # stateclass engine attaches (None for the discrete engines)
        payload = (
            (list(result.firing_schedule), result.interval_schedule)
            if result is not None and result.feasible
            else None
        )
        results.put(
            (kind, index, slot_text, total, metrics.snapshot(), payload)
        )
    except Exception as error:  # noqa: BLE001 — workers must not die silently
        results.put(
            (
                "error",
                index,
                slot_text,
                total,
                metrics.snapshot(),
                f"{type(error).__name__}: {error}",
            )
        )


# ----------------------------------------------------------------------
# The parallel scheduler
# ----------------------------------------------------------------------
class ParallelScheduler:
    """Race the pre-runtime DFS across worker processes.

    Construct with the same ``(net, config)`` pair as
    :class:`PreRuntimeScheduler`; ``config.parallel`` (>= 2) is the
    worker count.
    :meth:`search` blocks until a verdict is reached and every worker
    process has been reaped.

    Portfolio slots are engine-aware: ``config.portfolio`` entries may
    prefix their policy with a successor engine
    (``"stateclass:earliest"``), racing the dense state-class search
    against the discrete engines; unprefixed slots inherit the
    configured engine.
    """

    def __init__(
        self, net: CompiledNet, config: SchedulerConfig | None = None
    ):
        self.net = net
        self.config = config or SchedulerConfig()
        if self.config.parallel < 2:
            raise SchedulingError(
                "ParallelScheduler needs config.parallel >= 2 "
                "(use PreRuntimeScheduler for a serial search)"
            )
        try:
            self._context = get_context("fork")
        except ValueError:  # platforms without fork
            self._context = get_context()

    # ------------------------------------------------------------------
    def portfolio_policies(self) -> tuple[str, ...]:
        """The slot (``[engine:]policy[:seed]``) raced by each worker.

        An explicit ``config.portfolio`` is honoured (truncated to the
        worker count, padded with fresh random seeds when shorter);
        otherwise the default rotation applies.
        """
        workers = self.config.parallel
        if not self.config.portfolio:
            entries = list(default_portfolio(workers))
        else:
            entries = list(self.config.portfolio[:workers])
            used_seeds = set()
            for index, entry in enumerate(entries):
                name, seed = parse_policy(parse_slot(entry)[1])
                if name == "random":
                    # unseeded entries default to the worker index
                    used_seeds.add(index if seed is None else seed)
            seed = 0
            while len(entries) < workers:
                while seed in used_seeds:
                    seed += 1
                used_seeds.add(seed)
                entries.append(f"random:{seed}")
        # pin unseeded random slots to their rotation index, the seed
        # the worker would fall back to: the slot name then carries
        # the seed, so a winning slot reruns serially as reported
        for index, entry in enumerate(entries):
            engine_prefix, policy = parse_slot(entry)
            name, seed = parse_policy(policy)
            if name == "random" and seed is None:
                pinned = f"random:{index}"
                entries[index] = (
                    pinned
                    if engine_prefix is None
                    else f"{engine_prefix}:{pinned}"
                )
        return tuple(entries)

    # ------------------------------------------------------------------
    def search(self) -> SchedulerResult:
        config = self.config
        started = time.monotonic()
        # parent-side recorder: one "portfolio-race" track framing the
        # whole race plus the reference-replay gate (workers record
        # their own tracks into the same O_APPEND sink)
        obs = NULL_RECORDER
        if config.trace_jsonl:
            obs = Recorder(
                JsonlSink(config.trace_jsonl), track="portfolio-race"
            )
        race_t0 = obs.now_ns()
        ctx = self._context
        results = ctx.Queue()
        cancel = ctx.Event()
        start = ctx.Event()
        policies = self.portfolio_policies()
        workers = [
            ctx.Process(
                target=_portfolio_worker,
                args=(
                    index,
                    policy,
                    self.net,
                    config,
                    results,
                    cancel,
                    start,
                ),
                name=f"ezrt-portfolio-{index}",
            )
            for index, policy in enumerate(policies)
        ]
        try:
            for process in workers:
                process.start()
        finally:
            start.set()  # never leave a started worker waiting

        messages = self._collect(workers, results, cancel)
        winner = None
        for message in messages:
            if message[0] in ("feasible", "infeasible"):
                winner = message
                break
        merged = SearchStats()
        for message in messages:
            merged.add(message[3])
        merged.elapsed_seconds = time.monotonic() - started
        race_metrics = MetricsRegistry.merge_snapshots(
            m[4] for m in messages
        )
        obs.record_span(
            "portfolio-race",
            race_t0,
            obs.now_ns(),
            cat="portfolio",
            args={"workers": len(workers), "slots": list(policies)},
        )
        if winner is None:
            errors = [m for m in messages if m[0] == "error"]
            if len(errors) == len(workers) and errors:
                raise SchedulingError(
                    f"every portfolio worker failed; first: {errors[0][5]}"
                )
            if not messages:
                raise SchedulingError(
                    "portfolio search produced no worker results"
                )
            return SchedulerResult(
                feasible=False,
                stats=merged,
                config=config,
                exhausted=True,
                workers=len(workers),
                metrics=race_metrics,
            )
        kind, _index, slot, _stats, _metrics, payload = winner
        slot_engine, policy = parse_slot(slot)
        if slot_engine is None:
            slot_engine = config.engine
        if kind == "feasible":
            raw_schedule, windows = payload
            schedule = [tuple(entry) for entry in raw_schedule]
            with obs.span("reference-replay", cat="validate"):
                validate_with_reference(self.net, config, schedule)
            return SchedulerResult(
                feasible=True,
                firing_schedule=schedule,
                stats=merged,
                config=config,
                winner_policy=policy,
                winner_engine=slot_engine,
                workers=len(workers),
                interval_schedule=(
                    None
                    if windows is None
                    else [tuple(entry) for entry in windows]
                ),
                metrics=race_metrics,
            )
        return SchedulerResult(
            feasible=False,
            stats=merged,
            config=config,
            winner_policy=policy,
            winner_engine=slot_engine,
            workers=len(workers),
            metrics=race_metrics,
        )

    # ------------------------------------------------------------------
    def _collect(self, workers, results, cancel) -> list[tuple]:
        """Gather worker messages; cancel on the first definitive one.

        Returns every message received.  Guarantees that all worker
        processes are dead (joined, terminated or killed) on return.
        """
        config = self.config
        expected = len(workers)
        messages: list[tuple] = []
        budget_deadline = (
            None
            if config.max_seconds is None
            else time.monotonic() + config.max_seconds + _DRAIN_GRACE
        )
        drain_deadline = None
        try:
            while len(messages) < expected:
                if drain_deadline is not None:
                    timeout = drain_deadline - time.monotonic()
                    if timeout <= 0:
                        break
                    timeout = min(timeout, 0.2)
                else:
                    timeout = 0.2
                try:
                    message = results.get(timeout=timeout)
                except queue_module.Empty:
                    if budget_deadline is not None and (
                        time.monotonic() > budget_deadline
                    ):
                        cancel.set()
                        if drain_deadline is None:
                            drain_deadline = (
                                time.monotonic() + _DRAIN_GRACE
                            )
                    alive = sum(1 for p in workers if p.is_alive())
                    if alive + len(messages) < expected:
                        # a worker died without reporting: its slot
                        # can never finish the race, so release the
                        # survivors instead of letting them spin
                        cancel.set()
                        if drain_deadline is None:
                            drain_deadline = (
                                time.monotonic() + _DRAIN_GRACE
                            )
                    if not any(p.is_alive() for p in workers):
                        # reap whatever is still buffered, then stop
                        while True:
                            try:
                                messages.append(results.get_nowait())
                            except queue_module.Empty:
                                break
                        break
                    continue
                messages.append(message)
                if drain_deadline is None and message[0] in ("feasible", "infeasible"):
                    cancel.set()
                    drain_deadline = time.monotonic() + _DRAIN_GRACE
        finally:
            cancel.set()
            for process in workers:
                process.join(timeout=1.0)
            for process in workers:
                if process.is_alive():
                    process.terminate()
            for process in workers:
                if process.is_alive():
                    process.join(timeout=1.0)
            for process in workers:
                if process.is_alive():  # pragma: no cover — last resort
                    process.kill()
                    process.join(timeout=1.0)
            for process in workers:
                try:
                    process.close()
                except ValueError:  # pragma: no cover — unkillable
                    pass
            results.cancel_join_thread()
            results.close()
        return messages
