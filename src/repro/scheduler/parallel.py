"""Parallel pre-runtime search: portfolio racing and work stealing.

**Overview for new contributors.**  ``repro.batch`` already
parallelises *across* models (one process per specification); this
module parallelises *within* one hard model, the ROADMAP's "a single
hard model should also scale" item.  Two orthogonal strategies share
the same worker plumbing:

* **Portfolio racing** (``parallel_mode="portfolio"``) — every worker
  runs a complete, independent DFS over the same state space, each
  under a different *(engine, policy)* slot: a candidate ordering from
  :mod:`repro.scheduler.policies` (the serial default, latest-first,
  min-laxity, seeded-random with geometric restarts), optionally on a
  different successor engine (``"stateclass:earliest"`` races the
  dense state-class search against the discrete hot path — the win on
  wide-interval models).  Neither orderings nor engines change the
  verdict, only the time to reach it, and combinatorial search times
  are heavy-tailed — so the *first* definitive verdict wins the race
  and cancels the rest.  This wins even on a single core: a 4-way race
  time-shared on one CPU still finishes ~N/4× faster whenever some
  slot needs N× fewer states than the default.  An optional
  :class:`~repro.scheduler.adaptive.AdaptiveStore` orders the slot
  rotation from prior winner statistics per model family.
* **Work stealing** (``parallel_mode="worksteal"``) — one search is
  partitioned instead of replicated: the parent expands a breadth-first
  prefix of the space (:func:`split_frontier`) on the packed kernel
  engine, exports each frontier state as a picklable
  :class:`SubtreeJob` (the state's two raw buffers), and workers drain
  the job queue, searching subtrees against a **shared visited
  filter** (:class:`SharedVisitedFilter`, a hash-compacted
  open-addressing table in multiprocessing shared memory over the
  ``KernelState`` 64-bit Zobrist keys).  A state claimed
  by one worker is skipped by all others, so the union of the subtree
  searches covers the serial search space without re-exploration; with
  real cores the exhaustive (infeasible) case scales with the worker
  count.  When one subtree dwarfs the rest, the busy worker *re-splits*
  mid-search: it donates a prefix of its shallowest open DFS frame
  back to the shared queue (:class:`_Resplitter`), so a lopsided
  frontier partition no longer serialises the tail of the search.

Determinism contract (both modes):

* the returned *verdict* (feasible / infeasible) matches the serial
  search on the same configuration — orderings and partitions change
  which schedule is found and how fast, never whether one exists;
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

The work-stealing visited filter stores 64-bit state hashes, not full
states: two distinct states colliding on all 64 bits could in theory
be conflated (standard hash-compaction caveat, cf. bitstate hashing in
explicit-state model checkers); at the state counts this repository
searches the probability is negligible, and the feasible path is
always re-validated exactly.
"""

from __future__ import annotations

import queue as queue_module
import time
from collections import deque
from dataclasses import dataclass, field, replace
from multiprocessing import get_context

from repro.errors import SchedulingError
from repro.obs.events import NULL_RECORDER, JsonlSink, Recorder
from repro.obs.metrics import MetricsRegistry
from repro.scheduler.adaptive import AdaptiveStore, net_family
from repro.scheduler.config import ENGINES, SchedulerConfig
from repro.scheduler.core import validate_with_reference
from repro.scheduler.dfs import PreRuntimeScheduler
from repro.scheduler.policies import (
    default_portfolio,
    parse_policy,
    parse_slot,
)
from repro.scheduler.result import SchedulerResult, SearchStats
from repro.tpn.net import CompiledNet

#: Frontier jobs exported per worker: enough imbalance absorption that
#: an unlucky worker's huge subtree does not serialise the rest.
JOBS_PER_WORKER = 4

#: Expansion budget of the breadth-first frontier split; small models
#: complete entirely inside it, which is the serial fallback path.
SPLIT_BUDGET = 2048

#: First restart budget (states) of the seeded-random portfolio
#: policy, doubled on every restart (geometric / Luby-style schedule).
RESTART_BASE_STATES = 4096

#: States a worker must have visited in its current subtree before it
#: is allowed to re-split: donating a frontier prefix only pays off
#: when the subtree has already proven big, and the floor keeps small
#: jobs from ping-ponging between workers.
RESPLIT_MIN_VISITED = 4096

#: Frontier candidates donated per re-split: enough to feed several
#: idle workers at once, small enough that the donor keeps the bulk
#: of its (already claim-filtered) subtree.
RESPLIT_MAX_EXPORT = 8

#: Seconds the parent keeps draining stats messages after a win.
_DRAIN_GRACE = 2.0

_MASK64 = (1 << 64) - 1


# ----------------------------------------------------------------------
# Shared visited filter (work-stealing mode)
# ----------------------------------------------------------------------
class SharedVisitedFilter:
    """Cross-process visited set over 64-bit state hashes.

    A fixed-size open-addressing table in multiprocessing shared
    memory.  ``add(h)`` claims a hash: ``True`` means "new, yours to
    explore", ``False`` means "another worker already claimed it".
    Updates are deliberately lock-free: the worst race duplicates a
    claim, which costs redundant exploration but never skips a state
    that nobody explores — the filter errs on the side of work, so the
    infeasible verdict stays sound.  A saturated probe window likewise
    degrades to "treat as new".
    """

    __slots__ = ("_table", "_mask", "_probes")

    def __init__(self, slots: int, context=None):
        if slots < 2 or slots & (slots - 1):
            raise SchedulingError(
                f"filter size must be a power of two >= 2, got {slots}"
            )
        ctx = context if context is not None else get_context()
        self._table = ctx.RawArray("Q", slots)
        self._mask = slots - 1
        self._probes = 32

    @classmethod
    def for_budget(cls, max_states: int, context=None) -> "SharedVisitedFilter":
        """Size the table to ~2x the state budget (capped at 4M slots)."""
        slots = 1 << 14
        while slots < 2 * max_states and slots < (1 << 22):
            slots <<= 1
        return cls(slots, context=context)

    @property
    def slots(self) -> int:
        return self._mask + 1

    def add(self, state_hash: int) -> bool:
        """Claim a hash; False when it was already present."""
        value = state_hash & _MASK64
        if value == 0:
            value = 1  # 0 is the empty-slot sentinel
        table = self._table
        mask = self._mask
        index = value & mask
        for _ in range(self._probes):
            current = table[index]
            if current == value:
                return False
            if current == 0:
                table[index] = value
                return True
            index = (index + 1) & mask
        return True  # saturated window: explore rather than skip

    def seed(self, hashes) -> None:
        """Pre-claim states already expanded by the frontier split."""
        for state_hash in hashes:
            self.add(state_hash)


# ----------------------------------------------------------------------
# Frontier split (work-stealing mode)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SubtreeJob:
    """One unit of work-stealing search, picklable in O(net size).

    ``prefix`` holds the ``(transition, delay, absolute_time)`` firings
    from the initial state to the subtree root (prepended to any
    schedule found below it), ``marking``/``clocks`` the root's
    :meth:`~repro.tpn.kernel.KernelState.export` buffers (revived with
    :meth:`~repro.tpn.kernel.KernelEngine.revive`) and ``now`` the
    absolute time at the root.
    """

    prefix: tuple[tuple[int, int, int], ...]
    marking: bytes
    clocks: bytes
    now: int


@dataclass
class FrontierSplit:
    """Outcome of the breadth-first prefix expansion.

    Either ``result`` is set (the split finished the search by itself —
    tiny model, immediate schedule, or fully exhausted space: the exact
    serial verdict) or ``jobs`` carries at least one subtree to hand
    out, with ``seen_hashes`` holding every state the split expanded or
    enqueued (they seed the shared filter).
    """

    jobs: list[SubtreeJob] = field(default_factory=list)
    seen_hashes: list[int] = field(default_factory=list)
    result: SchedulerResult | None = None
    stats: SearchStats = field(default_factory=SearchStats)


def split_frontier(
    net: CompiledNet,
    config: SchedulerConfig,
    target_jobs: int,
    budget: int = SPLIT_BUDGET,
) -> FrontierSplit:
    """Expand a BFS prefix of the search into ``target_jobs`` subtrees.

    Runs the same candidate enumeration, deadline pruning and
    final-marking detection as the serial DFS, so any verdict reached
    *during* the split is already the serial verdict.  The frontier is
    expanded shallowest-first, which keeps the exported ``_Frame``
    prefixes short and the subtree sizes comparable.
    """
    scheduler = PreRuntimeScheduler(
        net, replace(config, parallel=0), engine="kernel"
    )
    adapter = scheduler.adapter
    successor = adapter.successor
    stats = SearchStats()
    started = time.monotonic()

    s0 = adapter.engine.initial()
    if net.has_missed_deadline(s0.marking):
        raise SchedulingError(
            "initial marking already contains a missed deadline"
        )
    if net.is_final(s0.marking):
        stats.states_visited = 1
        stats.elapsed_seconds = time.monotonic() - started
        return FrontierSplit(
            result=SchedulerResult(
                feasible=True, stats=stats, config=config
            ),
            stats=stats,
        )

    candidates_of = adapter.candidates_of
    clocks_view = adapter.clocks_view
    reorder = scheduler._reorder
    touches_miss = net.touches_miss
    touches_final = net.touches_final
    names = net.transition_names

    visited = {s0}
    frontier: deque[tuple] = deque([(s0, 0, ())])
    expansions = 0

    while frontier and len(frontier) < target_jobs and expansions < budget:
        state, now, prefix = frontier.popleft()
        candidates = candidates_of(state, stats)
        if reorder is not None:
            candidates = reorder(candidates, clocks_view(state))
        expansions += 1
        for transition, delay in candidates:
            stats.states_generated += 1
            child = successor(state, transition, delay)
            if touches_miss[transition] and net.has_missed_deadline(
                child.marking
            ):
                stats.deadline_prunes += 1
                continue
            if child in visited:
                stats.revisits_skipped += 1
                continue
            visited.add(child)
            action = (transition, delay, now + delay)
            if touches_final[transition] and net.is_final(child.marking):
                schedule = [
                    (names[t], q, at) for t, q, at in prefix
                ]
                schedule.append((names[transition], delay, now + delay))
                stats.states_visited = len(visited)
                stats.elapsed_seconds = time.monotonic() - started
                return FrontierSplit(
                    result=SchedulerResult(
                        feasible=True,
                        firing_schedule=schedule,
                        stats=stats,
                        config=config,
                    ),
                    stats=stats,
                )
            frontier.append((child, now + delay, prefix + (action,)))

    stats.states_visited = len(visited)
    stats.elapsed_seconds = time.monotonic() - started
    if not frontier:
        # the BFS exhausted the whole reachable space: definitive
        # infeasible, exactly what the serial DFS would conclude
        return FrontierSplit(
            result=SchedulerResult(
                feasible=False, stats=stats, config=config
            ),
            stats=stats,
        )
    jobs = [
        SubtreeJob(prefix, *state.export(), now)
        for state, now, prefix in frontier
    ]
    state_key = adapter.state_key
    return FrontierSplit(
        jobs=jobs,
        seen_hashes=[state_key(state) for state in visited],
        stats=stats,
    )


# ----------------------------------------------------------------------
# Work-stealing re-split
# ----------------------------------------------------------------------
class _Resplitter:
    """Donates frontier prefixes back to the shared job queue.

    One instance per work-stealing worker, handed to the search core
    as its ``resplit`` hook.  The trigger is *starvation*: the shared
    ``outstanding`` counter tracks jobs enqueued but not yet finished
    (queue depth plus in-flight), so ``outstanding < workers`` means
    at least one worker is idle or about to be.  A busy worker that
    has already sunk :data:`RESPLIT_MIN_VISITED` states into its
    current subtree then exports up to :data:`RESPLIT_MAX_EXPORT`
    unexpanded frontier children as fresh jobs — each one claimed in
    the shared visited filter *before* export, so duplication stays
    bounded by the filter's usual lock-free race (which only ever
    duplicates work, never loses it).

    The exported jobs carry ``prefix + path-to-child`` action tuples,
    so a receiving worker's win concatenates into a complete schedule
    exactly like a first-generation frontier job.
    """

    __slots__ = (
        "jobs",
        "outstanding",
        "workers",
        "metrics",
        "max_export",
        "prefix",
    )

    def __init__(self, jobs, outstanding, workers: int, metrics):
        self.jobs = jobs
        self.outstanding = outstanding
        self.workers = workers
        self.metrics = metrics
        self.max_export = RESPLIT_MAX_EXPORT
        self.prefix: tuple = ()

    def begin_job(self, prefix: tuple) -> None:
        """Record the action prefix of the job about to be searched."""
        self.prefix = tuple(prefix)

    def wants_export(self, n_visited: int) -> bool:
        # dirty read: worst case a donation races a fresh enqueue and
        # the queue briefly holds one more job than strictly needed
        return (
            n_visited >= RESPLIT_MIN_VISITED
            and self.outstanding.value < self.workers
        )

    def export(self, entries) -> None:
        """Enqueue donated ``(state, now, actions)`` frontier children.

        The outstanding counter is raised *before* the puts so an idle
        worker polling an empty queue never concludes "all work done"
        while donations are in flight.
        """
        with self.outstanding.get_lock():
            self.outstanding.value += len(entries)
        prefix = self.prefix
        for state, now, actions in entries:
            self.jobs.put(
                SubtreeJob(prefix + tuple(actions), *state.export(), now)
            )
        self.metrics.inc("worksteal.resplits")
        self.metrics.inc("worksteal.jobs_resplit", len(entries))


# ----------------------------------------------------------------------
# Worker processes
# ----------------------------------------------------------------------
def _stats_payload(stats: SearchStats) -> dict:
    payload = stats.as_dict()
    payload.pop("states_per_second", None)
    return payload


def _accumulate(total: dict, payload: dict) -> None:
    for key, value in payload.items():
        if key == "elapsed_seconds":
            continue
        total[key] = total.get(key, 0) + value


def _portfolio_worker(
    index: int,
    slot_text: str,
    net: CompiledNet,
    config: SchedulerConfig,
    default_engine: str,
    results,
    cancel,
    start,
) -> None:
    """Run one complete search under one slot; report the outcome.

    A slot is ``[engine:]policy[:seed]`` — the engine prefix races
    successor engines as well as orderings; without one the slot
    inherits ``default_engine`` (the scheduler's configured engine).
    """
    engine, policy_text = parse_slot(slot_text)
    if engine is None:
        engine = default_engine
    name, seed = parse_policy(policy_text)
    if seed is None:
        seed = index
    merged: dict = {}
    restarts = 0
    # one registry for the worker's whole lifetime (shared across
    # restarts); its snapshot rides home on the stats payload and the
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
            scheduler = PreRuntimeScheduler(net, cfg, engine=engine)
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
        base = replace(config, **overrides)
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
                cfg = replace(
                    base,
                    policy_seed=seed + restarts,
                    max_states=min(budget, remaining),
                    max_seconds=seconds_left,
                )
                attempt = run_once(cfg)
                _accumulate(merged, _stats_payload(attempt.stats))
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
            _accumulate(merged, _stats_payload(result.stats))

        merged["restarts"] = restarts
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
        # (gauges carry the slot name, so workers never collide); the
        # parent reads the wall-clock gauge back into the AdaptiveStore
        metrics.set_gauge(
            f"slot.{slot_text}.wall_seconds",
            round(time.monotonic() - worker_started, 6),
        )
        metrics.inc(f"slot.{slot_text}.{kind}")
        if restarts:
            metrics.inc(f"slot.{slot_text}.restarts", restarts)
        # after the last _accumulate: that helper does numeric addition
        # over the payload and must never see the nested snapshot
        merged["metrics"] = metrics.snapshot()
        # feasible payload: the schedule plus the dense windows the
        # stateclass engine attaches (None for the discrete engines)
        payload = (
            (list(result.firing_schedule), result.interval_schedule)
            if result is not None and result.feasible
            else None
        )
        results.put((kind, index, slot_text, merged, payload))
    except Exception as error:  # noqa: BLE001 — workers must not die silently
        merged["metrics"] = metrics.snapshot()
        results.put(
            (
                "error",
                index,
                slot_text,
                merged,
                f"{type(error).__name__}: {error}",
            )
        )


def _worksteal_worker(
    index: int,
    net: CompiledNet,
    config: SchedulerConfig,
    jobs,
    results,
    cancel,
    visited_filter: SharedVisitedFilter,
    visited_total,
    outstanding,
    n_workers: int,
) -> None:
    """Drain subtree jobs against the shared visited filter.

    Termination is counter-based rather than sentinel-based:
    ``outstanding`` holds the number of jobs enqueued but not yet
    finished (the parent seeds it with the frontier size; re-splits
    raise it before enqueueing; every drained job lowers it on
    completion).  An empty queue with ``outstanding <= 0`` means the
    whole space has been handed out and finished — sentinels cannot
    express that once workers are allowed to *add* jobs mid-search.
    """
    merged: dict = {}
    exhausted_any = False
    names = net.transition_names
    metrics = MetricsRegistry()
    worker_started = time.monotonic()
    try:
        scheduler = PreRuntimeScheduler(
            net, replace(config, parallel=0), engine="kernel"
        )
        revive = scheduler.adapter.engine.revive
        scheduler.shared_filter = visited_filter
        metrics = scheduler.metrics  # carries kernel.native_core
        resplitter = _Resplitter(jobs, outstanding, n_workers, metrics)
        scheduler.resplit = resplitter
        if scheduler.obs is not None:
            scheduler.obs.track = f"w{index}:worksteal"
        if scheduler.heartbeat is not None:
            scheduler.heartbeat.label = f"w{index}:worksteal"
            scheduler.heartbeat.metrics = metrics
        flushed = [0]

        def tick(n_visited, *_counters) -> bool:
            if cancel.is_set():
                return True
            delta = n_visited - flushed[0]
            flushed[0] = n_visited
            with visited_total.get_lock():
                visited_total.value += delta
                return visited_total.value >= config.max_states

        scheduler.tick = tick
        while not cancel.is_set():
            try:
                job = jobs.get(timeout=0.2)
            except queue_module.Empty:
                with outstanding.get_lock():
                    if outstanding.value <= 0:
                        break
                continue
            flushed[0] = 0
            # one steal per drained job; counters sum across workers,
            # so the merged snapshot carries both the per-worker split
            # and the total
            metrics.inc("worksteal.jobs_stolen")
            metrics.inc(f"worker.{index}.jobs_stolen")
            resplitter.begin_job(job.prefix)
            root = revive(job.marking, job.clocks)
            try:
                result = scheduler.search_from(root, job.now)
            finally:
                with outstanding.get_lock():
                    outstanding.value -= 1
            with visited_total.get_lock():
                visited_total.value += (
                    result.stats.states_visited - flushed[0]
                )
                over_budget = visited_total.value >= config.max_states
            _accumulate(merged, _stats_payload(result.stats))
            if result.feasible:
                cancel.set()  # stop the other workers right away
                schedule = [
                    (names[t], q, at) for t, q, at in job.prefix
                ]
                schedule.extend(result.firing_schedule)
                metrics.set_gauge(
                    f"worker.{index}.wall_seconds",
                    round(time.monotonic() - worker_started, 6),
                )
                merged["metrics"] = metrics.snapshot()
                results.put(("found", index, None, merged, schedule))
                return
            if result.exhausted:
                # budget- or cancel-aborted: this subtree was not
                # fully explored, so the verdict cannot claim the
                # space was exhausted
                exhausted_any = True
            if over_budget:
                exhausted_any = True
                break
        if cancel.is_set():
            # cancelled between jobs: whatever is still queued was
            # never searched
            exhausted_any = True
        metrics.set_gauge(
            f"worker.{index}.wall_seconds",
            round(time.monotonic() - worker_started, 6),
        )
        merged["metrics"] = metrics.snapshot()
        results.put(("drained", index, None, merged, exhausted_any))
    except Exception as error:  # noqa: BLE001
        merged["metrics"] = metrics.snapshot()
        results.put(
            (
                "error",
                index,
                None,
                merged,
                f"{type(error).__name__}: {error}",
            )
        )


# ----------------------------------------------------------------------
# The parallel scheduler
# ----------------------------------------------------------------------
class ParallelScheduler:
    """Race or partition the pre-runtime DFS across worker processes.

    Construct with the same ``(net, config, engine)`` triple as
    :class:`PreRuntimeScheduler`; ``config.parallel`` (>= 2) is the
    worker count and ``config.parallel_mode`` picks the strategy.
    :meth:`search` blocks until a verdict is reached and every worker
    process has been reaped.

    Portfolio slots are engine-aware: ``config.portfolio`` entries may
    prefix their policy with a successor engine
    (``"stateclass:earliest"``), racing the dense state-class search
    against the discrete engines; unprefixed slots inherit the
    configured engine.  An optional :class:`AdaptiveStore` seeds the
    rotation from prior winner statistics of the net's model family
    and records this race's winner back into the store — ordering only
    ever permutes the slots, so the verdict contract is untouched.
    """

    def __init__(
        self,
        net: CompiledNet,
        config: SchedulerConfig | None = None,
        engine: str | None = None,
        adaptive: AdaptiveStore | None = None,
    ):
        self.net = net
        self.adaptive = adaptive
        self.config = config or SchedulerConfig()
        if engine is None:
            engine = self.config.engine
        if engine not in ENGINES:
            raise SchedulingError(
                f"unknown engine {engine!r}; expected one of {ENGINES}"
            )
        self.engine_mode = engine
        if self.config.parallel < 2:
            raise SchedulingError(
                "ParallelScheduler needs config.parallel >= 2 "
                "(use PreRuntimeScheduler for a serial search)"
            )
        if (
            self.config.parallel_mode == "worksteal"
            and engine != "kernel"
        ):
            raise SchedulingError(
                "work-stealing mode requires the kernel engine "
                "(the shared filter claims KernelState Zobrist keys)"
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
        otherwise the default rotation applies.  With an
        :class:`AdaptiveStore` attached, the rotation is reordered by
        the net's model-family winner statistics (recorded winners
        first; a pure permutation, so exactly the same searches race).
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
        # pin unseeded random slots to their rotation index *before*
        # any adaptive permutation: the worker-index fallback would
        # otherwise resolve them post-reorder, so reordering could
        # alias two slots onto one seed (burning a worker on a
        # byte-identical search)
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
        if self.adaptive is not None:
            entries = list(
                self.adaptive.order_slots(
                    net_family(self.net), tuple(entries)
                )
            )
        return tuple(entries)

    def search(self) -> SchedulerResult:
        if self.config.parallel_mode == "worksteal":
            return self._search_worksteal()
        return self._search_portfolio()

    # ------------------------------------------------------------------
    def _search_portfolio(self) -> SchedulerResult:
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
                    self.engine_mode,
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

        messages = self._collect(
            workers, results, cancel, expected=len(workers)
        )
        winner = None
        for message in messages:
            if message[0] in ("feasible", "infeasible"):
                winner = message
                break
        merged = self._merge_stats(messages)
        merged.elapsed_seconds = time.monotonic() - started
        race_metrics = MetricsRegistry.merge_snapshots(
            (m[3] or {}).get("metrics") for m in messages
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
                    f"every portfolio worker failed; first: {errors[0][4]}"
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
        kind, _index, slot, slot_stats, payload = winner
        slot_engine, policy = parse_slot(slot)
        if slot_engine is None:
            slot_engine = self.engine_mode
        if self.adaptive is not None:
            family = net_family(self.net)
            # per-slot wall-clock (and near-miss credit for losers that
            # still reached a definitive verdict) flows back into the
            # store so a narrowly-losing diverse slot is not starved;
            # the decay halves the horizon so old wins fade
            for message in messages:
                m_kind, _i, m_slot, m_stats, _payload = message
                if not m_slot:
                    continue
                seconds = (
                    ((m_stats or {}).get("metrics") or {})
                    .get("gauges", {})
                    .get(f"slot.{m_slot}.wall_seconds")
                )
                if seconds is not None:
                    self.adaptive.record_slot_time(
                        family,
                        m_slot,
                        seconds,
                        near=(
                            m_kind in ("feasible", "infeasible")
                            and message is not winner
                        ),
                    )
            self.adaptive.decay_family(family)
            self.adaptive.record_win(
                family,
                slot,
                (slot_stats or {}).get("states_visited", 0),
            )
            self.adaptive.save()
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
    def _search_worksteal(self) -> SchedulerResult:
        config = self.config
        started = time.monotonic()
        n_workers = config.parallel
        split = split_frontier(
            self.net, config, target_jobs=n_workers * JOBS_PER_WORKER
        )
        if split.result is not None:
            # the split finished the search serially: no worker ran,
            # but the contract still holds — feasible schedules are
            # reference-replayed before being returned
            result = split.result
            if result.feasible:
                validate_with_reference(
                    self.net, config, result.firing_schedule
                )
            result.workers = 1
            result.stats.elapsed_seconds = time.monotonic() - started
            return result

        ctx = self._context
        visited_filter = SharedVisitedFilter.for_budget(
            config.max_states, context=ctx
        )
        visited_filter.seed(split.seen_hashes)
        visited_total = ctx.Value("q", len(split.seen_hashes))
        # jobs enqueued but not yet finished; workers exit on an empty
        # queue only once this reaches zero (re-splits raise it, so a
        # fixed sentinel count cannot express termination)
        outstanding = ctx.Value("q", len(split.jobs))
        jobs: object = ctx.Queue()
        for job in split.jobs:
            jobs.put(job)
        results = ctx.Queue()
        cancel = ctx.Event()
        workers = [
            ctx.Process(
                target=_worksteal_worker,
                args=(
                    index,
                    self.net,
                    config,
                    jobs,
                    results,
                    cancel,
                    visited_filter,
                    visited_total,
                    outstanding,
                    n_workers,
                ),
                name=f"ezrt-worksteal-{index}",
            )
            for index in range(n_workers)
        ]
        for process in workers:
            process.start()

        messages = self._collect(
            workers,
            results,
            cancel,
            expected=len(workers),
            win_kinds=("found",),
            extra_queues=(jobs,),
        )
        merged = self._merge_stats(messages, base=split.stats)
        merged.elapsed_seconds = time.monotonic() - started
        parent_metrics = MetricsRegistry()
        parent_metrics.set_gauge(
            "worksteal.frontier_jobs", len(split.jobs)
        )
        steal_metrics = MetricsRegistry.merge_snapshots(
            [parent_metrics.snapshot()]
            + [(m[3] or {}).get("metrics") for m in messages]
        )
        found = next((m for m in messages if m[0] == "found"), None)
        if found is not None:
            schedule = [tuple(entry) for entry in found[4]]
            validate_with_reference(self.net, config, schedule)
            return SchedulerResult(
                feasible=True,
                firing_schedule=schedule,
                stats=merged,
                config=config,
                workers=n_workers,
                metrics=steal_metrics,
            )
        errors = [m for m in messages if m[0] == "error"]
        if len(errors) == len(workers) and errors:
            raise SchedulingError(
                f"every work-stealing worker failed; first: {errors[0][4]}"
            )
        if not messages:
            raise SchedulingError(
                "work-stealing search produced no worker results"
            )
        exhausted = any(
            m[0] == "drained" and m[4] for m in messages
        ) or any(m[0] == "error" for m in messages) or len(
            [m for m in messages if m[0] == "drained"]
        ) < len(workers)
        return SchedulerResult(
            feasible=False,
            stats=merged,
            config=config,
            exhausted=exhausted,
            workers=n_workers,
            metrics=steal_metrics,
        )

    # ------------------------------------------------------------------
    def _collect(
        self,
        workers,
        results,
        cancel,
        expected: int,
        win_kinds: tuple[str, ...] = ("feasible", "infeasible"),
        extra_queues: tuple = (),
    ) -> list[tuple]:
        """Gather worker messages; cancel on the first definitive one.

        Returns every message received.  Guarantees that all worker
        processes are dead (joined, terminated or killed) on return.
        """
        config = self.config
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
                        # a worker died without reporting: anything it
                        # held (its in-flight job, its outstanding-
                        # counter slot) can never complete, so release
                        # the survivors instead of letting them spin
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
                if drain_deadline is None and message[0] in win_kinds:
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
            for extra in extra_queues:
                extra.cancel_join_thread()
                extra.close()
            results.cancel_join_thread()
            results.close()
        return messages

    @staticmethod
    def _merge_stats(
        messages: list[tuple], base: SearchStats | None = None
    ) -> SearchStats:
        """Sum the per-worker counters into one :class:`SearchStats`."""
        merged = SearchStats()
        if base is not None:
            for key, value in base.as_dict().items():
                if key in ("elapsed_seconds", "states_per_second"):
                    continue
                setattr(merged, key, getattr(merged, key) + value)
        for message in messages:
            payload = message[3] or {}
            for key, value in payload.items():
                if not hasattr(merged, key):
                    continue
                setattr(merged, key, getattr(merged, key) + value)
        return merged
