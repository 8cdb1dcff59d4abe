"""Pre-runtime schedule synthesis by depth-first search (Section 4.4.1).

**Overview for new contributors.**  This module is the front door of
the synthesis pipeline: it takes the compiled time Petri net produced
by the block composer and searches its timed state space for a firing
sequence that reaches the desired final marking — that sequence *is*
the pre-runtime schedule the code generator turns into a C table.
:class:`PreRuntimeScheduler` is the search: the single engine-agnostic
DFS loop.  Everything else in ``scheduler/`` supports it: ``core.py``
holds the :class:`~repro.scheduler.core.EngineAdapter`
implementations the loop runs over, ``config.py`` the knobs,
``result.py`` the outcome/statistics containers, ``policies.py`` the
alternative candidate orderings, and ``parallel.py`` races the search
across worker processes.  Start reading at
:meth:`PreRuntimeScheduler._run` (the loop) and
:meth:`repro.scheduler.core.ReferenceAdapter.candidates_of` (how one
state's successor choices are enumerated; the native driver runs the
same pipeline in C).

The algorithm explores the timed labeled transition system derived from
the composed TPN, looking for a firing sequence that reaches the desired
final marking ``M_F`` — by Definition 3.2 such a sequence *is* a
feasible pre-runtime schedule, and finding one proves the task set
schedulable under the searched policy.

Two engines drive the expansion, one per time semantics; each runs
on a packed production adapter or on its executable spec, behind the
shared loop, and ``config.engine`` picks the engine:

* ``engine="kernel"`` (default) — discrete time over the packed-buffer
  :class:`~repro.tpn.kernel.KernelEngine`: markings and clocks live in
  flat byte/word buffers with an incrementally maintained 64-bit
  Zobrist state key, and the whole depth-first search runs in the
  optional native core's C driver (:mod:`repro.tpn._native`).  Its
  spec is the checked-semantics :class:`~repro.tpn.state.StateEngine`
  with dense O(|T|·|P|) rescans, the baseline the benchmarks and the
  CI smoke job cross-validate against (identical schedules, identical
  state counts);
* ``engine="stateclass"`` — dense time over the packed
  :class:`~repro.tpn.dbm.DbmEngine`, again searched by the native
  driver: states are Berthomieu–Diaz state classes (marking +
  difference-bound matrix), so every dense firing delay of a
  transition is one search edge instead of one edge per integer delay.
  A feasible class path is *concretised* back to integer firing times
  and replayed through the checked reference engine before being
  returned — the same contract the parallel scheduler applies to
  worker wins.  Its spec is the tuple
  :class:`~repro.tpn.stateclass.StateClassEngine`.

Without the native core (``EZRT_PURE=1``, no cffi, a failed build, or
a net with no places or no transitions) each engine runs on its spec
from the start; a net past a packed cap (a token count, clock or
static bound too wide for the packed words) restarts on it.  The
``kernel.native_core`` / ``dbm.native_core`` gauges say which path
ran.
"""

from __future__ import annotations

import time

from repro.errors import (
    InfeasibleScheduleError,
    PackedCapError,
    SchedulingError,
)
from repro.blocks.composer import ComposedModel
from repro.obs.events import JsonlSink, Recorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.progress import ProgressPrinter
from repro.scheduler.config import SchedulerConfig
from repro.scheduler.core import ADAPTERS, make_adapter
from repro.scheduler.policies import make_reorder
from repro.scheduler.result import SchedulerResult, SearchStats
from repro.tpn._native import (
    SEARCH_BUDGET,
    SEARCH_FEASIBLE,
    SEARCH_POLL,
)
from repro.tpn.net import CompiledNet

#: Which path an engine's search ran: the result gauge and the trace
#: instant (1.0 / ``native=True``: the native driver; 0.0 /
#: ``False``: the Python loop over the executable spec).
_CORE_SIGNALS = {
    "kernel": ("kernel.native_core", "kernel-core"),
    "stateclass": ("dbm.native_core", "dbm-core"),
}

# check the wall clock every 1024 expansions; the budget is measured
# on time.monotonic() — never the adjustable system clock — matching
# the batch engine's timing
_TIME_CHECK_MASK = 0x3FF


class _Frame:
    """One DFS stack entry (slotted: the stack is the hot data path)."""

    __slots__ = ("state", "now", "candidates", "index", "action")

    def __init__(
        self,
        state: object,
        now: int,
        candidates: list[tuple[int, int]],
        action: tuple[int, int, int] | None = None,
    ):
        self.state = state
        self.now = now
        self.candidates = candidates
        self.index = 0
        self.action = action


class _Poll:
    """The 1024-expansion poll both search paths share.

    Each call samples the stack depth (the ``search.max_depth``
    gauge), calls the heartbeat, checks the ``max_seconds`` deadline
    and calls ``tick``, in that order, and returns True when the
    search must stop (the budget ran out or ``tick`` cancelled it).
    """

    __slots__ = ("deadline", "tick", "heartbeat", "max_depth")

    def __init__(self, deadline, tick, heartbeat):
        self.deadline = deadline
        self.tick = tick
        self.heartbeat = heartbeat
        self.max_depth = 1

    def __call__(
        self, visited, generated, revisits, prunes, backtracks, depth
    ) -> bool:
        if depth > self.max_depth:
            self.max_depth = depth
        if self.heartbeat is not None:
            self.heartbeat(visited, generated, depth)
        if self.deadline is not None and time.monotonic() > self.deadline:
            return True
        return self.tick is not None and bool(
            self.tick(
                visited, generated, revisits, prunes, backtracks, depth
            )
        )


class PreRuntimeScheduler:
    """The depth-first schedule synthesiser over a compiled net.

    Search structure (matching the paper's description):

    * depth-first, with *tagging* of visited states so no state is
      expanded twice (revisits backtrack immediately);
    * *undesirable states are removed*: candidates that fire a
      deadline-miss transition are never taken, and successors whose
      marking contains a token in a deadline-missed place are pruned —
      when the model forces a miss, the branch dead-ends and the
      search backtracks to the previous scheduling decision;
    * *partial-order state-space minimisation* (the paper cites
      Lilius), applied inside the adapters' candidate enumeration;
    * candidates are ordered by ``(delay, priority, index)`` unless a
      reorder policy overrides it; the stop criterion is reaching
      ``M_F``.

    The constructor builds the adapter of ``config.engine``
    (:func:`~repro.scheduler.core.make_adapter`); :meth:`search` runs
    the loop — in Python over a spec adapter (:meth:`_run`, which
    builds the policy's reorder function afresh, so every search
    starts at its seed), or in the native core's compiled driver over
    a native one (:meth:`_drive`), falling back to the spec when the
    net outgrows the packed engine.

    Four attributes are injection points a caller may replace before
    :meth:`search`.  ``tick`` serves the parallel scheduler's workers
    (``None`` for a plain serial search): a cooperative callback
    polled every 1024 expansions with the live counters plus the
    current stack depth (returning True aborts the search — first-win
    cancellation).  The other three serve :mod:`repro.obs`: ``obs`` is
    a span recorder (built only when ``config.trace_jsonl`` is set) —
    when enabled, the hoisted successor/candidate locals are wrapped
    in nanosecond-accumulating closures and emitted as aggregate child
    spans of the ``search`` span at exit; ``metrics`` is a registry
    (always built; ``None`` turns it off) whose snapshot lands on
    ``SchedulerResult.metrics`` — portfolio workers swap in their own;
    ``heartbeat`` is a progress callback (built when
    ``config.progress`` is set) sharing ``tick``'s 1024-expansion
    poll.  The registry alone never turns polling on — the
    ``search.max_depth`` gauge is sampled at the poll cadence, so it
    is recorded only when a deadline, tick or heartbeat already pays
    for the poll.
    """

    def __init__(
        self, net: CompiledNet, config: SchedulerConfig | None = None
    ):
        self.net = net
        self.config = config = config or SchedulerConfig()
        engine = config.engine
        self.adapter = make_adapter(engine, net, config)
        self.tick = None
        self.metrics = MetricsRegistry()
        self.obs = None
        if config.trace_jsonl:
            self.obs = Recorder(
                JsonlSink(config.trace_jsonl),
                track=f"search:{engine}",
            )
            self.adapter.obs = self.obs
        self.heartbeat = None
        if config.progress:
            self.heartbeat = ProgressPrinter(
                label=f"search:{engine}",
                recorder=self.obs,
                metrics=self.metrics,
            )
        if not net.final_constraints:
            raise SchedulingError(
                "net has no final marking; set one (the join block does "
                "this automatically) before scheduling"
            )

    # ------------------------------------------------------------------
    def search(self) -> SchedulerResult:
        """Run the DFS; returns a result whether or not it succeeds.

        When the packed root or the native driver meets a packed cap
        (:class:`~repro.errors.PackedCapError`), the search runs again
        from the start on the engine's executable spec, which has no
        caps; its result equals a search begun there.  The rerun keeps
        the first attempt's start: ``max_seconds`` runs out at the
        same deadline and ``elapsed_seconds`` counts both attempts
        (the state budget restarts with the search).
        """
        started = time.monotonic()
        try:
            result = self._run(started)
        except PackedCapError:
            config = self.config
            spec = ADAPTERS[config.engine][1](self.net, config)
            spec.obs = self.adapter.obs
            self.adapter = spec
            result = self._run(started)
        if self.metrics is not None:
            result.metrics = self.metrics.snapshot()
        return result

    def _emit_spans(self, start_ns: int, span_acc, stats) -> None:
        """Emit the ``search`` span plus its aggregate phase children.

        The per-call successor/candidate costs were accumulated as
        plain nanosecond counters inside the loop (never formatting an
        event on the hot path); here they become two child spans laid
        out back-to-back from the search start — a valid Chrome
        nesting that reads as "of this search, X µs went to successor
        generation and Y µs to candidate enumeration".
        """
        obs = self.obs
        obs.record_span(
            "search",
            start_ns,
            obs.now_ns(),
            cat="search",
            args={
                "engine": self.adapter.name,
                "states_visited": stats.states_visited,
                "states_generated": stats.states_generated,
            },
        )
        cursor = start_ns
        for name, (spent_ns, calls) in (
            ("successor-generation", span_acc["succ"]),
            ("candidate-enumeration", span_acc["cand"]),
        ):
            if not calls:
                continue
            obs.record_span(
                name,
                cursor,
                cursor + spent_ns,
                cat="search",
                args={"aggregate": True, "calls": calls},
            )
            cursor += spent_ns

    def _drive(
        self, driver, stats, started, poll, trace_t0, span_acc
    ) -> SchedulerResult:
        """:meth:`_run`'s loop, run by a compiled driver.

        The driver — the native core's one ``ez_search_*`` loop,
        rooted by the kernel's ``kn_search_new`` or the DBM engine's
        ``dc_search_new`` (the native adapters' ``open_driver``),
        behind one :class:`~repro.tpn._native.NativeSearch` handle —
        owns the stack, the visited states and every per-expansion
        step; Python runs only what :meth:`_run` runs at the same
        points:

        * at every 1024-expansion poll, the same :class:`_Poll` — only
          when something asked for polling, but the driver yields
          there regardless, so signal handlers (Ctrl-C) run within one
          poll interval;
        * on a win, the adapter's ``finalize_path``.

        The driver orders every policy itself, ``random`` included.

        Verdicts, schedules, every :class:`SearchStats` counter and
        the tick/heartbeat arguments equal :meth:`_run`'s over the
        engine's executable spec (``tests/test_kernel_driver.py``,
        ``tests/test_dbm_driver.py``).  The driver's
        memory is freed on every exit path; its size lands on the
        ``search.visited_bytes`` / ``search.bytes_per_state`` gauges.
        """
        metrics = self.metrics
        record = span_acc is not None
        counters = driver.counters
        exhausted = False
        try:
            while True:
                status = driver.run()
                if status == SEARCH_POLL:
                    if poll is not None and poll(
                        counters.visited,
                        counters.generated,
                        counters.revisits,
                        counters.prunes,
                        counters.backtracks,
                        counters.depth,
                    ):
                        exhausted = True
                        break
                elif status == SEARCH_FEASIBLE:
                    stats.elapsed_seconds = time.monotonic() - started
                    schedule, windows = self.adapter.finalize_path(
                        driver.path(), stats
                    )
                    return SchedulerResult(
                        feasible=True,
                        firing_schedule=schedule,
                        stats=stats,
                        config=self.config,
                        interval_schedule=windows,
                    )
                else:
                    exhausted = status == SEARCH_BUDGET
                    break
        except PackedCapError:
            # the search restarts on the spec, which records its own
            # gauges and spans (see search)
            metrics = None
            record = False
            raise
        finally:
            driver.close()
            stats.states_visited = counters.visited
            stats.states_generated = counters.generated
            stats.revisits_skipped = counters.revisits
            stats.deadline_prunes = counters.prunes
            stats.backtracks = counters.backtracks
            stats.reductions = counters.reductions
            if metrics is not None:
                if poll is not None:
                    metrics.max_gauge("search.max_depth", poll.max_depth)
                visited_bytes = counters.visited_bytes
                metrics.max_gauge("search.visited_bytes", visited_bytes)
                metrics.max_gauge(
                    "search.bytes_per_state",
                    visited_bytes / max(1, counters.visited),
                )
            if record:
                span_acc["succ"] = [counters.succ_ns, counters.succ_calls]
                span_acc["cand"] = [counters.cand_ns, counters.cand_calls]
                self._emit_spans(trace_t0, span_acc, stats)

        stats.elapsed_seconds = time.monotonic() - started
        return SchedulerResult(
            feasible=False,
            stats=stats,
            config=self.config,
            exhausted=exhausted,
        )

    def _run(self, started: float) -> SchedulerResult:
        adapter = self.adapter
        config = self.config
        stats = SearchStats()
        obs = self.obs
        record = obs is not None and obs.enabled
        span_acc = None
        trace_t0 = 0
        if record:
            trace_t0 = obs.now_ns()
            span_acc = {"succ": [0, 0], "cand": [0, 0]}
        # the metrics registry alone never turns polling on: the bare
        # hot loop and the registry-only default path run the same
        # per-expansion bytecode (the <2% gate in bench_obs_overhead)
        poll = None
        if (
            config.max_seconds is not None
            or self.tick is not None
            or self.heartbeat is not None
        ):
            poll = _Poll(
                None
                if config.max_seconds is None
                else started + config.max_seconds,
                self.tick,
                self.heartbeat,
            )

        s0 = adapter.root()
        engine = config.engine
        gauge, instant = _CORE_SIGNALS[engine]
        if self.metrics is not None:
            self.metrics.set_gauge(gauge, 1.0 if adapter.native else 0.0)
        if obs is not None:
            obs.instant(instant, cat=engine, native=adapter.native)
        if adapter.deadline_missed(s0.marking):
            raise SchedulingError(
                "initial marking already contains a missed deadline"
            )
        visited = {s0}
        stats.states_visited = 1

        if adapter.reached_final(s0.marking):
            stats.elapsed_seconds = time.monotonic() - started
            schedule, windows = adapter.finalize_path([], stats)
            if record:
                self._emit_spans(trace_t0, span_acc, stats)
            return SchedulerResult(
                feasible=True,
                firing_schedule=schedule,
                stats=stats,
                config=config,
                interval_schedule=windows,
            )

        if adapter.native:
            return self._drive(
                adapter.open_driver(s0, record),
                stats,
                started,
                poll,
                trace_t0,
                span_acc,
            )

        candidates_of = adapter.candidates_of
        reorder = make_reorder(config.policy, self.net, config.policy_seed)
        if reorder is not None:
            base_candidates = candidates_of
            clocks_view = adapter.clocks_view

            def candidates_of(state, stats):
                return reorder(
                    base_candidates(state, stats), clocks_view(state)
                )

        if record:
            # tracing wraps the hoisted callables in ns-accumulating
            # closures; when disabled these lines never run and the
            # loop is byte-for-byte the untraced one
            clock_ns = time.monotonic_ns
            cand_cell = span_acc["cand"]
            traced_candidates = candidates_of

            def candidates_of(state, stats):
                t0 = clock_ns()
                cands = traced_candidates(state, stats)
                cand_cell[0] += clock_ns() - t0
                cand_cell[1] += 1
                return cands

        stack: list[_Frame] = [
            _Frame(s0, 0, candidates_of(s0, stats))
        ]
        exhausted = False

        # Hot-loop locals: the marking predicates re-run only when the
        # fired transition can change their verdict (parents on the
        # stack already passed both checks), and the per-expansion
        # counters stay in locals, folded back into `stats` on exit.
        successor = adapter.successor
        if record:
            succ_cell = span_acc["succ"]
            traced_successor = successor

            def successor(state, transition, delay):
                t0 = clock_ns()
                child = traced_successor(state, transition, delay)
                succ_cell[0] += clock_ns() - t0
                succ_cell[1] += 1
                return child

        touches_miss = adapter.touches_miss
        touches_final = adapter.touches_final
        has_missed = adapter.deadline_missed
        is_final = adapter.reached_final
        max_states = config.max_states
        visited_add = visited.add
        metrics = self.metrics
        n_visited = 1
        n_generated = 0
        n_revisits = 0
        n_prunes = 0
        n_backtracks = 0

        try:
            while stack:
                frame = stack[-1]
                index = frame.index
                candidates = frame.candidates
                if index >= len(candidates):
                    stack.pop()
                    if stack:
                        n_backtracks += 1
                    continue
                frame.index = index + 1
                transition, delay = candidates[index]

                n_generated += 1
                if (
                    poll is not None
                    and not n_generated & _TIME_CHECK_MASK
                    and poll(
                        n_visited,
                        n_generated,
                        n_revisits,
                        n_prunes,
                        n_backtracks,
                        len(stack),
                    )
                ):
                    exhausted = True
                    break

                child = successor(frame.state, transition, delay)
                if child is None:
                    n_prunes += 1
                    continue
                if touches_miss[transition] and has_missed(
                    child.marking
                ):
                    n_prunes += 1
                    continue
                if child in visited:
                    n_revisits += 1
                    continue
                visited_add(child)
                n_visited += 1
                now = frame.now
                action = (transition, delay, now + delay)

                if touches_final[transition] and is_final(
                    child.marking
                ):
                    actions = [
                        f.action
                        for f in stack[1:]
                        if f.action is not None
                    ]
                    actions.append(action)
                    stats.elapsed_seconds = time.monotonic() - started
                    schedule, windows = adapter.finalize_path(
                        actions, stats
                    )
                    return SchedulerResult(
                        feasible=True,
                        firing_schedule=schedule,
                        stats=stats,
                        config=config,
                        interval_schedule=windows,
                    )

                if n_visited >= max_states:
                    exhausted = True
                    break
                stack.append(
                    _Frame(
                        child,
                        now + delay,
                        candidates_of(child, stats),
                        action,
                    )
                )
        finally:
            stats.states_visited = n_visited
            stats.states_generated = n_generated
            stats.revisits_skipped = n_revisits
            stats.deadline_prunes = n_prunes
            stats.backtracks = n_backtracks
            if metrics is not None and poll is not None:
                # depth is sampled at the poll cadence; without a
                # poller nothing was sampled, so record no gauge
                metrics.max_gauge("search.max_depth", poll.max_depth)
            if record:
                self._emit_spans(trace_t0, span_acc, stats)

        stats.elapsed_seconds = time.monotonic() - started
        return SchedulerResult(
            feasible=False,
            stats=stats,
            config=config,
            exhausted=exhausted,
        )


def search(
    net: CompiledNet,
    config: SchedulerConfig | None = None,
    heartbeat=None,
) -> SchedulerResult:
    """Synthesise a schedule for a compiled net.

    Dispatches on ``config.parallel``: ``0``/``1`` run the serial DFS
    in-process, ``>= 2`` hand the net to the
    :class:`~repro.scheduler.parallel.ParallelScheduler` (a portfolio
    race across worker processes).

    ``heartbeat`` is an optional progress callback with the
    scheduler's ``(visited, generated, depth)`` signature (e.g. a
    :class:`repro.obs.progress.ProgressFile` spooling live counters
    for SSE streaming); it overrides the ``config.progress`` printer
    on the serial path.  Parallel searches run their workers in other
    processes and ignore it.
    """
    config = config or SchedulerConfig()
    if config.parallel >= 2:
        # deferred import: parallel imports this module for its workers
        from repro.scheduler.parallel import ParallelScheduler

        return ParallelScheduler(net, config).search()
    scheduler = PreRuntimeScheduler(net, config)
    if heartbeat is not None:
        scheduler.heartbeat = heartbeat
    return scheduler.search()


def find_schedule(
    model: ComposedModel,
    config: SchedulerConfig | None = None,
    prelint: bool = True,
    heartbeat=None,
) -> SchedulerResult:
    """Synthesise a schedule for a composed model.

    Convenience wrapper that compiles the net (cached on the model, so
    downstream stages reuse it) and attaches the model's theoretical
    minimum firing count to the result for the paper's
    visited-vs-minimum comparison.

    ``prelint`` (default on) runs the O(tasks) necessary-condition
    checks of :func:`repro.lint.specrules.presearch_diagnostics`
    first: a spec that provably cannot be scheduled (processor/bus
    overutilisation, a precedence chain that cannot meet its
    deadline) returns a *diagnosed* infeasible result immediately —
    ``result.diagnostics`` names the violated condition and no state
    is ever searched.  Warning-severity findings (e.g. the kernel
    engine's token-cap risk) never change the verdict; they attach to
    whatever result the search produces.  Pass ``prelint=False`` to
    force the exhaustive search to refute such specs the long way.
    """
    config = config or SchedulerConfig()
    diagnostics: list = []
    if prelint:
        # deferred import: repro.lint imports the scheduler config
        from repro.lint.diagnostics import has_errors
        from repro.lint.specrules import presearch_diagnostics

        diagnostics = presearch_diagnostics(
            model.spec, engine=config.engine
        )
        if has_errors(diagnostics):
            result = SchedulerResult(
                feasible=False,
                config=config,
                exhausted=False,
                diagnostics=diagnostics,
            )
            result.minimum_firings = model.minimum_firings()
            return result
    result = search(model.compiled(), config, heartbeat=heartbeat)
    result.minimum_firings = model.minimum_firings()
    if diagnostics:
        result.diagnostics = diagnostics
    return result


def require_schedule(
    model: ComposedModel, config: SchedulerConfig | None = None
) -> SchedulerResult:
    """Like :func:`find_schedule` but raises when no schedule is found."""
    result = find_schedule(model, config)
    if not result.feasible:
        raise InfeasibleScheduleError(
            f"no feasible pre-runtime schedule found for "
            f"{model.spec.name!r} (visited {result.stats.states_visited} "
            f"states{'; budget exhausted' if result.exhausted else ''})"
        )
    return result
