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
alternative candidate orderings, and ``parallel.py`` runs a portfolio
of searches, stepped in turns at their poll.  Start reading at
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
  additive state key, and the whole depth-first search runs in the
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
  returned — the same contract the portfolio applies to its
  winner.  Its spec is the tuple
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
    (:func:`~repro.scheduler.core.make_adapter`); :meth:`steps` is
    the search, resumable at its 1024-expansion poll, and
    :meth:`search` runs it to the end.  The loop runs in Python over a
    spec adapter (:meth:`_run`, which builds the policy's reorder
    function afresh, so every search starts at its seed), or in the
    native core's compiled driver over a native one (:meth:`_drive`),
    falling back to the spec when the net outgrows the packed engine.

    Three attributes serve :mod:`repro.obs` and may be replaced before
    the search starts: ``obs`` is a span recorder (built only when
    ``config.trace_jsonl`` is set) — when enabled, the hoisted
    successor/candidate locals are wrapped in nanosecond-accumulating
    closures and emitted as aggregate child spans of the ``search``
    span at exit; ``metrics`` is a registry (always built; ``None``
    turns it off) whose snapshot lands on ``SchedulerResult.metrics``
    — portfolio slots swap in their own; ``heartbeat`` is a progress
    callback (built when ``config.progress`` is set) called at the
    poll.  The registry alone never turns polling on — the
    ``search.max_depth`` gauge is sampled at the poll cadence, so it
    is recorded only when a deadline, heartbeat or resumable caller
    already pays for the poll.
    """

    def __init__(
        self, net: CompiledNet, config: SchedulerConfig | None = None
    ):
        self.net = net
        self.config = config = config or SchedulerConfig()
        engine = config.engine
        self.adapter = make_adapter(engine, net, config)
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
        """Run the DFS; returns a result whether or not it succeeds."""
        steps = self.steps()
        while True:
            try:
                next(steps)
            except StopIteration as done:
                return done.value

    def steps(self, resumable: bool = False):
        """The search as a generator that pauses at its poll.

        Every 1024 expansions the loop hands its live counters
        ``(visited, generated, revisits, prunes, backtracks, depth)``
        to the poll here (the ``search.max_depth`` gauge, the
        heartbeat, the ``max_seconds`` deadline), then yields them;
        sending a true value back stops the search as a budget stop.
        The generator returns the :class:`SchedulerResult`.  The loop
        pauses only when a deadline, a heartbeat or a ``resumable``
        caller (the portfolio) polls it.

        A net past a packed cap (:class:`~repro.errors.PackedCapError`
        from the packed root or the native driver) searches again from
        the start on the engine's executable spec, which has no caps,
        under the first attempt's deadline and start.
        """
        config = self.config
        started = time.monotonic()
        deadline = None
        if config.max_seconds is not None:
            deadline = started + config.max_seconds
        heartbeat = self.heartbeat
        polled = resumable or deadline is not None or heartbeat is not None
        attempt = self._run(started, polled)
        stop = None
        max_depth = 1
        while True:
            try:
                counters = attempt.send(stop)
            except StopIteration as done:
                result = done.value
                break
            except PackedCapError:
                spec = ADAPTERS[config.engine][1](self.net, config)
                spec.obs = self.adapter.obs
                self.adapter = spec
                max_depth = 1
                attempt = self._run(started, polled)
                stop = None
                continue
            visited, generated, _, _, _, depth = counters
            max_depth = max(max_depth, depth)
            if heartbeat is not None:
                heartbeat(visited, generated, depth)
            stop = (
                deadline is not None and time.monotonic() > deadline
            ) or bool((yield counters))
        metrics = self.metrics
        if metrics is not None:
            if polled:
                # depth is sampled at the poll cadence; without a
                # poller nothing was sampled, so record no gauge
                metrics.max_gauge("search.max_depth", max_depth)
            result.metrics = metrics.snapshot()
        return result

    def _emit_spans(self, start_ns: int, span_acc, stats) -> None:
        """Emit the ``search`` span plus its aggregate phase children.

        The per-call successor/candidate costs were accumulated as
        plain nanosecond counters inside the loop (never formatting an
        event on the hot path); here they become two child spans laid
        out back-to-back from the search start — a valid Chrome
        nesting that reads as "of this search, X µs went to successor
        generation and Y µs to candidate enumeration".  A portfolio
        that hands its searches to forked lanes clears ``obs`` on the
        copies it closes, so only the lane's copy records them.
        """
        obs = self.obs
        if obs is None:
            return
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

    def _drive(self, driver, stats, started, polled, trace_t0, span_acc):
        """:meth:`_run`'s loop, run by a compiled driver.

        The driver — the native core's one ``ez_search_*`` loop,
        rooted by the kernel's ``kn_search_new`` or the DBM engine's
        ``dc_search_new`` (the native adapters' ``open_driver``),
        behind one :class:`~repro.tpn._native.NativeSearch` handle —
        owns the stack, the visited states and every per-expansion
        step; Python runs only what :meth:`_run` runs at the same
        points:

        * at every 1024-expansion poll, the same yield of the live
          counters — only when ``polled``, but the driver returns
          there regardless, so signal handlers (Ctrl-C) run within
          one poll interval;
        * on a win, the adapter's ``finalize_path``.

        The driver orders every policy itself, ``random`` included.

        Verdicts, schedules, every :class:`SearchStats` counter and
        the counters yielded at each poll equal :meth:`_run`'s over
        the engine's executable spec (``tests/test_kernel_driver.py``,
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
                    if polled and (
                        yield (
                            counters.visited,
                            counters.generated,
                            counters.revisits,
                            counters.prunes,
                            counters.backtracks,
                            counters.depth,
                        )
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

    def _run(self, started: float, polled: bool):
        """The depth-first loop, a generator :meth:`steps` drives:
        when ``polled`` it yields the live counters every 1024
        expansions and stops as a budget stop when sent a true
        value; it returns the result."""
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
            return (
                yield from self._drive(
                    adapter.open_driver(s0, record),
                    stats,
                    started,
                    polled,
                    trace_t0,
                    span_acc,
                )
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
                    polled
                    and not n_generated & _TIME_CHECK_MASK
                    and (
                        yield (
                            n_visited,
                            n_generated,
                            n_revisits,
                            n_prunes,
                            n_backtracks,
                            len(stack),
                        )
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
    of searches, one process unless a long search forks lanes).

    ``heartbeat`` is an optional progress callback with the
    scheduler's ``(visited, generated, depth)`` signature (e.g. a
    :class:`repro.obs.progress.ProgressFile` spooling live counters
    for SSE streaming); it overrides the ``config.progress`` printer
    on the serial path.  Portfolio searches ignore it: their slots
    interleave, so one counter stream would mix several searches.
    """
    config = config or SchedulerConfig()
    if config.parallel >= 2:
        # deferred import: parallel imports this module for its slots
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
