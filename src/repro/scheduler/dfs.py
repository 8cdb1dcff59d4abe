"""Pre-runtime schedule synthesis by depth-first search (Section 4.4.1).

**Overview for new contributors.**  This module is the front door of
the synthesis pipeline: it takes the compiled time Petri net produced
by the block composer and searches its timed state space for a firing
sequence that reaches the desired final marking — that sequence *is*
the pre-runtime schedule the code generator turns into a C table.
Everything else in ``scheduler/`` supports this search: ``core.py``
holds the single engine-agnostic DFS loop and the
:class:`~repro.scheduler.core.EngineAdapter` implementations,
``config.py`` the knobs, ``result.py`` the outcome/statistics
containers, ``policies.py`` the alternative candidate orderings, and
``parallel.py`` races the search across worker processes.  Start reading
at :class:`repro.scheduler.core.SearchCore` (the loop) and
:meth:`repro.scheduler.core.ReferenceAdapter.candidates_of` (how one
state's successor choices are enumerated; the native driver runs the
same pipeline in C).

The algorithm explores the timed labeled transition system derived from
the composed TPN, looking for a firing sequence that reaches the desired
final marking ``M_F`` — by Definition 3.2 such a sequence *is* a
feasible pre-runtime schedule, and finding one proves the task set
schedulable under the searched policy.

Three successor engines drive the expansion, each wrapped by a thin
adapter behind the shared loop:

* ``engine="kernel"`` (default) — the packed-buffer
  :class:`~repro.tpn.kernel.KernelEngine`: markings and clocks live in
  flat byte/word buffers with an incrementally maintained 64-bit
  Zobrist state key, and the whole depth-first search runs in the
  optional native core's C driver (:mod:`repro.tpn._native`) — the one
  production discrete engine;
* ``engine="reference"`` — the checked-semantics
  :class:`~repro.tpn.state.StateEngine` with dense O(|T|·|P|) rescans,
  kept as the kernel's executable spec and the baseline the benchmarks
  and the CI smoke job cross-validate against (identical schedules,
  identical state counts);
* ``engine="stateclass"`` — dense time over the packed
  :class:`~repro.tpn.dbm.DbmEngine`, again searched by the native
  driver: states are Berthomieu–Diaz state classes (marking +
  difference-bound matrix), so every dense firing delay of a
  transition is one search edge instead of one edge per integer delay.
  A feasible class path is *concretised* back to integer firing times
  and replayed through the checked reference engine before being
  returned — the same contract the parallel scheduler applies to
  worker wins.

Without the native core (``EZRT_PURE=1``, no cffi, a failed build, or
a net with no places or no transitions) ``engine="kernel"`` runs on the
reference engine and ``engine="stateclass"`` on the tuple
:class:`~repro.tpn.stateclass.StateClassEngine`, their executable
specs; the ``kernel.native_core`` / ``dbm.native_core`` gauges say
which path ran.
"""

from __future__ import annotations

from repro.errors import InfeasibleScheduleError, SchedulingError
from repro.blocks.composer import ComposedModel
from repro.obs.events import JsonlSink, Recorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.progress import ProgressPrinter
from repro.scheduler.config import SchedulerConfig
from repro.scheduler.core import SearchCore, make_adapter
from repro.scheduler.policies import make_reorder
from repro.scheduler.result import SchedulerResult
from repro.tpn.net import CompiledNet

#: Which path a native engine's search ran, per engine: the result
#: gauge and the trace instant (1.0 / ``native=True``: the native
#: driver; 0.0 / ``False``: ``SearchCore`` over the executable spec).
_CORE_SIGNALS = {
    "kernel": ("kernel.native_core", "kernel-core"),
    "stateclass": ("dbm.native_core", "dbm-core"),
}


class PreRuntimeScheduler:
    """Depth-first schedule synthesiser over a compiled net.

    A thin shell around :class:`repro.scheduler.core.SearchCore`: it
    validates the configuration, builds the engine adapter and the
    policy reorder function, and exposes the injection point the
    parallel scheduler's workers use (``tick``).
    """

    def __init__(
        self,
        net: CompiledNet,
        config: SchedulerConfig | None = None,
        engine: str | None = None,
    ):
        self.net = net
        self.config = config or SchedulerConfig()
        if engine is not None:
            # SchedulerConfig.replace checks the engine rules
            self.config = self.config.replace(engine=engine)
        engine = self.engine_mode = self.config.engine
        self.adapter = make_adapter(engine, net, self.config)
        self._reorder = make_reorder(
            self.config.policy, net, self.config.policy_seed
        )
        #: Injection point for the parallel scheduler's workers (a
        #: no-op for a plain serial search): cooperative callback,
        #: polled every 1024 expansions with the live counters;
        #: returning True aborts the search (first-win cancellation).
        self.tick = None
        # Observability (repro.obs).  The metrics registry is always
        # on — a few dict writes per search, snapshotted onto
        # ``SchedulerResult.metrics``; portfolio workers swap in their
        # own registry (carrying over the gauges below) so every
        # worker's counters ship home.  The span recorder and the
        # progress heartbeat exist only when their config knobs ask for
        # them (otherwise the core's hot loop never sees them).
        self.metrics = MetricsRegistry()
        if engine in _CORE_SIGNALS:
            self.metrics.set_gauge(
                _CORE_SIGNALS[engine][0],
                1.0 if self.adapter.native else 0.0,
            )
        self.obs = None
        if self.config.trace_jsonl:
            self.obs = Recorder(
                JsonlSink(self.config.trace_jsonl),
                track=f"search:{engine}",
            )
            self.adapter.obs = self.obs
        self.heartbeat = None
        if self.config.progress:
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
        engine = self.engine_mode
        if self.obs is not None and engine in _CORE_SIGNALS:
            self.obs.instant(
                _CORE_SIGNALS[engine][1],
                cat=engine,
                native=self.adapter.native,
            )
        return SearchCore(
            self.adapter,
            self.config,
            reorder=self._reorder,
            tick=self.tick,
            obs=self.obs,
            metrics=self.metrics,
            heartbeat=self.heartbeat,
        ).run()


def search(
    net: CompiledNet,
    config: SchedulerConfig | None = None,
    engine: str | None = None,
    heartbeat=None,
) -> SchedulerResult:
    """Synthesise a schedule for a compiled net.

    Dispatches on ``config.parallel``: ``0``/``1`` run the serial DFS
    in-process, ``>= 2`` hand the net to the
    :class:`~repro.scheduler.parallel.ParallelScheduler` (a portfolio
    race across worker processes).
    ``engine=None`` uses ``config.engine``; an explicit argument
    overrides it for this call.

    ``heartbeat`` is an optional progress callback with the search
    core's ``(visited, generated, depth)`` signature (e.g. a
    :class:`repro.obs.progress.ProgressFile` spooling live counters
    for SSE streaming); it overrides the ``config.progress`` printer
    on the serial path.  Parallel searches run their workers in other
    processes and ignore it.
    """
    config = config or SchedulerConfig()
    if config.parallel >= 2:
        # deferred import: parallel imports this module for its workers
        from repro.scheduler.parallel import ParallelScheduler

        return ParallelScheduler(net, config, engine=engine).search()
    scheduler = PreRuntimeScheduler(net, config, engine=engine)
    if heartbeat is not None:
        scheduler.heartbeat = heartbeat
    return scheduler.search()


def find_schedule(
    model: ComposedModel,
    config: SchedulerConfig | None = None,
    engine: str | None = None,
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
            model.spec, engine=engine or config.engine
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
    result = search(
        model.compiled(), config, engine=engine, heartbeat=heartbeat
    )
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
