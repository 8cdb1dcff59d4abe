"""Pre-runtime schedule synthesis by depth-first search (Section 4.4.1).

**Overview for new contributors.**  This module is the front door of
the synthesis pipeline: it takes the compiled time Petri net produced
by the block composer and searches its timed state space for a firing
sequence that reaches the desired final marking — that sequence *is*
the pre-runtime schedule the code generator turns into a C table.
Everything else in ``scheduler/`` supports this search: ``core.py``
holds the single engine-agnostic DFS loop and the three
:class:`~repro.scheduler.core.EngineAdapter` implementations,
``config.py`` the knobs, ``result.py`` the outcome/statistics
containers, ``policies.py`` the alternative candidate orderings,
``adaptive.py`` the portfolio-seeding statistics, and ``parallel.py``
races or partitions the search across worker processes.  Start reading
at :class:`repro.scheduler.core.SearchCore` (the loop) and
:meth:`repro.scheduler.core.KernelAdapter.candidates_of` (how one
state's successor choices are enumerated).

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
  Zobrist state key; with the optional compiled C core
  (:mod:`repro.tpn._kernelc`) built, the whole depth-first search runs
  in its native driver, otherwise the shared loop runs over a
  semantics-identical pure-Python core — the one production
  discrete engine;
* ``engine="reference"`` — the checked-semantics
  :class:`~repro.tpn.state.StateEngine` with dense O(|T|·|P|) rescans,
  kept as the kernel's executable spec and the baseline the benchmarks
  and the CI smoke job cross-validate against (identical schedules,
  identical state counts);
* ``engine="stateclass"`` — the dense-time
  :class:`~repro.tpn.stateclass.StateClassEngine`: states are
  Berthomieu–Diaz state classes (marking + difference-bound matrix),
  so every dense firing delay of a transition is one search edge
  instead of one edge per integer delay.  A feasible class path is
  *concretised* back to integer firing times and replayed through the
  checked reference engine before being returned — the same contract
  the parallel scheduler applies to worker wins.
"""

from __future__ import annotations

from repro.errors import InfeasibleScheduleError, SchedulingError
from repro.blocks.composer import ComposedModel
from repro.obs.events import JsonlSink, Recorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.progress import ProgressPrinter
from repro.scheduler.config import ENGINES, SchedulerConfig
from repro.scheduler.core import SearchCore, make_adapter
from repro.scheduler.policies import make_reorder
from repro.scheduler.result import SchedulerResult
from repro.tpn.kernel import KernelState
from repro.tpn.net import CompiledNet


class PreRuntimeScheduler:
    """Depth-first schedule synthesiser over a compiled net.

    A thin shell around :class:`repro.scheduler.core.SearchCore`: it
    validates the configuration, builds the engine adapter and the
    policy reorder function, and exposes the injection points the
    parallel scheduler's workers use (``tick``, ``shared_filter``,
    :meth:`search_from`).
    """

    def __init__(
        self,
        net: CompiledNet,
        config: SchedulerConfig | None = None,
        engine: str | None = None,
    ):
        self.net = net
        self.config = config or SchedulerConfig()
        if engine is None:
            engine = self.config.engine
        if engine not in ENGINES:
            raise SchedulingError(
                f"unknown engine {engine!r}; expected one of {ENGINES}"
            )
        if (
            engine == "stateclass"
            and self.config.delay_mode != "earliest"
        ):
            raise SchedulingError(
                "delay_mode has no effect on the dense-time state-class "
                "engine (the class graph covers every dense delay); "
                "keep the default 'earliest'"
            )
        self.engine_mode = engine
        self.adapter = make_adapter(engine, net, self.config)
        self._reorder = make_reorder(
            self.config.policy, net, self.config.policy_seed
        )
        # Injection points for the parallel scheduler's workers (all
        # no-ops for a plain serial search):
        #: cooperative callback, polled every 1024 expansions with the
        #: live counters; returning True aborts the search (used for
        #: first-win cancellation and shared state budgets).
        self.tick = None
        #: cross-process visited filter with an ``add(key) -> bool``
        #: protocol (False when the key was already present); states
        #: another worker claimed are skipped like local revisits.
        self.shared_filter = None
        #: work-stealing re-split hook: when set, the search core
        #: donates frontier prefixes back to the shared job queue
        #: whenever the hook reports other workers are starving (see
        #: :meth:`repro.scheduler.core.SearchCore._export_prefix`).
        self.resplit = None
        # Observability (repro.obs).  The metrics registry is always
        # on — a few dict writes per search, snapshotted onto
        # ``SchedulerResult.metrics``; portfolio workers swap in their
        # own registry so every worker's counters ship home.  The span
        # recorder and the progress heartbeat exist only when their
        # config knobs ask for them (otherwise the core's hot loop
        # never sees them).
        self.metrics = MetricsRegistry()
        if engine == "kernel":
            # which core the kernel engine resolved to (1.0 = compiled
            # C core, 0.0 = pure-Python fallback) — the CI pure
            # job and the benches read this off the result metrics
            self.metrics.set_gauge(
                "kernel.native_core",
                1.0 if self.adapter.engine.native else 0.0,
            )
        elif engine == "stateclass":
            # same contract for the packed DBM core
            self.metrics.set_gauge(
                "dbm.native_core",
                1.0 if self.adapter.engine.native else 0.0,
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
        return SearchCore(
            self.adapter,
            self.config,
            reorder=self._reorder,
            tick=self.tick,
            shared_filter=self.shared_filter,
            obs=self.obs,
            metrics=self.metrics,
            heartbeat=self.heartbeat,
            resplit=self.resplit,
        ).run()

    def search_from(self, root: KernelState, now: int) -> SchedulerResult:
        """Run the DFS from a subtree root instead of the initial state.

        Used by the work-stealing mode: ``root`` is a frontier state
        exported by :func:`repro.scheduler.parallel.split_frontier` and
        ``now`` the absolute time its prefix ends at, so the returned
        ``firing_schedule`` carries absolute times that concatenate
        directly onto the prefix.  Kernel engine only (the root is a
        :class:`KernelState`).
        """
        if self.engine_mode != "kernel":
            raise SchedulingError(
                "subtree search requires the kernel engine"
            )
        self.adapter.set_root(root, now)
        try:
            return self.search()
        finally:
            self.adapter.set_root(None, 0)


def search(
    net: CompiledNet,
    config: SchedulerConfig | None = None,
    engine: str | None = None,
    heartbeat=None,
) -> SchedulerResult:
    """Synthesise a schedule for a compiled net.

    Dispatches on ``config.parallel``: ``0``/``1`` run the serial DFS
    in-process, ``>= 2`` hand the net to the
    :class:`~repro.scheduler.parallel.ParallelScheduler` (portfolio
    racing or work-stealing subtree search across worker processes).
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
