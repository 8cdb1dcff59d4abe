"""Generic depth-first search core: one loop, one adapter per engine.

**Overview for new contributors.**  Before this module existed the
repository implemented the paper's pre-runtime search three times —
once per successor engine, each copy re-stating the tagging, deadline
pruning, budget/tick polling and policy reordering.  The duplication
is gone: :class:`SearchCore` is the *single* DFS loop, parameterized
over the :class:`EngineAdapter` protocol, and the three engines plug
in through thin adapters:

* :class:`KernelAdapter` — the packed-buffer kernel over
  :class:`~repro.tpn.kernel.KernelEngine` (flat ``array('H')``
  marking/clock state buffers, incremental 64-bit Zobrist state
  keys, and an optional compiled C core; when it is built the whole
  search runs in its native driver, see :meth:`SearchCore._drive` —
  by far the fastest engine);
* :class:`ReferenceAdapter` — the executable spec over the checked
  :class:`~repro.tpn.state.StateEngine` (dense O(|T|·|P|) rescans,
  dense candidate scans over all of T);
* :class:`StateClassAdapter` — the dense-time engine over the packed
  :class:`~repro.tpn.dbm.DbmEngine` (Berthomieu–Diaz classes on flat
  native-width buffers, optionally driven by a compiled C core;
  feasible paths are concretised back to integer time and replayed
  through the reference engine).

The split of responsibilities is strict: the adapter knows *states*
(how to compute a root, successors, candidates, and how to turn a
finished path into a schedule); the core knows *search* (the stack,
tagging, pruning, budgets, cooperative cancellation, the shared
visited filter and the policy reordering).  Orchestration layers —
the portfolio racer, the work-stealing partitioner, the batch engine —
treat every engine uniformly through this protocol, the way Real-Time
Maude and e-Motions keep one formal analysis core under several
modeling front-ends.

Behaviour-preserving parity is the refactor's contract: for every
engine the core produces the same verdicts, the same visited-state
counts and the same deterministic :class:`SearchStats` counters as the
three pre-refactor loops (pinned by ``tests/test_refactor_parity.py``
on the paper models and a seeded task-set grid, under both clock-reset
policies).
"""

from __future__ import annotations

import time
from typing import Protocol, runtime_checkable

from repro.errors import SchedulingError
from repro.obs.events import NULL_RECORDER
from repro.scheduler.result import SchedulerResult, SearchStats
from repro.tpn.interval import INF
from repro.tpn.kernel import (
    SEARCH_BUDGET,
    SEARCH_FEASIBLE,
    SEARCH_POLL,
    SEARCH_REORDER,
    KernelEngine,
    KernelState,
)
from repro.tpn.net import CompiledNet
from repro.tpn.dbm import DbmEngine, PackedClass
from repro.tpn.state import DISABLED, State, StateEngine
from repro.tpn.stateclass import realize_firing_sequence

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


class _DenseView:
    """Clock-vector facade handed to reorder policies by the dense DFS.

    Policies only read ``state.clocks``; a state class exposes a
    surrogate vector (see :meth:`StateClassAdapter.clocks_view`).
    """

    __slots__ = ("clocks",)

    def __init__(self, clocks: tuple[int, ...]):
        self.clocks = clocks


@runtime_checkable
class EngineAdapter(Protocol):
    """What :class:`SearchCore` needs from a successor engine.

    An adapter wraps one engine instance (plus the hoisted config and
    net vectors its candidate enumeration reads) and presents the
    uniform surface the shared DFS loop drives:

    * ``name`` — the engine's registry name (``"kernel"``,
      ``"reference"``, ``"stateclass"``);
    * ``engine`` — the wrapped engine instance (orchestration layers
      reach through for engine-specific plumbing such as
      :meth:`~repro.tpn.kernel.KernelEngine.revive`);
    * ``touches_miss`` / ``touches_final`` — the compiled
      marking-predicate skip masks (identical semantics for every
      adapter: a predicate can only change when the fired transition
      touches the relevant places, so skipping is exact, not a
      heuristic);
    * ``deadline_missed(marking)`` / ``reached_final(marking)`` — the
      compiled marking predicates themselves.

    States are opaque to the core; the only requirements are hashable
    identity (for the visited set) and a ``.marking`` attribute (for
    the two predicates).
    """

    name: str
    engine: object
    touches_miss: tuple[bool, ...]
    touches_final: tuple[bool, ...]

    def root(self) -> tuple[object, int]:
        """``(root state, absolute time at the root)``."""

    def successor(self, state, transition: int, delay: int):
        """The child state, or ``None`` for an inconsistent dead end
        (only the dense engine can produce one; the core counts it as
        a deadline prune rather than crashing a long search)."""

    def candidates_of(self, state, stats: SearchStats) -> list:
        """Ordered ``(transition, delay)`` pairs of a state, after the
        priority filter, the partial-order reduction (counted on
        ``stats.reductions``) and the delay-policy expansion."""

    def state_key(self, state) -> int:
        """64-bit compaction key for the cross-process visited filter
        (hash-compacted claims; full-equality tagging stays local)."""

    def clocks_view(self, state):
        """The object reorder policies read ``.clocks`` from."""

    def deadline_missed(self, marking) -> bool: ...

    def reached_final(self, marking) -> bool: ...

    def open_driver(self, root, now: int, reorder: bool, timed: bool):
        """A compiled driver that runs the whole search from ``root``
        (see :meth:`SearchCore._drive`), or ``None`` to run the
        Python loop."""

    def finalize_path(
        self, actions: list[tuple[int, int, int]], stats: SearchStats
    ) -> tuple[list[tuple[str, int, int]], list | None]:
        """Turn the accepting path into the result payload.

        ``actions`` are ``(transition, delay, absolute time)`` triples
        in firing order.  Returns ``(firing_schedule,
        interval_schedule)``; the dense adapter concretises the class
        path to integer time and replays it through the checked
        reference engine here, so a feasible dense verdict leaves the
        core already validated.
        """


# ----------------------------------------------------------------------
# Shared candidate machinery
# ----------------------------------------------------------------------
def forced_immediate(
    net: CompiledNet,
    cands: list[tuple[int, int]],
    clocks: tuple[int, ...],
) -> tuple[int, int] | None:
    """Partial-order reduction pick shared by both discrete adapters.

    A candidate may soundly be fired without branching when it is
    *structurally conflict-free* (every input place is consumed by this
    transition only, so its firing can never steal a token from any
    other transition — now or in the future) and it fires with zero
    delay, so no clock advances and every alternative stays fireable
    afterwards.  Three conditions make firing ``t`` alone sound:

    * ``t`` is *forced now*: its dynamic upper bound is zero, so
      strong semantics fires it at this very instant in every
      continuation — and the zero ceiling means every other candidate
      is also zero-delay, so no time passes either way;
    * ``t`` is structurally conflict-free, so no interleaving can
      disable it and it can disable nothing;
    * ``t``'s postset avoids the preset of every other currently
      enabled transition: producing into a place another enabled
      transition consumes from does not commute at the *clock* level.
      The boundary case is an instance completing exactly when the
      next one arrives — the arrival (producing the deadline-timer
      token) and the finish (consuming the old one) must be
      interleaved both ways, because only finish-then-arrival lets the
      deadline clock reset.  The check walks the precomputed (small)
      :attr:`CompiledNet.post_conflicts` set and reads enabledness
      straight off the clock vector.

    Earlier revisions also reduced merely-eager candidates under the
    earliest-delay policy; that loses real schedules (eagerly releasing
    a task forecloses interleavings where another task's arrival
    advances time first), so only forced firings reduce.
    """
    conflict_free = net.conflict_free
    post_conflicts = net.post_conflicts
    lft = net.lft
    for t, lower in cands:
        if lower != 0 or not conflict_free[t]:
            continue
        if lft[t] == INF or lft[t] - clocks[t] > 0:
            continue  # not forced at this instant
        for other in post_conflicts[t]:
            if clocks[other] >= 0:
                break  # an enabled transition consumes from t•
        else:
            return (t, 0)
    return None


def order_and_expand(
    cands: list[tuple[int, int]],
    ceiling: float,
    priorities: tuple[int, ...],
    delay_mode: str,
) -> list[tuple[int, int]]:
    """Delay-policy expansion + the ``(delay, priority, index)`` sort.

    ``"earliest"`` keeps each candidate at its lower bound; the
    enumeration modes add the window ceiling (``"extremes"``) or every
    integer delay up to it (``"full"``).  An unbounded ceiling always
    collapses to earliest-only (there is nothing finite to enumerate).
    """
    if delay_mode == "earliest" or ceiling == INF:
        if len(cands) == 1:
            return cands
        expanded = [(lower, priorities[t], t) for t, lower in cands]
        expanded.sort()
        return [(t, q) for q, _p, t in expanded]
    expanded = []
    for t, lower in cands:
        if delay_mode == "extremes":
            upper = int(ceiling)
            delays = (lower,) if upper == lower else (lower, upper)
        else:  # full
            delays = tuple(range(lower, int(ceiling) + 1))
        for q in delays:
            expanded.append((q, priorities[t], t))
    expanded.sort()
    return [(t, q) for q, _p, t in expanded]


class _AdapterBase:
    """Config/net knobs every adapter hoists once per search."""

    #: Span recorder for adapter-side phases (the state-class adapter's
    #: concretisation and reference replay).  The class default is the
    #: shared no-op recorder; the scheduler shell swaps in a live one
    #: when ``config.trace_jsonl`` is set.
    obs = NULL_RECORDER

    def __init__(self, net: CompiledNet, config):
        self.net = net
        self.config = config
        self._strict = config.priority_mode == "strict"
        self._delay_mode = config.delay_mode
        self._earliest = config.delay_mode == "earliest"
        self._partial_order = config.partial_order
        self._eft = net.eft
        self._lft = net.lft
        self._priority = net.priority
        self._miss = net.miss_transitions
        self.touches_miss = net.touches_miss
        self.touches_final = net.touches_final
        self.deadline_missed = net.has_missed_deadline
        self.reached_final = net.is_final

    def state_key(self, state) -> int:
        return hash(state)

    def clocks_view(self, state):
        return state

    def open_driver(self, root, now, reorder: bool, timed: bool):
        return None

    def finalize_path(self, actions, stats):
        names = self.net.transition_names
        return [(names[t], q, at) for t, q, at in actions], None


class KernelAdapter(_AdapterBase):
    """The packed-buffer kernel over :class:`KernelEngine`.

    States are two flat buffers plus an incremental 64-bit Zobrist
    key.  With the compiled core live, :meth:`open_driver` hands the
    whole search to the native driver (see :meth:`SearchCore._drive`)
    and the per-state methods below are not called at all; they are
    the pure-Python path :class:`SearchCore` runs over the pure
    engine — the driver's executable spec.  In earliest-delay searches
    the candidate pipeline (ceiling, window, strict filter,
    partial-order reduction, ordering) is one engine call; the
    delay-enumeration modes compose the raw window with the shared
    expansion helpers, using the engine's packed partial-order variant
    (the tuple-based :func:`forced_immediate` reads enabledness as
    ``clocks[t] >= 0`` and cannot run on the ``0xFFFF``-sentinel clock
    buffer).
    """

    name = "kernel"

    def __init__(self, net: CompiledNet, config):
        super().__init__(net, config)
        self.engine = KernelEngine(
            net, reset_policy=config.reset_policy
        )
        # bound method, not a wrapper: the core hoists it into a local
        self.successor = self.engine.successor
        self._root: KernelState | None = None
        self._root_now = 0

    def set_root(self, root: KernelState | None, now: int) -> None:
        """Inject a subtree root (work-stealing); ``None`` resets."""
        self._root = root
        self._root_now = now

    def root(self) -> tuple[KernelState, int]:
        self.obs.instant(
            "kernel-core",
            cat="kernel",
            native=self.engine.native,
        )
        if self._root is not None:
            return self._root, self._root_now
        return self.engine.initial(), 0

    def state_key(self, state: KernelState) -> int:
        return state._hash

    def open_driver(self, root, now, reorder: bool, timed: bool):
        return self.engine.open_search(
            root,
            now,
            strict=self._strict,
            partial_order=self._partial_order,
            delay_mode=self._delay_mode,
            policy=self.config.policy if reorder else "earliest",
            max_states=self.config.max_states,
            timed=timed,
        )

    def candidates_of(
        self, state: KernelState, stats: SearchStats
    ) -> list[tuple[int, int]]:
        if self._earliest:
            cands, reduced = self.engine.candidates(
                state, self._strict, self._partial_order
            )
            if reduced:
                stats.reductions += 1
            return cands
        ceiling, cands = self.engine.window(state)
        if not cands:
            return cands
        priorities = self._priority
        if self._strict:
            best = min(priorities[t] for t, _lo in cands)
            cands = [
                (t, lo) for t, lo in cands if priorities[t] == best
            ]
        if self._partial_order and len(cands) > 1:
            reduced = self.engine.forced_immediate(cands, state.clk)
            if reduced is not None:
                stats.reductions += 1
                cands = [reduced]
        return order_and_expand(
            cands, ceiling, priorities, self._delay_mode
        )

    def clocks_view(self, state: KernelState):
        return _DenseView(state.clocks_tuple())


class ReferenceAdapter(_AdapterBase):
    """The executable spec and baseline over the checked :class:`StateEngine`.

    Candidate enumeration is deliberately kept as two dense passes
    over the whole transition set per expansion, and successors pay
    the engine's dense O(|T|·|P|) firing rule — this is the honest
    baseline the kernel bench measures the kernel against, and the
    fixed point the equivalence suites compare to.  It shares the
    core's loop mechanics (slotted frames, marking-predicate skip
    masks), so the engines differ only in their cost model and the
    speedup the bench reports is the successor/candidate asymptotics,
    not incidental loop-body differences.
    """

    name = "reference"

    def __init__(self, net: CompiledNet, config):
        super().__init__(net, config)
        self.engine = StateEngine(
            net, reset_policy=config.reset_policy
        )
        self.successor = self.engine._fire_unchecked

    def root(self) -> tuple[State, int]:
        return self.engine.initial_state(), 0

    def candidates_of(
        self, state: State, stats: SearchStats
    ) -> list[tuple[int, int]]:
        """Reference candidate enumeration: dense scans over all of T."""
        eft = self._eft
        lft = self._lft
        clocks = state.clocks

        ceiling = INF
        for t, clock in enumerate(clocks):
            if clock == DISABLED or lft[t] == INF:
                continue
            bound = lft[t] - clock
            if bound < ceiling:
                ceiling = bound

        miss = self._miss
        cands: list[tuple[int, int]] = []
        for t, clock in enumerate(clocks):
            if clock == DISABLED or t in miss:
                continue
            lower = eft[t] - clock
            if lower < 0:
                lower = 0
            if lower <= ceiling:
                cands.append((t, lower))
        if not cands:
            return []

        priorities = self._priority
        if self._strict:
            best = min(priorities[t] for t, _lo in cands)
            cands = [
                (t, lo) for t, lo in cands if priorities[t] == best
            ]
        if self._partial_order and len(cands) > 1:
            reduced = forced_immediate(self.net, cands, clocks)
            if reduced is not None:
                stats.reductions += 1
                cands = [reduced]
        return order_and_expand(
            cands, ceiling, priorities, self._delay_mode
        )


class StateClassAdapter(_AdapterBase):
    """The dense-time engine over the packed :class:`DbmEngine`.

    A state is a Berthomieu–Diaz class, so one search edge covers
    *every* dense firing delay of a transition; candidate delays are
    the dense lower bounds (used for ordering only).  Classes are
    packed flat buffers with precomputed fused Zobrist keys
    (:class:`repro.tpn.dbm.PackedClass`); the whole firing rule and
    the whole candidate pipeline — firability column scans, miss and
    strict-priority filters, the dense forced-immediate reduction and
    the ``(lower, priority, index)`` ordering — are one engine call
    each, a single foreign call when the compiled DBM core is live.
    The tuple-based :class:`StateClassEngine` remains the checked
    Floyd–Warshall specification the packed engine is differentially
    tested against.

    A feasible class path is concretised back to integer firing times
    and replayed through the checked reference engine in
    :meth:`finalize_path` — the same contract the parallel scheduler
    applies to worker wins — so the result is verdict-equivalent to
    the discrete engines by construction.
    """

    name = "stateclass"

    def __init__(self, net: CompiledNet, config):
        super().__init__(net, config)
        self.engine = DbmEngine(
            net, reset_policy=config.reset_policy
        )

    def root(self) -> tuple[PackedClass, int]:
        self.obs.instant(
            "dbm-core",
            cat="stateclass",
            native=self.engine.native,
        )
        return self.engine.initial_class(), 0

    def state_key(self, cls: PackedClass) -> int:
        return cls._hash

    def successor(
        self, cls: PackedClass, transition: int, _delay: int
    ) -> PackedClass | None:
        # candidates are pre-checked firable; an inconsistent
        # successor would mean a DBM bug, but the core treats the
        # ``None`` as a dead end rather than crashing a long search
        return self.engine.try_fire(cls, transition)

    def candidates_of(
        self, cls: PackedClass, stats: SearchStats
    ) -> list[tuple[int, int]]:
        """Ordered ``(transition, dense lower bound)`` pairs of a class.

        Firability and windows read straight off the canonical DBM;
        deadline-miss transitions are never scheduled, but their LFT
        rows still cap every window, so a forced miss empties the
        candidate list and the branch dead-ends exactly like the
        discrete engines.  Ordering matches the discrete candidate
        rule: ``(lower bound, priority, index)``.  The whole pipeline
        (including the dense forced-immediate partial-order pick)
        runs inside :meth:`repro.tpn.dbm.DbmEngine.candidates`.
        """
        cands, reduced = self.engine.candidates(
            cls, self._strict, self._partial_order
        )
        if reduced:
            stats.reductions += 1
        return cands

    def clocks_view(self, cls: PackedClass) -> _DenseView:
        """Surrogate clock vector of a class for the reorder policies.

        Reorder policies read ``state.clocks`` (min-laxity keys off
        the deadline timer's remaining time).  A class has no single
        clock valuation, but ``EFT(t) − lower(θ_t)`` is the time ``t``
        has provably been enabled, which is exactly the clock the
        policies want; disabled transitions keep the :data:`DISABLED`
        marker.
        """
        clocks = [DISABLED] * self.net.num_transitions
        eft = self._eft
        dbm = cls.dbm
        for var, t in enumerate(cls.enabled, start=1):
            elapsed = eft[t] + dbm[var]  # eft − lower bound
            clocks[t] = elapsed if elapsed > 0 else 0
        return _DenseView(tuple(clocks))

    def finalize_path(self, actions, stats):
        sequence = [t for t, _q, _at in actions]
        with self.obs.span("concretisation", cat="stateclass"):
            realized = realize_firing_sequence(
                self.net, sequence, self.config.reset_policy
            )
        # same reference-replay gate the parallel scheduler applies to
        # worker wins (deferred import: parallel imports the scheduler
        # stack for its workers)
        from repro.scheduler.parallel import validate_with_reference

        with self.obs.span("reference-replay", cat="validate"):
            validate_with_reference(
                self.net, self.config, realized.schedule
            )
        return realized.schedule, realized.windows


#: Adapter registry, keyed by the engine names of
#: :data:`repro.scheduler.config.ENGINES`.
ADAPTERS = {
    "kernel": KernelAdapter,
    "reference": ReferenceAdapter,
    "stateclass": StateClassAdapter,
}


def make_adapter(engine: str, net: CompiledNet, config) -> EngineAdapter:
    """Build the adapter for ``engine`` over ``net``."""
    try:
        factory = ADAPTERS[engine]
    except KeyError:
        raise SchedulingError(
            f"unknown engine {engine!r}; expected one of "
            f"{tuple(ADAPTERS)}"
        ) from None
    return factory(net, config)


# ----------------------------------------------------------------------
# The shared loop
# ----------------------------------------------------------------------
class SearchCore:
    """The depth-first search, engine-agnostic.

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

    Two injection points serve the parallel scheduler's workers (both
    no-ops for a plain serial search): ``tick`` is a cooperative
    callback polled every 1024 expansions with the live counters plus
    the current stack depth (returning True aborts the search —
    first-win cancellation, shared state budgets), and
    ``shared_filter`` is a cross-process visited filter with an
    ``add(key) -> bool`` protocol (False when the key was already
    present); states another worker claimed are skipped like local
    revisits.

    Three more injection points serve :mod:`repro.obs` (all ``None``
    by default, costing the loop nothing): ``obs`` is a span recorder —
    when enabled, the hoisted successor/candidate locals are wrapped in
    nanosecond-accumulating closures and emitted as aggregate child
    spans of the ``search`` span at exit; ``metrics`` is a registry
    whose snapshot lands on ``SchedulerResult.metrics``; ``heartbeat``
    is a progress callback sharing ``tick``'s 1024-expansion poll.
    The registry alone never turns polling on — the ``search.max_depth``
    gauge is sampled at the poll cadence, so it is recorded only when
    a deadline, tick or heartbeat already pays for the poll.
    """

    def __init__(
        self,
        adapter: EngineAdapter,
        config,
        reorder=None,
        tick=None,
        shared_filter=None,
        obs=None,
        metrics=None,
        heartbeat=None,
        resplit=None,
    ):
        self.adapter = adapter
        self.config = config
        self.reorder = reorder
        self.tick = tick
        self.shared_filter = shared_filter
        self.obs = obs
        self.metrics = metrics
        self.heartbeat = heartbeat
        #: work-stealing re-split hook (None for serial searches): an
        #: object with ``wants_export(n_visited) -> bool`` and
        #: ``export([(state, now, actions), ...])`` plus a
        #: ``max_export`` bound.  Polled at the 1024-expansion cadence;
        #: when it asks, a prefix of the *shallowest* open frame's
        #: remaining candidates is handed back to the shared job queue
        #: instead of being searched locally (see ``_export_prefix``).
        self.resplit = resplit

    def run(self) -> SchedulerResult:
        result = self._run()
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

    def _export_prefix(
        self, stack, visited, shared_add, state_key
    ) -> tuple[int, int, int]:
        """Hand a prefix of the DFS frontier back to the job queue.

        Cold path of the work-stealing re-split: when one subtree
        dwarfs the rest and other workers are starving, the *shallowest*
        stack frame with unexpanded candidates donates up to
        ``resplit.max_export`` of them as fresh jobs.  Donated children
        go through exactly the successor/prune/revisit pipeline of the
        hot loop — including the shared-filter claim, so at most one
        worker ever searches a donated subtree (modulo the filter's
        usual lock-free race, which only ever duplicates work) — and
        the frame's index advances past them, so this worker never
        expands them again.  A donated child that already reaches the
        final marking is *not* exported: the export stops and the
        frame index stays put, so this worker's own DFS reaches the
        win through the normal code path.

        Returns ``(generated, prunes, revisits)`` deltas so the
        caller's counters stay truthful.
        """
        adapter = self.adapter
        resplit = self.resplit
        successor = adapter.successor
        touches_miss = adapter.touches_miss
        touches_final = adapter.touches_final
        has_missed = adapter.deadline_missed
        is_final = adapter.reached_final
        generated = prunes = revisits = 0
        exported: list[tuple] = []
        for depth, frame in enumerate(stack):
            candidates = frame.candidates
            if frame.index >= len(candidates):
                continue
            actions = [
                f.action
                for f in stack[1 : depth + 1]
                if f.action is not None
            ]
            now = frame.now
            while (
                frame.index < len(candidates)
                and len(exported) < resplit.max_export
            ):
                transition, delay = candidates[frame.index]
                generated += 1
                child = successor(frame.state, transition, delay)
                if child is None or (
                    touches_miss[transition]
                    and has_missed(child.marking)
                ):
                    frame.index += 1
                    prunes += 1
                    continue
                if touches_final[transition] and is_final(
                    child.marking
                ):
                    # one step from a win: keep it local (index not
                    # advanced), the hot loop takes it from here
                    generated -= 1
                    break
                if child in visited or (
                    shared_add is not None
                    and not shared_add(state_key(child))
                ):
                    frame.index += 1
                    revisits += 1
                    continue
                frame.index += 1
                exported.append(
                    (
                        child,
                        now + delay,
                        actions + [(transition, delay, now + delay)],
                    )
                )
            break  # only the shallowest open frame donates
        if exported:
            resplit.export(exported)
        return generated, prunes, revisits

    def _drive(
        self, driver, stats, started, deadline, trace_t0, span_acc
    ) -> SchedulerResult:
        """:meth:`_run`'s loop, run by a compiled driver.

        The driver (:meth:`KernelAdapter.open_driver`) owns the stack,
        the visited states and every per-expansion step; Python runs
        only what :meth:`_run` runs at the same points:

        * at every 1024-expansion poll, the depth sample, heartbeat,
          ``max_seconds`` check and ``tick`` — only when one of them
          asked for polling, but the driver yields there regardless,
          so signal handlers (Ctrl-C) run within one poll interval;
        * on each new frame with more than one candidate, a reorder
          policy the driver cannot apply itself (``random``; it orders
          ``latest`` and ``min-laxity`` natively);
        * on a win, :meth:`EngineAdapter.finalize_path`.

        Verdicts, schedules, every :class:`SearchStats` counter and
        the tick/heartbeat arguments equal :meth:`_run`'s over the
        pure engine (``tests/test_kernel_driver.py``).  The driver's
        memory is freed on every exit path; its size lands on the
        ``search.visited_bytes`` / ``search.bytes_per_state`` gauges.
        """
        reorder = self.reorder
        tick = self.tick
        heartbeat = self.heartbeat
        metrics = self.metrics
        record = span_acc is not None
        clock_ns = time.monotonic_ns
        monotonic = time.monotonic
        polled = (
            deadline is not None or tick is not None or heartbeat is not None
        )
        counters = driver.counters
        max_depth = 1
        reorder_ns = 0
        exhausted = False
        try:
            while True:
                status = driver.run()
                if status == SEARCH_POLL:
                    if not polled:
                        continue
                    depth = counters.depth
                    if depth > max_depth:
                        max_depth = depth
                    if heartbeat is not None:
                        heartbeat(
                            counters.visited, counters.generated, depth
                        )
                    if deadline is not None and monotonic() > deadline:
                        exhausted = True
                        break
                    if tick is not None and tick(
                        counters.visited,
                        counters.generated,
                        counters.revisits,
                        counters.prunes,
                        counters.backtracks,
                        depth,
                    ):
                        exhausted = True
                        break
                elif status == SEARCH_REORDER:
                    t0 = clock_ns() if record else 0
                    driver.reorder(reorder)
                    if record:
                        reorder_ns += clock_ns() - t0
                elif status == SEARCH_FEASIBLE:
                    stats.elapsed_seconds = monotonic() - started
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
        finally:
            driver.close()
            stats.states_visited = counters.visited
            stats.states_generated = counters.generated
            stats.revisits_skipped = counters.revisits
            stats.deadline_prunes = counters.prunes
            stats.backtracks = counters.backtracks
            stats.reductions = counters.reductions
            if metrics is not None:
                if polled:
                    metrics.max_gauge("search.max_depth", max_depth)
                visited_bytes = counters.visited_bytes
                metrics.max_gauge("search.visited_bytes", visited_bytes)
                metrics.max_gauge(
                    "search.bytes_per_state",
                    visited_bytes / max(1, counters.visited),
                )
            if record:
                span_acc["succ"] = [counters.succ_ns, counters.succ_calls]
                span_acc["cand"] = [
                    counters.cand_ns + reorder_ns,
                    counters.cand_calls,
                ]
                self._emit_spans(trace_t0, span_acc, stats)

        stats.elapsed_seconds = time.monotonic() - started
        return SchedulerResult(
            feasible=False,
            stats=stats,
            config=self.config,
            exhausted=exhausted,
        )

    def _run(self) -> SchedulerResult:
        adapter = self.adapter
        config = self.config
        stats = SearchStats()
        started = time.monotonic()
        obs = self.obs
        record = obs is not None and obs.enabled
        span_acc = None
        trace_t0 = 0
        if record:
            trace_t0 = obs.now_ns()
            span_acc = {"succ": [0, 0], "cand": [0, 0]}
        deadline = (
            None
            if config.max_seconds is None
            else started + config.max_seconds
        )

        s0, now0 = adapter.root()
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

        if self.shared_filter is None and self.resplit is None:
            driver = adapter.open_driver(
                s0, now0, self.reorder is not None, record
            )
            if driver is not None:
                return self._drive(
                    driver, stats, started, deadline, trace_t0, span_acc
                )

        candidates_of = adapter.candidates_of
        reorder = self.reorder
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
            _Frame(s0, now0, candidates_of(s0, stats))
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
        state_key = adapter.state_key
        max_states = config.max_states
        monotonic = time.monotonic
        visited_add = visited.add
        tick = self.tick
        shared = self.shared_filter
        shared_add = None if shared is None else shared.add
        heartbeat = self.heartbeat
        metrics = self.metrics
        max_depth = 1
        # the metrics registry alone never turns polling on: the bare
        # hot loop and the registry-only default path run the same
        # per-expansion bytecode (the <2% gate in bench_obs_overhead)
        resplit = self.resplit
        polled = (
            deadline is not None
            or tick is not None
            or heartbeat is not None
            or resplit is not None
        )
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
                if polled and not n_generated & _TIME_CHECK_MASK:
                    depth = len(stack)
                    if depth > max_depth:
                        max_depth = depth
                    if heartbeat is not None:
                        heartbeat(n_visited, n_generated, depth)
                    if deadline is not None and monotonic() > deadline:
                        exhausted = True
                        break
                    if tick is not None and tick(
                        n_visited,
                        n_generated,
                        n_revisits,
                        n_prunes,
                        n_backtracks,
                        depth,
                    ):
                        exhausted = True
                        break
                    if resplit is not None and resplit.wants_export(
                        n_visited
                    ):
                        d_gen, d_prune, d_revisit = (
                            self._export_prefix(
                                stack, visited, shared_add, state_key
                            )
                        )
                        n_generated += d_gen
                        n_prunes += d_prune
                        n_revisits += d_revisit

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
                if shared_add is not None and not shared_add(
                    state_key(child)
                ):
                    # another worker already claimed (and will fully
                    # explore) this state
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
                    stats.elapsed_seconds = monotonic() - started
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
            if metrics is not None and polled:
                # depth is sampled at the poll cadence; without a
                # poller nothing was sampled, so record no gauge
                metrics.max_gauge("search.max_depth", max_depth)
            if record:
                self._emit_spans(trace_t0, span_acc, stats)

        stats.elapsed_seconds = time.monotonic() - started
        return SchedulerResult(
            feasible=False,
            stats=stats,
            config=config,
            exhausted=exhausted,
        )
