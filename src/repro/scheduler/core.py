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
  marking/clock state buffers and incremental 64-bit Zobrist state
  keys — by far the fastest engine);
* :class:`ReferenceAdapter` — the kernel's executable spec over the
  checked :class:`~repro.tpn.state.StateEngine` (dense O(|T|·|P|)
  rescans, dense candidate scans over all of T);
* :class:`StateClassAdapter` — the dense-time engine over the packed
  :class:`~repro.tpn.dbm.DbmEngine` (Berthomieu–Diaz classes on flat
  native-width buffers; feasible paths are concretised back to
  integer time and replayed through the reference engine);
* :class:`StateClassSpecAdapter` — its executable spec over the tuple
  :class:`~repro.tpn.stateclass.StateClassEngine` (full Floyd–Warshall
  re-closure per firing).

Each time semantics thus has two implementations: the optional native
core (:mod:`repro.tpn._native`, one cffi extension), which runs the
whole search of both packed engines in its one C driver — this
module's loop parameterised by a per-engine operations table instead
of an adapter (see :meth:`SearchCore._drive`) — and the executable
spec, which :class:`SearchCore`'s own loop runs.  When the core cannot
run a net, :func:`make_adapter` hands ``engine="kernel"`` and
``engine="stateclass"`` to their specs.

The split of responsibilities is strict: the adapter knows *states*
(how to compute a root, and how to turn a finished path into a
schedule); the core knows *search* (the stack, tagging, pruning,
budgets, cooperative cancellation and the policy reordering).  Each
engine runs one way: a :class:`NativeAdapter` (the two packed engines)
only opens the compiled driver, and only a :class:`SpecAdapter` (the
two specs) has the per-step surface — successors and candidates —
that :class:`SearchCore`'s own loop steps.  Orchestration layers — the
portfolio racer, the batch engine — treat every engine uniformly
through the common :class:`EngineAdapter` surface, the way Real-Time
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
from typing import TYPE_CHECKING, Protocol, runtime_checkable

from repro.errors import SchedulingError
from repro.obs.events import NULL_RECORDER
from repro.scheduler.config import SchedulerConfig
from repro.scheduler.result import SchedulerResult, SearchStats
from repro.tpn.interval import INF
from repro.tpn._native import (
    SEARCH_BUDGET,
    SEARCH_FEASIBLE,
    SEARCH_POLL,
    SEARCH_REORDER,
    NativeNet,
    NativeSearch,
    core_for,
    replay as native_replay,
)
from repro.tpn.kernel import KernelEngine, KernelState
from repro.tpn.net import CompiledNet
from repro.tpn.state import DISABLED, State, StateEngine

if TYPE_CHECKING:
    from repro.tpn.dbm import PackedClass
    from repro.tpn.stateclass import StateClass

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
    surrogate vector (see :meth:`StateClassSpecAdapter.clocks_view`).
    """

    __slots__ = ("clocks",)

    def __init__(self, clocks: tuple[int, ...]):
        self.clocks = clocks


@runtime_checkable
class EngineAdapter(Protocol):
    """What :class:`SearchCore` needs from every engine.

    An adapter wraps one engine instance (plus the hoisted config and
    net vectors its candidate enumeration reads) and presents the
    surface both search paths share:

    * ``name`` — the engine's registry name (``"kernel"``,
      ``"reference"``, ``"stateclass"``);
    * ``engine`` — the wrapped engine instance;
    * ``native`` — whether the native driver runs the search (the
      adapter is then a :class:`NativeAdapter`, otherwise a
      :class:`SpecAdapter`; the scheduler shell reports it on the
      ``*.native_core`` gauges);
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
    native: bool
    touches_miss: tuple[bool, ...]
    touches_final: tuple[bool, ...]

    def root(self):
        """The root state (the search starts at time 0)."""

    def deadline_missed(self, marking) -> bool: ...

    def reached_final(self, marking) -> bool: ...

    def finalize_path(
        self, actions: list[tuple[int, int, int]], stats: SearchStats
    ) -> tuple[list[tuple[str, int, int]], list | None]:
        """Turn the accepting path into the result payload.

        ``actions`` are ``(transition, delay, absolute time)`` triples
        in firing order.  Returns ``(firing_schedule,
        interval_schedule)``; the dense adapters concretise the class
        path to integer time and replay it through the checked
        reference engine here, so a feasible dense verdict leaves the
        core already validated.
        """


@runtime_checkable
class NativeAdapter(EngineAdapter, Protocol):
    """A packed engine's adapter: it roots the search and hands the
    rest to the native core's compiled driver (:meth:`SearchCore._drive`).
    It has no per-step surface."""

    def open_driver(
        self, root, reorder: bool, timed: bool
    ) -> NativeSearch:
        """The driver that runs the whole search from ``root``."""


@runtime_checkable
class SpecAdapter(EngineAdapter, Protocol):
    """An executable spec's adapter, stepped state by state by
    :class:`SearchCore`'s own loop."""

    def successor(self, state, transition: int, delay: int):
        """The child state, or ``None`` for an inconsistent dead end
        (only the dense engine can produce one; the core counts it as
        a deadline prune rather than crashing a long search)."""

    def candidates_of(self, state, stats: SearchStats) -> list:
        """Ordered ``(transition, delay)`` pairs of a state, after the
        priority filter, the partial-order reduction (counted on
        ``stats.reductions``) and the delay-policy expansion."""

    def clocks_view(self, state):
        """The object reorder policies read ``.clocks`` from."""


# ----------------------------------------------------------------------
# The reference adapter's candidate machinery (the spec of kn_candidates)
# ----------------------------------------------------------------------
def forced_immediate(
    net: CompiledNet,
    cands: list[tuple[int, int]],
    clocks: tuple[int, ...],
) -> tuple[int, int] | None:
    """The reference adapter's partial-order reduction pick.

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

    #: Whether the native driver runs the search (a
    #: :class:`NativeAdapter`); otherwise :class:`SearchCore`'s own
    #: loop steps the adapter (a :class:`SpecAdapter`).
    native = False

    def __init__(self, net: CompiledNet, config):
        self.net = net
        self.config = config
        self._strict = config.priority_mode == "strict"
        self._delay_mode = config.delay_mode
        self._partial_order = config.partial_order
        self._eft = net.eft
        self._lft = net.lft
        self._priority = net.priority
        self._miss = net.miss_transitions
        self.touches_miss = net.touches_miss
        self.touches_final = net.touches_final
        self.deadline_missed = net.has_missed_deadline
        self.reached_final = net.is_final

    def finalize_path(self, actions, stats):
        names = self.net.transition_names
        return [(names[t], q, at) for t, q, at in actions], None

    def _filter_and_order(
        self, state, cands, ceiling, stats: SearchStats
    ) -> list[tuple[int, int]]:
        """The spec adapters' shared candidate tail on a non-empty
        window: the strict priority filter, the engine's forced pick
        (:meth:`_forced_pick`, counted on ``stats.reductions``), then
        :func:`order_and_expand` against ``ceiling``."""
        priorities = self._priority
        if self._strict:
            best = min(priorities[t] for t, _lo in cands)
            cands = [
                (t, lo) for t, lo in cands if priorities[t] == best
            ]
        if self._partial_order and len(cands) > 1:
            reduced = self._forced_pick(state, cands)
            if reduced is not None:
                stats.reductions += 1
                cands = [reduced]
        return order_and_expand(
            cands, ceiling, priorities, self._delay_mode
        )


class KernelAdapter(_AdapterBase):
    """The packed-buffer kernel over :class:`KernelEngine`.

    States are two flat buffers plus an incremental 64-bit Zobrist
    key.  The adapter builds the root; :meth:`open_driver` hands the
    whole search to the native driver (see :meth:`SearchCore._drive`).
    The driver's step and candidate pipeline are also reachable one
    call at a time through :meth:`KernelEngine.successor` and
    :meth:`KernelEngine.candidates`, which the tests check against the
    spec state by state.  Without the native core
    :func:`make_adapter` builds a :class:`ReferenceAdapter` instead.
    """

    name = "kernel"
    native = True

    def __init__(self, net: CompiledNet, config):
        super().__init__(net, config)
        self.engine = KernelEngine(
            net, reset_policy=config.reset_policy
        )

    def root(self) -> KernelState:
        return self.engine.initial()

    def open_driver(
        self, root: KernelState, reorder: bool, timed: bool
    ) -> NativeSearch:
        return self.engine.open_search(
            root,
            strict=self._strict,
            partial_order=self._partial_order,
            delay_mode=self._delay_mode,
            policy=self.config.policy if reorder else "earliest",
            max_states=self.config.max_states,
            timed=timed,
        )


class ReferenceAdapter(_AdapterBase):
    """The executable spec and baseline over the checked :class:`StateEngine`.

    It runs ``engine="reference"``, and ``engine="kernel"`` whenever
    the native core cannot run the net.  Candidate enumeration is
    deliberately kept as two dense passes over the whole transition
    set per expansion, and successors pay the engine's dense
    O(|T|·|P|) firing rule — this is the honest
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

    def root(self) -> State:
        return self.engine.initial_state()

    def clocks_view(self, state: State) -> State:
        return state

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
        return self._filter_and_order(state, cands, ceiling, stats)

    def _forced_pick(
        self, state: State, cands: list[tuple[int, int]]
    ) -> tuple[int, int] | None:
        return forced_immediate(self.net, cands, state.clocks)


class StateClassAdapter(_AdapterBase):
    """The dense-time engine over the packed :class:`DbmEngine`.

    A state is a Berthomieu–Diaz class, so one search edge covers
    *every* dense firing delay of a transition; candidate delays are
    the dense lower bounds (used for ordering only).  Classes are
    packed flat buffers with precomputed 64-bit keys
    (:class:`repro.tpn.dbm.PackedClass`).  The adapter builds the
    root; :meth:`open_driver` hands the whole search to the native
    driver (see :meth:`SearchCore._drive`), whose firing rule and
    candidate pipeline — firability column scans, miss and
    strict-priority filters, the dense forced-immediate reduction and
    the ``(lower, priority, index)`` ordering — the tests also reach
    one call at a time through :meth:`~repro.tpn.dbm.DbmEngine.try_fire`
    and :meth:`~repro.tpn.dbm.DbmEngine.candidates`.  Without the
    native core :func:`make_adapter` builds a
    :class:`StateClassSpecAdapter` instead, over the tuple-based
    Floyd–Warshall specification the packed engine is differentially
    tested against.

    A feasible class path is concretised back to integer firing times
    and replayed through the checked reference engine in
    :meth:`finalize_path` — the same contract the parallel scheduler
    applies to worker wins — so the result is verdict-equivalent to
    the discrete engines by construction.
    """

    name = "stateclass"
    native = True

    def __init__(self, net: CompiledNet, config):
        # the dense engine loads only when a state-class search runs
        from repro.tpn.dbm import DbmEngine

        super().__init__(net, config)
        self.engine = DbmEngine(
            net, reset_policy=config.reset_policy
        )

    def root(self) -> PackedClass:
        return self.engine.initial_class()

    def open_driver(
        self, root: PackedClass, reorder: bool, timed: bool
    ) -> NativeSearch:
        return self.engine.open_search(
            root,
            strict=self._strict,
            partial_order=self._partial_order,
            policy=self.config.policy if reorder else "earliest",
            max_states=self.config.max_states,
            timed=timed,
        )

    def finalize_path(self, actions, stats):
        # the replay reads the net the search already packed
        return _finish_dense(
            self, self.engine.realize, actions, self.engine.core
        )


class StateClassSpecAdapter(_AdapterBase):
    """The dense search's executable spec over the tuple
    :class:`~repro.tpn.stateclass.StateClassEngine`.

    It runs ``engine="stateclass"`` whenever the native core cannot
    run the net: tuple-of-tuples classes (full Floyd–Warshall
    re-closure per firing), Python column scans and filters per
    candidate list.  Same verdicts, schedules, windows and
    :class:`SearchStats` counters as the native driver
    (``tests/test_dbm_driver.py``); ``bench_dbm`` measures the packed
    engine against it.
    """

    name = "stateclass"

    def __init__(self, net: CompiledNet, config):
        # the tuple engine loads only when a spec dense search runs
        from repro.tpn.stateclass import StateClassEngine

        super().__init__(net, config)
        self.engine = StateClassEngine(
            net, reset_policy=config.reset_policy
        )

    def root(self) -> StateClass:
        return self.engine.initial_class()

    def successor(
        self, cls: StateClass, transition: int, _delay: int
    ) -> StateClass | None:
        return self.engine.try_fire(cls, transition)

    def candidates_of(
        self, cls: StateClass, stats: SearchStats
    ) -> list[tuple[int, int]]:
        """Ordered ``(transition, dense lower bound)`` pairs of a class.

        Firability and windows read straight off the canonical DBM;
        deadline-miss transitions are never scheduled, but their LFT
        rows still cap every window, so a forced miss empties the
        candidate list and the branch dead-ends exactly like the
        discrete engines.  Ordering matches the discrete candidate
        rule: ``(lower bound, priority, index)``.  The native driver
        runs the same pipeline in C (``dc_candidates``).
        """
        miss = self._miss
        dbm = cls.dbm
        size = len(cls.enabled) + 1
        cands: list[tuple[int, int]] = []
        for var, t in enumerate(cls.enabled, start=1):
            if t in miss:
                continue
            for u in range(1, size):
                if dbm[u][var] < 0:
                    break
            else:
                cands.append((t, int(-dbm[0][var])))
        if not cands:
            return cands
        # a class has no discrete delays to expand: an unbounded
        # ceiling orders the dense lower bounds, earliest-only
        return self._filter_and_order(cls, cands, INF, stats)

    def _forced_pick(
        self, cls: StateClass, cands: list[tuple[int, int]]
    ) -> tuple[int, int] | None:
        """The dense partial-order pick: a conflict-free candidate
        whose own firing bounds are exactly ``[0, 0]`` and whose
        postset feeds no enabled transition fires alone."""
        net = self.net
        conflict_free = net.conflict_free
        post_conflicts = net.post_conflicts
        enabled = set(cls.enabled)
        dbm = cls.dbm
        for t, lower in cands:
            if lower != 0 or not conflict_free[t]:
                continue
            var = cls.enabled.index(t) + 1
            if dbm[var][0] != 0:
                continue  # not forced at this instant
            for other in post_conflicts[t]:
                if other in enabled:
                    break  # an enabled transition consumes from t•
            else:
                return (t, 0)
        return None

    def clocks_view(self, cls: StateClass) -> _DenseView:
        """Surrogate clock vector of a class for the reorder policies.

        Reorder policies read ``state.clocks`` (min-laxity keys off
        the deadline timer's remaining time).  A class has no single
        clock valuation, but ``EFT(t) − lower(θ_t)`` is the time ``t``
        has provably been enabled, which is exactly the clock the
        policies want; disabled transitions keep the :data:`DISABLED`
        marker.  The native driver's min-laxity key reads the same
        clock (``dc_op_laxity``).
        """
        clocks = [DISABLED] * self.net.num_transitions
        eft = self._eft
        row0 = cls.dbm[0]
        for var, t in enumerate(cls.enabled, start=1):
            elapsed = eft[t] + int(row0[var])  # eft − lower bound
            clocks[t] = elapsed if elapsed > 0 else 0
        return _DenseView(tuple(clocks))

    def finalize_path(self, actions, stats):
        from repro.tpn.stateclass import realize_firing_sequence

        def realize(sequence):
            return realize_firing_sequence(
                self.net, sequence, self.config.reset_policy
            )

        return _finish_dense(self, realize, actions)


def _finish_dense(adapter, realize, actions, packed=None):
    """Concretise an accepting class path with ``realize`` and replay
    the schedule through the reference semantics — the same gate the
    parallel scheduler applies to worker wins.  Returns
    ``(firing_schedule, interval_schedule)``."""
    sequence = [t for t, _q, _at in actions]
    with adapter.obs.span("concretisation", cat="stateclass"):
        realized = realize(sequence)
    with adapter.obs.span("reference-replay", cat="validate"):
        validate_with_reference(
            adapter.net, adapter.config, realized.schedule, packed
        )
    return realized.schedule, realized.windows


def validate_with_reference(
    net: CompiledNet,
    config: SchedulerConfig,
    schedule: list[tuple[str, int, int]],
    packed: NativeNet | None = None,
) -> None:
    """Replay a firing schedule through the checked reference engine.

    Every firing is validated against Definition 3.1 (enabledness,
    admissible delay window under strong semantics) by
    :meth:`StateEngine.fire`, and the final marking must satisfy
    ``M_F``.  Raises :class:`SchedulingError` when the schedule is not
    a legal feasible run — which would mean the producing search (a
    parallel worker, or the dense state-class concretisation, which
    shares this gate) returned garbage, so the error is loud rather
    than folded into a verdict.

    With the native core live the replay runs as one ``ez_replay``
    call (:func:`repro.tpn._native.replay`), on ``packed`` — the net's
    :class:`~repro.tpn._native.NativeNet` — when the caller already
    holds one.  When that rejects, the Python replay runs to raise its
    own message; should it accept, the two replays disagree and that
    raises instead.
    """
    verdict = native_replay(
        net, config.reset_policy == "intermediate", schedule, packed
    )
    if verdict:
        return
    _replay_with_reference(net, config, schedule)
    if verdict is not None:
        raise SchedulingError(
            "reference replays disagree: the native replay rejects a "
            "schedule the Python replay accepts"
        )


def _replay_with_reference(
    net: CompiledNet,
    config: SchedulerConfig,
    schedule: list[tuple[str, int, int]],
) -> None:
    """The Python replay: :func:`validate_with_reference`'s spec."""
    engine = StateEngine(net, reset_policy=config.reset_policy)
    state = engine.initial_state()
    index = net.transition_index
    now = 0
    for name, delay, at in schedule:
        if name not in index:
            raise SchedulingError(
                f"schedule fires unknown transition {name!r}"
            )
        state = engine.fire(state, index[name], delay)
        now += delay
        if now != at:
            raise SchedulingError(
                f"schedule timestamp mismatch at {name!r}: "
                f"recorded {at}, replayed {now}"
            )
    if not net.is_final(state.marking):
        raise SchedulingError(
            "schedule does not reach the final marking under the "
            "reference engine"
        )


#: Adapter registry, keyed by the engine names of
#: :data:`repro.scheduler.config.ENGINES`.
ADAPTERS = {
    "kernel": KernelAdapter,
    "reference": ReferenceAdapter,
    "stateclass": StateClassAdapter,
}

#: The executable spec each native engine runs on when the native
#: core cannot run a net.
SPEC_ADAPTERS = {
    "kernel": ReferenceAdapter,
    "stateclass": StateClassSpecAdapter,
}


def make_adapter(engine: str, net: CompiledNet, config) -> EngineAdapter:
    """Build the adapter for ``engine`` over ``net``.

    ``engine="kernel"`` and ``engine="stateclass"`` need the native
    core; when :func:`~repro.tpn._native.core_for` says it cannot run
    ``net`` they get their :data:`SPEC_ADAPTERS` entry instead, still
    named after the requested engine (spans, traces and batch rows
    keep naming it; ``adapter.native`` says which path runs).
    """
    if engine in SPEC_ADAPTERS and core_for(net) is None:
        adapter = SPEC_ADAPTERS[engine](net, config)
        adapter.name = engine
        return adapter
    return ADAPTERS[engine](net, config)


# ----------------------------------------------------------------------
# The shared loop
# ----------------------------------------------------------------------
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

    One injection point serves the parallel scheduler's workers (a
    no-op for a plain serial search): ``tick`` is a cooperative
    callback polled every 1024 expansions with the live counters plus
    the current stack depth (returning True aborts the search —
    first-win cancellation).

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
        obs=None,
        metrics=None,
        heartbeat=None,
    ):
        self.adapter = adapter
        self.config = config
        self.reorder = reorder
        self.tick = tick
        self.obs = obs
        self.metrics = metrics
        self.heartbeat = heartbeat

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

    def _drive(
        self, driver, stats, started, poll, trace_t0, span_acc
    ) -> SchedulerResult:
        """:meth:`_run`'s loop, run by a compiled driver.

        The driver — the native core's one ``ez_search_*`` loop,
        rooted by the kernel's ``kn_search_new``
        (:meth:`KernelAdapter.open_driver`) or the DBM engine's
        ``dc_search_new`` (:meth:`StateClassAdapter.open_driver`),
        behind one :class:`~repro.tpn._native.NativeSearch` handle —
        owns the stack, the visited states and every per-expansion
        step; Python runs only what :meth:`_run` runs at the same
        points:

        * at every 1024-expansion poll, the same :class:`_Poll` — only
          when something asked for polling, but the driver yields
          there regardless, so signal handlers (Ctrl-C) run within one
          poll interval;
        * on each new frame with more than one candidate, a reorder
          policy the driver cannot apply itself (``random``; it orders
          ``latest`` and ``min-laxity`` natively);
        * on a win, :meth:`EngineAdapter.finalize_path`.

        Verdicts, schedules, every :class:`SearchStats` counter and
        the tick/heartbeat arguments equal :meth:`_run`'s over the
        engine's executable spec (``tests/test_kernel_driver.py``,
        ``tests/test_dbm_driver.py``).  The driver's
        memory is freed on every exit path; its size lands on the
        ``search.visited_bytes`` / ``search.bytes_per_state`` gauges.
        """
        reorder = self.reorder
        metrics = self.metrics
        record = span_acc is not None
        clock_ns = time.monotonic_ns
        counters = driver.counters
        reorder_ns = 0
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
                elif status == SEARCH_REORDER:
                    t0 = clock_ns() if record else 0
                    driver.reorder(reorder)
                    if record:
                        reorder_ns += clock_ns() - t0
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
                adapter.open_driver(s0, self.reorder is not None, record),
                stats,
                started,
                poll,
                trace_t0,
                span_acc,
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
