"""Engine adapters: the per-engine half of the depth-first search.

**Overview for new contributors.**  The paper's pre-runtime search is
one loop, :class:`repro.scheduler.dfs.PreRuntimeScheduler`,
parameterized over the :class:`EngineAdapter` protocol defined here.
Each time semantics is one engine with two implementations, a packed
production adapter and an executable spec (:data:`ADAPTERS`):

* ``engine="kernel"`` (discrete time) — :class:`KernelAdapter`, the
  packed-buffer kernel over :class:`~repro.tpn.kernel.KernelEngine`
  (flat ``array('H')`` marking/clock state buffers and incremental
  64-bit additive state keys — by far the fastest engine), and
  :class:`ReferenceAdapter`, its spec over the checked
  :class:`~repro.tpn.state.StateEngine` (dense O(|T|·|P|) rescans,
  dense candidate scans over all of T);
* ``engine="stateclass"`` (dense time) — :class:`StateClassAdapter`
  over the packed :class:`~repro.tpn.dbm.DbmEngine` (Berthomieu–Diaz
  classes on flat native-width buffers; feasible paths are
  concretised back to integer time and replayed through the reference
  engine), and :class:`StateClassSpecAdapter`, its spec over the tuple
  :class:`~repro.tpn.stateclass.StateClassEngine` (tuple-of-tuples
  matrices, the same O(n²) incremental closure repair per firing as
  the packed engine).

The packed adapters run the whole search in the optional native core
(:mod:`repro.tpn._native`, one cffi extension), whose one C driver is
the scheduler's loop parameterised by a per-engine operations table
instead of an adapter (see
:meth:`~repro.scheduler.dfs.PreRuntimeScheduler._drive`); the specs
run in the scheduler's own Python loop.  The user picks the engine and
the code picks the implementation: :func:`make_adapter` hands a net
the core cannot run to the spec, and a net past a packed cap
(:class:`~repro.errors.PackedCapError`, raised by the packed root or
the driver) restarts on the spec inside
:meth:`~repro.scheduler.dfs.PreRuntimeScheduler.search`.

The split of responsibilities is strict: the adapter knows *states*
(how to compute a root, and how to turn a finished path into a
schedule); the scheduler knows *search* (the stack, tagging, pruning,
budgets, cooperative cancellation and the policy reordering).  Each
implementation runs one way: a :class:`NativeAdapter` only opens the
compiled driver, and only a :class:`SpecAdapter` has the per-step
surface — successors and candidates — that the Python loop steps.
Orchestration layers — the portfolio racer, the batch engine — treat
every engine uniformly through the common :class:`EngineAdapter`
surface, the way Real-Time Maude and e-Motions keep one formal
analysis core under several modeling front-ends.

Behaviour-preserving parity is the contract: for every engine both
implementations produce the same verdicts, the same visited-state
counts and the same deterministic :class:`SearchStats` counters as the
engine-specific loops they replaced (pinned by
``tests/test_refactor_parity.py`` on the paper models and a seeded
task-set grid, under both clock-reset policies).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, runtime_checkable

from repro.errors import SchedulingError
from repro.obs.events import NULL_RECORDER
from repro.scheduler.config import SchedulerConfig
from repro.scheduler.result import SearchStats
from repro.tpn.interval import INF
from repro.tpn._native import (
    NativeNet,
    NativeSearch,
    core_for,
    replay as native_replay,
)
from repro.tpn.kernel import KernelEngine, KernelState
from repro.tpn.net import CompiledNet
from repro.tpn.state import DISABLED, State, StateEngine, replay_firings

if TYPE_CHECKING:
    from repro.tpn.dbm import PackedClass
    from repro.tpn.stateclass import StateClass

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
    """What :class:`~repro.scheduler.dfs.PreRuntimeScheduler` needs
    from every engine.

    An adapter wraps one engine instance (plus the hoisted config and
    net vectors its candidate enumeration reads) and presents the
    surface both search paths share:

    * ``name`` — the engine's registry name (``"kernel"`` or
      ``"stateclass"``, for both implementations);
    * ``engine`` — the wrapped engine instance (a packed adapter
      builds it with the root);
    * ``native`` — whether the native driver runs the search (the
      adapter is then a :class:`NativeAdapter`, otherwise a
      :class:`SpecAdapter`; the scheduler reports it on the
      ``*.native_core`` gauges);
    * ``touches_miss`` / ``touches_final`` — the compiled
      marking-predicate skip masks (identical semantics for every
      adapter: a predicate can only change when the fired transition
      touches the relevant places, so skipping is exact, not a
      heuristic);
    * ``deadline_missed(marking)`` / ``reached_final(marking)`` — the
      compiled marking predicates themselves.

    States are opaque to the loop; the only requirements are hashable
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
        search already validated.
        """


@runtime_checkable
class NativeAdapter(EngineAdapter, Protocol):
    """A packed engine's adapter: it roots the search and hands the
    rest to the native core's compiled driver
    (:meth:`~repro.scheduler.dfs.PreRuntimeScheduler._drive`).  It has
    no per-step surface."""

    def open_driver(self, root, timed: bool) -> NativeSearch:
        """The driver that runs the whole search from ``root``, in
        the order of ``config.policy`` and ``config.policy_seed``."""


@runtime_checkable
class SpecAdapter(EngineAdapter, Protocol):
    """An executable spec's adapter, stepped state by state by the
    scheduler's own loop
    (:meth:`~repro.scheduler.dfs.PreRuntimeScheduler._run`)."""

    def successor(self, state, transition: int, delay: int):
        """The child state, or ``None`` for an inconsistent dead end
        (only the dense engine can produce one; the loop counts it as
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
    #: shared no-op recorder; the scheduler swaps in a live one
    #: when ``config.trace_jsonl`` is set.
    obs = NULL_RECORDER

    #: Whether the native driver runs the search (a
    #: :class:`NativeAdapter`); otherwise the scheduler's own loop
    #: steps the adapter (a :class:`SpecAdapter`).
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

    States are two flat buffers plus an incremental 64-bit additive
    key.  The adapter builds the root; :meth:`open_driver` hands the
    whole search to the native driver (see
    :meth:`~repro.scheduler.dfs.PreRuntimeScheduler._drive`).
    The driver's step and candidate pipeline are also reachable one
    call at a time through :meth:`KernelEngine.successor` and
    :meth:`KernelEngine.candidates`, which the tests check against the
    spec state by state.  Its spec is :class:`ReferenceAdapter`.
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

    def open_driver(self, root: KernelState, timed: bool) -> NativeSearch:
        return self.engine.open_search(
            root,
            strict=self._strict,
            partial_order=self._partial_order,
            delay_mode=self._delay_mode,
            policy=self.config.policy,
            seed=self.config.policy_seed,
            max_states=self.config.max_states,
            timed=timed,
        )


class ReferenceAdapter(_AdapterBase):
    """The executable spec and baseline over the checked :class:`StateEngine`.

    It runs ``engine="kernel"`` whenever the native core cannot run
    the net or the net outgrows the packed kernel.  Candidate
    enumeration is deliberately kept as two dense passes over the
    whole transition set per expansion, and successors pay the
    engine's dense O(|T|·|P|) firing rule — this is the honest
    baseline the kernel bench measures the kernel against, and the
    fixed point the equivalence suites compare to.  It shares the
    scheduler's loop mechanics (slotted frames, marking-predicate skip
    masks), so the engines differ only in their cost model and the
    speedup the bench reports is the successor/candidate asymptotics,
    not incidental loop-body differences.
    """

    name = "kernel"

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
    driver (see :meth:`~repro.scheduler.dfs.PreRuntimeScheduler._drive`), whose firing rule and
    candidate pipeline — firability column scans, miss and
    strict-priority filters, the dense forced-immediate reduction and
    the ``(lower, priority, index)`` ordering — the tests also reach
    one call at a time through :meth:`~repro.tpn.dbm.DbmEngine.try_fire`
    and :meth:`~repro.tpn.dbm.DbmEngine.candidates`.  Its spec is
    :class:`StateClassSpecAdapter`, over the tuple-based engine the
    packed one is differentially tested against.

    A feasible class path is concretised back to integer firing times
    and replayed through the checked reference engine in
    :meth:`finalize_path` — the same contract the parallel scheduler
    applies to worker wins — so the result is verdict-equivalent to
    the discrete engines by construction.
    """

    name = "stateclass"
    native = True
    #: The packed engine, built with the root (see :meth:`root`).
    engine = None

    def root(self) -> PackedClass:
        # the dense engine loads only when a state-class search runs,
        # and its static cap checks raise inside the search
        from repro.tpn.dbm import DbmEngine

        self.engine = DbmEngine(
            self.net, reset_policy=self.config.reset_policy
        )
        return self.engine.initial_class()

    def open_driver(self, root: PackedClass, timed: bool) -> NativeSearch:
        return self.engine.open_search(
            root,
            strict=self._strict,
            partial_order=self._partial_order,
            policy=self.config.policy,
            seed=self.config.policy_seed,
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
    run the net or the net outgrows the packed DBM: tuple-of-tuples
    classes (the same O(n²) incremental closure repair per firing as
    the packed engine's ``dc_fire``), Python column scans and filters
    per candidate list.  Same verdicts, schedules, windows and
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
    :func:`~repro.tpn.state.replay_firings`, and the final marking
    must satisfy ``M_F``.  Raises :class:`SchedulingError` when the schedule is not
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
    """The Python replay: :func:`validate_with_reference`'s spec, a
    walk through :func:`~repro.tpn.state.replay_firings` that also
    checks every recorded timestamp and the final marking."""
    engine = StateEngine(net, reset_policy=config.reset_policy)
    state = engine.initial_state()
    firings = ((name, delay) for name, delay, _at in schedule)
    for (name, _delay, at), (_t, _q, now, state) in zip(
        schedule, replay_firings(engine, firings)
    ):
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


#: Each engine's two implementations, keyed by the engine names of
#: :data:`repro.scheduler.config.ENGINES`: the packed adapter the
#: native core runs and the executable spec the Python loop steps.
ADAPTERS = {
    "kernel": (KernelAdapter, ReferenceAdapter),
    "stateclass": (StateClassAdapter, StateClassSpecAdapter),
}


def make_adapter(engine: str, net: CompiledNet, config) -> EngineAdapter:
    """Build ``engine``'s adapter over ``net``.

    The packed adapter when :func:`~repro.tpn._native.core_for` says
    the core can run ``net`` (the core is live and the net has places
    and transitions), otherwise the engine's executable spec.  Both
    carry the engine's name (spans, traces and batch rows keep naming
    it; ``adapter.native`` says which path runs).  Whether the net fits
    the packed representation shows when the packed root or driver
    raises :class:`~repro.errors.PackedCapError`;
    :meth:`~repro.scheduler.dfs.PreRuntimeScheduler.search` then
    restarts on the spec.
    """
    native, spec = ADAPTERS[engine]
    return native(net, config) if core_for(net) else spec(net, config)
