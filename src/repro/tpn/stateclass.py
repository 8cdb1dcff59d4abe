"""State-class graph construction and search support (Berthomieu–Diaz).

The discrete-time TLTS of :mod:`repro.tpn.state` enumerates integer
clock valuations; the classical *state-class* abstraction instead
groups states by marking plus a difference-bound system over the firing
times of enabled transitions, making the dense-time behaviour of a
bounded TPN finite.  The class graph answers marking-reachability and
firability questions independently of the discrete engine, and — since
PR 4 — drives the scheduler's third engine
(``PreRuntimeScheduler(engine="stateclass")``): on models with wide
firing intervals the discrete TLTS visits every integer clock
valuation while one DBM covers them all, so searching classes shrinks
the explored space by orders of magnitude.

Implementation: a class is ``(marking, D)`` where ``D`` is a canonical
difference-bound matrix (DBM) over ``θ_0 = 0`` and one variable per
enabled transition, with ``D[i][j]`` bounding ``θ_i − θ_j``.  Firing
``t`` requires ``θ_t ≤ θ_u`` for every enabled ``u`` to stay
satisfiable; successors keep persistent transitions' differences and
give newly enabled ones their static intervals.  Because every added
firing constraint points *into* the fired variable, firability and the
dense firing window of a transition read directly off the canonical
matrix (:meth:`StateClassEngine.firable`,
:meth:`StateClassEngine.fire_window`) without re-closing it.

The scheduler-facing half of this module concretises a class-graph
path back to integer time: :func:`realize_firing_sequence` rebuilds
the exact difference-constraint system of the timed run (enabling
episodes per clock-reset policy, EFT lower bounds, strong-semantics
LFT caps), solves it for the earliest integer firing dates, and
reports per-firing dense windows ``[earliest, latest]`` — the
Berthomieu–Diaz soundness theorem guarantees the system is satisfiable
for any path of the class graph, and integer bounds make the least
solution integral.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from operator import sub

from repro.errors import SchedulingError
from repro.tpn.interval import INF
from repro.tpn.net import CompiledNet
from repro.tpn.state import check_reset_policy, enabled_by

#: Matrix entries are integers or :data:`INF` (``math.inf``).  The
#: alias admits ``float`` only for the INF sentinel: every finite bound
#: is an ``int`` (static intervals are integral and the closure only
#: adds finite integers), and :func:`_canonical` guards INF operands so
#: no arithmetic can smuggle a spurious finite float in.
Bound = int | float


def _canonical(matrix: list[list[Bound]]) -> list[list[Bound]] | None:
    """Floyd–Warshall closure; ``None`` when inconsistent.

    INF propagation guard: a path through an unbounded entry is no
    path at all, so both operands are checked *before* the addition —
    ``INF + bound`` (or worse, ``INF − INF = nan``) can never reach a
    cell and every finite entry stays an exact integer.
    """
    n = len(matrix)
    dist = [row[:] for row in matrix]
    for k in range(n):
        row_k = dist[k]
        for i in range(n):
            d_ik = dist[i][k]
            if d_ik == INF:
                continue  # no finite path i -> k: nothing to relax
            row_i = dist[i]
            for j in range(n):
                d_kj = row_k[j]
                if d_kj == INF:
                    continue  # guard the second operand too
                candidate = d_ik + d_kj
                if candidate < row_i[j]:
                    row_i[j] = candidate
    for i in range(n):
        if dist[i][i] < 0:
            return None
    return dist


@dataclass(frozen=True)
class StateClass:
    """A Berthomieu–Diaz state class.

    ``enabled`` lists the transition indices in DBM variable order
    (variable 0 is the zero reference); ``dbm`` is the canonical
    matrix, stored as a tuple of tuples for hashability.
    """

    marking: tuple[int, ...]
    enabled: tuple[int, ...]
    dbm: tuple[tuple[Bound, ...], ...]

    def bounds_of(self, transition: int) -> tuple[Bound, Bound]:
        """Earliest/latest relative firing time of an enabled transition."""
        try:
            var = self.enabled.index(transition) + 1
        except ValueError:
            raise SchedulingError(
                f"transition {transition} is not enabled in this class"
            ) from None
        lower = -self.dbm[0][var]
        upper = self.dbm[var][0]
        return (lower, upper)


@dataclass
class StateClassGraph:
    """The (possibly truncated) state-class graph."""

    classes: list[StateClass] = field(default_factory=list)
    index: dict[StateClass, int] = field(default_factory=dict)
    edges: list[list[tuple[int, int]]] = field(default_factory=list)
    complete: bool = True

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    def markings(self) -> set[tuple[int, ...]]:
        return {c.marking for c in self.classes}


class StateClassEngine:
    """Constructs state classes for a compiled net.

    ``reset_policy`` selects which transitions count as *persistent*
    across a firing (keeping their accumulated bounds) and mirrors the
    discrete engines: ``"paper"`` compares the full markings before and
    after the firing, ``"intermediate"`` additionally requires
    enabledness at the intermediate marking ``m − W(·, t)`` (a
    transition that loses its tokens to the firing and regains them
    from the output arcs is newly enabled and gets its static interval
    back).
    """

    def __init__(self, net: CompiledNet, reset_policy: str = "paper"):
        check_reset_policy(reset_policy)
        self.net = net
        self.reset_policy = reset_policy

    # ------------------------------------------------------------------
    def initial_class(self) -> StateClass:
        marking = self.net.m0
        enabled = tuple(enabled_by(self.net, marking))
        size = len(enabled) + 1
        matrix: list[list[Bound]] = [
            [INF] * size for _ in range(size)
        ]
        for i in range(size):
            matrix[i][i] = 0
        for var, t in enumerate(enabled, start=1):
            matrix[var][0] = self.net.lft[t]  # θ_t ≤ LFT
            matrix[0][var] = -self.net.eft[t]  # −θ_t ≤ −EFT
        closed = _canonical(matrix)
        if closed is None:
            raise SchedulingError("initial class is inconsistent")
        return StateClass(
            marking,
            enabled,
            tuple(tuple(row) for row in closed),
        )

    # ------------------------------------------------------------------
    def firable(self, cls: StateClass) -> list[int]:
        """Transitions firable from the class (dense-time semantics).

        ``t`` may fire first iff adding ``θ_t ≤ θ_u`` for every enabled
        ``u`` keeps the DBM satisfiable.  All added edges point into
        ``t``'s variable, so any new negative cycle uses exactly one of
        them — the check collapses to a column scan of the canonical
        matrix: firable iff ``D[u][t] ≥ 0`` for every ``u``.
        """
        dbm = cls.dbm
        size = len(cls.enabled) + 1
        result = []
        for var, t in enumerate(cls.enabled, start=1):
            for u in range(1, size):
                if dbm[u][var] < 0:
                    break
            else:
                result.append(t)
        return result

    def fire_window(
        self, cls: StateClass, transition: int
    ) -> tuple[int, Bound] | None:
        """Dense window of relative times at which ``transition`` can
        fire *next* from this class, or ``None`` when it cannot.

        The lower end is the transition's own earliest time (the added
        ``θ_t ≤ θ_u`` edges leave no path out of ``t``, so its lower
        bound cannot tighten); the upper end additionally respects
        every other enabled transition's latest time (paths routed
        through the added edges), i.e. the strong-semantics ceiling.
        """
        try:
            var = cls.enabled.index(transition) + 1
        except ValueError:
            return None
        dbm = cls.dbm
        size = len(cls.enabled) + 1
        upper = dbm[var][0]
        for u in range(1, size):
            if dbm[u][var] < 0:
                return None
            bound = dbm[u][0]
            if bound < upper:
                upper = bound
        lower = -dbm[0][var]
        return (lower, upper)

    def fire(self, cls: StateClass, transition: int) -> StateClass:
        """Successor class after firing ``transition``."""
        successor = self.try_fire(cls, transition)
        if successor is None:
            raise SchedulingError(
                f"transition "
                f"{self.net.transition_names[transition]!r} is not "
                "firable from this class"
            )
        return successor

    def try_fire(
        self, cls: StateClass, transition: int
    ) -> StateClass | None:
        """Successor class, or ``None`` when the firing is infeasible.

        The non-raising firing rule the scheduler's state-class
        adapter (:class:`repro.scheduler.core.StateClassAdapter`) and
        the graph builder drive; :meth:`fire` is the raising wrapper
        for callers that know the transition is firable.
        """
        if transition not in cls.enabled:
            return None
        size = len(cls.enabled) + 1
        var_t = cls.enabled.index(transition) + 1
        dbm = cls.dbm
        # Adding θ_t − θ_u ≤ 0 for every other enabled u keeps the
        # system satisfiable iff no negative cycle uses one of the new
        # edges; every such edge leaves var_t, so a minimal cycle is
        # var_t → u (weight 0) plus a closed-matrix path u → var_t —
        # the firability test collapses to a column scan (and doubles
        # as the consistency check the full re-closure used to do).
        col_t = [row[var_t] for row in dbm]
        for var_u in range(1, size):
            if col_t[var_u] < 0:
                return None
        # Incremental closure (ROADMAP "DBM closure cost"): the input
        # is already canonical, so instead of a fresh O(n³)
        # Floyd–Warshall only the entries affected by the new edges
        # need repair.  All edges emanate from var_t with weight 0, so
        # the new shortest distance out of var_t is the column-wise
        # minimum over every enabled row, and any other entry can only
        # improve by routing through var_t exactly once:
        #   D'[i][j] = min(D[i][j], D[i][var_t] + D'[var_t][j])
        # (a path using two new edges re-enters var_t through a
        # non-negative cycle, so one hop suffices) — O(n²) total.
        row_t = list(dbm[var_t])
        for var_u in range(1, size):
            if var_u == var_t:
                continue
            row_u = dbm[var_u]
            for j in range(size):
                if row_u[j] < row_t[j]:
                    row_t[j] = row_u[j]
        closed: list[list[Bound]] = [None] * size  # type: ignore[list-item]
        for i in range(size):
            if i == var_t:
                closed[i] = row_t
                continue
            row_i = list(dbm[i])
            d_it = col_t[i]
            if d_it != INF:
                for j in range(size):
                    d_tj = row_t[j]
                    if d_tj == INF:
                        continue
                    candidate = d_it + d_tj
                    if candidate < row_i[j]:
                        row_i[j] = candidate
            closed[i] = row_i

        # new marking
        marking = list(cls.marking)
        for place, delta in self.net.delta[transition]:
            marking[place] += delta
        new_marking = tuple(marking)

        old_enabled = cls.enabled
        new_enabled = tuple(enabled_by(self.net, new_marking))
        persistent = self._persistent(
            cls.marking, new_enabled, old_enabled, transition
        )
        new_size = len(new_enabled) + 1
        # The successor matrix can be written down already closed, so
        # the trailing O(n³) re-closure of earlier revisions is gone:
        #
        # * the persistent block (origin row/column against the new
        #   origin θ_t plus pairwise differences) is a *projection* of
        #   the closed matrix onto {var_t} ∪ persistent — its entries
        #   are genuine all-pairs shortest distances, so the triangle
        #   inequality already holds inside the block;
        # * a newly enabled transition carries only its static
        #   interval against the origin, so every shortest path in or
        #   out of its variable routes through variable 0 — the cross
        #   entries are exactly ``D[i][0] + D[0][j]``; no such path
        #   can tighten the persistent block either, because
        #   ``D[i][0] − EFT_u + LFT_u + D[0][j] ≥ D[i][0] + D[0][j]``;
        # * consistency is inherited: the projection of a consistent
        #   matrix is consistent and ``LFT − EFT ≥ 0`` keeps every new
        #   diagonal path non-negative, so (unlike the re-closure
        #   path) this construction cannot return ``None``.
        fresh: list[list[Bound]] = [
            [INF] * new_size for _ in range(new_size)
        ]
        for i in range(new_size):
            fresh[i][i] = 0
        new_vars: list[int] = []
        for new_var, t in enumerate(new_enabled, start=1):
            if t in persistent:
                old_var = old_enabled.index(t) + 1
                # θ'_u = θ_u − θ_t: bounds against the new origin
                fresh[new_var][0] = closed[old_var][var_t]
                fresh[0][new_var] = closed[var_t][old_var]
            else:
                fresh[new_var][0] = self.net.lft[t]
                fresh[0][new_var] = -self.net.eft[t]
                new_vars.append(new_var)
        # pairwise differences among persistent transitions (the
        # projection's interior)
        for i_var, t_i in enumerate(new_enabled, start=1):
            if t_i not in persistent:
                continue
            old_i = old_enabled.index(t_i) + 1
            for j_var, t_j in enumerate(new_enabled, start=1):
                if t_j not in persistent or i_var == j_var:
                    continue
                old_j = old_enabled.index(t_j) + 1
                fresh[i_var][j_var] = closed[old_i][old_j]
        # cross entries of newly enabled variables: via the origin
        for nv in new_vars:
            up = fresh[nv][0]
            down = fresh[0][nv]
            for j in range(1, new_size):
                if j == nv:
                    continue
                if up != INF and fresh[0][j] != INF:
                    candidate = up + fresh[0][j]
                    if candidate < fresh[nv][j]:
                        fresh[nv][j] = candidate
                d_j0 = fresh[j][0]
                if d_j0 != INF:
                    candidate = d_j0 + down
                    if candidate < fresh[j][nv]:
                        fresh[j][nv] = candidate
        return StateClass(
            new_marking,
            new_enabled,
            tuple(tuple(row) for row in fresh),
        )

    def _persistent(
        self,
        old_marking: tuple[int, ...],
        new_enabled: tuple[int, ...],
        old_enabled: tuple[int, ...],
        transition: int,
    ) -> set[int]:
        """Transitions that keep their accumulated firing bounds.

        ``"paper"`` (Definition 3.1 read on full markings): enabled
        before and after, and not the fired transition itself.
        ``"intermediate"``: additionally enabled at ``m − W(·, t)``.
        """
        persistent = {
            t
            for t in new_enabled
            if t in old_enabled and t != transition
        }
        if self.reset_policy == "intermediate" and persistent:
            intermediate = list(old_marking)
            for place, weight in self.net.pre[transition]:
                intermediate[place] -= weight
            pre = self.net.pre
            survivors = set()
            for t in persistent:
                for place, weight in pre[t]:
                    if intermediate[place] < weight:
                        break
                else:
                    survivors.add(t)
            persistent = survivors
        return persistent


def build_state_class_graph(
    net: CompiledNet,
    max_classes: int = 10_000,
    reset_policy: str = "paper",
) -> StateClassGraph:
    """Enumerate the state-class graph up to ``max_classes``."""
    engine = StateClassEngine(net, reset_policy=reset_policy)
    graph = StateClassGraph()
    initial = engine.initial_class()
    graph.classes.append(initial)
    graph.index[initial] = 0
    graph.edges.append([])
    frontier: deque[int] = deque([0])
    while frontier:
        i = frontier.popleft()
        cls = graph.classes[i]
        for t in engine.firable(cls):
            successor = engine.try_fire(cls, t)
            if successor is None:
                continue
            j = graph.index.get(successor)
            if j is None:
                if len(graph.classes) >= max_classes:
                    graph.complete = False
                    continue
                j = len(graph.classes)
                graph.classes.append(successor)
                graph.index[successor] = j
                graph.edges.append([])
                frontier.append(j)
            graph.edges[i].append((t, j))
    return graph


# ----------------------------------------------------------------------
# Concretisation: from a class-graph path back to integer time
# ----------------------------------------------------------------------
@dataclass
class RealizedSchedule:
    """A class-graph path made concrete.

    ``schedule`` carries the scheduler's usual
    ``(transition name, delay, absolute time)`` triples — the earliest
    integer realisation of the dense run, ready for the reference
    replay, schedule extraction and code generation.  ``windows``
    pairs every firing with its dense absolute window
    ``(name, earliest, latest)``: the projection of the run's firing-
    date polyhedron on that firing (``latest`` is :data:`INF` when
    nothing ever forces it).
    """

    schedule: list[tuple[str, int, int]]
    windows: list[tuple[str, int, Bound]]


def _sequence_constraints(
    net: CompiledNet, sequence: list[int], reset_policy: str
):
    """Difference constraints of the timed run firing ``sequence``.

    Returns ``(lower_at, uppers)`` over firing dates ``τ_0 = 0,
    τ_1..τ_n``: ``lower_at[k] = (e, eft)`` encodes ``τ_k ≥ τ_e + eft``
    (the fired transition's EFT against its enabling step) and each
    ``(k, e, lft)`` in ``uppers`` encodes ``τ_k ≤ τ_e + lft`` (strong
    semantics: no step may overrun an armed transition's LFT).  Per
    enabling episode only the *last* armed step is emitted — firing
    dates are monotone, so it implies the earlier ones.

    Each step re-checks only ``net.affected[fired]``: no other
    transition shares a place with the firing (its delta or, for the
    intermediate policy's self-loops, its preset), so every other
    episode carries on unchanged.  Episodes live in a dict in the
    order they opened, and a step's ended episodes are emitted in that
    order (``opened`` stamps it), so the constraints come out in the
    order of a scan over every open episode.
    """
    check_reset_policy(reset_policy)
    pre = net.pre
    eft = net.eft
    lft = net.lft
    affected = net.affected
    intermediate_policy = reset_policy == "intermediate"

    def enabled_in(marking: list[int], t: int) -> bool:
        for place, weight in pre[t]:
            if marking[place] < weight:
                return False
        return True

    marking = list(net.m0)
    enabled_since = dict.fromkeys(enabled_by(net, marking), 0)
    # opened[u]: a counter value stamped when u's episode opened, so
    # sorting by it recovers the dict's insertion order
    opened = dict(zip(enabled_since, range(len(enabled_since))))
    stamp = len(opened)
    lower_at: list[tuple[int, int]] = [(0, 0)]  # 1-indexed; slot 0 unused
    uppers: list[tuple[int, int, int]] = []

    for step, fired in enumerate(sequence, start=1):
        since_fired = enabled_since.get(fired)
        if since_fired is None:
            raise SchedulingError(
                f"sequence fires disabled transition "
                f"{net.transition_names[fired]!r} at step {step}"
            )
        lower_at.append((since_fired, eft[fired]))

        if intermediate_policy:
            intermediate = list(marking)
            for place, weight in pre[fired]:
                intermediate[place] -= weight
        for place, delta in net.delta[fired]:
            marking[place] += delta

        ended: list[int] = []
        for u in affected[fired]:
            if u not in enabled_since:
                continue
            persists = (
                u != fired
                and enabled_in(marking, u)
                and (
                    not intermediate_policy
                    or enabled_in(intermediate, u)
                )
            )
            if not persists:
                ended.append(u)
        if len(ended) > 1:
            ended.sort(key=opened.__getitem__)
        for u in ended:
            # episode ends at this step: u was armed in the
            # pre-marking, so step `step` must respect its LFT
            since = enabled_since.pop(u)
            if lft[u] != INF:
                uppers.append((step, since, int(lft[u])))
        for u in affected[fired]:
            if u not in enabled_since and enabled_in(marking, u):
                enabled_since[u] = step
                opened[u] = stamp
                stamp += 1

    # episodes still open after the last firing constrained it too
    n = len(sequence)
    for u, since in enabled_since.items():
        if since < n and lft[u] != INF:
            uppers.append((n, since, int(lft[u])))
    return lower_at, uppers


def _least_times(
    n: int,
    lower_at: list[tuple[int, int]],
    uppers: list[tuple[int, int, int]],
) -> list[int]:
    """Earliest integer firing dates satisfying the constraints.

    Chaotic iteration of the monotone repair operators: a forward
    sweep raises each date to its lower bounds, an upper-bound sweep
    raises the *enabling* date of any overrun LFT (delaying the
    enabling is the only way to relax the cap).  Every repair is the
    minimum any solution must satisfy, so values never overshoot the
    least solution; Bellman–Ford's bound makes ``n + 2`` full passes a
    proof of a negative cycle — impossible for a genuine class-graph
    path, hence the loud error.
    """
    tau = [0] * (n + 1)
    for _ in range(n + 2):
        changed = False
        for k in range(1, n + 1):
            e, bound = lower_at[k]
            value = tau[k - 1]
            lower = tau[e] + bound
            if lower > value:
                value = lower
            if value > tau[k]:
                tau[k] = value
                changed = True
        for k, e, cap in uppers:
            need = tau[k] - cap
            if need > tau[e]:
                tau[e] = need
                changed = True
        if not changed:
            return tau
    raise SchedulingError(
        "firing sequence admits no integer timing (inconsistent "
        "difference system) — the state-class path is unsound"
    )


def _greatest_times(
    n: int,
    lower_at: list[tuple[int, int]],
    uppers: list[tuple[int, int, int]],
) -> list[Bound]:
    """Latest firing dates (``INF`` where nothing forces a firing)."""
    tau: list[Bound] = [INF] * (n + 1)
    tau[0] = 0
    for _ in range(n + 2):
        changed = False
        for k, e, cap in uppers:
            if tau[e] != INF:
                bound = tau[e] + cap
                if bound < tau[k]:
                    tau[k] = bound
                    changed = True
        for k in range(n, 0, -1):
            value = tau[k]
            if value == INF:
                continue
            if value < tau[k - 1]:
                tau[k - 1] = value
                changed = True
            e, bound = lower_at[k]
            cap = value - bound
            if cap < tau[e]:
                tau[e] = cap
                changed = True
        if not changed:
            break
    return tau


def realize_firing_sequence(
    net: CompiledNet, sequence: list[int], reset_policy: str = "paper"
) -> RealizedSchedule:
    """Concretise a class-graph firing sequence to integer time.

    Builds the run's difference-constraint system (per the clock-reset
    policy), solves it for the earliest integer firing dates and the
    dense per-firing windows, and returns the scheduler-shaped
    triples.  Raises :class:`SchedulingError` when the sequence is
    structurally or temporally infeasible — which a path of a
    correctly built state-class graph never is.
    """
    lower_at, uppers = _sequence_constraints(net, sequence, reset_policy)
    n = len(sequence)
    return realized_schedule(
        net,
        sequence,
        _least_times(n, lower_at, uppers),
        _greatest_times(n, lower_at, uppers),
    )


def realized_schedule(
    net: CompiledNet,
    sequence: list[int],
    earliest: list[int],
    latest: list[Bound],
) -> RealizedSchedule:
    """``sequence`` fired at the dates ``earliest[1..n]``, with the
    dense windows closed by ``latest[1..n]`` (index 0 is time 0)."""
    names = [net.transition_names[fired] for fired in sequence]
    dates = earliest[1:]
    return RealizedSchedule(
        schedule=list(zip(names, map(sub, dates, earliest), dates)),
        windows=list(zip(names, dates, latest[1:])),
    )
