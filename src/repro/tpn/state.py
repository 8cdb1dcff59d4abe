"""States and the firing rule of the timed labeled transition system.

Implements the operational semantics of Section 3.1:

* a state ``s = (m, c)`` pairs a marking with a clock vector giving, for
  every *enabled* transition, the time elapsed since it became enabled;
* ``ET(m)`` — transitions enabled by the marking;
* ``DLB(t) = max(0, EFT(t) − c(t))`` and ``DUB(t) = LFT(t) − c(t)`` — the
  dynamic firing bounds;
* ``FT(s)`` — the *fireable* set: window-eligible transitions
  (``DLB(t_i) ≤ min DUB(t_k)``, strong semantics) filtered by the
  priority function ``π`` (smallest value wins);
* ``FD_s(t) = [DLB(t), min DUB(t_k)]`` — the firing domain, i.e. the
  admissible relative firing delays;
* ``fire(s, (t, q))`` — Definition 3.1: produce the successor state.

Clocks are stored as a dense tuple over *all* transitions with ``-1``
for disabled ones, which makes states hashable and canonical.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from repro._record import FrozenRecord
from repro.errors import SchedulingError
from repro.tpn.interval import INF
from repro.tpn.net import CompiledNet

#: Clock value used for disabled transitions in the dense clock vector.
DISABLED = -1

#: Clock-reset policies for transitions that stay enabled across a firing.
#:
#: ``"paper"`` follows Definition 3.1 literally: a transition's clock is
#: reset iff it is the fired transition or it is enabled *after* but not
#: *before* the firing (compare final markings).
#:
#: ``"intermediate"`` uses the classical intermediate-marking semantics:
#: enabledness is re-checked against ``m − W(·, t)``; a transition that
#: loses its tokens to the firing and regains them from the output arcs
#: is considered newly enabled and its clock resets.
RESET_POLICIES = ("paper", "intermediate")


def check_reset_policy(reset_policy: str) -> None:
    """Raise :class:`SchedulingError` unless ``reset_policy`` is one of
    :data:`RESET_POLICIES` (the check every engine and the scheduler
    configuration run)."""
    if reset_policy not in RESET_POLICIES:
        raise SchedulingError(
            f"unknown reset policy {reset_policy!r}; "
            f"expected one of {RESET_POLICIES}"
        )


def enabled_by(net: CompiledNet, marking: Sequence[int]) -> list[int]:
    """``ET(m)`` — indices of the transitions ``marking`` enables, in
    index order (every engine's root and the dense spec's successors
    read their enabled set from here)."""
    enabled: list[int] = []
    for t, arcs in enumerate(net.pre):
        for place, weight in arcs:
            if marking[place] < weight:
                break
        else:
            enabled.append(t)
    return enabled


class State(FrozenRecord):
    """An immutable TLTS state ``s = (m, c)``.

    ``marking`` is the dense token vector; ``clocks`` is the dense clock
    vector with :data:`DISABLED` for disabled transitions.
    """

    __slots__ = ("marking", "clocks")
    marking: tuple[int, ...]
    clocks: tuple[int, ...]

    def __init__(
        self, marking: tuple[int, ...], clocks: tuple[int, ...]
    ) -> None:
        object.__setattr__(self, "marking", marking)
        object.__setattr__(self, "clocks", clocks)

    # the reference engine's visited set hashes and compares every state
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, State):
            return NotImplemented
        return self.marking == other.marking and self.clocks == other.clocks

    def __hash__(self) -> int:
        return hash((self.marking, self.clocks))


class FiringCandidate(FrozenRecord):
    """A fireable transition with its firing domain at some state.

    Attributes:
        transition: transition index.
        dlb: dynamic lower bound (earliest admissible relative delay).
        dub: upper end of the firing domain, ``min_k DUB(t_k)`` — the
            latest delay that does not violate another enabled
            transition's latest firing time.  ``INF`` when no enabled
            transition has a finite LFT.
    """

    __slots__ = ("transition", "dlb", "dub")
    transition: int
    dlb: int
    dub: float

    def __init__(self, transition: int, dlb: int, dub: float) -> None:
        object.__setattr__(self, "transition", transition)
        object.__setattr__(self, "dlb", dlb)
        object.__setattr__(self, "dub", dub)

    def delays(self) -> Sequence[int]:
        """All admissible integer delays, earliest first.

        Unbounded domains cannot be enumerated; the engine's delay
        policies handle that case before calling this.
        """
        if self.dub == INF:
            raise SchedulingError(
                "cannot enumerate an unbounded firing domain"
            )
        return range(self.dlb, int(self.dub) + 1)


class StateEngine:
    """Reference semantics engine for a compiled net.

    The engine is stateless apart from the net and the configured
    clock-reset policy; all methods are pure functions of their inputs,
    which keeps the DFS scheduler free to memoise and backtrack.

    This is the *checked reference* implementation of Definition 3.1:
    every firing rescans all transition presets, O(|T|·|P|) per
    expansion.  The search hot path uses the semantics-identical
    packed :class:`repro.tpn.kernel.KernelEngine`, which is
    cross-validated against this engine by the randomized equivalence
    suite.  :class:`~repro.tpn.tlts.TLTS`, the reachability explorer
    and the net simulator run on this engine directly.
    """

    def __init__(self, net: CompiledNet, reset_policy: str = "paper"):
        check_reset_policy(reset_policy)
        self.net = net
        self.reset_policy = reset_policy

    # ------------------------------------------------------------------
    # State construction
    # ------------------------------------------------------------------
    def initial_state(self) -> State:
        """``s0 = (m0, c0)`` with zeroed clocks for enabled transitions."""
        marking = self.net.m0
        clocks = [DISABLED] * self.net.num_transitions
        for t in enabled_by(self.net, marking):
            clocks[t] = 0
        return State(marking, tuple(clocks))

    # ------------------------------------------------------------------
    # Enabledness
    # ------------------------------------------------------------------
    def enabled_transitions(self, marking: tuple[int, ...]) -> list[int]:
        """``ET(m)`` — indices of transitions enabled by ``marking``."""
        return enabled_by(self.net, marking)

    def enabled_from_state(self, state: State) -> list[int]:
        """``ET(m)`` recovered from the dense clock vector (fast path)."""
        return [
            t for t, c in enumerate(state.clocks) if c != DISABLED
        ]

    # ------------------------------------------------------------------
    # Dynamic bounds
    # ------------------------------------------------------------------
    def dlb(self, state: State, t: int) -> int:
        """Dynamic lower bound ``max(0, EFT(t) − c(t))``."""
        clock = state.clocks[t]
        if clock == DISABLED:
            raise SchedulingError(
                f"DLB of disabled transition "
                f"{self.net.transition_names[t]!r}"
            )
        return max(0, self.net.eft[t] - clock)

    def dub(self, state: State, t: int) -> float:
        """Dynamic upper bound ``LFT(t) − c(t)`` (may be ``INF``)."""
        clock = state.clocks[t]
        if clock == DISABLED:
            raise SchedulingError(
                f"DUB of disabled transition "
                f"{self.net.transition_names[t]!r}"
            )
        lft = self.net.lft[t]
        return INF if lft == INF else lft - clock

    def min_dub(self, state: State) -> float:
        """``min_{t_k ∈ ET(m)} DUB(t_k)`` — the latest admissible delay.

        Under strong semantics time cannot progress beyond this bound
        without forcing some transition to fire.
        """
        best = INF
        lft = self.net.lft
        for t, clock in enumerate(state.clocks):
            if clock == DISABLED or lft[t] == INF:
                continue
            bound = lft[t] - clock
            if bound < best:
                best = bound
        return best

    # ------------------------------------------------------------------
    # Fireable set and firing domains
    # ------------------------------------------------------------------
    def fireable(
        self, state: State, priority_filter: bool = True
    ) -> list[FiringCandidate]:
        """``FT(s)`` with firing domains, per the paper's definition.

        The window condition keeps transitions whose earliest admissible
        delay does not exceed the global ``min DUB``; with
        ``priority_filter`` (default) only candidates achieving the
        minimum priority value among the window-eligible set survive —
        the window-first reading discussed in DESIGN.md.
        """
        ceiling = self.min_dub(state)
        eft = self.net.eft
        candidates: list[FiringCandidate] = []
        for t, clock in enumerate(state.clocks):
            if clock == DISABLED:
                continue
            lower = eft[t] - clock
            if lower < 0:
                lower = 0
            if lower <= ceiling:
                candidates.append(FiringCandidate(t, lower, ceiling))
        if priority_filter and candidates:
            priorities = self.net.priority
            best = min(priorities[c.transition] for c in candidates)
            candidates = [
                c for c in candidates if priorities[c.transition] == best
            ]
        return candidates

    def firing_domain(self, state: State, t: int) -> FiringCandidate:
        """``FD_s(t) = [DLB(t), min DUB]`` for an enabled transition."""
        return FiringCandidate(t, self.dlb(state, t), self.min_dub(state))

    # ------------------------------------------------------------------
    # Firing rule (Definition 3.1)
    # ------------------------------------------------------------------
    def fire(self, state: State, t: int, q: int) -> State:
        """Fire transition ``t`` after a relative delay of ``q``.

        Checks the firing preconditions (enabledness and admissible
        delay), then applies Definition 3.1: tokens move along the arcs,
        persistent clocks advance by ``q``, the fired and newly enabled
        transitions reset to zero, disabled transitions drop their
        clocks.
        """
        clock = state.clocks[t]
        if clock == DISABLED:
            raise SchedulingError(
                f"firing disabled transition "
                f"{self.net.transition_names[t]!r}"
            )
        if q < self.dlb(state, t):
            raise SchedulingError(
                f"delay {q} below DLB({self.net.transition_names[t]!r})="
                f"{self.dlb(state, t)}"
            )
        ceiling = self.min_dub(state)
        if q > ceiling:
            raise SchedulingError(
                f"delay {q} beyond min DUB={ceiling} (strong semantics)"
            )
        return self._fire_unchecked(state, t, q)

    def _fire_unchecked(self, state: State, t: int, q: int) -> State:
        """Apply Definition 3.1 without precondition checks (hot path)."""
        marking = list(state.marking)
        for place, delta in self.net.delta[t]:
            marking[place] += delta
        new_marking = tuple(marking)

        if self.reset_policy == "intermediate":
            # enabledness transiently re-checked against m − W(·, t)
            intermediate = list(state.marking)
            for place, weight in self.net.pre[t]:
                intermediate[place] -= weight
            reference = intermediate
        else:
            reference = None  # compare against the previous full marking

        old_clocks = state.clocks
        new_clocks = []
        pre = self.net.pre
        for tk in range(self.net.num_transitions):
            enabled_now = True
            for place, weight in pre[tk]:
                if new_marking[place] < weight:
                    enabled_now = False
                    break
            if not enabled_now:
                new_clocks.append(DISABLED)
                continue
            if tk == t:
                new_clocks.append(0)
                continue
            if reference is None:
                was_enabled = old_clocks[tk] != DISABLED
            else:
                was_enabled = True
                for place, weight in pre[tk]:
                    if reference[place] < weight:
                        was_enabled = False
                        break
                was_enabled = was_enabled and old_clocks[tk] != DISABLED
            if was_enabled:
                new_clocks.append(old_clocks[tk] + q)
            else:
                new_clocks.append(0)
        return State(new_marking, tuple(new_clocks))


def replay_firings(
    engine: StateEngine,
    firings: Iterable[tuple[int | str, int]],
    priority_filter: bool = False,
) -> Iterator[tuple[int, int, int, State]]:
    """Fire ``(transition, delay)`` pairs from ``s0`` under the checked
    firing rule: the one Python schedule replay, behind
    :meth:`repro.tpn.tlts.TLTS.replay` and
    :func:`repro.scheduler.core.validate_with_reference`.

    A transition, given by index or name, must be enabled (with
    ``priority_filter``: in the strict ``FT(s)``) and its delay inside
    the firing domain ``[DLB(t), min DUB]``, or :class:`SchedulingError`
    names the first violation.  Yields ``(t, q, now, state)`` after
    each firing, ``now`` being its absolute time.
    """
    names = engine.net.transition_names
    index = engine.net.transition_index
    state = engine.initial_state()
    now = 0
    for step, (t, q) in enumerate(firings):
        if isinstance(t, str):
            if t not in index:
                raise SchedulingError(f"unknown transition {t!r}")
            t = index[t]
        elif not 0 <= t < len(names):
            raise SchedulingError(f"transition index {t} out of range")
        if state.clocks[t] == DISABLED or (
            priority_filter
            and t not in [c.transition for c in engine.fireable(state)]
        ):
            fireable = engine.fireable(state, priority_filter)
            raise SchedulingError(
                f"transition {names[t]!r} is not fireable at step {step} "
                f"(fireable: {[names[c.transition] for c in fireable]})"
            )
        domain = engine.firing_domain(state, t)
        if not domain.dlb <= q <= domain.dub:
            bound = (
                f"below DLB({names[t]!r})={domain.dlb}"
                if q < domain.dlb
                else f"beyond min DUB={domain.dub} (strong semantics)"
            )
            raise SchedulingError(
                f"delay {q} outside firing domain [{domain.dlb}, "
                f"{domain.dub}] of {names[t]!r} at step {step}: {bound}"
            )
        now += q
        state = engine._fire_unchecked(state, t, q)
        yield t, q, now, state
