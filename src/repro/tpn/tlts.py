"""Timed labeled transition system derived from a time Petri net.

The semantics of a TPN ``P`` is the TLTS ``L_P = (S, Σ, →, s0)`` (paper
Section 3.1): states are marking/clock pairs, actions are labeled
``(t, q)`` — transition ``t`` fired after relative delay ``q`` inside its
firing domain — and the transition relation is induced by the firing
rule.  This module provides:

* :class:`Action` — a ``(t, q)`` label with absolute-time bookkeeping;
* :class:`Run` — a finite labeled run (prefix of a firing schedule);
* :class:`TLTS` — successor generation and run replay, including the
  feasibility check of Definition 3.2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.errors import SchedulingError
from repro.tpn.net import CompiledNet
from repro.tpn.state import State, StateEngine, replay_firings


@dataclass(frozen=True)
class Action:
    """A TLTS action ``(t, q)`` with its absolute firing time.

    Attributes:
        transition: transition index in the compiled net.
        delay: relative delay ``q`` within the firing domain.
        time: absolute time of the firing (sum of delays so far).
    """

    transition: int
    delay: int
    time: int

    def labeled(self, net: CompiledNet) -> tuple[str, int, int]:
        """``(name, q, absolute_time)`` for presentation."""
        return (net.transition_names[self.transition], self.delay, self.time)


@dataclass
class Run:
    """A finite labeled run ``s0 --(t1,q1)--> s1 ... --(tn,qn)--> sn``.

    The run records every intermediate state; ``states[i]`` is the state
    *before* ``actions[i]`` fires, and ``states[-1]`` is the final state.
    """

    states: list[State] = field(default_factory=list)
    actions: list[Action] = field(default_factory=list)

    @property
    def length(self) -> int:
        """Number of firings in the run."""
        return len(self.actions)

    @property
    def final_state(self) -> State:
        if not self.states:
            raise SchedulingError("empty run has no final state")
        return self.states[-1]

    @property
    def makespan(self) -> int:
        """Total elapsed time (absolute time of the last firing)."""
        return self.actions[-1].time if self.actions else 0

    def labels(self, net: CompiledNet) -> list[tuple[str, int, int]]:
        """Human-readable ``(transition, delay, time)`` triples."""
        return [a.labeled(net) for a in self.actions]

    def __iter__(self) -> Iterator[Action]:
        return iter(self.actions)


class TLTS:
    """The timed labeled transition system of a compiled net.

    Thin layer over the checked reference :class:`StateEngine`
    (available as ``engine`` for explicit ``fire()`` validation)
    adding run construction, successor enumeration under a delay
    policy, and the Definition-3.2 feasibility predicate used
    throughout the test-suite.
    """

    def __init__(self, net: CompiledNet, reset_policy: str = "paper"):
        self.net = net
        self.engine = StateEngine(net, reset_policy=reset_policy)

    def initial_state(self) -> State:
        return self.engine.initial_state()

    def successors(
        self,
        state: State,
        priority_filter: bool = True,
        earliest_only: bool = True,
    ) -> list[tuple[int, int, State]]:
        """Enumerate ``(t, q, s')`` successors of ``state``.

        ``earliest_only`` restricts each fireable transition to its
        earliest admissible delay ``q = DLB(t)``; otherwise the full
        integer firing domain is expanded (bounded domains only).
        """
        engine = self.engine
        result: list[tuple[int, int, State]] = []
        for cand in engine.fireable(state, priority_filter):
            if earliest_only:
                delays: Iterable[int] = (cand.dlb,)
            else:
                delays = cand.delays()
            for q in delays:
                result.append(
                    (
                        cand.transition,
                        q,
                        engine._fire_unchecked(state, cand.transition, q),
                    )
                )
        return result

    # ------------------------------------------------------------------
    # Run replay (Definition 3.2)
    # ------------------------------------------------------------------
    def replay(
        self,
        firings: Iterable[tuple[int | str, int]],
        priority_filter: bool = False,
    ) -> Run:
        """Replay a sequence of ``(transition, delay)`` firings.

        Transitions may be given by index or name.  Every firing is
        validated against the fireable set and firing domain of the
        current state (:func:`~repro.tpn.state.replay_firings`, the
        loop the scheduler's reference gate runs too) — i.e. the
        replay *proves* the sequence is a legal run of the TLTS; any
        violation raises :class:`SchedulingError`.

        ``priority_filter`` applies the paper's strict minimum-priority
        restriction of ``FT(s)``.  It defaults to off because this
        implementation treats the priority function as a search-ordering
        device (the scheduler's default ``"ordered"`` mode), whose runs
        are legal timed behaviours even when a lower-priority transition
        fires first.
        """
        run = Run(states=[self.engine.initial_state()])
        for t, q, now, state in replay_firings(
            self.engine, firings, priority_filter
        ):
            run.actions.append(Action(t, q, now))
            run.states.append(state)
        return run

    def is_feasible_schedule(
        self,
        firings: Iterable[tuple[int | str, int]],
        priority_filter: bool = False,
    ) -> bool:
        """Definition 3.2: legal run from ``s0`` reaching ``M_F``.

        Returns ``True`` iff the firing sequence replays without
        violations *and* its final marking satisfies the net's desired
        final marking.
        """
        try:
            run = self.replay(firings, priority_filter=priority_filter)
        except SchedulingError:
            return False
        return self.net.is_final(run.final_state.marking)
