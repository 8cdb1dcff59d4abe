"""Direct TLTS simulation of a time Petri net model.

The dispatcher machine (:mod:`repro.sim.machine`) executes *schedule
tables*; this module simulates the *net itself* by walking the timed
labeled transition system — and it does so on the checked reference
engine (:class:`repro.tpn.state.StateEngine`) that also backs
:class:`repro.tpn.TLTS` and the reachability explorer, and against
which the scheduler's packed kernel is differentially tested.

Two walk policies:

* ``"earliest"`` — deterministic as-soon-as-possible execution: at every
  state the candidate minimising ``(delay, priority, index)`` fires at
  its dynamic lower bound.  This is the trajectory a work-conserving
  runtime would take, useful for smoke-testing models and for throughput
  measurement (states/second of raw successor computation);
* ``"random"`` — a seeded random walk: a uniformly chosen fireable
  transition fires at a uniformly chosen delay inside its firing domain
  (unbounded domains fall back to the earliest delay).  Randomized
  walks exercise interleavings the deterministic policies never reach,
  which is how the equivalence suite shakes out semantics bugs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.errors import SimulationError
from repro.tpn.interval import INF
from repro.tpn.net import CompiledNet
from repro.tpn.state import StateEngine

WALK_POLICIES = ("earliest", "random")


@dataclass
class NetSimRun:
    """Outcome of one TLTS walk.

    Attributes:
        firings: the walked run as ``(transition name, delay, absolute
            time)`` triples — the same shape as a firing schedule, so
            feasibility of the walk can be re-proved with
            :meth:`repro.tpn.TLTS.is_feasible_schedule`.
        steps: number of firings taken.
        reached_final: the walk hit the net's desired final marking.
        deadlocked: the walk stopped in a state with no fireable
            transition before reaching the final marking.
        missed_deadline: the walk entered a marking with a token in a
            deadline-miss place (the walk stops there).
        final_marking: marking of the last state.
    """

    firings: list[tuple[str, int, int]] = field(default_factory=list)
    steps: int = 0
    reached_final: bool = False
    deadlocked: bool = False
    missed_deadline: bool = False
    final_marking: tuple[int, ...] = ()

    @property
    def makespan(self) -> int:
        """Absolute time of the last firing."""
        return self.firings[-1][2] if self.firings else 0


class NetSimulator:
    """Walks the TLTS of a compiled net on the reference engine."""

    def __init__(self, net: CompiledNet, reset_policy: str = "paper"):
        self.net = net
        self.engine = StateEngine(net, reset_policy=reset_policy)

    def run(
        self,
        policy: str = "earliest",
        seed: int = 0,
        max_steps: int = 100_000,
        stop_at_final: bool = True,
        priority_filter: bool = False,
    ) -> NetSimRun:
        """Walk up to ``max_steps`` firings; returns the run record.

        The walk stops at the final marking (unless ``stop_at_final``
        is off), on deadlock, on a missed deadline, or when the step
        budget runs out — whichever comes first.
        """
        if policy not in WALK_POLICIES:
            raise SimulationError(
                f"unknown walk policy {policy!r}; "
                f"expected one of {WALK_POLICIES}"
            )
        if max_steps < 0:
            raise SimulationError("max_steps must be >= 0")
        net = self.net
        engine = self.engine
        rng = random.Random(seed) if policy == "random" else None
        priorities = net.priority
        names = net.transition_names

        state = engine.initial_state()
        outcome = NetSimRun()
        now = 0
        for _step in range(max_steps):
            if net.has_missed_deadline(state.marking):
                outcome.missed_deadline = True
                break
            if stop_at_final and net.is_final(state.marking):
                outcome.reached_final = True
                break
            candidates = engine.fireable(state, priority_filter)
            if not candidates:
                outcome.deadlocked = True
                break
            if rng is None:
                cand = min(
                    candidates,
                    key=lambda c: (
                        c.dlb,
                        priorities[c.transition],
                        c.transition,
                    ),
                )
                delay = cand.dlb
            else:
                cand = rng.choice(candidates)
                if cand.dub == INF:
                    delay = cand.dlb
                else:
                    delay = rng.randint(cand.dlb, int(cand.dub))
            state = engine._fire_unchecked(state, cand.transition, delay)
            now += delay
            outcome.firings.append((names[cand.transition], delay, now))
            outcome.steps += 1
        else:
            # step budget exhausted: classify the stopping state anyway
            outcome.missed_deadline = net.has_missed_deadline(
                state.marking
            )
            if stop_at_final:
                outcome.reached_final = net.is_final(state.marking)
        outcome.final_marking = state.marking
        return outcome


def simulate_net(
    net: CompiledNet,
    policy: str = "earliest",
    seed: int = 0,
    max_steps: int = 100_000,
    reset_policy: str = "paper",
) -> NetSimRun:
    """Convenience: one TLTS walk over a compiled net."""
    return NetSimulator(net, reset_policy=reset_policy).run(
        policy=policy, seed=seed, max_steps=max_steps
    )
