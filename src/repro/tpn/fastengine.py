"""Incremental TLTS successor engine — the state-space hot path.

**Overview for new contributors.**  Every feasibility verdict in this
repository is a depth-first search whose inner loop asks one question
millions of times: "given this state, what happens when transition
``t`` fires after delay ``q``?".  This module answers it in O(degree)
instead of O(net size) by carrying derived views (enabled set, timer
queues) alongside each state and updating them surgically.  If you are
tracing a search bug, start at :meth:`IncrementalEngine.successor`
(the firing rule) and :meth:`IncrementalEngine.window` (which
transitions may fire next); the slow-but-obvious reference semantics
lives in :mod:`repro.tpn.state`, and the two are locked together by a
randomized equivalence suite.

:class:`repro.tpn.state.StateEngine` implements Definition 3.1 the way
the paper states it: every firing rebuilds the dense clock vector by
rescanning the preset of *every* transition, which makes one expansion
O(|T|·|P|).  The structural truth is much cheaper: firing ``t`` can only
change the enabledness of transitions whose preset intersects the places
``t`` touches — its out-degree neighbourhood, precomputed once per net
as :attr:`CompiledNet.affected`.

This module exploits that locality plus one temporal invariant.  Under
strong semantics every enabled clock advances *uniformly*, so the
quantities ``EFT(t) − c(t)`` (the dynamic lower bound) and
``LFT(t) − c(t)`` (the dynamic upper bound) of all persistent
transitions shift by the same ``−q`` per firing.  Storing them as
``value + shift`` against a per-state epoch makes them *constant* while
a transition stays enabled:

* :class:`FastState` carries, besides the canonical ``(m, c)`` pair and
  its precomputed hash, four derived views maintained by O(degree)
  surgery instead of O(|T|) rescans: the ascending enabled set, the
  enabled immediate ``[0,0]`` transitions, and two epoch-shifted timer
  queues sorted by dynamic lower/upper bound;
* :class:`IncrementalEngine` computes successors by marking surgery on
  ``delta[t]``, one clock pass over the enabled set only when ``q > 0``,
  and enabledness re-checks limited to ``affected[t]``.  The ``min
  DUB`` ceiling is read in O(1) from the upper-bound queue (an enabled
  immediate pins it to exactly 0), and the fireable window is extracted
  as a prefix of the lower-bound queue — O(|FT(s)|), not O(|T|).

The engine is semantics-identical to the reference :class:`StateEngine`
under both clock-reset policies — the randomized equivalence suite
(``tests/test_fastengine.py``) and the hot-path benchmark cross-validate
successors, visited-state counts and feasibility verdicts against the
checked reference implementation.
"""

from __future__ import annotations

from bisect import bisect_left, insort

from repro.tpn.interval import INF
from repro.tpn.net import CompiledNet
from repro.tpn.state import (
    DISABLED,
    FiringCandidate,
    RESET_POLICIES,
    State,
)
from repro.errors import SchedulingError


class FastState:
    """A TLTS state ``(m, c)`` optimised for the search hot path.

    Identity (equality and the precomputed hash) lives entirely in the
    canonical ``(marking, clocks)`` pair, exactly like the reference
    :class:`~repro.tpn.state.State`.  The remaining slots are views
    derived from it, carried along so successor computation never
    rescans the net:

    * ``enabled`` — ascending tuple of enabled transitions (``ET(m)``);
    * ``imms`` — ascending tuple of the enabled immediate ``[0,0]``
      transitions; non-empty pins the ``min DUB`` ceiling to exactly 0;
    * ``tlb`` — ``(EFT(t) − c(t) + shift, t)`` pairs for the enabled
      non-immediate transitions, ascending: the firing-window prefix;
    * ``tub`` — ``(LFT(t) − c(t) + shift, t)`` pairs for those with a
      finite LFT, ascending: ``tub[0]`` yields ``min DUB`` in O(1);
    * ``shift`` — the epoch that makes the queue entries invariant
      under uniform clock advance (grows by ``q`` per firing).
    """

    __slots__ = (
        "marking",
        "clocks",
        "enabled",
        "imms",
        "tlb",
        "tub",
        "shift",
        "_hash",
    )

    def __init__(
        self,
        marking: tuple[int, ...],
        clocks: tuple[int, ...],
        enabled: tuple[int, ...],
        imms: tuple[int, ...],
        tlb: tuple[tuple[int, int], ...],
        tub: tuple[tuple[float, int], ...],
        shift: int,
    ):
        self.marking = marking
        self.clocks = clocks
        self.enabled = enabled
        self.imms = imms
        self.tlb = tlb
        self.tub = tub
        self.shift = shift
        self._hash = hash((marking, clocks))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FastState):
            return NotImplemented
        return (
            self.marking == other.marking and self.clocks == other.clocks
        )

    def __repr__(self) -> str:
        return f"FastState(m={self.marking}, c={self.clocks})"

    def key(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Canonical hashable key, interchangeable with :meth:`State.key`."""
        return (self.marking, self.clocks)

    def to_state(self) -> State:
        """Convert to the reference dataclass representation."""
        return State(self.marking, self.clocks)


class IncrementalEngine:
    """O(degree) successor computation over a compiled net.

    Drop-in fast path for the reference :class:`StateEngine`: same
    semantics (Definition 3.1, both clock-reset policies), different
    complexity class.  All methods are pure functions of their inputs —
    the DFS scheduler backtracks freely over immutable states.
    """

    __slots__ = (
        "net",
        "reset_policy",
        "_intermediate",
        "_pre",
        "_delta",
        "_affected",
        "_immediate",
        "_eft",
        "_lft",
    )

    def __init__(self, net: CompiledNet, reset_policy: str = "paper"):
        if reset_policy not in RESET_POLICIES:
            raise SchedulingError(
                f"unknown reset policy {reset_policy!r}; "
                f"expected one of {RESET_POLICIES}"
            )
        self.net = net
        self.reset_policy = reset_policy
        self._intermediate = reset_policy == "intermediate"
        # hoisted hot-row views (one attribute hop instead of two)
        self._pre = net.pre
        self._delta = net.delta
        self._affected = net.affected
        self._immediate = net.immediate
        self._eft = net.eft
        self._lft = net.lft

    # ------------------------------------------------------------------
    # State construction
    # ------------------------------------------------------------------
    def _derive(
        self,
        marking: tuple[int, ...],
        clocks: tuple[int, ...],
    ) -> FastState:
        """Build a state computing every derived view by full scan."""
        immediate = self._immediate
        eft = self._eft
        lft = self._lft
        enabled: list[int] = []
        imms: list[int] = []
        tlb: list[tuple[int, int]] = []
        tub: list[tuple[float, int]] = []
        for t, clock in enumerate(clocks):
            if clock < 0:
                continue
            enabled.append(t)
            if immediate[t]:
                imms.append(t)
            else:
                tlb.append((eft[t] - clock, t))
                bound = lft[t]
                if bound != INF:
                    tub.append((bound - clock, t))
        tlb.sort()
        tub.sort()
        return FastState(
            marking,
            clocks,
            tuple(enabled),
            tuple(imms),
            tuple(tlb),
            tuple(tub),
            0,
        )

    def initial(self) -> FastState:
        """``s0 = (m0, c0)``; the only full enabledness scan per search."""
        net = self.net
        marking = net.m0
        clocks = tuple(
            0
            if all(marking[p] >= w for p, w in net.pre[t])
            else DISABLED
            for t in range(net.num_transitions)
        )
        return self._derive(marking, clocks)

    def lift(self, state: State) -> FastState:
        """Wrap a reference :class:`State` (recovers the derived views)."""
        return self._derive(state.marking, state.clocks)

    # ------------------------------------------------------------------
    # Firing rule (Definition 3.1, incremental)
    # ------------------------------------------------------------------
    def successor(self, state: FastState, t: int, q: int) -> FastState:
        """Fire ``t`` after delay ``q`` touching only ``affected[t]``.

        Cost: marking surgery on ``delta[t]``, one clock-advance pass
        over the enabled set when ``q > 0``, and enabledness re-checks
        for the out-degree neighbourhood of ``t``.  Transitions outside
        ``affected[t]`` keep their enabledness by construction; their
        timer-queue entries are epoch-invariant, so the derived views
        update by bisect surgery on exactly the transitions that
        changed.
        """
        old_marking = state.marking
        delta = self._delta[t]
        if delta:
            m = list(old_marking)
            for place, d in delta:
                m[place] += d
            new_marking = tuple(m)
        else:
            new_marking = old_marking

        old_clocks = state.clocks
        clocks = list(old_clocks)
        if q:
            # persistent clocks advance in one pass over the enabled
            # set (disabled entries stay DISABLED untouched)
            for tk in state.enabled:
                clocks[tk] += q

        pre = self._pre
        eft = self._eft
        lft = self._lft
        immediate = self._immediate
        old_shift = state.shift
        shift = old_shift + q
        # lazily materialised copies of the derived views
        en: list[int] | None = None
        im: list[int] | None = None
        lb: list[tuple[int, int]] | None = None
        ub: list[tuple[float, int]] | None = None

        if self._intermediate:
            reference = list(old_marking)
            for place, weight in pre[t]:
                reference[place] -= weight
        else:
            reference = None

        for tk in self._affected[t]:
            for place, weight in pre[tk]:
                if new_marking[place] < weight:
                    # tk disabled after the firing
                    oc = old_clocks[tk]
                    if oc >= 0:
                        clocks[tk] = DISABLED
                        if en is None:
                            en = list(state.enabled)
                        del en[bisect_left(en, tk)]
                        if immediate[tk]:
                            if im is None:
                                im = list(state.imms)
                            del im[bisect_left(im, tk)]
                        else:
                            if lb is None:
                                lb = list(state.tlb)
                            del lb[
                                bisect_left(
                                    lb, (eft[tk] - oc + old_shift, tk)
                                )
                            ]
                            bound = lft[tk]
                            if bound != INF:
                                if ub is None:
                                    ub = list(state.tub)
                                del ub[
                                    bisect_left(
                                        ub, (bound - oc + old_shift, tk)
                                    )
                                ]
                    break
            else:
                # tk enabled after the firing
                oc = old_clocks[tk]
                if oc < 0:
                    # newly enabled: clock resets to zero
                    clocks[tk] = 0
                    if en is None:
                        en = list(state.enabled)
                    insort(en, tk)
                    if immediate[tk]:
                        if im is None:
                            im = list(state.imms)
                        insort(im, tk)
                    else:
                        if lb is None:
                            lb = list(state.tlb)
                        insort(lb, (eft[tk] + shift, tk))
                        bound = lft[tk]
                        if bound != INF:
                            if ub is None:
                                ub = list(state.tub)
                            insort(ub, (bound + shift, tk))
                    continue
                reset = tk == t
                if not reset and reference is not None:
                    # intermediate-marking semantics: transiently
                    # losing the tokens also resets the clock
                    for place, weight in pre[tk]:
                        if reference[place] < weight:
                            reset = True
                            break
                if reset:
                    clocks[tk] = 0
                    if not immediate[tk] and (oc or q):
                        # requeue at the zero-clock bounds
                        if lb is None:
                            lb = list(state.tlb)
                        del lb[
                            bisect_left(
                                lb, (eft[tk] - oc + old_shift, tk)
                            )
                        ]
                        insort(lb, (eft[tk] + shift, tk))
                        bound = lft[tk]
                        if bound != INF:
                            if ub is None:
                                ub = list(state.tub)
                            del ub[
                                bisect_left(
                                    ub, (bound - oc + old_shift, tk)
                                )
                            ]
                            insort(ub, (bound + shift, tk))
                # else: persistent — the bulk advance already set the
                # clock and the queue entries are epoch-invariant

        return FastState(
            new_marking,
            tuple(clocks),
            state.enabled if en is None else tuple(en),
            state.imms if im is None else tuple(im),
            state.tlb if lb is None else tuple(lb),
            state.tub if ub is None else tuple(ub),
            shift,
        )

    # ------------------------------------------------------------------
    # Firing window (O(1) ceiling, output-sized candidate extraction)
    # ------------------------------------------------------------------
    def min_dub(self, state: FastState) -> float:
        """``min_{t_k ∈ ET(m)} DUB(t_k)`` in O(1).

        An enabled immediate transition pins the ceiling to exactly 0
        (its clock is always 0 and no DUB is ever negative under strong
        semantics); otherwise the head of the upper-bound queue holds
        the minimum, and with no finite-LFT transition enabled the
        ceiling is unbounded.
        """
        if state.imms:
            return 0
        tub = state.tub
        if tub:
            return tub[0][0] - state.shift
        return INF

    def window(
        self, state: FastState
    ) -> tuple[float, list[tuple[int, int]]]:
        """``(min DUB, [(t, DLB(t)), ...])`` in ascending ``t`` order.

        The window condition (strong semantics) keeps transitions whose
        earliest admissible delay does not exceed the global ceiling —
        extracted as a prefix of the lower-bound queue.
        """
        ceiling = self.min_dub(state)
        shift = state.shift
        bound = shift + ceiling
        eligible = [(t, 0) for t in state.imms]
        for v, tk in state.tlb:
            if v > bound:
                break
            lower = v - shift
            eligible.append((tk, lower if lower > 0 else 0))
        eligible.sort()
        return ceiling, eligible

    def fireable(
        self, state: FastState, priority_filter: bool = True
    ) -> list[FiringCandidate]:
        """``FT(s)`` — same contract as :meth:`StateEngine.fireable`."""
        ceiling, eligible = self.window(state)
        candidates = [
            FiringCandidate(t, lower, ceiling) for t, lower in eligible
        ]
        if priority_filter and candidates:
            priorities = self.net.priority
            best = min(priorities[c.transition] for c in candidates)
            candidates = [
                c for c in candidates if priorities[c.transition] == best
            ]
        return candidates
