"""Search policies: candidate orderings raced by the portfolio.

**Overview for new contributors.**  The pre-runtime DFS
(:mod:`repro.scheduler.dfs`) is complete within its delay policy: the
candidate *order* never changes which verdict is reached, only how fast
a feasible schedule is found.  On backtracking-heavy models the
default order can commit to a wrong early decision and pay for it with
an enormous refutation subtree, while a different ordering walks almost
straight to a schedule — the classic heavy-tailed runtime distribution
of combinatorial search.  This module defines the alternative orderings
that :class:`repro.scheduler.parallel.ParallelScheduler` races against
each other (first definitive verdict wins):

* ``earliest`` — the serial default: candidates stay sorted by
  ``(delay, priority, index)``, i.e. work-conserving first and
  urgency-driven second.  Always part of the portfolio as the hedge
  that guarantees the race is never slower than serial by more than
  the scheduling overhead.
* ``latest`` — the reversed order: latest-delay candidates first, so
  inserted idle time is tried before greedy grants.  Wins on models
  whose only feasible schedules delay work (non-work-conserving
  schedules, the textbook argument for pre-runtime scheduling).
* ``min-laxity`` — candidates with equal delay are re-ranked by the
  *dynamic* laxity of their task (time remaining until the task's
  deadline-miss transition fires).  A run-time urgency measure that
  rescues models whose static priorities are absent or misleading.
* ``random`` — a seeded per-node shuffle.  Different seeds sample
  independent orderings, which is what makes racing several of them
  effective on heavy-tailed instances; the portfolio worker couples
  this with geometric restarts (see ``dfs`` docs).

A policy is represented as a *reorder function* applied to the
candidate list the scheduler computed for one state; ``None`` means
"keep the default order" so the hot path pays nothing for the common
case.
"""

from __future__ import annotations

import random
from typing import Callable

from repro.errors import SchedulingError
from repro.tpn.interval import INF
from repro.tpn.net import CompiledNet

#: Policy names accepted by :func:`make_reorder` and
#: :attr:`repro.scheduler.config.SchedulerConfig.policy`.
POLICIES = ("earliest", "latest", "min-laxity", "random")

#: Reorder signature: ``(candidates, state) -> candidates`` where
#: ``candidates`` is the scheduler's ``[(transition, delay), ...]``
#: list and ``state`` exposes ``.clocks``.
Reorder = Callable[[list, object], list]


def parse_slot(text: str) -> tuple[str | None, str]:
    """Parse a portfolio slot ``"[engine:]policy[:seed]"``.

    A slot optionally prefixes the policy with a successor engine
    (``"stateclass:earliest"``, ``"kernel:random:3"``); without a
    prefix the slot inherits the scheduler's engine, signalled by
    ``None``.  Engine and policy names are disjoint, so the grammar is
    unambiguous; the policy part is validated by :func:`parse_policy`
    (raising on unknown names or misplaced seeds).
    """
    # deferred import: config's validation imports this module
    from repro.scheduler.config import ENGINES

    head, sep, rest = text.partition(":")
    head = head.strip()
    if sep and head in ENGINES:
        policy = rest.strip()
        if not policy:
            raise SchedulingError(
                f"portfolio slot {text!r} names an engine but no "
                "policy; write e.g. "
                f"{head}:earliest or {head}:random:3"
            )
        parse_policy(policy)
        return head, policy
    parse_policy(text)
    return None, text


def parse_policy(text: str) -> tuple[str, int | None]:
    """Parse ``"name"`` or ``"name:seed"`` into ``(name, seed)``.

    The seed suffix is only meaningful for ``random`` (it selects the
    shuffle stream); other policies reject it.
    """
    name, sep, suffix = text.partition(":")
    name = name.strip()
    if name not in POLICIES:
        raise SchedulingError(
            f"unknown search policy {name!r}; expected one of {POLICIES}"
        )
    if not sep:
        return name, None
    try:
        seed = int(suffix)
    except ValueError:
        raise SchedulingError(
            f"policy seed must be an integer, got {suffix!r}"
        ) from None
    if name != "random":
        raise SchedulingError(
            f"policy {name!r} takes no seed (only 'random:N' does)"
        )
    return name, seed


def default_portfolio(workers: int) -> tuple[str, ...]:
    """The default policy rotation for a ``workers``-wide race.

    The serial-default ordering always occupies slot 0 (the hedge);
    the remaining slots alternate the diversifiers, padding with
    distinct random seeds once the deterministic policies are used up.
    """
    if workers < 1:
        raise SchedulingError("portfolio needs at least one worker")
    rotation = ("earliest", "random:1", "min-laxity", "latest")
    policies = list(rotation[:workers])
    seed = 2
    while len(policies) < workers:
        policies.append(f"random:{seed}")
        seed += 1
    return tuple(policies)


def make_reorder(
    policy: str, net: CompiledNet, seed: int = 0
) -> Reorder | None:
    """Build the reorder function for ``policy`` over ``net``.

    Returns ``None`` for ``earliest`` so the scheduler keeps its
    zero-overhead default path.  The returned callables are
    deterministic given ``(policy, seed)`` and the sequence of states
    they are applied to (the DFS expansion order), which is what makes
    a portfolio win exactly replayable.
    """
    if policy == "earliest":
        return None
    if policy == "latest":
        def latest(cands: list, _state: object) -> list:
            return cands[::-1]
        return latest
    if policy == "min-laxity":
        return _make_min_laxity(net)
    if policy == "random":
        rng = random.Random(seed)
        shuffle = rng.shuffle
        def shuffled(cands: list, _state: object) -> list:
            cands = list(cands)
            shuffle(cands)
            return cands
        return shuffled
    raise SchedulingError(
        f"unknown search policy {policy!r}; expected one of {POLICIES}"
    )


def _make_min_laxity(net: CompiledNet) -> Reorder:
    """Sort by ``(delay, dynamic laxity, index)``.

    The laxity of a candidate is read off the clock of its task's
    deadline-miss transition: ``LFT(miss) − c(miss)`` is exactly the
    time left until the deadline expires.  Candidates whose task has no
    armed deadline timer (bookkeeping transitions, arrivals) keep their
    relative position at the back of their delay class.
    """
    miss_timer = net.deadline_timer
    lft = net.lft

    def min_laxity(cands: list, state: object) -> list:
        clocks = state.clocks

        def key(cand: tuple[int, int]):
            transition, delay = cand
            timer = miss_timer[transition]
            if timer < 0 or clocks[timer] < 0:
                return (delay, INF, transition)
            return (delay, lft[timer] - clocks[timer], transition)

        return sorted(cands, key=key)

    return min_laxity
