"""Bounded reachability exploration of the TLTS.

A generic breadth-first/depth-first explorer over the timed state space,
independent of the scheduler.  It exists for analysis and testing: small
nets can be exhaustively enumerated to check boundedness, deadlocks and
reachability of markings, and property-based tests drive it over random
nets to cross-validate the firing rule.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.errors import SchedulingError
from repro.tpn.net import CompiledNet
from repro.tpn.state import State, StateEngine


@dataclass
class ReachabilityGraph:
    """Explicit timed reachability graph (possibly truncated).

    Attributes:
        states: explored states in discovery order.
        index: state -> position in ``states``.
        edges: adjacency: ``edges[i]`` lists ``(t, q, j)`` successors.
        complete: False when a limit stopped the exploration early.
        deadlocks: indices of states with an empty fireable set.
    """

    states: list[State] = field(default_factory=list)
    index: dict[State, int] = field(default_factory=dict)
    edges: list[list[tuple[int, int, int]]] = field(default_factory=list)
    complete: bool = True
    deadlocks: list[int] = field(default_factory=list)

    @property
    def num_states(self) -> int:
        return len(self.states)

    @property
    def num_edges(self) -> int:
        return sum(len(row) for row in self.edges)

    def max_tokens(self) -> int:
        """Largest token count observed in any place of any state."""
        return max(
            (max(s.marking) for s in self.states if s.marking),
            default=0,
        )

    def markings(self) -> set[tuple[int, ...]]:
        """Distinct markings among explored states."""
        return {s.marking for s in self.states}


def explore(
    net: CompiledNet,
    max_states: int = 10_000,
    earliest_only: bool = False,
    priority_filter: bool = True,
    reset_policy: str = "paper",
    strategy: str = "bfs",
) -> ReachabilityGraph:
    """Enumerate the timed state space up to ``max_states`` states.

    ``earliest_only=False`` expands every integer delay in each firing
    domain, producing the full discrete-time TLTS; with ``True`` only the
    earliest firing of each fireable transition is taken (the scheduler's
    default view of the space).

    Unbounded firing domains (a fireable transition while no enabled
    transition has a finite LFT) cannot be enumerated exhaustively; in
    that case the earliest delay is used for the affected candidates and
    the graph is flagged incomplete.
    """
    if strategy not in ("bfs", "dfs"):
        raise SchedulingError(f"unknown strategy {strategy!r}")
    engine = StateEngine(net, reset_policy=reset_policy)
    graph = ReachabilityGraph()
    s0 = engine.initial_state()
    graph.states.append(s0)
    graph.index[s0] = 0
    graph.edges.append([])
    frontier: deque[tuple[int, State]] = deque([(0, s0)])

    while frontier:
        i, state = (
            frontier.pop() if strategy == "dfs" else frontier.popleft()
        )
        candidates = engine.fireable(state, priority_filter)
        if not candidates:
            graph.deadlocks.append(i)
            continue
        for cand in candidates:
            if earliest_only:
                delays = [cand.dlb]
            elif cand.dub == float("inf"):
                delays = [cand.dlb]
                graph.complete = False
            else:
                delays = list(cand.delays())
            for q in delays:
                succ = engine._fire_unchecked(state, cand.transition, q)
                j = graph.index.get(succ)
                if j is None:
                    if len(graph.states) >= max_states:
                        graph.complete = False
                        continue
                    j = len(graph.states)
                    graph.index[succ] = j
                    graph.states.append(succ)
                    graph.edges.append([])
                    frontier.append((j, succ))
                graph.edges[i].append((cand.transition, q, j))
    return graph
