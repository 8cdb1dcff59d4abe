"""Time Petri net structure: places, transitions, weighted arcs.

Implements the paper's computational model (Section 3.1): a time Petri
net is a tuple ``P = (P, T, F, W, m0, I)`` where ``P`` and ``T`` are
disjoint node sets, ``F ⊆ (P×T) ∪ (T×P)`` is the flow relation, ``W``
assigns positive integer weights to arcs, ``m0`` is the initial marking
and ``I`` assigns a static firing interval to every transition.

The *extended* net of the paper additionally carries a partial function
``C_S: T ⇀ S_T`` mapping transitions to behavioural source code and a
priority function ``π: T → N``.  Both are attributes of
:class:`Transition` here (``code`` and ``priority``).

The classes in this module are a *builder* representation optimised for
clarity; the scheduler operates on the index-based
:class:`CompiledNet` produced by :meth:`TimePetriNet.compile`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

from repro.errors import NetConstructionError
from repro.tpn.interval import INF, TimeInterval

# Roles attached to transitions by the building-block library.  They are
# plain strings rather than an enum so user nets can invent their own,
# but the canonical set used by blocks/schedule extraction lives here.
ROLE_FORK = "fork"
ROLE_JOIN = "join"
ROLE_PHASE = "phase"
ROLE_ARRIVAL = "arrival"
ROLE_RELEASE = "release"
ROLE_GRANT = "grant"
ROLE_COMPUTE = "compute"
ROLE_FINISH = "finish"
ROLE_DEADLINE_MISS = "deadline-miss"
ROLE_DEADLINE_OK = "deadline-ok"
ROLE_PRECEDENCE = "precedence"
ROLE_EXCLUSION = "exclusion"
ROLE_MESSAGE = "message"


@dataclass
class Place:
    """A place (circle node) of a time Petri net.

    Attributes:
        name: unique identifier within the net.
        marking: initial token count (``m0`` restricted to this place).
        label: human-readable label used by PNML/DOT exports.
        role: optional semantic tag assigned by the block library
            (e.g. ``"deadline-miss"`` for ``p_dm`` places).
        task: name of the specification task this place belongs to, when
            the place was produced by a task building block.
    """

    name: str
    marking: int = 0
    label: str = ""
    role: str | None = None
    task: str | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise NetConstructionError("place name must be non-empty")
        if not isinstance(self.marking, int) or self.marking < 0:
            raise NetConstructionError(
                f"place {self.name!r}: marking must be a non-negative "
                f"integer, got {self.marking!r}"
            )
        if not self.label:
            self.label = self.name


@dataclass
class Transition:
    """A transition (bar node) of an extended time Petri net.

    Attributes:
        name: unique identifier within the net.
        interval: static firing interval ``I(t) = [EFT, LFT]``.
        priority: value of the priority function ``π(t)``; *smaller is
            more urgent* (the paper's fireable-set rule selects the
            minimum).
        code: behavioural C source assigned by ``C_S`` (may be ``None``,
            the function is partial).
        label: human-readable label used by PNML/DOT exports.
        role: semantic tag assigned by the block library (see the
            ``ROLE_*`` constants).
        task: name of the specification task this transition belongs to.
    """

    name: str
    interval: TimeInterval = field(default_factory=TimeInterval.zero)
    priority: int = 0
    code: str | None = None
    label: str = ""
    role: str | None = None
    task: str | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise NetConstructionError("transition name must be non-empty")
        if not isinstance(self.interval, TimeInterval):
            raise NetConstructionError(
                f"transition {self.name!r}: interval must be a "
                f"TimeInterval, got {self.interval!r}"
            )
        if not isinstance(self.priority, int):
            raise NetConstructionError(
                f"transition {self.name!r}: priority must be an integer"
            )
        if not self.label:
            self.label = self.name


@dataclass(frozen=True)
class Arc:
    """A weighted arc of the flow relation ``F`` with weight ``W``.

    ``source`` and ``target`` are node names; exactly one of them is a
    place and the other a transition (checked by the net).
    """

    source: str
    target: str
    weight: int = 1

    def __post_init__(self) -> None:
        if self.weight < 1 or not isinstance(self.weight, int):
            raise NetConstructionError(
                f"arc {self.source}->{self.target}: weight must be a "
                f"positive integer, got {self.weight!r}"
            )


class TimePetriNet:
    """A mutable extended time Petri net builder.

    Nodes are addressed by name.  Typical construction::

        net = TimePetriNet("demo")
        net.add_place("p0", marking=1)
        net.add_transition("t0", TimeInterval(2, 5))
        net.add_place("p1")
        net.add_arc("p0", "t0")
        net.add_arc("t0", "p1")

    Call :meth:`compile` to obtain the immutable, index-based view used
    by the state-space engine.
    """

    def __init__(self, name: str = "net"):
        self.name = name
        self._places: dict[str, Place] = {}
        self._transitions: dict[str, Transition] = {}
        # weight maps: _pre[t][p] = W(p, t); _post[t][p] = W(t, p)
        self._pre: dict[str, dict[str, int]] = {}
        self._post: dict[str, dict[str, int]] = {}
        #: optional final-marking specification: place name -> tokens.
        #: Places absent from the mapping are unconstrained; see
        #: :meth:`final_marking_vector`.
        self.final_marking: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_place(
        self,
        name: str,
        marking: int = 0,
        label: str = "",
        role: str | None = None,
        task: str | None = None,
    ) -> Place:
        """Create and register a new place; returns it."""
        self._check_fresh(name)
        place = Place(name, marking=marking, label=label, role=role, task=task)
        self._places[name] = place
        return place

    def add_transition(
        self,
        name: str,
        interval: TimeInterval | None = None,
        priority: int = 0,
        code: str | None = None,
        label: str = "",
        role: str | None = None,
        task: str | None = None,
    ) -> Transition:
        """Create and register a new transition; returns it.

        ``interval`` defaults to the immediate interval ``[0, 0]``.
        """
        self._check_fresh(name)
        transition = Transition(
            name,
            interval=interval or TimeInterval.zero(),
            priority=priority,
            code=code,
            label=label,
            role=role,
            task=task,
        )
        self._transitions[name] = transition
        self._pre[name] = {}
        self._post[name] = {}
        return transition

    def add_arc(self, source: str, target: str, weight: int = 1) -> Arc:
        """Add an arc, inferring its direction from the node kinds.

        Adding a second arc between the same pair accumulates the weight
        (convenient when composing nets).
        """
        arc = Arc(source, target, weight)
        if source in self._places and target in self._transitions:
            pre = self._pre[target]
            pre[source] = pre.get(source, 0) + weight
        elif source in self._transitions and target in self._places:
            post = self._post[source]
            post[target] = post.get(target, 0) + weight
        elif source in self._places and target in self._places:
            raise NetConstructionError(
                f"arc {source}->{target} connects two places; nets are "
                "bipartite"
            )
        elif source in self._transitions and target in self._transitions:
            raise NetConstructionError(
                f"arc {source}->{target} connects two transitions; nets "
                "are bipartite"
            )
        else:
            missing = source if source not in self else target
            raise NetConstructionError(
                f"arc {source}->{target}: unknown node {missing!r}"
            )
        return arc

    def remove_arc(self, source: str, target: str) -> None:
        """Remove the arc between two nodes (used when composition
        operators reroute a block's interface, e.g. inserting a
        lock/precedence gate between release and grant)."""
        if source in self._places and target in self._transitions:
            if self._pre[target].pop(source, None) is None:
                raise NetConstructionError(
                    f"no arc {source}->{target} to remove"
                )
        elif source in self._transitions and target in self._places:
            if self._post[source].pop(target, None) is None:
                raise NetConstructionError(
                    f"no arc {source}->{target} to remove"
                )
        else:
            raise NetConstructionError(
                f"arc {source}->{target}: unknown node pair"
            )

    def set_final_marking(self, marking: Mapping[str, int]) -> None:
        """Declare the desired final marking ``M_F`` (paper Def. 3.2).

        The mapping gives the required token count for the listed places;
        places not listed are unconstrained.  The modelling methodology
        (join block) guarantees that ``M_F`` is explicitly known.
        """
        for name, tokens in marking.items():
            if name not in self._places:
                raise NetConstructionError(
                    f"final marking references unknown place {name!r}"
                )
            if tokens < 0:
                raise NetConstructionError(
                    f"final marking for {name!r} must be >= 0"
                )
        self.final_marking = dict(marking)

    def _check_fresh(self, name: str) -> None:
        if name in self._places or name in self._transitions:
            raise NetConstructionError(f"duplicate node name {name!r}")

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def places(self) -> tuple[Place, ...]:
        """All places, in insertion order."""
        return tuple(self._places.values())

    @property
    def transitions(self) -> tuple[Transition, ...]:
        """All transitions, in insertion order."""
        return tuple(self._transitions.values())

    @property
    def place_names(self) -> tuple[str, ...]:
        return tuple(self._places)

    @property
    def transition_names(self) -> tuple[str, ...]:
        return tuple(self._transitions)

    def place(self, name: str) -> Place:
        """Look up a place by name (raises on unknown names)."""
        try:
            return self._places[name]
        except KeyError:
            raise NetConstructionError(f"unknown place {name!r}") from None

    def transition(self, name: str) -> Transition:
        """Look up a transition by name (raises on unknown names)."""
        try:
            return self._transitions[name]
        except KeyError:
            raise NetConstructionError(
                f"unknown transition {name!r}"
            ) from None

    def has_place(self, name: str) -> bool:
        return name in self._places

    def has_transition(self, name: str) -> bool:
        return name in self._transitions

    def __contains__(self, name: str) -> bool:
        return name in self._places or name in self._transitions

    def input_weight(self, place: str, transition: str) -> int:
        """``W(p, t)``; zero when the arc is absent."""
        return self._pre.get(transition, {}).get(place, 0)

    def output_weight(self, transition: str, place: str) -> int:
        """``W(t, p)``; zero when the arc is absent."""
        return self._post.get(transition, {}).get(place, 0)

    def preset(self, transition: str) -> dict[str, int]:
        """Input places of a transition with their weights (``•t``)."""
        self.transition(transition)
        return dict(self._pre[transition])

    def postset(self, transition: str) -> dict[str, int]:
        """Output places of a transition with their weights (``t•``)."""
        self.transition(transition)
        return dict(self._post[transition])

    def place_preset(self, place: str) -> dict[str, int]:
        """Transitions feeding a place with their weights (``•p``)."""
        self.place(place)
        return {
            t: post[place]
            for t, post in self._post.items()
            if place in post
        }

    def place_postset(self, place: str) -> dict[str, int]:
        """Transitions consuming from a place with their weights (``p•``)."""
        self.place(place)
        return {t: pre[place] for t, pre in self._pre.items() if place in pre}

    def arcs(self) -> Iterator[Arc]:
        """Iterate over all arcs of the flow relation."""
        for t, pre in self._pre.items():
            for p, w in pre.items():
                yield Arc(p, t, w)
        for t, post in self._post.items():
            for p, w in post.items():
                yield Arc(t, p, w)

    def initial_marking(self) -> tuple[int, ...]:
        """``m0`` as a vector in place insertion order."""
        return tuple(p.marking for p in self._places.values())

    def final_marking_vector(self) -> tuple[int | None, ...]:
        """``M_F`` as a vector; ``None`` marks unconstrained places."""
        return tuple(
            self.final_marking.get(name) for name in self._places
        )

    def transitions_with_role(self, role: str) -> tuple[Transition, ...]:
        """All transitions carrying the given semantic role tag."""
        return tuple(t for t in self.transitions if t.role == role)

    def places_with_role(self, role: str) -> tuple[Place, ...]:
        """All places carrying the given semantic role tag."""
        return tuple(p for p in self.places if p.role == role)

    # ------------------------------------------------------------------
    # Statistics / validation
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, int]:
        """Structural size summary (used by reports and benches)."""
        arc_count = sum(len(m) for m in self._pre.values()) + sum(
            len(m) for m in self._post.values()
        )
        return {
            "places": len(self._places),
            "transitions": len(self._transitions),
            "arcs": arc_count,
            "tokens": sum(p.marking for p in self._places.values()),
        }

    def validate(self) -> None:
        """Check structural sanity; raises :class:`NetConstructionError`.

        Verifies bipartiteness (by construction), positive weights (by
        construction), and that every transition has at least one input
        place — a source transition would be enabled forever and make the
        schedule period unbounded.
        """
        for t in self._transitions:
            if not self._pre[t]:
                raise NetConstructionError(
                    f"transition {t!r} has no input places (source "
                    "transitions are not allowed in schedulable nets)"
                )

    def isolated_places(self) -> tuple[str, ...]:
        """Places with neither incoming nor outgoing arcs."""
        connected: set[str] = set()
        for mapping in self._pre.values():
            connected.update(mapping)
        for mapping in self._post.values():
            connected.update(mapping)
        return tuple(p for p in self._places if p not in connected)

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def compile(self) -> "CompiledNet":
        """Freeze into the index-based representation for the engine."""
        self.validate()
        return CompiledNet(self)

    # ------------------------------------------------------------------
    # Presentation
    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        s = self.stats()
        return (
            f"TimePetriNet({self.name!r}, |P|={s['places']}, "
            f"|T|={s['transitions']}, |F|={s['arcs']})"
        )


class CompiledNet:
    """Immutable, index-addressed view of a :class:`TimePetriNet`.

    All vectors use the net's insertion order.  The scheduler's hot loop
    walks ``pre``/``post`` adjacency tuples instead of name-keyed dicts.
    """

    __slots__ = (
        "name",
        "source",
        "place_names",
        "transition_names",
        "place_index",
        "transition_index",
        "m0",
        "pre",
        "post",
        "delta",
        "eft",
        "lft",
        "priority",
        "tasks",
        "final_marking",
        "miss_places",
        "pre_places",
        "affected",
        "conflict_free",
        "miss_transitions",
        "final_constraints",
        "touches_miss",
        "touches_final",
        "immediate",
        "post_conflicts",
        "deadline_timer",
    )

    def __init__(self, net: TimePetriNet):
        self.name = net.name
        self.source = net
        self.place_names: tuple[str, ...] = net.place_names
        self.transition_names: tuple[str, ...] = net.transition_names
        self.place_index = {p: i for i, p in enumerate(self.place_names)}
        self.transition_index = {
            t: i for i, t in enumerate(self.transition_names)
        }
        self.m0: tuple[int, ...] = net.initial_marking()

        pre_rows: list[tuple[tuple[int, int], ...]] = []
        post_rows: list[tuple[tuple[int, int], ...]] = []
        delta_rows: list[tuple[tuple[int, int], ...]] = []
        for t in self.transition_names:
            pre = net.preset(t)
            post = net.postset(t)
            pre_rows.append(
                tuple((self.place_index[p], w) for p, w in pre.items())
            )
            post_rows.append(
                tuple((self.place_index[p], w) for p, w in post.items())
            )
            # net effect of firing: only places whose count changes
            effect: dict[int, int] = {}
            for p, w in pre.items():
                effect[self.place_index[p]] = effect.get(
                    self.place_index[p], 0
                ) - w
            for p, w in post.items():
                effect[self.place_index[p]] = effect.get(
                    self.place_index[p], 0
                ) + w
            delta_rows.append(
                tuple((i, d) for i, d in effect.items() if d != 0)
            )
        self.pre = tuple(pre_rows)
        self.post = tuple(post_rows)
        self.delta = tuple(delta_rows)

        self.eft: tuple[int, ...] = tuple(
            net.transition(t).interval.eft for t in self.transition_names
        )
        self.lft: tuple[float, ...] = tuple(
            net.transition(t).interval.lft for t in self.transition_names
        )
        self.priority: tuple[int, ...] = tuple(
            net.transition(t).priority for t in self.transition_names
        )
        self.tasks: tuple[str | None, ...] = tuple(
            net.transition(t).task for t in self.transition_names
        )
        self.final_marking: tuple[int | None, ...] = (
            net.final_marking_vector()
        )
        self.miss_places: tuple[int, ...] = tuple(
            self.place_index[p.name]
            for p in net.places
            if p.role == "deadline-miss"
        )
        self.final_constraints: tuple[tuple[int, int], ...] = tuple(
            (i, required)
            for i, required in enumerate(self.final_marking)
            if required is not None
        )
        self.miss_transitions: frozenset[int] = frozenset(
            i
            for i, t in enumerate(self.transition_names)
            if net.transition(t).role == ROLE_DEADLINE_MISS
        )
        # deadline_timer[t]: the deadline-miss transition timing t's
        # task (-1: none); the min-laxity search policy reads its clock
        miss_of = {self.tasks[t]: t for t in sorted(self.miss_transitions)}
        self.deadline_timer: tuple[int, ...] = tuple(
            -1 if task is None else miss_of.get(task, -1)
            for task in self.tasks
        )

        # ---- sparse dependency structure for the kernel engine ----
        # Place-indexed views of the flow relation and, per transition,
        # the set of transitions whose enabledness can change when it
        # fires.  These are what keep successor computation O(degree)
        # instead of O(|T|·|P|) in the state-space hot path.
        self.pre_places: tuple[frozenset[int], ...] = tuple(
            frozenset(p for p, _w in row) for row in self.pre
        )
        consumers: dict[int, list[int]] = {}
        for t, places in enumerate(self.pre_places):
            for p in places:
                consumers.setdefault(p, []).append(t)
        # affected[t]: transitions (t itself included) whose enabledness
        # or clock-reset status can differ after t fires.  Built from the
        # places t touches: net-effect places (delta) cover marking
        # changes; preset places additionally cover self-loops, whose
        # transient token dip matters under intermediate-marking
        # clock-reset semantics.
        affected_rows: list[tuple[int, ...]] = []
        for t in range(self.num_transitions):
            touched = {p for p, _d in self.delta[t]}
            touched.update(self.pre_places[t])
            neighbours = {t}
            for p in touched:
                neighbours.update(consumers.get(p, ()))
            affected_rows.append(tuple(sorted(neighbours)))
        self.affected: tuple[tuple[int, ...], ...] = tuple(affected_rows)
        # Transitions that can never conflict with anything, now or in
        # the future: every input place is consumed by this transition
        # only (used by the scheduler's partial-order reduction).
        self.conflict_free: tuple[bool, ...] = tuple(
            bool(places)
            and all(len(consumers[p]) == 1 for p in places)
            for places in self.pre_places
        )
        # Marking-predicate skip masks: a child state's deadline-miss /
        # final-marking status can only differ from its parent's when
        # the fired transition adds tokens to a miss place (resp.
        # changes a constrained place), so the search re-evaluates the
        # predicates only for these transitions.
        miss_set = set(self.miss_places)
        self.touches_miss: tuple[bool, ...] = tuple(
            any(p in miss_set and d > 0 for p, d in self.delta[t])
            for t in range(self.num_transitions)
        )
        constrained = {p for p, _req in self.final_constraints}
        self.touches_final: tuple[bool, ...] = tuple(
            any(p in constrained for p, _d in self.delta[t])
            for t in range(self.num_transitions)
        )
        # Immediate ([0,0]) transitions: while one is enabled its clock
        # is pinned to 0 (strong semantics forces q=0 firings), so any
        # enabled immediate makes the global min-DUB ceiling exactly 0.
        self.immediate: tuple[bool, ...] = tuple(
            self.eft[t] == 0 and self.lft[t] == 0
            for t in range(self.num_transitions)
        )
        # post_conflicts[t]: transitions (other than t) consuming from
        # t's postset — the partial-order reduction's clock-commutation
        # check reduces to one disjointness test against the enabled set.
        self.post_conflicts: tuple[frozenset[int], ...] = tuple(
            frozenset(
                tk
                for p, _w in self.post[t]
                for tk in consumers.get(p, ())
                if tk != t
            )
            for t in range(self.num_transitions)
        )

    # ------------------------------------------------------------------
    # Pickling (parallel-search handoff)
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        """Ship only the compiled vectors, not the builder.

        The parallel scheduler sends one ``CompiledNet`` to every
        worker process; the ``source`` builder (name-keyed dicts of
        dataclasses) dwarfs the compiled arrays and no engine reads it,
        so it is dropped from the pickle.  An unpickled net therefore
        has ``source is None`` — everything the schedulers, engines and
        schedule extraction need lives in the compiled slots.
        """
        return {
            slot: getattr(self, slot)
            for slot in self.__slots__
            if slot != "source"
        }

    def __setstate__(self, state: dict) -> None:
        for slot, value in state.items():
            setattr(self, slot, value)
        self.source = None

    @property
    def num_places(self) -> int:
        return len(self.place_names)

    @property
    def num_transitions(self) -> int:
        return len(self.transition_names)

    def is_final(self, marking: tuple[int, ...]) -> bool:
        """Whether ``marking`` satisfies the final-marking constraint."""
        for place, required in self.final_constraints:
            if marking[place] != required:
                return False
        return True

    def has_missed_deadline(self, marking: tuple[int, ...]) -> bool:
        """Whether any deadline-miss place is marked (undesirable state)."""
        return any(marking[i] > 0 for i in self.miss_places)

    def interval_of(self, index: int) -> TimeInterval:
        lft = self.lft[index]
        return TimeInterval(self.eft[index], lft if lft == INF else int(lft))

    def __repr__(self) -> str:
        return (
            f"CompiledNet({self.name!r}, |P|={self.num_places}, "
            f"|T|={self.num_transitions})"
        )


def net_union(name: str, nets: Iterable[TimePetriNet]) -> TimePetriNet:
    """Disjoint union of nets (node names must not collide).

    This is the primitive behind the block composition operators; name
    collisions raise so that accidental overlap is caught early.  Final
    markings are merged.
    """
    result = TimePetriNet(name)
    for net in nets:
        for place in net.places:
            result.add_place(
                place.name,
                marking=place.marking,
                label=place.label,
                role=place.role,
                task=place.task,
            )
        for transition in net.transitions:
            result.add_transition(
                transition.name,
                interval=transition.interval,
                priority=transition.priority,
                code=transition.code,
                label=transition.label,
                role=transition.role,
                task=transition.task,
            )
        for t in net.transition_names:
            for p, w in net.preset(t).items():
                result.add_arc(p, t, w)
            for p, w in net.postset(t).items():
                result.add_arc(t, p, w)
        merged = dict(result.final_marking)
        merged.update(net.final_marking)
        result.final_marking = merged
    return result
