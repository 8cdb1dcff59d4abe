"""Specification → time Petri net translation (paper Section 4.3).

The composer performs the five generation steps the paper lists:

  i) arrival, deadline and task-structure blocks for each task;
 ii) each precedence and exclusion relation;
iii) each inter-task communication;
 iv) the fork block;
  v) the join block;

then fixes the explicit final marking ``M_F`` (system complete, every
resource token back home) and assigns transition priorities according to
a configurable policy.  The result bundles the net together with the
handles downstream stages need (instance counts, node names, the
theoretical minimum firing count).
"""

from __future__ import annotations

from repro._record import Record
from repro.errors import NetConstructionError
from repro.blocks.blocks import (
    BlockStyle,
    DECISION_PRIORITY,
    TaskNodes,
    add_bus_block,
    add_fork_block,
    add_join_block,
    add_processor_block,
    add_task_blocks,
)
from repro.blocks.relations import (
    add_exclusion_relation,
    add_message_relation,
    add_precedence_relation,
)
from repro.spec.model import EzRTSpec, Task
from repro.spec.timing import instance_count, schedule_period
from repro.spec.validation import ensure_valid
from repro.tpn.net import CompiledNet, TimePetriNet

#: Priority policies for scheduling-decision transitions (grant/gate).
#: ``dm`` — deadline monotonic (smaller relative deadline = higher
#: priority); ``rm`` — rate monotonic (smaller period wins); ``lex`` —
#: specification order; ``none`` — all decisions share one priority
#: (maximum branching, useful for ablations).
PRIORITY_POLICIES = ("dm", "rm", "lex", "none")


class ComposerOptions(Record):
    """Tunables of the spec→TPN translation.

    Attributes:
        style: block library flavour (compact or expanded); its value
            string is accepted too.
        priority_policy: how decision transitions are ranked.
    """

    __slots__ = ("style", "priority_policy")

    def __init__(
        self,
        style: BlockStyle | str = BlockStyle.COMPACT,
        priority_policy: str = "dm",
    ) -> None:
        self.style = BlockStyle(style) if isinstance(style, str) else style
        if priority_policy not in PRIORITY_POLICIES:
            raise NetConstructionError(
                f"unknown priority policy {priority_policy!r}; "
                f"expected one of {PRIORITY_POLICIES}"
            )
        self.priority_policy = priority_policy


class ComposedModel(Record):
    """A specification translated to a time Petri net.

    Attributes:
        spec: the validated source specification.
        net: the composed time Petri net (final marking set).
        schedule_period: the hyper-period ``PS``.
        instances: task name → instance count ``N(t_i)``.
        nodes: task name → node-name handles.
        options: the translation options used.
        message_nodes: message name → transfer-block node names.
    """

    __slots__ = (
        "spec",
        "net",
        "schedule_period",
        "instances",
        "nodes",
        "options",
        "message_nodes",
        "_compiled",
    )

    def __init__(
        self,
        spec: EzRTSpec,
        net: TimePetriNet,
        schedule_period: int,
        instances: dict[str, int],
        nodes: dict[str, TaskNodes],
        options: ComposerOptions,
        message_nodes: dict[str, dict[str, str]] | None = None,
    ) -> None:
        self.spec = spec
        self.net = net
        self.schedule_period = schedule_period
        self.instances = instances
        self.nodes = nodes
        self.options = options
        self.message_nodes = {} if message_nodes is None else message_nodes
        #: lazily cached compiled net — every pipeline stage (schedule,
        #: codegen, simulate, reporting) shares one compilation instead
        #: of re-freezing the net per stage.
        self._compiled: CompiledNet | None = None

    def compiled(self) -> CompiledNet:
        """The index-based :class:`CompiledNet`, compiled once.

        The model's net must not be mutated after the first call; the
        composer never does, and neither should downstream code.
        """
        if self._compiled is None:
            self._compiled = self.net.compile()
        return self._compiled

    @property
    def total_instances(self) -> int:
        """Total task instances in the schedule period (Table 1: 782)."""
        return sum(self.instances.values())

    def required_horizon(self) -> int:
        """Time needed to complete every instance of one schedule period.

        With non-zero phases the last instance's absolute deadline
        ``ph + (N−1)·p + d`` may exceed ``PS``; executors must run to
        this horizon, not just to ``PS``.
        """
        horizon = self.schedule_period
        for task in self.spec.tasks:
            last_deadline = (
                task.phase
                + (self.instances[task.name] - 1) * task.period
                + task.deadline
            )
            horizon = max(horizon, last_deadline)
        return horizon

    def minimum_firings(self) -> int:
        """Length of a backtrack-free feasible firing schedule.

        Counted from the actual structure: every instance needs its
        arrival, release, optional gate, grant/compute firings (one pair
        per computation unit for preemptive tasks), optional finish and
        cancel firings; messages add their grant and transfer; fork and
        join contribute one firing each.  For Table 1 with compact
        blocks this is the paper's minimum state count 3130.
        """
        total = 2  # fork + join
        for task in self.spec.tasks:
            handles = self.nodes[task.name]
            per_instance = 2  # arrival (t_ph or t_a) + release
            if self.net.has_transition(f"tl_{_safe(task.name)}"):
                per_instance += 1
            if task.is_preemptive:
                per_instance += 2 * task.computation
            else:
                per_instance += 2  # grant + compute
            if handles.finish_t is not None:
                per_instance += 1
            if handles.cancel_t is not None:
                per_instance += 1
            total += per_instance * self.instances[task.name]
        for message in self.spec.messages:
            sender = message.sender
            if sender is None:
                continue
            total += 2 * self.instances[sender]
        return total


def _safe(name: str) -> str:
    from repro.blocks.blocks import sanitize

    return sanitize(name)


def compose(
    spec: EzRTSpec, options: ComposerOptions | None = None
) -> ComposedModel:
    """Translate a specification into its time Petri net model."""
    options = options or ComposerOptions()
    ensure_valid(spec)
    period = schedule_period(spec)
    net = TimePetriNet(spec.name)

    # Resource blocks (processors, buses).
    processor_places = {
        name: add_processor_block(net, name)
        for name in spec.processor_names()
    }
    bus_places = {
        name: add_bus_block(net, name) for name in spec.bus_names()
    }

    # Step i: arrival + deadline + task structure blocks per task.
    instances: dict[str, int] = {}
    nodes: dict[str, TaskNodes] = {}
    for task in spec.tasks:
        n = instance_count(task, period)
        instances[task.name] = n
        nodes[task.name] = add_task_blocks(
            net,
            task,
            n,
            processor_places[task.processor],
            style=options.style,
        )

    # Step ii: precedence and exclusion relations.
    for first, second in spec.exclusion_pairs():
        add_exclusion_relation(
            net,
            nodes[first],
            spec.task(first),
            nodes[second],
            spec.task(second),
        )
    for before, after in spec.precedence_pairs():
        add_precedence_relation(
            net, nodes[before], nodes[after], spec.task(after)
        )

    # Step iii: inter-task communications.
    message_nodes: dict[str, dict[str, str]] = {}
    undelivered: list[tuple[str, str]] = []  # (pdel place, sender)
    for message in spec.messages:
        if message.sender is None:
            raise NetConstructionError(
                f"message {message.name!r} has no sender task; it "
                "cannot be attached to the net"
            )
        receiver_nodes = None
        receiver_task = None
        if message.precedes is not None:
            receiver_nodes = nodes[message.precedes]
            receiver_task = spec.task(message.precedes)
        message_nodes[message.name] = add_message_relation(
            net,
            message,
            nodes[message.sender],
            bus_places[message.bus],
            receiver_nodes,
            receiver_task,
        )
        if message.precedes is None:
            undelivered.append(
                (message_nodes[message.name]["delivered"], message.sender)
            )

    # Step iv: fork block.
    add_fork_block(net, [nodes[t.name].start for t in spec.tasks])

    # Step v: join block.  Each task contributes N completion tokens;
    # receiver-less messages drain their delivered tokens here so the
    # final marking stays exact.
    contributions = {
        nodes[t.name].finished_pool: instances[t.name]
        for t in spec.tasks
    }
    for place, sender in undelivered:
        contributions[place] = instances[sender]
    end_place = add_join_block(net, contributions)

    # Final marking M_F: join token present, every resource token back,
    # everything else empty.
    final = {p.name: 0 for p in net.places}
    final[end_place] = 1
    for place in processor_places.values():
        final[place] = 1
    for place in bus_places.values():
        final[place] = 1
    for place in net.places_with_role("exclusion"):
        final[place.name] = 1
    net.set_final_marking(final)

    _assign_priorities(net, spec, options.priority_policy)
    net.validate()
    return ComposedModel(
        spec=spec,
        net=net,
        schedule_period=period,
        instances=instances,
        nodes=nodes,
        options=options,
        message_nodes=message_nodes,
    )


def task_ranks(spec: EzRTSpec, policy: str) -> dict[str, int]:
    """Rank tasks for the priority policy (rank 0 = most urgent)."""
    if policy == "none":
        return {task.name: 0 for task in spec.tasks}
    if policy == "dm":
        ordered = sorted(
            spec.tasks, key=lambda t: (t.deadline, spec.tasks.index(t))
        )
    elif policy == "rm":
        ordered = sorted(
            spec.tasks, key=lambda t: (t.period, spec.tasks.index(t))
        )
    elif policy == "lex":
        ordered = list(spec.tasks)
    else:
        raise NetConstructionError(f"unknown priority policy {policy!r}")
    return {task.name: rank for rank, task in enumerate(ordered)}


def _assign_priorities(
    net: TimePetriNet, spec: EzRTSpec, policy: str
) -> None:
    """Write the priority function π onto decision transitions.

    Grant and gate transitions receive ``DECISION_PRIORITY`` plus the
    policy's *attribute value* (relative deadline for ``dm``, period
    for ``rm``, declaration index for ``lex``, zero for ``none``) so
    the search tries urgent tasks first.  Using the attribute itself —
    rather than a total-order rank — keeps tasks with equal attributes
    at equal priority, which matters for the paper's strict ``FT(s)``
    filter: the whole tie group stays fireable and backtracking can
    reorder within it (the mine pump needs exactly that at t=75, where
    PDL must be tried after CH4H fails).
    """
    values: dict[str, int]
    if policy == "dm":
        values = {t.name: t.deadline for t in spec.tasks}
    elif policy == "rm":
        values = {t.name: t.period for t in spec.tasks}
    elif policy == "lex":
        values = {t.name: i for i, t in enumerate(spec.tasks)}
    elif policy == "none":
        values = {t.name: 0 for t in spec.tasks}
    else:
        raise NetConstructionError(f"unknown priority policy {policy!r}")
    for transition in net.transitions:
        if transition.role in ("grant", "gate") and transition.task:
            transition.priority = (
                DECISION_PRIORITY + values[transition.task]
            )
