"""The ezRealtime specification metamodel (paper Fig. 5, Section 3.2).

The paper defines its metamodel in EMF/Ecore; this module is the plain
Python equivalent with the same classes, fields and relations:

* :class:`EzRTSpec` — the specification root (``name``, ``dispOveh``,
  ``identifier``; owns tasks, processors and messages);
* :class:`Task` — a periodic task ``(ph, r, c, d, p)`` with per-task
  scheduling method, energy annotation, behavioural source code and the
  ``precedesTasks`` / ``excludesTasks`` / ``precedesMsgs`` relations;
* :class:`Processor` — a processing resource (the paper's evaluation is
  mono-processor; multiple processors are accepted and each becomes its
  own resource place);
* :class:`Message` — an inter-task communication carried by a ``bus``
  resource for ``communication`` time units, optionally preceding a
  receiver task;
* :class:`SourceCode` — behavioural C code attached to a task;
* :class:`SchedulingType` — ``NON_PREEMPTIVE`` (``NP``) or
  ``PREEMPTIVE`` (``P``).

Relations are stored by *task/message name*; the ``identifier`` fields
carry the DSL's machine identifiers (``ez...``) and are auto-generated
when absent so any spec can round-trip through the XML DSL.
"""

from __future__ import annotations

import itertools
from enum import Enum

from repro._record import Record
from repro.errors import SpecificationError

_id_counter = itertools.count(1)


def fresh_identifier(prefix: str = "ez") -> str:
    """Generate a unique DSL identifier (``ez1``, ``ez2``, ...)."""
    return f"{prefix}{next(_id_counter)}"


class SchedulingType(Enum):
    """Per-task scheduling method (paper Section 3.2).

    Non-preemptive tasks hold the processor for their whole computation
    time; preemptive tasks are implicitly split into unit-time subtasks
    (Fig. 2(b)) and may be interleaved.
    """

    NON_PREEMPTIVE = "NP"
    PREEMPTIVE = "P"

    @classmethod
    def parse(cls, text: str) -> "SchedulingType":
        """Accept ``NP``/``P`` codes or full names, case-insensitively."""
        normalized = text.strip().upper()
        aliases = {
            "NP": cls.NON_PREEMPTIVE,
            "NONPREEMPTIVE": cls.NON_PREEMPTIVE,
            "NON-PREEMPTIVE": cls.NON_PREEMPTIVE,
            "NON_PREEMPTIVE": cls.NON_PREEMPTIVE,
            "P": cls.PREEMPTIVE,
            "PREEMPTIVE": cls.PREEMPTIVE,
        }
        if normalized not in aliases:
            raise SpecificationError(
                f"unknown scheduling type {text!r} (expected NP or P)"
            )
        return aliases[normalized]


class SourceCode(Record):
    """Behavioural source code of a task (``C_S`` codomain element).

    ``content`` is a C fragment: the body that the code generator splices
    into the emitted task function.
    """

    __slots__ = ("content", "identifier")

    def __init__(self, content: str, identifier: str = "") -> None:
        self.content = content
        self.identifier = identifier or fresh_identifier("ezsrc")


class Processor(Record):
    """A processing resource; becomes a single-token resource place."""

    __slots__ = ("name", "identifier")

    def __init__(self, name: str, identifier: str = "") -> None:
        if not name:
            raise SpecificationError("processor name must be non-empty")
        self.name = name
        self.identifier = identifier or fresh_identifier("ezproc")


class Message(Record):
    """An inter-task message carried by a bus (paper Fig. 5).

    Attributes:
        name: unique message name.
        bus: name of the bus resource the transfer occupies.
        communication: transfer time in time units (the message's WCET
            on the bus).
        grant_bus: bus-grant latency in time units (modelled as the
            EFT of the bus-grant transition).
        sender: name of the task whose completion emits the message
            (the task lists the message in ``precedes_msgs``).
        precedes: name of the receiver task that may only start after
            the transfer completes (the metamodel's ``precedes 0..1``).
        identifier: DSL identifier.
    """

    __slots__ = (
        "name",
        "bus",
        "communication",
        "grant_bus",
        "sender",
        "precedes",
        "identifier",
    )

    def __init__(
        self,
        name: str,
        bus: str = "bus0",
        communication: int = 0,
        grant_bus: int = 0,
        sender: str | None = None,
        precedes: str | None = None,
        identifier: str = "",
    ) -> None:
        if not name:
            raise SpecificationError("message name must be non-empty")
        if communication < 0:
            raise SpecificationError(
                f"message {name!r}: communication time must be >= 0"
            )
        if grant_bus < 0:
            raise SpecificationError(
                f"message {name!r}: grantBus must be >= 0"
            )
        self.name = name
        self.bus = bus
        self.communication = communication
        self.grant_bus = grant_bus
        self.sender = sender
        self.precedes = precedes
        self.identifier = identifier or fresh_identifier("ezmsg")


class Task(Record):
    """A periodic hard real-time task (paper Section 3.2).

    Timing constraints ``(ph, r, c, d, p)``:

    * ``phase`` — delay of the first request after system start;
    * ``release`` — earliest start, relative to the period begin;
    * ``computation`` — worst-case execution time (WCET);
    * ``deadline`` — completion bound, relative to the period begin;
    * ``period`` — request periodicity.

    The paper requires ``c ≤ d ≤ p``; validation additionally enforces
    ``r + c ≤ d`` so the release interval ``[r, d − c]`` is well formed.
    """

    __slots__ = (
        "name",
        "computation",
        "deadline",
        "period",
        "release",
        "phase",
        "scheduling",
        "energy",
        "processor",
        "code",
        "precedes_tasks",
        "excludes_tasks",
        "precedes_msgs",
        "identifier",
    )

    def __init__(
        self,
        name: str,
        computation: int,
        deadline: int,
        period: int,
        release: int = 0,
        phase: int = 0,
        scheduling: SchedulingType = SchedulingType.NON_PREEMPTIVE,
        energy: int = 0,
        processor: str = "proc0",
        code: SourceCode | None = None,
        precedes_tasks: list[str] | None = None,
        excludes_tasks: list[str] | None = None,
        precedes_msgs: list[str] | None = None,
        identifier: str = "",
    ) -> None:
        if not name:
            raise SpecificationError("task name must be non-empty")
        self.name = name
        self.computation = computation
        self.deadline = deadline
        self.period = period
        self.release = release
        self.phase = phase
        self.scheduling = scheduling
        self.energy = energy
        self.processor = processor
        self.code = code
        self.precedes_tasks = [] if precedes_tasks is None else precedes_tasks
        self.excludes_tasks = [] if excludes_tasks is None else excludes_tasks
        self.precedes_msgs = [] if precedes_msgs is None else precedes_msgs
        self.identifier = identifier or fresh_identifier()
        for label, value in (
            ("computation", self.computation),
            ("deadline", self.deadline),
            ("period", self.period),
            ("release", self.release),
            ("phase", self.phase),
            ("energy", self.energy),
        ):
            if not isinstance(value, int) or isinstance(value, bool):
                raise SpecificationError(
                    f"task {self.name!r}: {label} must be an integer, "
                    f"got {value!r}"
                )
        if self.computation < 1:
            raise SpecificationError(
                f"task {self.name!r}: computation must be >= 1"
            )
        if self.period < 1:
            raise SpecificationError(
                f"task {self.name!r}: period must be >= 1"
            )
        if self.release < 0 or self.phase < 0 or self.energy < 0:
            raise SpecificationError(
                f"task {self.name!r}: release, phase and energy must be "
                ">= 0"
            )

    # Derived quantities -------------------------------------------------
    @property
    def is_preemptive(self) -> bool:
        return self.scheduling is SchedulingType.PREEMPTIVE

    @property
    def utilization(self) -> float:
        """``c / p`` — the task's processor utilisation."""
        return self.computation / self.period

    @property
    def release_window(self) -> tuple[int, int]:
        """``[r, d − c]`` — admissible start window within a period."""
        return (self.release, self.deadline - self.computation)

    @property
    def laxity(self) -> int:
        """``d − r − c`` — scheduling slack within one period."""
        return self.deadline - self.release - self.computation


class EzRTSpec(Record):
    """Root of an ezRealtime specification (metamodel class ``EzRTSpec``).

    Attributes:
        name: specification name.
        disp_oveh: whether dispatcher overhead should be accounted for
            by downstream code generation (the metamodel's ``dispOveh``
            flag).
        tasks / processors / messages: owned model elements.
    """

    __slots__ = (
        "name",
        "disp_oveh",
        "tasks",
        "processors",
        "messages",
        "identifier",
    )

    def __init__(
        self,
        name: str,
        disp_oveh: bool = False,
        tasks: list[Task] | None = None,
        processors: list[Processor] | None = None,
        messages: list[Message] | None = None,
        identifier: str = "",
    ) -> None:
        self.name = name
        self.disp_oveh = disp_oveh
        self.tasks = [] if tasks is None else tasks
        self.processors = [] if processors is None else processors
        self.messages = [] if messages is None else messages
        self.identifier = identifier or fresh_identifier("ezspec")

    # Lookup -------------------------------------------------------------
    def task(self, name: str) -> Task:
        """Task by name (raises on unknown names)."""
        for task in self.tasks:
            if task.name == name:
                return task
        raise SpecificationError(f"unknown task {name!r}")

    def message(self, name: str) -> Message:
        """Message by name (raises on unknown names)."""
        for message in self.messages:
            if message.name == name:
                return message
        raise SpecificationError(f"unknown message {name!r}")

    def task_names(self) -> tuple[str, ...]:
        return tuple(task.name for task in self.tasks)

    def by_identifier(self, identifier: str):
        """Resolve any element (task/message/processor) by identifier."""
        for group in (self.tasks, self.messages, self.processors):
            for element in group:
                if element.identifier == identifier:
                    return element
        raise SpecificationError(f"unknown identifier {identifier!r}")

    # Mutation helpers ---------------------------------------------------
    def add_task(self, task: Task) -> Task:
        if any(t.name == task.name for t in self.tasks):
            raise SpecificationError(f"duplicate task name {task.name!r}")
        self.tasks.append(task)
        return task

    def add_processor(self, processor: Processor) -> Processor:
        if any(p.name == processor.name for p in self.processors):
            raise SpecificationError(
                f"duplicate processor name {processor.name!r}"
            )
        self.processors.append(processor)
        return processor

    def add_message(self, message: Message) -> Message:
        if any(m.name == message.name for m in self.messages):
            raise SpecificationError(
                f"duplicate message name {message.name!r}"
            )
        self.messages.append(message)
        return message

    def add_precedence(self, before: str, after: str) -> None:
        """Declare ``before PRECEDES after`` (paper Section 3.2)."""
        self.task(before)
        self.task(after)
        if after not in self.task(before).precedes_tasks:
            self.task(before).precedes_tasks.append(after)

    def add_exclusion(self, first: str, second: str) -> None:
        """Declare ``first EXCLUDES second`` (kept symmetric).

        The paper adopts symmetric exclusion: ``A EXCLUDES B`` implies
        ``B EXCLUDES A``; both directions are recorded.
        """
        a, b = self.task(first), self.task(second)
        if first == second:
            raise SpecificationError(
                f"task {first!r} cannot exclude itself"
            )
        if second not in a.excludes_tasks:
            a.excludes_tasks.append(second)
        if first not in b.excludes_tasks:
            b.excludes_tasks.append(first)

    # Derived ------------------------------------------------------------
    def exclusion_pairs(self) -> list[tuple[str, str]]:
        """Symmetric exclusion relation as sorted unique pairs."""
        pairs: set[tuple[str, str]] = set()
        for task in self.tasks:
            for other in task.excludes_tasks:
                pairs.add(tuple(sorted((task.name, other))))
        return sorted(pairs)

    def precedence_pairs(self) -> list[tuple[str, str]]:
        """Precedence relation as ``(before, after)`` pairs."""
        pairs: list[tuple[str, str]] = []
        for task in self.tasks:
            for other in task.precedes_tasks:
                pairs.append((task.name, other))
        return sorted(pairs)

    def total_utilization(self) -> float:
        """Sum of task utilisations (messages excluded: bus ≠ CPU)."""
        return sum(task.utilization for task in self.tasks)

    def processor_names(self) -> tuple[str, ...]:
        """Declared processors plus any referenced implicitly by tasks."""
        declared = [p.name for p in self.processors]
        for task in self.tasks:
            if task.processor not in declared:
                declared.append(task.processor)
        return tuple(declared)

    def bus_names(self) -> tuple[str, ...]:
        """All bus resources referenced by messages."""
        buses: list[str] = []
        for message in self.messages:
            if message.bus not in buses:
                buses.append(message.bus)
        return tuple(buses)

    def __repr__(self) -> str:
        return (
            f"EzRTSpec({self.name!r}, tasks={len(self.tasks)}, "
            f"messages={len(self.messages)}, "
            f"U={self.total_utilization():.3f})"
        )
