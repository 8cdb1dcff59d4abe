"""From feasible firing schedules to task-level schedule tables.

"The scheduled code is generated by traversing the feasible schedule"
(paper abstract): this module performs the traversal.  Grant firings
mark processor acquisitions — a whole computation for non-preemptive
tasks, one time unit for preemptive ones — and are folded into
execution *segments*; contiguous unit segments of one instance merge, so
a preempted instance appears as several segments.  The segments then
become the ``struct ScheduleItem`` rows of Fig. 8: start time, a flag
telling the dispatcher whether the task was preempted before (resume),
the task id and the task function.

:func:`validate_schedule` re-checks a schedule *independently of the
search*: instance counts, WCET delivery, release/deadline windows,
processor mutual exclusion, precedence, exclusion and message ordering.
The test-suite runs every synthesised schedule through it, so a bug in
the TPN semantics cannot silently produce a wrong-but-accepted table.

The dense-time state-class engine additionally reports *interval-
valued* entries: each firing carries the dense window
``[earliest, latest]`` its concrete integer time was picked from.
:class:`DenseScheduleEntry` / :func:`dense_schedule_entries` lift the
result's raw ``interval_schedule`` tuples into that shape, and
:func:`format_dense_schedule` renders the window table the CLI prints
under ``--engine stateclass --profile``.
"""

from __future__ import annotations

from repro._record import FrozenRecord, Record
from repro.errors import SchedulingError
from repro.blocks.composer import ComposedModel
from repro.scheduler.result import SchedulerResult
from repro.tpn.interval import INF
from repro.tpn.net import ROLE_GRANT


class ExecutionSegment(FrozenRecord):
    """A maximal interval during which one instance occupies the CPU."""

    __slots__ = ("task", "instance", "start", "end")
    task: str
    instance: int
    start: int
    end: int

    def __init__(
        self, task: str, instance: int, start: int, end: int
    ) -> None:
        object.__setattr__(self, "task", task)
        object.__setattr__(self, "instance", instance)
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "end", end)

    @property
    def duration(self) -> int:
        return self.end - self.start


class BusSegment(FrozenRecord):
    """A message transfer occupying a bus."""

    __slots__ = ("message", "instance", "start", "end")
    message: str
    instance: int
    start: int
    end: int

    def __init__(
        self, message: str, instance: int, start: int, end: int
    ) -> None:
        object.__setattr__(self, "message", message)
        object.__setattr__(self, "instance", instance)
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "end", end)


class DenseScheduleEntry(FrozenRecord):
    """One firing of a dense-time schedule with its admissible window.

    Attributes:
        transition: transition name.
        at: the concrete integer firing time the schedule uses (the
            earliest solution of the run's timing constraints, so
            ``at == earliest`` always holds today).
        earliest: least admissible absolute firing time of this step
            across every timed realisation of the firing sequence.
        latest: greatest admissible absolute firing time (``INF`` when
            no enabled transition's LFT ever forces the step).
    """

    __slots__ = ("transition", "at", "earliest", "latest")
    transition: str
    at: int
    earliest: int
    latest: float

    def __init__(
        self, transition: str, at: int, earliest: int, latest: float
    ) -> None:
        object.__setattr__(self, "transition", transition)
        object.__setattr__(self, "at", at)
        object.__setattr__(self, "earliest", earliest)
        object.__setattr__(self, "latest", latest)

    @property
    def width(self) -> float:
        """Slack of the firing: ``latest − earliest`` (may be INF)."""
        return self.latest - self.earliest


def dense_schedule_entries(
    result: SchedulerResult,
) -> list[DenseScheduleEntry]:
    """Interval-valued entries of a state-class engine result.

    Raises when the result carries no dense windows (discrete engines
    and infeasible results do not).
    """
    if result.interval_schedule is None:
        raise SchedulingError(
            "result carries no dense firing windows (only the "
            "stateclass engine produces them, and only for feasible "
            "schedules)"
        )
    entries = []
    for (name, _delay, at), (wname, earliest, latest) in zip(
        result.firing_schedule, result.interval_schedule
    ):
        if name != wname:
            raise SchedulingError(
                "firing schedule and dense windows disagree: "
                f"{name!r} vs {wname!r}"
            )
        entries.append(
            DenseScheduleEntry(
                transition=name,
                at=at,
                earliest=earliest,
                latest=latest,
            )
        )
    return entries


def format_dense_schedule(
    entries: list[DenseScheduleEntry],
    limit: int | None = None,
    slack: bool = False,
) -> str:
    """Human-readable dense-window table (one row per firing).

    ``slack=True`` appends a per-firing slack column
    (``latest − earliest``, the firing's remaining scheduling
    freedom); :func:`repro.analysis.interval_slack_report` builds on
    it, so there is exactly one renderer of this table.
    """
    shown = entries if limit is None else entries[:limit]
    # never narrower than the "transition" header itself
    width = max(10, max((len(e.transition) for e in shown), default=0))
    header = f"{'transition':<{width}}  {'fires at':>8}  "
    header += f"{'dense window':<14}  slack" if slack else "dense window"
    lines = [header]
    for entry in shown:
        upper = "inf" if entry.latest == INF else str(int(entry.latest))
        row = (
            f"{entry.transition:<{width}}  {entry.at:>8}  "
        )
        window = f"[{entry.earliest}, {upper}]"
        if slack:
            gap = (
                "inf"
                if entry.latest == INF
                else str(int(entry.latest) - entry.earliest)
            )
            row += f"{window:<14}  {gap}"
        else:
            row += window
        lines.append(row)
    if limit is not None and len(entries) > limit:
        lines.append(f"... {len(entries) - limit} more firing(s)")
    return "\n".join(lines)


class ScheduleItem(FrozenRecord):
    """One row of the dispatcher's schedule table (Fig. 8).

    Attributes:
        start: dispatch time (timer-interrupt match value).
        preempted: the paper's flag — True when the task instance was
            preempted before and this entry resumes it (the dispatcher
            restores context instead of calling the function fresh).
        task_id: 1-based task identifier.
        task: task name.
        instance: 1-based instance number within the schedule period.
        comment: the Fig. 8 style annotation ("B1 preempts A1", ...).
    """

    __slots__ = (
        "start",
        "preempted",
        "task_id",
        "task",
        "instance",
        "comment",
    )
    start: int
    preempted: bool
    task_id: int
    task: str
    instance: int
    comment: str

    def __init__(
        self,
        start: int,
        preempted: bool,
        task_id: int,
        task: str,
        instance: int,
        comment: str,
    ) -> None:
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "preempted", preempted)
        object.__setattr__(self, "task_id", task_id)
        object.__setattr__(self, "task", task)
        object.__setattr__(self, "instance", instance)
        object.__setattr__(self, "comment", comment)


class TaskLevelSchedule(Record):
    """A complete extracted schedule over one schedule period."""

    __slots__ = ("segments", "items", "bus_segments", "schedule_period")

    def __init__(
        self,
        segments: list[ExecutionSegment],
        items: list[ScheduleItem],
        bus_segments: list[BusSegment] | None = None,
        schedule_period: int = 0,
    ) -> None:
        self.segments = segments
        self.items = items
        self.bus_segments = [] if bus_segments is None else bus_segments
        self.schedule_period = schedule_period

    @property
    def makespan(self) -> int:
        return max((s.end for s in self.segments), default=0)

    def busy_time(self) -> int:
        """Total processor-busy time across the schedule period."""
        return sum(s.duration for s in self.segments)

    def idle_time(self) -> int:
        """Processor idle time within the schedule period."""
        return self.schedule_period - self.busy_time()

    def segments_of(self, task: str, instance: int | None = None):
        """Segments of one task (optionally one instance), in order."""
        return [
            s
            for s in self.segments
            if s.task == task
            and (instance is None or s.instance == instance)
        ]

    def response_times(self, model: ComposedModel) -> dict[str, int]:
        """Worst observed response time (completion − arrival) per task."""
        # one pass: an instance completes with its last segment
        completion: dict[tuple[str, int], int] = {}
        for seg in self.segments:
            completion[(seg.task, seg.instance)] = seg.end
        worst: dict[str, int] = {}
        for task in model.spec.tasks:
            for k in range(1, model.instances[task.name] + 1):
                end = completion.get((task.name, k))
                if end is None:
                    continue
                arrival = task.phase + (k - 1) * task.period
                worst[task.name] = max(
                    worst.get(task.name, 0), end - arrival
                )
        return worst


def extract_schedule(
    model: ComposedModel, result: SchedulerResult
) -> TaskLevelSchedule:
    """Traverse a feasible firing schedule into a task-level schedule."""
    if not result.feasible:
        raise SchedulingError(
            "cannot extract a schedule from an infeasible result"
        )
    spec = model.spec
    computation = {t.name: t.computation for t in spec.tasks}
    preemptive = {t.name: t.is_preemptive for t in spec.tasks}
    grant_owner: dict[str, str] = {}
    for transition in model.net.transitions:
        if transition.role == ROLE_GRANT and transition.task:
            grant_owner[transition.name] = transition.task
    message_grants = {
        nodes["grant"]: name
        for name, nodes in model.message_nodes.items()
    }
    message_comm = {m.name: m.communication for m in spec.messages}

    raw: list[ExecutionSegment] = []
    bus: list[BusSegment] = []
    grant_count: dict[str, int] = {}
    unit_count: dict[str, int] = {}
    message_count: dict[str, int] = {}
    for name, _delay, fired_at in result.firing_schedule:
        if name in grant_owner:
            task = grant_owner[name]
            if preemptive[task]:
                units = unit_count.get(task, 0)
                instance = units // computation[task] + 1
                unit_count[task] = units + 1
                raw.append(
                    ExecutionSegment(task, instance, fired_at, fired_at + 1)
                )
            else:
                instance = grant_count.get(task, 0) + 1
                grant_count[task] = instance
                raw.append(
                    ExecutionSegment(
                        task, instance, fired_at,
                        fired_at + computation[task],
                    )
                )
        elif name in message_grants:
            message = message_grants[name]
            instance = message_count.get(message, 0) + 1
            message_count[message] = instance
            bus.append(
                BusSegment(
                    message,
                    instance,
                    fired_at,
                    fired_at + message_comm[message],
                )
            )

    raw.sort(key=lambda s: (s.start, s.task, s.instance))
    segments = _merge_contiguous(raw)
    items = build_schedule_items(model, segments)
    return TaskLevelSchedule(
        segments=segments,
        items=items,
        bus_segments=sorted(bus, key=lambda s: s.start),
        schedule_period=model.schedule_period,
    )


def _merge_contiguous(
    raw: list[ExecutionSegment],
) -> list[ExecutionSegment]:
    """Merge back-to-back segments of the same task instance."""
    merged: list[ExecutionSegment] = []
    for segment in raw:
        if (
            merged
            and merged[-1].task == segment.task
            and merged[-1].instance == segment.instance
            and merged[-1].end == segment.start
        ):
            merged[-1] = ExecutionSegment(
                segment.task,
                segment.instance,
                merged[-1].start,
                segment.end,
            )
        else:
            merged.append(segment)
    return merged


def build_schedule_items(
    model: ComposedModel, segments: list[ExecutionSegment]
) -> list[ScheduleItem]:
    """Annotate segments into Fig. 8 schedule-table rows."""
    spec = model.spec
    task_ids = {t.name: i + 1 for i, t in enumerate(spec.tasks)}
    seen: set[tuple[str, int]] = set()
    remaining = {
        (t.name, k): t.computation
        for t in spec.tasks
        for k in range(1, model.instances[t.name] + 1)
    }
    # latest segment end per started-but-unfinished instance
    open_instances: dict[tuple[str, int], int] = {}
    items: list[ScheduleItem] = []
    for segment in segments:
        key = (segment.task, segment.instance)
        resumed = key in seen
        label = f"{segment.task}{segment.instance}"
        if resumed:
            comment = f"{label} resumes"
        else:
            preempted_victim = None
            for (task, instance), end in open_instances.items():
                if end == segment.start and (task, instance) != key:
                    preempted_victim = f"{task}{instance}"
                    break
            if preempted_victim is not None:
                comment = f"{label} preempts {preempted_victim}"
            else:
                comment = f"{label} starts"
        items.append(
            ScheduleItem(
                start=segment.start,
                preempted=resumed,
                task_id=task_ids[segment.task],
                task=segment.task,
                instance=segment.instance,
                comment=comment,
            )
        )
        seen.add(key)
        if key in remaining:
            remaining[key] -= segment.duration
            if remaining[key] <= 0:
                open_instances.pop(key, None)
            else:
                open_instances[key] = segment.end
        else:
            open_instances[key] = segment.end
    return items


def validate_schedule(
    model: ComposedModel,
    schedule: TaskLevelSchedule,
    check_messages: bool = True,
) -> list[str]:
    """Independent constraint check of an extracted schedule.

    Returns a list of violation messages (empty = the schedule meets
    every specification constraint).  ``check_messages=False`` skips
    the bus-transfer checks — used when validating execution traces
    from the dispatcher machine, which models the CPU but not the bus.
    """
    spec = model.spec
    violations: list[str] = []
    by_instance: dict[tuple[str, int], list[ExecutionSegment]] = {}
    for segment in schedule.segments:
        by_instance.setdefault(
            (segment.task, segment.instance), []
        ).append(segment)

    for task in spec.tasks:
        expected = model.instances[task.name]
        for k in range(1, expected + 1):
            segs = by_instance.get((task.name, k))
            if not segs:
                violations.append(
                    f"{task.name} instance {k}: never executed"
                )
                continue
            arrival = task.phase + (k - 1) * task.period
            total = sum(s.duration for s in segs)
            if total != task.computation:
                violations.append(
                    f"{task.name} instance {k}: executed {total} units, "
                    f"WCET is {task.computation}"
                )
            if not task.is_preemptive and len(segs) > 1:
                violations.append(
                    f"{task.name} instance {k}: non-preemptive task "
                    f"split into {len(segs)} segments"
                )
            if segs[0].start < arrival + task.release:
                violations.append(
                    f"{task.name} instance {k}: starts at "
                    f"{segs[0].start} before release "
                    f"{arrival + task.release}"
                )
            if segs[-1].end > arrival + task.deadline:
                violations.append(
                    f"{task.name} instance {k}: completes at "
                    f"{segs[-1].end} after deadline "
                    f"{arrival + task.deadline}"
                )
        extra = [
            key
            for key in by_instance
            if key[0] == task.name and key[1] > expected
        ]
        for key in extra:
            violations.append(
                f"{task.name}: unexpected instance {key[1]}"
            )

    violations.extend(_check_processor_exclusivity(model, schedule))
    violations.extend(_check_precedence(model, by_instance))
    violations.extend(_check_exclusion(model, by_instance))
    if check_messages:
        violations.extend(
            _check_messages(model, schedule, by_instance)
        )
    return violations


def _check_processor_exclusivity(
    model: ComposedModel, schedule: TaskLevelSchedule
) -> list[str]:
    violations = []
    processor_of = {t.name: t.processor for t in model.spec.tasks}
    per_processor: dict[str, list[ExecutionSegment]] = {}
    for segment in schedule.segments:
        per_processor.setdefault(
            processor_of[segment.task], []
        ).append(segment)
    for processor, segments in per_processor.items():
        ordered = sorted(segments, key=lambda s: s.start)
        for previous, current in zip(ordered, ordered[1:]):
            if current.start < previous.end:
                violations.append(
                    f"processor {processor}: {previous.task}"
                    f"{previous.instance} [{previous.start},"
                    f"{previous.end}) overlaps {current.task}"
                    f"{current.instance} [{current.start},{current.end})"
                )
    return violations


def _check_precedence(model, by_instance) -> list[str]:
    violations = []
    for before, after in model.spec.precedence_pairs():
        count = min(
            model.instances.get(before, 0), model.instances.get(after, 0)
        )
        for k in range(1, count + 1):
            pred = by_instance.get((before, k))
            succ = by_instance.get((after, k))
            if not pred or not succ:
                continue
            if succ[0].start < pred[-1].end:
                violations.append(
                    f"precedence {before} -> {after}, instance {k}: "
                    f"{after} starts at {succ[0].start} before {before} "
                    f"ends at {pred[-1].end}"
                )
    return violations


def _check_exclusion(model, by_instance) -> list[str]:
    violations = []
    for first, second in model.spec.exclusion_pairs():
        for a, b in ((first, second), (second, first)):
            for key, segs in by_instance.items():
                if key[0] != a:
                    continue
                envelope = (segs[0].start, segs[-1].end)
                for other_key, other_segs in by_instance.items():
                    if other_key[0] != b:
                        continue
                    for seg in other_segs:
                        if (
                            seg.start < envelope[1]
                            and seg.end > envelope[0]
                        ):
                            violations.append(
                                f"exclusion {a}/{b}: {b}"
                                f"{other_key[1]} [{seg.start},{seg.end})"
                                f" interleaves {a}{key[1]} envelope "
                                f"[{envelope[0]},{envelope[1]})"
                            )
    return violations


def _check_messages(model, schedule, by_instance) -> list[str]:
    violations = []
    transfers: dict[tuple[str, int], BusSegment] = {
        (b.message, b.instance): b for b in schedule.bus_segments
    }
    for message in model.spec.messages:
        if message.sender is None:
            continue
        count = model.instances.get(message.sender, 0)
        for k in range(1, count + 1):
            transfer = transfers.get((message.name, k))
            if transfer is None:
                violations.append(
                    f"message {message.name} instance {k}: never "
                    "transferred"
                )
                continue
            sender = by_instance.get((message.sender, k))
            if sender and transfer.start < sender[-1].end:
                violations.append(
                    f"message {message.name} instance {k}: transfer "
                    f"starts at {transfer.start} before sender ends at "
                    f"{sender[-1].end}"
                )
            if message.precedes is not None:
                receiver = by_instance.get((message.precedes, k))
                if receiver and receiver[0].start < transfer.end:
                    violations.append(
                        f"message {message.name} instance {k}: receiver "
                        f"starts at {receiver[0].start} before delivery "
                        f"at {transfer.end}"
                    )
    return violations


def schedule_from_result(
    model: ComposedModel, result: SchedulerResult, check: bool = True
) -> TaskLevelSchedule:
    """Extract and (by default) validate the task-level schedule."""
    schedule = extract_schedule(model, result)
    if check:
        violations = validate_schedule(model, schedule)
        if violations:
            bullet = "\n  - "
            raise SchedulingError(
                "extracted schedule violates the specification:"
                f"{bullet}{bullet.join(violations)}"
            )
    return schedule
