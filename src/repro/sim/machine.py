"""A simulated table-driven mono-processor target.

This is the repository's substitute for the paper's microcontroller
targets: a discrete-time machine with a timer interrupt that executes a
generated schedule table exactly the way the emitted dispatcher would —
timer match → context save → call or restore → run until the next
match.  Running the synthesised table on this machine and verifying the
trace demonstrates the "timely and predictable" property end to end
without target hardware.

Fidelity knobs:

* ``dispatch_overhead`` — time units consumed by the dispatcher at
  every table entry (the metamodel's ``dispOveh`` concern); overhead
  eats into the slot of the dispatched instance, surfacing as deadline
  violations in the verifier when the schedule has no slack for it;
* ``actual_durations`` — per-instance actual execution times (≤ WCET)
  for under-run injection: a table-driven dispatcher does not reclaim
  early-completion slack, so the processor idles until the next match
  and later ``preempted`` entries of a finished instance become no-ops.
"""

from __future__ import annotations

from repro._record import Record
from repro.errors import SimulationError
from repro.blocks.composer import ComposedModel
from repro.scheduler.schedule import ScheduleItem, TaskLevelSchedule
from repro.sim.trace import Trace


class _TaskContext(Record):
    """Saved execution context of a preempted/running instance."""

    __slots__ = ("instance", "remaining", "started_at")

    def __init__(
        self, instance: int, remaining: int, started_at: int
    ) -> None:
        self.instance = instance
        self.remaining = remaining
        self.started_at = started_at


class MachineResult(Record):
    """Outcome of one dispatcher-machine run."""

    __slots__ = ("trace", "completions", "errors")

    def __init__(
        self,
        trace: Trace,
        completions: dict[tuple[str, int], int] | None = None,
        errors: list[str] | None = None,
    ) -> None:
        self.trace = trace
        self.completions = {} if completions is None else completions
        self.errors = [] if errors is None else errors

    @property
    def ok(self) -> bool:
        return not self.errors


class DispatcherMachine:
    """Executes a schedule table on a simulated timer-driven target."""

    def __init__(
        self,
        model: ComposedModel,
        dispatch_overhead: int = 0,
        actual_durations: dict[tuple[str, int], int] | None = None,
    ):
        if dispatch_overhead < 0:
            raise SimulationError("dispatch overhead must be >= 0")
        self.model = model
        self.overhead = dispatch_overhead
        self.wcet = {
            t.name: t.computation for t in model.spec.tasks
        }
        self.actual = dict(actual_durations or {})
        for (task, _instance), duration in self.actual.items():
            if task not in self.wcet:
                raise SimulationError(f"unknown task {task!r}")
            if duration < 1 or duration > self.wcet[task]:
                raise SimulationError(
                    f"actual duration of {task!r} must be in "
                    f"[1, {self.wcet[task]}]"
                )

    def run(
        self,
        items: list[ScheduleItem],
        horizon: int | None = None,
    ) -> MachineResult:
        """Execute the table over one schedule period.

        The machine is *time-triggered*: the running instance executes
        one unit per tick until the next table match preempts it or its
        (actual) duration is exhausted.
        """
        if not items:
            raise SimulationError("schedule table is empty")
        end = horizon if horizon is not None else (
            self.model.required_horizon()
        )
        table = sorted(items, key=lambda i: i.start)
        trace = Trace(horizon=end)
        result = MachineResult(trace=trace)

        running: tuple[str, _TaskContext] | None = None
        saved: dict[str, _TaskContext] = {}
        finished: set[tuple[str, int]] = set()
        instance_counter: dict[str, int] = {}
        index = 0
        overhead_left = 0

        for now in range(end + 1):
            # timer interrupt: dispatch all entries matching `now`
            while index < len(table) and table[index].start == now:
                item = table[index]
                index += 1
                running = self._dispatch(
                    item,
                    now,
                    running,
                    saved,
                    finished,
                    instance_counter,
                    trace,
                    result,
                )
                overhead_left = self.overhead
            if now == end:
                break
            # execute one time unit (dispatcher overhead first)
            if overhead_left > 0:
                overhead_left -= 1
                continue
            if running is None:
                trace.record(now, "idle")
                continue
            task, context = running
            context.remaining -= 1
            if context.remaining == 0:
                trace.record(
                    now + 1, "complete", task, context.instance
                )
                result.completions[(task, context.instance)] = now + 1
                finished.add((task, context.instance))
                running = None

        if running is not None:
            task, context = running
            result.errors.append(
                f"{task} instance {context.instance} still running at "
                f"the horizon with {context.remaining} unit(s) left"
            )
        for task, context in saved.items():
            result.errors.append(
                f"{task} instance {context.instance} preempted and "
                "never resumed"
            )
        return result

    def _dispatch(
        self,
        item: ScheduleItem,
        now: int,
        running: tuple[str, _TaskContext] | None,
        saved: dict[str, _TaskContext],
        finished: set[tuple[str, int]],
        instance_counter: dict[str, int],
        trace: Trace,
        result: MachineResult,
    ) -> tuple[str, _TaskContext] | None:
        trace.record(now, "dispatch", item.task, item.instance)
        # context save of whatever is currently running
        if running is not None:
            task, context = running
            saved[task] = context
            trace.record(
                now,
                "preempt",
                task,
                context.instance,
                detail=f"by {item.task}{item.instance}",
            )
        if item.preempted:
            context = saved.pop(item.task, None)
            if context is None:
                key = (item.task, item.instance)
                if key in finished:
                    # early completion: the resume slot is a no-op
                    trace.record(
                        now, "noop-resume", item.task, item.instance
                    )
                    return None
                result.errors.append(
                    f"table resumes {item.task}{item.instance} at "
                    f"{now} but no context is saved"
                )
                return None
            if context.instance != item.instance:
                result.errors.append(
                    f"table resumes {item.task}{item.instance} at "
                    f"{now} but the saved context is instance "
                    f"{context.instance}"
                )
            trace.record(
                now + self.overhead,
                "resume",
                item.task,
                context.instance,
            )
            return (item.task, context)
        # fresh start
        expected = instance_counter.get(item.task, 0) + 1
        if item.instance != expected:
            result.errors.append(
                f"table starts {item.task}{item.instance} at {now} "
                f"but the next instance should be {expected}"
            )
        instance_counter[item.task] = item.instance
        duration = self.actual.get(
            (item.task, item.instance), self.wcet[item.task]
        )
        # dispatcher overhead delays the first executed unit; the
        # trace records execution intervals, so the start is stamped
        # after the overhead
        trace.record(
            now + self.overhead, "start", item.task, item.instance
        )
        return (
            item.task,
            _TaskContext(
                instance=item.instance,
                remaining=duration,
                started_at=now,
            ),
        )


def run_schedule(
    model: ComposedModel,
    schedule: TaskLevelSchedule,
    dispatch_overhead: int = 0,
    actual_durations: dict[tuple[str, int], int] | None = None,
) -> MachineResult:
    """Convenience: execute an extracted schedule on the machine."""
    machine = DispatcherMachine(
        model,
        dispatch_overhead=dispatch_overhead,
        actual_durations=actual_durations,
    )
    return machine.run(schedule.items)
