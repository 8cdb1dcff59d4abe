"""Execution traces of the dispatcher machine.

The simulated target (see :mod:`repro.sim.machine`) records an event
for every observable action: dispatches, starts, preemptions, resumes,
completions and idle periods.  Traces convert to execution segments so
the scheduler's independent validator can re-check them, and provide
the raw material for the trace verifier and the ASCII Gantt renderer.
"""

from __future__ import annotations

from typing import Iterable

from repro._record import FrozenRecord, Record
from repro.scheduler.schedule import ExecutionSegment

#: Event kinds recorded by the dispatcher machine.
EVENT_KINDS = (
    "dispatch",
    "start",
    "preempt",
    "resume",
    "complete",
    "noop-resume",
    "idle",
)


class TraceEvent(FrozenRecord):
    """One observable action of the simulated dispatcher.

    Attributes:
        time: simulation tick at which the event happened.
        kind: one of :data:`EVENT_KINDS`.
        task: task name (empty for ``idle``).
        instance: 1-based instance number (0 for ``idle``).
        detail: free-form annotation (who preempted whom, ...).
    """

    __slots__ = ("time", "kind", "task", "instance", "detail")
    time: int
    kind: str
    task: str
    instance: int
    detail: str

    def __init__(
        self,
        time: int,
        kind: str,
        task: str = "",
        instance: int = 0,
        detail: str = "",
    ) -> None:
        object.__setattr__(self, "time", time)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "task", task)
        object.__setattr__(self, "instance", instance)
        object.__setattr__(self, "detail", detail)

    def __str__(self) -> str:
        label = f"{self.task}{self.instance}" if self.task else "-"
        detail = f" ({self.detail})" if self.detail else ""
        return f"t={self.time:>6} {self.kind:<12} {label}{detail}"


class Trace(Record):
    """A complete simulation trace."""

    __slots__ = ("events", "horizon")

    def __init__(
        self, events: list[TraceEvent] | None = None, horizon: int = 0
    ) -> None:
        self.events = [] if events is None else events
        self.horizon = horizon

    def record(
        self,
        time: int,
        kind: str,
        task: str = "",
        instance: int = 0,
        detail: str = "",
    ) -> None:
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown trace event kind {kind!r}")
        self.events.append(
            TraceEvent(time, kind, task, instance, detail)
        )

    def of_kind(self, *kinds: str) -> list[TraceEvent]:
        """Events matching any of the given kinds, in order."""
        wanted = set(kinds)
        return [e for e in self.events if e.kind in wanted]

    def completions(self) -> dict[tuple[str, int], int]:
        """Completion time per (task, instance)."""
        return {
            (e.task, e.instance): e.time
            for e in self.events
            if e.kind == "complete"
        }

    def to_segments(self) -> list[ExecutionSegment]:
        """Reconstruct execution segments from start/stop events.

        A segment opens on ``start``/``resume`` and closes on the next
        ``preempt``/``complete`` of the same instance.
        """
        open_at: dict[tuple[str, int], int] = {}
        segments: list[ExecutionSegment] = []
        for event in self.events:
            key = (event.task, event.instance)
            if event.kind in ("start", "resume"):
                open_at[key] = event.time
            elif event.kind in ("preempt", "complete"):
                begin = open_at.pop(key, None)
                if begin is not None and event.time > begin:
                    segments.append(
                        ExecutionSegment(
                            event.task, event.instance, begin, event.time
                        )
                    )
        for (task, instance), begin in open_at.items():
            if self.horizon > begin:
                segments.append(
                    ExecutionSegment(task, instance, begin, self.horizon)
                )
        return sorted(segments, key=lambda s: (s.start, s.task))

    def busy_time(self) -> int:
        """Total executed time units across all segments."""
        return sum(s.duration for s in self.to_segments())

    def summary(self) -> str:
        kinds: dict[str, int] = {}
        for event in self.events:
            kinds[event.kind] = kinds.get(event.kind, 0) + 1
        parts = [f"{k}={v}" for k, v in sorted(kinds.items())]
        return (
            f"trace: horizon={self.horizon}, events={len(self.events)} "
            f"({', '.join(parts)})"
        )

    def render(self, limit: int | None = None) -> str:
        """Human-readable event log (optionally truncated)."""
        events: Iterable[TraceEvent] = self.events
        if limit is not None:
            events = self.events[:limit]
        lines = [str(e) for e in events]
        if limit is not None and len(self.events) > limit:
            lines.append(f"... {len(self.events) - limit} more events")
        return "\n".join(lines)
