"""Timing mathematics for periodic task sets (paper Section 3.3).

Pre-runtime scheduling operates over one *schedule period* ``PS`` — the
least common multiple (hyper-period) of all task periods.  Every task
``t_i`` contributes ``N(t_i) = PS / p_i`` instances to the schedule; the
mine-pump case study's "782 tasks' instances" is exactly
``sum_i PS / p_i`` for Table 1.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Sequence

from repro._record import FrozenRecord
from repro.errors import SpecificationError
from repro.spec.model import EzRTSpec, Task


def lcm(values: Iterable[int]) -> int:
    """Least common multiple of positive integers (LCM of ∅ is 1)."""
    result = 1
    for value in values:
        if value < 1:
            raise SpecificationError(f"LCM requires positive values, got {value}")
        result = result // gcd(result, value) * value
    return result


def schedule_period(spec: EzRTSpec) -> int:
    """The schedule period ``PS`` (hyper-period): LCM of all periods.

    Message transfers inherit their sender's period and therefore do not
    change the LCM.
    """
    if not spec.tasks:
        raise SpecificationError("specification has no tasks")
    return lcm(task.period for task in spec.tasks)


def instance_count(task: Task, period: int) -> int:
    """``N(t_i) = PS / p_i`` — instances of a task within ``PS``."""
    if period % task.period != 0:
        raise SpecificationError(
            f"schedule period {period} is not a multiple of task "
            f"{task.name!r}'s period {task.period}"
        )
    return period // task.period


def total_instances(spec: EzRTSpec) -> int:
    """Total task instances within the schedule period.

    For Table 1 this evaluates to 782.
    """
    period = schedule_period(spec)
    return sum(instance_count(task, period) for task in spec.tasks)


class TaskInstance(FrozenRecord):
    """One invocation of a task within the schedule period.

    Attributes:
        task: task name.
        index: instance number, starting at 1 (``T1`` instance 2 is the
            second invocation).
        arrival: absolute arrival time ``ph + (index−1)·p``.
        release: absolute earliest start ``arrival + r``.
        deadline: absolute completion bound ``arrival + d``.
        computation: WCET (copied from the task for convenience).
    """

    __slots__ = (
        "task",
        "index",
        "arrival",
        "release",
        "deadline",
        "computation",
    )
    task: str
    index: int
    arrival: int
    release: int
    deadline: int
    computation: int

    def __init__(
        self,
        task: str,
        index: int,
        arrival: int,
        release: int,
        deadline: int,
        computation: int,
    ) -> None:
        object.__setattr__(self, "task", task)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "arrival", arrival)
        object.__setattr__(self, "release", release)
        object.__setattr__(self, "deadline", deadline)
        object.__setattr__(self, "computation", computation)


def expand_instances(
    spec: EzRTSpec, horizon: int | None = None
) -> list[TaskInstance]:
    """All task instances up to ``horizon`` (default: one hyper-period).

    Instances are sorted by arrival time, then task name — the order a
    runtime scheduler would observe their requests.
    """
    period = schedule_period(spec)
    end = period if horizon is None else horizon
    instances: list[TaskInstance] = []
    for task in spec.tasks:
        index = 1
        arrival = task.phase
        while arrival < end:
            instances.append(
                TaskInstance(
                    task=task.name,
                    index=index,
                    arrival=arrival,
                    release=arrival + task.release,
                    deadline=arrival + task.deadline,
                    computation=task.computation,
                )
            )
            index += 1
            arrival += task.period
    instances.sort(key=lambda i: (i.arrival, i.task))
    return instances


def utilization_breakdown(spec: EzRTSpec) -> dict[str, float]:
    """Per-task utilisation plus the ``"total"`` row."""
    breakdown = {task.name: task.utilization for task in spec.tasks}
    breakdown["total"] = sum(
        value for key, value in breakdown.items() if key != "total"
    )
    return breakdown


def demand_in_window(spec: EzRTSpec, start: int, end: int) -> int:
    """Processor demand of instances wholly inside ``[start, end]``.

    The classical demand-bound quantity: total WCET of instances with
    ``release >= start`` and ``deadline <= end``.  Used by the EDF
    feasibility test in :mod:`repro.analysis.demand`.
    """
    if end < start:
        raise SpecificationError("window end precedes start")
    demand = 0
    for instance in expand_instances(spec, horizon=end):
        if instance.release >= start and instance.deadline <= end:
            demand += instance.computation
    return demand


def check_harmonic(periods: Sequence[int]) -> bool:
    """Whether the period set is harmonic (each divides the next).

    Harmonic sets schedule more easily; reports surface this property.
    """
    ordered = sorted(periods)
    return all(
        ordered[i + 1] % ordered[i] == 0 for i in range(len(ordered) - 1)
    )
