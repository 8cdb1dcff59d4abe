"""Exception hierarchy for the ezRealtime reproduction.

Every error raised by this package derives from :class:`EzRealtimeError`,
so callers can catch a single base class at tool boundaries (the CLI does
exactly that).  Sub-hierarchies mirror the pipeline stages: specification
validation, net construction, scheduling, code generation and simulation.
"""

from __future__ import annotations


class EzRealtimeError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class SpecificationError(EzRealtimeError):
    """An EHRT specification is malformed or violates a model constraint.

    Examples: a task whose computation time exceeds its deadline, a
    dangling precedence reference, or a duplicate identifier.
    """


class DSLError(SpecificationError):
    """The ez-spec XML document could not be parsed or serialised."""


class NetConstructionError(EzRealtimeError):
    """A time Petri net is structurally invalid.

    Raised when an arc references a missing node, a weight is not a
    positive integer, a timing interval is inverted, or two nodes share a
    name.
    """


class PNMLError(EzRealtimeError):
    """A PNML document could not be read or written."""


class SchedulingError(EzRealtimeError):
    """The pre-runtime scheduler failed in an unexpected way.

    Note that *infeasibility* is not an error: an exhausted search returns
    a :class:`repro.scheduler.result.SchedulerResult` with
    ``feasible=False``.  This exception signals misuse (e.g. scheduling a
    net without a final marking) or internal inconsistencies.
    """


class PackedCapError(SchedulingError):
    """A net outgrows a packed engine's fixed-width representation.

    The kernel and DBM engines store tokens, clocks and bounds in
    fixed-width words; the search then restarts on the engine's
    executable spec, which has no such caps.
    """


class InfeasibleScheduleError(SchedulingError):
    """Raised by convenience wrappers that promise a feasible schedule."""


class CodeGenError(EzRealtimeError):
    """Scheduled code generation failed (unknown target, empty table...)."""


class SimulationError(EzRealtimeError):
    """The dispatcher simulator detected an inconsistent configuration."""


class TraceVerificationError(SimulationError):
    """An execution trace violates a timing or resource constraint.

    Carries the list of violations so callers can report all of them at
    once instead of stopping at the first.
    """

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        summary = "; ".join(self.violations[:5])
        extra = len(self.violations) - 5
        if extra > 0:
            summary += f" (+{extra} more)"
        super().__init__(f"trace verification failed: {summary}")
