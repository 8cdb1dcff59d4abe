"""Specification metamodel, DSL, timing maths and case studies."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.spec.builder import SpecBuilder
    from repro.spec.dsl import (
        NAMESPACE,
        PAPER_FIG7_SNIPPET,
        dumps,
        load,
        loads,
        save,
    )
    from repro.spec.examples import (
        MINE_PUMP_TABLE1,
        fig3_precedence,
        fig4_exclusion,
        fig8_preemptive,
        mine_pump,
        paper_examples,
    )
    from repro.spec.jsonio import spec_from_json, spec_to_json
    from repro.spec.model import (
        EzRTSpec,
        Message,
        Processor,
        SchedulingType,
        SourceCode,
        Task,
        fresh_identifier,
    )
    from repro.spec.timing import (
        TaskInstance,
        check_harmonic,
        demand_in_window,
        expand_instances,
        instance_count,
        lcm,
        schedule_period,
        total_instances,
        utilization_breakdown,
    )
    from repro.spec.validation import ensure_valid, validate_spec
else:
    __getattr__, __dir__ = lazy_exports(
        __name__,
        {
            "repro.spec.builder": "SpecBuilder",
            "repro.spec.dsl": (
                "NAMESPACE PAPER_FIG7_SNIPPET dumps load loads save"
            ),
            "repro.spec.examples": (
                "MINE_PUMP_TABLE1 fig3_precedence fig4_exclusion "
                "fig8_preemptive mine_pump paper_examples"
            ),
            "repro.spec.jsonio": "spec_from_json spec_to_json",
            "repro.spec.model": (
                "EzRTSpec Message Processor SchedulingType SourceCode "
                "Task fresh_identifier"
            ),
            "repro.spec.timing": (
                "TaskInstance check_harmonic demand_in_window "
                "expand_instances instance_count lcm schedule_period "
                "total_instances utilization_breakdown"
            ),
            "repro.spec.validation": "ensure_valid validate_spec",
        },
    )

__all__ = [
    "EzRTSpec",
    "MINE_PUMP_TABLE1",
    "Message",
    "NAMESPACE",
    "PAPER_FIG7_SNIPPET",
    "Processor",
    "SchedulingType",
    "SourceCode",
    "SpecBuilder",
    "Task",
    "TaskInstance",
    "check_harmonic",
    "demand_in_window",
    "dumps",
    "ensure_valid",
    "expand_instances",
    "fig3_precedence",
    "fig4_exclusion",
    "fig8_preemptive",
    "fresh_identifier",
    "instance_count",
    "lcm",
    "load",
    "loads",
    "mine_pump",
    "paper_examples",
    "save",
    "schedule_period",
    "spec_from_json",
    "spec_to_json",
    "total_instances",
    "utilization_breakdown",
    "validate_spec",
]
