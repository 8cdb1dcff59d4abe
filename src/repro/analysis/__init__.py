"""Schedulability analysis, Gantt rendering and reporting."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.analysis.demand import DemandCheck, demand_bound, edf_feasible
    from repro.analysis.energy import (
        EnergyReport,
        energy_report,
        max_tolerable_overhead,
    )
    from repro.analysis.gantt import render_gantt, render_instance_table
    from repro.analysis.report import (
        campaign_report,
        full_report,
        interval_slack_report,
        schedule_report,
        search_report,
        spec_report,
    )
    from repro.analysis.response_time import (
        ResponseTimeResult,
        response_time_analysis,
    )
    from repro.analysis.utilization import (
        breakdown,
        liu_layland_bound,
        necessary_feasible,
        passes_hyperbolic,
        passes_liu_layland,
        total_utilization,
    )
else:
    __getattr__, __dir__ = lazy_exports(
        __name__,
        {
            "repro.analysis.demand": "DemandCheck demand_bound edf_feasible",
            "repro.analysis.energy": (
                "EnergyReport energy_report max_tolerable_overhead"
            ),
            "repro.analysis.gantt": "render_gantt render_instance_table",
            "repro.analysis.report": (
                "campaign_report full_report interval_slack_report "
                "schedule_report search_report spec_report"
            ),
            "repro.analysis.response_time": (
                "ResponseTimeResult response_time_analysis"
            ),
            "repro.analysis.utilization": (
                "breakdown liu_layland_bound necessary_feasible "
                "passes_hyperbolic passes_liu_layland "
                "total_utilization"
            ),
        },
    )

__all__ = [
    "DemandCheck",
    "EnergyReport",
    "ResponseTimeResult",
    "breakdown",
    "campaign_report",
    "demand_bound",
    "edf_feasible",
    "energy_report",
    "full_report",
    "interval_slack_report",
    "liu_layland_bound",
    "max_tolerable_overhead",
    "necessary_feasible",
    "passes_hyperbolic",
    "passes_liu_layland",
    "render_gantt",
    "render_instance_table",
    "response_time_analysis",
    "schedule_report",
    "search_report",
    "spec_report",
    "total_utilization",
]
