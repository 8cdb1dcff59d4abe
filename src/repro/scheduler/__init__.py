"""Pre-runtime scheduler, schedule extraction and runtime baselines."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.scheduler.baselines import (
        DeadlineMiss,
        RUNTIME_POLICIES,
        RuntimeOutcome,
        exclusion_blocking_pair,
        mok_trap,
        rm_overload_pair,
        simulate_runtime,
    )
    from repro.scheduler.config import (
        DEFAULT_ENGINE,
        DELAY_MODES,
        ENGINES,
        PRIORITY_MODES,
        SchedulerConfig,
    )
    from repro.scheduler.core import (
        EngineAdapter,
        ReferenceAdapter,
        StateClassAdapter,
        make_adapter,
        validate_with_reference,
    )
    from repro.scheduler.dfs import (
        PreRuntimeScheduler,
        find_schedule,
        require_schedule,
        search,
    )
    from repro.scheduler.parallel import ParallelScheduler
    from repro.scheduler.policies import (
        POLICIES,
        default_portfolio,
        parse_policy,
        parse_slot,
    )
    from repro.scheduler.result import SchedulerResult, SearchStats
    from repro.scheduler.schedule import (
        BusSegment,
        DenseScheduleEntry,
        ExecutionSegment,
        ScheduleItem,
        TaskLevelSchedule,
        build_schedule_items,
        dense_schedule_entries,
        extract_schedule,
        format_dense_schedule,
        schedule_from_result,
        validate_schedule,
    )
else:
    __getattr__, __dir__ = lazy_exports(
        __name__,
        {
            "repro.scheduler.baselines": (
                "DeadlineMiss RUNTIME_POLICIES RuntimeOutcome "
                "exclusion_blocking_pair mok_trap rm_overload_pair "
                "simulate_runtime"
            ),
            "repro.scheduler.config": (
                "DEFAULT_ENGINE DELAY_MODES ENGINES PRIORITY_MODES "
                "SchedulerConfig"
            ),
            "repro.scheduler.core": (
                "EngineAdapter ReferenceAdapter StateClassAdapter "
                "make_adapter validate_with_reference"
            ),
            "repro.scheduler.dfs": (
                "PreRuntimeScheduler find_schedule require_schedule "
                "search"
            ),
            "repro.scheduler.parallel": "ParallelScheduler",
            "repro.scheduler.policies": (
                "POLICIES default_portfolio parse_policy parse_slot"
            ),
            "repro.scheduler.result": "SchedulerResult SearchStats",
            "repro.scheduler.schedule": (
                "BusSegment DenseScheduleEntry ExecutionSegment "
                "ScheduleItem TaskLevelSchedule build_schedule_items "
                "dense_schedule_entries extract_schedule "
                "format_dense_schedule schedule_from_result "
                "validate_schedule"
            ),
        },
    )

__all__ = [
    "BusSegment",
    "DEFAULT_ENGINE",
    "DELAY_MODES",
    "DeadlineMiss",
    "DenseScheduleEntry",
    "ENGINES",
    "EngineAdapter",
    "ExecutionSegment",
    "POLICIES",
    "ParallelScheduler",
    "PRIORITY_MODES",
    "PreRuntimeScheduler",
    "ReferenceAdapter",
    "StateClassAdapter",
    "RUNTIME_POLICIES",
    "RuntimeOutcome",
    "ScheduleItem",
    "SchedulerConfig",
    "SchedulerResult",
    "SearchStats",
    "TaskLevelSchedule",
    "build_schedule_items",
    "default_portfolio",
    "dense_schedule_entries",
    "exclusion_blocking_pair",
    "extract_schedule",
    "find_schedule",
    "format_dense_schedule",
    "make_adapter",
    "mok_trap",
    "parse_policy",
    "parse_slot",
    "require_schedule",
    "rm_overload_pair",
    "schedule_from_result",
    "search",
    "simulate_runtime",
    "validate_schedule",
    "validate_with_reference",
]
