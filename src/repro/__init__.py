"""ezRealtime reproduction: embedded hard real-time software synthesis.

Reproduction of *"ezRealtime: A Domain-Specific Modeling Tool for
Embedded Hard Real-Time Software Synthesis"* (Cruz, Barreto, Cordeiro,
Maciel — DATE 2008): a tool chain that models periodic hard real-time
task sets as time Petri nets built from composition blocks, synthesises
a feasible pre-runtime schedule by depth-first search over the timed
state space, and generates scheduled C code (schedule table, dispatcher
and timer interrupt handler).

Typical use::

    from repro import (
        SpecBuilder, compose, find_schedule, schedule_from_result,
        generate_project,
    )

    spec = (
        SpecBuilder("demo")
        .processor("proc0")
        .task("sense", computation=2, deadline=10, period=20)
        .task("act", computation=3, deadline=20, period=20)
        .precedence("sense", "act")
        .build()
    )
    model = compose(spec)
    result = find_schedule(model)
    schedule = schedule_from_result(model, result)
    project = generate_project(model, schedule, target="hostsim")

Subpackages: :mod:`repro.tpn` (the formalism), :mod:`repro.spec`
(metamodel + DSL), :mod:`repro.blocks` (model composition),
:mod:`repro.pnml` (interchange), :mod:`repro.scheduler` (synthesis +
baselines), :mod:`repro.codegen` (C emission), :mod:`repro.sim`
(dispatcher machine), :mod:`repro.analysis` (schedulability theory and
reports), :mod:`repro.batch` (parallel multi-spec synthesis with
result caching and campaign sweeps).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.batch.cache import ResultCache
    from repro.batch.campaign import CampaignGrid, CampaignResult, run_campaign
    from repro.batch.engine import BatchEngine, BatchResult
    from repro.batch.job import BatchJob, JobOutcome
    from repro.blocks.blocks import BlockStyle
    from repro.blocks.composer import ComposedModel, ComposerOptions, compose
    from repro.codegen.generator import GeneratedProject, generate_project
    from repro.errors import (
        CodeGenError,
        DSLError,
        EzRealtimeError,
        InfeasibleScheduleError,
        NetConstructionError,
        PNMLError,
        SchedulingError,
        SimulationError,
        SpecificationError,
        TraceVerificationError,
    )
    from repro.scheduler.baselines import simulate_runtime
    from repro.scheduler.config import SchedulerConfig
    from repro.scheduler.dfs import find_schedule, require_schedule
    from repro.scheduler.parallel import ParallelScheduler
    from repro.scheduler.policies import default_portfolio
    from repro.scheduler.result import SchedulerResult
    from repro.scheduler.schedule import (
        TaskLevelSchedule,
        schedule_from_result,
    )
    from repro.sim.machine import DispatcherMachine, run_schedule
    from repro.sim.netsim import NetSimulator, simulate_net
    from repro.sim.verifier import verify_trace
    from repro.spec.builder import SpecBuilder
    from repro.spec.examples import (
        fig3_precedence,
        fig4_exclusion,
        fig8_preemptive,
        mine_pump,
    )
    from repro.spec.model import EzRTSpec, SchedulingType, Task
    from repro.tpn.interval import TimeInterval
    from repro.tpn.net import TimePetriNet
    from repro.workloads import (
        campaign_task_sets,
        hard_portfolio_task_set,
        random_task_set,
        random_task_set_with_relations,
        time_scaled_task_set,
        uunifast,
        wide_interval_race_net,
    )
else:
    __getattr__, __dir__ = lazy_exports(
        __name__,
        {
            "repro.batch.cache": "ResultCache",
            "repro.batch.campaign": "CampaignGrid CampaignResult run_campaign",
            "repro.batch.engine": "BatchEngine BatchResult",
            "repro.batch.job": "BatchJob JobOutcome",
            "repro.blocks.blocks": "BlockStyle",
            "repro.blocks.composer": "ComposedModel ComposerOptions compose",
            "repro.codegen.generator": "GeneratedProject generate_project",
            "repro.errors": (
                "CodeGenError DSLError EzRealtimeError "
                "InfeasibleScheduleError NetConstructionError "
                "PNMLError SchedulingError SimulationError "
                "SpecificationError TraceVerificationError"
            ),
            "repro.scheduler.baselines": "simulate_runtime",
            "repro.scheduler.config": "SchedulerConfig",
            "repro.scheduler.dfs": "find_schedule require_schedule",
            "repro.scheduler.parallel": "ParallelScheduler",
            "repro.scheduler.policies": "default_portfolio",
            "repro.scheduler.result": "SchedulerResult",
            "repro.scheduler.schedule": (
                "TaskLevelSchedule schedule_from_result"
            ),
            "repro.sim.machine": "DispatcherMachine run_schedule",
            "repro.sim.netsim": "NetSimulator simulate_net",
            "repro.sim.verifier": "verify_trace",
            "repro.spec.builder": "SpecBuilder",
            "repro.spec.examples": (
                "fig3_precedence fig4_exclusion fig8_preemptive "
                "mine_pump"
            ),
            "repro.spec.model": "EzRTSpec SchedulingType Task",
            "repro.tpn.interval": "TimeInterval",
            "repro.tpn.net": "TimePetriNet",
            "repro.workloads": (
                "campaign_task_sets hard_portfolio_task_set "
                "random_task_set random_task_set_with_relations "
                "time_scaled_task_set uunifast wide_interval_race_net"
            ),
        },
    )

__version__ = "1.0.0"

__all__ = [
    "BatchEngine",
    "BatchJob",
    "BatchResult",
    "BlockStyle",
    "CampaignGrid",
    "CampaignResult",
    "CodeGenError",
    "ComposedModel",
    "ComposerOptions",
    "DSLError",
    "DispatcherMachine",
    "EzRTSpec",
    "EzRealtimeError",
    "GeneratedProject",
    "InfeasibleScheduleError",
    "JobOutcome",
    "NetConstructionError",
    "NetSimulator",
    "PNMLError",
    "ResultCache",
    "ParallelScheduler",
    "SchedulerConfig",
    "SchedulerResult",
    "SchedulingError",
    "SchedulingType",
    "SimulationError",
    "SpecBuilder",
    "SpecificationError",
    "Task",
    "TaskLevelSchedule",
    "TimeInterval",
    "TimePetriNet",
    "TraceVerificationError",
    "__version__",
    "campaign_task_sets",
    "hard_portfolio_task_set",
    "compose",
    "fig3_precedence",
    "fig4_exclusion",
    "fig8_preemptive",
    "default_portfolio",
    "find_schedule",
    "generate_project",
    "mine_pump",
    "random_task_set",
    "random_task_set_with_relations",
    "time_scaled_task_set",
    "require_schedule",
    "run_campaign",
    "run_schedule",
    "schedule_from_result",
    "simulate_net",
    "simulate_runtime",
    "uunifast",
    "verify_trace",
    "wide_interval_race_net",
]
