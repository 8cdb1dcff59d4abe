"""Batch job description, execution and structured outcomes.

A :class:`BatchJob` bundles everything one synthesis needs — the
specification, translation options, search configuration, an optional
per-job wall-clock budget and optional downstream stages (code
generation, dispatcher simulation).  :func:`execute_job` runs the whole
pipeline for one job and never raises: every failure mode is folded
into a :class:`JobOutcome` with one of four statuses:

* ``feasible`` — a pre-runtime schedule was found;
* ``infeasible`` — the (policy-restricted) space was exhausted, or the
  state budget ran out, without finding a schedule;
* ``timeout`` — the per-job wall-clock budget expired mid-search;
* ``error`` — any stage raised (invalid spec, composition failure,
  worker crash); the message is preserved.

``execute_job`` is a module-level function so
:class:`concurrent.futures.ProcessPoolExecutor` can ship it to worker
processes by reference.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

from repro.batch.cache import cache_key
from repro.obs.events import NULL_RECORDER, JsonlSink, Recorder
from repro.obs.progress import ProgressFile
from repro.blocks.composer import ComposerOptions, compose
from repro.codegen.generator import generate_project
from repro.scheduler.config import SchedulerConfig
from repro.scheduler.dfs import find_schedule
from repro.scheduler.result import SearchStats
from repro.scheduler.schedule import schedule_from_result
from repro.sim.machine import run_schedule
from repro.sim.verifier import verify_trace
from repro.spec.model import EzRTSpec

STATUS_FEASIBLE = "feasible"
STATUS_INFEASIBLE = "infeasible"
STATUS_TIMEOUT = "timeout"
STATUS_ERROR = "error"
STATUSES = (
    STATUS_FEASIBLE,
    STATUS_INFEASIBLE,
    STATUS_TIMEOUT,
    STATUS_ERROR,
)


@dataclass
class BatchJob:
    """One unit of work for the batch engine.

    Attributes:
        spec: the specification to synthesise.
        options: spec → TPN translation options.
        config: depth-first search configuration.
        timeout: wall-clock budget in seconds for the schedule
            *search*; folded into the scheduler's ``max_seconds`` (the
            tighter of the two wins) and enforced cooperatively inside
            the worker.  Composition and the optional codegen/simulate
            stages run outside the budget — they are polynomial in the
            model size, unlike the search.
        codegen_target: when set, generate the C project for feasible
            schedules and record its file count.
        simulate: when True, execute feasible schedules on the
            dispatcher machine and record trace violations.
        store_schedule: keep the firing schedule in the outcome (off by
            default: campaigns only need aggregate numbers and the
            schedule of a large model is thousands of triples).
        progress_path: when set, the worker spools rate-limited live
            search counters (states visited, states/sec, depth, the
            engine slot) to this file via
            :class:`repro.obs.progress.ProgressFile` — the service's
            SSE progress ticker reads them back.  Pure observability:
            deliberately *not* part of the cache key, so a streamed
            job still hits the same cached result.
        meta: free-form campaign parameters (e.g. ``n_tasks``,
            ``utilization``, ``seed``); carried into the outcome and
            its JSONL row, never into the cache key.
    """

    spec: EzRTSpec
    options: ComposerOptions = field(default_factory=ComposerOptions)
    config: SchedulerConfig = field(default_factory=SchedulerConfig)
    timeout: float | None = None
    codegen_target: str | None = None
    simulate: bool = False
    store_schedule: bool = False
    progress_path: str | None = None
    meta: dict = field(default_factory=dict)

    def effective_config(self) -> SchedulerConfig:
        """Search config with the per-job timeout folded in."""
        if self.timeout is None:
            return self.config
        budget = self.timeout
        if self.config.max_seconds is not None:
            budget = min(budget, self.config.max_seconds)
        return self.config.replace(max_seconds=budget)

    def key(self) -> str:
        """Content-addressed cache key (see :mod:`repro.batch.cache`)."""
        return cache_key(
            self.spec,
            self.options,
            self.effective_config(),
            self.codegen_target,
            self.simulate,
            self.store_schedule,
        )


@dataclass
class JobOutcome:
    """Structured result of one batch job.

    ``search`` holds the deterministic DFS counters
    (:meth:`repro.scheduler.result.SearchStats.as_dict` minus
    ``elapsed_seconds``); wall-clock quantities live in
    ``elapsed_seconds`` / ``search_seconds`` so :meth:`row` can stay
    run-to-run deterministic.

    ``diagnostics`` carries the pre-search lint findings
    (:class:`repro.lint.Diagnostic` dicts) when the scheduler's
    fast-fail gate decided the verdict: a trivially-infeasible spec
    gets ``status="infeasible"`` with the violated necessary
    condition named here and zero search counters.  ``None`` when the
    search ran undiagnosed — the deterministic row distinguishes
    "searched and refuted" from "rejected by diagnosis".
    """

    spec_name: str
    status: str
    key: str
    n_tasks: int
    feasible: bool = False
    exhausted: bool = False
    schedule_length: int = 0
    makespan: int = 0
    search: dict = field(default_factory=dict)
    elapsed_seconds: float = 0.0
    search_seconds: float = 0.0
    error: str | None = None
    codegen_files: int | None = None
    trace_violations: int | None = None
    firing_schedule: list | None = None
    diagnostics: list | None = None
    meta: dict = field(default_factory=dict)

    # -- serialisation -------------------------------------------------
    def to_dict(self) -> dict:
        """Full JSON payload (what the result cache persists)."""
        return {
            "spec_name": self.spec_name,
            "status": self.status,
            "key": self.key,
            "n_tasks": self.n_tasks,
            "feasible": self.feasible,
            "exhausted": self.exhausted,
            "schedule_length": self.schedule_length,
            "makespan": self.makespan,
            "search": dict(self.search),
            "elapsed_seconds": self.elapsed_seconds,
            "search_seconds": self.search_seconds,
            "error": self.error,
            "codegen_files": self.codegen_files,
            "trace_violations": self.trace_violations,
            "firing_schedule": self.firing_schedule,
            "diagnostics": self.diagnostics,
            "meta": dict(self.meta),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "JobOutcome":
        outcome = cls(
            spec_name=payload["spec_name"],
            status=payload["status"],
            key=payload["key"],
            n_tasks=payload["n_tasks"],
        )
        for name in (
            "feasible",
            "exhausted",
            "schedule_length",
            "makespan",
            "search",
            "elapsed_seconds",
            "search_seconds",
            "error",
            "codegen_files",
            "trace_violations",
            "firing_schedule",
            "diagnostics",
            "meta",
        ):
            if name in payload:
                setattr(outcome, name, payload[name])
        if outcome.firing_schedule is not None:
            outcome.firing_schedule = [
                tuple(entry) for entry in outcome.firing_schedule
            ]
        return outcome

    def row(self) -> dict:
        """Deterministic JSONL row: no wall-clock, no schedule body.

        Two runs of the same non-timeout job produce byte-identical
        rows (timeout jobs explore machine-dependent state counts, but
        cached re-runs replay the stored row verbatim either way).
        """
        return {
            "spec": self.spec_name,
            "status": self.status,
            "key": self.key,
            "n_tasks": self.n_tasks,
            "feasible": self.feasible,
            "exhausted": self.exhausted,
            "schedule_length": self.schedule_length,
            "makespan": self.makespan,
            "search": {
                name: value
                for name, value in sorted(self.search.items())
                if name not in SearchStats.WALL_CLOCK_KEYS
            },
            "error": self.error,
            "codegen_files": self.codegen_files,
            "trace_violations": self.trace_violations,
            "diagnostics": self.diagnostics,
            "meta": dict(self.meta),
        }


def execute_job(job: BatchJob) -> JobOutcome:
    """Run compose → schedule → (codegen/simulate) for one job.

    Never raises: exceptions become ``error`` outcomes, an expired
    wall-clock budget becomes ``timeout``.  Runs in pool workers, so it
    must stay importable at module level and return picklable values.
    """
    # fault-injection hook for the degradation suites: a worker
    # processing the named spec dies *hard* (no exception, no cleanup),
    # exactly like an OOM kill.  Env-gated so production never pays —
    # tests set EZRT_CRASH_SPEC before the pool forks its workers.
    crash = os.environ.get("EZRT_CRASH_SPEC")
    if crash and job.spec.name == crash:
        os._exit(42)
    started = time.monotonic()
    outcome = JobOutcome(
        spec_name=job.spec.name,
        status=STATUS_ERROR,
        key=job.key(),
        n_tasks=len(job.spec.tasks),
        meta=dict(job.meta),
    )
    config = job.effective_config()
    # per-job recorder on a "job:<name>" track; the search itself
    # records its own spans through the scheduler's recorder, both
    # appending to the same O_APPEND sink
    obs = NULL_RECORDER
    if getattr(config, "trace_jsonl", None):
        obs = Recorder(
            JsonlSink(config.trace_jsonl),
            track=f"job:{job.spec.name}",
        )
    try:
        with obs.span("compile", cat="batch", spec=job.spec.name):
            model = compose(job.spec, job.options)
            model.compiled()
        heartbeat = None
        if job.progress_path:
            # live-progress spool for SSE streaming; the slot label
            # tells subscribers which engine is driving the search
            heartbeat = ProgressFile(
                job.progress_path, slot=config.engine
            )
        # one compilation per job: find_schedule populates the model's
        # compiled-net cache, and the codegen/simulate stages below all
        # operate on the same `model` instead of re-freezing the net
        result = find_schedule(model, config, heartbeat=heartbeat)
        search = result.stats.as_dict()
        outcome.search_seconds = search.pop("elapsed_seconds", 0.0)
        search.pop("states_per_second", None)  # wall-clock-derived
        outcome.search = search
        outcome.feasible = result.feasible
        outcome.exhausted = result.exhausted
        if result.diagnostics:
            outcome.diagnostics = [
                diagnostic.to_dict()
                for diagnostic in result.diagnostics
            ]
        if result.feasible:
            outcome.status = STATUS_FEASIBLE
            outcome.schedule_length = result.schedule_length
            outcome.makespan = result.makespan
            if job.store_schedule:
                outcome.firing_schedule = list(result.firing_schedule)
            if job.codegen_target or job.simulate:
                schedule = schedule_from_result(model, result)
                if job.codegen_target:
                    with obs.span(
                        "codegen",
                        cat="batch",
                        target=job.codegen_target,
                    ):
                        project = generate_project(
                            model, schedule, job.codegen_target
                        )
                    outcome.codegen_files = len(project.files)
                if job.simulate:
                    with obs.span("simulate", cat="batch"):
                        machine_result = run_schedule(model, schedule)
                        outcome.trace_violations = len(
                            verify_trace(model, machine_result)
                        )
        else:
            timed_out = (
                result.exhausted
                and config.max_seconds is not None
                and outcome.search_seconds >= config.max_seconds
            )
            outcome.status = (
                STATUS_TIMEOUT if timed_out else STATUS_INFEASIBLE
            )
    except Exception as err:  # noqa: BLE001 — workers must not raise
        outcome.status = STATUS_ERROR
        outcome.error = f"{type(err).__name__}: {err}"
    outcome.elapsed_seconds = time.monotonic() - started
    return outcome
