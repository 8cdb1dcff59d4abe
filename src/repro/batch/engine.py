"""The batch synthesis engine: fan many jobs out over a process pool.

**Overview for new contributors.**  ``repro.batch`` is the
throughput layer of the repository: where ``repro.scheduler``
answers "is this one model schedulable?", this package answers it for
*campaigns* of hundreds of models at once.  The division of labour is:
``job.py`` defines one unit of work (spec → compose → search →
optional codegen/simulate) and its structured outcome, ``cache.py``
fingerprints jobs so solved points are never recomputed, this module
schedules jobs over worker processes, and ``campaign.py`` sweeps
parameter grids into JSONL result files.  Batch-level parallelism
composes with the single-model parallel search
(:mod:`repro.scheduler.parallel`): a job whose scheduler config sets
``parallel >= 2`` spawns its own intra-job workers, and the engine's
``cores`` budget shrinks the pool so jobs × workers stays within the
machine.

Every job, batch or service, takes one pipeline:
:meth:`SubmissionBridge.submit` runs the pre-search lint gate, the
cache lookup (realigning a hit to the requesting job), dedup by
fingerprint and dispatch; its completion folds a dead worker into an
``error`` outcome and writes non-error outcomes through to the cache.
The service submits one job at a time to a long-lived bridge.
``BatchEngine.run`` is a client of the same bridge: it submits every
job (specifications or prepared :class:`~repro.batch.job.BatchJob`
objects) with dispatch held, then releases the fresh computes — inline
when ``max_workers <= 1`` or only one job executes (the serial
baseline the throughput bench compares against), otherwise on one
``ProcessPoolExecutor`` — and returns a :class:`BatchResult` whose
outcome list preserves submission order regardless of completion order.
Fresh computes are released **hardest-first** by default — ordered by
:func:`predict_states`, a heuristic estimate of each job's search
states — so one huge job starts early instead of serialising the
pool's tail; the ordering affects completion order only, never the
outcomes or the JSONL bytes.

Timeouts are cooperative: the per-job budget is folded into the DFS
scheduler's ``max_seconds`` and checked inside the worker, so a timed
out job returns a structured ``timeout`` outcome instead of leaving a
poisoned worker behind.  The budget bounds the schedule *search* (the
only super-polynomial stage); composition and the optional
codegen/simulate stages run outside it.  A worker that dies anyway (OOM kill, broken
pool) surfaces as an ``error`` outcome, never as an engine exception.
"""

from __future__ import annotations

import json
import math
import os
import sys
import threading
import time
from concurrent.futures import (
    BrokenExecutor,
    CancelledError,
    Future,
    ProcessPoolExecutor,
)
from dataclasses import dataclass, field, replace
from functools import partial
from multiprocessing import get_context

from repro.batch.cache import ResultCache
from repro.obs.events import NULL_RECORDER, JsonlSink, Recorder
from repro.obs.metrics import MetricsRegistry
from repro.batch.job import (
    BatchJob,
    JobOutcome,
    STATUS_ERROR,
    STATUS_INFEASIBLE,
    STATUSES,
    execute_job,
)
from repro.blocks.composer import ComposerOptions
from repro.scheduler.config import SchedulerConfig
from repro.spec.model import EzRTSpec


def default_workers() -> int:
    """Default pool width: one worker per available CPU."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def predict_states(spec: EzRTSpec) -> float:
    """Heuristic search-hardness estimate of a specification.

    The key of the batch engine's hardest-first dispatch.  Monotone in
    the features that actually blow up the DFS: task instances over
    the hyper-period (the backtrack-free path length is linear in
    them), utilisation pressure (close to 1 forces tight interleavings
    and deep refutation subtrees) and preemption (every grant becomes
    a genuine branch; the preemptive share counts in whole tenths).
    The absolute value is meaningless; only the induced order matters.
    """
    tasks = spec.tasks
    schedule_period = math.lcm(*(task.period for task in tasks))
    instances = sum(schedule_period // task.period for task in tasks)
    utilization = sum(task.computation / task.period for task in tasks)
    pressure = 1.0 / max(0.05, 1.05 - min(utilization, 1.0))
    preemptive_share = sum(task.is_preemptive for task in tasks) / max(
        1, len(tasks)
    )
    preemptive = 1.0 + int(preemptive_share * 10) / 10.0
    return instances * (1.0 + len(tasks) / 4.0) * pressure * preemptive


def prelint_outcome(job: BatchJob) -> JobOutcome | None:
    """Diagnosed infeasible outcome for a trivially-infeasible job.

    The gate of :meth:`SubmissionBridge.submit`: runs the O(tasks)
    necessary-condition lint of
    :func:`repro.lint.specrules.presearch_diagnostics` in the *parent*
    process: when a spec provably cannot be scheduled (processor/bus
    overutilisation, a precedence chain that cannot meet its deadline)
    the returned outcome carries ``status="infeasible"`` with the
    violated conditions in ``diagnostics`` and zero search counters —
    the job never reaches the pool.  Returns ``None`` when the search
    must decide (warning-only findings ride along on the worker's
    result instead, via the scheduler's own gate).
    """
    # deferred import: keeps the worker-imported module graph lean
    from repro.lint.diagnostics import has_errors
    from repro.lint.specrules import presearch_diagnostics

    diagnostics = presearch_diagnostics(
        job.spec, engine=job.config.engine
    )
    if not has_errors(diagnostics):
        return None
    return JobOutcome(
        spec_name=job.spec.name,
        status=STATUS_INFEASIBLE,
        key=job.key(),
        n_tasks=len(job.spec.tasks),
        diagnostics=[d.to_dict() for d in diagnostics],
        meta=dict(job.meta),
    )


@dataclass
class BatchStats:
    """Aggregate accounting of one engine run."""

    total: int = 0
    feasible: int = 0
    infeasible: int = 0
    timeout: int = 0
    error: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    #: bytes served from the result cache (canonical-JSON size of
    #: every hit payload), read off ``ResultCache.bytes_served``
    cache_bytes: int = 0
    deduplicated: int = 0
    #: jobs rejected by the pre-search lint gate (trivially-infeasible
    #: specs diagnosed in the parent; never shipped to the pool, never
    #: cached — recomputing the O(tasks) diagnosis is cheaper than a
    #: cache round-trip)
    prelint_rejected: int = 0
    wall_seconds: float = 0.0
    job_seconds: float = 0.0
    workers: int = 1
    #: worker processes each job's search spawns (1 = serial search),
    #: after the `cores` budget clamp
    intra_parallel: int = 1
    #: True when the requested intra-job `parallel` exceeded the
    #: `cores` budget and was clamped down to it
    parallel_clamped: bool = False
    #: True when executed jobs were dispatched hardest-first (ordered
    #: by predicted states per model-family fingerprint); ordering
    #: changes completion order only, never outcomes or JSONL content
    hardest_first: bool = False
    #: :mod:`repro.obs` metrics snapshot of the run
    #: (``{"counters", "gauges", "histograms"}``): cache
    #: hits/misses/bytes, executed and deduplicated job counts
    metrics: dict = field(default_factory=dict)

    @property
    def jobs_per_second(self) -> float:
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.total / self.wall_seconds

    @property
    def speedup(self) -> float:
        """Sum of per-job worker time over wall time (overlap factor)."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.job_seconds / self.wall_seconds

    @property
    def hit_rate(self) -> float:
        looked_up = self.cache_hits + self.cache_misses
        if looked_up == 0:
            return 0.0
        return self.cache_hits / looked_up

    def as_dict(self) -> dict:
        return {
            "total": self.total,
            "feasible": self.feasible,
            "infeasible": self.infeasible,
            "timeout": self.timeout,
            "error": self.error,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_bytes": self.cache_bytes,
            "deduplicated": self.deduplicated,
            "prelint_rejected": self.prelint_rejected,
            "hit_rate": self.hit_rate,
            "wall_seconds": self.wall_seconds,
            "job_seconds": self.job_seconds,
            "jobs_per_second": self.jobs_per_second,
            "speedup": self.speedup,
            "workers": self.workers,
            "intra_parallel": self.intra_parallel,
            "parallel_clamped": self.parallel_clamped,
            "hardest_first": self.hardest_first,
        }


@dataclass
class BatchResult:
    """Outcomes (in submission order) plus aggregate stats."""

    outcomes: list[JobOutcome] = field(default_factory=list)
    stats: BatchStats = field(default_factory=BatchStats)

    def rows(self) -> list[dict]:
        """Deterministic JSONL rows, one per outcome."""
        return [outcome.row() for outcome in self.outcomes]

    def to_jsonl(self) -> str:
        """Canonical JSONL document (sorted keys, compact, ``\\n``)."""
        return "".join(
            json.dumps(row, sort_keys=True, separators=(",", ":"))
            + "\n"
            for row in self.rows()
        )

    def write_jsonl(self, path: str) -> str:
        """Write the JSONL document to ``path``; returns the path."""
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_jsonl())
        return path

    def by_status(self, status: str) -> list[JobOutcome]:
        return [o for o in self.outcomes if o.status == status]

    def summary(self) -> str:
        """One-paragraph human summary of the run."""
        s = self.stats
        parts = [
            f"{s.total} job(s) in {s.wall_seconds:.2f}s "
            f"({s.jobs_per_second:.1f} jobs/s, {s.workers} worker(s), "
            f"overlap {s.speedup:.1f}x)",
            f"feasible {s.feasible}, infeasible {s.infeasible}, "
            f"timeout {s.timeout}, error {s.error}",
            f"cache: {s.cache_hits} hit(s), {s.cache_misses} miss(es)"
            + (
                f" ({100.0 * s.hit_rate:.0f}% hit rate)"
                if s.cache_hits + s.cache_misses
                else ""
            )
            + (
                f", {s.cache_bytes:,} byte(s) served from cache"
                if s.cache_bytes
                else ""
            ),
        ]
        if s.deduplicated:
            parts.append(
                f"deduplicated {s.deduplicated} repeated job(s) "
                "within the batch"
            )
        if s.prelint_rejected:
            parts.append(
                f"rejected {s.prelint_rejected} trivially-infeasible "
                "job(s) by pre-search diagnosis (no search run)"
            )
        if s.parallel_clamped:
            parts.append(
                f"intra-job parallel clamped to {s.intra_parallel} "
                "worker(s) to respect the cores budget"
            )
        if s.hardest_first:
            parts.append(
                "jobs dispatched hardest-first (predicted states)"
            )
        return "\n".join(parts)


class BatchEngine:
    """Parallel multi-spec synthesis with content-addressed caching.

    Args:
        composer_options: default spec → TPN options for jobs built
            from bare specifications.
        scheduler_config: default DFS configuration.
        max_workers: pool width; ``<= 1`` runs jobs inline in the
            calling process (no pool, the serial baseline).  ``None``
            uses :func:`default_workers`.
        job_timeout: default per-job wall-clock budget in seconds.
        cache: a :class:`ResultCache`; ``None`` disables caching.
        codegen_target / simulate / store_schedules: defaults for the
            optional downstream stages of jobs built from bare specs.
        cores: total core budget shared between the pool and intra-job
            parallel search.  When the scheduler config opts into
            ``parallel >= 2`` worker processes *per job*, the pool
            width shrinks to ``cores // parallel`` (at least 1) so the
            machine runs ~``cores`` busy processes, not
            ``jobs × workers`` — and when even a single job would
            oversubscribe the budget (``parallel > cores``) the
            intra-job ``parallel`` itself is clamped down to
            ``cores`` (surfaced as ``BatchStats.parallel_clamped``).
            ``None`` leaves ``max_workers`` untouched.  The clamp
            applies to jobs built from bare specifications through
            this engine's config; prepared :class:`BatchJob` objects
            carry their own configs unchanged.
        hardest_first: dispatch executed jobs in descending order of
            predicted search states (:func:`predict_states`).  Starting
            the stragglers first stops one huge job from serialising
            the pool's tail.  Purely a *dispatch* order: outcomes,
            JSONL rows and cache behaviour stay in submission order
            and byte-identical either way (regression-tested).
        progress: stream ``[progress] batch: done/total`` lines to
            stderr as executed jobs complete (``ezrt batch
            --progress``).  Completion-driven and rate-limited; it
            never touches outcomes or JSONL bytes.
    """

    def __init__(
        self,
        composer_options: ComposerOptions | None = None,
        scheduler_config: SchedulerConfig | None = None,
        *,
        max_workers: int | None = None,
        job_timeout: float | None = None,
        cache: ResultCache | None = None,
        codegen_target: str | None = None,
        simulate: bool = False,
        store_schedules: bool = False,
        cores: int | None = None,
        hardest_first: bool = True,
        progress: bool = False,
    ):
        self.composer_options = composer_options or ComposerOptions()
        self.scheduler_config = scheduler_config or SchedulerConfig()
        self.max_workers = (
            default_workers() if max_workers is None else max_workers
        )
        self.cores = cores
        self.parallel_clamped = False
        if cores is not None:
            if cores < 1:
                raise ValueError("cores budget must be >= 1")
            if self.scheduler_config.parallel > cores:
                # a single job may not oversubscribe the budget either:
                # the pool clamping below bottoms out at 1 worker, so
                # without this the machine would run `parallel` busy
                # processes against a smaller `cores` promise
                self.scheduler_config = replace(
                    self.scheduler_config, parallel=cores
                )
                self.parallel_clamped = True
            intra = max(1, self.scheduler_config.parallel)
            self.max_workers = max(
                1, min(self.max_workers, cores // intra)
            )
        self.job_timeout = job_timeout
        self.cache = cache
        self.codegen_target = codegen_target
        self.simulate = simulate
        self.store_schedules = store_schedules
        self.hardest_first = hardest_first
        #: stream ``[progress] batch: done/total`` heartbeat lines to
        #: stderr as jobs complete (completion-driven, rate-limited;
        #: per-job search heartbeats are a separate scheduler knob)
        self.progress = progress

    # ------------------------------------------------------------------
    def make_job(
        self, spec: EzRTSpec, meta: dict | None = None
    ) -> BatchJob:
        """Wrap a specification with this engine's defaults."""
        return BatchJob(
            spec=spec,
            options=self.composer_options,
            config=self.scheduler_config,
            timeout=self.job_timeout,
            codegen_target=self.codegen_target,
            simulate=self.simulate,
            store_schedule=self.store_schedules,
            meta=dict(meta or {}),
        )

    def _normalize(self, item) -> BatchJob:
        if isinstance(item, BatchJob):
            return item
        if isinstance(item, EzRTSpec):
            return self.make_job(item)
        raise TypeError(
            f"batch jobs must be EzRTSpec or BatchJob, got "
            f"{type(item).__name__}"
        )

    # ------------------------------------------------------------------
    def run(self, items) -> BatchResult:
        """Execute every job; outcomes come back in submission order.

        A client of :class:`SubmissionBridge`: every job is submitted,
        in order, to a bridge whose dispatch is held, so a duplicate
        always joins its leader and never races a finished compute
        into the cache.  The held fresh computes are then released
        (hardest-first unless disabled) and each outcome is realigned
        to its own job.
        """
        jobs = [self._normalize(item) for item in items]
        stats = BatchStats(
            total=len(jobs),
            workers=max(1, self.max_workers),
            intra_parallel=max(1, self.scheduler_config.parallel),
            parallel_clamped=self.parallel_clamped,
        )
        started = time.monotonic()
        # parent-side recorder: the cache-lookup phase and the whole
        # run get spans on a "batch" track in the same JSONL sink the
        # per-job workers append their compile/search spans to
        obs = NULL_RECORDER
        if getattr(self.scheduler_config, "trace_jsonl", None):
            obs = Recorder(
                JsonlSink(self.scheduler_config.trace_jsonl),
                track="batch",
            )
        run_t0 = obs.now_ns()
        # cache accounting by counter delta, not ad-hoc increments:
        # the cache is the single source of truth for hits, misses and
        # bytes served (a shared cache may be warm from another run)
        if self.cache is not None:
            hits_before = self.cache.hits
            misses_before = self.cache.misses
            bytes_before = self.cache.bytes_served

        bridge = SubmissionBridge(self)  # never started: holds
        with obs.span("cache-lookup", cat="batch", jobs=len(jobs)):
            submissions = [bridge.submit(job) for job in jobs]
        executed = [
            s for s in submissions if s.disposition == Submission.SUBMITTED
        ]
        stats.hardest_first = self.hardest_first and len(executed) > 1
        note_done = self._progress_printer(len(executed))
        for submission in executed:
            submission.future.add_done_callback(lambda _f: note_done())
        bridge.release(hardest_first=stats.hardest_first)

        stats.wall_seconds = time.monotonic() - started
        if self.cache is not None:
            stats.cache_hits = self.cache.hits - hits_before
            stats.cache_misses = self.cache.misses - misses_before
            stats.cache_bytes = (
                self.cache.bytes_served - bytes_before
            )
        outcomes: list[JobOutcome] = []
        for submission in submissions:
            outcome = submission.future.result()
            if submission.disposition == Submission.JOINED:
                # a duplicate shares its leader's outcome: realign it
                stats.deduplicated += 1
                outcome = _replay(outcome.to_dict(), submission.job)
            elif submission.disposition == Submission.REJECTED:
                stats.prelint_rejected += 1
            elif submission.disposition == Submission.SUBMITTED:
                # cache hits replay stored elapsed times; only work
                # actually done this run counts toward the overlap
                stats.job_seconds += outcome.elapsed_seconds
            if outcome.status not in STATUSES:
                outcome.status = STATUS_ERROR
            setattr(
                stats,
                outcome.status,
                getattr(stats, outcome.status) + 1,
            )
            outcomes.append(outcome)
        registry = MetricsRegistry()
        registry.inc("batch.jobs.total", len(jobs))
        registry.inc("batch.jobs.executed", len(executed))
        registry.inc("batch.jobs.deduplicated", stats.deduplicated)
        registry.inc(
            "batch.jobs.prelint_rejected", stats.prelint_rejected
        )
        if self.cache is not None:
            registry.inc("batch.cache.hits", stats.cache_hits)
            registry.inc("batch.cache.misses", stats.cache_misses)
            registry.inc(
                "batch.cache.bytes_served", stats.cache_bytes
            )
        stats.metrics = registry.snapshot()
        obs.record_span(
            "batch-run",
            run_t0,
            obs.now_ns(),
            cat="batch",
            args={"jobs": len(jobs), "executed": len(executed)},
        )
        return BatchResult(outcomes=outcomes, stats=stats)

    def _progress_printer(self, total: int):
        """Completion-driven ``[progress] batch`` heartbeat closure.

        Rate-limited on wall-clock like the search heartbeat, but
        always prints the final completion so a short batch still
        reports; a no-op callable when ``progress`` is off.
        """
        if not self.progress or total == 0:
            return lambda: None
        state = {"done": 0, "last": time.monotonic()}

        def note_done() -> None:
            state["done"] += 1
            now = time.monotonic()
            if state["done"] < total and now - state["last"] < 0.5:
                return
            state["last"] = now
            print(
                f"[progress] batch: {state['done']}/{total} "
                f"job(s) executed",
                file=sys.stderr,
                flush=True,
            )

        return note_done

    def bridge(self) -> "SubmissionBridge":
        """A started :class:`SubmissionBridge` over this engine."""
        bridge = SubmissionBridge(self)
        bridge.start()
        return bridge


def _replay(payload: dict, job: BatchJob) -> JobOutcome:
    """Materialise a stored/shared outcome for ``job``.

    The fingerprint is name-free, so an identical task set solved
    under another label still hits; the outcome is realigned to this
    job's name and campaign metadata.
    """
    outcome = JobOutcome.from_dict(payload)
    outcome.spec_name = job.spec.name
    outcome.meta = dict(job.meta)
    return outcome


@dataclass
class Submission:
    """One accepted unit of work from :meth:`SubmissionBridge.submit`.

    ``future`` always resolves to a :class:`JobOutcome` — never raises
    — and ``disposition`` records how the submission was satisfied:

    * ``"cached"`` — served from the result cache, future already done;
    * ``"joined"`` — an identical job (same content-addressed key) is
      already computing; this submission shares its future;
    * ``"submitted"`` — a fresh compute, shipped to a pool worker (or,
      on a bridge that was never started, held until
      :meth:`SubmissionBridge.release`);
    * ``"rejected"`` — the pre-search lint gate diagnosed the spec as
      trivially infeasible; the future is already done with an
      ``infeasible`` outcome carrying the diagnostics, and no pool
      worker was ever involved.
    """

    key: str
    job: BatchJob
    future: Future
    disposition: str

    CACHED = "cached"
    JOINED = "joined"
    SUBMITTED = "submitted"
    REJECTED = "rejected"


class SubmissionBridge:
    """The job pipeline: one-at-a-time submission over a worker pool.

    Batch and service both run every job through :meth:`submit`, which
    returns a :class:`Submission` whose future an asyncio caller can
    wrap with ``asyncio.wrap_future``.  A service bridge is started
    (:meth:`start`) and owns a persistent ``ProcessPoolExecutor``: it
    accepts jobs forever, from an event loop that must never block.  A
    bridge that is never started (the one :meth:`BatchEngine.run`
    builds) holds its fresh computes instead, and :meth:`release` runs
    them once the whole batch is submitted.

    Along the way the bridge applies, in order:

    * **the pre-search lint gate** — a trivially-infeasible spec
      resolves at once to a diagnosed ``infeasible`` outcome
      (``"rejected"``), never cached, never counted as a compute;
    * **cache read-through** — a hit resolves instantly, realigned to
      the requesting job, and never touches the pool;
    * **in-flight dedup** — N concurrent submissions of one
      content-addressed key share a single compute: the first becomes
      the leader (``"submitted"``), the rest join its future
      (``"joined"``).  The map is keyed by the same fingerprint the
      cache uses, so "identical" means identical spec *and* identical
      search configuration/budget;
    * **write-through** — finished non-error outcomes land in the
      cache before waiters are woken, so an immediate resubmission of
      a just-finished job hits.

    Worker death (OOM kill, segfault) is absorbed: every submission
    still queued on the broken pool resolves to a structured ``error``
    outcome, and a started bridge transparently replaces the pool, so
    the next submission computes normally instead of inheriting a
    poisoned executor.

    Thread-safety: ``submit`` may be called from any thread (the
    service calls it from the event-loop thread); completion runs on
    the executor's callback thread.  All shared state is guarded by one
    lock.  Metrics land in :attr:`metrics` (a process-local
    :class:`~repro.obs.metrics.MetricsRegistry`): submission and
    disposition counters plus an ``inflight`` gauge.
    """

    def __init__(self, engine: BatchEngine):
        self.engine = engine
        self.metrics = MetricsRegistry()
        self._lock = threading.Lock()
        self._inflight: dict[str, Future] = {}
        self._pool: ProcessPoolExecutor | None = None
        #: fresh computes held, while there is no pool, for :meth:`release`
        self._held: list[tuple[str, BatchJob, Future]] = []
        self._closed = False

    # ------------------------------------------------------------------
    def _new_pool(self, workers: int | None = None) -> ProcessPoolExecutor:
        try:
            # match repro.scheduler.parallel: fork is cheap and lets
            # fault-injection env vars set by tests reach the workers
            context = get_context("fork")
        except ValueError:  # pragma: no cover — non-fork platforms
            context = get_context()
        return ProcessPoolExecutor(
            max_workers=workers or max(1, self.engine.max_workers),
            mp_context=context,
        )

    def start(self) -> "SubmissionBridge":
        """Create the worker pool; idempotent until :meth:`shutdown`."""
        with self._lock:
            if self._closed:
                raise RuntimeError("bridge is shut down")
            if self._pool is None:
                self._pool = self._new_pool()
        return self

    @property
    def inflight(self) -> int:
        """Number of keys currently computing."""
        with self._lock:
            return len(self._inflight)

    # ------------------------------------------------------------------
    def submit(
        self,
        item,
        *,
        timeout: float | None = None,
        progress_dir: str | None = None,
    ) -> Submission:
        """Accept one spec/job; never blocks on the compute itself.

        ``timeout`` overrides the engine's default per-job budget for
        this submission.  Budgets fold into the content-addressed key,
        so the same spec under a different budget is deliberately a
        *different* job (a timeout verdict must never shadow a longer
        search) and does not dedup against it.

        ``progress_dir`` opts a *fresh* compute into live-progress
        spooling: the worker writes rate-limited search counters to
        ``<progress_dir>/<key>.json`` (see
        :class:`repro.obs.progress.ProgressFile`).  Keyed by the same
        fingerprint as the cache, so joined submissions observe the
        leader's spool; cached hits never spool (nothing runs).  The
        path is deliberately outside the cache key.
        """
        job = self.engine._normalize(item)
        if timeout is not None:
            job = replace(job, timeout=timeout)
        self.metrics.inc("bridge.submissions")
        rejected = prelint_outcome(job)
        if rejected is not None:
            # diagnosed without the pool: resolve immediately (never
            # cached, never counted as a compute)
            self.metrics.inc("bridge.rejected")
            future: Future = Future()
            future.set_result(rejected)
            return Submission(
                rejected.key, job, future, Submission.REJECTED
            )
        key = job.key()
        with self._lock:
            if self._closed:
                raise RuntimeError("bridge is shut down")
            cache = self.engine.cache
            if cache is not None:
                cached = cache.get(key)
                if cached is not None:
                    self.metrics.inc("bridge.cache_hits")
                    future = Future()
                    future.set_result(_replay(cached, job))
                    return Submission(
                        key, job, future, Submission.CACHED
                    )
            shared = self._inflight.get(key)
            if shared is not None:
                self.metrics.inc("bridge.dedup_joined")
                return Submission(key, job, shared, Submission.JOINED)
            result_future: Future = Future()
            self._inflight[key] = result_future
            self.metrics.inc("bridge.computed")
            self.metrics.max_gauge(
                "bridge.inflight_peak", len(self._inflight)
            )
            if progress_dir is not None:
                job = replace(
                    job,
                    progress_path=os.path.join(
                        progress_dir, f"{key}.json"
                    ),
                )
            if self._pool is None:
                self._held.append((key, job, result_future))
                return Submission(
                    key, job, result_future, Submission.SUBMITTED
                )
            pool_future = self._pool.submit(execute_job, job)
        pool_future.add_done_callback(
            partial(self._complete, key, job, result_future)
        )
        return Submission(key, job, result_future, Submission.SUBMITTED)

    def release(self, *, hardest_first: bool = False) -> None:
        """Run the held fresh computes to completion; closes the bridge.

        The computes run in submission order, or with ``hardest_first``
        in descending order of :func:`predict_states`.  They run inline
        in this process when the engine's width is ``<= 1`` or only
        one is held, and otherwise on one pool of
        ``min(max_workers, held)`` workers, reaped before returning.
        """
        with self._lock:
            held, self._held = self._held, []
            self._closed = True
        if hardest_first:
            # the sort is stable: ties keep submission order, so the
            # permutation is deterministic.  Only the *execution*
            # order changes, never an outcome.
            held.sort(key=lambda entry: -predict_states(entry[1].spec))
        width = min(self.engine.max_workers, len(held))
        if width <= 1:
            for key, job, result_future in held:
                done: Future = Future()
                done.set_result(execute_job(job))
                self._complete(key, job, result_future, done)
            return
        with self._new_pool(width) as pool:
            for key, job, result_future in held:
                pool.submit(execute_job, job).add_done_callback(
                    partial(self._complete, key, job, result_future)
                )

    # ------------------------------------------------------------------
    def _complete(
        self,
        key: str,
        job: BatchJob,
        result_future: Future,
        pool_future: Future,
    ) -> None:
        """Fold any failure into a JobOutcome, write the cache
        through, then wake every waiter."""
        broken = False
        try:
            outcome = pool_future.result()
        except BaseException as err:  # noqa: BLE001 — dead worker
            broken = isinstance(err, BrokenExecutor)
            if isinstance(err, CancelledError):
                message = "CancelledError: bridge shut down"
            else:
                message = f"{type(err).__name__}: {err}"
            outcome = JobOutcome(
                spec_name=job.spec.name,
                status=STATUS_ERROR,
                key=key,
                n_tasks=len(job.spec.tasks),
                error=message,
                meta=dict(job.meta),
            )
        with self._lock:
            self._inflight.pop(key, None)
            if broken and self._pool is not None:
                # one dead worker poisons the whole executor: replace
                # it so the *next* submission computes instead of
                # failing fast with BrokenProcessPool
                dead, self._pool = self._pool, self._new_pool()
                dead.shutdown(wait=False)
        try:
            cache = self.engine.cache
            if cache is not None and outcome.status != STATUS_ERROR:
                # errors stay uncached: they may be environmental
                # (killed worker, broken pool) rather than a property
                # of the model.  Written before set_result so a waiter
                # that instantly resubmits sees the hit.
                cache.put(key, outcome.to_dict())
            self.metrics.inc(f"bridge.outcomes.{outcome.status}")
        finally:
            # a failed write-through must not strand the waiters
            result_future.set_result(outcome)

    # ------------------------------------------------------------------
    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting work and reap every worker process.

        Pending pool futures are cancelled; their waiters resolve to
        structured ``error`` outcomes (never hang).  Idempotent.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=wait, cancel_futures=True)
