"""Parallel multi-spec synthesis: engine, result cache, campaigns.

The seed pipeline synthesises one specification at a time in one
process; this subsystem turns it into a throughput-oriented service in
the spirit of batch formal-analysis engines:

* :class:`~repro.batch.engine.BatchEngine` fans
  compose → schedule → (optional codegen/simulate) jobs out over a
  ``ProcessPoolExecutor`` with cooperative per-job timeouts and returns
  structured per-job outcomes (``feasible`` / ``infeasible`` /
  ``timeout`` / ``error``) plus aggregate throughput stats;
* :class:`~repro.batch.cache.ResultCache` memoises outcomes under a
  content-addressed key, so repeated or grown campaigns skip every
  already-solved point;
* :func:`~repro.batch.campaign.run_campaign` sweeps
  ``n_tasks × utilization × seed`` grids of
  :func:`repro.workloads.random_task_set` workloads, emitting
  deterministic JSONL rows and an aggregate report.

Cache-key scheme
----------------

A job's key is ``sha256(canonical_json(fingerprint))`` where the
fingerprint is::

    {"v": CACHE_FORMAT_VERSION,
     "spec":      identifier-free spec content (tasks in declaration
                  order with (ph, r, c, d, p), scheduling mode, energy,
                  processor, code, relations; processors; messages),
     "composer":  ComposerOptions (block style, priority policy),
     "scheduler": effective SchedulerConfig (priority/delay mode,
                  partial order, reset policy, max_states and the
                  per-job timeout folded into max_seconds),
     "stages":    codegen target, simulate flag, store_schedule flag}

Auto-generated ``ez...`` identifiers and the specification *name* are
excluded — the key addresses semantic content, so the same task set
built twice (or under a different label) hits.  Anything that changes
what the pipeline computes — a different search budget, block style or
downstream stage — changes the key.  See :mod:`repro.batch.cache` for
the full layout and :data:`repro.batch.cache.CACHE_FORMAT_VERSION` for
invalidation on format changes.

Typical use::

    from repro.batch import BatchEngine, CampaignGrid, ResultCache
    from repro.batch import run_campaign

    engine = BatchEngine(
        max_workers=8, job_timeout=2.0, cache=ResultCache(".ezrt-cache")
    )
    grid = CampaignGrid(
        n_tasks=(4, 6, 8),
        utilizations=(0.3, 0.5, 0.7),
        seeds=tuple(range(10)),
    )
    campaign = run_campaign(grid, engine, jsonl_path="results.jsonl")
    print(campaign.report)

or, from the shell: ``ezrt batch --n-tasks 4,6,8 --utilizations
0.3,0.5,0.7 --seeds 0-9 -o results.jsonl``.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.batch.cache import (
        CACHE_FORMAT_VERSION,
        ResultCache,
        cache_key,
        job_fingerprint,
        spec_fingerprint,
    )
    from repro.batch.campaign import CampaignGrid, CampaignResult, run_campaign
    from repro.batch.engine import (
        BatchEngine,
        BatchResult,
        BatchStats,
        Submission,
        SubmissionBridge,
        default_workers,
    )
    from repro.batch.job import (
        BatchJob,
        JobOutcome,
        STATUS_ERROR,
        STATUS_FEASIBLE,
        STATUS_INFEASIBLE,
        STATUS_TIMEOUT,
        STATUSES,
        execute_job,
    )
else:
    __getattr__, __dir__ = lazy_exports(
        __name__,
        {
            "repro.batch.cache": (
                "CACHE_FORMAT_VERSION ResultCache cache_key "
                "job_fingerprint spec_fingerprint"
            ),
            "repro.batch.campaign": "CampaignGrid CampaignResult run_campaign",
            "repro.batch.engine": (
                "BatchEngine BatchResult BatchStats Submission "
                "SubmissionBridge default_workers"
            ),
            "repro.batch.job": (
                "BatchJob JobOutcome STATUS_ERROR STATUS_FEASIBLE "
                "STATUS_INFEASIBLE STATUS_TIMEOUT STATUSES execute_job"
            ),
        },
    )

__all__ = [
    "BatchEngine",
    "BatchJob",
    "BatchResult",
    "BatchStats",
    "CACHE_FORMAT_VERSION",
    "CampaignGrid",
    "CampaignResult",
    "JobOutcome",
    "ResultCache",
    "STATUSES",
    "STATUS_ERROR",
    "STATUS_FEASIBLE",
    "STATUS_INFEASIBLE",
    "STATUS_TIMEOUT",
    "Submission",
    "SubmissionBridge",
    "cache_key",
    "default_workers",
    "execute_job",
    "job_fingerprint",
    "run_campaign",
    "spec_fingerprint",
]
