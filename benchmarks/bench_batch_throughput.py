"""Experiment BT1 — batch engine throughput: serial vs pooled + cache.

Acceptance benchmark of the ``repro.batch`` subsystem on a ≥16-spec
campaign:

* the pooled :class:`~repro.batch.BatchEngine` beats serial synthesis
  wall-clock.  On a many-core box the speedup comes from genuine
  parallelism; on a constrained box it still materialises because a
  realistic campaign contains hard points capped by the per-job
  wall-clock budget, and pooled workers overlap those waits while
  serial execution pays them back to back;
* a second identical campaign run is served from the result cache
  (≥ 90% hits) and produces byte-identical JSONL result rows.

The grid mixes a low-utilisation band (fast, feasible) with a
high-utilisation band whose points are overwhelmingly timeout-bound —
the shape any feasibility-frontier sweep has.

Each campaign is timed once, collector-free, and both tests write
their rows (one per worker count) and gates to ``BENCH_batch.json``
at the repository root (:func:`harness.write_bench`).
"""

from harness import collector_free, gate, row, write_bench
from repro.batch import BatchEngine, CampaignGrid, ResultCache, run_campaign

#: n ∈ {4, 6} × U ∈ {0.4, 0.75} × 4 seeds = 16 jobs.  At U=0.75 nearly
#: every seed exhausts a 1 s budget (measured: >1 s unbounded), so the
#: per-job timeout dominates the serial wall-clock.
GRID = CampaignGrid(
    n_tasks=(4, 6),
    utilizations=(0.4, 0.75),
    seeds=(1, 2, 3, 4),
)
JOB_TIMEOUT = 0.5
POOL_WORKERS = 8


def _run(max_workers: int, cache: ResultCache | None):
    engine = BatchEngine(
        max_workers=max_workers,
        job_timeout=JOB_TIMEOUT,
        cache=cache,
    )
    return collector_free(lambda: run_campaign(GRID, engine))


def test_pooled_beats_serial(report):
    assert GRID.size >= 16
    serial_campaign, serial_wall = _run(max_workers=1, cache=None)
    pooled_campaign, pooled_wall = _run(
        max_workers=POOL_WORKERS, cache=None
    )
    # verdicts are monotone in the effective budget: under CPU
    # contention a pooled worker may run out of wall-clock where the
    # serial run concluded (feasible/infeasible → timeout), but it can
    # never *find* a schedule the serial search missed — so pooled
    # feasible points must be a subset of serial ones, and the two
    # runs must agree on the bulk of the grid
    serial_feasible = {
        i
        for i, o in enumerate(serial_campaign.outcomes)
        if o.feasible
    }
    pooled_feasible = {
        i
        for i, o in enumerate(pooled_campaign.outcomes)
        if o.feasible
    }
    assert pooled_feasible <= serial_feasible
    agreeing = sum(
        s.status == p.status
        for s, p in zip(
            serial_campaign.outcomes, pooled_campaign.outcomes
        )
    )
    assert agreeing >= GRID.size - 4
    # the campaign must contain real budget-bound work, or the
    # comparison degenerates into measuring pool overhead
    hard = (
        pooled_campaign.stats.timeout
        + pooled_campaign.stats.infeasible
    )
    assert hard >= 4
    report(
        "BT1",
        f"{GRID.size}-spec campaign serial vs pooled({POOL_WORKERS})",
        "pooled wins",
        f"{serial_wall:.2f}s vs {pooled_wall:.2f}s "
        f"({serial_wall / pooled_wall:.1f}x)",
    )
    write_bench(
        "batch",
        [
            row(f"grid{GRID.size}:w1", "warm", "campaign",
                seconds=serial_wall),
            row(f"grid{GRID.size}:w{POOL_WORKERS}", "warm", "campaign",
                seconds=pooled_wall),
        ],
        [
            gate("pooled_vs_serial", 1.0, serial_wall / pooled_wall,
                 pooled_wall < serial_wall)
        ],
    )


def test_second_run_hits_cache_with_identical_rows(report, tmp_path):
    cache = ResultCache(str(tmp_path / "cache"))
    engine = BatchEngine(
        max_workers=POOL_WORKERS,
        job_timeout=JOB_TIMEOUT,
        cache=cache,
    )
    first = run_campaign(
        GRID, engine, jsonl_path=str(tmp_path / "run1.jsonl")
    )
    assert first.stats.cache_hits == 0
    assert first.stats.cache_misses == GRID.size

    second, cached_wall = collector_free(
        lambda: run_campaign(
            GRID, engine, jsonl_path=str(tmp_path / "run2.jsonl")
        )
    )
    hit_rate = second.stats.hit_rate
    first_bytes = (tmp_path / "run1.jsonl").read_bytes()
    second_bytes = (tmp_path / "run2.jsonl").read_bytes()
    assert first_bytes == second_bytes
    report(
        "BT1",
        "re-run cache hit rate / identical JSONL",
        ">=90% / yes",
        f"{100.0 * hit_rate:.0f}% / "
        f"{'yes' if first_bytes == second_bytes else 'NO'}",
    )

    # a cold engine sharing the persisted directory also hits
    fresh = BatchEngine(
        max_workers=1,
        job_timeout=JOB_TIMEOUT,
        cache=ResultCache(str(tmp_path / "cache")),
    )
    third = run_campaign(GRID, fresh)
    write_bench(
        "batch",
        [
            row(f"grid{GRID.size}:w{POOL_WORKERS}-cached", "warm",
                "campaign", seconds=cached_wall)
        ],
        [
            gate("rerun_hit_rate", 0.9, hit_rate, hit_rate >= 0.9),
            gate("cold_engine_hit_rate", 1.0, third.stats.hit_rate,
                 third.stats.hit_rate == 1.0),
        ],
    )
