"""Tests of the ``repro.batch`` subsystem: engine, cache, campaigns.

Covers the failure paths the subsystem exists to contain — a worker
raising mid-job, per-job timeout expiry, cache hit/miss accounting —
plus determinism of the JSONL output across runs with a fixed seed,
cache-key semantics, the campaign runner and the ``ezrt batch`` CLI.
"""

import json

import pytest

from repro.batch import (
    BatchEngine,
    BatchJob,
    CampaignGrid,
    JobOutcome,
    ResultCache,
    STATUS_ERROR,
    STATUS_FEASIBLE,
    STATUS_INFEASIBLE,
    STATUS_TIMEOUT,
    Submission,
    SubmissionBridge,
    cache_key,
    execute_job,
    run_campaign,
)
from repro.blocks import ComposerOptions
from repro.cli import main
from repro.errors import SpecificationError
from repro.scheduler import SchedulerConfig
from repro.spec import fig3_precedence, fig4_exclusion, mine_pump
from repro.spec.model import EzRTSpec, Task
from repro.batch.engine import predict_states
from repro.workloads import campaign_task_sets, random_task_set


def broken_spec() -> EzRTSpec:
    """A spec that passes construction but explodes inside the worker.

    ``Task`` accepts ``deadline < computation`` (the builder and DSL
    validate, direct construction does not); composition then raises —
    exactly the mid-job worker failure the engine must contain.
    """
    return EzRTSpec(
        "broken",
        tasks=[Task("t0", computation=5, deadline=2, period=10)],
    )


class TestExecuteJob:
    def test_feasible(self):
        outcome = execute_job(BatchJob(spec=fig3_precedence()))
        assert outcome.status == STATUS_FEASIBLE
        assert outcome.feasible
        assert outcome.schedule_length > 0
        assert outcome.makespan > 0
        assert outcome.n_tasks == 3
        assert outcome.error is None
        assert outcome.firing_schedule is None  # not stored by default

    def test_infeasible(self):
        # two tasks that each need the whole period: c1 + c2 > p
        spec = EzRTSpec(
            "overfull",
            tasks=[
                Task("a", computation=6, deadline=10, period=10),
                Task("b", computation=6, deadline=10, period=10),
            ],
        )
        outcome = execute_job(BatchJob(spec=spec))
        assert outcome.status == STATUS_INFEASIBLE
        assert not outcome.feasible
        assert not outcome.exhausted

    def test_worker_error_is_contained(self):
        outcome = execute_job(BatchJob(spec=broken_spec()))
        assert outcome.status == STATUS_ERROR
        assert outcome.error is not None
        assert "SpecificationError" in outcome.error

    def test_timeout_expiry(self):
        # mine-pump generates >1024 states, so the DFS wall-clock
        # check fires and an (effectively) zero budget must expire
        outcome = execute_job(
            BatchJob(spec=mine_pump(), timeout=1e-6)
        )
        assert outcome.status == STATUS_TIMEOUT
        assert outcome.exhausted
        assert not outcome.feasible

    def test_store_schedule(self):
        outcome = execute_job(
            BatchJob(spec=fig3_precedence(), store_schedule=True)
        )
        assert outcome.firing_schedule
        assert len(outcome.firing_schedule) == outcome.schedule_length

    def test_codegen_and_simulate_stages(self):
        outcome = execute_job(
            BatchJob(
                spec=fig3_precedence(),
                codegen_target="hostsim",
                simulate=True,
            )
        )
        assert outcome.status == STATUS_FEASIBLE
        assert outcome.codegen_files and outcome.codegen_files > 0
        assert outcome.trace_violations == 0

    def test_compiles_net_once_across_stages(self, monkeypatch):
        """Schedule, codegen and simulate stages share one compiled
        net: the job must not re-freeze the net between stages."""
        from repro.tpn.net import TimePetriNet

        calls = {"n": 0}
        original = TimePetriNet.compile

        def counting_compile(self):
            calls["n"] += 1
            return original(self)

        monkeypatch.setattr(TimePetriNet, "compile", counting_compile)
        outcome = execute_job(
            BatchJob(
                spec=fig3_precedence(),
                codegen_target="hostsim",
                simulate=True,
            )
        )
        assert outcome.status == STATUS_FEASIBLE
        assert calls["n"] == 1

    def test_rows_exclude_wall_clock_throughput(self):
        """states_per_second is wall-clock-derived and must never leak
        into the deterministic JSONL row."""
        outcome = execute_job(BatchJob(spec=fig3_precedence()))
        row = outcome.row()
        assert "states_per_second" not in row["search"]
        assert "elapsed_seconds" not in row["search"]

    def test_effective_config_folds_timeout(self):
        job = BatchJob(
            spec=fig3_precedence(),
            config=SchedulerConfig(max_seconds=10.0),
            timeout=2.0,
        )
        assert job.effective_config().max_seconds == 2.0
        job = BatchJob(
            spec=fig3_precedence(),
            config=SchedulerConfig(max_seconds=1.0),
            timeout=2.0,
        )
        assert job.effective_config().max_seconds == 1.0


#: A non-default value for every SchedulerConfig field that enters the
#: cache key; each one alone must produce a different key.
_KNOB_ALTERNATIVES = {
    "priority_mode": "strict",
    "delay_mode": "extremes",
    "partial_order": False,
    "reset_policy": "intermediate",
    "engine": "reference",
    "max_states": 1_000,
    "max_seconds": 5.0,
    "policy": "latest",
    "policy_seed": 7,
    "parallel": 2,
    "portfolio": ("earliest", "latest"),
}


class TestCacheKey:
    def test_identifier_and_name_insensitive(self):
        # same content, freshly generated identifiers each build
        a = random_task_set(3, 0.4, seed=7)
        b = random_task_set(3, 0.4, seed=7, name="другое-имя")
        options, config = ComposerOptions(), SchedulerConfig()
        assert cache_key(a, options, config) == cache_key(
            b, options, config
        )

    def test_sensitive_to_content_and_config(self):
        spec = random_task_set(3, 0.4, seed=7)
        other = random_task_set(3, 0.4, seed=8)
        options, config = ComposerOptions(), SchedulerConfig()
        base = cache_key(spec, options, config)
        assert cache_key(other, options, config) != base
        assert (
            cache_key(spec, ComposerOptions(style="expanded"), config)
            != base
        )
        assert (
            cache_key(
                spec, options, SchedulerConfig(delay_mode="extremes")
            )
            != base
        )
        assert cache_key(spec, options, config, simulate=True) != base

    def test_timeout_changes_key(self):
        spec = fig3_precedence()
        assert (
            BatchJob(spec=spec, timeout=1.0).key()
            != BatchJob(spec=spec, timeout=2.0).key()
        )

    def test_progress_path_not_in_key(self, tmp_path):
        """The live-progress spool is pure observability: a streamed
        submission must still hit the cache entry of an identical
        job that never spooled."""
        spec = fig3_precedence()
        plain = BatchJob(spec=spec)
        spooled = BatchJob(
            spec=spec, progress_path=str(tmp_path / "p.json")
        )
        assert plain.key() == spooled.key()

    def test_engine_changes_key(self):
        """Regression: engine selection must be part of the key.

        Before v3 the fingerprint hashed every scheduler knob *except*
        the engine, so runs on different engines collided
        on one cache entry despite differing stats and schedule
        shapes.
        """
        spec = fig3_precedence()
        options = ComposerOptions()
        keys = {
            cache_key(spec, options, SchedulerConfig(engine=engine))
            for engine in ("kernel", "reference", "stateclass")
        }
        assert len(keys) == 3

    def test_v2_entries_miss_cleanly(self, tmp_path):
        """Pre-engine (v2) and pre-v4 (``parallel_mode``) cache entries
        are never served under the current layout."""
        import hashlib

        from repro.batch.cache import (
            CACHE_FORMAT_VERSION,
            job_fingerprint,
        )

        assert CACHE_FORMAT_VERSION == 4
        spec = fig3_precedence()
        options, config = ComposerOptions(), SchedulerConfig()
        # the v2 layout: old version tag, no engine field
        v2 = job_fingerprint(spec, options, config)
        v2["v"] = 2
        del v2["scheduler"]["engine"]
        # the v3 layout: old version tag plus the parallel-mode knob
        v3 = job_fingerprint(spec, options, config)
        v3["v"] = 3
        v3["scheduler"]["parallel_mode"] = "portfolio"
        for document in (v2, v3):
            stale_key = hashlib.sha256(
                json.dumps(
                    document, sort_keys=True, separators=(",", ":")
                ).encode("utf-8")
            ).hexdigest()

            cache = ResultCache(str(tmp_path / f"cache-v{document['v']}"))
            cache.put(stale_key, {"status": "feasible", "stale": True})
            engine = BatchEngine(max_workers=1, cache=cache)
            result = engine.run([spec])
            # the stale payload must not be replayed: the job executed
            assert result.stats.cache_hits == 0
            assert result.stats.cache_misses == 1
            assert result.outcomes[0].status == STATUS_FEASIBLE
            assert "stale" not in result.outcomes[0].to_dict().get(
                "meta", {}
            )
            assert result.outcomes[0].key != stale_key

    def test_fingerprint_covers_every_search_knob(self):
        """Every SchedulerConfig field except the two observability
        knobs is part of the key, so a new field cannot be left out of
        the fingerprint silently."""
        from dataclasses import fields

        from repro.batch.cache import job_fingerprint

        document = job_fingerprint(
            fig3_precedence(), ComposerOptions(), SchedulerConfig()
        )
        knobs = {f.name for f in fields(SchedulerConfig)} - {
            "trace_jsonl",
            "progress",
        }
        assert set(document["scheduler"]) == knobs

    @pytest.mark.parametrize(
        "knob", sorted(_KNOB_ALTERNATIVES), ids=str
    )
    def test_each_search_knob_moves_the_key(self, knob):
        spec, options = fig3_precedence(), ComposerOptions()
        base = cache_key(spec, options, SchedulerConfig())
        moved = SchedulerConfig(**{knob: _KNOB_ALTERNATIVES[knob]})
        assert cache_key(spec, options, moved) != base

    def test_knob_alternatives_cover_every_search_knob(self):
        from dataclasses import fields

        knobs = {f.name for f in fields(SchedulerConfig)} - {
            "trace_jsonl",
            "progress",
        }
        assert set(_KNOB_ALTERNATIVES) == knobs

    @pytest.mark.parametrize(
        "knob, value",
        [("trace_jsonl", "trace.jsonl"), ("progress", True)],
        ids=["trace_jsonl", "progress"],
    )
    def test_observability_knobs_share_the_key(self, knob, value):
        spec, options = fig3_precedence(), ComposerOptions()
        base = cache_key(spec, options, SchedulerConfig())
        observed = SchedulerConfig(**{knob: value})
        assert cache_key(spec, options, observed) == base


class TestResultCache:
    def test_hit_miss_accounting(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        assert cache.get("deadbeef") is None
        cache.put("deadbeef", {"status": "feasible"})
        assert cache.get("deadbeef") == {"status": "feasible"}
        assert cache.hits == 1
        assert cache.misses == 1
        assert "deadbeef" in cache
        assert len(cache) == 1

    def test_persists_across_instances(self, tmp_path):
        directory = str(tmp_path / "cache")
        ResultCache(directory).put("k", {"x": 1})
        fresh = ResultCache(directory)
        assert fresh.get("k") == {"x": 1}
        assert fresh.hits == 1

    def test_clear(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        cache.put("k", {"x": 1})
        cache.clear()
        assert cache.get("k") is None
        assert len(cache) == 0


class TestBatchEngine:
    def test_serial_run_preserves_order(self):
        engine = BatchEngine(max_workers=1)
        specs = [fig3_precedence(), fig4_exclusion()]
        result = engine.run(specs)
        assert [o.spec_name for o in result.outcomes] == [
            "fig3-precedence",
            "fig4-exclusion",
        ]
        assert result.stats.total == 2
        assert result.stats.feasible == 2
        assert result.stats.wall_seconds > 0

    def test_pooled_run_matches_serial(self):
        """Inline and pooled runs agree on the rows and on every count,
        through a duplicate, a prelint rejection and a cache hit."""
        cached = random_task_set(2, 0.3, seed=0)
        overloaded = EzRTSpec(  # U = 1.4: rejected before the search
            "overloaded",
            tasks=[
                Task("A", computation=7, deadline=10, period=10),
                Task("B", computation=7, deadline=10, period=10),
            ],
        )
        specs = [
            fig3_precedence(),
            fig4_exclusion(),
            broken_spec(),
            fig3_precedence(),
            overloaded,
            cached,
        ]
        warm = BatchEngine(max_workers=1).run([cached]).outcomes[0]
        counts = (
            "deduplicated",
            "prelint_rejected",
            "cache_hits",
            "cache_misses",
            "feasible",
            "infeasible",
            "error",
        )
        runs = []
        for workers in (1, 2):
            cache = ResultCache()
            cache.put(warm.key, warm.to_dict())
            result = BatchEngine(max_workers=workers, cache=cache).run(
                specs
            )
            runs.append(
                (
                    result.to_jsonl(),
                    {name: getattr(result.stats, name) for name in counts},
                )
            )
        assert runs[0] == runs[1]
        assert runs[1][1] == {
            "deduplicated": 1,
            "prelint_rejected": 1,
            "cache_hits": 1,
            "cache_misses": 4,
            "feasible": 4,
            "infeasible": 1,
            "error": 1,
        }

    def test_mixed_statuses_counted(self):
        engine = BatchEngine(max_workers=1, job_timeout=1e-6)
        result = engine.run(
            [
                BatchJob(spec=fig3_precedence()),  # no timeout set
                BatchJob(spec=mine_pump(), timeout=1e-6),
                BatchJob(spec=broken_spec()),
            ]
        )
        statuses = [o.status for o in result.outcomes]
        assert statuses == [
            STATUS_FEASIBLE,
            STATUS_TIMEOUT,
            STATUS_ERROR,
        ]
        assert result.stats.feasible == 1
        assert result.stats.timeout == 1
        assert result.stats.error == 1

    def test_cache_hits_and_misses(self):
        cache = ResultCache()
        engine = BatchEngine(max_workers=1, cache=cache)
        specs = [fig3_precedence(), fig4_exclusion()]
        first = engine.run(specs)
        assert first.stats.cache_hits == 0
        assert first.stats.cache_misses == 2
        second = engine.run(specs)
        assert second.stats.cache_hits == 2
        assert second.stats.cache_misses == 0
        assert second.stats.hit_rate == 1.0
        assert first.to_jsonl() == second.to_jsonl()

    def test_duplicate_jobs_execute_once(self):
        engine = BatchEngine(max_workers=1)
        result = engine.run(
            [fig3_precedence(), fig3_precedence(), fig3_precedence()]
        )
        assert result.stats.deduplicated == 2
        assert result.stats.feasible == 3
        rows = result.rows()
        assert rows[0] == rows[1] == rows[2]

    def test_errors_are_not_cached(self):
        cache = ResultCache()
        engine = BatchEngine(max_workers=1, cache=cache)
        engine.run([broken_spec()])
        result = engine.run([broken_spec()])
        # second run misses again: the error re-executed
        assert result.stats.cache_hits == 0
        assert result.stats.cache_misses == 1
        assert result.outcomes[0].status == STATUS_ERROR

    def test_rejects_unknown_items(self):
        with pytest.raises(TypeError):
            BatchEngine(max_workers=1).run(["not a spec"])

    def test_jsonl_rows_are_wall_clock_free(self):
        result = BatchEngine(max_workers=1).run([fig3_precedence()])
        row = result.rows()[0]
        assert "elapsed_seconds" not in json.dumps(row)
        assert row["status"] == STATUS_FEASIBLE
        assert row["search"]["states_visited"] > 0


class _FailingCache(ResultCache):
    """A cache whose every write fails, as on a full disk."""

    def put(self, key, payload):
        raise OSError("disk full")


class TestSubmissionBridge:
    """The one job pipeline, driven directly (batch and service both
    run every job through it)."""

    def test_held_duplicate_joins_its_leader(self):
        bridge = SubmissionBridge(BatchEngine(max_workers=1))
        leader = bridge.submit(fig3_precedence())
        twin = bridge.submit(fig3_precedence())
        assert leader.disposition == Submission.SUBMITTED
        assert twin.disposition == Submission.JOINED
        assert twin.future is leader.future
        assert not leader.future.done()  # held until release
        bridge.release()
        assert leader.future.result().status == STATUS_FEASIBLE
        counters = bridge.metrics.snapshot()["counters"]
        assert counters["bridge.computed"] == 1
        assert counters["bridge.dedup_joined"] == 1

    def test_released_bridge_refuses_submissions(self):
        bridge = SubmissionBridge(BatchEngine(max_workers=1))
        bridge.release()
        with pytest.raises(RuntimeError):
            bridge.submit(fig3_precedence())

    def test_rejected_submission_bypasses_cache_and_pool(self):
        cache = ResultCache()
        bridge = SubmissionBridge(BatchEngine(max_workers=1, cache=cache))
        overloaded = EzRTSpec(  # U = 1.4: rejected before the search
            "overloaded",
            tasks=[
                Task("A", computation=7, deadline=10, period=10),
                Task("B", computation=7, deadline=10, period=10),
            ],
        )
        submission = bridge.submit(overloaded)
        assert submission.disposition == Submission.REJECTED
        assert submission.future.done()  # resolved without release
        outcome = submission.future.result()
        assert outcome.status == STATUS_INFEASIBLE
        assert outcome.diagnostics
        assert (cache.hits, cache.misses, len(cache)) == (0, 0, 0)
        counters = bridge.metrics.snapshot()["counters"]
        assert counters["bridge.rejected"] == 1
        assert "bridge.computed" not in counters

    def test_failed_cache_write_does_not_strand_waiters(self):
        bridge = BatchEngine(max_workers=1, cache=_FailingCache()).bridge()
        try:
            submission = bridge.submit(fig3_precedence())
            outcome = submission.future.result(timeout=120)
        finally:
            bridge.shutdown()
        assert submission.disposition == Submission.SUBMITTED
        assert outcome.status == STATUS_FEASIBLE
        assert bridge.inflight == 0


class TestCoreBudget:
    def test_pool_shrinks_within_budget(self):
        engine = BatchEngine(
            scheduler_config=SchedulerConfig(parallel=2),
            max_workers=8,
            cores=8,
        )
        assert engine.max_workers == 4
        assert engine.scheduler_config.parallel == 2
        assert not engine.parallel_clamped

    def test_intra_job_parallel_clamped_to_cores(self):
        """Regression: cores=2 with parallel=4 used to oversubscribe.

        The pool clamped to one worker but each job still spawned four
        intra-job processes — more busy processes than the promised
        core budget.  The intra-job width must come down to the budget
        and the clamp must be visible in the stats.
        """
        engine = BatchEngine(
            scheduler_config=SchedulerConfig(parallel=4),
            max_workers=4,
            cores=2,
        )
        assert engine.scheduler_config.parallel == 2
        assert engine.max_workers == 1
        assert engine.parallel_clamped
        # busy processes = pool width x intra-job workers <= cores
        assert engine.max_workers * max(
            1, engine.scheduler_config.parallel
        ) <= 2

        result = engine.run([fig3_precedence()])
        assert result.stats.parallel_clamped
        assert result.stats.intra_parallel == 2
        assert result.outcomes[0].status == STATUS_FEASIBLE
        assert "clamped to 2" in result.summary()

    def test_single_core_budget_forces_serial_search(self):
        engine = BatchEngine(
            scheduler_config=SchedulerConfig(parallel=4),
            max_workers=4,
            cores=1,
        )
        assert engine.scheduler_config.parallel == 1  # serial search
        assert engine.max_workers == 1
        assert engine.parallel_clamped

    def test_clamp_reflected_in_stats_dict(self):
        engine = BatchEngine(
            scheduler_config=SchedulerConfig(parallel=4),
            max_workers=2,
            cores=2,
        )
        stats = engine.run([fig3_precedence()]).stats.as_dict()
        assert stats["intra_parallel"] == 2
        assert stats["parallel_clamped"] is True

    def test_invalid_budget_rejected(self):
        with pytest.raises(ValueError):
            BatchEngine(cores=0)


class TestCampaign:
    GRID = CampaignGrid(
        n_tasks=(2, 3),
        utilizations=(0.3, 0.5),
        seeds=(0, 1),
    )

    def test_grid_size_and_sweep_order(self):
        assert self.GRID.size == 8
        params = [
            p
            for p, _spec in campaign_task_sets(
                (2, 3), (0.3, 0.5), (0, 1)
            )
        ]
        assert params[0] == {
            "n_tasks": 2,
            "utilization": 0.3,
            "seed": 0,
        }
        assert params[-1] == {
            "n_tasks": 3,
            "utilization": 0.5,
            "seed": 1,
        }
        assert len(params) == 8

    def test_empty_axis_rejected(self):
        with pytest.raises(SpecificationError):
            CampaignGrid(n_tasks=(), utilizations=(0.3,))

    def test_jsonl_deterministic_across_fresh_runs(self, tmp_path):
        # two engines, no shared cache, fixed grid seeds
        for name in ("a", "b"):
            engine = BatchEngine(max_workers=1, job_timeout=30.0)
            run_campaign(
                self.GRID,
                engine,
                jsonl_path=str(tmp_path / f"{name}.jsonl"),
            )
        assert (tmp_path / "a.jsonl").read_bytes() == (
            tmp_path / "b.jsonl"
        ).read_bytes()

    def test_cached_rerun_is_byte_identical(self, tmp_path):
        cache = ResultCache()
        engine = BatchEngine(max_workers=1, cache=cache)
        first = run_campaign(
            self.GRID, engine, jsonl_path=str(tmp_path / "1.jsonl")
        )
        second = run_campaign(
            self.GRID, engine, jsonl_path=str(tmp_path / "2.jsonl")
        )
        assert second.stats.hit_rate >= 0.9
        assert (tmp_path / "1.jsonl").read_bytes() == (
            tmp_path / "2.jsonl"
        ).read_bytes()
        assert first.stats.cache_misses == self.GRID.size

    def test_report_contents(self):
        campaign = run_campaign(
            self.GRID, BatchEngine(max_workers=1)
        )
        assert "jobs             : 8" in campaign.report
        assert "feasible/point" in campaign.report
        assert "n=2" in campaign.report and "n=3" in campaign.report

    def test_rows_carry_campaign_meta(self):
        campaign = run_campaign(
            self.GRID, BatchEngine(max_workers=1)
        )
        row = campaign.result.rows()[0]
        assert row["meta"] == {
            "n_tasks": 2,
            "utilization": 0.3,
            "seed": 0,
        }


class TestTopLevelExports:
    def test_workload_generators_exported(self):
        import repro

        assert repro.random_task_set is random_task_set
        assert "random_task_set" in repro.__all__
        assert "uunifast" in repro.__all__
        spec = repro.random_task_set(3, 0.4, seed=1)
        assert len(spec.tasks) == 3
        assert abs(sum(repro.uunifast(4, 0.5, __import__("random").Random(0))) - 0.5) < 1e-9

    def test_batch_api_exported(self):
        import repro

        assert repro.BatchEngine is BatchEngine
        assert "run_campaign" in repro.__all__


class TestCliBatch:
    def test_builtin_specs_with_output(self, tmp_path, capsys):
        out = tmp_path / "rows.jsonl"
        code = main(
            ["batch", "@fig3", "@fig4", "-j", "1", "-o", str(out)]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "2 feasible" in printed
        rows = [
            json.loads(line)
            for line in out.read_text().splitlines()
        ]
        assert [r["spec"] for r in rows] == [
            "fig3-precedence",
            "fig4-exclusion",
        ]
        assert all(r["status"] == "feasible" for r in rows)

    def test_campaign_grid_with_cache_dir(self, tmp_path, capsys):
        args = [
            "batch",
            "--n-tasks", "2,3",
            "--utilizations", "0.3",
            "--seeds", "0-1",
            "-j", "1",
            "--timeout", "30",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "jobs             : 4" in first
        assert main(args) == 0  # second run served from disk cache
        second = capsys.readouterr().out
        assert "4 hit(s)" in second
        assert "(100% hit rate)" in second

    def test_grid_requires_both_axes(self, capsys):
        assert main(["batch", "--n-tasks", "2"]) == 2
        assert "campaign grids" in capsys.readouterr().err

    def test_no_work_is_an_error(self, capsys):
        assert main(["batch"]) == 2
        assert "nothing to do" in capsys.readouterr().err

    def test_verbose_lists_jobs(self, capsys):
        assert main(["batch", "@fig3", "-j", "1", "-v"]) == 0
        assert "fig3-precedence" in capsys.readouterr().out


class TestSchedulerMonotonicBudget:
    def test_dfs_never_reads_the_system_clock(self):
        # the budget must survive system clock adjustments, so the
        # adjustable wall clock is banned from the search entirely
        import inspect

        from repro.scheduler import dfs

        assert "time.time()" not in inspect.getsource(dfs)

    def test_max_seconds_budget_still_enforced(self):
        from repro.blocks import compose
        from repro.scheduler import find_schedule

        # an exhaustive refutation of ~750k states: ~0.7 s even on the
        # compiled kernel driver, so the 50 ms budget must cut it short
        spec = random_task_set(7, 0.75, seed=1)
        result = find_schedule(
            compose(spec), SchedulerConfig(max_seconds=0.05)
        )
        assert not result.feasible
        assert result.exhausted


class TestHardestFirstOrdering:
    """Hardest-first job dispatch by :func:`predict_states`.

    The contract: ordering jobs by predicted states changes
    *completion order only* — outcomes, JSONL bytes and cache
    behaviour stay in submission order — and the mode is surfaced on
    ``BatchStats``.
    """

    def _campaign(self, **engine_kwargs):
        engine = BatchEngine(max_workers=2, **engine_kwargs)
        grid = CampaignGrid(
            n_tasks=(2, 3), utilizations=(0.4, 0.8), seeds=(0,)
        )
        return engine.run(grid.jobs(engine))

    def test_jsonl_is_identical_either_way(self):
        ordered = self._campaign(hardest_first=True)
        plain = self._campaign(hardest_first=False)
        assert ordered.to_jsonl() == plain.to_jsonl()
        assert ordered.stats.hardest_first
        assert not plain.stats.hardest_first
        assert "hardest_first" in ordered.stats.as_dict()
        assert "hardest-first" in ordered.summary()

    def test_dispatch_order_is_hardest_first(self, monkeypatch):
        """With one worker the execution order is observable: the
        predicted-hardest job must run first, while outcomes keep
        submission order."""
        import repro.batch.engine as engine_module

        executed: list[str] = []
        real_execute = engine_module.execute_job

        def recording_execute(job):
            executed.append(job.spec.name)
            return real_execute(job)

        monkeypatch.setattr(
            engine_module, "execute_job", recording_execute
        )
        easy = random_task_set(2, 0.3, seed=0)
        hard = random_task_set(
            5, 0.9, seed=1, preemptive_fraction=1.0
        )
        engine = BatchEngine(
            max_workers=1,
            scheduler_config=SchedulerConfig(max_states=5_000),
        )
        result = engine.run([easy, hard])
        assert executed[0] == hard.name  # hardest dispatched first
        assert [o.spec_name for o in result.outcomes] == [
            easy.name,
            hard.name,
        ]  # submission order preserved

    def test_predict_states_is_monotone_in_pressure(self):
        easy = predict_states(random_task_set(2, 0.3, seed=0))
        hard = predict_states(
            random_task_set(
                6, 0.9, seed=0, preemptive_fraction=1.0
            )
        )
        assert hard > easy

    #: hardest-first dispatch permutation (submission indices) of the
    #: grid below, pinned so that an edit of :func:`predict_states`
    #: cannot reorder which jobs the pool starts first unnoticed
    PINNED_ORDER = [
        29, 23, 28, 17, 27, 25, 26, 22, 21, 15, 19, 24, 10, 13, 16,
        20, 11, 5, 4, 8, 18, 14, 6, 9, 3, 12, 2, 7, 1, 0,
    ]

    def test_dispatch_permutation_is_pinned(self, monkeypatch):
        """Execution order on a seeded grid with mixed preemptive
        shares (so the tenths bucketing matters) is the recorded
        permutation; outcomes stay in submission order."""
        import repro.batch.engine as engine_module

        specs = [
            spec
            for _params, spec in campaign_task_sets(
                (2, 3, 4, 5, 6),
                (0.3, 0.6, 0.9),
                (0, 1),
                preemptive_fraction=0.5,
            )
        ]
        position = {id(spec): index for index, spec in enumerate(specs)}
        executed: list[int] = []

        def recording_execute(job):
            executed.append(position[id(job.spec)])
            return JobOutcome(
                spec_name=job.spec.name,
                status=STATUS_FEASIBLE,
                key=job.key(),
                n_tasks=len(job.spec.tasks),
            )

        monkeypatch.setattr(
            engine_module, "execute_job", recording_execute
        )
        engine = BatchEngine(max_workers=1)
        result = engine.run(specs)
        assert executed == self.PINNED_ORDER
        assert [o.spec_name for o in result.outcomes] == [
            spec.name for spec in specs
        ]

    def test_cli_flag_disables_ordering(self, tmp_path, capsys):
        out = tmp_path / "rows.jsonl"
        assert (
            main(
                [
                    "batch",
                    "@fig3",
                    "--no-hardest-first",
                    "--jobs",
                    "1",
                    "-o",
                    str(out),
                ]
            )
            == 0
        )
        assert out.exists()
