"""Parallel search: determinism contract, cancellation, plumbing.

The contract under test (see ``docs/scheduling.md``):

* portfolio and work-stealing searches agree with the serial search's
  feasible/infeasible *verdict* on every model, under both clock-reset
  policies — orderings and partitions change which schedule is found
  and how fast, never whether one exists;
* every feasible parallel schedule replays through the checked
  reference engine (the :func:`validate_with_reference` gate runs
  inside ``ParallelScheduler.search``, so feasibility results in these
  tests are already reference-validated);
* a first-win cancellation leaves no orphaned worker processes.
"""

from __future__ import annotations

import multiprocessing
import pickle

import pytest

from repro.blocks import compose
from repro.errors import SchedulingError
from repro.scheduler import (
    ParallelScheduler,
    SchedulerConfig,
    SharedVisitedFilter,
    default_portfolio,
    find_schedule,
    parse_policy,
    split_frontier,
    validate_with_reference,
)
from repro.spec import paper_examples
from repro.scheduler.parallel import SubtreeJob
from repro.tpn.kernel import KernelEngine
from repro.workloads import random_task_set


def _no_ezrt_children() -> bool:
    """True when no parallel-search worker process is left alive."""
    return not [
        child
        for child in multiprocessing.active_children()
        if child.name.startswith("ezrt-")
    ]


def _verdict(model, config):
    result = find_schedule(model, config)
    return result


# ----------------------------------------------------------------------
# Policy plumbing
# ----------------------------------------------------------------------
class TestPolicies:
    def test_parse_policy_plain(self):
        assert parse_policy("latest") == ("latest", None)

    def test_parse_policy_seeded(self):
        assert parse_policy("random:7") == ("random", 7)

    def test_parse_policy_rejects_unknown(self):
        with pytest.raises(SchedulingError):
            parse_policy("dfs-of-doom")

    def test_parse_policy_rejects_seed_on_deterministic(self):
        with pytest.raises(SchedulingError):
            parse_policy("latest:3")

    def test_default_portfolio_always_hedges(self):
        for workers in (1, 2, 4, 8):
            policies = default_portfolio(workers)
            assert len(policies) == workers
            assert policies[0] == "earliest"
            # distinct entries: distinct random seeds, no duplicates
            assert len(set(policies)) == workers

    def test_config_validates_policy(self):
        with pytest.raises(SchedulingError):
            SchedulerConfig(policy="nope")
        with pytest.raises(SchedulingError):
            SchedulerConfig(portfolio=("earliest", "bogus"))
        with pytest.raises(SchedulingError):
            SchedulerConfig(parallel=-1)
        with pytest.raises(SchedulingError):
            SchedulerConfig(parallel_mode="threads")

    def test_serial_policies_agree_on_verdict(self):
        """Every ordering reaches the same verdict as the default."""
        model = compose(paper_examples()["fig4"])
        baseline = find_schedule(model, SchedulerConfig())
        for policy in ("latest", "min-laxity", "random"):
            result = find_schedule(
                model, SchedulerConfig(policy=policy, policy_seed=3)
            )
            assert result.feasible == baseline.feasible
            if result.feasible:
                validate_with_reference(
                    model.compiled(),
                    result.config,
                    result.firing_schedule,
                )

    def test_random_policy_is_seed_deterministic(self):
        model = compose(paper_examples()["fig8"])
        config = SchedulerConfig(policy="random", policy_seed=11)
        first = find_schedule(model, config)
        second = find_schedule(model, config)
        assert first.firing_schedule == second.firing_schedule
        assert (
            first.stats.states_visited == second.stats.states_visited
        )


# ----------------------------------------------------------------------
# Pickle-cheap CompiledNet handoff
# ----------------------------------------------------------------------
class TestCompiledNetPickle:
    def test_source_dropped_and_engines_work(self):
        model = compose(paper_examples()["fig3"])
        net = model.compiled()
        clone = pickle.loads(pickle.dumps(net))
        assert clone.source is None
        assert clone.transition_names == net.transition_names
        result = find_schedule(model, SchedulerConfig())
        engine = KernelEngine(clone)
        state = engine.initial()
        index = clone.transition_index
        for name, delay, _at in result.firing_schedule:
            state = engine.successor(state, index[name], delay)
        assert clone.is_final(state.marking)

    def test_pickle_is_smaller_without_source(self):
        net = compose(paper_examples()["mine-pump"]).compiled()
        lean = len(pickle.dumps(net))
        baseline = len(
            pickle.dumps(
                {
                    slot: getattr(net, slot)
                    for slot in type(net).__slots__
                    if slot != "source"
                }
            )
        )
        full_source = len(pickle.dumps(net.source))
        assert lean <= baseline * 1.1
        assert lean < full_source  # the builder dwarfs the vectors


# ----------------------------------------------------------------------
# Shared visited filter
# ----------------------------------------------------------------------
class TestSharedVisitedFilter:
    def test_add_claims_once(self):
        vf = SharedVisitedFilter(1 << 10)
        assert vf.add(12345)
        assert not vf.add(12345)
        assert vf.add(-98765)  # negative hashes are masked, not lost
        assert not vf.add(-98765)

    def test_zero_hash_is_representable(self):
        vf = SharedVisitedFilter(1 << 10)
        assert vf.add(0)
        assert not vf.add(0)

    def test_saturation_errs_toward_exploring(self):
        vf = SharedVisitedFilter(2)
        outcomes = [vf.add(value) for value in range(1, 64)]
        # never raises, and past saturation it keeps answering "new"
        assert outcomes[-1] is True

    def test_rejects_non_power_of_two(self):
        with pytest.raises(SchedulingError):
            SharedVisitedFilter(1000)

    def test_for_budget_sizing(self):
        assert SharedVisitedFilter.for_budget(1_000).slots >= 2_000
        assert SharedVisitedFilter.for_budget(10**9).slots == 1 << 22


# ----------------------------------------------------------------------
# Frontier split
# ----------------------------------------------------------------------
class TestSplitFrontier:
    def test_jobs_replay_onto_their_roots(self):
        model = compose(paper_examples()["fig4"])
        net = model.compiled()
        split = split_frontier(net, SchedulerConfig(), target_jobs=6)
        assert split.result is None
        assert len(split.jobs) >= 6
        engine = KernelEngine(net)
        for job in split.jobs:
            assert isinstance(job, SubtreeJob)
            state = engine.initial()
            now = 0
            for transition, delay, at in job.prefix:
                state = engine.successor(state, transition, delay)
                now += delay
                assert now == at
            assert now == job.now
            assert state.export() == (job.marking, job.clocks)
            # exported roots are live states, not dead ends
            root = engine.revive(job.marking, job.clocks)
            assert not net.has_missed_deadline(root.marking)

    def test_split_solves_trivial_models_serially(self):
        model = compose(paper_examples()["fig3"])
        net = model.compiled()
        split = split_frontier(
            net, SchedulerConfig(), target_jobs=10_000
        )
        # fig3's space is tiny: the split reaches a verdict on its own
        assert split.result is not None
        assert split.result.feasible

    def test_serial_fallback_is_validated_and_honest(self):
        """A split-solved worksteal run replays the schedule through
        the reference engine and reports that no worker ran."""
        model = compose(paper_examples()["fig3"])
        result = find_schedule(
            model,
            SchedulerConfig(parallel=4, parallel_mode="worksteal"),
        )
        assert result.feasible
        assert result.workers == 1  # solved during the split
        validate_with_reference(
            model.compiled(), result.config, result.firing_schedule
        )

    def test_seen_hashes_cover_the_frontier(self):
        net = compose(paper_examples()["fig8"]).compiled()
        split = split_frontier(net, SchedulerConfig(), target_jobs=4)
        if split.result is not None:
            pytest.skip("model solved during split")
        engine = KernelEngine(net)
        seen = set(split.seen_hashes)
        for job in split.jobs:
            root = engine.revive(job.marking, job.clocks)
            assert root._hash in seen


# ----------------------------------------------------------------------
# Verdict parity on the paper models
# ----------------------------------------------------------------------
PAPER_MODELS = ("fig3", "fig4", "fig8", "mine-pump")


class TestPaperModelParity:
    @pytest.mark.parametrize("name", PAPER_MODELS)
    @pytest.mark.parametrize("reset_policy", ("paper", "intermediate"))
    def test_portfolio_matches_serial(self, name, reset_policy):
        model = compose(paper_examples()[name])
        serial = _verdict(
            model, SchedulerConfig(reset_policy=reset_policy)
        )
        parallel = _verdict(
            model,
            SchedulerConfig(reset_policy=reset_policy, parallel=2),
        )
        assert parallel.feasible == serial.feasible
        assert parallel.workers == 2
        assert parallel.winner_policy is not None
        assert _no_ezrt_children()

    @pytest.mark.parametrize("name", PAPER_MODELS)
    @pytest.mark.parametrize("reset_policy", ("paper", "intermediate"))
    def test_worksteal_matches_serial(self, name, reset_policy):
        model = compose(paper_examples()[name])
        serial = _verdict(
            model, SchedulerConfig(reset_policy=reset_policy)
        )
        parallel = _verdict(
            model,
            SchedulerConfig(
                reset_policy=reset_policy,
                parallel=2,
                parallel_mode="worksteal",
            ),
        )
        assert parallel.feasible == serial.feasible
        assert _no_ezrt_children()


# ----------------------------------------------------------------------
# Verdict parity on a randomized sweep
# ----------------------------------------------------------------------
def _sweep_specs():
    """Small mixed instances: feasible and infeasible, NP and P."""
    cases = [
        (4, 0.6, 0, 0.0, 1.0),   # feasible, non-preemptive
        (5, 0.85, 7, 1.0, 0.7),  # feasible, heavy backtracking
        (6, 0.95, 3, 0.0, 0.6),  # infeasible, exhausted space
        (4, 0.9, 2, 0.5, 0.7),   # mixed scheduling
    ]
    for n, u, seed, pf, slack in cases:
        yield random_task_set(
            n,
            u,
            seed=seed,
            preemptive_fraction=pf,
            deadline_slack=slack,
        )


class TestRandomizedParity:
    @pytest.mark.parametrize(
        "spec", list(_sweep_specs()), ids=lambda s: s.name
    )
    @pytest.mark.parametrize("reset_policy", ("paper", "intermediate"))
    def test_both_modes_match_serial(self, spec, reset_policy):
        model = compose(spec)
        serial = _verdict(
            model,
            SchedulerConfig(
                reset_policy=reset_policy, max_states=100_000
            ),
        )
        assert not serial.exhausted, "sweep instance must be decidable"
        for mode in ("portfolio", "worksteal"):
            parallel = _verdict(
                model,
                SchedulerConfig(
                    reset_policy=reset_policy,
                    max_states=100_000,
                    parallel=2,
                    parallel_mode=mode,
                ),
            )
            assert parallel.feasible == serial.feasible, mode
            assert not parallel.exhausted, mode
        assert _no_ezrt_children()


# ----------------------------------------------------------------------
# Work-stealing re-split
# ----------------------------------------------------------------------
class TestResplit:
    """Mid-search frontier donation (``_Resplitter``).

    The threshold is monkeypatched *before* the fork so every worker
    inherits an aggressive trigger; real runs only re-split once a
    subtree has proven big (``RESPLIT_MIN_VISITED``).
    """

    @staticmethod
    def _hard_infeasible_model():
        # exhaustive (infeasible) space of ~1-2k states: large enough
        # that workers are still searching when the queue runs dry,
        # which is exactly the starvation signal that triggers exports
        return compose(
            random_task_set(
                5, 0.95, seed=7, deadline_slack=0.35
            )
        )

    def test_resplit_fires_and_preserves_verdict(self, monkeypatch):
        import repro.scheduler.parallel as par

        monkeypatch.setattr(par, "RESPLIT_MIN_VISITED", 8)
        model = self._hard_infeasible_model()
        serial = _verdict(
            model, SchedulerConfig(max_states=300_000)
        )
        assert not serial.feasible and not serial.exhausted
        parallel = _verdict(
            model,
            SchedulerConfig(
                max_states=300_000,
                parallel=2,
                parallel_mode="worksteal",
            ),
        )
        counters = (parallel.metrics or {}).get("counters", {})
        assert counters.get("worksteal.resplits", 0) > 0
        assert parallel.feasible == serial.feasible
        assert not parallel.exhausted
        assert _no_ezrt_children()

    def test_resplit_duplication_is_bounded(self, monkeypatch):
        """Donated subtrees are claim-filtered before export, so the
        union of worker searches re-explores at most a handful of
        states (job roots double-counted, lock-free claim races) —
        never a multiple of the serial space."""
        import repro.scheduler.parallel as par

        monkeypatch.setattr(par, "RESPLIT_MIN_VISITED", 8)
        model = self._hard_infeasible_model()
        serial = _verdict(
            model, SchedulerConfig(max_states=300_000)
        )
        parallel = _verdict(
            model,
            SchedulerConfig(
                max_states=300_000,
                parallel=2,
                parallel_mode="worksteal",
            ),
        )
        assert parallel.feasible == serial.feasible
        assert (
            parallel.stats.states_visited
            <= serial.stats.states_visited * 1.25 + 100
        )
        assert _no_ezrt_children()

    def test_resplit_feasible_schedule_still_validates(
        self, monkeypatch
    ):
        """A win reached through a donated job concatenates its prefix
        into a complete schedule (the reference-replay gate inside
        ``ParallelScheduler.search`` would raise otherwise)."""
        import repro.scheduler.parallel as par

        monkeypatch.setattr(par, "RESPLIT_MIN_VISITED", 8)
        spec = random_task_set(
            5, 0.85, seed=7, preemptive_fraction=1.0,
            deadline_slack=0.7,
        )
        model = compose(spec)
        result = find_schedule(
            model,
            SchedulerConfig(parallel=3, parallel_mode="worksteal"),
        )
        assert result.feasible
        assert result.firing_schedule
        assert _no_ezrt_children()


# ----------------------------------------------------------------------
# Cancellation and resource hygiene
# ----------------------------------------------------------------------
def _undecided_in_a_second():
    """A race no slot decides within a 1 s budget: the serial default
    ordering is still undecided after 3.5M states (~4 s on the compiled
    kernel driver), two seeded-random slots after 2M states each."""
    return random_task_set(
        7, 0.9, seed=2, preemptive_fraction=1.0, deadline_slack=0.7
    )


class TestCancellation:
    def test_first_win_leaves_no_orphans(self):
        """A fast winner cancels slow losers; everyone is reaped."""
        # the hard instance: the default ordering would grind for
        # hundreds of thousands of states, the race wins in a few
        # thousand — so losers are genuinely mid-flight when cancelled
        spec = random_task_set(
            5, 0.85, seed=7, preemptive_fraction=1.0, deadline_slack=0.7
        )
        model = compose(spec)
        for _ in range(2):
            result = find_schedule(
                model, SchedulerConfig(parallel=3)
            )
            assert result.feasible
            assert _no_ezrt_children()

    def test_worksteal_win_leaves_no_orphans(self):
        spec = random_task_set(
            5, 0.85, seed=7, preemptive_fraction=1.0, deadline_slack=0.7
        )
        model = compose(spec)
        result = find_schedule(
            model,
            SchedulerConfig(parallel=3, parallel_mode="worksteal"),
        )
        assert result.feasible
        assert _no_ezrt_children()

    def test_worksteal_cancel_never_claims_exhaustive_proof(self):
        """A budget-cancelled partition must report exhausted=True.

        With unexplored subtrees left behind, ``exhausted=False``
        would falsely claim a complete infeasibility proof.
        """
        spec = _undecided_in_a_second()
        model = compose(spec)
        result = find_schedule(
            model,
            SchedulerConfig(
                parallel=2,
                parallel_mode="worksteal",
                max_seconds=0.5,
                max_states=10_000_000,
            ),
        )
        assert not result.feasible
        assert result.exhausted
        assert _no_ezrt_children()

    def test_time_budget_is_honoured(self):
        """An undecidable-within-budget race stops near the deadline."""
        spec = _undecided_in_a_second()
        model = compose(spec)
        import time as _time

        started = _time.monotonic()
        result = find_schedule(
            model,
            SchedulerConfig(
                parallel=2, max_seconds=1.0, max_states=10_000_000
            ),
        )
        elapsed = _time.monotonic() - started
        assert not result.feasible
        assert result.exhausted
        assert elapsed < 15.0
        assert _no_ezrt_children()


# ----------------------------------------------------------------------
# Results and statistics
# ----------------------------------------------------------------------
class TestMergedStats:
    def test_portfolio_merges_all_workers(self):
        model = compose(paper_examples()["fig4"])
        serial = find_schedule(model, SchedulerConfig())
        parallel = find_schedule(model, SchedulerConfig(parallel=2))
        # two complete racers explored at least one serial search's
        # worth of states between them
        assert (
            parallel.stats.states_visited
            >= serial.stats.states_visited
        )

    def test_summary_reports_the_race(self):
        model = compose(paper_examples()["fig4"])
        result = find_schedule(model, SchedulerConfig(parallel=2))
        text = result.summary()
        assert "workers" in text
        assert "winning policy" in text

    def test_parallel_scheduler_rejects_serial_config(self):
        net = compose(paper_examples()["fig3"]).compiled()
        with pytest.raises(SchedulingError):
            ParallelScheduler(net, SchedulerConfig(parallel=1))

    def test_worksteal_rejects_reference_engine(self):
        net = compose(paper_examples()["fig3"]).compiled()
        with pytest.raises(SchedulingError):
            ParallelScheduler(
                net,
                SchedulerConfig(parallel=2, parallel_mode="worksteal"),
                engine="reference",
            )

    def test_explicit_portfolio_is_padded_and_truncated(self):
        net = compose(paper_examples()["fig3"]).compiled()
        scheduler = ParallelScheduler(
            net,
            SchedulerConfig(
                parallel=3, portfolio=("latest", "earliest")
            ),
        )
        policies = scheduler.portfolio_policies()
        assert len(policies) == 3
        assert policies[:2] == ("latest", "earliest")

    def test_portfolio_padding_never_duplicates_random_seeds(self):
        net = compose(paper_examples()["fig3"]).compiled()
        scheduler = ParallelScheduler(
            net,
            SchedulerConfig(parallel=4, portfolio=("random:1",)),
        )
        policies = scheduler.portfolio_policies()
        assert len(policies) == 4
        # every raced search must be distinct — a duplicated seed
        # would burn a worker on a byte-identical search
        assert len(set(policies)) == 4
        seeds = [parse_policy(p)[1] for p in policies]
        assert len(set(seeds)) == len(seeds)
        scheduler = ParallelScheduler(
            net,
            SchedulerConfig(
                parallel=2,
                portfolio=("latest", "earliest", "min-laxity"),
            ),
        )
        assert scheduler.portfolio_policies() == (
            "latest",
            "earliest",
        )


class TestBatchCoresBudget:
    def test_pool_width_shrinks_for_intra_job_parallelism(self):
        from repro.batch import BatchEngine

        engine = BatchEngine(
            scheduler_config=SchedulerConfig(parallel=4),
            max_workers=16,
            cores=8,
        )
        assert engine.max_workers == 2  # 8 cores / 4 workers per job
        engine = BatchEngine(
            scheduler_config=SchedulerConfig(parallel=8),
            max_workers=16,
            cores=4,
        )
        assert engine.max_workers == 1  # never starves below one job
        engine = BatchEngine(max_workers=16, cores=4)
        assert engine.max_workers == 4  # serial jobs: budget = pool
        with pytest.raises(ValueError):
            BatchEngine(cores=0)

    def test_parallel_jobs_run_inside_the_pool(self):
        """Intra-job workers nest under pool workers (fork-safe)."""
        from repro.batch import BatchEngine
        from repro.spec import paper_examples as examples

        engine = BatchEngine(
            scheduler_config=SchedulerConfig(parallel=2),
            max_workers=2,
            cores=4,
        )
        result = engine.run(
            [examples()["fig3"], examples()["fig4"]]
        )
        assert result.stats.feasible == 2, [
            outcome.error for outcome in result.outcomes
        ]
        assert _no_ezrt_children()


class TestValidateWithReference:
    def test_accepts_serial_schedules(self):
        model = compose(paper_examples()["fig8"])
        result = find_schedule(model, SchedulerConfig())
        validate_with_reference(
            model.compiled(), result.config, result.firing_schedule
        )

    def test_rejects_corrupted_schedules(self):
        model = compose(paper_examples()["fig8"])
        result = find_schedule(model, SchedulerConfig())
        corrupted = list(result.firing_schedule)[:-1]
        with pytest.raises(SchedulingError):
            validate_with_reference(
                model.compiled(), result.config, corrupted
            )
