"""Parallel search: determinism contract, cancellation, plumbing.

The contract under test (see ``docs/scheduling.md``):

* portfolio searches agree with the serial search's feasible/infeasible
  *verdict* on every model, under both clock-reset policies — orderings
  change which schedule is found and how fast, never whether one
  exists;
* every feasible parallel schedule replays through the checked
  reference engine (the :func:`validate_with_reference` gate runs
  inside ``ParallelScheduler.search``, so feasibility results in these
  tests are already reference-validated);
* slots share one process, stepped round-robin at the poll, so a
  short portfolio picks the same winner every run and the winner
  reruns serially to the same schedule, restarts included;
* a portfolio past the lane threshold forks one lane per usable CPU,
  and a finished race leaves no lane process behind;
* engine-aware slots (the ``[engine:]policy[:seed]`` grammar of
  ``parse_slot``) race engines as well as orderings: a state-class
  slot wins a wide-interval model, the winner's engine and policy are
  recorded, and a feasible win replays through the reference engine.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle

import pytest

from repro.blocks import compose
from repro.errors import SchedulingError
from repro.scheduler import (
    ParallelScheduler,
    SchedulerConfig,
    default_portfolio,
    find_schedule,
    parse_policy,
    parse_slot,
    search,
    validate_with_reference,
)
from repro.scheduler import parallel as parallel_module
from repro.scheduler.config import ENGINES
from repro.scheduler.parallel import restart_seed, usable_cpus
from repro.scheduler.policies import POLICIES
from repro.spec import paper_examples
from repro.tpn.state import StateEngine
from repro.workloads import (
    hard_portfolio_task_set,
    random_task_set,
    wide_interval_race_net,
)


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
# Slot grammar
# ----------------------------------------------------------------------
class TestParseSlot:
    def test_plain_policy_inherits_engine(self):
        assert parse_slot("latest") == (None, "latest")
        assert parse_slot("random:7") == (None, "random:7")

    def test_engine_prefix(self):
        assert parse_slot("stateclass:earliest") == (
            "stateclass",
            "earliest",
        )
        assert parse_slot("kernel:random:3") == (
            "kernel",
            "random:3",
        )
        assert parse_slot("stateclass:min-laxity") == (
            "stateclass",
            "min-laxity",
        )

    def test_unknown_prefix_names_engines_and_policies(self):
        """A head that is neither an engine nor a policy gets one
        error naming the slot and listing both."""
        for slot in ("reference:earliest", "bogus"):
            with pytest.raises(SchedulingError) as raised:
                parse_slot(slot)
            message = str(raised.value)
            assert repr(slot) in message
            assert str(ENGINES) in message
            assert str(POLICIES) in message

    def test_engine_without_policy_rejected(self):
        with pytest.raises(SchedulingError):
            parse_slot("stateclass:")

    def test_unknown_policy_rejected(self):
        with pytest.raises(SchedulingError):
            parse_slot("stateclass:bogus")
        with pytest.raises(SchedulingError):
            parse_slot("bogus")

    def test_config_accepts_engine_slots(self):
        config = SchedulerConfig(
            parallel=2,
            portfolio=("kernel:earliest", "stateclass:earliest"),
        )
        assert len(config.portfolio) == 2
        with pytest.raises(SchedulingError):
            SchedulerConfig(portfolio=("stateclass:nope",))


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
        config = SchedulerConfig()
        result = find_schedule(model, config)
        # the clone replays the schedule under the checked reference
        # semantics, and the default engine searches it to the same
        # schedule
        engine = StateEngine(clone)
        state = engine.initial_state()
        index = clone.transition_index
        for name, delay, _at in result.firing_schedule:
            state = engine.fire(state, index[name], delay)
        assert clone.is_final(state.marking)
        assert (
            search(clone, config).firing_schedule
            == result.firing_schedule
        )

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
    def test_mixed_engine_race_matches_serial(self, name, reset_policy):
        """A race of the discrete kernel against the dense-time
        state-class engine reaches the serial verdict; a feasible win
        from either slot replays through the reference engine."""
        model = compose(paper_examples()[name])
        serial = _verdict(
            model, SchedulerConfig(reset_policy=reset_policy)
        )
        parallel = _verdict(
            model,
            SchedulerConfig(
                reset_policy=reset_policy,
                parallel=2,
                portfolio=("kernel:earliest", "stateclass:earliest"),
            ),
        )
        assert parallel.feasible == serial.feasible
        assert parallel.workers == 2
        assert not parallel.exhausted
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
    def test_portfolio_matches_serial(self, spec, reset_policy):
        model = compose(spec)
        serial = _verdict(
            model,
            SchedulerConfig(
                reset_policy=reset_policy, max_states=100_000
            ),
        )
        assert not serial.exhausted, "sweep instance must be decidable"
        parallel = _verdict(
            model,
            SchedulerConfig(
                reset_policy=reset_policy,
                max_states=100_000,
                parallel=2,
            ),
        )
        assert parallel.feasible == serial.feasible
        assert not parallel.exhausted
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

    def test_state_budget_cut_is_not_a_proof(self):
        """A race whose every slot runs out of states reports
        exhausted=True: an unfinished search proves no infeasibility."""
        # the sweep's infeasible instance: serial needs ~7k states to
        # exhaust the space, far past this budget
        spec = random_task_set(6, 0.95, seed=3, deadline_slack=0.6)
        model = compose(spec)
        serial = _verdict(model, SchedulerConfig(max_states=100_000))
        assert not serial.feasible and not serial.exhausted
        result = find_schedule(
            model, SchedulerConfig(parallel=2, max_states=200)
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

    def test_parallel_scheduler_rejects_unknown_engine(self):
        net = compose(paper_examples()["fig3"]).compiled()
        with pytest.raises(SchedulingError, match="unknown engine"):
            ParallelScheduler(
                net, SchedulerConfig(parallel=2, engine="warp-drive")
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

    def test_unseeded_random_slots_are_pinned_to_their_index(self):
        """An unseeded random slot is named with the seed its worker
        runs (its rotation index), so a winning slot reruns serially
        as reported, and no two workers share a shuffle stream."""
        net = compose(paper_examples()["fig3"]).compiled()
        scheduler = ParallelScheduler(
            net,
            SchedulerConfig(
                parallel=3, portfolio=("random", "earliest")
            ),
        )
        assert scheduler.portfolio_policies() == (
            "random:0",
            "earliest",
            "random:1",
        )


class TestNativeCoreGauges:
    """Portfolio workers search under their own metrics registry; the
    native-core gauge the scheduler sets at construction must ride
    home on it, so a race result says which core its workers drove."""

    def test_portfolio_reports_kernel_native_core(self):
        model = compose(paper_examples()["mine-pump"])
        serial = find_schedule(model, SchedulerConfig())
        race = find_schedule(model, SchedulerConfig(parallel=2))
        assert race.metrics["gauges"].get("kernel.native_core") == (
            serial.metrics["gauges"]["kernel.native_core"]
        )
        assert _no_ezrt_children()

    def test_mixed_engine_race_reports_both_cores(self):
        model = compose(paper_examples()["mine-pump"])
        kernel = find_schedule(model, SchedulerConfig())
        dense = find_schedule(model, SchedulerConfig(engine="stateclass"))
        race = find_schedule(
            model,
            SchedulerConfig(
                parallel=2,
                portfolio=("kernel:earliest", "stateclass:earliest"),
            ),
        )
        gauges = race.metrics["gauges"]
        assert gauges.get("kernel.native_core") == (
            kernel.metrics["gauges"]["kernel.native_core"]
        )
        assert gauges.get("dbm.native_core") == (
            dense.metrics["gauges"]["dbm.native_core"]
        )
        assert _no_ezrt_children()

    def test_stateclass_race_reports_dbm_native_core(self):
        model = compose(paper_examples()["fig8"])
        serial = find_schedule(model, SchedulerConfig(engine="stateclass"))
        race = find_schedule(
            model, SchedulerConfig(engine="stateclass", parallel=2)
        )
        assert race.metrics["gauges"].get("dbm.native_core") == (
            serial.metrics["gauges"]["dbm.native_core"]
        )
        assert _no_ezrt_children()


class TestLanes:
    def test_usable_cpus_reads_affinity_and_cpu_max(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.setattr(
            parallel_module.os, "sched_getaffinity", lambda _pid: {0, 1, 2, 3}
        )
        cpu_max = tmp_path / "cpu.max"
        cpu_max.write_text("150000 100000\n")
        assert usable_cpus(str(cpu_max)) == 2  # 1.5 CPUs of quota
        cpu_max.write_text("max 100000\n")
        assert usable_cpus(str(cpu_max)) == 4  # no quota: the affinity
        assert usable_cpus(str(tmp_path / "missing")) == 4

    def test_no_lanes_beside_another_thread(self, monkeypatch):
        """Fork copies only the calling thread, so a process running
        another thread keeps its portfolio in one process."""
        import threading

        monkeypatch.setattr(parallel_module, "usable_cpus", lambda: 4)
        assert parallel_module._lane_count(3) == 3
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            assert parallel_module._lane_count(3) == 0
        finally:
            release.set()
            other.join(timeout=5)
        assert not other.is_alive()
        assert parallel_module._lane_count(1) == 0  # one slot: no lanes

    def test_long_portfolio_forks_lanes_and_reaps_them(
        self, monkeypatch, tmp_path
    ):
        """Past the threshold with two usable CPUs the portfolio forks
        two lanes; the lanes report every slot home, the verdict
        matches the serial search and no lane process survives."""
        from repro.obs.trace import read_events

        monkeypatch.setattr(parallel_module, "LANE_THRESHOLD_SECONDS", 0.0)
        monkeypatch.setattr(parallel_module, "usable_cpus", lambda: 2)
        model = compose(paper_examples()["mine-pump"])
        trace = str(tmp_path / "trace.jsonl")
        serial = find_schedule(model, SchedulerConfig())
        result = find_schedule(
            model, SchedulerConfig(parallel=4, trace_jsonl=trace)
        )
        assert result.feasible == serial.feasible
        assert result.workers == 4
        (race,) = [
            e for e in read_events(trace) if e.get("name") == "portfolio-race"
        ]
        assert race["args"]["lanes"] == 2
        outcomes = [
            value
            for name, value in result.metrics["counters"].items()
            if name.startswith("slot.")
            and name.split(".")[-1]
            in ("feasible", "infeasible", "exhausted", "cancelled", "error")
        ]
        assert sum(outcomes) == 4
        assert result.stats.states_visited >= serial.stats.states_visited
        assert _no_ezrt_children()

    @staticmethod
    def _lane_slots(net, config):
        scheduler = ParallelScheduler(net, config)
        slots = [
            parallel_module._Slot(index, text, net, config, None)
            for index, text in enumerate(scheduler.portfolio_policies())
        ]
        return scheduler, slots

    @staticmethod
    def _late_start_net():
        """Feasible only when ``t1`` fires at 1 with nothing else
        firing then, so a kernel ``earliest`` search refutes it while
        the dense search (or ``delay_mode="full"``) finds it."""
        from repro.tpn.net import TimeInterval, TimePetriNet

        net = TimePetriNet("late-start")
        for place in ("p0", "r0"):
            net.add_place(place, marking=1)
        for place in ("p1", "p2", "r1", "done", "gone", "dead"):
            net.add_place(place)
        for name, low, high in (
            ("t1", 0, 3), ("c", 2, 2), ("w", 3, 3),
            ("close", 0, 0), ("miss", 0, 0), ("good", 0, 0),
        ):
            net.add_transition(name, TimeInterval(low, high))
        for source, target in (
            ("p0", "t1"), ("t1", "p1"), ("p1", "c"), ("c", "p2"),
            ("r0", "w"), ("w", "r1"), ("r1", "close"), ("close", "gone"),
            ("p2", "miss"), ("miss", "dead"),
            ("p2", "good"), ("r1", "good"), ("good", "done"),
        ):
            net.add_arc(source, target)
        net.set_final_marking({"done": 1})
        return net.compile()

    def test_mixed_lane_verdicts_prefer_the_feasible_slot(self):
        """Two lanes can both end definitive before either sees the
        cancel: a feasible slot then beats the kernel ``earliest``
        refutation, which only covers that delay policy."""
        net = self._late_start_net()
        refuted = search(net, SchedulerConfig())
        assert not refuted.feasible and not refuted.exhausted
        assert search(net, SchedulerConfig(engine="stateclass")).feasible
        config = SchedulerConfig(
            parallel=2,
            portfolio=("kernel:earliest", "stateclass:earliest"),
        )
        scheduler, slots = self._lane_slots(net, config)
        scheduler._run_lanes(slots, 2, None)
        assert [slot.kind for slot in slots] == ["infeasible", "feasible"]
        assert parallel_module._winner(slots) is slots[1]
        assert _no_ezrt_children()

    def test_failed_lane_start_reaps_the_started_lanes(self, monkeypatch):
        """When a later lane fails to start, the lanes already started
        are cancelled and joined before the error propagates."""
        from multiprocessing.context import ForkProcess

        real_start = ForkProcess.start
        started = []

        def start(process):
            if started:
                raise OSError("cannot start a second lane")
            real_start(process)
            started.append(process.pid)

        monkeypatch.setattr(ForkProcess, "start", start)
        spec = random_task_set(
            8, 0.9, seed=4, preemptive_fraction=0, deadline_slack=0.7
        )
        net = compose(spec).compiled()
        scheduler, slots = self._lane_slots(
            net, SchedulerConfig(parallel=2)
        )
        with pytest.raises(OSError, match="second lane"):
            scheduler._run_lanes(slots, 2, None)
        assert len(started) == 1
        with pytest.raises(ProcessLookupError):  # joined and reaped
            os.kill(started[0], 0)
        assert _no_ezrt_children()

    def test_parallel_jobs_run_inside_the_pool(self):
        """Portfolio jobs run inside pool workers."""
        from repro.batch import BatchEngine
        from repro.spec import paper_examples as examples

        engine = BatchEngine(
            scheduler_config=SchedulerConfig(parallel=2),
            max_workers=2,
        )
        result = engine.run(
            [examples()["fig3"], examples()["fig4"]]
        )
        assert result.stats.feasible == 2, [
            outcome.error for outcome in result.outcomes
        ]
        assert _no_ezrt_children()


class TestDeterminism:
    """Below the lane threshold (here: on one usable CPU, where the
    portfolio never forks) the winner depends only on expansion
    counts, and the winning slot reruns serially to the same
    schedule."""

    @staticmethod
    def _rerun(net, result):
        name, seed = parse_policy(result.winner_policy)
        return search(
            net,
            SchedulerConfig(
                engine=result.winner_engine,
                policy=name,
                policy_seed=0 if seed is None else seed,
            ),
        )

    @pytest.mark.parametrize("workers", (2, 4))
    def test_same_winner_every_run_and_serial_rerun(
        self, monkeypatch, workers
    ):
        monkeypatch.setattr(parallel_module, "usable_cpus", lambda: 1)
        net = compose(hard_portfolio_task_set()).compiled()
        config = SchedulerConfig(parallel=workers)
        runs = [search(net, config) for _ in range(5)]
        assert len(
            {(r.winner_policy, tuple(r.firing_schedule)) for r in runs}
        ) == 1
        assert runs[0].feasible
        rerun = self._rerun(net, runs[0])
        assert rerun.firing_schedule == runs[0].firing_schedule

    def test_restarted_win_reruns_serially(self, monkeypatch):
        """A ``random`` slot that wins on a restart names the seed of
        that attempt, and a serial search under it finds the same
        schedule."""
        monkeypatch.setattr(parallel_module, "usable_cpus", lambda: 1)
        net = compose(hard_portfolio_task_set()).compiled()
        result = search(
            net,
            SchedulerConfig(parallel=2, portfolio=("earliest", "random:1")),
        )
        assert result.feasible
        assert result.stats.restarts >= 1
        attempt = result.stats.restarts
        assert result.winner_policy == f"random:{restart_seed(1, attempt)}"
        rerun = self._rerun(net, result)
        assert rerun.feasible
        assert rerun.firing_schedule == result.firing_schedule

    def test_restart_seeds_never_reuse_a_slot_stream(self):
        seeds = range(64)
        assert [restart_seed(s, 0) for s in seeds] == list(seeds)
        restarts = {restart_seed(s, r) for s in seeds for r in range(1, 9)}
        assert len(restarts) == 64 * 8
        assert not restarts & set(range(1 << 16))


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

    def test_unknown_transition_is_a_scheduling_error(self):
        model = compose(paper_examples()["fig8"])
        result = find_schedule(model, SchedulerConfig())
        _name, delay, at = result.firing_schedule[0]
        corrupted = [("no_such_transition", delay, at)] + list(
            result.firing_schedule[1:]
        )
        with pytest.raises(
            SchedulingError, match="unknown transition 'no_such_transition'"
        ):
            validate_with_reference(
                model.compiled(), result.config, corrupted
            )


# ----------------------------------------------------------------------
# The mixed-engine portfolio race
# ----------------------------------------------------------------------
class TestMixedEngineRace:
    def test_stateclass_slot_wins_wide_interval_race(self):
        """The dense slot refutes the wide-interval model while the
        delay-enumerating discrete slot is still sweeping integer
        release times — and the verdict matches the serial search."""
        net = wide_interval_race_net().compile()
        serial = search(net, SchedulerConfig(delay_mode="full"))
        assert not serial.feasible and not serial.exhausted
        result = search(
            net,
            SchedulerConfig(
                delay_mode="full",
                parallel=2,
                portfolio=(
                    "kernel:earliest",
                    "stateclass:earliest",
                ),
            ),
        )
        assert result.feasible == serial.feasible
        assert not result.exhausted
        assert result.winner_engine == "stateclass"
        assert result.winner_policy == "earliest"
        assert "winning engine" in result.summary()
        assert _no_ezrt_children()

    def test_mixed_feasible_winner_is_reference_validated(self):
        """A feasible win from a mixed race replays through the
        checked reference engine whichever engine produced it."""
        from repro.workloads import wide_interval_job_net

        net = wide_interval_job_net(
            n_jobs=3, width=8, feasible=True
        ).compile()
        result = search(
            net,
            SchedulerConfig(
                parallel=2,
                portfolio=(
                    "stateclass:earliest",
                    "kernel:earliest",
                ),
            ),
        )
        assert result.feasible
        assert result.winner_engine in ("stateclass", "kernel")
        validate_with_reference(
            net, result.config, result.firing_schedule
        )
        if result.winner_engine == "stateclass":
            assert result.interval_schedule is not None
        assert _no_ezrt_children()

    @pytest.mark.parametrize("reset_policy", ("paper", "intermediate"))
    def test_mixed_race_verdict_parity_on_paper_models(
        self, reset_policy
    ):
        """Engine-aware slots keep the determinism contract on the
        punctual paper models too."""
        model = compose(paper_examples()["fig4"])
        serial = search(
            model.compiled(),
            SchedulerConfig(reset_policy=reset_policy),
        )
        mixed = search(
            model.compiled(),
            SchedulerConfig(
                reset_policy=reset_policy,
                parallel=2,
                portfolio=(
                    "kernel:earliest",
                    "stateclass:earliest",
                ),
            ),
        )
        assert mixed.feasible == serial.feasible
        assert mixed.winner_engine in (
            "kernel",
            "stateclass",
        )
        assert _no_ezrt_children()
