"""Tests for the pre-runtime depth-first scheduler."""

import pytest

from repro.blocks import compose
from repro.errors import InfeasibleScheduleError, SchedulingError
from repro.scheduler import (
    PreRuntimeScheduler,
    SchedulerConfig,
    find_schedule,
    require_schedule,
    search,
)
from repro.spec import SpecBuilder
from repro.tpn import TLTS, TimeInterval, TimePetriNet


class TestConfig:
    def test_defaults(self):
        config = SchedulerConfig()
        assert config.priority_mode == "ordered"
        assert config.delay_mode == "earliest"
        assert config.partial_order

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(priority_mode="fifo"),
            dict(delay_mode="random"),
            dict(reset_policy="nope"),
            dict(max_states=0),
            dict(max_seconds=0),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(SchedulingError):
            SchedulerConfig(**kwargs)


class TestSearchOnRawNets:
    def test_simple_net(self, simple_net):
        result = search(simple_net.compile())
        assert result.feasible
        assert [f[0] for f in result.firing_schedule] == [
            "t_start",
            "t_end",
        ]
        assert result.makespan == 5  # earliest firing: 2 + 3

    def test_schedule_replays_on_tlts(self, simple_net):
        compiled = simple_net.compile()
        result = search(compiled)
        tlts = TLTS(compiled)
        assert tlts.is_feasible_schedule(
            [(name, q) for name, q, _at in result.firing_schedule]
        )

    def test_no_final_marking_rejected(self, conflict_net):
        with pytest.raises(SchedulingError, match="final marking"):
            search(conflict_net.compile())

    def test_infeasible_reports_false(self):
        net = TimePetriNet("stuck")
        net.add_place("p", marking=1)
        net.add_place("goal")
        net.add_place("trap")
        net.add_transition("t")
        net.add_arc("p", "t")
        net.add_arc("t", "trap")
        net.set_final_marking({"goal": 1, "trap": 0, "p": 0})
        result = search(net.compile())
        assert not result.feasible
        assert not result.exhausted

    def test_already_final_initial_state(self):
        net = TimePetriNet("trivial")
        net.add_place("p", marking=1)
        net.add_transition("t")
        net.add_arc("p", "t")
        net.set_final_marking({"p": 1})
        result = search(net.compile())
        assert result.feasible
        assert result.schedule_length == 0

    def test_max_states_budget(self, mine_pump_model):
        result = search(
            mine_pump_model.net.compile(),
            SchedulerConfig(max_states=50),
        )
        assert not result.feasible
        assert result.exhausted

    def test_max_seconds_budget(self, mine_pump_model):
        result = search(
            mine_pump_model.net.compile(),
            SchedulerConfig(max_seconds=1e-9),
        )
        assert not result.feasible
        assert result.exhausted


class TestBacktracking:
    def test_greedy_trap_needs_backtracking(self):
        """DM ordering grants the long task first; the deadline miss is
        detected and the search must back out of it."""
        spec = (
            SpecBuilder("trap")
            .task("LONG", computation=25, deadline=500, period=500)
            .task("TIGHT", computation=10, deadline=20, period=80)
            .build()
        )
        model = compose(spec)
        result = find_schedule(model)
        assert result.feasible

    def test_inserted_idle_via_arrival_anchoring(self):
        """The Mok trap needs the processor to idle until t=5 even
        though LONG is ready at 0.  No work-conserving runtime policy
        does this; the DFS finds it in *every* delay mode because the
        firing of SHORT's arrival transition at t=5 is itself a
        candidate interleaving that advances time past LONG's eager
        release."""
        from repro.scheduler import mok_trap
        from repro.scheduler import schedule_from_result

        model = compose(mok_trap())
        for mode in ("earliest", "extremes", "full"):
            result = find_schedule(
                model, SchedulerConfig(delay_mode=mode)
            )
            assert result.feasible, mode
        schedule = schedule_from_result(
            model, find_schedule(model)
        )
        short = schedule.segments_of("SHORT", 1)[0]
        long_segment = schedule.segments_of("LONG", 1)[0]
        assert short.start == 5  # processor idled 0..5
        assert long_segment.start >= short.end

    def test_completion_at_deadline_counts_as_met(self):
        spec = (
            SpecBuilder("exact")
            .task("A", computation=5, deadline=5, period=5)
            .build()
        )
        result = find_schedule(compose(spec))
        assert result.feasible


class TestPartialOrderModes:
    def test_reduction_preserves_feasibility(self, fig8_model):
        with_reduction = find_schedule(
            fig8_model, SchedulerConfig(partial_order=True)
        )
        without = find_schedule(
            fig8_model, SchedulerConfig(partial_order=False)
        )
        assert with_reduction.feasible and without.feasible

    def test_reduction_shrinks_state_count(self, mine_pump_model):
        """On a reduced-scope variant, turning the reduction off must
        not reduce visited states."""
        spec = (
            SpecBuilder("scope")
            .task("A", computation=2, deadline=20, period=20)
            .task("B", computation=3, deadline=20, period=20)
            .task("C", computation=4, deadline=40, period=40)
            .build()
        )
        model = compose(spec)
        on = find_schedule(model, SchedulerConfig(partial_order=True))
        off = find_schedule(
            model, SchedulerConfig(partial_order=False)
        )
        assert on.feasible and off.feasible
        assert (
            on.stats.states_visited <= off.stats.states_visited
        )

    def test_boundary_completion_arrival_interleaving(self):
        """An instance completing exactly when the next arrives: the
        reduction must not eliminate the finish-before-arrival order
        (the deadline clock only resets on that order)."""
        spec = (
            SpecBuilder("boundary")
            .task("A", computation=8, deadline=17, period=17, phase=1,
                  scheduling="P")
            .task("B", computation=6, deadline=9, period=17, phase=4,
                  scheduling="P")
            .build()
        )
        result = find_schedule(compose(spec))
        assert result.feasible

    def test_strict_priority_mode_on_mine_pump_scope(self):
        spec = (
            SpecBuilder("strict")
            .task("A", computation=2, deadline=10, period=20)
            .task("B", computation=3, deadline=20, period=20)
            .build()
        )
        result = find_schedule(
            compose(spec), SchedulerConfig(priority_mode="strict")
        )
        assert result.feasible


class TestRequireSchedule:
    def test_raises_on_infeasible(self):
        spec = (
            SpecBuilder("over")
            .task("A", computation=6, deadline=10, period=10)
            .task("B", computation=6, deadline=10, period=10)
            .build()
        )
        with pytest.raises(InfeasibleScheduleError):
            require_schedule(compose(spec))

    def test_returns_result_on_success(self, two_task_spec):
        result = require_schedule(compose(two_task_spec))
        assert result.feasible


class TestStats:
    def test_summary_mentions_key_numbers(self, two_task_spec):
        result = find_schedule(compose(two_task_spec))
        text = result.summary()
        assert "states visited" in text
        assert "feasible" in text

    def test_stats_dict(self, two_task_spec):
        result = find_schedule(compose(two_task_spec))
        stats = result.stats.as_dict()
        assert stats["states_visited"] >= stats["backtracks"]
        assert stats["elapsed_seconds"] >= 0

    def test_minimum_firings_attached(self, two_task_spec):
        model = compose(two_task_spec)
        result = find_schedule(model)
        assert result.minimum_firings == model.minimum_firings()
        assert result.schedule_length >= result.minimum_firings or (
            result.schedule_length == result.minimum_firings
        )

    def test_backtrack_free_path_hits_minimum(self, two_task_spec):
        model = compose(two_task_spec)
        result = find_schedule(model)
        if result.stats.backtracks == 0:
            assert result.schedule_length == model.minimum_firings()


class TestDeterminism:
    def test_same_config_same_schedule(self, fig8_model):
        first = find_schedule(fig8_model)
        second = find_schedule(fig8_model)
        assert first.firing_schedule == second.firing_schedule

    def test_reset_policies_agree_on_feasibility(self, fig8_model):
        paper = find_schedule(
            fig8_model, SchedulerConfig(reset_policy="paper")
        )
        intermediate = find_schedule(
            fig8_model, SchedulerConfig(reset_policy="intermediate")
        )
        assert paper.feasible and intermediate.feasible


class TestEngineSelection:
    def test_unknown_engine_rejected(self, simple_net):
        with pytest.raises(SchedulingError, match="unknown engine"):
            PreRuntimeScheduler(
                simple_net.compile(), engine="warp-drive"
            )

    def test_search_helper_threads_engine(self, simple_net):
        compiled = simple_net.compile()
        kernel = search(compiled, engine="kernel")
        ref = search(compiled, engine="reference")
        assert kernel.firing_schedule == ref.firing_schedule
