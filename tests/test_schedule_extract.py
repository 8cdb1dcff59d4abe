"""Tests for schedule extraction, Fig. 8 items and validation."""

import pytest

from repro.blocks import compose
from repro.errors import SchedulingError
from repro.scheduler import (
    ExecutionSegment,
    SchedulerResult,
    TaskLevelSchedule,
    extract_schedule,
    find_schedule,
    schedule_from_result,
    validate_schedule,
)
from repro.spec import SpecBuilder, fig8_preemptive


@pytest.fixture
def fig8_schedule(fig8_model):
    result = find_schedule(fig8_model)
    return schedule_from_result(fig8_model, result)


class TestExtraction:
    def test_np_segments_one_per_instance(self, two_task_spec):
        model = compose(two_task_spec)
        schedule = schedule_from_result(model, find_schedule(model))
        assert len(schedule.segments_of("A")) == 1
        assert len(schedule.segments_of("B")) == 1
        assert schedule.segments_of("A", 1)[0].duration == 2

    def test_preemptive_segments_merge_units(self, fig8_schedule):
        # TaskC runs its two units contiguously: one segment
        c_segments = fig8_schedule.segments_of("TaskC", 1)
        assert len(c_segments) == 1
        assert c_segments[0].duration == 2

    def test_preempted_instance_splits(self, fig8_schedule):
        b_segments = fig8_schedule.segments_of("TaskB", 1)
        assert len(b_segments) == 3  # preempted twice
        assert sum(s.duration for s in b_segments) == 6

    def test_infeasible_result_rejected(self, fig8_model):
        bogus = SchedulerResult(feasible=False)
        with pytest.raises(SchedulingError):
            extract_schedule(fig8_model, bogus)

    def test_busy_and_idle_time(self, fig8_schedule, fig8_model):
        total_work = sum(
            t.computation * fig8_model.instances[t.name]
            for t in fig8_model.spec.tasks
        )
        assert fig8_schedule.busy_time() == total_work
        assert (
            fig8_schedule.idle_time()
            == fig8_model.schedule_period - total_work
        )

    def test_response_times(self, fig8_schedule, fig8_model):
        responses = fig8_schedule.response_times(fig8_model)
        for task in fig8_model.spec.tasks:
            assert responses[task.name] <= task.deadline


class TestScheduleItems:
    def test_flags_match_resumes(self, fig8_schedule):
        for item in fig8_schedule.items:
            assert item.preempted == ("resumes" in item.comment)

    def test_first_item_starts(self, fig8_schedule):
        assert fig8_schedule.items[0].comment.endswith("starts")
        assert not fig8_schedule.items[0].preempted

    def test_items_sorted(self, fig8_schedule):
        starts = [item.start for item in fig8_schedule.items]
        assert starts == sorted(starts)

    def test_preempts_comments_name_victim(self, fig8_schedule):
        preempts = [
            item
            for item in fig8_schedule.items
            if "preempts" in item.comment
        ]
        assert preempts, "fig8 must contain preemptions"
        for item in preempts:
            words = item.comment.split()
            assert words[0] == f"{item.task}{item.instance}"
            assert words[1] == "preempts"

    def test_task_ids_are_spec_order(self, fig8_schedule, fig8_model):
        expected = {
            t.name: i + 1
            for i, t in enumerate(fig8_model.spec.tasks)
        }
        for item in fig8_schedule.items:
            assert item.task_id == expected[item.task]

    def test_fig8_shape(self, fig8_schedule):
        """The paper's table shape: two instances of A/B/C, one of D,
        with preempted resumes flagged true."""
        items = fig8_schedule.items
        per_task_instances = {}
        for item in items:
            key = (item.task, item.instance)
            per_task_instances.setdefault(item.task, set()).add(
                item.instance
            )
        assert per_task_instances["TaskA"] == {1, 2}
        assert per_task_instances["TaskB"] == {1, 2}
        assert per_task_instances["TaskC"] == {1, 2}
        assert per_task_instances["TaskD"] == {1}
        assert any(item.preempted for item in items)


class TestValidation:
    def test_valid_schedule_passes(self, fig8_model, fig8_schedule):
        assert validate_schedule(fig8_model, fig8_schedule) == []

    def _schedule(self, model, segments):
        return TaskLevelSchedule(
            segments=segments,
            items=[],
            schedule_period=model.schedule_period,
        )

    def test_detects_missing_instance(self, two_task_spec):
        model = compose(two_task_spec)
        violations = validate_schedule(
            model,
            self._schedule(
                model, [ExecutionSegment("A", 1, 0, 2)]
            ),
        )
        assert any("never executed" in v for v in violations)

    def test_detects_wrong_wcet(self, two_task_spec):
        model = compose(two_task_spec)
        segments = [
            ExecutionSegment("A", 1, 0, 1),  # should be 2 units
            ExecutionSegment("B", 1, 1, 4),
        ]
        violations = validate_schedule(
            model, self._schedule(model, segments)
        )
        assert any("WCET" in v for v in violations)

    def test_detects_deadline_miss(self, two_task_spec):
        model = compose(two_task_spec)
        segments = [
            ExecutionSegment("A", 1, 9, 11),  # deadline is 10
            ExecutionSegment("B", 1, 0, 3),
        ]
        violations = validate_schedule(
            model, self._schedule(model, segments)
        )
        assert any("after deadline" in v for v in violations)

    def test_detects_early_start(self):
        spec = (
            SpecBuilder("r")
            .task("A", computation=2, deadline=10, period=10,
                  release=3)
            .build()
        )
        model = compose(spec)
        segments = [ExecutionSegment("A", 1, 0, 2)]
        violations = validate_schedule(
            model, self._schedule(model, segments)
        )
        assert any("before release" in v for v in violations)

    def test_detects_np_split(self, two_task_spec):
        model = compose(two_task_spec)
        segments = [
            ExecutionSegment("A", 1, 0, 1),
            ExecutionSegment("A", 1, 5, 6),
            ExecutionSegment("B", 1, 1, 4),
        ]
        violations = validate_schedule(
            model, self._schedule(model, segments)
        )
        assert any("non-preemptive" in v for v in violations)

    def test_detects_processor_overlap(self, two_task_spec):
        model = compose(two_task_spec)
        segments = [
            ExecutionSegment("A", 1, 0, 2),
            ExecutionSegment("B", 1, 1, 4),
        ]
        violations = validate_schedule(
            model, self._schedule(model, segments)
        )
        assert any("overlaps" in v for v in violations)

    def test_detects_precedence_violation(self):
        spec = (
            SpecBuilder("p")
            .task("A", computation=2, deadline=10, period=10)
            .task("B", computation=2, deadline=10, period=10)
            .precedence("A", "B")
            .build()
        )
        model = compose(spec)
        segments = [
            ExecutionSegment("B", 1, 0, 2),
            ExecutionSegment("A", 1, 2, 4),
        ]
        violations = validate_schedule(
            model,
            TaskLevelSchedule(
                segments=segments,
                items=[],
                schedule_period=model.schedule_period,
            ),
        )
        assert any("precedence" in v for v in violations)

    def test_detects_exclusion_interleaving(self):
        spec = (
            SpecBuilder("e")
            .task("A", computation=4, deadline=20, period=20,
                  scheduling="P")
            .task("B", computation=4, deadline=20, period=20,
                  scheduling="P")
            .exclusion("A", "B")
            .build()
        )
        model = compose(spec)
        segments = [
            ExecutionSegment("A", 1, 0, 2),
            ExecutionSegment("B", 1, 2, 6),  # inside A's envelope
            ExecutionSegment("A", 1, 6, 8),
        ]
        violations = validate_schedule(
            model,
            TaskLevelSchedule(
                segments=segments,
                items=[],
                schedule_period=model.schedule_period,
            ),
        )
        assert any("exclusion" in v for v in violations)

    def test_schedule_from_result_raises_on_violation(self, fig8_model):
        result = find_schedule(fig8_model)
        # sabotage the firing schedule: drop a grant firing
        result.firing_schedule = [
            f
            for f in result.firing_schedule
            if f[0] != "tg_TaskD"
        ]
        with pytest.raises(SchedulingError):
            schedule_from_result(fig8_model, result)


class TestMessageExtraction:
    def test_bus_segments(self):
        spec = (
            SpecBuilder("msg")
            .task("S", computation=1, deadline=10, period=10)
            .task("R", computation=2, deadline=10, period=10)
            .message("m", sender="S", receiver="R", communication=2,
                     grant_bus=1)
            .build()
        )
        model = compose(spec)
        schedule = schedule_from_result(model, find_schedule(model))
        assert len(schedule.bus_segments) == 1
        transfer = schedule.bus_segments[0]
        sender_end = schedule.segments_of("S", 1)[0].end
        receiver_start = schedule.segments_of("R", 1)[0].start
        assert transfer.start >= sender_end
        assert receiver_start >= transfer.end
        assert transfer.end - transfer.start == 2


def _quadratic_response_times(schedule, model):
    """The original per-instance rescan, kept as the reference."""
    worst = {}
    for task in model.spec.tasks:
        for k in range(1, model.instances[task.name] + 1):
            segs = schedule.segments_of(task.name, k)
            if not segs:
                continue
            arrival = task.phase + (k - 1) * task.period
            worst[task.name] = max(
                worst.get(task.name, 0), segs[-1].end - arrival
            )
    return worst


class TestResponseTimesOnePass:
    @pytest.mark.parametrize(
        "name", ["fig3", "fig4", "fig8", "mine-pump"]
    )
    def test_paper_models(self, name):
        from repro.spec import paper_examples

        model = compose(paper_examples()[name])
        schedule = schedule_from_result(model, find_schedule(model))
        assert schedule.response_times(model) == (
            _quadratic_response_times(schedule, model)
        )

    def test_seeded_random_schedules(self):
        from repro.workloads import random_task_set

        checked = 0
        for seed in range(12):
            model = compose(
                random_task_set(
                    4, 0.6, seed=seed, preemptive_fraction=0.5
                )
            )
            result = find_schedule(model)
            if not result.feasible:
                continue
            schedule = schedule_from_result(model, result)
            assert schedule.response_times(model) == (
                _quadratic_response_times(schedule, model)
            )
            checked += 1
        assert checked >= 6
