"""Tests for specification validation rules."""

import pytest

from repro.errors import SpecificationError
from repro.spec import (
    EzRTSpec,
    Message,
    Processor,
    SpecBuilder,
    Task,
    ensure_valid,
    validate_spec,
)


def base_spec() -> EzRTSpec:
    spec = EzRTSpec("v")
    spec.add_processor(Processor("proc0"))
    spec.add_task(Task("A", computation=2, deadline=8, period=10))
    spec.add_task(Task("B", computation=3, deadline=10, period=10))
    return spec


class TestTimingRules:
    def test_valid_passes(self):
        assert validate_spec(base_spec()) == []

    def test_deadline_exceeds_period(self):
        spec = base_spec()
        spec.tasks[0].deadline = 12
        assert any(
            "c <= d <= p" in p for p in validate_spec(spec)
        )

    def test_computation_exceeds_deadline(self):
        spec = base_spec()
        spec.tasks[0].computation = 9
        problems = validate_spec(spec)
        assert problems  # violates both c<=d and window rules

    def test_empty_release_window(self):
        spec = base_spec()
        spec.tasks[0].release = 7  # r + c = 9 > d = 8
        assert any(
            "release window" in p for p in validate_spec(spec)
        )

    def test_ensure_valid_raises_with_all_problems(self):
        spec = base_spec()
        spec.tasks[0].deadline = 99
        spec.tasks[1].release = 99
        with pytest.raises(SpecificationError) as info:
            ensure_valid(spec)
        message = str(info.value)
        assert "A" in message and "B" in message


class TestNameRules:
    def test_duplicate_names_flagged(self):
        spec = base_spec()
        spec.tasks.append(
            Task("A", computation=1, deadline=5, period=10)
        )
        assert any("duplicate task" in p for p in validate_spec(spec))

    def test_duplicate_identifier_flagged(self):
        spec = base_spec()
        spec.tasks[1].identifier = spec.tasks[0].identifier
        assert any(
            "duplicate identifier" in p for p in validate_spec(spec)
        )


class TestRelationRules:
    def test_unknown_precedence_target(self):
        spec = base_spec()
        spec.tasks[0].precedes_tasks.append("GHOST")
        assert any("unknown task" in p for p in validate_spec(spec))

    def test_self_precedence(self):
        spec = base_spec()
        spec.tasks[0].precedes_tasks.append("A")
        assert any("precedes itself" in p for p in validate_spec(spec))

    def test_asymmetric_exclusion_flagged(self):
        spec = base_spec()
        spec.tasks[0].excludes_tasks.append("B")  # one side only
        assert any("not symmetric" in p for p in validate_spec(spec))

    def test_precedence_different_periods(self):
        spec = base_spec()
        spec.tasks[1].period = 20
        spec.tasks[1].deadline = 10
        spec.add_precedence("A", "B")
        assert any(
            "different periods" in p for p in validate_spec(spec)
        )

    def test_precedence_cycle(self):
        spec = base_spec()
        spec.add_precedence("A", "B")
        spec.add_precedence("B", "A")
        assert any("cycle" in p for p in validate_spec(spec))

    def test_long_cycle_detected(self):
        spec = base_spec()
        spec.add_task(Task("C", computation=1, deadline=9, period=10))
        spec.add_precedence("A", "B")
        spec.add_precedence("B", "C")
        spec.add_precedence("C", "A")
        assert any("cycle" in p for p in validate_spec(spec))

    def test_diamond_is_not_a_cycle(self):
        spec = base_spec()
        spec.add_task(Task("C", computation=1, deadline=9, period=10))
        spec.add_task(Task("D", computation=1, deadline=9, period=10))
        spec.add_precedence("A", "B")
        spec.add_precedence("A", "C")
        spec.add_precedence("B", "D")
        spec.add_precedence("C", "D")
        assert validate_spec(spec) == []


class TestMessageRules:
    def test_valid_message(self):
        spec = base_spec()
        spec.add_message(
            Message("m", sender="A", precedes="B", communication=1)
        )
        spec.task("A").precedes_msgs.append("m")
        assert validate_spec(spec) == []

    def test_unknown_sender(self):
        spec = base_spec()
        spec.add_message(Message("m", sender="GHOST"))
        assert any("unknown sender" in p for p in validate_spec(spec))

    def test_unknown_receiver(self):
        spec = base_spec()
        spec.add_message(Message("m", sender="A", precedes="GHOST"))
        spec.task("A").precedes_msgs.append("m")
        assert any(
            "unknown receiver" in p for p in validate_spec(spec)
        )

    def test_sender_equals_receiver(self):
        spec = base_spec()
        spec.add_message(Message("m", sender="A", precedes="A"))
        spec.task("A").precedes_msgs.append("m")
        assert any(
            "sender equals receiver" in p for p in validate_spec(spec)
        )

    def test_message_periods_must_match(self):
        spec = base_spec()
        spec.tasks[1].period = 20
        spec.tasks[1].deadline = 12
        spec.add_message(Message("m", sender="A", precedes="B"))
        spec.task("A").precedes_msgs.append("m")
        assert any(
            "different periods" in p for p in validate_spec(spec)
        )

    def test_sender_must_list_message(self):
        spec = base_spec()
        spec.add_message(Message("m", sender="A", precedes="B"))
        assert any(
            "does not list it" in p for p in validate_spec(spec)
        )

    def test_dangling_precedes_msgs(self):
        spec = base_spec()
        spec.task("A").precedes_msgs.append("ghost-msg")
        assert any(
            "unknown message" in p for p in validate_spec(spec)
        )


class TestProcessorRules:
    def test_undeclared_processor(self):
        spec = base_spec()
        spec.tasks[0].processor = "dsp9"
        assert any(
            "undeclared processor" in p for p in validate_spec(spec)
        )

    def test_no_processors_declared_is_fine(self):
        spec = EzRTSpec("implicit")
        spec.add_task(Task("A", computation=1, deadline=5, period=10))
        assert validate_spec(spec) == []


class TestBuilder:
    def test_fluent_chain(self):
        spec = (
            SpecBuilder("b")
            .processor("cpu")
            .task("A", computation=1, deadline=5, period=10,
                  code="a();")
            .task("B", computation=2, deadline=10, period=10,
                  scheduling="P")
            .precedence("A", "B")
            .exclusion("A", "B")
            .message("m", sender="A", receiver="B", communication=1)
            .build()
        )
        assert spec.task("A").code.content == "a();"
        assert spec.task("B").is_preemptive
        assert spec.messages[0].sender == "A"
        assert "m" in spec.task("A").precedes_msgs

    def test_default_processor_assignment(self):
        spec = (
            SpecBuilder("b")
            .processor("cpu7")
            .task("A", computation=1, deadline=5, period=10)
            .build()
        )
        assert spec.task("A").processor == "cpu7"

    def test_empty_build_rejected(self):
        with pytest.raises(SpecificationError):
            SpecBuilder("empty").build()

    def test_invalid_spec_rejected_at_build(self):
        builder = SpecBuilder("bad").task(
            "A", computation=9, deadline=5, period=10
        )
        with pytest.raises(SpecificationError):
            builder.build()

    def test_build_without_validation(self):
        builder = SpecBuilder("bad").task(
            "A", computation=9, deadline=5, period=10
        )
        spec = builder.build(validate=False)
        assert spec.task("A").computation == 9

    def test_source_attachment(self):
        spec = (
            SpecBuilder("b")
            .task("A", computation=1, deadline=5, period=10)
            .source("A", "late_attach();")
            .build()
        )
        assert spec.task("A").code.content == "late_attach();"


# ----------------------------------------------------------------------
# Diagnostic codes — every validator error path must classify to its
# stable ``repro.lint`` code, so validator wording and the lint rule
# table cannot drift apart.
# ----------------------------------------------------------------------
def _with_duplicate_task(spec):
    spec.tasks.append(Task("A", computation=1, deadline=5, period=10))


def _with_duplicate_processor(spec):
    spec.processors.append(Processor("proc0"))


def _with_duplicate_message(spec):
    # the model API rejects duplicates up front; bypass it to exercise
    # the validator's own check on hand-built specs
    spec.add_message(Message("m", sender="A", precedes="B"))
    spec.messages.append(Message("m", sender="B", precedes="A"))
    spec.task("A").precedes_msgs.append("m")
    spec.task("B").precedes_msgs.append("m")


def _with_duplicate_identifier(spec):
    spec.tasks[1].identifier = spec.tasks[0].identifier


def _with_bad_timing(spec):
    spec.tasks[0].deadline = 12


def _with_empty_window(spec):
    spec.tasks[0].release = 7


def _with_unknown_precedence(spec):
    spec.tasks[0].precedes_tasks.append("GHOST")


def _with_self_precedence(spec):
    spec.tasks[0].precedes_tasks.append("A")


def _with_unknown_exclusion(spec):
    spec.tasks[0].excludes_tasks.append("GHOST")


def _with_self_exclusion(spec):
    spec.tasks[0].excludes_tasks.append("A")


def _with_asymmetric_exclusion(spec):
    spec.tasks[0].excludes_tasks.append("B")


def _with_period_mismatch_precedence(spec):
    spec.tasks[1].period = 20
    spec.tasks[1].deadline = 12
    spec.tasks[0].precedes_tasks.append("B")


def _with_precedence_cycle(spec):
    spec.tasks[0].precedes_tasks.append("B")
    spec.tasks[1].precedes_tasks.append("A")


def _with_unknown_sender(spec):
    spec.add_message(Message("m", sender="GHOST"))


def _with_unknown_receiver(spec):
    spec.add_message(Message("m", sender="A", precedes="GHOST"))
    spec.task("A").precedes_msgs.append("m")


def _with_loopback_message(spec):
    spec.add_message(Message("m", sender="A", precedes="A"))
    spec.task("A").precedes_msgs.append("m")


def _with_period_mismatch_message(spec):
    spec.tasks[1].period = 20
    spec.tasks[1].deadline = 12
    spec.add_message(Message("m", sender="A", precedes="B"))
    spec.task("A").precedes_msgs.append("m")


def _with_dangling_precedes_msgs(spec):
    spec.task("A").precedes_msgs.append("ghost-msg")


def _with_unlisted_message(spec):
    spec.add_message(Message("m", sender="A", precedes="B"))


def _with_undeclared_processor(spec):
    spec.tasks[0].processor = "proc9"


_CODE_CASES = [
    (_with_duplicate_task, "duplicate task name", "EZS107"),
    (_with_duplicate_processor, "duplicate processor name", "EZS107"),
    (_with_duplicate_message, "duplicate message name", "EZS107"),
    (_with_duplicate_identifier, "duplicate identifier", "EZS107"),
    (_with_bad_timing, "requires c <= d <= p", "EZS103"),
    (_with_empty_window, "release window", "EZS104"),
    (_with_unknown_precedence, "precedes unknown task", "EZS108"),
    (_with_self_precedence, "precedes itself", "EZS108"),
    (_with_unknown_exclusion, "excludes unknown task", "EZS108"),
    (_with_self_exclusion, "excludes itself", "EZS108"),
    (_with_asymmetric_exclusion, "is not symmetric", "EZS108"),
    (
        _with_period_mismatch_precedence,
        "different periods",
        "EZS109",
    ),
    (_with_precedence_cycle, "precedence cycle", "EZS109"),
    (_with_unknown_sender, "unknown sender", "EZS110"),
    (_with_unknown_receiver, "unknown receiver", "EZS110"),
    (_with_loopback_message, "sender equals receiver", "EZS110"),
    (_with_period_mismatch_message, "different periods", "EZS110"),
    (
        _with_dangling_precedes_msgs,
        "precedes unknown message",
        "EZS110",
    ),
    (_with_unlisted_message, "does not list it", "EZS110"),
    (_with_undeclared_processor, "undeclared processor", "EZS111"),
]


class TestDiagnosticCodes:
    @pytest.mark.parametrize(
        "mutate, fragment, code",
        _CODE_CASES,
        ids=[mutate.__name__.lstrip("_") for mutate, _, _ in _CODE_CASES],
    )
    def test_problem_classifies_to_stable_code(
        self, mutate, fragment, code
    ):
        from repro.lint import validation_diagnostics

        spec = base_spec()
        mutate(spec)
        matching = [
            d for d in validation_diagnostics(spec) if fragment in d.message
        ]
        assert matching, f"no validator problem mentions {fragment!r}"
        assert matching[0].code == code

    def test_validation_diagnostics_cover_all_problems(self):
        from repro.lint import validation_diagnostics

        spec = base_spec()
        _with_bad_timing(spec)
        _with_undeclared_processor(spec)
        diagnostics = validation_diagnostics(spec)
        assert [d.message for d in diagnostics] == validate_spec(spec)
        assert {d.code for d in diagnostics} >= {"EZS103", "EZS111"}
