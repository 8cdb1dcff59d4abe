"""Experiment E5 — the specification metamodel of Fig. 5.

Verifies the metamodel classes/fields/relations exist as drawn (Task,
Processor, Message, SourceCode, EzRTSpec, SchedulingType with the
``precedesTasks``/``excludesTasks``/``precedesMsgs``/``precedes``
relations) and measures construction/validation throughput on large
specifications.
"""

from repro.spec import (
    EzRTSpec,
    Message,
    Processor,
    SchedulingType,
    SourceCode,
    SpecBuilder,
    Task,
    validate_spec,
)


def test_metamodel_matches_figure5(report):
    # class fields (each class's slots), as drawn
    task_fields = {
        "name", "period", "phase", "energy", "release",
        "computation", "deadline", "scheduling", "identifier",
    }
    assert task_fields <= set(Task.__slots__)
    assert {"name", "identifier"} <= set(
        Processor.__slots__
    )
    message_fields = {
        "name", "bus", "grant_bus", "communication", "identifier",
    }
    assert message_fields <= set(Message.__slots__)
    assert {"content", "identifier"} <= set(
        SourceCode.__slots__
    )
    assert {"name", "disp_oveh", "identifier"} <= set(
        EzRTSpec.__slots__
    )
    # relations, as drawn
    relation_fields = {
        "precedes_tasks", "excludes_tasks", "precedes_msgs",
    }
    assert relation_fields <= set(Task.__slots__)
    assert "precedes" in Message.__slots__
    # the enumeration
    assert {e.value for e in SchedulingType} == {"NP", "P"}
    report("E5", "metamodel classes", 6, 6)
    report("E5", "scheduling enum", "{NP, P}",
           "{" + ", ".join(sorted(e.value for e in SchedulingType)) + "}")


def _large_spec(n: int) -> EzRTSpec:
    builder = SpecBuilder("large").processor("proc0")
    for i in range(n):
        builder.task(
            f"T{i}",
            computation=1 + i % 4,
            deadline=20,
            period=20,
            energy=i,
            scheduling="P" if i % 3 else "NP",
            code=f"work_{i}();",
        )
    for i in range(0, n - 1, 2):
        builder.precedence(f"T{i}", f"T{i + 1}")
    return builder.build(validate=False)


def bench_spec_construction_100_tasks(benchmark):
    spec = benchmark(_large_spec, 100)
    assert len(spec.tasks) == 100


def bench_spec_validation_100_tasks(benchmark):
    spec = _large_spec(100)
    problems = benchmark(validate_spec, spec)
    assert problems == []


def bench_relation_queries(benchmark):
    spec = _large_spec(100)

    def query():
        return (
            spec.precedence_pairs(),
            spec.exclusion_pairs(),
            spec.total_utilization(),
        )

    precedence, exclusion, utilization = benchmark(query)
    assert len(precedence) == 50
    assert exclusion == []
    assert utilization > 0
