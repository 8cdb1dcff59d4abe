"""The cold-path value types keep their dataclass behaviour.

The value types a one-shot ``ezrt`` command loads are slot classes
built on :mod:`repro._record` rather than ``@dataclass``es, so no
method is generated through ``exec`` at import.  These tests pin what
callers relied on when they were dataclasses: the ``repr`` text (the
strings below were printed by the dataclass versions), ``==`` only
between instances of one class, hashing by value on frozen types and
none on mutable ones, rejected assignment on frozen types, a fresh
default container per instance, pickling and copying, and the
ordering of :class:`TimeInterval`.  :class:`SchedulerConfig` also
keeps its validation messages and still answers to ``dataclasses``
(``replace``, ``fields``, ``is_dataclass``, ``asdict``).
"""

from __future__ import annotations

import copy
import dataclasses
import pickle

import pytest

from repro._record import DataclassFields, FrozenRecord, Record
from repro.blocks.blocks import TaskNodes
from repro.blocks.composer import ComposedModel, ComposerOptions, compose
from repro.codegen.generator import GeneratedProject
from repro.codegen.targets import HOSTSIM, TargetProfile
from repro.errors import SchedulingError
from repro.lint.diagnostics import Diagnostic, LintReport
from repro.scheduler.config import SchedulerConfig
from repro.scheduler.result import SchedulerResult, SearchStats
from repro.scheduler.schedule import (
    BusSegment,
    DenseScheduleEntry,
    ExecutionSegment,
    ScheduleItem,
    TaskLevelSchedule,
)
from repro.sim.machine import MachineResult, _TaskContext
from repro.sim.trace import Trace, TraceEvent
from repro.spec.model import (
    EzRTSpec,
    Message,
    Processor,
    SchedulingType,
    SourceCode,
    Task,
)
from repro.spec.timing import TaskInstance
from repro.tpn.interval import INF, TimeInterval
from repro.tpn.net import Arc, Place, Transition
from repro.tpn.state import FiringCandidate, State

def _target() -> TargetProfile:
    return TargetProfile(
        "t", "d", ("#include <x.h>",), "void f(void)",
        "s", "p", "cs", "cr", "i",
    )


#: the dataclass version's repr of ``SchedulerConfig()``
DEFAULT_CONFIG_REPR = (
    "SchedulerConfig(priority_mode='ordered', delay_mode='earliest', "
    "partial_order=True, reset_policy='paper', engine='kernel', "
    "max_states=2000000, max_seconds=None, policy='earliest', "
    "policy_seed=0, parallel=0, portfolio=(), trace_jsonl=None, "
    "progress=False)"
)


def _custom_config() -> SchedulerConfig:
    """A config with every field but ``engine`` off its default, built
    positionally (the only other engine refuses ``delay_mode="full"``)."""
    return SchedulerConfig(
        "strict",
        "full",
        False,
        "intermediate",
        "kernel",
        5000,
        2.5,
        "random",
        3,
        2,
        ["kernel:earliest", "stateclass:earliest"],
        "t.jsonl",
        True,
    )


#: (factory, the dataclass version's repr of what it builds)
REPRS = {
    "SourceCode": (
        lambda: SourceCode("x++;", identifier="src1"),
        "SourceCode(content='x++;', identifier='src1')",
    ),
    "Processor": (
        lambda: Processor("cpu", identifier="p1"),
        "Processor(name='cpu', identifier='p1')",
    ),
    "Message": (
        lambda: Message(
            "m",
            bus="can",
            communication=2,
            grant_bus=1,
            sender="A",
            precedes="B",
            identifier="m1",
        ),
        "Message(name='m', bus='can', communication=2, grant_bus=1, "
        "sender='A', precedes='B', identifier='m1')",
    ),
    "Task": (
        lambda: Task(
            "A",
            2,
            10,
            20,
            release=1,
            phase=3,
            scheduling=SchedulingType.PREEMPTIVE,
            energy=4,
            processor="cpu",
            code=SourceCode("f();", identifier="s2"),
            precedes_tasks=["B"],
            excludes_tasks=["C"],
            precedes_msgs=["m"],
            identifier="t1",
        ),
        "Task(name='A', computation=2, deadline=10, period=20, release=1, "
        "phase=3, scheduling=<SchedulingType.PREEMPTIVE: 'P'>, energy=4, "
        "processor='cpu', code=SourceCode(content='f();', "
        "identifier='s2'), precedes_tasks=['B'], excludes_tasks=['C'], "
        "precedes_msgs=['m'], identifier='t1')",
    ),
    "EzRTSpec": (
        lambda: EzRTSpec("demo", identifier="e1"),
        "EzRTSpec('demo', tasks=0, messages=0, U=0.000)",
    ),
    "TaskInstance": (
        lambda: TaskInstance("A", 2, 20, 21, 30, 2),
        "TaskInstance(task='A', index=2, arrival=20, release=21, "
        "deadline=30, computation=2)",
    ),
    "TimeInterval": (
        lambda: TimeInterval(3, 7),
        "TimeInterval(eft=3, lft=7)",
    ),
    "TimeInterval unbounded": (
        lambda: TimeInterval(0, INF),
        "TimeInterval(eft=0, lft=inf)",
    ),
    "Place": (
        lambda: Place("p0", marking=1, role="fork", task="A"),
        "Place(name='p0', marking=1, label='p0', role='fork', task='A')",
    ),
    "Transition": (
        lambda: Transition(
            "t0",
            TimeInterval(2, 5),
            priority=3,
            code="x();",
            role="grant",
            task="A",
        ),
        "Transition(name='t0', interval=TimeInterval(eft=2, lft=5), "
        "priority=3, code='x();', label='t0', role='grant', task='A')",
    ),
    "Transition default": (
        lambda: Transition("t1"),
        "Transition(name='t1', interval=TimeInterval(eft=0, lft=0), "
        "priority=0, code=None, label='t1', role=None, task=None)",
    ),
    "Arc": (
        lambda: Arc("p0", "t0", 2),
        "Arc(source='p0', target='t0', weight=2)",
    ),
    "State": (
        lambda: State((1, 0), (0, -1)),
        "State(marking=(1, 0), clocks=(0, -1))",
    ),
    "FiringCandidate": (
        lambda: FiringCandidate(1, 0, INF),
        "FiringCandidate(transition=1, dlb=0, dub=inf)",
    ),
    "TaskNodes": (
        lambda: TaskNodes(*[f"n{i}" for i in range(20)]),
        "TaskNodes(task='n0', start='n1', wait_arrival='n2', "
        "wait_release='n3', wait_grant='n4', wait_compute='n5', "
        "wait_finish='n6', finished_pool='n7', wait_deadline='n8', "
        "deadline_missed='n9', phase_t='n10', arrival_t='n11', "
        "release_t='n12', grant_t='n13', compute_t='n14', "
        "finish_t='n15', deadline_t='n16', cancel_t='n17', "
        "finisher='n18', gate_input='n19')",
    ),
    "ComposerOptions": (
        ComposerOptions,
        "ComposerOptions(style=<BlockStyle.COMPACT: 'compact'>, "
        "priority_policy='dm')",
    ),
    "SearchStats": (
        lambda: SearchStats(states_visited=5, elapsed_seconds=0.5),
        "SearchStats(states_visited=5, states_generated=0, "
        "revisits_skipped=0, deadline_prunes=0, backtracks=0, "
        "reductions=0, restarts=0, elapsed_seconds=0.5)",
    ),
    "SchedulerResult": (
        lambda: SchedulerResult(
            True,
            [("t0", 0, 0)],
            SearchStats(states_visited=1),
            SchedulerConfig(),
            minimum_firings=1,
        ),
        "SchedulerResult(feasible=True, firing_schedule=[('t0', 0, 0)], "
        "stats=SearchStats(states_visited=1, states_generated=0, "
        "revisits_skipped=0, deadline_prunes=0, backtracks=0, "
        "reductions=0, restarts=0, elapsed_seconds=0.0), "
        f"config={DEFAULT_CONFIG_REPR}, exhausted=False, "
        "minimum_firings=1, winner_policy=None, winner_engine=None, "
        "workers=1, interval_schedule=None, metrics={}, diagnostics=[])",
    ),
    "ExecutionSegment": (
        lambda: ExecutionSegment("A", 1, 0, 2),
        "ExecutionSegment(task='A', instance=1, start=0, end=2)",
    ),
    "BusSegment": (
        lambda: BusSegment("m", 1, 2, 4),
        "BusSegment(message='m', instance=1, start=2, end=4)",
    ),
    "DenseScheduleEntry": (
        lambda: DenseScheduleEntry("t0", 1, 1, INF),
        "DenseScheduleEntry(transition='t0', at=1, earliest=1, "
        "latest=inf)",
    ),
    "ScheduleItem": (
        lambda: ScheduleItem(0, False, 1, "A", 1, "A1 starts"),
        "ScheduleItem(start=0, preempted=False, task_id=1, task='A', "
        "instance=1, comment='A1 starts')",
    ),
    "TaskLevelSchedule": (
        lambda: TaskLevelSchedule(
            [ExecutionSegment("A", 1, 0, 2)],
            [ScheduleItem(0, False, 1, "A", 1, "")],
            schedule_period=20,
        ),
        "TaskLevelSchedule(segments=[ExecutionSegment(task='A', "
        "instance=1, start=0, end=2)], items=[ScheduleItem(start=0, "
        "preempted=False, task_id=1, task='A', instance=1, "
        "comment='')], bus_segments=[], schedule_period=20)",
    ),
    "Diagnostic": (
        lambda: Diagnostic(
            "EZS101", "error", "bad", hint="fix", element="task 'A'"
        ),
        "Diagnostic(code='EZS101', severity='error', message='bad', "
        "hint='fix', element=\"task 'A'\", file='', line=0)",
    ),
    "LintReport": (
        lambda: LintReport(
            [Diagnostic("EZC101", "warning", "w", file="a.py", line=3)]
        ),
        "LintReport(diagnostics=[Diagnostic(code='EZC101', "
        "severity='warning', message='w', hint='', element='', "
        "file='a.py', line=3)])",
    ),
    "GeneratedProject": (
        lambda: GeneratedProject(_target(), {"a.c": "int x;"}),
        "GeneratedProject(target=TargetProfile(name='t', description='d', "
        "includes=('#include <x.h>',), isr_signature='void f(void)', "
        "timer_setup='s', timer_program='p', context_save='cs', "
        "context_restore='cr', idle='i', runnable=False), "
        "files={'a.c': 'int x;'})",
    ),
    "TargetProfile": (
        _target,
        "TargetProfile(name='t', description='d', "
        "includes=('#include <x.h>',), isr_signature='void f(void)', "
        "timer_setup='s', timer_program='p', context_save='cs', "
        "context_restore='cr', idle='i', runnable=False)",
    ),
    "_TaskContext": (
        lambda: _TaskContext(1, 2, 3),
        "_TaskContext(instance=1, remaining=2, started_at=3)",
    ),
    "MachineResult": (
        lambda: MachineResult(
            Trace([TraceEvent(0, "start", "A", 1)], horizon=5),
            {("A", 1): 2},
            ["late"],
        ),
        "MachineResult(trace=Trace(events=[TraceEvent(time=0, "
        "kind='start', task='A', instance=1, detail='')], horizon=5), "
        "completions={('A', 1): 2}, errors=['late'])",
    ),
    "TraceEvent": (
        lambda: TraceEvent(4, "preempt", "A", 1, "B1 preempts A1"),
        "TraceEvent(time=4, kind='preempt', task='A', instance=1, "
        "detail='B1 preempts A1')",
    ),
    "Trace": (
        lambda: Trace([TraceEvent(0, "idle")], horizon=3),
        "Trace(events=[TraceEvent(time=0, kind='idle', task='', "
        "instance=0, detail='')], horizon=3)",
    ),
    "SchedulerConfig": (
        _custom_config,
        "SchedulerConfig(priority_mode='strict', delay_mode='full', "
        "partial_order=False, reset_policy='intermediate', "
        "engine='kernel', max_states=5000, max_seconds=2.5, "
        "policy='random', policy_seed=3, parallel=2, "
        "portfolio=('kernel:earliest', 'stateclass:earliest'), "
        "trace_jsonl='t.jsonl', progress=True)",
    ),
}


def _tiny_model() -> ComposedModel:
    spec = EzRTSpec("tiny", identifier="e2")
    spec.add_task(Task("A", 1, 4, 4, identifier="ta"))
    return compose(spec)


FROZEN = sorted(
    name
    for name, (build, _text) in REPRS.items()
    if isinstance(build(), FrozenRecord)
)
MUTABLE = sorted(set(REPRS) - set(FROZEN))


@pytest.mark.parametrize("name", sorted(REPRS))
def test_repr_matches_the_dataclass(name):
    build, text = REPRS[name]
    assert repr(build()) == text


def test_composed_model_repr_hides_the_compiled_net():
    model = _tiny_model()
    model.compiled()
    assert repr(model) == (
        "ComposedModel(spec=EzRTSpec('tiny', tasks=1, messages=0, "
        "U=0.250), net=TimePetriNet('tiny', |P|=10, |T|=7, |F|=18), "
        "schedule_period=4, instances={'A': 1}, nodes={'A': "
        "TaskNodes(task='A', start='pst_A', wait_arrival=None, "
        "wait_release='pwr_A', wait_grant='pwg_A', "
        "wait_compute='pwc_A', wait_finish=None, finished_pool='pf_A', "
        "wait_deadline='pwd_A', deadline_missed='pdm_A', "
        "phase_t='tph_A', arrival_t=None, release_t='tr_A', "
        "grant_t='tg_A', compute_t='tc_A', finish_t=None, "
        "deadline_t='td_A', cancel_t=None, finisher='tc_A', "
        "gate_input='pwg_A')}, options=ComposerOptions("
        "style=<BlockStyle.COMPACT: 'compact'>, priority_policy='dm'), "
        "message_nodes={})"
    )


def test_every_converted_type_is_a_slot_record():
    types = {type(build()) for build, _text in REPRS.values()}
    types.add(ComposedModel)
    assert len(types) == 31
    for cls in types:
        assert issubclass(cls, Record)
        assert "__dict__" not in dir(cls), cls


@pytest.mark.parametrize("name", sorted(REPRS))
def test_equality_is_by_value_within_one_class(name):
    build, _text = REPRS[name]
    first, second = build(), build()
    assert first is not second
    assert first == second
    assert not first != second
    assert first != object()
    assert (first == (1, 2)) is False


def test_equality_compares_every_field():
    assert TimeInterval(1, 2) != TimeInterval(1, 3)
    assert Arc("p", "t", 1) != Arc("p", "t", 2)
    assert State((1,), (0,)) != State((1,), (1,))
    assert ExecutionSegment("A", 1, 0, 2) != ExecutionSegment("A", 2, 0, 2)
    assert ExecutionSegment("A", 1, 0, 2) != BusSegment("A", 1, 0, 2)
    assert SearchStats(backtracks=1) != SearchStats()
    assert Place("p", 1) != Place("p", 2)


def test_equality_skips_the_compiled_cache():
    first, second = _tiny_model(), _tiny_model()
    # the nets are distinct objects without __eq__, so share one
    second.net = first.net
    second.spec = first.spec
    first.compiled()
    assert first._compiled is not None and second._compiled is None
    assert first == second


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_types_hash_by_value_and_reject_assignment(name):
    build, _text = REPRS[name]
    value = build()
    assert hash(value) == hash(build())
    assert hash(value) == hash(tuple(getattr(value, f) for f in value._fields))
    assert len({value, build()}) == 1
    field = value._fields[0]
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.not_a_field = 1


@pytest.mark.parametrize("name", MUTABLE)
def test_mutable_types_are_unhashable_and_assignable(name):
    build, _text = REPRS[name]
    value = build()
    with pytest.raises(TypeError):
        hash(value)
    field = value._fields[-1]
    setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        value.not_a_field = 1


@pytest.mark.parametrize("name", sorted(REPRS))
def test_pickle_and_copy_round_trip(name):
    build, text = REPRS[name]
    value = build()
    for clone in (
        pickle.loads(pickle.dumps(value)),
        copy.copy(value),
        copy.deepcopy(value),
    ):
        assert type(clone) is type(value)
        assert clone == value
        assert repr(clone) == text


def test_profiles_and_composed_models_pickle():
    assert pickle.loads(pickle.dumps(HOSTSIM)) == HOSTSIM
    model = _tiny_model()
    model.compiled()
    clone = pickle.loads(pickle.dumps(model))
    assert repr(clone) == repr(model)
    assert clone.nodes == model.nodes


#: (factory, its fields that default to a fresh empty container)
DEFAULT_CONTAINERS = [
    (
        lambda: Task("A", 1, 2, 2),
        ("precedes_tasks", "excludes_tasks", "precedes_msgs"),
    ),
    (lambda: EzRTSpec("s"), ("tasks", "processors", "messages")),
    (
        lambda: SchedulerResult(True),
        ("firing_schedule", "metrics", "diagnostics"),
    ),
    (LintReport, ("diagnostics",)),
    (Trace, ("events",)),
    (lambda: MachineResult(Trace()), ("completions", "errors")),
    (lambda: GeneratedProject(_target()), ("files",)),
    (lambda: TaskLevelSchedule([], []), ("bus_segments",)),
    (_tiny_model, ("message_nodes",)),
]


@pytest.mark.parametrize("build, fields", DEFAULT_CONTAINERS)
def test_default_containers_are_fresh_per_instance(build, fields):
    first, second = build(), build()
    for field in fields:
        assert not getattr(first, field)
        assert getattr(first, field) is not getattr(second, field)


def test_default_stats_and_config_are_fresh_per_result():
    first, second = SchedulerResult(True), SchedulerResult(True)
    assert first.stats == SearchStats()
    assert first.stats is not second.stats
    assert first.config == SchedulerConfig()
    assert first.config is not second.config


def test_post_init_validation_runs_in_init():
    from repro.errors import NetConstructionError, SpecificationError

    with pytest.raises(NetConstructionError):
        TimeInterval(5, 2)
    with pytest.raises(NetConstructionError):
        Arc("p", "t", 0)
    with pytest.raises(NetConstructionError):
        Place("p", -1)
    with pytest.raises(NetConstructionError):
        ComposerOptions(priority_policy="bogus")
    with pytest.raises(SpecificationError):
        Task("A", 0, 2, 2)
    with pytest.raises(SpecificationError):
        Message("m", communication=-1)
    with pytest.raises(ValueError):
        Diagnostic("EZS101", "fatal", "x")
    assert ComposerOptions(style="expanded").style.value == "expanded"
    assert Transition("t", label="").label == "t"
    assert SourceCode("x").identifier.startswith("ezsrc")


def test_time_interval_orders_as_a_tuple():
    intervals = [
        TimeInterval(2, 2),
        TimeInterval(0, INF),
        TimeInterval(0, 3),
        TimeInterval(1, 5),
    ]
    assert sorted(intervals) == [
        TimeInterval(0, 3),
        TimeInterval(0, INF),
        TimeInterval(1, 5),
        TimeInterval(2, 2),
    ]
    assert TimeInterval(0, 3) < TimeInterval(0, 4) <= TimeInterval(0, 4)
    assert TimeInterval(1, 1) > TimeInterval(0, INF)
    assert TimeInterval(1, 1) >= TimeInterval(1, 1)
    with pytest.raises(TypeError):
        TimeInterval(0, 1) < (0, 1)


# ----------------------------------------------------------------------
# SchedulerConfig: the last type converted from a dataclass
# ----------------------------------------------------------------------
def test_scheduler_config_default_repr_matches_the_dataclass():
    assert repr(SchedulerConfig()) == DEFAULT_CONFIG_REPR


def test_scheduler_config_positional_parameters_follow_field_order():
    assert SchedulerConfig._fields == (
        "priority_mode",
        "delay_mode",
        "partial_order",
        "reset_policy",
        "engine",
        "max_states",
        "max_seconds",
        "policy",
        "policy_seed",
        "parallel",
        "portfolio",
        "trace_jsonl",
        "progress",
    )
    custom = _custom_config()
    values = [getattr(custom, name) for name in SchedulerConfig._fields]
    assert SchedulerConfig(*values) == custom
    assert SchedulerConfig(
        **dict(zip(SchedulerConfig._fields, values))
    ) == custom
    # the portfolio is stored as a tuple, whatever sequence it came as
    assert custom.portfolio == ("kernel:earliest", "stateclass:earliest")


def test_scheduler_config_equality_is_field_by_field():
    base, custom = SchedulerConfig(), _custom_config()
    for name in SchedulerConfig._fields:
        # the custom config keeps the default engine
        value = "stateclass" if name == "engine" else getattr(custom, name)
        assert base.replace(**{name: value}) != base

    class Lookalike:
        def __init__(self, config):
            for name in SchedulerConfig._fields:
                setattr(self, name, getattr(config, name))

    assert base != Lookalike(base)
    assert (base == Lookalike(base)) is False
    assert base != tuple(getattr(base, n) for n in base._fields)


def test_scheduler_config_pickles_at_protocol_2():
    # worker pools (batch, portfolio race, service) ship configs so;
    # the default protocol, hashing and copying are pinned with the
    # other types above
    for config in (SchedulerConfig(), _custom_config()):
        clone = pickle.loads(pickle.dumps(config, protocol=2))
        assert type(clone) is SchedulerConfig
        assert clone == config
        assert repr(clone) == repr(config)


#: (invalid field values, the dataclass version's error message)
INVALID_CONFIGS = [
    (
        {"priority_mode": "bogus"},
        "unknown priority mode 'bogus'; expected one of "
        "('ordered', 'strict')",
    ),
    (
        {"delay_mode": "bogus"},
        "unknown delay mode 'bogus'; expected one of "
        "('earliest', 'extremes', 'full')",
    ),
    (
        {"reset_policy": "bogus"},
        "unknown reset policy 'bogus'; expected one of "
        "('paper', 'intermediate')",
    ),
    (
        {"engine": "bogus"},
        "unknown engine 'bogus'; expected one of "
        "('kernel', 'stateclass')",
    ),
    (
        {"engine": "stateclass", "delay_mode": "full"},
        "delay_mode has no effect on the dense-time state-class engine "
        "(the class graph covers every dense delay); keep the default "
        "'earliest'",
    ),
    ({"max_states": 0}, "max_states must be positive"),
    ({"max_seconds": 0}, "max_seconds must be positive"),
    ({"max_seconds": -1.0}, "max_seconds must be positive"),
    (
        {"policy": "bogus"},
        "unknown search policy 'bogus'; expected one of "
        "('earliest', 'latest', 'min-laxity', 'random')",
    ),
    ({"parallel": -1}, "parallel must be >= 0 (0/1 mean a serial search)"),
    (
        {"portfolio": ("warp:earliest",)},
        "portfolio slot 'warp:earliest': 'warp' is neither an engine "
        "('kernel', 'stateclass') nor a search policy "
        "('earliest', 'latest', 'min-laxity', 'random')",
    ),
    (
        {"portfolio": ("random:x",)},
        "policy seed must be an integer, got 'x'",
    ),
    # the checks run in field order: the first bad field is reported
    (
        {"priority_mode": "x", "delay_mode": "y"},
        "unknown priority mode 'x'; expected one of "
        "('ordered', 'strict')",
    ),
]


@pytest.mark.parametrize(
    "changes, message", INVALID_CONFIGS, ids=lambda v: str(v)[:40]
)
def test_scheduler_config_rejects_each_invalid_field(changes, message):
    with pytest.raises(SchedulingError) as raised:
        SchedulerConfig(**changes)
    assert str(raised.value) == message
    with pytest.raises(SchedulingError) as replaced:
        SchedulerConfig().replace(**changes)
    assert str(replaced.value) == message


def test_scheduler_config_replace_builds_a_validated_copy():
    base = SchedulerConfig()
    moved = base.replace(engine="stateclass", max_states=10)
    assert type(moved) is SchedulerConfig
    assert (moved.engine, moved.max_states) == ("stateclass", 10)
    assert base == SchedulerConfig()
    assert base.replace() == base and base.replace() is not base
    assert base.replace(portfolio=["latest"]).portfolio == ("latest",)
    with pytest.raises(SchedulingError):
        moved.replace(delay_mode="full")
    with pytest.raises(TypeError):
        base.replace(not_a_field=1)


def test_scheduler_config_answers_to_dataclasses(monkeypatch):
    built = []
    make_dataclass = dataclasses.make_dataclass

    def counting(*args, **kwargs):
        built.append(args[0])
        return make_dataclass(*args, **kwargs)

    # a fresh shim, so this test sees the mirror built (saving the old
    # value reads it, so the count starts after)
    monkeypatch.setattr(
        SchedulerConfig, "__dataclass_fields__", DataclassFields()
    )
    monkeypatch.setattr(dataclasses, "make_dataclass", counting)
    config = _custom_config()
    assert dataclasses.is_dataclass(SchedulerConfig)
    assert dataclasses.is_dataclass(config)
    fields = dataclasses.fields(SchedulerConfig)
    assert [f.name for f in fields] == list(SchedulerConfig._fields)
    assert [f.default for f in fields] == [
        getattr(SchedulerConfig(), name) for name in SchedulerConfig._fields
    ]
    assert [f.type for f in fields][:2] == ["str", "str"]
    assert dataclasses.fields(config) == fields
    assert dataclasses.asdict(config) == {
        name: getattr(config, name) for name in SchedulerConfig._fields
    }
    moved = dataclasses.replace(config, max_states=7)
    assert type(moved) is SchedulerConfig
    assert moved == config.replace(max_states=7)
    with pytest.raises(SchedulingError, match="max_states must be"):
        dataclasses.replace(config, max_states=0)
    # the mirror is built once and cached on the class
    assert built == ["SchedulerConfig"]
    assert isinstance(SchedulerConfig.__dict__["__dataclass_fields__"], dict)
    assert all(
        a is b
        for a, b in zip(dataclasses.fields(SchedulerConfig), fields)
    )
