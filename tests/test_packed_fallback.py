"""Packed-cap fallback: a net past a packed engine's caps runs on its spec.

The packed kernel and DBM engines store tokens, clocks and static
bounds in fixed-width words; the executable specs have no such caps.
A search whose packed root or native driver meets a cap raises
:class:`~repro.errors.PackedCapError` inside
:meth:`~repro.scheduler.dfs.PreRuntimeScheduler.search`, which runs
the search again from the start on the engine's spec.  This suite pins
that the fallback's result — verdict, schedule, windows, every
deterministic counter and the metrics, whose ``*.native_core`` gauge
reads 0 — equals an ``EZRT_PURE=1`` run, through the library and
through ``ezrt schedule``, under the seeded ``random`` order too; that
the rerun keeps the first attempt's time budget; and that faults of
other kinds still propagate.
"""

from __future__ import annotations

import time

import pytest

from repro.blocks import compose
from repro.cli import main
from repro.errors import PackedCapError, SchedulingError
from repro.scheduler import PreRuntimeScheduler, SchedulerConfig
from repro.scheduler.core import KernelAdapter
from repro.scheduler.dfs import find_schedule
from repro.spec import paper_examples
from repro.spec.dsl import loads
from repro.tpn import _native
from repro.tpn._native import NativeSearch
from repro.tpn.interval import MAX_BOUND, TimeInterval
from repro.tpn.net import TimePetriNet
from repro.workloads import random_task_set
from test_dbm_driver import _token_overflow_net
from test_kernel_driver import _overflow_net

pytestmark = pytest.mark.skipif(
    _native.CORE.native_module() is None,
    reason="the native core cannot be built here",
)

#: Two tasks whose hyper-period takes the kernel's clocks past
#: ``MAX_CLOCK``: the packed search overflows, the spec finds a
#: schedule after 15 states.
LONG_XML = """<?xml version="1.0" ?>
<rt:ez-spec xmlns:rt="http://pnmp.sf.net/EZRealtime" name="long"
            identifier="ezspec1">
  <Task identifier="ez1">
    <name>a</name><period>140000</period>
    <computing>2</computing><deadline>140000</deadline>
  </Task>
  <Task identifier="ez2">
    <name>b</name><period>70000</period>
    <computing>3</computing><deadline>70000</deadline>
  </Task>
</rt:ez-spec>
"""


@pytest.fixture(autouse=True)
def _compiled_core(monkeypatch):
    """Run the packed engines even in the ``EZRT_PURE=1`` test lane."""
    monkeypatch.delenv(_native.PURE_ENV, raising=False)


def _wide_net():
    """One transition whose static interval lies past ``MAX_BOUND``."""
    net = TimePetriNet("wide")
    net.add_place("p0", marking=1)
    net.add_place("done")
    net.add_transition("t0", interval=TimeInterval(0, MAX_BOUND + 1))
    net.add_arc("p0", "t0")
    net.add_arc("t0", "done")
    net.set_final_marking({"done": 1})
    return net.compile()


#: (net factory, engine, state budget where the spec does not end)
NETS = {
    "kernel-tokens": (lambda: _overflow_net("tokens"), "kernel", 2_000),
    "kernel-clock": (lambda: _overflow_net("clock"), "kernel", 2_000),
    "dbm-tokens": (_token_overflow_net, "stateclass", 200),
    "dbm-bound": (_wide_net, "stateclass", 2_000_000),
}


def _long_net():
    return compose(loads(LONG_XML)).compiled()


def _outcome(result):
    stats = result.stats.as_dict()
    for key in result.stats.WALL_CLOCK_KEYS:
        stats.pop(key)
    return (
        result.feasible,
        result.exhausted,
        result.firing_schedule,
        result.interval_schedule,
        stats,
        result.metrics,
    )


def _pure(monkeypatch, run):
    with monkeypatch.context() as pure:
        pure.setenv(_native.PURE_ENV, "1")
        return run()


@pytest.mark.parametrize("case", sorted(NETS))
def test_fallback_equals_a_spec_run(monkeypatch, case):
    factory, engine, max_states = NETS[case]
    net = factory()
    config = SchedulerConfig(engine=engine, max_states=max_states)
    scheduler = PreRuntimeScheduler(net, config)
    assert scheduler.adapter.native
    fallback = scheduler.search()
    assert not scheduler.adapter.native
    assert scheduler.adapter.name == engine
    spec = _pure(
        monkeypatch, lambda: PreRuntimeScheduler(net, config).search()
    )
    assert _outcome(fallback) == _outcome(spec)
    core = "kernel" if engine == "kernel" else "dbm"
    assert fallback.metrics["gauges"][f"{core}.native_core"] == 0
    assert fallback.stats.states_visited > 1


@pytest.mark.parametrize("case", ["long", *sorted(NETS)])
def test_random_fallback_equals_a_spec_run(monkeypatch, case):
    """Under ``random`` the fallback's order starts at its seed, as a
    search begun on the spec does: the packed attempt's draws are not
    carried over."""
    factory, engine, max_states = NETS.get(
        case, (_long_net, "kernel", 2_000)
    )
    net = factory()
    for seed in range(20):
        config = SchedulerConfig(
            engine=engine,
            max_states=max_states,
            policy="random",
            policy_seed=seed,
        )
        scheduler = PreRuntimeScheduler(net, config)
        fallback = scheduler.search()
        assert not scheduler.adapter.native
        spec = _pure(
            monkeypatch, lambda: PreRuntimeScheduler(net, config).search()
        )
        assert _outcome(fallback) == _outcome(spec), seed


def test_fallback_keeps_the_time_budget(monkeypatch):
    """A packed attempt's time counts against ``max_seconds``: the spec
    rerun stops at the first attempt's deadline (its first poll), and
    ``elapsed_seconds`` includes the packed attempt."""
    spent = 0.3

    def open_driver(_adapter, _root, _timed):
        time.sleep(spent)
        raise PackedCapError("a packed cap, after a slow packed attempt")

    monkeypatch.setattr(KernelAdapter, "open_driver", open_driver)
    net = compose(
        random_task_set(
            32, total_utilization=0.4, seed=132, period_grid=(20, 40, 80)
        )
    ).compiled()
    config = SchedulerConfig(engine="kernel", max_seconds=spent / 2)
    result = PreRuntimeScheduler(net, config).search()
    assert result.exhausted and not result.feasible
    assert result.stats.states_generated == 1024
    assert result.stats.elapsed_seconds >= spent


def test_long_spec_through_find_schedule(monkeypatch):
    config = SchedulerConfig(engine="kernel")
    fallback = find_schedule(compose(loads(LONG_XML)), config)
    spec = _pure(
        monkeypatch,
        lambda: find_schedule(compose(loads(LONG_XML)), config),
    )
    assert fallback.feasible
    assert fallback.stats.states_visited == 15
    assert _outcome(fallback) == _outcome(spec)


def test_long_spec_through_the_cli(monkeypatch, capsys, tmp_path):
    path = tmp_path / "long.xml"
    path.write_text(LONG_XML)
    argv = ["schedule", str(path), "--gantt", "--profile"]

    def report():
        assert main(argv) == 0
        return [
            line
            for line in capsys.readouterr().out.splitlines()
            if "time" not in line and "throughput" not in line
        ]

    fallback = report()
    assert "schedule        : feasible" in fallback
    assert fallback == _pure(monkeypatch, report)


def test_other_scheduling_errors_propagate(monkeypatch):
    """A scheduling error of the native search that is not a packed
    cap is no reason to rerun the search: no fallback hides it."""
    def run(_search):
        raise SchedulingError("kernel search driver: some other fault")

    monkeypatch.setattr(NativeSearch, "run", run)
    net = compose(paper_examples()["fig3"]).compiled()
    scheduler = PreRuntimeScheduler(net, SchedulerConfig())
    with pytest.raises(SchedulingError, match="some other fault"):
        scheduler.search()
    assert scheduler.adapter.native


def test_memory_errors_propagate(monkeypatch):
    def run(_search):
        raise MemoryError("kernel search driver: out of memory")

    monkeypatch.setattr(NativeSearch, "run", run)
    net = compose(paper_examples()["fig3"]).compiled()
    with pytest.raises(MemoryError):
        PreRuntimeScheduler(net, SchedulerConfig()).search()
