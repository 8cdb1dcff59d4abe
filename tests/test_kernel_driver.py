"""Native search driver suite: the C DFS in lockstep with the Python loop.

With the kernel's compiled core live, ``engine="kernel"`` searches run
entirely inside the ``kn_search_*`` driver of :mod:`repro.tpn._kernelc`
(see :meth:`repro.scheduler.dfs.PreRuntimeScheduler._drive`).
:class:`~repro.scheduler.dfs.PreRuntimeScheduler`'s own loop over the reference
:class:`~repro.tpn.state.StateEngine` (which ``engine="kernel"`` runs
under ``EZRT_PURE=1``) is the driver's executable spec, and this suite
pins the two together:

* **settings matrix** — every delay mode × priority mode ×
  ``partial_order`` × reset policy × reorder policy, on the paper
  models, seeded ``random_task_set`` and
  ``random_task_set_with_relations`` inputs: identical verdict,
  ``exhausted``, every :class:`SearchStats` counter, firing schedule
  and sequence of poll counters and ``heartbeat`` arguments;
* **every search prefix** — ``max_states=k`` over a range of ``k``;
* **loud overflow** — the packed caps raise the same
  :class:`PackedCapError` text in the driver and when the kernel
  engine is stepped directly (the spec has no caps, and the scheduler
  falls back to it);
* **stopping and memory** — ``max_seconds``, a stop sent at a poll and
  a pending Ctrl-C stop within one poll interval, the driver's memory
  is freed on every exit path and ``tracemalloc`` sees it, and a
  repeated search reuses the memory the last one freed.
"""

from __future__ import annotations

import _thread
import ctypes
import itertools
import os
import platform
import resource
import tracemalloc

import pytest

from repro.blocks import compose
from repro.errors import PackedCapError
from repro.scheduler import PreRuntimeScheduler, SchedulerConfig
from repro.scheduler.config import DELAY_MODES, PRIORITY_MODES
from repro.scheduler.core import ReferenceAdapter
from repro.spec import paper_examples
from repro.tpn import _kernelc
from repro.tpn._native import SEARCH_POLL, NativeSearch
from repro.tpn.interval import INF, TimeInterval
from repro.tpn.kernel import KernelEngine
from repro.tpn.net import TimePetriNet
from repro.workloads import random_task_set, random_task_set_with_relations

pytestmark = pytest.mark.skipif(
    _kernelc.native_module() is None,
    reason="the kernel's compiled core cannot be built here",
)


@pytest.fixture(autouse=True)
def _compiled_core(monkeypatch):
    """Run the driver even in the ``EZRT_PURE=1`` test lane: the spec
    side sets it explicitly."""
    monkeypatch.delenv(_kernelc.PURE_ENV, raising=False)

RESETS = ("paper", "intermediate")
POLICIES = (
    "earliest", "latest", "min-laxity", "random:1", "random:0", "random:-3"
)
SETTINGS = list(
    itertools.product(
        DELAY_MODES, PRIORITY_MODES, (True, False), RESETS, POLICIES
    )
)
#: state budget of the matrix searches: long enough for several polls
MATRIX_STATES = 2_500


def _inputs():
    nets = {
        name: compose(spec).compiled()
        for name, spec in paper_examples().items()
    }
    for seed in (0, 1):
        nets[f"rand-s{seed}"] = compose(
            random_task_set(
                4, 0.7, seed=seed, preemptive_fraction=0.5,
                deadline_slack=0.8,
            )
        ).compiled()
        nets[f"rel-s{seed}"] = compose(
            random_task_set_with_relations(3, 0.5, seed=seed)
        ).compiled()
    return nets


@pytest.fixture(scope="module")
def nets():
    return _inputs()


def _config(setting, **extra):
    delay_mode, priority_mode, partial_order, reset, policy = setting
    name, _, seed = policy.partition(":")
    return SchedulerConfig(
        engine="kernel",
        delay_mode=delay_mode,
        priority_mode=priority_mode,
        partial_order=partial_order,
        reset_policy=reset,
        policy=name,
        policy_seed=int(seed or 0),
        **extra,
    )


def _search(net, config, native, polled=True, stop=None):
    """One search, on the native driver or on the reference spec;
    returns (result, [("poll"|"heartbeat", args)]): ``polled`` drives the
    resumable search, logging the counters yielded at each poll and
    sending ``stop(counters)`` back."""
    with pytest.MonkeyPatch.context() as env:
        if not native:
            env.setenv(_kernelc.PURE_ENV, "1")
        scheduler = PreRuntimeScheduler(net, config)
    assert scheduler.adapter.native == native
    calls: list = []
    if not polled:
        return scheduler.search(), calls
    scheduler.heartbeat = lambda *args: calls.append(("heartbeat", args))
    steps = scheduler.steps(resumable=True)
    try:
        counters = next(steps)
        while True:
            calls.append(("poll", counters))
            counters = steps.send(stop is not None and stop(*counters))
    except StopIteration as done:
        return done.value, calls


def _outcome(result):
    stats = result.stats.as_dict()
    for key in result.stats.WALL_CLOCK_KEYS:
        stats.pop(key)
    return (
        result.feasible,
        result.exhausted,
        stats,
        result.firing_schedule,
    )


def _assert_lockstep(net, config, polled=True, stop=None):
    spec, spec_calls = _search(net, config, False, polled, stop)
    drv, drv_calls = _search(net, config, True, polled, stop)
    assert _outcome(drv) == _outcome(spec)
    assert drv_calls == spec_calls
    return drv, drv_calls


class TestSettingsMatrix:
    @pytest.mark.parametrize(
        "setting", SETTINGS, ids=["-".join(map(str, s)) for s in SETTINGS]
    )
    def test_driver_matches_search_core(self, nets, setting):
        names = sorted(nets)
        # the paper's three small figures run in every cell; the larger
        # inputs rotate through the matrix
        index = SETTINGS.index(setting)
        picked = ["fig3", "fig4", "fig8"]
        large = [n for n in names if n not in picked]
        picked.append(large[index % len(large)])
        for name in picked:
            _assert_lockstep(
                nets[name], _config(setting, max_states=MATRIX_STATES)
            )

    @pytest.mark.parametrize("name", ["mine-pump", "rand-s0", "rel-s1"])
    def test_unpolled_search_matches(self, nets, name):
        """Not resumable, no heartbeat or deadline: the driver still returns every
        1024 expansions, but Python does no poll work there."""
        setting = ("earliest", "ordered", True, "paper", "earliest")
        drv, calls = _assert_lockstep(
            nets[name], _config(setting), polled=False
        )
        assert calls == []
        assert "search.max_depth" not in drv.metrics["gauges"]

    def test_polls_are_compared(self, nets):
        """The matrix's poll/heartbeat logs are not vacuous."""
        setting = ("earliest", "ordered", True, "paper", "earliest")
        _drv, calls = _assert_lockstep(nets["mine-pump"], _config(setting))
        assert [kind for kind, _ in calls].count("poll") == 3255 // 1024


class TestSearchPrefixes:
    @pytest.mark.parametrize("policy", ["earliest", "random:1"])
    def test_every_budget_prefix(self, policy):
        """``max_states=k`` cuts both searches after the same prefix."""
        net = compose(
            random_task_set(3, 0.8, seed=0, deadline_slack=0.8)
        ).compiled()
        setting = ("earliest", "ordered", True, "paper", policy)
        full, _ = _search(net, _config(setting), True)
        total = full.stats.states_visited
        assert total > 200  # a refutation with backtracking
        for k in range(1, total + 2):
            _assert_lockstep(net, _config(setting, max_states=k))

    def test_sampled_prefixes_of_a_long_search(self, nets):
        setting = ("extremes", "strict", True, "intermediate", "latest")
        for k in range(1, 3_000, 137):
            _assert_lockstep(
                nets["mine-pump"], _config(setting, max_states=k)
            )


def _rss() -> int:
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


#: the warm-repeat checks read glibc's allocator behaviour and Linux's
#: ``/proc``
glibc_only = pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc", reason="needs glibc"
)


def assert_warm_repeats(net, config, runs=10):
    """Search ``net`` ``runs`` times in one process: from the third run
    on the driver reuses the memory earlier runs freed (the first run's
    big blocks are mmapped, and freeing them raises glibc's mmap
    threshold, so the second run's land on the heap and stay there),
    and what the allocator keeps between searches stays bounded."""
    ctypes.CDLL(None).malloc_trim(0)  # start cold, whatever ran before
    before = _rss()
    faults = []
    for _ in range(runs):
        start = _minflt()
        result = PreRuntimeScheduler(net, config).search()
        faults.append(_minflt() - start)
    held = _rss() - before
    visited_bytes = result.metrics["gauges"]["search.visited_bytes"]
    assert visited_bytes >= 1 << 20
    assert all(n < 0.05 * faults[0] for n in faults[2:]), faults
    assert held < 2 * visited_bytes, (held, visited_bytes)


def _overflow_net(kind: str):
    """A net whose search hits the packed token or clock cap."""
    net = TimePetriNet(f"{kind}-overflow")
    net.add_place("p0", marking=1)
    net.add_place("q", marking=1)
    net.add_place("done")
    if kind == "tokens":
        net.add_place("acc")
        net.add_transition("gen")  # immediate [0, 0]
        net.add_arc("p0", "gen")
        net.add_arc("gen", "p0")
        net.add_arc("gen", "acc", weight=1000)
    else:
        net.add_transition("tick", TimeInterval(1000, 1000))
        net.add_arc("p0", "tick")
        net.add_arc("tick", "p0")
        net.add_transition("hold", TimeInterval(100_000, INF))
        net.add_arc("q", "hold")
        net.add_arc("hold", "done")
    net.set_final_marking({"done": 2})
    return net.compile()


class TestOverflow:
    @pytest.mark.parametrize(
        "kind,message",
        [("tokens", "token cap"), ("clock", "clock overflow")],
    )
    def test_same_error_on_both_paths(self, kind, message):
        """The driver and the kernel engine stepped down the search's
        first path (each state's first candidate) hit the cap with the
        same message."""
        net = _overflow_net(kind)
        config = SchedulerConfig(engine="kernel")
        engine = KernelEngine(net, reset_policy=config.reset_policy)
        driver = engine.open_search(
            engine.initial(),
            strict=config.priority_mode == "strict",
            partial_order=config.partial_order,
            delay_mode=config.delay_mode,
            policy="earliest",
            seed=0,
            max_states=config.max_states,
            timed=False,
        )
        with pytest.raises(PackedCapError, match=message) as driven:
            while driver.run() == SEARCH_POLL:
                pass
        driver.close()
        state = engine.initial()
        with pytest.raises(PackedCapError, match=message) as stepped:
            while True:
                cands, _reduced = engine.candidates(
                    state,
                    config.priority_mode == "strict",
                    config.partial_order,
                    config.delay_mode,
                )
                state = engine.successor(state, *cands[0])
        assert str(driven.value) == str(stepped.value)

    @pytest.mark.parametrize("kind", ["tokens", "clock"])
    def test_the_spec_has_no_packed_caps(self, kind):
        """The reference engine searches past the packed caps: the
        caps are limits of the packed representation only."""
        config = SchedulerConfig(engine="kernel", max_states=3_000)
        result, _ = _search(
            _overflow_net(kind), config, False, polled=False
        )
        assert result.stats.states_visited > 1


class _Spy:
    """Records every native search the kernel engine opens."""

    def __init__(self, monkeypatch):
        self.searches = []
        original = KernelEngine.open_search
        spy = self

        def open_search(engine, *args, **kwargs):
            search = original(engine, *args, **kwargs)
            spy.searches.append(search)
            return search

        monkeypatch.setattr(KernelEngine, "open_search", open_search)


class TestStoppingAndMemory:
    def _long(self):
        spec = random_task_set(
            32, total_utilization=0.4, seed=132, period_grid=(20, 40, 80)
        )
        return compose(spec).compiled()

    def test_max_seconds_stops_at_the_first_poll(self):
        config = SchedulerConfig(
            engine="kernel", max_seconds=1e-9, max_states=60_000
        )
        result, _ = _search(self._long(), config, True, polled=False)
        assert result.exhausted and not result.feasible
        assert result.stats.states_generated == 1024

    def test_stop_sent_at_the_first_poll_stops_there(self):
        net = self._long()
        config = SchedulerConfig(engine="kernel", max_states=60_000)
        drv, calls = _assert_lockstep(
            net, config, stop=lambda *_counters: True
        )
        assert drv.exhausted
        assert drv.stats.states_generated == 1024
        assert [kind for kind, _ in calls] == ["heartbeat", "poll"]

    def test_ctrl_c_stops_within_one_poll_and_frees(self, monkeypatch):
        """An unpolled search still returns to Python every 1024
        expansions, so a pending SIGINT raises there."""
        spy = _Spy(monkeypatch)
        original_run = NativeSearch.run
        polls = []

        def run(search):
            status = original_run(search)
            if status == SEARCH_POLL:
                polls.append(search.counters.generated)
                if len(polls) == 3:
                    _thread.interrupt_main()
            return status

        monkeypatch.setattr(NativeSearch, "run", run)
        config = SchedulerConfig(engine="kernel", max_states=60_000)
        with pytest.raises(KeyboardInterrupt):
            PreRuntimeScheduler(self._long(), config).search()
        assert polls[:3] == [1024, 2048, 3072]
        assert len(polls) <= 4
        assert spy.searches[0]._ptr is None  # freed on the way out

    def test_memory_is_freed_after_errors(self, monkeypatch):
        """A packed-cap fault frees the driver before the search
        restarts on the spec."""
        spy = _Spy(monkeypatch)
        freed = []
        spec_root = ReferenceAdapter.root

        def root(adapter):
            freed.append(spy.searches[0]._ptr is None)
            return spec_root(adapter)

        monkeypatch.setattr(ReferenceAdapter, "root", root)
        result = PreRuntimeScheduler(
            _overflow_net("tokens"),
            SchedulerConfig(engine="kernel", max_states=1_000),
        ).search()
        assert result.exhausted
        assert freed == [True]

    def test_tracemalloc_sees_the_visited_states(self):
        net = self._long()
        config = SchedulerConfig(engine="kernel", max_states=20_000)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            result = PreRuntimeScheduler(net, config).search()
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        gauges = result.metrics["gauges"]
        visited_bytes = gauges["search.visited_bytes"]
        assert visited_bytes > 20_000 * 2 * (
            net.num_places + net.num_transitions
        )
        assert peak - before >= visited_bytes
        # the arena and table are gone once the search returns
        assert after - before < visited_bytes / 4
        assert gauges["search.bytes_per_state"] == pytest.approx(
            visited_bytes / result.stats.states_visited
        )

    @glibc_only
    def test_repeated_searches_reuse_the_freed_memory(self):
        assert_warm_repeats(
            self._long(), SchedulerConfig(engine="kernel", max_states=20_000)
        )
