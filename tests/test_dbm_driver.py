"""Dense search driver suite: the C state-class DFS in lockstep with the Python loop.

With the DBM engine's compiled core live, ``engine="stateclass"``
searches run entirely inside the ``dc_search_*`` driver of
:mod:`repro.tpn._dbmc` (see :meth:`repro.scheduler.dfs.PreRuntimeScheduler._drive`).
:class:`~repro.scheduler.dfs.PreRuntimeScheduler`'s own loop over the tuple
:class:`~repro.tpn.stateclass.StateClassEngine`
(:class:`~repro.scheduler.core.StateClassSpecAdapter`, which
``engine="stateclass"`` runs without the core) is the driver's
executable spec, and this suite pins the two together — the dense twin
of ``tests/test_kernel_driver.py``:

* **settings matrix** — priority mode × ``partial_order`` × reset
  policy × reorder policy, on the paper models, wide-interval race
  nets, seeded ``random_task_set`` and ``random_task_set_with_relations``
  inputs: identical verdict, ``exhausted``, every :class:`SearchStats`
  counter, firing schedule, interval windows and sequence of
  poll counters and ``heartbeat`` arguments;
* **every search prefix** — ``max_states=k`` over every ``k`` of a
  small search and sampled ``k`` of the perfbench ``dense`` kind;
* **loud overflow** — the packed token cap raises the same
  :class:`PackedCapError` text in the driver and when the DBM engine
  is stepped directly (the spec has no caps, and the scheduler falls
  back to it);
* **stopping and memory** — ``max_seconds``, a stop sent at a poll and
  a pending Ctrl-C stop within one poll interval, the driver's memory
  is freed on every exit path and ``tracemalloc`` sees it, and a
  repeated search reuses the memory the last one freed.
"""

from __future__ import annotations

import _thread
import itertools
import tracemalloc

import pytest

from repro.blocks import compose
from repro.errors import PackedCapError
from repro.scheduler import PreRuntimeScheduler, SchedulerConfig
from repro.scheduler.config import PRIORITY_MODES
from repro.scheduler.core import StateClassSpecAdapter
from repro.scheduler.result import SearchStats
from repro.spec import paper_examples
from repro.tpn import _dbmc
from repro.tpn._native import SEARCH_POLL, NativeSearch
from repro.tpn.dbm import DbmEngine
from repro.tpn.interval import TimeInterval
from repro.tpn.net import TimePetriNet
from repro.workloads import (
    random_task_set,
    random_task_set_with_relations,
    wide_interval_race_net,
)
from test_dbm import bound_edge_net
from test_kernel_driver import assert_warm_repeats, glibc_only

pytestmark = pytest.mark.skipif(
    _dbmc.native_module() is None,
    reason="the DBM engine's compiled core cannot be built here",
)


@pytest.fixture(autouse=True)
def _compiled_core(monkeypatch):
    """Run the driver even in the ``EZRT_PURE=1`` test lane: the spec
    side installs the spec adapter explicitly."""
    monkeypatch.delenv(_dbmc.PURE_ENV, raising=False)


RESETS = ("paper", "intermediate")
POLICIES = (
    "earliest", "latest", "min-laxity", "random:1", "random:0", "random:-3"
)
SETTINGS = list(
    itertools.product(PRIORITY_MODES, (True, False), RESETS, POLICIES)
)
#: state budget of the matrix searches: past the first poll
MATRIX_STATES = 1_200


def _dense_kind():
    """perfbench's ``search-large`` dense kind (10,041 states)."""
    return random_task_set(
        6, 0.85, seed=3, preemptive_fraction=1.0, deadline_slack=0.7
    )


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
    for n_jobs, width in ((4, 16), (5, 12)):
        nets[f"race-n{n_jobs}-w{width}"] = wide_interval_race_net(
            n_jobs=n_jobs, width=width
        ).compile()
    return nets


@pytest.fixture(scope="module")
def nets():
    return _inputs()


def _config(setting, **extra):
    priority_mode, partial_order, reset, policy = setting
    name, _, seed = policy.partition(":")
    return SchedulerConfig(
        engine="stateclass",
        priority_mode=priority_mode,
        partial_order=partial_order,
        reset_policy=reset,
        policy=name,
        policy_seed=int(seed or 0),
        **extra,
    )


def _search(net, config, native, polled=True, stop=None):
    """One search, on the native driver or on the tuple spec; returns
    (result, [("poll"|"heartbeat", args)]): ``polled`` drives the
    resumable search, logging the counters yielded at each poll and
    sending ``stop(counters)`` back."""
    scheduler = PreRuntimeScheduler(net, config)
    if not native:
        scheduler.adapter = StateClassSpecAdapter(net, scheduler.config)
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
        result.interval_schedule,
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
        # the paper's two smallest figures run in every cell; the
        # larger inputs rotate through the matrix so that every policy
        # (the fastest-varying setting) meets every one of them
        index = SETTINGS.index(setting) // len(POLICIES)
        picked = ["fig3", "fig4"]
        large = [n for n in names if n not in picked]
        picked.append(large[index % len(large)])
        for name in picked:
            _assert_lockstep(
                nets[name], _config(setting, max_states=MATRIX_STATES)
            )

    @pytest.mark.parametrize(
        "name", ["fig8", "race-n4-w16", "rel-s1", "rand-s0"]
    )
    def test_unpolled_search_matches(self, nets, name):
        """Not resumable, no heartbeat or deadline: the driver still returns every
        1024 expansions, but Python does no poll work there."""
        setting = ("ordered", True, "paper", "earliest")
        drv, calls = _assert_lockstep(
            nets[name], _config(setting), polled=False
        )
        assert calls == []
        assert "search.max_depth" not in drv.metrics["gauges"]

    def test_polls_are_compared(self, nets):
        """The matrix's poll/heartbeat logs are not vacuous."""
        setting = ("ordered", True, "paper", "earliest")
        drv, calls = _assert_lockstep(nets["fig8"], _config(setting))
        assert drv.feasible
        generated = drv.stats.states_generated
        assert [kind for kind, _ in calls].count("poll") == (
            generated // 1024
        ) > 0

    @pytest.mark.parametrize("reset", RESETS)
    @pytest.mark.parametrize("policy", POLICIES)
    def test_policies_on_the_dense_kind(self, policy, reset):
        """The dense kind has ties in lower bound between tasks with
        armed deadline timers, so min-laxity's order matters there."""
        net = compose(_dense_kind()).compiled()
        _assert_lockstep(
            net,
            _config(("ordered", True, reset, policy), max_states=3_000),
        )

    def test_feasible_windows_are_compared(self, nets):
        drv, _ = _assert_lockstep(
            nets["fig4"], _config(("ordered", True, "paper", "earliest"))
        )
        assert drv.feasible and drv.interval_schedule


class TestSearchPrefixes:
    @pytest.mark.parametrize("policy", ["earliest", "random:1"])
    def test_every_budget_prefix(self, nets, policy):
        """``max_states=k`` cuts both searches after the same prefix."""
        net = nets["race-n4-w16"]
        setting = ("ordered", True, "paper", policy)
        full, _ = _search(net, _config(setting), True)
        total = full.stats.states_visited
        assert total > 200 and not full.feasible  # a refutation
        for k in range(1, total + 2):
            _assert_lockstep(net, _config(setting, max_states=k))

    def test_sampled_prefixes_of_the_dense_kind(self):
        net = compose(_dense_kind()).compiled()
        setting = ("ordered", True, "paper", "earliest")
        for k in (1, 1025, 3_348, 6_695, 10_041):
            drv, _ = _assert_lockstep(
                net, _config(setting, max_states=k)
            )
        assert drv.feasible  # the last prefix is the whole search
        assert drv.stats.states_visited == 10_041


def _self_loop_net():
    """``tick`` self-loops on ``p`` every time unit; ``job`` needs
    ``p`` for two.  Under the intermediate reset policy every ``tick``
    restarts ``job``'s clock, so only the paper policy finishes."""
    net = TimePetriNet("self-loop")
    net.add_place("p", marking=1)
    net.add_place("q", marking=1)
    net.add_place("done")
    net.add_transition("tick", TimeInterval(1, 1))
    net.add_arc("p", "tick")
    net.add_arc("tick", "p")
    net.add_transition("job", TimeInterval(2, 2))
    net.add_arc("p", "job")
    net.add_arc("q", "job")
    net.add_arc("job", "done")
    net.add_arc("job", "p")
    net.set_final_marking({"done": 1})
    return net.compile()


class TestResetPolicies:
    def test_self_loop_net_separates_the_policies(self):
        net = _self_loop_net()
        verdicts = {}
        for reset in RESETS:
            drv, _ = _assert_lockstep(
                net, SchedulerConfig(engine="stateclass", reset_policy=reset)
            )
            verdicts[reset] = drv.feasible
        assert verdicts == {"paper": True, "intermediate": False}


class TestBoundEdge:
    """The packed bound cap in lockstep: static bounds of exactly
    ``MAX_BOUND`` beside unbounded LFTs, where an ``int32`` closure sum
    would reach the ``DINF`` sentinel."""

    @pytest.mark.parametrize("reset", RESETS)
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("feasible", [True, False])
    def test_driver_matches_search_core(self, feasible, policy, reset):
        drv, _ = _assert_lockstep(
            bound_edge_net(feasible),
            _config(("ordered", False, reset, policy)),
        )
        assert drv.feasible == feasible
        if not feasible:  # the whole class graph, not a short path
            assert drv.stats.states_visited > 20


def _token_overflow_net():
    """A net whose class graph hits the packed token cap."""
    net = TimePetriNet("tokens-overflow")
    net.add_place("p0", marking=1)
    net.add_place("done")
    net.add_place("acc")
    net.add_transition("gen")  # immediate [0, 0]
    net.add_arc("p0", "gen")
    net.add_arc("gen", "p0")
    net.add_arc("gen", "acc", weight=1000)
    net.set_final_marking({"done": 1})
    return net.compile()


class TestOverflow:
    def test_same_error_on_both_paths(self):
        """The driver and the DBM engine stepped down the search's
        first path (each class's first candidate) hit the cap with the
        same message."""
        net = _token_overflow_net()
        config = SchedulerConfig(engine="stateclass")
        engine = DbmEngine(net, reset_policy=config.reset_policy)
        driver = engine.open_search(
            engine.initial_class(),
            strict=config.priority_mode == "strict",
            partial_order=config.partial_order,
            policy="earliest",
            seed=0,
            max_states=config.max_states,
            timed=False,
        )
        with pytest.raises(PackedCapError, match="token cap") as driven:
            while driver.run() == SEARCH_POLL:
                pass
        driver.close()
        cls = engine.initial_class()
        with pytest.raises(PackedCapError, match="token cap") as stepped:
            while True:
                cands, _reduced = engine.candidates(
                    cls,
                    config.priority_mode == "strict",
                    config.partial_order,
                )
                cls = engine.try_fire(cls, cands[0][0])
        assert str(driven.value) == str(stepped.value)

    def test_the_spec_has_no_packed_caps(self):
        config = SchedulerConfig(engine="stateclass", max_states=200)
        result, _ = _search(
            _token_overflow_net(), config, False, polled=False
        )
        assert result.exhausted and result.stats.states_visited == 200


class _Spy:
    """Records every native search the DBM engine opens."""

    def __init__(self, monkeypatch):
        self.searches = []
        original = DbmEngine.open_search
        spy = self

        def open_search(engine, *args, **kwargs):
            search = original(engine, *args, **kwargs)
            spy.searches.append(search)
            return search

        monkeypatch.setattr(DbmEngine, "open_search", open_search)


class TestStoppingAndMemory:
    def _long(self):
        return compose(_dense_kind()).compiled()

    def test_max_seconds_stops_at_the_first_poll(self):
        config = SchedulerConfig(engine="stateclass", max_seconds=1e-9)
        result, _ = _search(self._long(), config, True, polled=False)
        assert result.exhausted and not result.feasible
        assert result.stats.states_generated == 1024

    def test_stop_sent_at_the_first_poll_stops_there(self):
        config = SchedulerConfig(engine="stateclass")
        drv, calls = _assert_lockstep(
            self._long(), config, stop=lambda *_counters: True
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
        config = SchedulerConfig(engine="stateclass")
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
        spec_root = StateClassSpecAdapter.root

        def root(adapter):
            freed.append(spy.searches[0]._ptr is None)
            return spec_root(adapter)

        monkeypatch.setattr(StateClassSpecAdapter, "root", root)
        result = PreRuntimeScheduler(
            _token_overflow_net(),
            SchedulerConfig(engine="stateclass", max_states=200),
        ).search()
        assert result.exhausted
        assert freed == [True]

    def test_visited_bytes_follow_the_documented_layout(self, nets):
        """``visited_bytes`` of a refutation, rebuilt from the layout in
        ``docs/scheduling.md``: per class an 8-byte key, a 24-byte
        record, its arena bytes — ``(k+1)²`` int32 bounds, ``k`` int32
        enabled entries and the uint16 marking, padded to 8 bytes — and
        the table slots, each array at its doubled capacity."""
        net = nets["race-n5-w12"]
        config = SchedulerConfig(engine="stateclass")
        result, _ = _search(net, config, True, polled=False)
        assert not result.feasible and not result.exhausted

        # the visited classes: the spec's graph as the search expands it
        adapter = StateClassSpecAdapter(net, config)
        stats = SearchStats()
        root = adapter.root()
        seen, stack = {root}, [root]
        while stack:
            cls = stack.pop()
            for t, q in adapter.candidates_of(cls, stats):
                child = adapter.successor(cls, t, q)
                if child is None or child in seen:
                    continue
                if net.has_missed_deadline(child.marking):
                    continue
                seen.add(child)
                stack.append(child)
        n = len(seen)
        assert result.stats.states_visited == n

        def capacity(start, need):
            while start < need:
                start *= 2
            return start

        arena = sum(
            -(-((k + 1) ** 2 * 4 + k * 4 + net.num_places * 2) // 8) * 8
            for k in (len(cls.enabled) for cls in seen)
        )
        records = capacity(64, n)
        expected = (
            (8 + 24) * records
            + 4 * capacity(1024, 2 * n)
            + capacity(64, arena)
        )
        assert result.metrics["gauges"]["search.visited_bytes"] == expected

    def test_tracemalloc_sees_the_visited_classes(self):
        net = self._long()
        config = SchedulerConfig(engine="stateclass", max_states=8_000)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            result = PreRuntimeScheduler(net, config).search()
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.exhausted
        gauges = result.metrics["gauges"]
        visited_bytes = gauges["search.visited_bytes"]
        # every class holds at least its marking and the 1x1 matrix
        assert visited_bytes > 8_000 * (2 * net.num_places + 8)
        assert peak - before >= visited_bytes
        # the arena, records and table are gone once the search returns
        assert after - before < visited_bytes / 4
        assert gauges["search.bytes_per_state"] == pytest.approx(
            visited_bytes / result.stats.states_visited
        )

    @glibc_only
    def test_repeated_searches_reuse_the_freed_memory(self):
        assert_warm_repeats(
            self._long(),
            SchedulerConfig(engine="stateclass", max_states=8_000),
        )
