"""The native finish of a dense search: concretisation and reference replay.

A feasible state-class search ends in two steps after the search:
the class path is concretised to integer firing times and the
resulting schedule is replayed through Definition 3.1.  With the
native core live both run in C — ``dc_realize``
(:meth:`repro.tpn.dbm.DbmEngine.realize`) and ``ez_replay``
(:func:`repro.tpn._native.replay`) — and the Python code stays their
executable spec.  This suite pins them together:

* **concretisation** — ``dc_realize`` returns exactly the earliest
  dates, latest dates (``INF`` included) and schedule of
  :func:`~repro.tpn.stateclass.realize_firing_sequence` on seeded
  class-graph walks and feasible paths of the paper models, the
  wide-interval race nets and seeded random task sets, under both
  reset policies, and on the perfbench ``dense`` kind's 1,987-firing
  path; a disabled-transition sequence and an inconsistent one raise
  the spec's exact error;
* **replay** — ``ez_replay`` accepts and rejects exactly what the
  Python replay does on seeded mutations of kernel and state-class
  schedules, and :func:`validate_with_reference` raises the spec's
  message either way; a native false rejection raises the
  disagreement error rather than passing.

Native-only cases skip when the core is not live (``EZRT_PURE=1``).
"""

from __future__ import annotations

import random

import pytest

from repro.blocks import compose
from repro.errors import SchedulingError
from repro.scheduler import PreRuntimeScheduler, SchedulerConfig
from repro.scheduler import core as scheduler_core
from repro.scheduler.core import (
    _replay_with_reference,
    validate_with_reference,
)
from repro.spec import paper_examples
from repro.tpn import _native
from repro.tpn.dbm import DbmEngine
from repro.tpn.interval import INF, TimeInterval
from repro.tpn.net import TimePetriNet
from repro.tpn.stateclass import (
    StateClassEngine,
    _greatest_times,
    _least_times,
    _sequence_constraints,
    realize_firing_sequence,
)
from repro.workloads import (
    random_task_set,
    random_task_set_with_relations,
    wide_interval_race_net,
)

native_only = pytest.mark.skipif(
    _native.CORE.load() is None,
    reason="the native core is not live (EZRT_PURE=1 or no compiler)",
)

RESETS = ("paper", "intermediate")


def _self_loop_net():
    """``tick`` self-loops on ``p``; ``job`` needs ``p`` for two time
    units, so the reset policies disagree on ``job``'s episodes."""
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


def _inputs():
    nets = {
        name: compose(spec).compiled()
        for name, spec in paper_examples().items()
    }
    for seed in (0, 1, 2):
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
    nets["self-loop"] = _self_loop_net()
    return nets


def _dense_kind():
    """perfbench's ``search-large`` dense kind (a 1,987-firing path)."""
    return compose(
        random_task_set(
            6, 0.85, seed=3, preemptive_fraction=1.0, deadline_slack=0.7
        )
    ).compiled()


@pytest.fixture(scope="module")
def nets():
    return _inputs()


def _walks(net, reset, seed, count=4, length=60):
    """Seeded random walks over the class graph (stepped on the tuple
    spec): every prefix of one is a genuine class path."""
    engine = StateClassEngine(net, reset_policy=reset)
    rng = random.Random(seed)
    walks = []
    for _ in range(count):
        cls = engine.initial_class()
        walk: list[int] = []
        for _ in range(length):
            firable = engine.firable(cls)
            if not firable:
                break
            t = rng.choice(firable)
            cls = engine.fire(cls, t)
            walk.append(t)
        walks.append(walk)
    return walks


def _feasible_path(net, reset, engine="stateclass"):
    result = PreRuntimeScheduler(
        net, SchedulerConfig(engine=engine, reset_policy=reset)
    ).search()
    if not result.feasible:
        return None, None
    index = net.transition_index
    return [index[n] for n, _d, _a in result.firing_schedule], result


def _spec_dates(net, sequence, reset):
    lower_at, uppers = _sequence_constraints(net, sequence, reset)
    n = len(sequence)
    return (
        _least_times(n, lower_at, uppers),
        _greatest_times(n, lower_at, uppers),
    )


def _assert_realize_matches(net, sequence, reset):
    engine = DbmEngine(net, reset_policy=reset)
    dates = engine.core.realize(
        net.m0, sequence, 1 if reset == "intermediate" else 0
    )
    assert dates == _spec_dates(net, sequence, reset)
    assert engine.realize(sequence) == realize_firing_sequence(
        net, sequence, reset
    )
    return dates


@native_only
class TestConcretisation:
    @pytest.mark.parametrize("reset", RESETS)
    def test_class_graph_walks(self, nets, reset):
        for seed, (name, net) in enumerate(sorted(nets.items())):
            for walk in _walks(net, reset, seed):
                for cut in sorted({0, 1, len(walk) // 2, len(walk)}):
                    _assert_realize_matches(net, walk[:cut], reset)

    @pytest.mark.parametrize("reset", RESETS)
    def test_feasible_paths(self, nets, reset):
        found = 0
        for net in nets.values():
            sequence, _result = _feasible_path(net, reset)
            if sequence is not None:
                _assert_realize_matches(net, sequence, reset)
                found += 1
        assert found >= 5

    def test_unforced_firing_has_an_infinite_window(self):
        net = TimePetriNet("unforced")
        net.add_place("p", marking=1)
        net.add_place("q")
        net.add_transition("t", TimeInterval.unbounded(2))
        net.add_arc("p", "t")
        net.add_arc("t", "q")
        compiled = net.compile()
        earliest, latest = _assert_realize_matches(compiled, [0], "paper")
        assert earliest == [0, 2]
        assert latest == [0, INF]

    @pytest.mark.parametrize("reset", RESETS)
    def test_the_dense_kind_path(self, reset):
        net = _dense_kind()
        sequence, result = _feasible_path(net, reset)
        if reset == "paper":
            assert len(sequence) == 1_987
        _assert_realize_matches(net, sequence, reset)
        realized = DbmEngine(net, reset_policy=reset).realize(sequence)
        assert realized.schedule == result.firing_schedule
        assert realized.windows == result.interval_schedule

    def _same_error(self, net, sequence, reset="paper"):
        engine = DbmEngine(net, reset_policy=reset)
        assert engine.core.realize(net.m0, sequence, 0) is None
        with pytest.raises(SchedulingError) as spec:
            realize_firing_sequence(net, sequence, reset)
        with pytest.raises(SchedulingError) as native:
            engine.realize(sequence)
        assert str(native.value) == str(spec.value)
        return str(spec.value)

    def test_disabled_transition_raises_the_spec_error(self, nets):
        net = nets["fig3"]
        engine = StateClassEngine(net)
        root = engine.initial_class()
        disabled = next(
            t for t in range(net.num_transitions) if t not in root.enabled
        )
        message = self._same_error(net, [disabled])
        assert "disabled transition" in message
        # and after a legal prefix
        walk = _walks(net, "paper", 7, count=1, length=5)[0]
        cls = root
        for t in walk:
            cls = engine.fire(cls, t)
        stuck = next(
            t for t in range(net.num_transitions) if t not in cls.enabled
        )
        assert "disabled transition" in self._same_error(
            net, walk + [stuck]
        )

    def test_inconsistent_sequence_raises_the_spec_error(self):
        """``fast`` must fire by 2, yet ``slow`` (EFT 5) fires first
        while ``fast`` stays armed: no integer timing exists."""
        net = TimePetriNet("inconsistent")
        net.add_place("a", marking=1)
        net.add_place("b", marking=1)
        net.add_place("done")
        net.add_transition("fast", TimeInterval(0, 2))
        net.add_transition("slow", TimeInterval(5, 5))
        net.add_arc("a", "fast")
        net.add_arc("fast", "done")
        net.add_arc("b", "slow")
        net.add_arc("slow", "done")
        compiled = net.compile()
        slow = compiled.transition_index["slow"]
        message = self._same_error(compiled, [slow])
        assert "no integer timing" in message


# ----------------------------------------------------------------------
# The reference replay
# ----------------------------------------------------------------------
def _schedules(nets):
    """``(net, reset, schedule)`` of kernel and state-class wins."""
    out = []
    for name in ("fig3", "fig4", "fig8", "rand-s0", "rel-s1", "self-loop"):
        net = nets[name]
        for reset in RESETS:
            for engine in ("kernel", "stateclass"):
                _seq, result = _feasible_path(net, reset, engine)
                if result is not None:
                    out.append((net, reset, result.firing_schedule))
    return out


def _retime(entries):
    """Recompute absolute times from the delays."""
    now = 0
    out = []
    for name, delay, _at in entries:
        now += delay
        out.append((name, delay, now))
    return out


def _mutations(schedule, rng):
    """Seeded corruptions of a schedule, one of each kind."""
    n = len(schedule)
    i = rng.randrange(n)
    sign = rng.choice((-1, 1))
    shifted = list(schedule)
    name, delay, at = shifted[i]
    shifted[i] = (name, delay + sign, at + sign)
    for j in range(i + 1, n):
        nm, d, a = shifted[j]
        shifted[j] = (nm, d, a + sign)
    stamped = list(schedule)
    name, delay, at = stamped[i]
    stamped[i] = (name, delay, at + sign)
    swapped = list(schedule)
    if n > 1:
        k = rng.randrange(n - 1)
        swapped[k], swapped[k + 1] = swapped[k + 1], swapped[k]
        swapped = _retime(swapped)
    unknown = list(schedule)
    name, delay, at = unknown[i]
    unknown[i] = ("no_such_transition", delay, at)
    return {
        "delay": shifted,
        "timestamp": stamped,
        "swap": swapped,
        "truncate": schedule[: rng.randrange(n)],
        "unknown": unknown,
    }


def _spec_verdict(net, reset, schedule):
    """``None`` when the Python replay accepts, else its message."""
    try:
        _replay_with_reference(
            net, SchedulerConfig(reset_policy=reset), schedule
        )
    except SchedulingError as err:
        return str(err)
    return None


@native_only
class TestReplay:
    def test_accepts_every_win(self, nets):
        schedules = _schedules(nets)
        assert len(schedules) >= 12
        for net, reset, schedule in schedules:
            assert _native.replay(net, reset == "intermediate", schedule)

    def test_mutations_agree_with_the_spec(self, nets):
        rng = random.Random(2024)
        seen = {"accept": 0, "reject": 0}
        for net, _won_under, schedule in _schedules(nets):
            for _round in range(6):
                mutations = _mutations(schedule, rng)
                mutations["none"] = schedule
                for kind, mutated in mutations.items():
                    # each replayed under both policies: a win under
                    # one can be illegal under the other
                    for reset in RESETS:
                        self._agree(net, reset, mutated, kind, seen)
        assert seen["accept"] > 100 and seen["reject"] > 300

    @staticmethod
    def _agree(net, reset, schedule, kind, seen):
        config = SchedulerConfig(reset_policy=reset)
        expected = _spec_verdict(net, reset, schedule)
        verdict = _native.replay(net, reset == "intermediate", schedule)
        assert verdict == (expected is None), (kind, reset)
        seen["accept" if verdict else "reject"] += 1
        if expected is None:
            validate_with_reference(net, config, schedule)
            return
        with pytest.raises(SchedulingError) as info:
            validate_with_reference(net, config, schedule)
        assert str(info.value) == expected

    def test_the_reset_policies_differ(self, nets):
        """The self-loop net's win under the paper policy fires
        ``job`` below its DLB under the intermediate one, where every
        ``tick`` restarts ``job``'s clock."""
        net = nets["self-loop"]
        _seq, result = _feasible_path(net, "paper")
        schedule = result.firing_schedule
        assert _native.replay(net, False, schedule)
        assert _native.replay(net, True, schedule) is False
        assert "below DLB('job')" in _spec_verdict(
            net, "intermediate", schedule
        )

    def test_the_dense_kind_schedule(self):
        net = _dense_kind()
        result = PreRuntimeScheduler(
            net, SchedulerConfig(engine="stateclass")
        ).search()
        schedule = result.firing_schedule
        assert _native.replay(net, False, schedule)
        rng = random.Random(5)
        for kind, mutated in _mutations(schedule, rng).items():
            expected = _spec_verdict(net, "paper", mutated)
            assert _native.replay(net, False, mutated) == (
                expected is None
            ), kind

    def test_native_replay_runs_in_production(self, nets, monkeypatch):
        net = nets["fig8"]
        _seq, result = _feasible_path(net, "paper", "stateclass")

        def spec_must_not_run(*_args):
            raise AssertionError("the Python replay ran")

        monkeypatch.setattr(
            scheduler_core, "_replay_with_reference", spec_must_not_run
        )
        validate_with_reference(
            net, SchedulerConfig(), result.firing_schedule
        )

    def test_the_dense_finish_replays_on_the_search_net(
        self, nets, monkeypatch
    ):
        """A dense search packs its net once: the replay runs on the
        engine's own :class:`NativeNet`, and its verdict is the one a
        freshly packed net gives."""
        net = nets["fig8"]
        scheduler = PreRuntimeScheduler(
            net, SchedulerConfig(engine="stateclass")
        )
        calls = []
        replay = scheduler_core.native_replay

        def recording(*args):
            verdict = replay(*args)
            calls.append((args[3], verdict))
            return verdict

        monkeypatch.setattr(scheduler_core, "native_replay", recording)
        packs = []
        init = _native.NativeNet.__init__

        def counting_init(native, *args):
            packs.append(args)
            init(native, *args)

        monkeypatch.setattr(_native.NativeNet, "__init__", counting_init)
        result = scheduler.search()
        assert result.feasible
        assert calls == [(scheduler.adapter.engine.core, True)]
        # the engine packs its own net with the root, and only that
        assert len(packs) == 1
        assert replay(net, False, result.firing_schedule) is True

    def test_a_false_rejection_is_a_disagreement(self, nets, monkeypatch):
        net = nets["fig8"]
        _seq, result = _feasible_path(net, "paper", "kernel")
        monkeypatch.setattr(
            scheduler_core, "native_replay", lambda *_args: False
        )
        with pytest.raises(SchedulingError, match="disagree"):
            validate_with_reference(
                net, SchedulerConfig(), result.firing_schedule
            )

    def test_a_false_rejection_fails_a_dense_search(self, monkeypatch):
        net = _self_loop_net()
        monkeypatch.setattr(
            scheduler_core, "native_replay", lambda *_args: False
        )
        with pytest.raises(SchedulingError, match="disagree"):
            PreRuntimeScheduler(
                net, SchedulerConfig(engine="stateclass")
            ).search()

    def test_out_of_range_defers_to_the_spec(self):
        """A delay beyond the replay's time range is not judged in C."""
        net = TimePetriNet("unbounded")
        net.add_place("p", marking=1)
        net.add_place("done")
        net.add_transition("t", TimeInterval.unbounded(0))
        net.add_arc("p", "t")
        net.add_arc("t", "done")
        net.set_final_marking({"done": 1})
        compiled = net.compile()
        for late in ((1 << 62) + 1, 1 << 70):
            schedule = [("t", late, late)]
            assert _native.replay(compiled, False, schedule) is None
            validate_with_reference(compiled, SchedulerConfig(), schedule)
        assert _native.replay(compiled, False, [("t", 3, 3)])
