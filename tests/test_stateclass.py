"""Tests for the Berthomieu–Diaz state-class graph.

The key check is the cross-validation with the discrete-time engine:
for TPNs with integer bounds, integer firing times suffice for marking
reachability, so the dense-time class graph and the exhaustive
discrete exploration must see exactly the same markings.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocks import compose
from repro.errors import SchedulingError
from repro.spec import paper_examples
from repro.tpn import (
    StateClassEngine,
    TimeInterval,
    TimePetriNet,
    build_state_class_graph,
    explore,
)
from repro.tpn.interval import INF
from repro.tpn.stateclass import _sequence_constraints
from repro.workloads import random_task_set, random_task_set_with_relations


class TestInitialClass:
    def test_bounds_are_static_intervals(self, simple_net):
        engine = StateClassEngine(simple_net.compile())
        initial = engine.initial_class()
        assert initial.marking == (1, 1, 0, 0)
        assert initial.enabled == (0,)
        assert initial.bounds_of(0) == (2, 4)

    def test_bounds_of_disabled_raises(self, simple_net):
        engine = StateClassEngine(simple_net.compile())
        initial = engine.initial_class()
        with pytest.raises(SchedulingError):
            initial.bounds_of(1)


class TestFiring:
    def test_fire_updates_marking_and_bounds(self, simple_net):
        compiled = simple_net.compile()
        engine = StateClassEngine(compiled)
        after = engine.fire(engine.initial_class(), 0)
        assert after.marking == (0, 0, 1, 0)
        assert after.bounds_of(1) == (3, 3)

    def test_window_rule_blocks_slow_conflict(self):
        """In a class where DUB(fast) < DLB(slow), slow is unfirable."""
        net = TimePetriNet("w")
        net.add_place("p", marking=1)
        net.add_place("q", marking=1)
        net.add_place("r")
        net.add_transition("slow", TimeInterval(9, 20))
        net.add_transition("fast", TimeInterval(0, 3))
        net.add_arc("p", "slow")
        net.add_arc("slow", "r")
        net.add_arc("q", "fast")
        net.add_arc("fast", "r")
        engine = StateClassEngine(net.compile())
        initial = engine.initial_class()
        firable = {
            net.compile().transition_names[t]
            for t in engine.firable(initial)
        }
        assert firable == {"fast"}

    def test_unfirable_raises(self, simple_net):
        engine = StateClassEngine(simple_net.compile())
        with pytest.raises(SchedulingError):
            engine.fire(engine.initial_class(), 1)

    def test_persistent_bounds_shift(self):
        """After `fast` fires at θ∈[1,2], `slow` keeps θ'=θ−θ_fast."""
        net = TimePetriNet("persist")
        net.add_place("p", marking=1)
        net.add_place("q", marking=1)
        net.add_place("r")
        net.add_place("s")
        net.add_transition("fast", TimeInterval(1, 2))
        net.add_transition("slow", TimeInterval(5, 9))
        net.add_arc("p", "fast")
        net.add_arc("fast", "r")
        net.add_arc("q", "slow")
        net.add_arc("slow", "s")
        compiled = net.compile()
        engine = StateClassEngine(compiled)
        fast = compiled.transition_index["fast"]
        slow = compiled.transition_index["slow"]
        after = engine.fire(engine.initial_class(), fast)
        lower, upper = after.bounds_of(slow)
        assert (lower, upper) == (3, 8)  # [5−2, 9−1]


class TestGraph:
    def test_simple_net_graph(self, simple_net):
        graph = build_state_class_graph(simple_net.compile())
        assert graph.num_classes == 3
        assert graph.complete

    def test_truncation_flag(self, mine_pump_model):
        graph = build_state_class_graph(
            mine_pump_model.net.compile(), max_classes=20
        )
        assert not graph.complete
        assert graph.num_classes == 20

    def test_markings_match_discrete_engine(
        self, simple_net, conflict_net
    ):
        for net in (simple_net, conflict_net):
            compiled = net.compile()
            dense = build_state_class_graph(compiled).markings()
            discrete = explore(
                compiled, earliest_only=False, priority_filter=False
            ).markings()
            assert dense == discrete

    def test_composed_model_markings_match(self):
        """Dense vs discrete agreement on a real composed task net."""
        from repro.blocks import compose
        from repro.spec import SpecBuilder

        spec = (
            SpecBuilder("scg")
            .task("A", computation=1, deadline=4, period=8)
            .task("B", computation=2, deadline=8, period=8)
            .build()
        )
        compiled = compose(spec).net.compile()
        dense = build_state_class_graph(
            compiled, max_classes=5000
        )
        discrete = explore(
            compiled,
            max_states=20000,
            earliest_only=False,
            priority_filter=False,
        )
        assert dense.complete and discrete.complete
        assert dense.markings() == discrete.markings()


@st.composite
def small_nets(draw):
    n_places = draw(st.integers(min_value=2, max_value=4))
    n_transitions = draw(st.integers(min_value=1, max_value=3))
    net = TimePetriNet("h")
    for i in range(n_places):
        net.add_place(f"p{i}", marking=draw(st.integers(0, 1)))
    for j in range(n_transitions):
        eft = draw(st.integers(0, 3))
        net.add_transition(
            f"t{j}", TimeInterval(eft, eft + draw(st.integers(0, 3)))
        )
        inputs = draw(
            st.lists(
                st.integers(0, n_places - 1),
                min_size=1,
                max_size=2,
                unique=True,
            )
        )
        outputs = draw(
            st.lists(
                st.integers(0, n_places - 1),
                min_size=0,
                max_size=2,
                unique=True,
            )
        )
        for p in inputs:
            net.add_arc(f"p{p}", f"t{j}")
        for p in outputs:
            net.add_arc(f"t{j}", f"p{p}")
    return net


class TestCrossValidationProperty:
    @given(small_nets())
    @settings(max_examples=40, deadline=None)
    def test_dense_and_discrete_markings_agree(self, net):
        compiled = net.compile()
        dense = build_state_class_graph(compiled, max_classes=300)
        discrete = explore(
            compiled,
            max_states=2000,
            earliest_only=False,
            priority_filter=False,
        )
        if dense.complete and discrete.complete:
            assert dense.markings() == discrete.markings()

    @given(small_nets())
    @settings(max_examples=30, deadline=None)
    def test_class_bounds_contain_discrete_delays(self, net):
        """Every discrete firing delay lies inside the class bounds."""
        compiled = net.compile()
        from repro.tpn import StateEngine

        dense_engine = StateClassEngine(compiled)
        discrete_engine = StateEngine(compiled)
        initial = dense_engine.initial_class()
        firable = set(dense_engine.firable(initial))
        for cand in discrete_engine.fireable(
            discrete_engine.initial_state(), priority_filter=False
        ):
            if cand.transition in firable:
                lower, upper = initial.bounds_of(cand.transition)
                assert lower <= cand.dlb


def _full_scan_constraints(net, sequence, reset_policy):
    """The original ``_sequence_constraints``: after every firing it
    re-checks every open episode and rescans all of T for new ones.
    Kept verbatim as the oracle of the ``affected``-only version."""
    pre = net.pre
    eft = net.eft
    lft = net.lft
    num_transitions = net.num_transitions
    intermediate_policy = reset_policy == "intermediate"

    def enabled_in(marking, t):
        for place, weight in pre[t]:
            if marking[place] < weight:
                return False
        return True

    marking = list(net.m0)
    enabled_since = {
        t: 0 for t in range(num_transitions) if enabled_in(marking, t)
    }
    lower_at = [(0, 0)]
    uppers = []

    for step, fired in enumerate(sequence, start=1):
        if fired not in enabled_since:
            raise SchedulingError(
                f"sequence fires disabled transition "
                f"{net.transition_names[fired]!r} at step {step}"
            )
        lower_at.append((enabled_since[fired], eft[fired]))

        if intermediate_policy:
            intermediate = list(marking)
            for place, weight in pre[fired]:
                intermediate[place] -= weight
        for place, delta in net.delta[fired]:
            marking[place] += delta

        survivors = {}
        for u, since in enabled_since.items():
            persists = (
                u != fired
                and enabled_in(marking, u)
                and (
                    not intermediate_policy
                    or enabled_in(intermediate, u)
                )
            )
            if persists:
                survivors[u] = since
            else:
                if lft[u] != INF:
                    uppers.append((step, since, int(lft[u])))
        enabled_since = survivors
        for u in range(num_transitions):
            if u not in enabled_since and enabled_in(marking, u):
                enabled_since[u] = step

    n = len(sequence)
    for u, since in enabled_since.items():
        if since < n and lft[u] != INF:
            uppers.append((n, since, int(lft[u])))
    return lower_at, uppers


def _self_loop_net():
    """``tick`` self-loops on ``p``, which ``job`` also reads: under
    the intermediate reset policy every ``tick`` ends ``job``'s
    episode."""
    net = TimePetriNet("self-loop")
    net.add_place("p", marking=1)
    net.add_place("q", marking=1)
    net.add_place("done")
    net.add_transition("tick", TimeInterval(1, 3))
    net.add_arc("p", "tick")
    net.add_arc("tick", "p")
    net.add_transition("job", TimeInterval(0, 4))
    net.add_arc("p", "job")
    net.add_arc("q", "job")
    net.add_arc("job", "done")
    net.add_arc("job", "p")
    net.add_arc("job", "q")
    return net.compile()


def _constraint_nets():
    nets = {
        name: compose(spec).compiled()
        for name, spec in paper_examples().items()
    }
    nets["self-loop"] = _self_loop_net()
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
    return nets


def _class_path(net, reset_policy, seed, length=400):
    """A seeded random walk through the state-class graph."""
    rng = random.Random(seed)
    engine = StateClassEngine(net, reset_policy=reset_policy)
    cls = engine.initial_class()
    path = []
    for _ in range(length):
        firable = engine.firable(cls)
        if not firable:
            break
        t = rng.choice(firable)
        cls = engine.fire(cls, t)
        path.append(t)
    return path


class TestSequenceConstraints:
    """``_sequence_constraints`` re-checks only ``affected[fired]`` and
    emits exactly what the full scan emits, in the same order."""

    @pytest.mark.parametrize("reset_policy", ["paper", "intermediate"])
    def test_matches_the_full_scan_on_class_paths(self, reset_policy):
        walked = 0
        for name, net in sorted(_constraint_nets().items()):
            for seed in range(3):
                path = _class_path(net, reset_policy, seed)
                walked += len(path)
                assert _sequence_constraints(
                    net, path, reset_policy
                ) == _full_scan_constraints(net, path, reset_policy), (
                    name,
                    seed,
                )
        assert walked > 3_000

    @pytest.mark.parametrize("reset_policy", ["paper", "intermediate"])
    def test_disabled_firing_raises_the_same_error(self, reset_policy):
        net = compose(paper_examples()["fig4"]).compiled()
        path = _class_path(net, reset_policy, seed=0, length=12)
        engine = StateClassEngine(net, reset_policy=reset_policy)
        cls = engine.initial_class()
        for t in path:
            cls = engine.fire(cls, t)
        disabled = next(
            t for t in range(net.num_transitions) if t not in cls.enabled
        )
        bad = path + [disabled]
        errors = []
        for build in (_sequence_constraints, _full_scan_constraints):
            with pytest.raises(SchedulingError, match="disabled") as info:
                build(net, bad, reset_policy)
            errors.append(str(info.value))
        assert errors[0] == errors[1]
