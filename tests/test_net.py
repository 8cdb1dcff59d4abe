"""Unit tests for time Petri net construction and queries."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NetConstructionError
from repro.tpn import TimeInterval, TimePetriNet, net_union


class TestConstruction:
    def test_add_nodes(self):
        net = TimePetriNet("n")
        net.add_place("p", marking=2)
        net.add_transition("t", TimeInterval(1, 2))
        assert net.place("p").marking == 2
        assert net.transition("t").interval == TimeInterval(1, 2)

    def test_default_interval_is_zero(self):
        net = TimePetriNet("n")
        net.add_transition("t")
        assert net.transition("t").interval.is_immediate

    def test_duplicate_names_rejected(self):
        net = TimePetriNet("n")
        net.add_place("x")
        with pytest.raises(NetConstructionError):
            net.add_place("x")
        with pytest.raises(NetConstructionError):
            net.add_transition("x")

    def test_empty_name_rejected(self):
        net = TimePetriNet("n")
        with pytest.raises(NetConstructionError):
            net.add_place("")

    def test_negative_marking_rejected(self):
        net = TimePetriNet("n")
        with pytest.raises(NetConstructionError):
            net.add_place("p", marking=-1)

    def test_label_defaults_to_name(self):
        net = TimePetriNet("n")
        assert net.add_place("p").label == "p"

    def test_contains(self):
        net = TimePetriNet("n")
        net.add_place("p")
        net.add_transition("t")
        assert "p" in net and "t" in net and "q" not in net

    def test_unknown_lookup_raises(self):
        net = TimePetriNet("n")
        with pytest.raises(NetConstructionError):
            net.place("nope")
        with pytest.raises(NetConstructionError):
            net.transition("nope")


class TestArcs:
    def test_directions(self):
        net = TimePetriNet("n")
        net.add_place("p")
        net.add_transition("t")
        net.add_arc("p", "t", 2)
        net.add_arc("t", "p", 3)
        assert net.input_weight("p", "t") == 2
        assert net.output_weight("t", "p") == 3

    def test_weight_accumulates(self):
        net = TimePetriNet("n")
        net.add_place("p")
        net.add_transition("t")
        net.add_arc("p", "t")
        net.add_arc("p", "t", 2)
        assert net.input_weight("p", "t") == 3

    def test_place_place_rejected(self):
        net = TimePetriNet("n")
        net.add_place("p")
        net.add_place("q")
        with pytest.raises(NetConstructionError):
            net.add_arc("p", "q")

    def test_transition_transition_rejected(self):
        net = TimePetriNet("n")
        net.add_transition("t")
        net.add_transition("u")
        with pytest.raises(NetConstructionError):
            net.add_arc("t", "u")

    def test_unknown_node_rejected(self):
        net = TimePetriNet("n")
        net.add_place("p")
        with pytest.raises(NetConstructionError):
            net.add_arc("p", "ghost")

    def test_zero_weight_rejected(self):
        net = TimePetriNet("n")
        net.add_place("p")
        net.add_transition("t")
        with pytest.raises(NetConstructionError):
            net.add_arc("p", "t", 0)

    def test_remove_arc(self):
        net = TimePetriNet("n")
        net.add_place("p")
        net.add_transition("t")
        net.add_arc("p", "t")
        net.remove_arc("p", "t")
        assert net.input_weight("p", "t") == 0

    def test_remove_missing_arc_raises(self):
        net = TimePetriNet("n")
        net.add_place("p")
        net.add_transition("t")
        with pytest.raises(NetConstructionError):
            net.remove_arc("p", "t")

    def test_arcs_iteration(self, simple_net):
        arcs = {(a.source, a.target): a.weight for a in simple_net.arcs()}
        assert arcs[("p0", "t_start")] == 1
        assert arcs[("t_end", "proc")] == 1
        assert len(arcs) == 6


class TestPresets:
    def test_preset_postset(self, simple_net):
        assert simple_net.preset("t_start") == {"p0": 1, "proc": 1}
        assert simple_net.postset("t_start") == {"p1": 1}
        assert simple_net.place_preset("proc") == {"t_end": 1}
        assert simple_net.place_postset("proc") == {"t_start": 1}

    def test_roles(self):
        net = TimePetriNet("n")
        net.add_place("dm", role="deadline-miss")
        net.add_place("ok")
        net.add_transition("t", role="grant")
        assert [p.name for p in net.places_with_role("deadline-miss")] == [
            "dm"
        ]
        assert [
            t.name for t in net.transitions_with_role("grant")
        ] == ["t"]


class TestFinalMarking:
    def test_set_and_vector(self, simple_net):
        vector = simple_net.final_marking_vector()
        names = simple_net.place_names
        assert vector[names.index("done")] == 1
        assert vector[names.index("proc")] == 1

    def test_unknown_place_rejected(self, simple_net):
        with pytest.raises(NetConstructionError):
            simple_net.set_final_marking({"ghost": 1})

    def test_negative_rejected(self, simple_net):
        with pytest.raises(NetConstructionError):
            simple_net.set_final_marking({"done": -1})


class TestValidation:
    def test_source_transition_rejected(self):
        net = TimePetriNet("n")
        net.add_place("p")
        net.add_transition("t")
        net.add_arc("t", "p")
        with pytest.raises(NetConstructionError):
            net.validate()

    def test_isolated_places(self):
        net = TimePetriNet("n")
        net.add_place("connected")
        net.add_place("lonely")
        net.add_transition("t")
        net.add_arc("connected", "t")
        assert net.isolated_places() == ("lonely",)

    def test_stats(self, simple_net):
        stats = simple_net.stats()
        assert stats == {
            "places": 4,
            "transitions": 2,
            "arcs": 6,
            "tokens": 2,
        }


class TestCompile:
    def test_roundtrip_structure(self, simple_net):
        compiled = simple_net.compile()
        assert compiled.num_places == 4
        assert compiled.num_transitions == 2
        assert compiled.m0 == (1, 1, 0, 0)
        t = compiled.transition_index["t_start"]
        pre = dict(compiled.pre[t])
        assert pre == {
            compiled.place_index["p0"]: 1,
            compiled.place_index["proc"]: 1,
        }

    def test_delta_is_net_effect(self, simple_net):
        compiled = simple_net.compile()
        t = compiled.transition_index["t_end"]
        delta = dict(compiled.delta[t])
        assert delta[compiled.place_index["p1"]] == -1
        assert delta[compiled.place_index["done"]] == 1
        assert delta[compiled.place_index["proc"]] == 1

    def test_self_loop_has_no_delta_entry(self):
        net = TimePetriNet("loop")
        net.add_place("p", marking=1)
        net.add_place("q")
        net.add_transition("t", TimeInterval(1, 1))
        net.add_arc("p", "t")
        net.add_arc("t", "p")
        net.add_arc("t", "q")
        compiled = net.compile()
        t = compiled.transition_index["t"]
        delta = dict(compiled.delta[t])
        assert compiled.place_index["p"] not in delta
        assert delta[compiled.place_index["q"]] == 1

    def test_is_final(self, simple_net):
        compiled = simple_net.compile()
        assert compiled.is_final((0, 1, 0, 1))
        assert not compiled.is_final((1, 1, 0, 0))

    def test_interval_of(self, simple_net):
        compiled = simple_net.compile()
        index = compiled.transition_index["t_start"]
        assert compiled.interval_of(index) == TimeInterval(2, 4)


class TestUnion:
    def test_disjoint_union(self):
        a = TimePetriNet("a")
        a.add_place("p", marking=1)
        a.add_transition("t")
        a.add_arc("p", "t")
        b = TimePetriNet("b")
        b.add_place("q", marking=2)
        b.add_transition("u", TimeInterval(1, 2))
        b.add_arc("q", "u")
        merged = net_union("ab", [a, b])
        assert set(merged.place_names) == {"p", "q"}
        assert merged.transition("u").interval == TimeInterval(1, 2)
        assert merged.input_weight("q", "u") == 1

    def test_collision_rejected(self):
        a = TimePetriNet("a")
        a.add_place("p")
        b = TimePetriNet("b")
        b.add_place("p")
        with pytest.raises(NetConstructionError):
            net_union("ab", [a, b])

    def test_final_markings_merge(self):
        a = TimePetriNet("a")
        a.add_place("p", marking=1)
        a.add_transition("t")
        a.add_arc("p", "t")
        a.set_final_marking({"p": 0})
        b = TimePetriNet("b")
        b.add_place("q")
        b.add_transition("u")
        b.add_arc("q", "u")
        b.set_final_marking({"q": 1})
        merged = net_union("ab", [a, b])
        assert merged.final_marking == {"p": 0, "q": 1}


@st.composite
def bounded_nets(draw):
    """Random small nets whose transitions always consume something."""
    n_places = draw(st.integers(min_value=2, max_value=5))
    n_transitions = draw(st.integers(min_value=1, max_value=5))
    net = TimePetriNet("eq")
    for i in range(n_places):
        net.add_place(f"p{i}", marking=draw(st.integers(0, 2)))
    for j in range(n_transitions):
        eft = draw(st.integers(0, 3))
        lft = eft + draw(st.integers(0, 3))
        net.add_transition(
            f"t{j}",
            TimeInterval(eft, lft),
            priority=draw(st.integers(0, 2)),
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
            net.add_arc(f"p{p}", f"t{j}", draw(st.integers(1, 2)))
        for p in outputs:
            net.add_arc(f"t{j}", f"p{p}", draw(st.integers(1, 2)))
    return net


class TestCompiledNetAdjacency:
    """The compile-time sparse structure is sound and complete."""

    @given(bounded_nets())
    @settings(max_examples=30, deadline=None)
    def test_affected_covers_enabledness_changes(self, net):
        """If firing t can change tk's enabledness, tk ∈ affected[t]."""
        compiled = net.compile()
        for t in range(compiled.num_transitions):
            touched = {p for p, _d in compiled.delta[t]}
            touched |= compiled.pre_places[t]
            for tk in range(compiled.num_transitions):
                if compiled.pre_places[tk] & touched:
                    assert tk in compiled.affected[t]
            assert t in compiled.affected[t]

    def test_immediate_and_miss_masks(self, simple_net):
        compiled = simple_net.compile()
        for t in range(compiled.num_transitions):
            interval = compiled.interval_of(t)
            assert compiled.immediate[t] == (
                interval.eft == 0 and interval.lft == 0
            )
        assert compiled.miss_transitions == frozenset()

    def test_touch_masks_are_sound(self, simple_net):
        """touches_final[t] false ⇒ firing t never flips is_final."""
        compiled = simple_net.compile()
        constrained = {p for p, _r in compiled.final_constraints}
        for t in range(compiled.num_transitions):
            delta_places = {p for p, _d in compiled.delta[t]}
            if not compiled.touches_final[t]:
                assert not (delta_places & constrained)
