"""Tests for place invariants and their cross-check on explored graphs."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tpn import (
    TimeInterval,
    TimePetriNet,
    check_invariants_on_graph,
    explore,
    incidence_matrix,
    invariant_value,
    place_invariants,
)


class TestIncidence:
    def test_matrix(self, simple_net):
        matrix = incidence_matrix(simple_net)
        names = simple_net.place_names
        t = simple_net.transition_names.index("t_start")
        assert matrix[names.index("p0")][t] == -1
        assert matrix[names.index("p1")][t] == 1
        assert matrix[names.index("done")][t] == 0

    def test_self_loop_cancels(self):
        net = TimePetriNet("loop")
        net.add_place("p", marking=1)
        net.add_transition("t")
        net.add_arc("p", "t")
        net.add_arc("t", "p")
        assert incidence_matrix(net) == [[0]]


class TestPlaceInvariants:
    def test_resource_invariant(self, simple_net):
        invariants = place_invariants(simple_net)
        # proc + p1 is constant (the resource cycles through p1)
        assert any(
            inv == {"proc": 1, "p1": 1} for inv in invariants
        ) or any(
            set(inv) == {"proc", "p1"} for inv in invariants
        )

    def test_invariant_values_constant(self, simple_net):
        compiled = simple_net.compile()
        graph = explore(compiled, earliest_only=False)
        assert check_invariants_on_graph(simple_net, graph) == []

    def test_invariant_value_helper(self):
        assert invariant_value({"a": 2, "b": -1}, {"a": 3}) == 6
        assert invariant_value({"a": 1}, {}) == 0

    def test_composed_model_invariants_hold(self, fig3_model):
        graph = explore(
            fig3_model.net.compile(), max_states=400, earliest_only=True
        )
        assert check_invariants_on_graph(fig3_model.net, graph) == []

    def test_processor_invariant_in_composed_net(self, fig8_model):
        invariants = place_invariants(fig8_model.net)
        proc_invariants = [
            inv for inv in invariants if "pproc_proc0" in inv
        ]
        assert proc_invariants  # the processor is conserved somewhere


@st.composite
def random_nets(draw):
    """Small random connected nets for invariant cross-validation."""
    n_places = draw(st.integers(min_value=2, max_value=5))
    n_transitions = draw(st.integers(min_value=1, max_value=4))
    net = TimePetriNet("random")
    for i in range(n_places):
        net.add_place(f"p{i}", marking=draw(st.integers(0, 2)))
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
            net.add_arc(f"p{p}", f"t{j}", draw(st.integers(1, 2)))
        for p in outputs:
            net.add_arc(f"t{j}", f"p{p}", draw(st.integers(1, 2)))
    return net


class TestInvariantProperties:
    @given(random_nets())
    @settings(max_examples=40, deadline=None)
    def test_invariants_constant_over_reachable_states(self, net):
        """P-invariants from linear algebra must be constant along any
        behaviour generated by the firing rule — cross-validates the
        two independently implemented pieces."""
        graph = explore(net.compile(), max_states=80)
        assert check_invariants_on_graph(net, graph) == []

    @given(random_nets())
    @settings(max_examples=40, deadline=None)
    def test_markings_stay_non_negative(self, net):
        graph = explore(net.compile(), max_states=80)
        for state in graph.states:
            assert all(tokens >= 0 for tokens in state.marking)
