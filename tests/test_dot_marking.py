"""Tests for DOT export of nets and reachability graphs."""

from repro.tpn import (
    TimeInterval,
    TimePetriNet,
    explore,
    net_to_dot,
    reachability_to_dot,
)


class TestNetToDot:
    def test_structure(self, simple_net):
        dot = net_to_dot(simple_net)
        assert dot.startswith('digraph "simple"')
        assert '"p0" [shape=circle' in dot
        assert '"t_start" [shape=box' in dot
        assert '"p0" -> "t_start"' in dot
        assert dot.rstrip().endswith("}")

    def test_interval_in_label(self, simple_net):
        dot = net_to_dot(simple_net)
        assert "[2, 4]" in dot

    def test_weights_labelled(self):
        net = TimePetriNet("w")
        net.add_place("p", marking=5)
        net.add_transition("t", TimeInterval(1, 1))
        net.add_arc("p", "t", 3)
        dot = net_to_dot(net)
        assert '[label="3"]' in dot

    def test_miss_places_highlighted(self, fig8_model):
        dot = net_to_dot(fig8_model.net)
        assert "fillcolor" in dot

    def test_priority_shown(self, fig8_model):
        dot = net_to_dot(fig8_model.net)
        assert "π=" in dot

    def test_escaping(self):
        net = TimePetriNet('has"quote')
        net.add_place("p", marking=1)
        net.add_transition("t")
        net.add_arc("p", "t")
        dot = net_to_dot(net)
        assert '\\"' in dot


class TestReachabilityToDot:
    def test_basic(self, simple_net):
        compiled = simple_net.compile()
        graph = explore(compiled, earliest_only=False)
        dot = reachability_to_dot(compiled, graph)
        assert "s0" in dot and "s1" in dot
        assert "t_start,2" in dot

    def test_final_states_double_circled(self, simple_net):
        compiled = simple_net.compile()
        graph = explore(compiled, earliest_only=False)
        dot = reachability_to_dot(compiled, graph)
        assert "peripheries=2" in dot

    def test_truncation_note(self, mine_pump_model):
        compiled = mine_pump_model.net.compile()
        graph = explore(compiled, max_states=30, earliest_only=True)
        dot = reachability_to_dot(compiled, graph, max_states=10)
        assert "more states" in dot
