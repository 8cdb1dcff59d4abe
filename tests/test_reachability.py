"""Tests for the bounded state-space explorer."""

import pytest

from repro.errors import SchedulingError
from repro.tpn import TimeInterval, TimePetriNet, explore


class TestExplore:
    def test_simple_net_space(self, simple_net):
        graph = explore(simple_net.compile(), earliest_only=False)
        # all delays collapse: s0, after t_start, after t_end
        assert graph.num_states == 3
        assert graph.complete
        assert len(graph.deadlocks) == 1

    def test_deadlock_is_final(self, simple_net):
        compiled = simple_net.compile()
        graph = explore(compiled, earliest_only=False)
        dead = graph.states[graph.deadlocks[0]]
        assert compiled.is_final(dead.marking)

    def test_conflict_space(self, conflict_net):
        graph = explore(conflict_net.compile(), earliest_only=False)
        markings = graph.markings()
        assert (0, 1, 0) in markings  # chose t_a
        assert (0, 0, 1) in markings  # chose t_b

    def test_max_states_truncation(self, conflict_net):
        graph = explore(
            conflict_net.compile(), max_states=1, earliest_only=False
        )
        assert not graph.complete
        assert graph.num_states == 1

    def test_bfs_dfs_same_state_set(self, conflict_net):
        compiled = conflict_net.compile()
        bfs = explore(compiled, strategy="bfs", earliest_only=False)
        dfs = explore(compiled, strategy="dfs", earliest_only=False)
        assert bfs.markings() == dfs.markings()

    def test_unknown_strategy(self, conflict_net):
        with pytest.raises(SchedulingError):
            explore(conflict_net.compile(), strategy="astar")

    def test_unbounded_domain_flagged_incomplete(self):
        net = TimePetriNet("u")
        net.add_place("p", marking=1)
        net.add_place("q")
        net.add_transition("t", TimeInterval.unbounded(0))
        net.add_arc("p", "t")
        net.add_arc("t", "q")
        graph = explore(net.compile(), earliest_only=False)
        assert not graph.complete  # couldn't enumerate all delays

    def test_clock_differences_distinguish_states(self):
        """Two paths reaching the same marking with different clocks
        are distinct states (timed semantics, not just markings)."""
        net = TimePetriNet("clocked")
        net.add_place("p", marking=1)
        net.add_place("q", marking=1)
        net.add_place("r")
        net.add_place("s")
        net.add_transition("fast", TimeInterval(1, 2))
        net.add_transition("slow", TimeInterval(5, 8))
        net.add_arc("p", "fast")
        net.add_arc("fast", "r")
        net.add_arc("q", "slow")
        net.add_arc("slow", "s")
        graph = explore(net.compile(), earliest_only=False)
        markings = [state.marking for state in graph.states]
        # marking after firing `fast` occurs with clock(slow)=1 and 2
        target = markings.count((0, 1, 1, 0))
        assert target == 2

    def test_edge_count(self, simple_net):
        graph = explore(simple_net.compile(), earliest_only=False)
        # 3 delays for t_start + 1 for t_end
        assert graph.num_edges == 4

    def test_max_tokens(self):
        net = TimePetriNet("grow")
        net.add_place("budget", marking=3)
        net.add_place("sink")
        net.add_transition("t", TimeInterval.point(1))
        net.add_arc("budget", "t")
        net.add_arc("t", "sink", 2)
        graph = explore(net.compile())
        assert graph.max_tokens() == 6
