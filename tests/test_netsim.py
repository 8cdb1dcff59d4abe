"""Tests for the TLTS net simulator (on the reference engine)."""

import pytest

from repro.errors import SimulationError
from repro.blocks import compose
from repro.sim import NetSimulator, simulate_net
from repro.spec import paper_examples
from repro.tpn import TLTS
from repro.workloads import random_task_set


class TestEarliestWalk:
    def test_simple_net_reaches_final(self, simple_net):
        run = simulate_net(simple_net.compile())
        assert run.reached_final
        assert run.steps == 2
        assert [f[0] for f in run.firings] == ["t_start", "t_end"]
        assert run.makespan == 5  # earliest: 2 + 3

    def test_walk_is_a_legal_tlts_run(self, simple_net):
        compiled = simple_net.compile()
        run = simulate_net(compiled)
        tlts = TLTS(compiled)
        assert tlts.is_feasible_schedule(
            [(name, q) for name, q, _at in run.firings]
        )

    def test_earliest_walk_is_deterministic(self):
        net = compose(paper_examples()["fig3"]).compiled()
        first = simulate_net(net)
        second = simulate_net(net)
        assert first.firings == second.firings

    def test_step_budget_stops_walk(self, simple_net):
        run = simulate_net(simple_net.compile(), max_steps=1)
        assert run.steps == 1
        assert not run.reached_final


class TestRandomWalk:
    def test_seed_reproducibility(self, simple_net):
        compiled = simple_net.compile()
        a = simulate_net(compiled, policy="random", seed=5)
        b = simulate_net(compiled, policy="random", seed=5)
        assert a.firings == b.firings

    def test_random_walks_are_legal_runs(self):
        spec = random_task_set(
            3, total_utilization=0.4, seed=2, period_grid=(8, 16)
        )
        compiled = compose(spec).compiled()
        tlts = TLTS(compiled)
        for seed in range(4):
            run = NetSimulator(compiled).run(
                policy="random", seed=seed, max_steps=60
            )
            # every prefix the walk produced must replay cleanly
            tlts.replay([(n, q) for n, q, _at in run.firings])

    def test_unknown_policy_rejected(self, simple_net):
        with pytest.raises(SimulationError, match="unknown walk"):
            NetSimulator(simple_net.compile()).run(policy="chaotic")

    def test_negative_budget_rejected(self, simple_net):
        with pytest.raises(SimulationError, match="max_steps"):
            NetSimulator(simple_net.compile()).run(max_steps=-1)


class TestModelWalks:
    def test_walk_detects_deadline_miss_or_completes(self):
        """On a composed model the walk either finishes the schedule
        period or stops at a marked miss place — never wanders."""
        spec = random_task_set(
            2, total_utilization=0.3, seed=4, period_grid=(10, 20)
        )
        compiled = compose(spec).compiled()
        run = NetSimulator(compiled).run(max_steps=10_000)
        assert run.reached_final or run.missed_deadline or (
            run.deadlocked
        )
