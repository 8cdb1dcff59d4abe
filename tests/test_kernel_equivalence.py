"""Equivalence suite: packed kernel vs reference semantics.

The packed :class:`~repro.tpn.kernel.KernelEngine` must be
observationally identical to the checked reference
:class:`~repro.tpn.state.StateEngine` — same successors, same fireable
sets and firing domains, same visited-state counts and feasibility
verdicts — across both clock-reset policies and all three delay modes.

* **engine level** (native core only) — on hypothesis-drawn nets (arc
  weights, priorities and markings the task-set compiler never
  produces) the kernel's compiled core agrees with the reference on
  every reachable state, under each reset policy, and the
  incrementally maintained additive key never drifts from the
  from-scratch :meth:`~repro.tpn.kernel.KernelEngine.full_hash`;
* **search level** — seeded task sets under every delay mode, priority
  mode, partial-order setting and reset policy, the paper models and
  an infeasible set give the same verdict, schedule and deterministic
  counters on ``engine="kernel"`` (the native driver when the core is
  built) and on ``engine="kernel"`` under ``EZRT_PURE=1`` (routed to
  the reference spec).
"""

import random

import pytest
from hypothesis import given, settings

from repro.blocks import compose
from repro.scheduler import SchedulerConfig, PreRuntimeScheduler
from repro.spec import paper_examples
from repro.tpn import INF, StateEngine, _kernelc
from repro.tpn.kernel import KernelEngine
from repro.workloads import random_task_set

from test_net import bounded_nets

RESETS = ("paper", "intermediate")

native_only = pytest.mark.skipif(
    _kernelc.load() is None,
    reason="the native core is not live (EZRT_PURE=1 or no compiler)",
)


def _walk_states(compiled, reset_policy, max_states=80):
    """BFS over the discrete TLTS using the *reference* engine only."""
    engine = StateEngine(compiled, reset_policy=reset_policy)
    s0 = engine.initial_state()
    frontier = [s0]
    seen = {s0}
    while frontier:
        state = frontier.pop()
        yield state
        for cand in engine.fireable(state, priority_filter=False):
            if cand.dub == INF:
                delays = [cand.dlb]
            else:
                delays = list(cand.delays())[:3]
            for q in delays:
                succ = engine._fire_unchecked(state, cand.transition, q)
                if succ not in seen and len(seen) < max_states:
                    seen.add(succ)
                    frontier.append(succ)


def _assert_key_consistent(engine, ks):
    """The incremental key must equal its from-scratch definition."""
    assert ks._hash == engine.full_hash(ks.marking, ks.clk)


@native_only
class TestEngineEquivalence:
    @pytest.mark.parametrize("policy", RESETS)
    @given(bounded_nets())
    @settings(max_examples=40, deadline=None)
    def test_successors_and_fireable_agree(self, policy, net):
        """On every reachable state the kernel and the reference agree
        on FT(s), the firing domains, and every successor state."""
        compiled = net.compile()
        reference = StateEngine(compiled, reset_policy=policy)
        kernel = KernelEngine(compiled, reset_policy=policy)
        for state in _walk_states(compiled, policy):
            ks = kernel.lift(state)
            _assert_key_consistent(kernel, ks)
            ref_cands = reference.fireable(state, priority_filter=False)
            # the full-delay expansion spells out the firing window and
            # its min-DUB ceiling: every (t, q), DLB(t) <= q <= ceiling
            full, _reduced = kernel.candidates(ks, False, False, "full")
            assert sorted(full) == sorted(
                (c.transition, q)
                for c in ref_cands
                for q in ([c.dlb] if c.dub == INF else c.delays())
            )
            for cand in ref_cands:
                delays = (
                    [cand.dlb]
                    if cand.dub == INF
                    else list(cand.delays())[:3]
                )
                for q in delays:
                    ref_succ = reference._fire_unchecked(
                        state, cand.transition, q
                    )
                    succ = kernel.successor(ks, cand.transition, q)
                    assert succ.to_state() == ref_succ
                    _assert_key_consistent(kernel, succ)

    @pytest.mark.parametrize("policy", RESETS)
    @given(bounded_nets())
    @settings(max_examples=25, deadline=None)
    def test_chained_successors_keep_key_consistent(self, policy, net):
        """Deep random runs: the incrementally maintained key never
        drifts from its definition (XOR updates vs full rescan)."""
        compiled = net.compile()
        kernel = KernelEngine(compiled, reset_policy=policy)
        rng = random.Random(17)
        ks = kernel.initial()
        for _ in range(40):
            cands, _reduced = kernel.candidates(ks, False, False, "full")
            if not cands:
                break
            t, q = rng.choice(cands)
            ks = kernel.successor(ks, t, q)
            _assert_key_consistent(kernel, ks)

    @pytest.mark.parametrize("policy", RESETS)
    def test_initial_matches_reference(self, simple_net, policy):
        compiled = simple_net.compile()
        s0 = StateEngine(compiled, reset_policy=policy).initial_state()
        kernel = KernelEngine(compiled, reset_policy=policy)
        ks = kernel.initial()
        assert ks.to_state() == s0
        assert kernel.lift(s0) == ks
        assert hash(kernel.lift(s0)) == hash(ks)
        assert ks._hash == kernel.full_hash(ks.marking, ks.clk)


SEARCH_SEEDS = (1, 2, 3, 4, 5, 6)


class TestSchedulerEquivalence:
    """``engine="kernel"`` on either path is the reference search."""

    @pytest.mark.parametrize("seed", SEARCH_SEEDS)
    @pytest.mark.parametrize(
        "reset_policy", ["paper", "intermediate"]
    )
    def test_random_task_sets_all_reset_policies(
        self, monkeypatch, seed, reset_policy
    ):
        spec = random_task_set(
            3 + seed % 3,
            total_utilization=0.35 + 0.1 * (seed % 2),
            seed=seed,
            preemptive_fraction=0.5,
            period_grid=(10, 20, 40),
        )
        net = compose(spec).compiled()
        config = SchedulerConfig(
            reset_policy=reset_policy, max_states=30_000
        )
        self._assert_same_search(monkeypatch, net, config)

    @pytest.mark.parametrize(
        "delay_mode", ["earliest", "extremes", "full"]
    )
    def test_all_delay_modes(self, monkeypatch, delay_mode):
        spec = random_task_set(
            3, total_utilization=0.4, seed=9, period_grid=(8, 16)
        )
        net = compose(spec).compiled()
        config = SchedulerConfig(
            delay_mode=delay_mode, max_states=30_000
        )
        self._assert_same_search(monkeypatch, net, config)

    @pytest.mark.parametrize("priority_mode", ["ordered", "strict"])
    @pytest.mark.parametrize("partial_order", [True, False])
    def test_priority_and_reduction_modes(
        self, monkeypatch, priority_mode, partial_order
    ):
        spec = random_task_set(
            4, total_utilization=0.45, seed=21, period_grid=(10, 20)
        )
        net = compose(spec).compiled()
        config = SchedulerConfig(
            priority_mode=priority_mode,
            partial_order=partial_order,
            max_states=30_000,
        )
        self._assert_same_search(monkeypatch, net, config)

    @pytest.mark.parametrize(
        "example", ["mine-pump", "fig3", "fig4", "fig8"]
    )
    def test_paper_examples(self, monkeypatch, example):
        net = compose(paper_examples()[example]).compiled()
        self._assert_same_search(monkeypatch, net, SchedulerConfig())

    def test_infeasible_sets_agree(self, monkeypatch):
        spec = random_task_set(
            4, total_utilization=0.95, seed=3, period_grid=(5, 10)
        )
        net = compose(spec).compiled()
        config = SchedulerConfig(max_states=20_000)
        self._assert_same_search(monkeypatch, net, config)

    @staticmethod
    def _assert_same_search(monkeypatch, net, config):
        kernel = config.replace(engine="kernel")
        with monkeypatch.context() as patch:
            patch.setenv(_kernelc.PURE_ENV, "1")
            spec = PreRuntimeScheduler(net, kernel)
        assert not spec.adapter.native
        assert spec.adapter.name == "kernel"
        ref = spec.search()
        ref_stats = ref.stats.as_dict()
        for key in ref.stats.WALL_CLOCK_KEYS:
            ref_stats.pop(key)
        result = PreRuntimeScheduler(net, kernel).search()
        assert result.feasible == ref.feasible
        assert result.exhausted == ref.exhausted
        assert result.firing_schedule == ref.firing_schedule
        stats = result.stats.as_dict()
        for key in result.stats.WALL_CLOCK_KEYS:
            stats.pop(key)
        assert stats == ref_stats
