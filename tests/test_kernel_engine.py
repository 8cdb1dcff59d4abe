"""Kernel engine suite: packed buffers, native core, cross-engine fuzz.

ISSUE 7's acceptance coverage for ``repro.tpn.kernel``, in four layers:

* **Engine-level differential walks** — the kernel engine (its
  compiled core) steps a randomized firing walk in lockstep with the
  checked reference :class:`~repro.tpn.state.StateEngine`; markings,
  clock vectors and candidate windows must match at every step, and
  the incremental additive key must equal the from-scratch
  ``full_hash``, under both clock-reset policies, on the paper models
  and a seeded task-set grid.
* **Native vs spec steps** — the same walks compare the kernel
  engine's own step and candidate pipeline (``kn_successor`` and
  ``kn_candidates``, the driver's C pipeline: filters, partial-order
  reduction, delay expansion) with the reference adapter's, which
  ``engine="kernel"`` runs without the core (``EZRT_PURE=1``, or a net
  the core cannot pack), on every delay × priority × partial-order ×
  reset cell.
* **Cross-engine search fuzz** — full scheduler searches across the
  kernel, its spec (``EZRT_PURE=1``) and the state-class engine on a
  seeded sweep: the two discrete paths must agree exactly (verdict,
  visited counts, schedules, deterministic counters) and the dense
  state-class engine must agree on the verdict.
* **Packed-representation edges** — export/revive round-trips, the
  loud token/clock overflow errors, ``KernelState`` identity.
"""

from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys

import pytest

from repro.blocks import compose
from repro.errors import SchedulingError
from repro.scheduler import PreRuntimeScheduler, SchedulerConfig
from repro.scheduler.config import DELAY_MODES, PRIORITY_MODES
from repro.scheduler.core import ReferenceAdapter, make_adapter
from repro.scheduler.parallel import ParallelScheduler
from repro.scheduler.result import SearchStats
from repro.spec import paper_examples
from repro.tpn import _dbmc, _kernelc, _native
from repro.tpn.dbm import DbmEngine
from repro.tpn.interval import INF, TimeInterval
from repro.tpn.kernel import DIS, MAX_CLOCK, KernelEngine
from repro.tpn.net import ROLE_DEADLINE_MISS, TimePetriNet
from repro.tpn.state import DISABLED, State, StateEngine
from repro.workloads import random_task_set

RESETS = ("paper", "intermediate")
#: the kernel's two paths: its spec (``EZRT_PURE=1``) and the kernel
DISCRETE_ENGINES = ("reference", "kernel")

native_only = pytest.mark.skipif(
    _kernelc.load() is None,
    reason="the native core is not live (EZRT_PURE=1 or no compiler)",
)

WALK_STEPS = 60


def _discrete_search(monkeypatch, net, path, **knobs):
    """An ``engine="kernel"`` search on one of :data:`DISCRETE_ENGINES`:
    ``"reference"`` runs it on the spec."""
    with monkeypatch.context() as env:
        if path == "reference":
            env.setenv(_native.PURE_ENV, "1")
        config = SchedulerConfig(engine="kernel", **knobs)
        return PreRuntimeScheduler(net, config).search()
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


#: names of the nets :func:`_walk_nets` yields, for parametrisation
WALK_NET_NAMES = tuple(paper_examples()) + tuple(
    f"rand-n{n}-s{seed}" for n, _u, seed in FUZZ_GRID[:3]
)


@pytest.fixture(scope="module")
def walk_nets(paper_nets):
    return dict(_walk_nets(paper_nets))


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
        ker_window, _reduced = kernel_engine.candidates(
            ker, False, False, "earliest"
        )
        assert sorted(ker_window) == cands, step
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


@native_only
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


def _native_candidates(engine, state, config, stats):
    """The kernel engine's candidate pipeline under ``config``, with
    the reduction counted on ``stats`` the way the spec adapter
    counts it."""
    cands, reduced = engine.candidates(
        state,
        config.priority_mode == "strict",
        config.partial_order,
        config.delay_mode,
    )
    if reduced:
        stats.reductions += 1
    return cands


class TestNativeVsSpec:
    """The kernel engine's step and its spec, the reference adapter,
    agree step by step; without the core ``engine="kernel"`` is the
    spec."""

    @native_only
    @pytest.mark.parametrize("net_name", WALK_NET_NAMES)
    @pytest.mark.parametrize("reset_policy", RESETS)
    @pytest.mark.parametrize("partial_order", (True, False))
    @pytest.mark.parametrize("priority_mode", PRIORITY_MODES)
    @pytest.mark.parametrize("delay_mode", DELAY_MODES)
    def test_identical_states_and_candidates(
        self,
        walk_nets,
        delay_mode,
        priority_mode,
        partial_order,
        reset_policy,
        net_name,
    ):
        config = SchedulerConfig(
            reset_policy=reset_policy,
            delay_mode=delay_mode,
            priority_mode=priority_mode,
            partial_order=partial_order,
        )
        net = walk_nets[net_name]
        native = KernelEngine(net, reset_policy=reset_policy)
        spec = ReferenceAdapter(net, config)
        a, b = native.initial(), spec.root()
        stats_a, stats_b = SearchStats(), SearchStats()
        rng = random.Random(17)
        for step in range(WALK_STEPS):
            assert a.to_state() == b, step
            assert a._hash == native.full_hash(a.marking, a.clk), step
            ca = _native_candidates(native, a, config, stats_a)
            cb = spec.candidates_of(b, stats_b)
            assert ca == cb, step
            assert stats_a.reductions == stats_b.reductions, step
            if not ca:
                break
            t, q = rng.choice(ca)
            b = spec.successor(b, t, q)
            try:
                a = native.successor(a, t, q)
            except SchedulingError:
                # a packed cap: the spec has none
                assert max(b.marking) > 0xFFFF or max(
                    v for v in b.clocks if v != DISABLED
                ) > MAX_CLOCK
                break

    @pytest.mark.parametrize("reset_policy", RESETS)
    def test_pure_env_runs_the_reference(
        self, paper_nets, reset_policy, monkeypatch
    ):
        monkeypatch.setenv(_kernelc.PURE_ENV, "1")
        config = SchedulerConfig(reset_policy=reset_policy)
        for name, net in _walk_nets(paper_nets):
            adapter = make_adapter("kernel", net, config)
            assert type(adapter) is ReferenceAdapter, name
            assert adapter.name == "kernel" and not adapter.native
            assert adapter.root() == StateEngine(
                net, reset_policy=reset_policy
            ).initial_state()

    def test_native_core_builds_here(self):
        """CI builds the extension eagerly; this test documents
        whether this environment exercises the compiled or the spec
        path (it fails only when a build was attempted and died)."""
        module = _kernelc.load()
        if module is None and _kernelc.LOAD_ERROR is not None:
            pytest.skip(
                f"native core unavailable: {_kernelc.LOAD_ERROR}"
            )


class TestNetsTheCoreCannotPack:
    """A net with no transitions (or no places) has no packed form: the
    native engines run it on their specs even with the core built."""

    @staticmethod
    def _net(feasible: bool):
        net = TimePetriNet("one-place")
        net.add_place("p", marking=1)
        net.set_final_marking({"p": 1 if feasible else 2})
        return net.compile()

    @pytest.mark.parametrize("feasible", (True, False))
    @pytest.mark.parametrize("engine", ("kernel", "stateclass"))
    def test_routes_to_the_spec(self, monkeypatch, engine, feasible):
        monkeypatch.delenv(_native.PURE_ENV, raising=False)
        if _native.CORE.load() is None:
            pytest.skip("the native core cannot be built here")
        net = self._net(feasible)
        result = PreRuntimeScheduler(
            net, SchedulerConfig(engine=engine)
        ).search()
        monkeypatch.setenv(_native.PURE_ENV, "1")
        reference = PreRuntimeScheduler(
            net, SchedulerConfig(engine="kernel")
        ).search()
        assert result.feasible == reference.feasible == feasible
        assert result.exhausted == reference.exhausted
        gauge = "kernel.native_core" if engine == "kernel" else (
            "dbm.native_core"
        )
        assert result.metrics["gauges"][gauge] == 0.0

    @pytest.mark.parametrize("engine", (KernelEngine, DbmEngine))
    def test_the_packed_engines_refuse_it(self, monkeypatch, engine):
        monkeypatch.delenv(_native.PURE_ENV, raising=False)
        if _native.CORE.load() is None:
            pytest.skip("the native core cannot be built here")
        with pytest.raises(SchedulingError, match="cannot run this net"):
            engine(self._net(True))


class TestOneExtension:
    """Both engines run in the one native core."""

    def test_both_engines_load_the_same_module(self):
        assert _kernelc.load() is _dbmc.load()

    def test_both_entry_points_build_the_same_path(self):
        if _native.CORE.native_module() is None:
            pytest.skip(f"native core unavailable: {_native.CORE.load_error}")
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        paths = {
            subprocess.run(
                [sys.executable, "-m", module],
                env=env,
                check=True,
                capture_output=True,
                text=True,
                timeout=300,
            ).stdout.strip().splitlines()[-1]
            for module in ("repro.tpn._kernelc", "repro.tpn._dbmc")
        }
        assert len(paths) == 1
        assert paths == {_native.CORE.build()}

    @pytest.mark.parametrize("module", [_kernelc, _dbmc])
    def test_each_fragment_is_in_the_digest(self, module, monkeypatch):
        before = _native.CORE.digest()
        monkeypatch.setattr(module, "SOURCE", module.SOURCE + "\n")
        assert _native.CORE.digest() != before

    def test_build_publishes_from_inside_the_cache_dir(
        self, tmp_path, monkeypatch
    ):
        """The finished object is renamed into place from a directory
        on the cache's own filesystem, so the rename is atomic and no
        concurrent loader can see a partial file."""
        pytest.importorskip("cffi")
        if _native.CORE.native_module() is None:
            pytest.skip(f"native core unavailable: {_native.CORE.load_error}")
        cache = str(tmp_path / "cache")
        core = _native.NativeCore()
        monkeypatch.setattr(core, "_cache_dirs", lambda: [cache])
        moves = []
        replace = os.replace

        def recording(src, dst):
            moves.append((str(src), str(dst)))
            replace(src, dst)

        monkeypatch.setattr(os, "replace", recording)
        path = core.build()
        assert moves == [(moves[0][0], path)]
        source = moves[0][0]
        assert os.path.commonpath([source, cache]) == cache
        assert os.path.dirname(path) == cache
        assert os.listdir(cache) == [os.path.basename(path)]


class TestCrossEngineSearchFuzz:
    """Full searches: the kernel, its spec and the dense engine on a
    seeded sweep."""

    @pytest.mark.parametrize("reset_policy", RESETS)
    @pytest.mark.parametrize("case", FUZZ_GRID)
    def test_discrete_engines_agree_exactly(
        self, monkeypatch, case, reset_policy
    ):
        n, u, seed = case
        net = compose(
            random_task_set(n, u, seed=seed, deadline_slack=0.9)
        ).compiled()
        results = {
            path: _discrete_search(
                monkeypatch,
                net,
                path,
                reset_policy=reset_policy,
                max_states=100_000,
            )
            for path in DISCRETE_ENGINES
        }
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
        self, paper_nets, monkeypatch, delay_mode, priority_mode
    ):
        ref, ker = (
            _discrete_search(
                monkeypatch,
                paper_nets["fig4"],
                path,
                delay_mode=delay_mode,
                priority_mode=priority_mode,
            )
            for path in DISCRETE_ENGINES
        )
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
            portfolio=("kernel:earliest", "stateclass:latest"),
        )
        result = ParallelScheduler(paper_nets["fig3"], cfg).search()
        assert result.feasible
        assert result.winner_engine in ("kernel", "stateclass")

@native_only
class TestPackedRepresentation:
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
        cands, _ = engine.candidates(state, False, False, "earliest")
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

    @pytest.mark.parametrize("delay_mode", DELAY_MODES)
    def test_expansion_outgrowing_the_buffer_is_retried(
        self, delay_mode
    ):
        """The candidate buffer starts at one pair per transition; a
        full-delay expansion of a wide window needs more, which the
        core reports as ``-needed`` and the engine grows and retries."""
        net = TimePetriNet("wide")
        net.add_place("p", marking=1)
        net.add_place("q", marking=1)
        net.add_transition("a", TimeInterval(0, 9))
        net.add_transition("b", TimeInterval(2, 12))
        net.add_arc("p", "a")
        net.add_arc("q", "b")
        compiled = net.compile()
        config = SchedulerConfig(delay_mode=delay_mode)
        native = KernelEngine(compiled)
        spec = ReferenceAdapter(compiled, config)
        root = native.initial()
        got = _native_candidates(native, root, config, SearchStats())
        assert got == spec.candidates_of(spec.root(), SearchStats())
        assert len(got) == {"earliest": 2, "extremes": 4, "full": 18}[
            delay_mode
        ]
        # the grown buffer serves the next call as is
        assert (
            _native_candidates(native, root, config, SearchStats()) == got
        )

    def test_state_identity(self, paper_nets):
        net = paper_nets["fig3"]
        engine = KernelEngine(net)
        a = engine.initial()
        b = engine.initial()
        assert a == b and hash(a) == hash(b)
        assert a != object() or True  # NotImplemented path is benign
        cands, _ = engine.candidates(a, False, True, "earliest")
        child = engine.successor(a, *cands[0])
        assert child != a


#: The window-edge net's transitions: name -> (interval, priority, role,
#: output place).  ``u`` has an unbounded LFT, ``m`` is a deadline-miss
#: transition, ``b`` is conflict-free with an unread postset (reducible
#: once forced) and ``c`` feeds ``a`` (reducible only while ``a`` is
#: disabled).
WINDOW_EDGE_NET = {
    "u": (TimeInterval(1, INF), 2, None, "out"),
    "a": (TimeInterval(2, 5), 1, None, "out"),
    "b": (TimeInterval(0, 3), 1, None, "out"),
    "c": (TimeInterval(1, 1), 0, None, "in_a"),
    "m": (TimeInterval(0, 4), 0, ROLE_DEADLINE_MISS, "out"),
}


def _window_edge_net():
    net = TimePetriNet("window-edges")
    net.add_place("out")
    for name, (interval, priority, role, target) in WINDOW_EDGE_NET.items():
        net.add_place(f"in_{name}", marking=1)
        net.add_transition(name, interval, priority=priority, role=role)
        net.add_arc(f"in_{name}", name)
    for name, (_, _, _, target) in WINDOW_EDGE_NET.items():
        net.add_arc(name, target)
    return net.compile()


def _window_edge_state(net, clocks):
    """The state enabling exactly the transitions in ``clocks`` (name ->
    clock value), one token in each one's input place."""
    index = net.transition_index
    marking = [0] * net.num_places
    dense = [DISABLED] * net.num_transitions
    for name, clock in clocks.items():
        marking[net.place_index[f"in_{name}"]] = 1
        dense[index[name]] = clock
    return State(tuple(marking), tuple(dense))


def _window_edge_states(net):
    """Every subset of the transitions enabled, each clock at zero, at
    its EFT and at its LFT (past the EFT for the unbounded ``u``)."""
    names = list(WINDOW_EDGE_NET)
    for mask in range(1 << len(names)):
        enabled = [n for k, n in enumerate(names) if mask >> k & 1]
        choices = [
            sorted({0, iv.eft, iv.eft + 6 if iv.lft == INF else iv.lft})
            for iv in (WINDOW_EDGE_NET[n][0] for n in enabled)
        ]
        for values in itertools.product(*choices):
            yield _window_edge_state(net, dict(zip(enabled, values)))


@native_only
class TestWindowEdgeCases:
    """``kn_candidates`` on a hand-built net whose states hit the edges
    of the window scan, against the spec adapter's list."""

    @pytest.mark.parametrize("partial_order", (True, False))
    @pytest.mark.parametrize("priority_mode", PRIORITY_MODES)
    @pytest.mark.parametrize("delay_mode", DELAY_MODES)
    def test_candidates_match_the_spec(
        self, delay_mode, priority_mode, partial_order
    ):
        net = _window_edge_net()
        config = SchedulerConfig(
            delay_mode=delay_mode,
            priority_mode=priority_mode,
            partial_order=partial_order,
        )
        native = KernelEngine(net)
        spec = ReferenceAdapter(net, config)
        count = 0
        for state in _window_edge_states(net):
            stats_a, stats_b = SearchStats(), SearchStats()
            got = _native_candidates(
                native, native.lift(state), config, stats_a
            )
            assert got == spec.candidates_of(state, stats_b), state
            assert stats_a.reductions == stats_b.reductions, state
            count += 1
        assert count == 4 * 4 * 3 * 3 * 3  # (1 + clock choices) each

    def test_the_edges_are_reached(self):
        """The sweep's named edges, under the full delay expansion."""
        net = _window_edge_net()
        engine = KernelEngine(net)
        index = net.transition_index

        def full(**clocks):
            state = engine.lift(_window_edge_state(net, clocks))
            cands, _ = engine.candidates(state, False, False, "full")
            names = net.transition_names
            return [(names[t], q) for t, q in cands]

        # unbounded ceiling: earliest-only ordering in every mode
        assert full(u=0) == [("u", 1)]
        # no enabled transition
        assert full() == []
        # m caps the ceiling at 4 - 2 but is never a candidate
        assert full(u=0, a=0, m=2) == [("u", 1), ("a", 2), ("u", 2)]
        assert full(m=0) == []
        # a clock sitting at its LFT pins the ceiling at zero
        assert full(a=0, c=1) == [("c", 0)]
        assert full(u=7, b=3) == [("b", 0), ("u", 0)]
        assert index["m"] in net.miss_transitions
