"""Cross-validation suite for the dense-time state-class engine.

The state-class engine must be *verdict-equivalent* to the discrete
engines: for TPNs with integer bounds, integer firing times suffice
for reachability, so a dense search can never disagree with a
complete discrete one — and on the paper's work-conserving models it
cannot disagree with the default earliest-delay search either.  This
suite pins that equivalence on the paper models, a seeded task-set
sweep and a seeded raw-net sweep (zero-width intervals and immediate
transitions included), under both clock-reset policies, and checks
the concretisation/replay contract: every feasible dense schedule is
realised at integer times that the checked reference engine accepts.
"""

import random

import pytest

from repro.errors import SchedulingError
from repro.blocks import compose
from repro.scheduler import (
    ParallelScheduler,
    SchedulerConfig,
    dense_schedule_entries,
    find_schedule,
    format_dense_schedule,
    schedule_from_result,
)
from repro.scheduler.dfs import PreRuntimeScheduler, search
from repro.spec import fig3_precedence, fig4_exclusion, fig8_preemptive
from repro.tpn import (
    INF,
    StateClassEngine,
    StateEngine,
    TimeInterval,
    TimePetriNet,
    build_state_class_graph,
    explore,
    realize_firing_sequence,
)
from repro.workloads import random_task_set, wide_interval_job_net

RESETS = ("paper", "intermediate")


def _verdicts(model, reset_policy):
    dense = find_schedule(
        model,
        SchedulerConfig(engine="stateclass", reset_policy=reset_policy),
    )
    kernel = find_schedule(
        model, SchedulerConfig(reset_policy=reset_policy)
    )
    reference = find_schedule(
        model,
        SchedulerConfig(engine="reference", reset_policy=reset_policy),
    )
    return dense, kernel, reference


class TestPaperModelEquivalence:
    @pytest.mark.parametrize("reset", RESETS)
    @pytest.mark.parametrize(
        "factory", [fig3_precedence, fig4_exclusion, fig8_preemptive]
    )
    def test_verdict_matches_both_discrete_engines(self, factory, reset):
        model = compose(factory())
        dense, kernel, reference = _verdicts(model, reset)
        assert dense.feasible == kernel.feasible
        assert dense.feasible == reference.feasible

    @pytest.mark.parametrize(
        "factory", [fig3_precedence, fig4_exclusion, fig8_preemptive]
    )
    def test_dense_schedule_passes_independent_validation(self, factory):
        """Concretised schedules survive the spec-level re-check too."""
        model = compose(factory())
        dense = find_schedule(
            model, SchedulerConfig(engine="stateclass")
        )
        assert dense.feasible
        schedule_from_result(model, dense)  # raises on any violation


class TestRandomTaskSetSweep:
    @pytest.mark.parametrize("reset", RESETS)
    def test_verdict_parity_on_seeded_sweep(self, reset):
        for n_tasks in (2, 3):
            for utilization in (0.4, 0.8):
                for seed in (0, 1, 2):
                    spec = random_task_set(
                        n_tasks,
                        utilization,
                        seed=seed,
                        deadline_slack=0.8,
                    )
                    model = compose(spec)
                    dense, kernel, reference = _verdicts(
                        model, reset
                    )
                    assert not dense.exhausted
                    assert (
                        dense.feasible
                        == kernel.feasible
                        == reference.feasible
                    ), f"verdict diverged on {spec.name} ({reset})"


def _seeded_net(seed: int) -> TimePetriNet:
    """Small random TPN with zero-width and immediate transitions.

    All LFTs are finite so the complete discrete search
    (``delay_mode="full"``) can enumerate every integer delay — which
    makes dense/discrete verdict parity a theorem, not a coincidence.
    """
    rng = random.Random(seed)
    net = TimePetriNet(f"sweep-{seed}")
    n_places = rng.randint(3, 5)
    n_transitions = rng.randint(2, 4)
    for i in range(n_places):
        net.add_place(f"p{i}", marking=rng.randint(0, 1))
    for j in range(n_transitions):
        kind = rng.random()
        if kind < 0.25:
            interval = TimeInterval(0, 0)  # immediate
        elif kind < 0.5:
            point = rng.randint(1, 4)
            interval = TimeInterval(point, point)  # zero width
        else:
            eft = rng.randint(0, 3)
            interval = TimeInterval(eft, eft + rng.randint(1, 4))
        net.add_transition(f"t{j}", interval)
        for p in rng.sample(range(n_places), rng.randint(1, 2)):
            net.add_arc(f"p{p}", f"t{j}")
        for p in rng.sample(range(n_places), rng.randint(0, 2)):
            net.add_arc(f"t{j}", f"p{p}")
    return net


class TestRawNetSweep:
    @pytest.mark.parametrize("reset", RESETS)
    def test_markings_match_complete_discrete_exploration(self, reset):
        for seed in range(15):
            net = _seeded_net(seed).compile()
            dense = build_state_class_graph(
                net, max_classes=3000, reset_policy=reset
            )
            discrete = explore(
                net,
                max_states=20000,
                earliest_only=False,
                priority_filter=False,
                reset_policy=reset,
            )
            if dense.complete and discrete.complete:
                assert dense.markings() == discrete.markings(), (
                    f"marking sets diverged on seed {seed} ({reset})"
                )

    @pytest.mark.parametrize("reset", RESETS)
    def test_verdict_parity_against_complete_discrete_search(
        self, reset
    ):
        """Feasible and infeasible goals agree with delay_mode="full"."""
        checked = 0
        for seed in range(15):
            builder = _seeded_net(seed)
            compiled = builder.compile()
            discrete_graph = explore(
                compiled,
                max_states=20000,
                earliest_only=False,
                priority_filter=False,
                reset_policy=reset,
            )
            if not discrete_graph.complete:
                continue
            markings = sorted(discrete_graph.markings())
            # a reachable goal (the lexicographically last marking,
            # usually not the initial one) and an unreachable one
            goals = [(markings[-1], True), ((99,) * compiled.num_places, False)]
            for goal, expect_feasible in goals:
                target = dict(zip(builder.place_names, goal))
                builder.final_marking = {}
                try:
                    builder.set_final_marking(target)
                except Exception:  # noqa: BLE001 — unreachable sentinel
                    continue
                net = builder.compile()
                dense = search(
                    net,
                    SchedulerConfig(
                        engine="stateclass", reset_policy=reset
                    ),
                )
                full = search(
                    net,
                    SchedulerConfig(
                        delay_mode="full", reset_policy=reset
                    ),
                )
                assert not dense.exhausted and not full.exhausted
                assert dense.feasible == full.feasible == (
                    expect_feasible
                    if goal != net.m0
                    else dense.feasible
                ), f"verdict diverged on seed {seed} ({reset})"
                checked += 1
        assert checked >= 10  # the sweep must actually exercise nets


def _try_fire_full_closure(engine, cls, transition):
    """The pre-ISSUE-7 firing rule: full Floyd–Warshall closures.

    Adds the ``θ_t ≤ θ_u`` firing constraints explicitly, re-closes
    the constrained matrix from scratch, builds the successor from it
    and re-closes *that* from scratch — the two O(n³) steps the
    incremental rule in :meth:`StateClassEngine.try_fire` replaces.
    Kept here as the executable specification the fast path is
    checked against.
    """
    from repro.tpn.stateclass import StateClass, _canonical

    if transition not in cls.enabled:
        return None
    size = len(cls.enabled) + 1
    var_t = cls.enabled.index(transition) + 1
    matrix = [list(row) for row in cls.dbm]
    for var_u in range(1, size):
        if var_u != var_t and matrix[var_t][var_u] > 0:
            matrix[var_t][var_u] = 0  # θ_t − θ_u ≤ 0
    closed = _canonical(matrix)
    if closed is None:
        return None

    marking = list(cls.marking)
    for place, delta in engine.net.delta[transition]:
        marking[place] += delta
    new_marking = tuple(marking)

    old_enabled = cls.enabled
    new_enabled = tuple(engine._enabled(new_marking))
    persistent = engine._persistent(
        cls.marking, new_enabled, old_enabled, transition
    )
    new_size = len(new_enabled) + 1
    fresh = [[INF] * new_size for _ in range(new_size)]
    for i in range(new_size):
        fresh[i][i] = 0
    for new_var, t in enumerate(new_enabled, start=1):
        if t in persistent:
            old_var = old_enabled.index(t) + 1
            fresh[new_var][0] = closed[old_var][var_t]
            fresh[0][new_var] = closed[var_t][old_var]
        else:
            fresh[new_var][0] = engine.net.lft[t]
            fresh[0][new_var] = -engine.net.eft[t]
    for i_var, t_i in enumerate(new_enabled, start=1):
        if t_i not in persistent:
            continue
        old_i = old_enabled.index(t_i) + 1
        for j_var, t_j in enumerate(new_enabled, start=1):
            if t_j not in persistent or i_var == j_var:
                continue
            old_j = old_enabled.index(t_j) + 1
            fresh[i_var][j_var] = closed[old_i][old_j]
    reclosed = _canonical(fresh)
    if reclosed is None:
        return None
    return StateClass(
        new_marking,
        new_enabled,
        tuple(tuple(row) for row in reclosed),
    )


class TestIncrementalClosureEquivalence:
    """ISSUE 7 satellite: the O(n²) incremental DBM closure in
    :meth:`StateClassEngine.try_fire` against the full-closure
    specification, firing by firing — not just verdict parity but
    *matrix* equality, since the DBM is what later firability checks
    and windows read."""

    def _bfs_compare(self, net, reset, max_classes):
        engine = StateClassEngine(net, reset_policy=reset)
        initial = engine.initial_class()
        seen = {initial}
        frontier = [initial]
        firings = 0
        while frontier and len(seen) < max_classes:
            cls = frontier.pop()
            for t in range(net.num_transitions):
                fast = engine.try_fire(cls, t)
                full = _try_fire_full_closure(engine, cls, t)
                assert fast == full, (
                    f"incremental closure diverged firing "
                    f"{net.transition_names[t]!r} ({reset})"
                )
                if fast is None:
                    continue
                firings += 1
                if fast not in seen:
                    seen.add(fast)
                    frontier.append(fast)
        return firings

    @pytest.mark.parametrize("reset", RESETS)
    def test_paper_models_fire_identically(self, reset):
        from repro.spec import paper_examples

        for name, spec in paper_examples().items():
            net = compose(spec).compiled()
            assert self._bfs_compare(net, reset, max_classes=400) > 0, name

    @pytest.mark.parametrize("reset", RESETS)
    def test_seeded_nets_fire_identically(self, reset):
        """Raw seeded nets: zero-width and immediate intervals, token
        recirculation — the shapes that stress persistence and the
        projection argument."""
        firings = 0
        for seed in range(8):
            net = _seeded_net(seed).compile()
            firings += self._bfs_compare(net, reset, max_classes=200)
        assert firings >= 200  # the sweep must actually fire a lot

    @pytest.mark.parametrize("reset", RESETS)
    def test_seeded_task_sets_fire_identically(self, reset):
        for n, u, seed in ((2, 0.6, 3), (3, 0.5, 4), (4, 0.7, 5)):
            net = compose(
                random_task_set(
                    n, total_utilization=u, seed=seed,
                    deadline_slack=0.8,
                )
            ).compiled()
            assert self._bfs_compare(net, reset, max_classes=150) > 0


class TestIntervalSchedule:
    def test_windows_cover_concrete_times(self):
        net = wide_interval_job_net(feasible=True).compile()
        result = search(net, SchedulerConfig(engine="stateclass"))
        assert result.feasible
        entries = dense_schedule_entries(result)
        assert len(entries) == result.schedule_length
        for entry in entries:
            assert entry.earliest <= entry.at
            assert entry.at <= entry.latest
            # the engine concretises to the least solution
            assert entry.at == entry.earliest
        # a wide release window must survive into at least one entry
        assert any(entry.width > 0 for entry in entries)

    def test_discrete_results_carry_no_windows(self, fig3_model):
        result = find_schedule(fig3_model, SchedulerConfig())
        assert result.interval_schedule is None
        with pytest.raises(SchedulingError):
            dense_schedule_entries(result)

    def test_format_dense_schedule(self):
        net = wide_interval_job_net(feasible=True).compile()
        result = search(net, SchedulerConfig(engine="stateclass"))
        text = format_dense_schedule(
            dense_schedule_entries(result), limit=2
        )
        assert "dense window" in text
        assert "more firing(s)" in text


class TestRealizeFiringSequence:
    def test_correlated_bounds_need_the_repair_pass(self):
        """Greedy-earliest alone cannot time this sequence.

        ``t1 ∈ [0,10]`` enables ``u ∈ [0,5]``; ``t2 ∈ [7,20]`` runs
        from the start.  Firing order (t1, t2, u) forces
        ``τ(t1) ≥ 2``: t2 needs ``τ ≥ 7`` while u caps the run at
        ``τ(t1) + 5`` — the solver must delay the *enabling* firing.
        """
        net = TimePetriNet("repair")
        for name, marking in (
            ("p0", 1), ("p1", 1), ("pu", 0), ("a", 0), ("b", 0), ("c", 0)
        ):
            net.add_place(name, marking=marking)
        net.add_transition("t1", TimeInterval(0, 10))
        net.add_transition("t2", TimeInterval(7, 20))
        net.add_transition("u", TimeInterval(0, 5))
        net.add_arc("p0", "t1")
        net.add_arc("t1", "pu")
        net.add_arc("t1", "a")
        net.add_arc("p1", "t2")
        net.add_arc("t2", "b")
        net.add_arc("pu", "u")
        net.add_arc("u", "c")
        compiled = net.compile()
        realized = realize_firing_sequence(compiled, [0, 1, 2])
        assert realized.schedule == [
            ("t1", 2, 2),
            ("t2", 5, 7),
            ("u", 0, 7),
        ]
        # and the reference engine accepts the produced timing
        engine = StateEngine(compiled)
        state = engine.initial_state()
        for name, delay, _at in realized.schedule:
            state = engine.fire(
                state, compiled.transition_index[name], delay
            )

    def test_disabled_firing_raises(self, simple_net):
        compiled = simple_net.compile()
        with pytest.raises(SchedulingError):
            realize_firing_sequence(compiled, [1])  # t_end not enabled

    def test_windows_are_inf_when_nothing_forces(self):
        net = TimePetriNet("unforced")
        net.add_place("p", marking=1)
        net.add_place("q")
        net.add_transition("t", TimeInterval.unbounded(2))
        net.add_arc("p", "t")
        net.add_arc("t", "q")
        compiled = net.compile()
        realized = realize_firing_sequence(compiled, [0])
        assert realized.schedule == [("t", 2, 2)]
        assert realized.windows == [("t", 2, INF)]


class TestStateClassEngineInternals:
    def test_cheap_firable_matches_closure_check(self):
        """Column-scan firability == add-constraints-and-close."""
        from repro.tpn.stateclass import _canonical

        def firable_by_closure(cls, transition):
            # the pre-PR formulation: add θ_t ≤ θ_u for every other
            # enabled u and re-run the full Floyd-Warshall closure
            size = len(cls.enabled) + 1
            var_t = cls.enabled.index(transition) + 1
            matrix = [list(row) for row in cls.dbm]
            for var_u in range(1, size):
                if var_u != var_t and matrix[var_t][var_u] > 0:
                    matrix[var_t][var_u] = 0
            return _canonical(matrix) is not None

        for seed in range(10):
            net = _seeded_net(seed).compile()
            engine = StateClassEngine(net)
            frontier = [engine.initial_class()]
            seen = set(frontier)
            budget = 200
            while frontier and budget:
                cls = frontier.pop()
                budget -= 1
                cheap = set(engine.firable(cls))
                closure = {
                    t
                    for t in cls.enabled
                    if firable_by_closure(cls, t)
                }
                assert cheap == closure
                for t in cheap:
                    child = engine.try_fire(cls, t)
                    if child is not None and child not in seen:
                        seen.add(child)
                        frontier.append(child)

    def test_fire_window_respects_other_lfts(self):
        net = TimePetriNet("window")
        net.add_place("p", marking=1)
        net.add_place("q", marking=1)
        net.add_place("r")
        net.add_transition("slow", TimeInterval(0, 9))
        net.add_transition("fast", TimeInterval(0, 3))
        net.add_arc("p", "slow")
        net.add_arc("slow", "r")
        net.add_arc("q", "fast")
        net.add_arc("fast", "r")
        compiled = net.compile()
        engine = StateClassEngine(compiled)
        initial = engine.initial_class()
        slow = compiled.transition_index["slow"]
        fast = compiled.transition_index["fast"]
        # slow's own bounds are [0, 9] but fast caps the window at 3
        assert initial.bounds_of(slow) == (0, 9)
        assert engine.fire_window(initial, slow) == (0, 3)
        assert engine.fire_window(initial, fast) == (0, 3)

    def test_unfirable_window_is_none(self):
        net = TimePetriNet("blocked")
        net.add_place("p", marking=1)
        net.add_place("q", marking=1)
        net.add_place("r")
        net.add_transition("late", TimeInterval(9, 20))
        net.add_transition("early", TimeInterval(0, 3))
        net.add_arc("p", "late")
        net.add_arc("late", "r")
        net.add_arc("q", "early")
        net.add_arc("early", "r")
        compiled = net.compile()
        engine = StateClassEngine(compiled)
        initial = engine.initial_class()
        late = compiled.transition_index["late"]
        assert engine.fire_window(initial, late) is None
        assert engine.fire_window(initial, 99) is None

    def test_inf_bounds_survive_closure(self):
        """INF entries stay INF — no NaN, no spurious finite bound."""
        net = TimePetriNet("inf")
        net.add_place("p", marking=1)
        net.add_place("q", marking=1)
        net.add_place("r")
        net.add_place("s")
        net.add_transition("never", TimeInterval.unbounded(1))
        net.add_transition("timed", TimeInterval(2, 5))
        net.add_arc("p", "never")
        net.add_arc("never", "r")
        net.add_arc("q", "timed")
        net.add_arc("timed", "s")
        compiled = net.compile()
        engine = StateClassEngine(compiled)
        initial = engine.initial_class()
        never = compiled.transition_index["never"]
        lower, upper = initial.bounds_of(never)
        assert (lower, upper) == (1, INF)
        for row in initial.dbm:
            for entry in row:
                assert entry == INF or (
                    isinstance(entry, int)
                    or float(entry).is_integer()
                ), f"non-integer finite bound {entry!r}"
                assert entry == entry, "NaN leaked into the DBM"
        # firing the timed transition keeps the unbounded one clean
        timed = compiled.transition_index["timed"]
        child = engine.fire(initial, timed)
        assert child.bounds_of(never)[1] == INF

    def test_reset_policy_changes_persistence(self):
        """A self-loop refill resets clocks only under 'intermediate'."""
        net = TimePetriNet("selfloop")
        net.add_place("shared", marking=1)
        net.add_place("out")
        net.add_place("done")
        # `loop` consumes and reproduces the shared token
        net.add_transition("loop", TimeInterval(1, 2))
        net.add_transition("other", TimeInterval(4, 6))
        net.add_arc("shared", "loop")
        net.add_arc("loop", "shared")
        net.add_arc("loop", "out")
        net.add_arc("shared", "other")
        net.add_arc("other", "done")
        compiled = net.compile()
        other = compiled.transition_index["other"]
        loop = compiled.transition_index["loop"]

        paper = StateClassEngine(compiled, reset_policy="paper")
        child = paper.fire(paper.initial_class(), loop)
        # paper policy: `other` persists (enabled before and after);
        # after `loop` fired within [1,2], its bounds shift
        assert child.bounds_of(other)[1] == 5  # 6 − 1

        inter = StateClassEngine(compiled, reset_policy="intermediate")
        child = inter.fire(inter.initial_class(), loop)
        # intermediate policy: the shared token transiently vanishes,
        # so `other` is newly enabled with its static interval
        assert child.bounds_of(other) == (4, 6)


class TestEngineConfiguration:
    def test_unknown_engine_rejected(self):
        with pytest.raises(SchedulingError):
            SchedulerConfig(engine="dbm")

    def test_stateclass_rejects_delay_enumeration(self):
        with pytest.raises(SchedulingError):
            SchedulerConfig(engine="stateclass", delay_mode="full")
        with pytest.raises(SchedulingError):
            SchedulerConfig(engine="stateclass", delay_mode="extremes")

    def test_worksteal_requires_kernel(self, fig3_model):
        with pytest.raises(SchedulingError):
            SchedulerConfig(
                engine="stateclass",
                parallel=2,
                parallel_mode="worksteal",
            )
        with pytest.raises(SchedulingError):
            ParallelScheduler(
                fig3_model.compiled(),
                SchedulerConfig(parallel=2, parallel_mode="worksteal"),
                engine="stateclass",
            )

    def test_scheduler_reads_engine_from_config(self, fig3_model):
        net = fig3_model.compiled()
        scheduler = PreRuntimeScheduler(
            net, SchedulerConfig(engine="stateclass")
        )
        assert scheduler.engine_mode == "stateclass"
        # an explicit argument overrides the config for the call
        scheduler = PreRuntimeScheduler(
            net,
            SchedulerConfig(engine="stateclass"),
            engine="kernel",
        )
        assert scheduler.engine_mode == "kernel"

    def test_stateclass_search_from_rejected(self, fig3_model):
        scheduler = PreRuntimeScheduler(
            fig3_model.compiled(), SchedulerConfig(engine="stateclass")
        )
        with pytest.raises(SchedulingError):
            scheduler.search_from(None, 0)


class TestSearchHooks:
    def test_budget_exhaustion_reports_exhausted(self):
        net = wide_interval_job_net(
            n_jobs=3, width=6, feasible=False
        ).compile()
        result = search(
            net, SchedulerConfig(engine="stateclass", max_states=10)
        )
        assert not result.feasible
        assert result.exhausted

    def test_tick_hook_cancels_the_search(self):
        # 5 jobs generate >2k expansions, so the 1024-expansion tick
        # boundary is crossed and the cancellation must abort the
        # (otherwise fully explorable) refutation as `exhausted`
        net = wide_interval_job_net(
            n_jobs=5, width=4, feasible=False
        ).compile()
        scheduler = PreRuntimeScheduler(
            net, SchedulerConfig(engine="stateclass")
        )
        ticks = []

        def tick(*counters):
            ticks.append(counters)
            return True

        scheduler.tick = tick
        result = scheduler.search()
        assert not result.feasible
        assert result.exhausted
        assert len(ticks) == 1

    @pytest.mark.parametrize(
        "policy", ["latest", "min-laxity", "random"]
    )
    def test_reorder_policies_keep_the_verdict(self, policy):
        model = compose(fig3_precedence())
        default = find_schedule(
            model, SchedulerConfig(engine="stateclass")
        )
        reordered = find_schedule(
            model,
            SchedulerConfig(
                engine="stateclass", policy=policy, policy_seed=3
            ),
        )
        assert reordered.feasible == default.feasible
        # the reordered schedule still replayed through the checked
        # engine (the search would have raised otherwise) and extracts
        schedule_from_result(model, reordered)

    def test_portfolio_race_accepts_stateclass(self):
        model = compose(fig3_precedence())
        result = find_schedule(
            model,
            SchedulerConfig(engine="stateclass", parallel=2),
        )
        assert result.feasible
        assert result.workers == 2
        # the winner's dense windows survive the worker handoff
        assert result.interval_schedule is not None
        assert len(result.interval_schedule) == result.schedule_length
        entries = dense_schedule_entries(result)
        assert all(e.earliest <= e.at <= e.latest for e in entries)
