"""Refactor-parity suite: the EngineAdapter core vs the old loops.

ISSUE 5 replaced the three engine-specific DFS loops
(``_search_reference`` / ``_search_fast`` / ``_search_stateclass``)
with one :class:`repro.scheduler.core.SearchCore` driving three
adapters.  Behaviour preservation is the refactor's contract, and this
suite pins it:

* the **paper models** and a **seeded task-set grid** (plus the
  wide-interval nets) run on every adapter under both clock-reset
  policies, and the verdicts, visited-state counts and all
  deterministic :class:`SearchStats` counters must equal the values
  captured from the pre-refactor loops (hard-coded below, measured at
  the commit that introduced the core);
* the two discrete adapters must produce **byte-identical schedules
  and counters** on every pinned workload — the exactness assertion
  the deleted ``_search_reference`` baseline loop used to embody (its
  unique property, folded into tests per the issue);
* a source-inspection test asserts the structural acceptance
  criterion: exactly one search loop, living in ``core.py``, with the
  duplicated ``_search_*``/``_candidates_*``/``_independent_immediate*``
  helpers gone from ``dfs.py``.

ISSUE 7 added the packed ``kernel`` adapter; as a discrete engine it
is pinned to the *same* pre-refactor expectations as the reference
adapter on every workload (its deeper native-vs-pure and fuzzing
coverage lives in ``tests/test_kernel_engine.py``).  The kernel meets
the pins twice: through its native search driver and on its pure-Python
core, the driver's executable spec and the ``EZRT_PURE=1`` path.
"""

from __future__ import annotations

import os

import pytest

from repro.blocks import compose
from repro.scheduler import PreRuntimeScheduler, SchedulerConfig
from repro.spec import paper_examples
from repro.tpn import _kernelc
from repro.workloads import random_task_set, wide_interval_job_net

RESETS = ("paper", "intermediate")
ENGINES = ("reference", "kernel", "stateclass")

#: Deterministic outcome of one pre-refactor search:
#: (feasible, states_visited, states_generated, revisits_skipped,
#:  deadline_prunes, backtracks, reductions, schedule_length, makespan)
#: — captured from the three engine-specific loops immediately before
#: the refactor, identical under both reset policies on these models.
PAPER_PIN = {
    ("fig3", "reference"): (True, 25, 24, 0, 0, 0, 5, 24, 285),
    ("fig3", "kernel"): (True, 25, 24, 0, 0, 0, 5, 24, 285),
    ("fig3", "stateclass"): (True, 25, 24, 0, 0, 0, 5, 24, 285),
    ("fig4", "reference"): (True, 143, 142, 0, 0, 0, 4, 142, 280),
    ("fig4", "kernel"): (True, 143, 142, 0, 0, 0, 4, 142, 280),
    ("fig4", "stateclass"): (True, 143, 142, 0, 0, 0, 4, 142, 280),
    ("fig8", "reference"): (True, 90, 89, 0, 0, 0, 5, 89, 34),
    ("fig8", "kernel"): (True, 90, 89, 0, 0, 0, 5, 89, 34),
    ("fig8", "stateclass"): (
        True, 2813, 3993, 1181, 0, 2723, 140, 89, 35,
    ),
    ("mine-pump", "reference"): (
        True, 3256, 3255, 0, 0, 125, 393, 3130, 29930,
    ),
    ("mine-pump", "kernel"): (
        True, 3256, 3255, 0, 0, 125, 393, 3130, 29930,
    ),
    ("mine-pump", "stateclass"): (
        True, 3131, 3130, 0, 0, 0, 363, 3130, 29930,
    ),
}

#: Seeded task-set grid + the wide-interval nets, same capture:
#: (feasible, exhausted, states_visited, states_generated, backtracks,
#:  reductions, deadline_prunes, revisits_skipped).
GRID_CASES = {
    "n2-u0.4-s0": (2, 0.4, 0),
    "n2-u0.8-s1": (2, 0.8, 1),
    "n3-u0.4-s2": (3, 0.4, 2),
    "n3-u0.8-s0": (3, 0.8, 0),
}
GRID_PIN = {
    ("n2-u0.4-s0", "reference"): (True, False, 31, 30, 0, 2, 0, 0),
    ("n2-u0.4-s0", "kernel"): (True, False, 31, 30, 0, 2, 0, 0),
    ("n2-u0.4-s0", "stateclass"): (True, False, 31, 30, 0, 2, 0, 0),
    ("n2-u0.8-s1", "reference"): (
        False, False, 120, 150, 119, 2, 0, 31,
    ),
    ("n2-u0.8-s1", "kernel"): (
        False, False, 120, 150, 119, 2, 0, 31,
    ),
    ("n2-u0.8-s1", "stateclass"): (
        False, False, 246, 268, 245, 2, 0, 23,
    ),
    ("n3-u0.4-s2", "reference"): (
        False, False, 165, 275, 164, 3, 0, 111,
    ),
    ("n3-u0.4-s2", "kernel"): (
        False, False, 165, 275, 164, 3, 0, 111,
    ),
    ("n3-u0.4-s2", "stateclass"): (
        False, False, 491, 685, 490, 3, 0, 195,
    ),
    ("n3-u0.8-s0", "reference"): (
        False, False, 252, 400, 251, 13, 0, 149,
    ),
    ("n3-u0.8-s0", "kernel"): (
        False, False, 252, 400, 251, 13, 0, 149,
    ),
    ("n3-u0.8-s0", "stateclass"): (
        False, False, 762, 1069, 761, 37, 0, 308,
    ),
}
WIDE_PIN = {
    (True, "reference"): (True, False, 10, 9, 0, 0, 0, 0),
    (True, "kernel"): (True, False, 10, 9, 0, 0, 0, 0),
    (True, "stateclass"): (True, False, 10, 9, 0, 0, 0, 0),
    (False, "reference"): (False, False, 68, 114, 67, 0, 0, 47),
    (False, "kernel"): (False, False, 68, 114, 67, 0, 0, 47),
    (False, "stateclass"): (False, False, 78, 135, 77, 0, 0, 58),
}


def _run(net, engine, reset_policy, **config_kwargs):
    config = SchedulerConfig(
        reset_policy=reset_policy, engine=engine, **config_kwargs
    )
    return PreRuntimeScheduler(net, config).search()


def _run_pure_kernel(monkeypatch, net, reset_policy, **config_kwargs):
    """The kernel search on its pure-Python core (``EZRT_PURE=1``):
    ``SearchCore`` over the per-step engine, the native driver's
    executable spec."""
    monkeypatch.setenv(_kernelc.PURE_ENV, "1")
    config = SchedulerConfig(
        reset_policy=reset_policy, engine="kernel", **config_kwargs
    )
    scheduler = PreRuntimeScheduler(net, config)
    assert not scheduler.adapter.engine.native
    return scheduler.search()


def _paper_outcome(result):
    stats = result.stats
    return (
        result.feasible,
        stats.states_visited,
        stats.states_generated,
        stats.revisits_skipped,
        stats.deadline_prunes,
        stats.backtracks,
        stats.reductions,
        result.schedule_length,
        result.makespan,
    )


def _grid_outcome(result):
    stats = result.stats
    return (
        result.feasible,
        result.exhausted,
        stats.states_visited,
        stats.states_generated,
        stats.backtracks,
        stats.reductions,
        stats.deadline_prunes,
        stats.revisits_skipped,
    )


@pytest.fixture(scope="module")
def paper_nets():
    return {
        name: compose(spec).compiled()
        for name, spec in paper_examples().items()
    }


class TestPaperModelPins:
    @pytest.mark.parametrize("reset_policy", RESETS)
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize(
        "model", ("fig3", "fig4", "fig8", "mine-pump")
    )
    def test_counters_match_pre_refactor(
        self, paper_nets, model, engine, reset_policy
    ):
        result = _run(paper_nets[model], engine, reset_policy)
        assert _paper_outcome(result) == PAPER_PIN[(model, engine)], (
            f"{model}/{engine}/{reset_policy} diverged from the "
            "pre-refactor loop"
        )

    @pytest.mark.parametrize("reset_policy", RESETS)
    @pytest.mark.parametrize(
        "model", ("fig3", "fig4", "fig8", "mine-pump")
    )
    def test_kernel_pins_hold_on_pure_fallback(
        self, paper_nets, monkeypatch, model, reset_policy
    ):
        """The kernel's pure core (the native driver's executable
        spec) meets the same pre-refactor pins as the driver."""
        result = _run_pure_kernel(
            monkeypatch, paper_nets[model], reset_policy
        )
        assert _paper_outcome(result) == PAPER_PIN[(model, "kernel")], (
            f"{model}/kernel/{reset_policy} pure fallback diverged "
            "from the pre-refactor loop"
        )

    @pytest.mark.parametrize("reset_policy", RESETS)
    @pytest.mark.parametrize(
        "model", ("fig3", "fig4", "fig8", "mine-pump")
    )
    def test_stateclass_pins_hold_on_pure_fallback(
        self, paper_nets, model, reset_policy
    ):
        """ISSUE 10 moved the dense-time adapter onto the packed
        :class:`repro.tpn.dbm.DbmEngine`; the pre-refactor stateclass
        pins must hold on its pure-Python fallback exactly as they do
        on the compiled core (the EZRT_PURE=1 CI lane)."""
        config = SchedulerConfig(
            reset_policy=reset_policy, engine="stateclass"
        )
        scheduler = PreRuntimeScheduler(paper_nets[model], config)
        scheduler.adapter.engine._core = None
        scheduler.adapter.engine.native = False
        result = scheduler.search()
        assert _paper_outcome(result) == PAPER_PIN[(model, "stateclass")], (
            f"{model}/stateclass/{reset_policy} pure fallback "
            "diverged from the pre-refactor loop"
        )

    @pytest.mark.parametrize("reset_policy", RESETS)
    @pytest.mark.parametrize(
        "model", ("fig3", "fig4", "fig8", "mine-pump")
    )
    def test_discrete_adapters_agree_exactly(
        self, paper_nets, model, reset_policy
    ):
        """The deleted baseline loop's exactness property, kept alive:
        the reference and kernel adapters produce byte-identical
        schedules and deterministic counters."""
        ref = _run(paper_nets[model], "reference", reset_policy)
        other = _run(paper_nets[model], "kernel", reset_policy)
        assert ref.firing_schedule == other.firing_schedule
        ref_stats = ref.stats.as_dict()
        other_stats = other.stats.as_dict()
        for key in ref.stats.WALL_CLOCK_KEYS:
            ref_stats.pop(key)
            other_stats.pop(key)
        assert ref_stats == other_stats, model


class TestSeededGridPins:
    @pytest.mark.parametrize("reset_policy", RESETS)
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("case", sorted(GRID_CASES))
    def test_grid_point(self, case, engine, reset_policy):
        n, u, seed = GRID_CASES[case]
        net = compose(
            random_task_set(n, u, seed=seed, deadline_slack=0.8)
        ).compiled()
        result = _run(
            net, engine, reset_policy, max_states=200_000
        )
        assert _grid_outcome(result) == GRID_PIN[(case, engine)], (
            f"{case}/{engine}/{reset_policy} diverged from the "
            "pre-refactor loop"
        )

    @pytest.mark.parametrize("reset_policy", RESETS)
    @pytest.mark.parametrize("case", sorted(GRID_CASES))
    def test_kernel_grid_point_on_pure_fallback(
        self, monkeypatch, case, reset_policy
    ):
        n, u, seed = GRID_CASES[case]
        net = compose(
            random_task_set(n, u, seed=seed, deadline_slack=0.8)
        ).compiled()
        result = _run_pure_kernel(
            monkeypatch, net, reset_policy, max_states=200_000
        )
        assert _grid_outcome(result) == GRID_PIN[(case, "kernel")], (
            f"{case}/kernel/{reset_policy} pure fallback diverged "
            "from the pre-refactor loop"
        )

    @pytest.mark.parametrize("reset_policy", RESETS)
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("feasible", (True, False))
    def test_wide_interval_nets(self, feasible, engine, reset_policy):
        net = wide_interval_job_net(feasible=feasible).compile()
        result = _run(net, engine, reset_policy)
        assert _grid_outcome(result) == WIDE_PIN[(feasible, engine)]

    @pytest.mark.parametrize("reset_policy", RESETS)
    @pytest.mark.parametrize("feasible", (True, False))
    def test_kernel_wide_interval_nets_on_pure_fallback(
        self, monkeypatch, feasible, reset_policy
    ):
        net = wide_interval_job_net(feasible=feasible).compile()
        result = _run_pure_kernel(monkeypatch, net, reset_policy)
        assert _grid_outcome(result) == WIDE_PIN[(feasible, "kernel")]


class TestSingleSearchLoop:
    """Structural acceptance criterion: one loop, in core.py."""

    def _source(self, name: str) -> str:
        import repro.scheduler as pkg

        path = os.path.join(os.path.dirname(pkg.__file__), name)
        with open(path, encoding="utf-8") as handle:
            return handle.read()

    def test_dfs_has_no_search_loop(self):
        source = self._source("dfs.py")
        assert "while stack" not in source
        for relic in (
            "_search_fast",
            "_search_reference",
            "_search_stateclass",
            "_candidates_fast",
            "_candidates_ref",
            "_candidates_stateclass",
            "_independent_immediate",
        ):
            assert relic not in source, (
                f"duplicated helper {relic} resurfaced in dfs.py"
            )

    def test_core_has_exactly_one_search_loop(self):
        source = self._source("core.py")
        assert source.count("while stack") == 1

    def test_every_engine_runs_through_the_core(self):
        from repro.scheduler.core import ADAPTERS, SearchCore

        assert set(ADAPTERS) == set(ENGINES)
        net = compose(paper_examples()["fig3"]).compiled()
        for engine in ENGINES:
            scheduler = PreRuntimeScheduler(
                net, SchedulerConfig(engine=engine)
            )
            assert scheduler.adapter.name == engine
            # the adapter satisfies the protocol surface SearchCore
            # drives (runtime-checkable structural check)
            from repro.scheduler.core import EngineAdapter

            assert isinstance(scheduler.adapter, EngineAdapter)
            assert SearchCore(
                scheduler.adapter, scheduler.config
            ).run().feasible
