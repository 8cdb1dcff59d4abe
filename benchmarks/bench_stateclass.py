"""Experiment SC1 — dense-time state-class engine vs discrete search.

Acceptance benchmark of ``PreRuntimeScheduler(engine="stateclass")``.
Two properties are measured and gated:

1. **States-explored reduction on the wide-interval family**
   (:func:`repro.workloads.wide_interval_family`): jobs released
   within wide windows ``[o, o + width]`` competing for one processor,
   with an unreachable final marking so both engines must sweep their
   entire space (an exhaustive refutation — the state counts are then
   directly comparable).  The complete discrete search
   (``engine="kernel"``, ``delay_mode="full"``) visits one state
   per integer clock valuation, growing with ``width``; the class
   graph covers a whole window with one DBM and stays
   width-independent.  The gate asserts a
   :data:`MIN_STATES_REDUCTION`× reduction on every family member.

2. **Verdict equivalence on the paper models**: the dense engine must
   return the serial discrete verdict on every paper case study, and
   every feasible dense schedule is concretised to integer firing
   times and replayed through the checked reference engine (the
   replay runs inside the engine — a divergence raises instead of
   returning).

Results land in ``BENCH_stateclass.json`` at the repository root
(:func:`harness.write_bench`: states only, the bench times nothing);
CI uploads it as an artifact, so the reduction trajectory is tracked
PR over PR.
"""

from __future__ import annotations

from harness import gate, row, write_bench
from repro.blocks import compose
from repro.scheduler import SchedulerConfig, find_schedule
from repro.scheduler.dfs import search
from repro.spec import (
    fig3_precedence,
    fig4_exclusion,
    fig8_preemptive,
    mine_pump,
)
from repro.workloads import wide_interval_family, wide_interval_job_net

#: Acceptance gate (ISSUE 4): on every wide-interval family member the
#: state-class engine must explore at least this factor fewer states
#: than the complete discrete search.  Measured 2.7-5.2x at widths
#: 4-8; 2.0 is the floor the issue demands.
MIN_STATES_REDUCTION = 2.0

WIDTHS = (4, 6, 8)


def _state_rows(workload, dense, discrete):
    return [
        row(workload, "warm", "search", "stateclass",
            states=dense.stats.states_visited),
        row(workload, "warm", "search", "kernel",
            states=discrete.stats.states_visited),
    ]


def test_stateclass_engine(report):
    rows, gates = [], []
    # exhaustive refutations: full state-space sizes, both engines
    for label, net in wide_interval_family(widths=WIDTHS):
        compiled = net.compile()
        dense = search(compiled, SchedulerConfig(engine="stateclass"))
        discrete = search(
            compiled, SchedulerConfig(engine="kernel", delay_mode="full")
        )
        assert not dense.feasible and not dense.exhausted, (
            f"{label}: dense refutation did not complete"
        )
        assert not discrete.feasible and not discrete.exhausted, (
            f"{label}: discrete refutation did not complete"
        )
        rows += _state_rows(f"wide:{label}", dense, discrete)
        reduction = (
            discrete.stats.states_visited / dense.stats.states_visited
        )
        report(
            "SC1",
            f"{label} states dense/discrete",
            f">= {MIN_STATES_REDUCTION}x fewer",
            f"{dense.stats.states_visited}/"
            f"{discrete.stats.states_visited} ({reduction:.1f}x)",
        )
        gates.append(
            gate(f"states_reduction:{label}", MIN_STATES_REDUCTION,
                 reduction, reduction >= MIN_STATES_REDUCTION)
        )

    # verdict parity + reference replay on the paper case studies
    for spec in (
        fig3_precedence(),
        fig4_exclusion(),
        fig8_preemptive(),
        mine_pump(),
    ):
        model = compose(spec)
        dense = find_schedule(
            model, SchedulerConfig(engine="stateclass")
        )
        discrete = find_schedule(model, SchedulerConfig())
        assert dense.feasible == discrete.feasible, (
            f"{spec.name}: dense verdict diverged from discrete"
        )
        rows += _state_rows(f"paper:{spec.name}", dense, discrete)
        report(
            "SC1",
            f"{spec.name} verdict parity",
            "feasible" if dense.feasible else "infeasible",
            f"ok ({dense.stats.states_visited} classes)",
        )

    # a feasible family member exercises concretisation end to end
    feasible_net = wide_interval_job_net(feasible=True).compile()
    feasible = search(
        feasible_net, SchedulerConfig(engine="stateclass")
    )
    assert feasible.feasible and feasible.interval_schedule

    write_bench("stateclass", rows, gates)
