"""Canned case-study specifications from the paper.

* :func:`mine_pump` — the Section-5 case study (Table 1): a simplified
  pump-control system for a mining environment, 10 periodic tasks,
  schedule period 30 000, 782 task instances;
* :func:`fig3_precedence` — the two-task precedence illustration of
  Fig. 3 (T1 PRECEDES T2; timing read off the figure's intervals);
* :func:`fig4_exclusion` — the two-task preemptive exclusion
  illustration of Fig. 4 (T0 EXCLUDES T2; computation times 10 and 20
  appear in the figure as the weight-``c`` arcs);
* :func:`fig8_preemptive` — a four-task preemptive set whose
  synthesised schedule table has the shape of Fig. 8 (two instances of
  A/B/C, one of D, multiple preemptions and resumes).  The paper does
  not give this example's parameters; these are reverse-engineered and
  recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import SpecificationError
from repro.spec.builder import SpecBuilder
from repro.spec.model import EzRTSpec

#: Table 1 rows: (task, computation, deadline, period).
MINE_PUMP_TABLE1 = (
    ("PMC", 10, 20, 80),
    ("WFC", 15, 500, 500),
    ("RLWH", 1, 1000, 1000),
    ("CH4H", 25, 500, 500),
    ("CH4S", 5, 100, 500),
    ("COH", 15, 100, 2500),
    ("AFH", 15, 200, 6000),
    ("WFH", 15, 300, 500),
    ("PDL", 15, 500, 500),
    ("SDL", 10, 500, 500),
)

#: Default task bodies for the mine-pump code generation demo.  The
#: paper's behavioural specification is C source per task; these bodies
#: exercise the generated dispatcher with representative I/O stubs.
MINE_PUMP_SOURCES = {
    "PMC": "pump_motor_control();",
    "WFC": "water_flow_check();",
    "RLWH": "read_low_water_handler();",
    "CH4H": "methane_high_handler();",
    "CH4S": "methane_sensor_sample();",
    "COH": "carbon_monoxide_handler();",
    "AFH": "air_flow_handler();",
    "WFH": "water_flow_handler();",
    "PDL": "pump_data_logger();",
    "SDL": "sensor_data_logger();",
}


def mine_pump(with_sources: bool = True) -> EzRTSpec:
    """The mine-pump case study (Table 1), non-preemptive.

    All ten tasks arrive at time zero ("at the beginning, all 10 tasks
    arrive at the same time"), with release time and phase zero.
    """
    builder = SpecBuilder("mine-pump").processor("proc0")
    for name, computation, deadline, period in MINE_PUMP_TABLE1:
        builder.task(
            name,
            computation=computation,
            deadline=deadline,
            period=period,
            scheduling="NP",
            code=MINE_PUMP_SOURCES[name] if with_sources else None,
        )
    return builder.build()


def fig3_precedence() -> EzRTSpec:
    """Fig. 3: T1 PRECEDES T2, non-preemptive, schedule period 500.

    Intervals in the figure: ``tr1 [0, 85]``, ``tc1 [15, 15]``,
    ``td1 [100, 100]`` and ``tr2 [0, 130]``, ``tc2 [20, 20]``,
    ``td2 [150, 150]``, with both arrival periods ``[250, 250]`` and the
    weight-2 arrival arc implying two instances per task (PS = 500).
    """
    return (
        SpecBuilder("fig3-precedence")
        .processor("proc0")
        .task("T1", computation=15, deadline=100, period=250,
              scheduling="NP")
        .task("T2", computation=20, deadline=150, period=250,
              scheduling="NP")
        # A third, long-period background task stretches the schedule
        # period to 500 so the arrival arc weight matches the figure's 2.
        .task("T3", computation=1, deadline=500, period=500,
              scheduling="NP")
        .precedence("T1", "T2")
        .build()
    )


def fig4_exclusion() -> EzRTSpec:
    """Fig. 4: T0 EXCLUDES T2, both preemptive, schedule period 500.

    Intervals in the figure: ``tr0 [0, 90]``, ``td0 [100, 100]``,
    ``tc0 [1, 1]`` with weight-10 arcs (c0 = 10); ``tr2 [0, 130]``,
    ``td2 [150, 150]``, ``tc2 [1, 1]`` with weight-20 arcs (c2 = 20).
    """
    return (
        SpecBuilder("fig4-exclusion")
        .processor("proc0")
        .task("T0", computation=10, deadline=100, period=250,
              scheduling="P")
        .task("T2", computation=20, deadline=150, period=250,
              scheduling="P")
        .task("T4", computation=1, deadline=500, period=500,
              scheduling="NP")
        .exclusion("T0", "T2")
        .build()
    )


def fig8_preemptive() -> EzRTSpec:
    """A preemptive set reproducing the shape of Fig. 8's table.

    Deadline-monotonic urgency order D > C > B > A produces the
    figure's nesting: B preempts A, C preempts B, D preempts B, with
    second instances of A, B and C and a single instance of D inside
    the 34-unit schedule period.
    """
    return (
        SpecBuilder("fig8-preemptive")
        .processor("proc0")
        .task("TaskA", computation=8, deadline=17, period=17, phase=1,
              scheduling="P")
        .task("TaskB", computation=6, deadline=9, period=17, phase=4,
              scheduling="P")
        .task("TaskC", computation=2, deadline=3, period=17, phase=6,
              scheduling="P")
        .task("TaskD", computation=1, deadline=2, period=34, phase=10,
              scheduling="P")
        .build()
    )


#: every canned spec's short identifier (the CLI's ``@name``) and its
#: builder, in listing order
EXAMPLES: dict[str, Callable[[], EzRTSpec]] = {
    "mine-pump": mine_pump,
    "fig3": fig3_precedence,
    "fig4": fig4_exclusion,
    "fig8": fig8_preemptive,
}


def paper_example(name: str) -> EzRTSpec:
    """Build the one canned spec named ``name``."""
    builder = EXAMPLES.get(name)
    if builder is None:
        raise SpecificationError(
            f"unknown built-in spec {name!r}; available: {sorted(EXAMPLES)}"
        )
    return builder()


def paper_examples() -> dict[str, EzRTSpec]:
    """All canned specs keyed by a short identifier."""
    return {name: builder() for name, builder in EXAMPLES.items()}
