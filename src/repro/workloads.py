"""Synthetic workload generation for scaling studies.

The paper evaluates on one case study; the scaling benches sweep the
search over synthetic task sets produced here.  Generation follows the
standard recipe of the real-time literature:

* utilisations by the UUniFast algorithm (Bini/Buttazzo), which samples
  uniformly from the simplex ``Σ U_i = U``;
* periods drawn from a divisor-friendly grid so hyper-periods stay
  bounded (pre-runtime scheduling explodes with the LCM, a property the
  benches surface deliberately);
* computation ``c_i = max(1, round(U_i · p_i))``, constrained deadlines
  sampled in ``[c_i + slack, p_i]``.

Everything is deterministic given the ``seed``.
"""

from __future__ import annotations

import random

from repro.errors import SpecificationError
from repro.spec.builder import SpecBuilder
from repro.spec.model import EzRTSpec
from repro.tpn.interval import TimeInterval
from repro.tpn.net import TimePetriNet

#: Divisor-friendly period grid (pairwise LCM ≤ 6000).
PERIOD_GRID = (20, 25, 40, 50, 100, 125, 200, 250, 500, 1000)


def uunifast(
    n: int, total_utilization: float, rng: random.Random
) -> list[float]:
    """UUniFast: ``n`` utilisations summing to ``total_utilization``."""
    if n < 1:
        raise SpecificationError("need at least one task")
    if not 0.0 < total_utilization <= 1.0:
        raise SpecificationError(
            "total utilisation must be in (0, 1] for one processor"
        )
    utilizations = []
    remaining = total_utilization
    for i in range(1, n):
        next_sum = remaining * rng.random() ** (1.0 / (n - i))
        utilizations.append(remaining - next_sum)
        remaining = next_sum
    utilizations.append(remaining)
    return utilizations


def random_task_set(
    n_tasks: int,
    total_utilization: float = 0.5,
    seed: int = 0,
    preemptive_fraction: float = 0.0,
    deadline_slack: float = 1.0,
    period_grid: tuple[int, ...] = PERIOD_GRID,
    name: str | None = None,
) -> EzRTSpec:
    """Generate a schedulable-looking random specification.

    ``deadline_slack`` scales deadlines between the minimum feasible
    (``c``) and the period: 1.0 gives implicit deadlines (``d = p``),
    smaller values tighten them.
    """
    if not 0.0 <= preemptive_fraction <= 1.0:
        raise SpecificationError(
            "preemptive fraction must be within [0, 1]"
        )
    if not 0.0 < deadline_slack <= 1.0:
        raise SpecificationError("deadline slack must be in (0, 1]")
    rng = random.Random(seed)
    utilizations = uunifast(n_tasks, total_utilization, rng)
    builder = SpecBuilder(
        name or f"random-u{total_utilization:.2f}-n{n_tasks}-s{seed}"
    ).processor("proc0")
    for index, utilization in enumerate(utilizations):
        period = rng.choice(period_grid)
        computation = max(1, round(utilization * period))
        computation = min(computation, period)
        minimum_deadline = computation
        deadline = minimum_deadline + round(
            deadline_slack * (period - minimum_deadline)
        )
        deadline = max(computation, min(deadline, period))
        preemptive = rng.random() < preemptive_fraction
        builder.task(
            f"T{index}",
            computation=computation,
            deadline=deadline,
            period=period,
            scheduling="P" if preemptive else "NP",
        )
    return builder.build()


def time_scaled_task_set(
    spec: EzRTSpec, scale: int, name: str | None = None
) -> EzRTSpec:
    """Multiply every timing attribute of a specification by ``scale``.

    Time-scaling preserves the scheduling *structure* — the same
    tasks, relations, messages and processor assignments, so the same
    grant decisions arise in the same order — while multiplying the
    number of timed states roughly linearly.  This is the knob the
    parallel benches use to grow an instance until process startup
    noise is negligible.  Timing fields scale (computation, deadline,
    period, release, phase, message communication); structure
    (precedence/exclusion relations, energy, source code, bus grants)
    carries over unchanged.
    """
    if scale < 1:
        raise SpecificationError("scale must be >= 1")
    builder = SpecBuilder(
        name or f"{spec.name}-x{scale}", disp_oveh=spec.disp_oveh
    )
    for processor in spec.processors:
        builder.processor(processor.name)
    for task in spec.tasks:
        builder.task(
            task.name,
            computation=task.computation * scale,
            deadline=task.deadline * scale,
            period=task.period * scale,
            release=task.release * scale,
            phase=task.phase * scale,
            scheduling=task.scheduling,
            energy=task.energy,
            processor=task.processor,
            code=task.code.content if task.code else None,
        )
    exclusions: set[tuple[str, str]] = set()
    for task in spec.tasks:
        for after in task.precedes_tasks:
            builder.precedence(task.name, after)
        for other in task.excludes_tasks:
            exclusions.add(tuple(sorted((task.name, other))))
    for first, second in sorted(exclusions):
        builder.exclusion(first, second)
    for message in spec.messages:
        builder.message(
            message.name,
            sender=message.sender,
            receiver=message.precedes,
            communication=message.communication * scale,
            bus=message.bus,
            grant_bus=message.grant_bus * scale,
        )
    return builder.build()


def hard_portfolio_task_set(scale: int = 2) -> EzRTSpec:
    """The portfolio bench's hard model: feasible but order-hostile.

    A fully preemptive five-task set at utilisation 0.85 with tight
    deadlines (``random_task_set(5, 0.85, seed=7,
    preemptive_fraction=1.0, deadline_slack=0.7)``), time-scaled ×2 by
    default.  Preemption points make every grant a genuine branch, and
    on this instance the default ``(delay, priority, index)`` ordering
    commits to early decisions it can only refute hundreds of
    thousands of states later, while alternative orderings (seeded
    shuffles in particular) reach a schedule in a few thousand states
    — the heavy-tailed gap the portfolio race exploits.
    """
    base = random_task_set(
        5,
        0.85,
        seed=7,
        preemptive_fraction=1.0,
        deadline_slack=0.7,
    )
    return time_scaled_task_set(
        base, scale, name=f"portfolio-hard-x{scale}"
    )


def wide_interval_job_net(
    n_jobs: int = 3,
    width: int = 6,
    computations: tuple[int, ...] = (1, 2, 2),
    release_offsets: tuple[int, ...] = (0, 1, 2),
    feasible: bool = True,
    name: str | None = None,
) -> TimePetriNet:
    """A job-shop TPN whose release transitions have *wide* intervals.

    This is the workload family the dense-time state-class engine is
    built for.  ``n_jobs`` one-shot jobs share a single processor:
    each job is released within a wide window
    ``[offset_i, offset_i + width]``, grabs the processor through an
    immediate grant, computes for ``computations[i]`` time units and
    releases it.  The desired final marking is "every job done, the
    processor returned".

    The discrete-time TLTS of this net grows with ``width`` — every
    integer release time is a distinct clock valuation — while the
    state-class graph is *width-independent* (one DBM covers a whole
    release window), which is exactly the states-explored gap
    ``benchmarks/bench_stateclass.py`` gates on.

    ``feasible=False`` adds an unreachable sentinel place to the final
    marking, turning the synthesis into an exhaustive refutation: both
    engines must then sweep their entire space, making the state
    counts directly comparable.
    """
    if n_jobs < 1:
        raise SpecificationError("need at least one job")
    if width < 0:
        raise SpecificationError("release window width must be >= 0")
    net = TimePetriNet(
        name or f"wide-interval-n{n_jobs}-w{width}"
    )
    net.add_place("proc", marking=1)
    for i in range(n_jobs):
        computation = computations[i % len(computations)]
        offset = release_offsets[i % len(release_offsets)]
        net.add_place(f"ready{i}", marking=1)
        net.add_place(f"pend{i}")
        net.add_place(f"run{i}")
        net.add_place(f"done{i}")
        net.add_transition(
            f"release{i}", TimeInterval(offset, offset + width)
        )
        net.add_transition(f"grant{i}", TimeInterval(0, 0))
        net.add_transition(
            f"compute{i}", TimeInterval(computation, computation)
        )
        net.add_arc(f"ready{i}", f"release{i}")
        net.add_arc(f"release{i}", f"pend{i}")
        net.add_arc(f"pend{i}", f"grant{i}")
        net.add_arc("proc", f"grant{i}")
        net.add_arc(f"grant{i}", f"run{i}")
        net.add_arc(f"run{i}", f"compute{i}")
        net.add_arc(f"compute{i}", f"done{i}")
        net.add_arc(f"compute{i}", "proc")
    final = {f"done{i}": 1 for i in range(n_jobs)}
    final["proc"] = 1
    if not feasible:
        net.add_place("never")
        final["never"] = 1
    net.set_final_marking(final)
    return net


def wide_interval_race_net(
    n_jobs: int = 4, width: int = 112
) -> TimePetriNet:
    """The mixed-engine portfolio bench's wide-interval race model.

    An exhaustively-infeasible :func:`wide_interval_job_net` sized so
    the two engine families genuinely diverge: under a delay-
    enumerating discrete search (``delay_mode="full"``) the integer
    state space grows with the release-window ``width``, while the
    state-class graph stays width-independent — so a
    ``stateclass:earliest`` portfolio slot reaches the definitive
    infeasible verdict well before the discrete slots even on a
    single time-shared core.  The default ``width`` is the smallest
    (in steps of 8) at which the native kernel's serial full-delay
    sweep takes at least 5× the state-class search: ~27 ms against
    ~5 ms on a 2-vCPU x86-64 host.  One definition shared by
    ``benchmarks/bench_parallel_dfs.py`` and
    :func:`repro.scheduler.adaptive.bench_model_families`, so the
    recorded winner statistics warm-start the same fingerprint a live
    race computes.
    """
    return wide_interval_job_net(
        n_jobs=n_jobs,
        width=width,
        computations=(1, 2, 2, 3),
        release_offsets=(0, 1, 2, 3),
        feasible=False,
        name=f"wide-race-n{n_jobs}-w{width}",
    )


def wide_interval_family(
    widths: tuple[int, ...] = (4, 6, 8),
    n_jobs: int = 3,
    feasible: bool = False,
):
    """The bench's wide-interval sweep: one net per window width.

    Yields ``(label, TimePetriNet)`` pairs with every non-width
    parameter held fixed, so state counts across the family isolate
    the cost of interval width alone.
    """
    for width in widths:
        yield (
            f"n{n_jobs}-w{width}",
            wide_interval_job_net(
                n_jobs=n_jobs, width=width, feasible=feasible
            ),
        )


def campaign_task_sets(
    n_tasks_values,
    utilizations,
    seeds,
    preemptive_fraction: float = 0.0,
    deadline_slack: float = 1.0,
    period_grid: tuple[int, ...] = PERIOD_GRID,
):
    """Deterministic ``(params, spec)`` sweep over a campaign grid.

    Iterates the cartesian product ``n_tasks × utilization × seed`` in
    stable nested order (outermost varies slowest), yielding the
    parameter dict alongside the generated specification — the raw
    material of :func:`repro.batch.run_campaign`.  Everything is
    deterministic given the grid, so two sweeps of the same grid
    produce identical specifications (up to auto-assigned ``ez...``
    identifiers, which the batch cache ignores).
    """
    for n_tasks in n_tasks_values:
        for utilization in utilizations:
            for seed in seeds:
                params = {
                    "n_tasks": n_tasks,
                    "utilization": utilization,
                    "seed": seed,
                }
                yield params, random_task_set(
                    n_tasks,
                    utilization,
                    seed=seed,
                    preemptive_fraction=preemptive_fraction,
                    deadline_slack=deadline_slack,
                    period_grid=period_grid,
                )


def random_task_set_with_relations(
    n_tasks: int,
    total_utilization: float = 0.4,
    seed: int = 0,
    precedence_pairs: int = 1,
    exclusion_pairs: int = 1,
    name: str | None = None,
) -> EzRTSpec:
    """Random set with precedence chains and exclusion pairs.

    Precedence requires equal periods, so related tasks are forced onto
    a common period before relations are drawn.
    """
    rng = random.Random(seed)
    spec = random_task_set(
        n_tasks,
        total_utilization,
        seed=seed,
        name=name
        or f"random-rel-n{n_tasks}-s{seed}",
    )
    names = list(spec.task_names())
    # equalise periods of the first 2 * precedence_pairs tasks
    added_prec = 0
    for i in range(precedence_pairs):
        if 2 * i + 1 >= len(names):
            break
        before = spec.task(names[2 * i])
        after = spec.task(names[2 * i + 1])
        common = max(before.period, after.period)
        for task in (before, after):
            task.period = common
            task.deadline = min(task.deadline, common)
            if task.deadline < task.computation:
                task.deadline = task.computation
        spec.add_precedence(before.name, after.name)
        added_prec += 1
    added_excl = 0
    attempts = 0
    while added_excl < exclusion_pairs and attempts < 50:
        attempts += 1
        a, b = rng.sample(names, 2)
        pair = tuple(sorted((a, b)))
        if pair in {tuple(sorted(p)) for p in spec.exclusion_pairs()}:
            continue
        if (a, b) in spec.precedence_pairs() or (
            b,
            a,
        ) in spec.precedence_pairs():
            continue
        spec.add_exclusion(a, b)
        added_excl += 1
    return spec
