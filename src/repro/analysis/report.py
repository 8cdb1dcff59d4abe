"""Textual reporting of the whole pipeline outcome.

``full_report`` assembles what the paper's Section 5 narrates for the
mine pump — specification summary, model size, search statistics
(instances, states visited vs. minimum, time), schedule quality and
utilisation analysis — into one printable document.  The CLI's
``report`` command and several examples use it.
"""

from __future__ import annotations

from repro.analysis.gantt import render_gantt
from repro.analysis.utilization import (
    liu_layland_bound,
    total_utilization,
)
from repro.blocks.composer import ComposedModel
from repro.scheduler.result import SchedulerResult
from repro.scheduler.schedule import (
    TaskLevelSchedule,
    dense_schedule_entries,
    format_dense_schedule,
)
from repro.spec.timing import check_harmonic
from repro.tpn.interval import INF


def spec_report(model: ComposedModel) -> str:
    """Specification and model-size summary."""
    spec = model.spec
    stats = model.net.stats()
    lines = [
        f"specification    : {spec.name}",
        f"tasks            : {len(spec.tasks)} "
        f"({sum(t.is_preemptive for t in spec.tasks)} preemptive)",
        f"relations        : {len(spec.precedence_pairs())} precedence, "
        f"{len(spec.exclusion_pairs())} exclusion, "
        f"{len(spec.messages)} message(s)",
        f"schedule period  : {model.schedule_period}"
        f"{' (harmonic)' if check_harmonic([t.period for t in spec.tasks]) else ''}",
        f"task instances   : {model.total_instances}",
        f"utilisation      : {total_utilization(spec):.3f} "
        f"(RM bound {liu_layland_bound(len(spec.tasks)):.3f})",
        f"TPN model        : {stats['places']} places, "
        f"{stats['transitions']} transitions, {stats['arcs']} arcs",
        f"block style      : {model.options.style.value}, "
        f"priorities {model.options.priority_policy}",
    ]
    return "\n".join(lines)


def search_report(result: SchedulerResult) -> str:
    """Search outcome in the paper's Section-5 format."""
    return result.summary()


def schedule_report(
    model: ComposedModel,
    schedule: TaskLevelSchedule,
    gantt: bool = False,
    gantt_window: int | None = None,
) -> str:
    """Schedule quality: makespan, load, responses, optional Gantt."""
    busy = schedule.busy_time()
    lines = [
        f"table entries    : {len(schedule.items)}",
        f"makespan         : {schedule.makespan}",
        f"processor busy   : {busy} "
        f"({100.0 * busy / model.schedule_period:.1f}% of PS)",
    ]
    responses = schedule.response_times(model)
    worst = ", ".join(
        f"{task}={value}" for task, value in sorted(responses.items())
    )
    lines.append(f"worst responses  : {worst}")
    if gantt:
        window = gantt_window or min(model.schedule_period, 720)
        lines.append("")
        lines.append(
            render_gantt(model, schedule.segments, 0, window)
        )
    return "\n".join(lines)


def interval_slack_report(
    result: SchedulerResult, limit: int | None = None
) -> str:
    """Dense-window table with per-firing slack (stateclass engine).

    For every firing of a state-class result the table shows the
    concrete integer firing time, the absolute dense window
    ``[earliest, latest]`` it was picked from and the firing's
    **slack** — ``latest − earliest``, the scheduling freedom the
    dense run leaves at that step (``inf`` when nothing ever forces
    it).  A rigid firing (slack 0) is pinned by the model; positive
    slack marks where a deployment could still shift work (jitter
    absorption, energy idling) without breaking any constraint.  The
    summary line totals the finite slack so schedules can be compared
    by how much freedom they retain.  Rendered by ``ezrt schedule
    --engine stateclass --profile``.
    """
    entries = dense_schedule_entries(result)
    lines = [format_dense_schedule(entries, limit=limit, slack=True)]
    finite = [
        int(e.latest) - e.earliest for e in entries if e.latest != INF
    ]
    unbounded = len(entries) - len(finite)
    total = (
        f"total slack      : {sum(finite)} time unit(s) over "
        f"{len(entries)} firing(s)"
    )
    if unbounded:
        total += f", {unbounded} unbounded"
    lines.append(total)
    return "\n".join(lines)


def campaign_report(rows: list[dict], stats: dict) -> str:
    """Aggregate report of a batch synthesis campaign.

    Works on the engine's plain JSONL rows and stats dict (not the
    batch dataclasses, so :mod:`repro.analysis` stays import-free of
    :mod:`repro.batch`): status totals, a feasibility-rate matrix over
    the swept ``(n_tasks, utilization)`` grid for rows that carry
    campaign metadata, throughput and cache accounting.
    """
    lines = [
        f"jobs             : {stats.get('total', len(rows))} "
        f"({stats.get('workers', 1)} worker(s))",
        f"outcomes         : {stats.get('feasible', 0)} feasible, "
        f"{stats.get('infeasible', 0)} infeasible, "
        f"{stats.get('timeout', 0)} timeout, "
        f"{stats.get('error', 0)} error",
        f"wall time        : {stats.get('wall_seconds', 0.0):.2f} s "
        f"({stats.get('jobs_per_second', 0.0):.1f} jobs/s, "
        f"overlap {stats.get('speedup', 0.0):.1f}x)",
    ]
    looked_up = stats.get("cache_hits", 0) + stats.get("cache_misses", 0)
    if looked_up:
        lines.append(
            f"result cache     : {stats.get('cache_hits', 0)} hit(s), "
            f"{stats.get('cache_misses', 0)} miss(es) "
            f"({100.0 * stats.get('hit_rate', 0.0):.0f}% hit rate)"
            + (
                f", {stats['cache_bytes']:,} byte(s) served"
                if stats.get("cache_bytes")
                else ""
            )
        )
    if stats.get("deduplicated"):
        lines.append(
            f"deduplicated     : {stats['deduplicated']} repeated "
            "job(s) within the batch"
        )
    if stats.get("prelint_rejected"):
        lines.append(
            f"lint-rejected    : {stats['prelint_rejected']} "
            "trivially-infeasible job(s) diagnosed without a search"
        )
    # feasibility matrix over the swept grid
    cells: dict[tuple[int, float], list[bool]] = {}
    for row in rows:
        meta = row.get("meta") or {}
        if "n_tasks" not in meta or "utilization" not in meta:
            continue
        key = (meta["n_tasks"], meta["utilization"])
        cells.setdefault(key, []).append(
            row.get("status") == "feasible"
        )
    if cells:
        utilizations = sorted({u for _n, u in cells})
        labels = [f"U={u:g}" for u in utilizations]
        width = max(5, *(len(label) for label in labels))
        lines.append("")
        lines.append(
            "feasible/point   : "
            + "  ".join(label.ljust(width) for label in labels)
        )
        for n in sorted({n for n, _u in cells}):
            entries = []
            for u in utilizations:
                verdicts = cells.get((n, u))
                if verdicts is None:
                    entries.append("-".ljust(width))
                else:
                    entries.append(
                        f"{sum(verdicts)}/{len(verdicts)}".ljust(width)
                    )
            lines.append(f"  n={n:<4}         : " + "  ".join(entries))
    return "\n".join(lines)


def full_report(
    model: ComposedModel,
    result: SchedulerResult,
    schedule: TaskLevelSchedule | None = None,
    gantt: bool = False,
) -> str:
    """The complete pipeline report."""
    sections = [
        "== specification ==",
        spec_report(model),
        "",
        "== pre-runtime search ==",
        search_report(result),
    ]
    if schedule is not None:
        sections.extend(
            [
                "",
                "== synthesised schedule ==",
                schedule_report(model, schedule, gantt=gantt),
            ]
        )
    return "\n".join(sections)
