"""The ezRealtime building blocks (paper Figs. 1 and 2, Section 3.3.1).

Tasks are modelled by composing seven block types into one net:

* **fork** — ``t_start [0,0]`` scatters the initial token to every
  task's start place (models the simultaneous system start);
* **join** — ``t_end [0,0]`` gathers ``N(t_i)`` completion tokens from
  every task (arc weight ``N(t_i)``); a marked ``p_end`` is the final
  marking ``M_F`` of Definition 3.2;
* **periodic task arrival** — ``t_ph [ph, ph]`` releases the first
  instance after the phase and deposits ``N−1`` budget tokens on
  ``p_wa`` (the figure's weight ``a_i``); ``t_a [p, p]`` converts one
  budget token per period into a new arrival.  Every arrival marks the
  release queue ``p_wr`` *and* the deadline timer ``p_wd``;
* **deadline checking** — ``t_d [d, d]`` moves the ``p_wd`` token to the
  undesirable ``p_dm`` (deadline-missed) place unless the instance's
  completion consumed it first;
* **non-preemptive task structure** — release ``t_r [r, d−c]``, grant
  ``t_g [0,0]`` (acquires the processor), computation ``t_c [c, c]``
  (releases the processor);
* **preemptive task structure** — the computation is split into ``c``
  unit subtasks: ``t_r`` deposits ``c`` grant tokens (the figure's
  weight-``c`` arc), each ``t_g [0,0]`` / ``t_c [1,1]`` pair executes
  one time unit and frees the processor, and ``t_f`` collects ``c``
  completed units (weight-``c`` arc);
* **processor** — a single-token resource place used mutually
  exclusively by all grants.

Two *styles* are generated (see DESIGN.md, "state counting"):

* ``COMPACT`` (default) folds the finish/deadline-cancel bookkeeping
  into the computation's last firing, so a non-preemptive instance
  costs exactly 4 firings (arrival, release, grant, computation) — this
  reproduces the paper's "minimum number of states" 3130 = 4·782 + 2
  for the mine pump;
* ``EXPANDED`` keeps the figures' separate ``t_f`` (finish) and
  ``t_pc`` (deadline-timer cancellation) transitions, matching the
  drawn structure of Figs. 2–4 node for node.
"""

from __future__ import annotations

import re
from enum import Enum

from repro._record import Record
from repro.errors import NetConstructionError
from repro.spec.model import Task
from repro.tpn.interval import TimeInterval
from repro.tpn.net import (
    ROLE_ARRIVAL,
    ROLE_COMPUTE,
    ROLE_DEADLINE_MISS,
    ROLE_DEADLINE_OK,
    ROLE_FINISH,
    ROLE_FORK,
    ROLE_GRANT,
    ROLE_JOIN,
    ROLE_PHASE,
    ROLE_RELEASE,
    TimePetriNet,
)

#: Priority assigned to deadline-miss transitions: they must lose every
#: tie against completion transitions so that finishing exactly at the
#: deadline counts as meeting it.
DEADLINE_MISS_PRIORITY = 1_000_000

#: Default priority of structural transitions that should linearise
#: deterministically (fork, join, phase, arrival, finish, cancel).
STRUCTURAL_PRIORITY = 0

#: Default priority of release transitions.
RELEASE_PRIORITY = 1

#: Default priority of arrival transitions (``t_ph``, ``t_a``).  Kept
#: *after* the finish/cancel transitions (priority 0) so that when an
#: instance completes at the very instant the next one arrives, the
#: completion bookkeeping is tried first and the deadline timer resets.
ARRIVAL_PRIORITY = 2

#: Default priority band for scheduling-decision transitions (grant,
#: lock); the priority policy overwrites these per task.
DECISION_PRIORITY = 100


class BlockStyle(Enum):
    """Block library flavour (see module docstring)."""

    COMPACT = "compact"
    EXPANDED = "expanded"


_SANITISE_RE = re.compile(r"[^A-Za-z0-9_]")


def sanitize(name: str) -> str:
    """Make a task/processor name safe for use inside node names."""
    cleaned = _SANITISE_RE.sub("_", name)
    if not cleaned:
        raise NetConstructionError(f"cannot sanitise name {name!r}")
    return cleaned


class TaskNodes(Record):
    """Node names produced for one task (handles for later wiring).

    ``gate_input`` is the place whose token admits an instance into the
    grant stage; relation modelling reroutes it when the task has
    exclusions or precedence predecessors.  ``finisher`` is the
    transition whose firing marks instance completion: relation
    modelling attaches token returns/productions to it.
    """

    __slots__ = (
        "task",
        "start",
        "wait_arrival",
        "wait_release",
        "wait_grant",
        "wait_compute",
        "wait_finish",
        "finished_pool",
        "wait_deadline",
        "deadline_missed",
        "phase_t",
        "arrival_t",
        "release_t",
        "grant_t",
        "compute_t",
        "finish_t",
        "deadline_t",
        "cancel_t",
        "finisher",
        "gate_input",
    )

    def __init__(
        self,
        task: str,
        start: str,  # p_st
        wait_arrival: str | None,  # p_wa (absent when N == 1)
        wait_release: str,  # p_wr
        wait_grant: str,  # p_wg
        wait_compute: str,  # p_wc
        wait_finish: str | None,  # p_wf (preemptive only)
        finished_pool: str,  # p_f
        wait_deadline: str,  # p_wd
        deadline_missed: str,  # p_dm
        phase_t: str,  # t_ph
        arrival_t: str | None,  # t_a (absent when N == 1)
        release_t: str,  # t_r
        grant_t: str,  # t_g
        compute_t: str,  # t_c
        finish_t: str | None,  # t_f (None in compact non-preemptive)
        deadline_t: str,  # t_d
        cancel_t: str | None,  # t_pc (expanded only)
        finisher: str,  # transition completing an instance
        gate_input: str,  # place feeding the grant stage (reroutable)
    ) -> None:
        self.task = task
        self.start = start
        self.wait_arrival = wait_arrival
        self.wait_release = wait_release
        self.wait_grant = wait_grant
        self.wait_compute = wait_compute
        self.wait_finish = wait_finish
        self.finished_pool = finished_pool
        self.wait_deadline = wait_deadline
        self.deadline_missed = deadline_missed
        self.phase_t = phase_t
        self.arrival_t = arrival_t
        self.release_t = release_t
        self.grant_t = grant_t
        self.compute_t = compute_t
        self.finish_t = finish_t
        self.deadline_t = deadline_t
        self.cancel_t = cancel_t
        self.finisher = finisher
        self.gate_input = gate_input


def add_processor_block(net: TimePetriNet, processor: str) -> str:
    """Processor block: a single-token resource place ``p_proc``.

    Returns the place name.  The processor is "used in a mutually
    exclusive way" — every grant consumes the token, every computation
    end returns it.
    """
    name = f"pproc_{sanitize(processor)}"
    if not net.has_place(name):
        net.add_place(name, marking=1, label=f"processor {processor}")
    return name


def add_bus_block(net: TimePetriNet, bus: str) -> str:
    """Bus block: the communication analogue of the processor block."""
    name = f"pbus_{sanitize(bus)}"
    if not net.has_place(name):
        net.add_place(name, marking=1, label=f"bus {bus}")
    return name


def add_fork_block(net: TimePetriNet, start_places: list[str]) -> str:
    """Fork block (Fig. 1(a)): start ``n`` concurrent tasks at time 0.

    Returns the name of the fork transition ``t_start``.
    """
    net.add_place("pstart", marking=1, label="system start")
    net.add_transition(
        "tstart",
        interval=TimeInterval.zero(),
        priority=STRUCTURAL_PRIORITY,
        role=ROLE_FORK,
        label="fork",
    )
    net.add_arc("pstart", "tstart")
    for place in start_places:
        net.add_arc("tstart", place)
    return "tstart"


def add_join_block(
    net: TimePetriNet, contributions: dict[str, int]
) -> str:
    """Join block (Fig. 1(b)): all tasks concluded within ``PS``.

    ``contributions`` maps each completion-pool place to the number of
    tokens it must deliver (the task's instance count).  A marked
    ``p_end`` signals that a feasible firing schedule was found.
    Returns the name of the end place.
    """
    net.add_place("pend", label="schedule complete")
    net.add_transition(
        "tend",
        interval=TimeInterval.zero(),
        priority=STRUCTURAL_PRIORITY,
        role=ROLE_JOIN,
        label="join",
    )
    for place, weight in contributions.items():
        net.add_arc(place, "tend", weight)
    net.add_arc("tend", "pend")
    return "pend"


def add_task_blocks(
    net: TimePetriNet,
    task: Task,
    n_instances: int,
    processor_place: str,
    style: BlockStyle = BlockStyle.COMPACT,
) -> TaskNodes:
    """Arrival + deadline-checking + task-structure blocks for a task.

    Builds Figs. 1(c), 1(d) and 2(a)/2(b) for ``task``, wired to the
    shared ``processor_place``, and returns the node handles.
    """
    if n_instances < 1:
        raise NetConstructionError(
            f"task {task.name!r}: instance count must be >= 1"
        )
    x = sanitize(task.name)
    c = task.computation
    preemptive = task.is_preemptive

    # --- places ---------------------------------------------------------
    p_st = net.add_place(f"pst_{x}", task=task.name, label=f"start {x}").name
    p_wa = None
    if n_instances > 1:
        p_wa = net.add_place(
            f"pwa_{x}", task=task.name, label=f"arrival budget {x}"
        ).name
    p_wr = net.add_place(
        f"pwr_{x}", task=task.name, label=f"wait release {x}"
    ).name
    p_wg = net.add_place(
        f"pwg_{x}", task=task.name, label=f"wait grant {x}"
    ).name
    p_wc = net.add_place(
        f"pwc_{x}", task=task.name, label=f"computing {x}"
    ).name
    p_wf = None
    if preemptive or style is BlockStyle.EXPANDED:
        p_wf = net.add_place(
            f"pwf_{x}", task=task.name, label=f"wait finish {x}"
        ).name
    p_f = net.add_place(
        f"pf_{x}", task=task.name, label=f"finished {x}"
    ).name
    p_wd = net.add_place(
        f"pwd_{x}", task=task.name, label=f"deadline timer {x}"
    ).name
    p_dm = net.add_place(
        f"pdm_{x}",
        task=task.name,
        role="deadline-miss",
        label=f"deadline missed {x}",
    ).name

    # --- arrival block (Fig. 1(c)) --------------------------------------
    t_ph = net.add_transition(
        f"tph_{x}",
        interval=TimeInterval.point(task.phase),
        priority=ARRIVAL_PRIORITY,
        role=ROLE_PHASE,
        task=task.name,
        label=f"phase {x}",
    ).name
    net.add_arc(p_st, t_ph)
    net.add_arc(t_ph, p_wr)
    net.add_arc(t_ph, p_wd)
    t_a = None
    if n_instances > 1:
        assert p_wa is not None
        net.add_arc(t_ph, p_wa, weight=n_instances - 1)
        t_a = net.add_transition(
            f"ta_{x}",
            interval=TimeInterval.point(task.period),
            priority=ARRIVAL_PRIORITY,
            role=ROLE_ARRIVAL,
            task=task.name,
            label=f"arrival {x}",
        ).name
        net.add_arc(p_wa, t_a)
        net.add_arc(t_a, p_wr)
        net.add_arc(t_a, p_wd)

    # --- deadline checking block (Fig. 1(d)) -----------------------------
    t_d = net.add_transition(
        f"td_{x}",
        interval=TimeInterval.point(task.deadline),
        priority=DEADLINE_MISS_PRIORITY,
        role=ROLE_DEADLINE_MISS,
        task=task.name,
        label=f"deadline {x}",
    ).name
    net.add_arc(p_wd, t_d)
    net.add_arc(t_d, p_dm)

    # --- task structure block (Fig. 2(a) / 2(b)) -------------------------
    release_upper = task.deadline - task.computation
    t_r = net.add_transition(
        f"tr_{x}",
        interval=TimeInterval(task.release, release_upper),
        priority=RELEASE_PRIORITY,
        role=ROLE_RELEASE,
        task=task.name,
        label=f"release {x}",
    ).name
    net.add_arc(p_wr, t_r)
    # The release feeds the gate input; relation modelling may reroute
    # this arc through a lock/precedence gate (see relations.py).
    gate_weight = c if preemptive else 1
    net.add_arc(t_r, p_wg, weight=gate_weight)

    t_g = net.add_transition(
        f"tg_{x}",
        interval=TimeInterval.zero(),
        priority=DECISION_PRIORITY,
        role=ROLE_GRANT,
        task=task.name,
        label=f"grant {x}",
    ).name
    net.add_arc(p_wg, t_g)
    net.add_arc(processor_place, t_g)
    net.add_arc(t_g, p_wc)

    compute_interval = (
        TimeInterval.point(1) if preemptive else TimeInterval.point(c)
    )
    t_c = net.add_transition(
        f"tc_{x}",
        interval=compute_interval,
        priority=RELEASE_PRIORITY,
        role=ROLE_COMPUTE,
        task=task.name,
        code=task.code.content if task.code else None,
        label=f"compute {x}",
    ).name
    net.add_arc(p_wc, t_c)
    net.add_arc(t_c, processor_place)

    t_f = None
    t_pc = None
    if preemptive:
        assert p_wf is not None
        net.add_arc(t_c, p_wf)
        t_f = net.add_transition(
            f"tf_{x}",
            interval=TimeInterval.zero(),
            priority=STRUCTURAL_PRIORITY,
            role=ROLE_FINISH,
            task=task.name,
            label=f"finish {x}",
        ).name
        net.add_arc(p_wf, t_f, weight=c)
        net.add_arc(t_f, p_f)
        finisher = t_f
    elif style is BlockStyle.EXPANDED:
        assert p_wf is not None
        net.add_arc(t_c, p_wf)
        t_f = net.add_transition(
            f"tf_{x}",
            interval=TimeInterval.zero(),
            priority=STRUCTURAL_PRIORITY,
            role=ROLE_FINISH,
            task=task.name,
            label=f"finish {x}",
        ).name
        net.add_arc(p_wf, t_f)
        net.add_arc(t_f, p_f)
        finisher = t_f
    else:
        # compact non-preemptive: the computation itself completes the
        # instance (4 firings per instance: arrival, release, grant,
        # computation)
        net.add_arc(t_c, p_f)
        finisher = t_c

    # Deadline-timer cancellation: compact folds it into the finisher;
    # expanded uses the figures' explicit t_pc chain.
    if style is BlockStyle.EXPANDED:
        p_wpc = net.add_place(
            f"pwpc_{x}", task=task.name, label=f"cancel deadline {x}"
        ).name
        net.add_arc(finisher, p_wpc)
        t_pc = net.add_transition(
            f"tpc_{x}",
            interval=TimeInterval.zero(),
            priority=STRUCTURAL_PRIORITY,
            role=ROLE_DEADLINE_OK,
            task=task.name,
            label=f"deadline met {x}",
        ).name
        net.add_arc(p_wpc, t_pc)
        net.add_arc(p_wd, t_pc)
    else:
        net.add_arc(p_wd, finisher)

    return TaskNodes(
        task=task.name,
        start=p_st,
        wait_arrival=p_wa,
        wait_release=p_wr,
        wait_grant=p_wg,
        wait_compute=p_wc,
        wait_finish=p_wf,
        finished_pool=p_f,
        wait_deadline=p_wd,
        deadline_missed=p_dm,
        phase_t=t_ph,
        arrival_t=t_a,
        release_t=t_r,
        grant_t=t_g,
        compute_t=t_c,
        finish_t=t_f,
        deadline_t=t_d,
        cancel_t=t_pc,
        finisher=finisher,
        gate_input=p_wg,
    )


def firings_per_instance(task: Task, style: BlockStyle) -> int:
    """Minimum number of transition firings one instance contributes.

    The compact non-preemptive cost of 4 underlies the paper's
    minimum-state count (Section 5): arrival, release, grant,
    computation.  Preemptive instances add a grant/compute pair per
    computation unit plus the unit-collecting finish.
    """
    if task.is_preemptive:
        base = 2 * task.computation + 3
    elif style is BlockStyle.COMPACT:
        base = 4
    else:
        base = 6
    if not task.is_preemptive and style is BlockStyle.EXPANDED:
        return base  # arrival, release, grant, compute, finish, cancel
    if task.is_preemptive and style is BlockStyle.EXPANDED:
        return base + 1  # + cancel
    return base


def minimum_schedule_firings(
    tasks_and_instances: list[tuple[Task, int]],
    style: BlockStyle = BlockStyle.COMPACT,
) -> int:
    """Length of a backtrack-free firing schedule (fork + join included).

    For Table 1 with compact blocks this is the paper's minimum state
    count: ``4 × 782 + 2 = 3130``.
    """
    total = 2  # fork + join
    for task, n in tasks_and_instances:
        total += n * firings_per_instance(task, style)
    return total
