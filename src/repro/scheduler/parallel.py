"""Portfolio search: several slots over one net, first verdict wins.

``repro.batch`` parallelises *across* models; this module runs
several searches of *one* hard model.  Each *slot* is a complete DFS
under its own ``[engine:]policy[:seed]``: a candidate ordering from
:mod:`repro.scheduler.policies`, optionally on the other engine
(``"stateclass:earliest"`` beside the discrete search wins on
wide-interval models).  Search times are heavy-tailed, so some slot
often needs far fewer states than the default.

* **One process first.**  Every search pauses at its 1024-expansion
  poll (:meth:`~repro.scheduler.dfs.PreRuntimeScheduler.steps`), so
  the slots take turns in the calling process, one poll quantum each,
  and the first definitive verdict in slot order wins: the same input
  picks the same winner and schedule every run.
* **Lanes for long searches.**  A portfolio still running after
  :data:`LANE_THRESHOLD_SECONDS` forks one lane per usable CPU
  (:func:`_lane_count` says when); lane ``i`` inherits the running
  searches through fork and steps ``running[i::L]`` until a lane's
  verdict cancels the rest.  Which lane wins is timing-dependent;
  when several slots end definitive, a feasible one wins.

A feasible verdict holds whichever slot found it, and its schedule is
replayed through the reference engine (:func:`validate_with_reference`)
before it is returned.  An infeasible verdict is as strong as the
winning slot's search: a dense or ``delay_mode="full"`` refutation
covers every firing time, a kernel ``earliest`` refutation only what
that delay policy reaches.  ``result.winner_engine`` and
``result.winner_policy`` (the seed of the attempt that won) rerun
serially to the same schedule byte for byte.
"""

from __future__ import annotations

import math
import os
import queue as queue_module
import threading
import time
from multiprocessing import get_all_start_methods, get_context, parent_process

from repro.errors import SchedulingError
from repro.obs.events import NULL_RECORDER, JsonlSink, Recorder
from repro.obs.metrics import MetricsRegistry
from repro.scheduler.config import SchedulerConfig
from repro.scheduler.core import validate_with_reference
from repro.scheduler.dfs import PreRuntimeScheduler
from repro.scheduler.policies import (
    _mix,
    default_portfolio,
    parse_policy,
    parse_slot,
)
from repro.scheduler.result import SchedulerResult, SearchStats
from repro.tpn.net import CompiledNet

#: First restart budget (states) of the seeded-random portfolio
#: policy, doubled on every restart (geometric / Luby-style schedule).
RESTART_BASE_STATES = 4096

#: Seconds a portfolio runs in one process before it may fork lanes.
#: A forked search process costs ~8 ms before it searches anything
#: (fig3 took 16.2 ms at ``parallel=2`` against 0.8 ms serial, on a
#: 2-vCPU x86-64 VM with Python 3.11), so 0.1 s is ~10x that cost: a
#: search still running then is long enough for a second CPU to pay.
LANE_THRESHOLD_SECONDS = 0.1

#: Seconds the parent keeps collecting lane reports after a cancel.
_DRAIN_GRACE = 2.0

#: Slot outcomes that end the portfolio.
_DEFINITIVE = ("feasible", "infeasible")

#: The slot fields a lane reports home.
_REPORTED = ("kind", "total", "metrics", "payload", "attempt", "error")


def usable_cpus(cpu_max: str = "/sys/fs/cgroup/cpu.max") -> int:
    """CPUs this process may keep busy at once.

    The affinity mask (``os.sched_getaffinity``), capped by this
    cgroup's v2 ``cpu.max`` quota when one is set: ``"150000 100000"``
    allows 1.5 CPUs of time, which rounds up to 2; ``"max ..."`` sets
    no cap.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity masks
        cpus = os.cpu_count() or 1
    try:
        with open(cpu_max, encoding="ascii") as handle:
            quota, period = handle.read().split()[:2]
        return max(1, min(cpus, math.ceil(int(quota) / int(period))))
    except (OSError, ValueError):  # no cgroup v2 file, or "max"
        return cpus


def restart_seed(seed: int, attempt: int) -> int:
    """The ``random`` seed of restart ``attempt`` of slot ``random:seed``.

    Attempt 0 runs ``seed`` itself; later attempts run a splitmix64
    word of ``(seed, attempt)``, so a restart never replays another
    slot's stream (``random:seed+1`` is the next slot's).
    """
    return seed if attempt == 0 else _mix(_mix(seed) ^ attempt)


def _lane_count(running: int) -> int:
    """Lanes to fork for ``running`` slots: one per usable CPU, and
    none unless that makes two or more, fork exists, this process is
    no :mod:`multiprocessing` child (a pool worker never forks) and no
    other thread runs (a lock it holds would stay locked in the lane)."""
    if (
        parent_process() is not None
        or "fork" not in get_all_start_methods()
        or threading.active_count() > 1
    ):
        return 0
    lanes = min(running, usable_cpus())
    return lanes if lanes >= 2 else 0


class _Slot:
    """One portfolio slot: its search, its restarts and its totals.

    ``kind`` is ``None`` while the slot runs, then one of
    ``feasible``, ``infeasible``, ``exhausted``, ``cancelled`` or
    ``error``.  A ``random`` slot restarts an exhausted attempt under
    a doubled state budget and a fresh :func:`restart_seed`.
    """

    def __init__(self, index, text, net, config, deadline):
        engine, policy = parse_slot(text)
        self.engine = engine or config.engine
        self.name, seed = parse_policy(policy)
        self.seed = seed or 0  # portfolio_policies pins random seeds
        self.index = index
        self.text = text
        self.net = net
        self.config = config
        self.deadline = deadline
        overrides = dict(
            engine=self.engine, parallel=0, portfolio=(), policy=self.name
        )
        if self.engine == "stateclass":
            # a state class covers every dense firing delay, so the
            # discrete delay-enumeration modes have nothing to add
            overrides["delay_mode"] = "earliest"
        self.base = config.replace(**overrides)
        self.total = SearchStats()
        self.metrics = MetricsRegistry()
        self.seconds = 0.0
        self.attempt = 0
        self.scheduler = None
        self.steps = None
        self.kind = None
        self.payload = None  # (firing schedule, dense windows) of a win
        self.error = None

    @property
    def policy(self) -> str:
        """The policy the current (or last) attempt runs."""
        if self.name != "random":
            return self.name
        return f"random:{restart_seed(self.seed, self.attempt)}"

    def _begin(self) -> None:
        changes = {"policy_seed": restart_seed(self.seed, self.attempt)}
        if self.name == "random":
            changes["max_states"] = min(
                RESTART_BASE_STATES << self.attempt,
                self.config.max_states - self.total.states_visited,
            )
        if self.deadline is not None:
            changes["max_seconds"] = max(
                0.001, self.deadline - time.monotonic()
            )
        scheduler = PreRuntimeScheduler(
            self.net, self.base.replace(**changes)
        )
        scheduler.metrics = self.metrics
        label = f"w{self.index}:{self.text}"
        if scheduler.obs is not None:
            scheduler.obs.track = label  # one trace track per slot
        if scheduler.heartbeat is not None:
            scheduler.heartbeat.label = label
            scheduler.heartbeat.metrics = self.metrics
        self.scheduler = scheduler
        self.steps = scheduler.steps(resumable=True)

    def step(self) -> bool:
        """Run one poll quantum; True once the slot has ended."""
        started = time.monotonic()
        try:
            if self.steps is None:
                self._begin()
            next(self.steps)
        except StopIteration as done:
            self._ended(done.value)
        except Exception as error:  # noqa: BLE001 — one slot's failure
            self.steps = None
            self.error = f"{type(error).__name__}: {error}"
            self._finish("error")
        finally:
            self.seconds += time.monotonic() - started
        return self.kind is not None

    def _ended(self, result: SchedulerResult) -> None:
        self.steps = None
        self.total.add(result.stats)
        if result.feasible:
            self.payload = (
                result.firing_schedule,
                result.interval_schedule,
            )
            self._finish("feasible")
        elif not result.exhausted:
            self._finish("infeasible")
        elif (
            self.name == "random"
            and self.total.states_visited < self.config.max_states
            and (self.deadline is None or time.monotonic() < self.deadline)
        ):
            # geometric restarts: heavy-tailed instances usually fall
            # to *some* seed quickly; doubling budgets bound the total
            # overhead to <= 2x the lucky seed's work
            self.attempt += 1
        else:
            self._finish("exhausted")

    def cancel(self) -> None:
        """End a running slot, stopping its search at the poll it
        paused at (its counters still count)."""
        if self.kind is not None:
            return
        steps, self.steps = self.steps, None
        if steps is not None and steps.gi_frame is not None:
            try:
                steps.send(True)
            except StopIteration as done:
                self.total.add(done.value.stats)
        self._finish("cancelled")

    def abandon(self) -> None:
        """Drop the parent's copy of a search a forked lane took over,
        freeing its memory without recording its spans."""
        if self.steps is not None:
            self.scheduler.obs = None
            self.steps.close()
            self.steps = None

    def _finish(self, kind: str) -> None:
        self.kind = kind
        self.total.restarts = self.attempt
        metrics = self.metrics
        metrics.set_gauge(
            f"slot.{self.text}.wall_seconds", round(self.seconds, 6)
        )
        metrics.inc(f"slot.{self.text}.{kind}")
        if self.attempt:
            metrics.inc(f"slot.{self.text}.restarts", self.attempt)

    def report(self) -> dict:
        """What a lane sends home for this slot (picklable)."""
        return {name: getattr(self, name) for name in _REPORTED}


def _round_robin(slots, until=None, cancelled=None) -> None:
    """Step the running slots in order, one poll quantum each.

    Returns once a slot has a definitive verdict or every slot has
    ended; also after a full round past ``until`` or once
    ``cancelled()`` holds.  Rounds are never cut short, so stepping
    resumes in the same order.
    """
    running = [slot for slot in slots if slot.kind is None]
    while running:
        for slot in running:
            if slot.step() and slot.kind in _DEFINITIVE:
                return
        running = [slot for slot in running if slot.kind is None]
        if until is not None and time.monotonic() >= until:
            return
        if cancelled is not None and cancelled():
            return


def _winner(slots):
    """The first definitive slot in slot order, a feasible one first."""
    return min(
        (slot for slot in slots if slot.kind in _DEFINITIVE),
        key=lambda slot: slot.kind != "feasible",
        default=None,
    )


def _lane(slots, results, cancel) -> None:
    """A forked lane: step ``slots`` until a verdict or a cancel."""
    _round_robin(slots, cancelled=cancel.is_set)
    if any(slot.kind in _DEFINITIVE for slot in slots):
        cancel.set()  # end the race without the parent's round trip
    for slot in slots:
        slot.cancel()
    results.put([(slot.index, slot.report()) for slot in slots])


# ----------------------------------------------------------------------
# The portfolio scheduler
# ----------------------------------------------------------------------
class ParallelScheduler:
    """Run a portfolio of searches over one net; first verdict wins.

    Construct with the same ``(net, config)`` pair as
    :class:`PreRuntimeScheduler`; ``config.parallel`` (>= 2) is the
    slot count.  :meth:`search` returns once a verdict is reached and
    every lane process it forked has been reaped.
    """

    def __init__(
        self, net: CompiledNet, config: SchedulerConfig | None = None
    ):
        self.net = net
        self.config = config or SchedulerConfig()
        if self.config.parallel < 2:
            raise SchedulingError(
                "ParallelScheduler needs config.parallel >= 2 "
                "(use PreRuntimeScheduler for a serial search)"
            )

    # ------------------------------------------------------------------
    def portfolio_policies(self) -> tuple[str, ...]:
        """The slot (``[engine:]policy[:seed]``) of each portfolio entry.

        An explicit ``config.portfolio`` is honoured (truncated to the
        slot count, padded with fresh random seeds when shorter);
        otherwise the default rotation applies.
        """
        workers = self.config.parallel
        entries = list(
            self.config.portfolio[:workers] or default_portfolio(workers)
        )
        used_seeds = set()
        for index, entry in enumerate(entries):
            engine_prefix, policy = parse_slot(entry)
            name, seed = parse_policy(policy)
            if name != "random":
                continue
            if seed is None:
                # pin an unseeded random slot to its rotation index, the
                # seed it would fall back to: the slot name then carries
                # the seed, so a winning slot reruns serially as reported
                seed = index
                entries[index] = ":".join(
                    filter(None, (engine_prefix, f"random:{index}"))
                )
            used_seeds.add(seed)
        seed = 0
        while len(entries) < workers:
            while seed in used_seeds:
                seed += 1
            used_seeds.add(seed)
            entries.append(f"random:{seed}")
        return tuple(entries)

    # ------------------------------------------------------------------
    def search(self) -> SchedulerResult:
        config = self.config
        started = time.monotonic()
        # one "portfolio-race" track framing the whole race plus the
        # reference-replay gate (each slot records its own track into
        # the same O_APPEND sink)
        obs = NULL_RECORDER
        if config.trace_jsonl:
            obs = Recorder(
                JsonlSink(config.trace_jsonl), track="portfolio-race"
            )
        race_t0 = obs.now_ns()
        deadline = None
        if config.max_seconds is not None:
            deadline = started + config.max_seconds
        policies = self.portfolio_policies()
        slots = [
            _Slot(index, text, self.net, config, deadline)
            for index, text in enumerate(policies)
        ]
        lanes = 0
        try:
            _round_robin(slots, until=started + LANE_THRESHOLD_SECONDS)
            running = [slot for slot in slots if slot.kind is None]
            if running and not any(s.kind in _DEFINITIVE for s in slots):
                lanes = _lane_count(len(running))
                if lanes:
                    self._run_lanes(running, lanes, deadline)
                else:
                    _round_robin(running)
        finally:
            for slot in slots:
                slot.cancel()
        merged = SearchStats()
        for slot in slots:
            merged.add(slot.total)
        merged.elapsed_seconds = time.monotonic() - started
        race_metrics = MetricsRegistry.merge_snapshots(
            slot.metrics.snapshot() for slot in slots
        )
        obs.record_span(
            "portfolio-race",
            race_t0,
            obs.now_ns(),
            cat="portfolio",
            args={
                "workers": len(slots),
                "lanes": lanes,
                "slots": list(policies),
            },
        )
        winner = _winner(slots)
        if winner is None and all(s.kind == "error" for s in slots):
            raise SchedulingError(
                f"every portfolio worker failed; first: {slots[0].error}"
            )
        result = SchedulerResult(
            feasible=False,
            stats=merged,
            config=config,
            exhausted=winner is None,
            workers=len(slots),
            metrics=race_metrics,
        )
        if winner is None:
            return result
        result.winner_policy = winner.policy
        result.winner_engine = winner.engine
        if winner.kind == "feasible":
            result.feasible = True
            result.firing_schedule, result.interval_schedule = winner.payload
            with obs.span("reference-replay", cat="validate"):
                validate_with_reference(
                    self.net, config, result.firing_schedule
                )
        return result

    # ------------------------------------------------------------------
    def _run_lanes(self, running, lanes, deadline) -> None:
        """Fork ``lanes`` processes over the running slots and fold
        their reports back into the parent's slots."""
        ctx = get_context("fork")
        results = ctx.Queue()
        cancel = ctx.Event()
        processes = []
        try:
            for lane in range(lanes):
                process = ctx.Process(
                    target=_lane,
                    args=(running[lane::lanes], results, cancel),
                    name=f"ezrt-portfolio-lane-{lane}",
                )
                process.start()
                processes.append(process)
        except BaseException:
            cancel.set()  # a lane failed to start: stop the started ones
            raise
        finally:
            # the lanes own the searches now; the parent frees its copies
            for slot in running:
                slot.abandon()
            reports = self._collect(processes, results, cancel, deadline)
        by_index = {slot.index: slot for slot in running}
        for lane_reports in reports:
            for index, report in lane_reports:
                vars(by_index[index]).update(report)
        for slot in running:
            if slot.kind is None:
                slot.error = "portfolio lane died without reporting"
                slot.kind = "error"

    @staticmethod
    def _collect(processes, results, cancel, deadline) -> list:
        """Gather one report per lane; cancel the lanes when one dies
        without reporting or the budget is long gone.  Every lane
        process is dead on return."""
        reports: list = []
        drain_until = None
        try:
            while len(reports) < len(processes) and (
                drain_until is None or time.monotonic() < drain_until
            ):
                try:
                    reports.append(results.get(timeout=0.2))
                except queue_module.Empty:
                    now = time.monotonic()
                    dead = sum(not p.is_alive() for p in processes)
                    overdue = deadline is not None and (
                        now > deadline + _DRAIN_GRACE
                    )
                    if drain_until is None and (
                        overdue or dead > len(reports)
                    ):
                        cancel.set()
                        drain_until = now + _DRAIN_GRACE
        finally:
            cancel.set()
            for process in processes:
                process.join(timeout=1.0)
                if process.is_alive():  # pragma: no cover — stuck lane
                    process.kill()
                    process.join(timeout=1.0)
                process.close()
            results.cancel_join_thread()
            results.close()
        return reports
