"""Scheduler result container and search statistics."""

from __future__ import annotations

from repro._record import Record
from repro.scheduler.config import SchedulerConfig


class SearchStats(Record):
    """Counters describing one depth-first search.

    ``states_visited`` counts distinct states tagged during the search —
    the quantity the paper reports ("searched 3268 states"); the
    ``minimum_states`` of a model is its backtrack-free path length
    (paper: 3130 for the mine pump), so ``states_visited −
    schedule_length`` measures backtracking overhead.

    A portfolio search (:mod:`repro.scheduler.parallel`) returns the
    *merged* counters of every slot, so ``states_visited`` then
    measures total work done across the portfolio, not the winner's
    path alone; a portfolio that forked lanes merges values that are
    not run-to-run deterministic (they depend on when the losing
    lanes saw the cancel).  ``restarts`` counts seeded-random
    restarts performed by portfolio slots.
    """

    __slots__ = (
        "states_visited",
        "states_generated",
        "revisits_skipped",
        "deadline_prunes",
        "backtracks",
        "reductions",
        "restarts",
        "elapsed_seconds",
    )

    def __init__(
        self,
        states_visited: int = 0,
        states_generated: int = 0,
        revisits_skipped: int = 0,
        deadline_prunes: int = 0,
        backtracks: int = 0,
        reductions: int = 0,
        restarts: int = 0,
        elapsed_seconds: float = 0.0,
    ) -> None:
        self.states_visited = states_visited
        self.states_generated = states_generated
        self.revisits_skipped = revisits_skipped
        self.deadline_prunes = deadline_prunes
        self.backtracks = backtracks
        self.reductions = reductions
        self.restarts = restarts
        self.elapsed_seconds = elapsed_seconds

    #: Dict keys that depend on wall-clock time rather than the search
    #: trajectory — deterministic consumers (batch JSONL rows, caches)
    #: filter these out.
    WALL_CLOCK_KEYS = ("elapsed_seconds", "states_per_second")

    def add(self, other: SearchStats) -> None:
        """Add ``other``'s counters to these (a portfolio summing its
        restarts and its slots); ``elapsed_seconds`` stays."""
        for name in self._fields:
            if name != "elapsed_seconds":
                mine = getattr(self, name)
                setattr(self, name, mine + getattr(other, name))

    @property
    def states_per_second(self) -> float:
        """Search throughput: distinct states tagged per wall second."""
        if self.elapsed_seconds <= 0.0:
            return 0.0
        return self.states_visited / self.elapsed_seconds

    def as_dict(self) -> dict[str, float]:
        return {
            "states_visited": self.states_visited,
            "states_generated": self.states_generated,
            "revisits_skipped": self.revisits_skipped,
            "deadline_prunes": self.deadline_prunes,
            "backtracks": self.backtracks,
            "reductions": self.reductions,
            "restarts": self.restarts,
            "elapsed_seconds": self.elapsed_seconds,
            "states_per_second": self.states_per_second,
        }

    def profile(self, metrics: dict | None = None) -> str:
        """Multi-line search-statistics report (``ezrt schedule --profile``).

        ``metrics`` is an optional :mod:`repro.obs` snapshot (the
        ``SchedulerResult.metrics`` dict); when it carries data, the
        formatted counters/gauges/histograms block is appended.
        """
        lines = [
            f"states visited   : {self.states_visited}",
            f"states generated : {self.states_generated}",
            f"revisits skipped : {self.revisits_skipped}",
            f"deadline prunes  : {self.deadline_prunes}",
            f"backtracks       : {self.backtracks}",
            f"reductions       : {self.reductions}",
            f"search time      : {self.elapsed_seconds * 1000:.1f} ms",
            f"throughput       : {self.states_per_second:,.0f} states/s",
        ]
        if self.restarts:
            lines.insert(6, f"restarts         : {self.restarts}")
        if metrics and any(metrics.values()):
            from repro.obs.metrics import format_metrics

            lines.append("metrics:")
            for line in format_metrics(metrics).splitlines():
                lines.append(f"  {line}")
        return "\n".join(lines)


class SchedulerResult(Record):
    """Outcome of a pre-runtime scheduling attempt.

    Attributes:
        feasible: whether a feasible firing schedule (Def. 3.2) was
            found under the configured search policy.  ``False`` means
            the policy-restricted space was exhausted — with
            ``delay_mode="earliest"`` that is not a proof of
            infeasibility, only that no as-soon-as-possible schedule
            exists.
        exhausted: True when the search ran out of states/time budget
            rather than exhausting the space.
        firing_schedule: the feasible run as ``(transition name, delay,
            absolute time)`` triples.
        stats: search counters.
        config: the configuration used.
        minimum_firings: the model's backtrack-free path length, when
            known (used for the paper's visited/minimum comparison).
        winner_policy: in a portfolio race, the policy whose search
            produced the verdict (e.g. ``"random:1"``); ``None`` for
            serial searches.
        winner_engine: in a portfolio race, the successor engine of
            the winning slot (``"kernel"`` or ``"stateclass"``); with
            engine-aware slots this can differ
            from ``config.engine``.  ``None`` outside portfolio races.
        workers: portfolio slots searched (1 for a serial search).
        interval_schedule: dense-time companion of
            ``firing_schedule``, set by the state-class engine only:
            one ``(transition name, earliest, latest)`` entry per
            firing giving the absolute dense window the firing time
            was concretised from (``latest`` may be ``INF``).  ``None``
            for the discrete engines.
        diagnostics: :class:`repro.lint.Diagnostic` findings attached
            by the pre-search lint gate
            (:func:`repro.scheduler.dfs.find_schedule`): for a
            trivially-infeasible spec the error diagnostics *are* the
            verdict (``feasible=False`` with zero states searched);
            warnings (e.g. the kernel token-cap risk) ride along on
            normally-searched results.  Empty for direct
            :func:`~repro.scheduler.dfs.search` calls on compiled
            nets — the gate is spec-level.
        metrics: :mod:`repro.obs` metrics snapshot of the search —
            ``{"counters", "gauges", "histograms"}``.  A serial search
            carries its own registry's snapshot (e.g. the
            ``search.max_depth`` gauge); a portfolio carries the merge
            of every slot's snapshot (per-slot gauges and outcome
            counters).  Empty
            when the scheduler's ``metrics`` registry is set to
            ``None``.
    """

    __slots__ = (
        "feasible",
        "firing_schedule",
        "stats",
        "config",
        "exhausted",
        "minimum_firings",
        "winner_policy",
        "winner_engine",
        "workers",
        "interval_schedule",
        "metrics",
        "diagnostics",
    )

    def __init__(
        self,
        feasible: bool,
        firing_schedule: list[tuple[str, int, int]] | None = None,
        stats: SearchStats | None = None,
        config: SchedulerConfig | None = None,
        exhausted: bool = False,
        minimum_firings: int | None = None,
        winner_policy: str | None = None,
        winner_engine: str | None = None,
        workers: int = 1,
        interval_schedule: list[tuple[str, int, float]] | None = None,
        metrics: dict | None = None,
        diagnostics: list | None = None,
    ) -> None:
        self.feasible = feasible
        self.firing_schedule = (
            [] if firing_schedule is None else firing_schedule
        )
        self.stats = SearchStats() if stats is None else stats
        self.config = SchedulerConfig() if config is None else config
        self.exhausted = exhausted
        self.minimum_firings = minimum_firings
        self.winner_policy = winner_policy
        self.winner_engine = winner_engine
        self.workers = workers
        self.interval_schedule = interval_schedule
        self.metrics = {} if metrics is None else metrics
        self.diagnostics = [] if diagnostics is None else diagnostics

    @property
    def schedule_length(self) -> int:
        """Number of firings in the found schedule."""
        return len(self.firing_schedule)

    @property
    def makespan(self) -> int:
        """Absolute time of the last firing."""
        return self.firing_schedule[-1][2] if self.firing_schedule else 0

    def summary(self) -> str:
        """Short human-readable report (mirrors the paper's Section 5)."""
        lines = []
        verdict = "feasible" if self.feasible else (
            "budget exhausted" if self.exhausted else "infeasible"
        )
        lines.append(f"schedule        : {verdict}")
        if self.feasible:
            lines.append(f"firings         : {self.schedule_length}")
            lines.append(f"makespan        : {self.makespan}")
        if self.minimum_firings is not None:
            lines.append(f"minimum states  : {self.minimum_firings}")
        lines.append(f"states visited  : {self.stats.states_visited}")
        lines.append(
            f"search time     : {self.stats.elapsed_seconds * 1000:.1f} ms"
        )
        lines.append(
            f"throughput      : "
            f"{self.stats.states_per_second:,.0f} states/s"
        )
        lines.append(f"backtracks      : {self.stats.backtracks}")
        lines.append(f"deadline prunes : {self.stats.deadline_prunes}")
        if self.workers > 1:
            lines.append(f"workers         : {self.workers}")
        if self.winner_policy is not None:
            lines.append(f"winning policy  : {self.winner_policy}")
        if self.winner_engine is not None:
            lines.append(f"winning engine  : {self.winner_engine}")
        for diagnostic in self.diagnostics:
            lines.append(f"lint            : {diagnostic.format()}")
        return "\n".join(lines)
