"""Scheduler configuration.

The pre-runtime scheduler (paper Section 4.4.1) is a depth-first search
over the TLTS; its behaviour is controlled by a handful of knobs that
the ablation benches sweep:

* ``priority_mode`` — ``"ordered"`` (default) uses the priority function
  π only to *order* candidates, preserving completeness within the delay
  policy; ``"strict"`` applies the paper's ``FT(s)`` filter literally,
  keeping only minimum-priority candidates (a stronger prune that can
  sacrifice completeness);
* ``delay_mode`` — which firing delays of the domain
  ``[DLB(t), min DUB]`` are tried: ``"earliest"`` (as-soon-as-possible
  firing; the blocks' ``[0,0]`` grants make the search work-conserving,
  which is also how the paper's model behaves), ``"extremes"`` (earliest
  and latest), or ``"full"`` (every integer delay; exhaustive but
  potentially exponential);
* ``partial_order`` — the state-space minimisation of the paper
  (Lilius-style): when an immediate candidate is structurally
  independent of every other candidate, fire it alone instead of
  branching;
* ``reset_policy`` — clock-reset semantics (see
  :mod:`repro.tpn.state`);
* ``engine`` — the successor engine driving the search:
  ``"kernel"`` (:data:`DEFAULT_ENGINE`: the packed-buffer kernel of
  :mod:`repro.tpn.kernel` — flat marking/clock buffers, incremental
  64-bit state keys, and an optional compiled C core that runs the
  whole search, with a pure-Python fallback),
  ``"reference"`` (the checked discrete semantics, the kernel's
  executable spec) or
  ``"stateclass"`` (the dense-time Berthomieu–Diaz state-class
  engine of :mod:`repro.tpn.stateclass`, which searches difference-
  bound classes instead of integer clock valuations and concretises
  any feasible dense schedule back to integer firing times);
* resource limits (``max_states``, ``max_seconds``);
* ``policy`` — the candidate *ordering* used by a serial search (see
  :mod:`repro.scheduler.policies`); orderings never change the verdict,
  only how fast a feasible schedule is found;
* the parallel knobs — ``parallel`` (worker count; ``0``/``1`` keep
  the search serial), ``parallel_mode`` (``"portfolio"`` races
  independent policies and the first definitive verdict wins;
  ``"worksteal"`` splits the root frontier into subtree jobs that
  workers drain against a shared visited filter; kernel engine only)
  and ``portfolio``
  (explicit slot list for the race; empty picks the default
  rotation of :func:`repro.scheduler.policies.default_portfolio`).
  A portfolio slot is ``"[engine:]policy[:seed]"`` — prefixing a
  policy with an engine name races successor *engines* as well as
  orderings (e.g. ``("kernel:earliest", "stateclass:earliest")``
  pits the dense state-class search against the discrete kernel on
  wide-interval models); unprefixed slots inherit ``engine``;
* the observability knobs (:mod:`repro.obs`) — ``trace_jsonl``
  (when set, every pipeline phase records spans into this JSONL file;
  the CLI converts it to a Chrome trace viewable in Perfetto) and
  ``progress`` (stream ``[progress]`` heartbeat lines to stderr).
  Neither changes the search: tracing only observes, and the batch
  cache fingerprint deliberately excludes both.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SchedulingError
from repro.tpn.state import RESET_POLICIES

PRIORITY_MODES = ("ordered", "strict")
DELAY_MODES = ("earliest", "extremes", "full")
PARALLEL_MODES = ("portfolio", "worksteal")

#: Successor engines the scheduler can run on.  ``kernel`` and
#: ``reference`` share the discrete-time TLTS semantics (``kernel``
#: over packed buffers with an optional compiled core, ``reference``
#: its executable spec); ``stateclass`` searches the dense-time
#: state-class graph.
ENGINES = ("kernel", "reference", "stateclass")

#: The engine every entry point (config, CLI, batch, service, lint)
#: uses unless told otherwise: the fastest discrete engine, and the
#: one work-stealing runs on.
DEFAULT_ENGINE = "kernel"


@dataclass
class SchedulerConfig:
    """Knobs of the pre-runtime depth-first scheduler."""

    priority_mode: str = "ordered"
    delay_mode: str = "earliest"
    partial_order: bool = True
    reset_policy: str = "paper"
    engine: str = DEFAULT_ENGINE
    max_states: int = 2_000_000
    max_seconds: float | None = None
    policy: str = "earliest"
    policy_seed: int = 0
    parallel: int = 0
    parallel_mode: str = "portfolio"
    portfolio: tuple[str, ...] = field(default_factory=tuple)
    #: observability (repro.obs): JSONL span/event sink path (None =
    #: tracing off, the no-op recorder) and heartbeat streaming —
    #: neither affects the search verdict or the cache fingerprint
    trace_jsonl: str | None = None
    progress: bool = False

    def __post_init__(self) -> None:
        if self.priority_mode not in PRIORITY_MODES:
            raise SchedulingError(
                f"unknown priority mode {self.priority_mode!r}; "
                f"expected one of {PRIORITY_MODES}"
            )
        if self.delay_mode not in DELAY_MODES:
            raise SchedulingError(
                f"unknown delay mode {self.delay_mode!r}; "
                f"expected one of {DELAY_MODES}"
            )
        if self.reset_policy not in RESET_POLICIES:
            raise SchedulingError(
                f"unknown reset policy {self.reset_policy!r}; "
                f"expected one of {RESET_POLICIES}"
            )
        if self.engine not in ENGINES:
            raise SchedulingError(
                f"unknown engine {self.engine!r}; "
                f"expected one of {ENGINES}"
            )
        if self.engine == "stateclass" and self.delay_mode != "earliest":
            # a state class covers every dense firing delay at once, so
            # the discrete delay-enumeration modes have nothing to
            # enumerate — rejecting them beats silently ignoring them
            raise SchedulingError(
                "delay_mode has no effect on the dense-time state-class "
                "engine (the class graph covers every dense delay); "
                "keep the default 'earliest'"
            )
        if self.max_states < 1:
            raise SchedulingError("max_states must be positive")
        if self.max_seconds is not None and self.max_seconds <= 0:
            raise SchedulingError("max_seconds must be positive")
        # deferred import: policies imports nothing from this module,
        # but keeping config importable first avoids a cycle with dfs
        from repro.scheduler.policies import POLICIES, parse_policy

        if self.policy not in POLICIES:
            raise SchedulingError(
                f"unknown search policy {self.policy!r}; "
                f"expected one of {POLICIES}"
            )
        if self.parallel < 0:
            raise SchedulingError(
                "parallel must be >= 0 (0/1 mean a serial search)"
            )
        if self.parallel_mode not in PARALLEL_MODES:
            raise SchedulingError(
                f"unknown parallel mode {self.parallel_mode!r}; "
                f"expected one of {PARALLEL_MODES}"
            )
        if (
            self.parallel >= 2
            and self.parallel_mode == "worksteal"
            and self.engine != "kernel"
        ):
            raise SchedulingError(
                "work-stealing mode requires the kernel engine "
                "(the shared filter claims KernelState Zobrist keys)"
            )
        from repro.scheduler.policies import parse_slot

        self.portfolio = tuple(self.portfolio)
        for entry in self.portfolio:
            # raises on unknown engines/policies/bad seeds; a slot may
            # prefix its policy with an engine ("stateclass:earliest")
            # to race engines as well as orderings
            parse_slot(entry)
