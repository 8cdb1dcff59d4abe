"""Spec pack: static diagnosis of specifications, nets and configs.

Three rule families, all pure functions returning
:class:`~repro.lint.diagnostics.Diagnostic` lists:

* **specification rules** (``EZS1xx``) — the well-formedness rules of
  :mod:`repro.spec.validation` re-surfaced with stable codes, plus
  *necessary-condition infeasibility*: cheap checks that prove a spec
  unschedulable without searching (processor/bus overutilisation,
  precedence chains that cannot meet a deadline).  These reuse the
  classical bounds of :mod:`repro.analysis.utilization`;
* **net rules** (``EZT2xx``) — structural checks on a compiled time
  Petri net: transitions that can never fire, places that can never be
  marked, token counts and static bounds past the packed engines'
  caps;
* **configuration rules** (``EZG3xx``) — engine/knob combinations the
  scheduler would reject at construction time, checkable on raw
  strings *before* a :class:`~repro.scheduler.config.SchedulerConfig`
  is built (so ``ezrt lint --engine stateclass --delay-mode full``
  can diagnose instead of crash).

:func:`presearch_diagnostics` is the fast-fail gate wired into
:func:`repro.scheduler.dfs.find_schedule`,
:meth:`repro.batch.engine.BatchEngine.run`,
:meth:`repro.batch.engine.SubmissionBridge.submit` and the service's
``POST /jobs``: error-severity findings there mean the search verdict
is already known to be infeasible, so none of those layers spends pool
or search time on the spec.  It deliberately runs only the O(tasks)
rules — the structural net rules need a compile and belong to
``ezrt lint``.
"""

from __future__ import annotations

from repro.analysis.utilization import necessary_feasible, total_utilization
from repro.lint.diagnostics import ERROR, WARNING, Diagnostic, has_errors
from repro.scheduler.config import (
    DEFAULT_ENGINE,
    DELAY_MODES,
    ENGINES,
)
from repro.spec.model import EzRTSpec
from repro.spec.timing import instance_count, schedule_period
from repro.spec.validation import coded_problems, validate_spec
from repro.tpn.interval import INF, MAX_BOUND
from repro.tpn.kernel import MAX_CLOCK, MAX_TOKENS
from repro.tpn.net import CompiledNet

#: Utilisation slack below which ``U > capacity`` is treated as noise
#: (mirrors :func:`repro.analysis.utilization.necessary_feasible`).
_EPSILON = 1e-12

# ---------------------------------------------------------------------------
# Validation bridge: repro.spec.validation problems as diagnostics
# ---------------------------------------------------------------------------
def validation_diagnostics(spec: EzRTSpec) -> list[Diagnostic]:
    """Well-formedness problems as coded diagnostics (all errors); the
    validator's checks name each problem's code."""
    return [
        Diagnostic(
            code=code,
            severity=ERROR,
            message=problem,
            hint="fix the specification; see docs/linting.md",
            element=f"spec {spec.name!r}",
        )
        for code, problem in coded_problems(spec)
    ]


# ---------------------------------------------------------------------------
# Necessary-condition infeasibility (the fast-fail gate's rules)
# ---------------------------------------------------------------------------
def _utilization_diagnostics(spec: EzRTSpec) -> list[Diagnostic]:
    diagnostics: list[Diagnostic] = []
    processors = spec.processor_names() or ("proc0",)
    # with one processor the per-processor loop below reports the same
    # overload with a sharper element, so the global bound would only
    # duplicate it
    if len(processors) > 1 and not necessary_feasible(
        spec, processors=len(processors)
    ):
        diagnostics.append(
            Diagnostic(
                code="EZS101",
                severity=ERROR,
                message=(
                    f"total utilisation "
                    f"{total_utilization(spec):.3f} exceeds the "
                    f"{len(processors)} available processor(s); no "
                    "schedule can exist"
                ),
                hint=(
                    "lower computation times, raise periods or add "
                    "processors"
                ),
                element=f"spec {spec.name!r}",
            )
        )
    by_processor: dict[str, float] = {}
    for task in spec.tasks:
        by_processor[task.processor] = (
            by_processor.get(task.processor, 0.0) + task.utilization
        )
    for processor, load in sorted(by_processor.items()):
        if load > 1.0 + _EPSILON:
            diagnostics.append(
                Diagnostic(
                    code="EZS101",
                    severity=ERROR,
                    message=(
                        f"utilisation {load:.3f} on processor "
                        f"{processor!r} exceeds 1.0; its task set is "
                        "unschedulable on any policy"
                    ),
                    hint=(
                        "move tasks to another processor or relax "
                        "their (c, p)"
                    ),
                    element=f"processor {processor!r}",
                )
            )
    by_bus: dict[str, float] = {}
    known = set(spec.task_names())
    for message in spec.messages:
        if message.sender is None or message.sender not in known:
            continue
        period = spec.task(message.sender).period
        by_bus[message.bus] = (
            by_bus.get(message.bus, 0.0)
            + message.communication / period
        )
    for bus, load in sorted(by_bus.items()):
        if load > 1.0 + _EPSILON:
            diagnostics.append(
                Diagnostic(
                    code="EZS102",
                    severity=ERROR,
                    message=(
                        f"utilisation {load:.3f} on bus {bus!r} "
                        "exceeds 1.0; the transfers cannot all fit "
                        "in one hyper-period"
                    ),
                    hint=(
                        "split messages across buses or shorten "
                        "transfers"
                    ),
                    element=f"bus {bus!r}",
                )
            )
    return diagnostics


def _chain_diagnostics(spec: EzRTSpec) -> list[Diagnostic]:
    """EZS106: a precedence chain's earliest completion beats no
    deadline.

    The bound ignores resource contention entirely — it is the DAG
    longest path of ``phase + release`` starts, computation times and
    message transfer delays — so exceeding the deadline is a proof of
    infeasibility, never a heuristic.  Validation guarantees matched
    periods along precedence edges, so checking the first instance of
    every task suffices (later instances shift both sides by ``k·p``).
    """
    known = set(spec.task_names())
    predecessors: dict[str, list[tuple[str, int]]] = {
        name: [] for name in known
    }
    for before, after in spec.precedence_pairs():
        if before in known and after in known:
            predecessors[after].append((before, 0))
    for message in spec.messages:
        if (
            message.sender in known
            and message.precedes is not None
            and message.precedes in known
        ):
            predecessors[message.precedes].append(
                (
                    message.sender,
                    message.communication + message.grant_bus,
                )
            )
    completion: dict[str, float] = {}
    visiting: set[str] = set()

    def earliest_completion(name: str) -> float:
        if name in completion:
            return completion[name]
        if name in visiting:  # cycle: validation reports it (EZS109)
            return 0.0
        visiting.add(name)
        task = spec.task(name)
        start = float(task.phase + task.release)
        for before, delay in predecessors[name]:
            start = max(start, earliest_completion(before) + delay)
        visiting.discard(name)
        completion[name] = start + task.computation
        return completion[name]

    diagnostics: list[Diagnostic] = []
    for task in spec.tasks:
        finish = earliest_completion(task.name)
        if finish > task.phase + task.deadline + _EPSILON:
            diagnostics.append(
                Diagnostic(
                    code="EZS106",
                    severity=ERROR,
                    message=(
                        f"precedence chain forces earliest completion "
                        f"{finish:g} past the deadline "
                        f"{task.phase + task.deadline} of task "
                        f"{task.name!r}; no schedule can exist"
                    ),
                    hint=(
                        "shorten the chain's computation/transfer "
                        "times or extend the deadline"
                    ),
                    element=f"task {task.name!r}",
                )
            )
    return diagnostics


def _laxity_diagnostics(spec: EzRTSpec) -> list[Diagnostic]:
    """EZS105: zero-slack tasks (feasible, but brittle to jitter)."""
    return [
        Diagnostic(
            code="EZS105",
            severity=WARNING,
            message=(
                f"task {task.name!r} has zero laxity (d - r - c = 0): "
                "its only admissible start time is its release"
            ),
            hint="any dispatcher overhead makes this deadline miss",
            element=f"task {task.name!r}",
        )
        for task in spec.tasks
        if task.laxity == 0
    ]


def infeasibility_diagnostics(spec: EzRTSpec) -> list[Diagnostic]:
    """Necessary-condition infeasibility errors plus slack warnings.

    Assumes a validation-clean spec (unknown relation targets would
    raise); callers holding unvalidated specs run
    :func:`validation_diagnostics` first and stop on its errors.
    """
    diagnostics = _utilization_diagnostics(spec)
    diagnostics.extend(_chain_diagnostics(spec))
    diagnostics.extend(_laxity_diagnostics(spec))
    return diagnostics


#: The packed engines' static-bound caps: (code, cap, the tail of a
#: finding past the cap).
_CLOCK_CAP = (
    "EZT203",
    MAX_CLOCK,
    f", beyond the packed kernel's {MAX_CLOCK} clock cap, so a kernel "
    "search runs on the slower executable spec",
)
_DBM_CAP = (
    "EZT204",
    MAX_BOUND,
    f", beyond the packed DBM's {MAX_BOUND} bound cap, so a "
    "state-class search runs on the slower executable spec",
)


def _timing_diagnostics(
    spec: EzRTSpec, bound_cap: tuple[str, int, str]
) -> list[Diagnostic]:
    """The task timings and message transfer times past ``bound_cap``:
    every compiled transition interval is built from them."""
    code, cap, tail = bound_cap
    magnitudes = [
        (
            f"task {task.name!r}",
            "timing magnitude",
            max(task.period, task.phase + task.deadline),
        )
        for task in spec.tasks
    ] + [
        (
            f"message {message.name!r}",
            "transfer time",
            message.communication + message.grant_bus,
        )
        for message in spec.messages
    ]
    return [
        Diagnostic(
            code=code,
            severity=WARNING,
            message=f"{element} has {what} {magnitude}" + tail,
            hint=(
                "rescale the time unit (divide all timings by a "
                "common factor)"
            ),
            element=element,
        )
        for element, what, magnitude in magnitudes
        if magnitude > cap
    ]


def clock_cap_diagnostics(spec: EzRTSpec) -> list[Diagnostic]:
    """EZT203 (spec level): timing magnitudes past the kernel's clock cap.

    The packed kernel stores clocks as ``uint16`` words, so a clock
    that must count past :data:`repro.tpn.kernel.MAX_CLOCK` overflows
    it and the search runs on the slower executable spec.  The compiled
    transition intervals are built from the magnitudes EZT204 checks
    (:func:`dbm_bound_diagnostics`).
    """
    return _timing_diagnostics(spec, _CLOCK_CAP)


def token_cap_diagnostics(spec: EzRTSpec) -> list[Diagnostic]:
    """EZT203 (spec level): instance counts past the packed token cap.

    A task with ``N = PS / p`` instances marks instance-counting
    places with up to ``N`` tokens over the hyper-period; the packed
    engines store markings as ``uint16`` words, so past
    :data:`repro.tpn.kernel.MAX_TOKENS` the search runs on the slower
    executable spec.  This surfaces that *before* the search (and
    before a compile that would unroll the instances).
    """
    if not spec.tasks:
        return []
    period = schedule_period(spec)
    diagnostics: list[Diagnostic] = []
    for task in spec.tasks:
        instances = instance_count(task, period)
        if instances > MAX_TOKENS:
            diagnostics.append(
                Diagnostic(
                    code="EZT203",
                    severity=WARNING,
                    message=(
                        f"task {task.name!r} has {instances} instances "
                        f"in the hyper-period {period}, beyond the "
                        f"packed {MAX_TOKENS}-token place cap, so the "
                        "search runs on the slower executable spec"
                    ),
                    hint=(
                        "harmonise the periods to shrink the "
                        "hyper-period"
                    ),
                    element=f"task {task.name!r}",
                )
            )
    return diagnostics


def dbm_bound_diagnostics(spec: EzRTSpec) -> list[Diagnostic]:
    """EZT204 (spec level): timing magnitudes past the DBM bound cap.

    The packed DBM core of the dense-time state-class engine stores
    difference bounds in 32-bit words with
    :data:`repro.tpn.interval.MAX_BOUND` as the static-interval cap —
    the cap under which every canonical bound provably lies within
    ``±MAX_BOUND`` and every closure sum clear of the ``DINF``
    sentinel.  Every compiled transition interval is built from task
    timings (phases, deadlines, periods) and message transfer times,
    so past the cap a state-class search runs on the slower executable
    spec.  This surfaces that *before* the compile, mirroring the
    EZT203 token-cap rule.
    """
    if not spec.tasks:
        return []
    diagnostics = _timing_diagnostics(spec, _DBM_CAP)
    if not diagnostics:
        # individually-small periods can still multiply into a
        # hyper-period past the cap (co-prime periods); the unrolled
        # instance offsets inherit that magnitude
        period = schedule_period(spec)
        if period > MAX_BOUND:
            diagnostics.append(
                Diagnostic(
                    code="EZT204",
                    severity=WARNING,
                    message=f"hyper-period {period}" + _DBM_CAP[2],
                    hint=(
                        "harmonise the periods to shrink the "
                        "hyper-period"
                    ),
                    element=f"spec {spec.name!r}",
                )
            )
    return diagnostics


def presearch_diagnostics(
    spec: EzRTSpec, engine: str | None = None
) -> list[Diagnostic]:
    """The fast-fail gate: cheap diagnostics run before every search.

    Error severity ⇒ the spec is provably infeasible and the caller
    should return a diagnosed infeasible verdict without searching;
    warnings ride along on the result.  O(tasks + relations): never
    compiles, never searches.

    Ill-formed specs are deliberately *not* gated: an invalid spec is
    the composer's error to raise (status ``error``, not a feasibility
    verdict), and the infeasibility rules assume validity — so the
    gate stands aside and lets the pipeline fail the authoritative
    way.  ``ezrt lint`` reports such specs through
    :func:`validation_diagnostics` instead.  ``engine=None`` means
    :data:`~repro.scheduler.config.DEFAULT_ENGINE`.
    """
    if validate_spec(spec):
        return []
    diagnostics = infeasibility_diagnostics(spec)
    if (engine or DEFAULT_ENGINE) == "kernel":
        diagnostics.extend(token_cap_diagnostics(spec))
        diagnostics.extend(clock_cap_diagnostics(spec))
    else:
        diagnostics.extend(dbm_bound_diagnostics(spec))
    return diagnostics


# ---------------------------------------------------------------------------
# Net rules (EZT2xx): structural checks on a compiled TPN
# ---------------------------------------------------------------------------
def net_diagnostics(net: CompiledNet) -> list[Diagnostic]:
    """Structurally dead transitions, unreachable places, packed caps.

    Potential reachability is the usual monotone over-approximation:
    a place is *potentially markable* if initially marked or in the
    postset of a potentially fireable transition; a transition is
    *potentially fireable* once every preset place is potentially
    markable.  Transitions outside the fixpoint can never fire in any
    run (EZT201); unmarkable places are dead weight (EZT202).
    """
    markable = {
        index for index, tokens in enumerate(net.m0) if tokens > 0
    }
    fireable: set[int] = set()
    changed = True
    while changed:
        changed = False
        for index in range(len(net.transition_names)):
            if index in fireable:
                continue
            if all(place in markable for place, _weight in net.pre[index]):
                fireable.add(index)
                changed = True
                for place, _weight in net.post[index]:
                    markable.add(place)
    diagnostics: list[Diagnostic] = []
    for index, name in enumerate(net.transition_names):
        if index not in fireable:
            diagnostics.append(
                Diagnostic(
                    code="EZT201",
                    severity=ERROR,
                    message=(
                        f"transition {name!r} is structurally dead: "
                        "some preset place can never be marked"
                    ),
                    hint=(
                        "remove the transition or supply its missing "
                        "input tokens"
                    ),
                    element=f"transition {name!r}",
                )
            )
    for index, name in enumerate(net.place_names):
        if index not in markable:
            diagnostics.append(
                Diagnostic(
                    code="EZT202",
                    severity=WARNING,
                    message=(
                        f"place {name!r} can never be marked: no "
                        "initial token and no fireable producer"
                    ),
                    hint="dead structure; remove it or feed it",
                    element=f"place {name!r}",
                )
            )
    for index, tokens in enumerate(net.m0):
        if tokens > MAX_TOKENS:
            diagnostics.append(
                Diagnostic(
                    code="EZT203",
                    severity=WARNING,
                    message=(
                        f"place {net.place_names[index]!r} starts with "
                        f"{tokens} tokens, beyond the packed "
                        f"{MAX_TOKENS}-token cap, so the search runs "
                        "on the slower executable spec"
                    ),
                    hint="shrink the initial marking",
                    element=f"place {net.place_names[index]!r}",
                )
            )
    for index, name in enumerate(net.transition_names):
        lft = net.lft[index]
        worst = net.eft[index] if lft == INF else max(
            net.eft[index], int(lft)
        )
        diagnostics.extend(
            Diagnostic(
                code=code,
                severity=WARNING,
                message=(
                    f"transition {name!r} has static interval bound "
                    f"{worst}" + tail
                ),
                hint="rescale the time unit",
                element=f"transition {name!r}",
            )
            for code, cap, tail in (_CLOCK_CAP, _DBM_CAP)
            if worst > cap
        )
    return diagnostics


def _uncovered(net_findings, model, spec_findings) -> list[Diagnostic]:
    """``net_findings`` minus those on a transition derived from a
    task or message that already has a spec-level finding of the same
    code (EZT203/EZT204): one finding per task, not per transition."""
    owner = {}
    for task, nodes in model.nodes.items():
        for name in nodes._values():
            owner[f"transition {name!r}"] = f"task {task!r}"
    for message, nodes in model.message_nodes.items():
        for name in nodes.values():
            owner[f"transition {name!r}"] = f"message {message!r}"
    covered = {(d.code, d.element) for d in spec_findings}
    return [
        d
        for d in net_findings
        if (d.code, owner.get(d.element)) not in covered
    ]


# ---------------------------------------------------------------------------
# Configuration rules (EZG3xx): engine/knob compatibility on raw strings
# ---------------------------------------------------------------------------
def config_diagnostics(
    engine: str | None = None,
    delay_mode: str | None = None,
) -> list[Diagnostic]:
    """Engine/configuration incompatibilities, pre-construction.

    Accepts raw strings (``None`` = knob not set) so callers can lint
    a configuration *before* the :class:`SchedulerConfig` constructor
    gets the chance to raise.
    """
    diagnostics: list[Diagnostic] = []
    for label, value, options in (
        ("engine", engine, ENGINES),
        ("delay_mode", delay_mode, DELAY_MODES),
    ):
        if value is not None and value not in options:
            diagnostics.append(
                Diagnostic(
                    code="EZG303",
                    severity=ERROR,
                    message=(
                        f"unknown {label} {value!r}; expected one of "
                        f"{options}"
                    ),
                    hint=f"pick a supported {label}",
                    element=f"config.{label}",
                )
            )
    if engine == "stateclass" and delay_mode not in (None, "earliest"):
        diagnostics.append(
            Diagnostic(
                code="EZG301",
                severity=ERROR,
                message=(
                    f"delay_mode {delay_mode!r} has no effect on the "
                    "dense-time state-class engine: a state class "
                    "already covers every dense firing delay"
                ),
                hint="keep the default delay_mode='earliest'",
                element="config.delay_mode",
            )
        )
    return diagnostics


# ---------------------------------------------------------------------------
# The whole spec pack behind one call (what `ezrt lint` runs)
# ---------------------------------------------------------------------------
def lint_spec(
    spec: EzRTSpec,
    engine: str | None = None,
    delay_mode: str | None = None,
    compile_net: bool = True,
) -> list[Diagnostic]:
    """Run every spec-pack rule against one specification.

    Validation errors short-circuit the deeper rules (an ill-formed
    spec cannot be compiled or utilisation-analysed meaningfully), and
    a token-cap finding skips the compile (unrolling the offending
    hyper-period is exactly the explosion being diagnosed).
    """
    diagnostics = validation_diagnostics(spec)
    if not has_errors(diagnostics):
        diagnostics.extend(infeasibility_diagnostics(spec))
        cap = token_cap_diagnostics(spec)
        diagnostics.extend(cap)
        diagnostics.extend(clock_cap_diagnostics(spec))
        diagnostics.extend(dbm_bound_diagnostics(spec))
        if compile_net and not cap and not has_errors(diagnostics):
            from repro.blocks.composer import compose

            model = compose(spec)
            diagnostics.extend(
                _uncovered(
                    net_diagnostics(model.compiled()), model, diagnostics
                )
            )
    diagnostics.extend(
        config_diagnostics(engine=engine, delay_mode=delay_mode)
    )
    return diagnostics
