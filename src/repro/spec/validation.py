"""Specification validation (well-formedness of the metamodel instance).

The GUI of the paper's tool validates specs before translation; here the
same rules are a plain function so every pipeline entry point (builder,
DSL parser, CLI) shares them.  Each check emits ``(code, message)``
pairs, the code being the rule's stable lint code (``EZS1xx``, see
``docs/linting.md``): :func:`coded_problems` returns the pairs,
:func:`validate_spec` the messages, and :func:`ensure_valid` raises
with all of them at once.

Enforced rules (paper Section 3.2 plus translation prerequisites):

* timing sanity per task: ``c ≤ d ≤ p`` and ``r + c ≤ d``;
* unique task/processor/message names and identifiers;
* relation targets exist, no self-relations;
* exclusion is symmetric (auto-symmetrised by the model API, but hand
  built specs are re-checked);
* precedence is acyclic and only links tasks of equal period (instances
  are matched one-to-one within the schedule period);
* messages reference existing sender/receiver tasks, and a message's
  sender and receiver share the message's period constraints;
* every task references a declared processor when processors are
  declared explicitly.
"""

from __future__ import annotations

from repro.errors import SpecificationError
from repro.spec.model import EzRTSpec


def coded_problems(spec: EzRTSpec) -> list[tuple[str, str]]:
    """Rule violations as ``(code, message)`` pairs."""
    problems: list[tuple[str, str]] = []
    problems.extend(_check_unique_names(spec))
    problems.extend(_check_task_timing(spec))
    problems.extend(_check_relations(spec))
    problems.extend(_check_precedence_graph(spec))
    problems.extend(_check_messages(spec))
    problems.extend(_check_processors(spec))
    return problems


def validate_spec(spec: EzRTSpec) -> list[str]:
    """Collect rule violations; an empty list means the spec is valid."""
    return [message for _code, message in coded_problems(spec)]


def ensure_valid(spec: EzRTSpec) -> EzRTSpec:
    """Raise :class:`SpecificationError` listing every violation."""
    problems = validate_spec(spec)
    if problems:
        bullet = "\n  - "
        raise SpecificationError(
            f"specification {spec.name!r} is invalid:{bullet}"
            f"{bullet.join(problems)}"
        )
    return spec


def _check_unique_names(spec: EzRTSpec) -> list[tuple[str, str]]:
    problems = []
    for label, names in (
        ("task", [t.name for t in spec.tasks]),
        ("processor", [p.name for p in spec.processors]),
        ("message", [m.name for m in spec.messages]),
    ):
        seen: set[str] = set()
        for name in names:
            if name in seen:
                problems.append(
                    ("EZS107", f"duplicate {label} name {name!r}")
                )
            seen.add(name)
    identifiers = [t.identifier for t in spec.tasks]
    identifiers += [m.identifier for m in spec.messages]
    identifiers += [p.identifier for p in spec.processors]
    seen_ids: set[str] = set()
    for identifier in identifiers:
        if identifier in seen_ids:
            problems.append(
                ("EZS107", f"duplicate identifier {identifier!r}")
            )
        seen_ids.add(identifier)
    return problems


def _check_task_timing(spec: EzRTSpec) -> list[tuple[str, str]]:
    problems = []
    for task in spec.tasks:
        if not task.computation <= task.deadline <= task.period:
            problems.append((
                "EZS103",
                f"task {task.name!r}: requires c <= d <= p, got "
                f"c={task.computation}, d={task.deadline}, "
                f"p={task.period}",
            ))
        if task.release + task.computation > task.deadline:
            problems.append((
                "EZS104",
                f"task {task.name!r}: release window [r, d-c] is empty "
                f"(r={task.release}, c={task.computation}, "
                f"d={task.deadline})",
            ))
    return problems


def _check_relations(spec: EzRTSpec) -> list[tuple[str, str]]:
    problems = []
    names = set(spec.task_names())
    for task in spec.tasks:
        for other in task.precedes_tasks:
            if other not in names:
                problems.append((
                    "EZS108",
                    f"task {task.name!r} precedes unknown task {other!r}",
                ))
            elif other == task.name:
                problems.append(
                    ("EZS108", f"task {task.name!r} precedes itself")
                )
        for other in task.excludes_tasks:
            if other not in names:
                problems.append((
                    "EZS108",
                    f"task {task.name!r} excludes unknown task {other!r}",
                ))
            elif other == task.name:
                problems.append(
                    ("EZS108", f"task {task.name!r} excludes itself")
                )
            elif task.name not in spec.task(other).excludes_tasks:
                problems.append((
                    "EZS108",
                    f"exclusion {task.name!r}/{other!r} is not symmetric",
                ))
    return problems


def _check_precedence_graph(spec: EzRTSpec) -> list[tuple[str, str]]:
    problems = []
    names = set(spec.task_names())
    # equal-period constraint
    for before, after in spec.precedence_pairs():
        if before in names and after in names:
            p_before = spec.task(before).period
            p_after = spec.task(after).period
            if p_before != p_after:
                problems.append((
                    "EZS109",
                    f"precedence {before!r} -> {after!r} links tasks of "
                    f"different periods ({p_before} vs {p_after}); "
                    "instances cannot be matched one-to-one",
                ))
    # cycle detection (iterative DFS over the precedence digraph)
    graph = {name: [] for name in names}
    for before, after in spec.precedence_pairs():
        if before in names and after in names:
            graph[before].append(after)
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {name: WHITE for name in names}
    for root in names:
        if color[root] != WHITE:
            continue
        stack: list[tuple[str, int]] = [(root, 0)]
        color[root] = GRAY
        while stack:
            node, edge_index = stack[-1]
            if edge_index < len(graph[node]):
                stack[-1] = (node, edge_index + 1)
                child = graph[node][edge_index]
                if color[child] == GRAY:
                    problems.append(
                        ("EZS109", f"precedence cycle through {child!r}")
                    )
                elif color[child] == WHITE:
                    color[child] = GRAY
                    stack.append((child, 0))
            else:
                color[node] = BLACK
                stack.pop()
    return problems


def _check_messages(spec: EzRTSpec) -> list[tuple[str, str]]:
    problems = []
    names = set(spec.task_names())
    message_names = {m.name for m in spec.messages}
    for message in spec.messages:
        if message.sender is not None and message.sender not in names:
            problems.append((
                "EZS110",
                f"message {message.name!r}: unknown sender "
                f"{message.sender!r}",
            ))
        if message.precedes is not None and message.precedes not in names:
            problems.append((
                "EZS110",
                f"message {message.name!r}: unknown receiver "
                f"{message.precedes!r}",
            ))
        if (
            message.sender is not None
            and message.precedes is not None
            and message.sender == message.precedes
        ):
            problems.append((
                "EZS110",
                f"message {message.name!r}: sender equals receiver",
            ))
        if (
            message.sender is not None
            and message.precedes is not None
            and message.sender in names
            and message.precedes in names
        ):
            p_s = spec.task(message.sender).period
            p_r = spec.task(message.precedes).period
            if p_s != p_r:
                problems.append((
                    "EZS110",
                    f"message {message.name!r} links tasks of different "
                    f"periods ({p_s} vs {p_r})",
                ))
    for task in spec.tasks:
        for msg in task.precedes_msgs:
            if msg not in message_names:
                problems.append((
                    "EZS110",
                    f"task {task.name!r} precedes unknown message "
                    f"{msg!r}",
                ))
    # tie task.precedes_msgs back to message.sender when both are given
    for message in spec.messages:
        if message.sender is not None:
            sender = next(
                (t for t in spec.tasks if t.name == message.sender), None
            )
            if sender is not None and (
                message.name not in sender.precedes_msgs
            ):
                problems.append((
                    "EZS110",
                    f"message {message.name!r} declares sender "
                    f"{message.sender!r} but the task does not list it "
                    "in precedesMsgs",
                ))
    return problems


def _check_processors(spec: EzRTSpec) -> list[tuple[str, str]]:
    problems = []
    if not spec.processors:
        return problems  # implicit single processor, nothing to check
    declared = {p.name for p in spec.processors}
    for task in spec.tasks:
        if task.processor not in declared:
            problems.append((
                "EZS111",
                f"task {task.name!r} runs on undeclared processor "
                f"{task.processor!r}",
            ))
    return problems
