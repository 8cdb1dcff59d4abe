"""The shared diagnostic model of :mod:`repro.lint`.

Every rule in both packs — the spec pack
(:mod:`repro.lint.specrules`) and the code pack
(:mod:`repro.lint.coderules`) — reports findings as
:class:`Diagnostic` values: a *stable code*, a severity, a
human-readable message, the location (a model element for spec rules,
a ``file:line`` for code rules) and a fix hint.  Codes are API: tests,
CI gates, the service's 422 payloads and allowlist comments all match
on them, so a code is never renamed or reused once released.

Code ranges
-----------

========  ==========================================================
``EZS1xx``  specification rules (timing, relations, infeasibility)
``EZT2xx``  compiled time-Petri-net rules (structure, token caps)
``EZG3xx``  engine/configuration compatibility rules
``EZC1xx``  source-code rules (``python -m repro.lint --self``)
========  ==========================================================

Allowlisting
------------

A code-pack diagnostic is suppressed by an inline comment on the
flagged line or the line directly above it::

    # lint: allow EZC101 — cross-process mtime aging
    age = max(0.0, time.time() - os.path.getmtime(path))

The justification text after the code is mandatory by convention (the
comment documents *why* the invariant does not apply), but only the
code itself is matched.
"""

from __future__ import annotations

import re

from repro._record import FrozenRecord, Record

ERROR = "error"
WARNING = "warning"
SEVERITIES = (ERROR, WARNING)

#: ``# lint: allow EZC101`` — the inline suppression directive.
ALLOW_DIRECTIVE = re.compile(r"#\s*lint:\s*allow\s+(EZ[A-Z]\d{3})")


class Diagnostic(FrozenRecord):
    """One static-analysis finding.

    Attributes:
        code: stable rule identifier (``EZS101``, ``EZC103``, ...).
        severity: ``"error"`` (gates verdicts / fails CI) or
            ``"warning"`` (surfaced, never gates).
        message: human-readable statement of the finding.
        hint: how to fix or silence it (may be empty).
        element: the model element the spec pack anchors to
            (``task 'A'``, ``transition 't_x'``); empty for code
            diagnostics.
        file: source path the code pack anchors to; empty for spec
            diagnostics.
        line: 1-based source line for code diagnostics, 0 otherwise.
    """

    __slots__ = (
        "code",
        "severity",
        "message",
        "hint",
        "element",
        "file",
        "line",
    )
    code: str
    severity: str
    message: str
    hint: str
    element: str
    file: str
    line: int

    def __init__(
        self,
        code: str,
        severity: str,
        message: str,
        hint: str = "",
        element: str = "",
        file: str = "",
        line: int = 0,
    ) -> None:
        if severity not in SEVERITIES:
            raise ValueError(
                f"unknown severity {severity!r}; expected one of "
                f"{SEVERITIES}"
            )
        object.__setattr__(self, "code", code)
        object.__setattr__(self, "severity", severity)
        object.__setattr__(self, "message", message)
        object.__setattr__(self, "hint", hint)
        object.__setattr__(self, "element", element)
        object.__setattr__(self, "file", file)
        object.__setattr__(self, "line", line)

    @property
    def location(self) -> str:
        """Where the finding anchors: element, ``file:line`` or ``-``."""
        if self.element:
            return self.element
        if self.file:
            return f"{self.file}:{self.line}" if self.line else self.file
        return "-"

    def to_dict(self) -> dict[str, object]:
        """Machine-readable payload (service 422s, ``--json`` output)."""
        return {
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
            "hint": self.hint,
            "element": self.element,
            "file": self.file,
            "line": self.line,
        }

    def format(self) -> str:
        """One-line human rendering: ``CODE severity location: message``."""
        text = f"{self.code} {self.severity} {self.location}: {self.message}"
        if self.hint:
            text += f" ({self.hint})"
        return text


def errors(diagnostics: list[Diagnostic]) -> list[Diagnostic]:
    """The error-severity subset (what gates verdicts)."""
    return [d for d in diagnostics if d.severity == ERROR]


def has_errors(diagnostics: list[Diagnostic]) -> bool:
    return any(d.severity == ERROR for d in diagnostics)


def format_report(diagnostics: list[Diagnostic]) -> str:
    """Multi-line report, one :meth:`Diagnostic.format` line each."""
    return "\n".join(d.format() for d in diagnostics)


def allowed_codes_by_line(source: str) -> dict[int, set[str]]:
    """Map 1-based line numbers to the codes allowlisted *for* them.

    A directive on line ``n`` suppresses matching diagnostics on line
    ``n`` and line ``n + 1``, so the directive can share the flagged
    line or sit in a comment directly above it.
    """
    allowed: dict[int, set[str]] = {}
    for number, line in enumerate(source.splitlines(), start=1):
        for code in ALLOW_DIRECTIVE.findall(line):
            allowed.setdefault(number, set()).add(code)
            allowed.setdefault(number + 1, set()).add(code)
    return allowed


class LintReport(Record):
    """Aggregated outcome of one runner invocation."""

    __slots__ = ("diagnostics",)

    def __init__(self, diagnostics: list[Diagnostic] | None = None) -> None:
        self.diagnostics = [] if diagnostics is None else diagnostics

    @property
    def errors(self) -> list[Diagnostic]:
        return errors(self.diagnostics)

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == WARNING]

    @property
    def clean(self) -> bool:
        return not self.diagnostics

    def extend(self, more: list[Diagnostic]) -> None:
        self.diagnostics.extend(more)

    def format(self) -> str:
        return format_report(self.diagnostics)

    def to_dicts(self) -> list[dict[str, object]]:
        return [d.to_dict() for d in self.diagnostics]
