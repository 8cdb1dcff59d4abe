"""Code pack: AST rules enforcing the repository's own invariants.

Run as ``python -m repro.lint --self``, these rules pin down design
decisions that live nowhere in the type system:

* **EZC101** — no wall-clock reads (``time.time``, ``datetime.now``,
  ...) in *deterministic* modules: the batch cache/fingerprints, the
  service audit log and the JSONL writers must produce byte-identical
  output run over run, so only ``time.monotonic``/``perf_counter``
  (durations, never timestamps) are allowed there;
* **EZC102** — no blocking calls (``time.sleep``, synchronous
  ``open``/``subprocess``) lexically inside ``async def`` bodies of
  :mod:`repro.service`: one blocked coroutine stalls every connection
  on the loop;
* **EZC103** — no mutable default arguments, repository-wide.

Rules anchor on a *virtual path* (the file's path relative to the
source root, e.g. ``repro/batch/cache.py``) so the fixture corpus
under ``tests/lint_fixtures/`` can impersonate any module with a
``# lint-module: repro/service/example.py`` directive.  Findings are
suppressed per line by the ``# lint: allow CODE`` directive (see
:mod:`repro.lint.diagnostics`).
"""

from __future__ import annotations

import ast
import os
import re

from repro.lint.diagnostics import (
    ERROR,
    Diagnostic,
    allowed_codes_by_line,
)

#: Modules whose output must be run-to-run deterministic: fingerprints
#: and caches, the batch JSONL writers, the service audit log, the
#: observability sinks, and the spec codecs they all hash.
DETERMINISTIC_PREFIXES = (
    "repro/batch/",
    "repro/service/",
    "repro/obs/",
    "repro/spec/",
)

#: The asyncio service: coroutine bodies here must never block.
SERVICE_PREFIX = "repro/service/"

#: Calls that read the wall clock (EZC101).  ``time.monotonic`` and
#: ``time.perf_counter`` are deliberately absent: durations are fine,
#: timestamps are not.
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.ctime",
        "time.localtime",
        "time.gmtime",
        "time.strftime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: Calls that block the event loop when awaited code runs them
#: (EZC102).
BLOCKING_CALLS = frozenset(
    {
        "time.sleep",
        "open",
        "io.open",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "urllib.request.urlopen",
        "socket.create_connection",
    }
)

#: Default-argument constructors that create shared mutable state
#: (EZC103), beyond the literal ``[]``/``{}``/``set()`` forms.
MUTABLE_FACTORIES = frozenset(
    {
        "list",
        "dict",
        "set",
        "bytearray",
        "collections.defaultdict",
        "collections.OrderedDict",
        "collections.deque",
        "collections.Counter",
    }
)

#: ``# lint-module: repro/...`` — fixture files impersonate a module.
#: Anchored to the line start so prose mentioning the directive (like
#: this comment) never triggers it.
MODULE_DIRECTIVE = re.compile(
    r"^#\s*lint-module:\s*(\S+)", re.MULTILINE
)
#: ``# expect: EZC101, EZC103`` — seeded-violation markers.
EXPECT_DIRECTIVE = re.compile(r"#\s*expect:\s*([A-Z0-9,\s]+)")


def _import_aliases(tree: ast.AST) -> dict[str, str]:
    """Local name → dotted origin, from the module's import statements."""
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                aliases[name.asname or name.name.split(".")[0]] = (
                    name.name if name.asname else name.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.module:
            for name in node.names:
                aliases[name.asname or name.name] = (
                    f"{node.module}.{name.name}"
                )
    return aliases


def _dotted(node: ast.AST, aliases: dict[str, str]) -> str | None:
    """Resolve a call target to its dotted origin name, if nameable."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(aliases.get(node.id, node.id))
    return ".".join(reversed(parts))


class _CodeVisitor(ast.NodeVisitor):
    """Single-pass visitor driving EZC101/EZC102/EZC103."""

    def __init__(
        self,
        virtual_path: str,
        aliases: dict[str, str],
    ) -> None:
        self.virtual_path = virtual_path
        self.aliases = aliases
        self.deterministic = virtual_path.startswith(
            DETERMINISTIC_PREFIXES
        )
        self.service = virtual_path.startswith(SERVICE_PREFIX)
        self.async_depth = 0
        self.diagnostics: list[Diagnostic] = []

    # -- function scopes ----------------------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        depth, self.async_depth = self.async_depth, 0
        self.generic_visit(node)
        self.async_depth = depth

    def visit_AsyncFunctionDef(
        self, node: ast.AsyncFunctionDef
    ) -> None:
        self._check_defaults(node)
        self.async_depth += 1
        self.generic_visit(node)
        self.async_depth -= 1

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def _check_defaults(
        self,
        node: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda,
    ) -> None:
        defaults = list(node.args.defaults) + [
            default
            for default in node.args.kw_defaults
            if default is not None
        ]
        for default in defaults:
            mutable = isinstance(
                default, (ast.List, ast.Dict, ast.Set)
            ) or (
                isinstance(default, ast.Call)
                and _dotted(default.func, self.aliases)
                in MUTABLE_FACTORIES
            )
            if mutable:
                name = getattr(node, "name", "<lambda>")
                self.diagnostics.append(
                    Diagnostic(
                        code="EZC103",
                        severity=ERROR,
                        message=(
                            f"mutable default argument in "
                            f"{name!r}: the default is shared across "
                            "every call"
                        ),
                        hint="default to None and create inside",
                        file=self.virtual_path,
                        line=default.lineno,
                    )
                )

    # -- calls ---------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        target = _dotted(node.func, self.aliases)
        if target is not None:
            if self.deterministic and target in WALL_CLOCK_CALLS:
                self.diagnostics.append(
                    Diagnostic(
                        code="EZC101",
                        severity=ERROR,
                        message=(
                            f"wall-clock call {target}() in "
                            "deterministic module "
                            f"{self.virtual_path!r}: output must be "
                            "byte-identical run over run"
                        ),
                        hint=(
                            "use time.monotonic for durations, or "
                            "allowlist with a justification"
                        ),
                        file=self.virtual_path,
                        line=node.lineno,
                    )
                )
            if (
                self.service
                and self.async_depth > 0
                and target in BLOCKING_CALLS
            ):
                self.diagnostics.append(
                    Diagnostic(
                        code="EZC102",
                        severity=ERROR,
                        message=(
                            f"blocking call {target}() inside a "
                            "repro.service coroutine: it stalls every "
                            "connection on the event loop"
                        ),
                        hint=(
                            "await an async equivalent or move the "
                            "work to an executor"
                        ),
                        file=self.virtual_path,
                        line=node.lineno,
                    )
                )
        self.generic_visit(node)


def lint_source(source: str, virtual_path: str) -> list[Diagnostic]:
    """Run the per-file code rules over one module's source text."""
    try:
        tree = ast.parse(source)
    except SyntaxError as err:
        return [
            Diagnostic(
                code="EZC100",
                severity=ERROR,
                message=f"file does not parse: {err.msg}",
                file=virtual_path,
                line=err.lineno or 0,
            )
        ]
    visitor = _CodeVisitor(virtual_path, _import_aliases(tree))
    visitor.visit(tree)
    allowed = allowed_codes_by_line(source)
    return [
        diagnostic
        for diagnostic in visitor.diagnostics
        if diagnostic.code not in allowed.get(diagnostic.line, ())
    ]


# ---------------------------------------------------------------------------
# File and tree drivers
# ---------------------------------------------------------------------------
def virtual_path_of(path: str, root: str | None = None) -> str:
    """The rule-anchoring path: directive override, else root-relative."""
    with open(path, encoding="utf-8") as handle:
        head = handle.read(4096)
    directive = MODULE_DIRECTIVE.search(head)
    if directive:
        return directive.group(1)
    if root is not None:
        return os.path.relpath(path, root).replace(os.sep, "/")
    return os.path.basename(path)


def lint_file(path: str, root: str | None = None) -> list[Diagnostic]:
    """The per-file rules on one file."""
    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    return lint_source(source, virtual_path_of(path, root))


def lint_tree(root: str) -> list[Diagnostic]:
    """Lint every ``*.py`` under ``root``.

    ``root`` is the import root (the directory holding ``repro/``),
    so virtual paths come out as ``repro/batch/cache.py``.
    """
    diagnostics: list[Diagnostic] = []
    for directory, _subdirs, files in sorted(os.walk(root)):
        for name in sorted(files):
            if name.endswith(".py"):
                diagnostics.extend(
                    lint_file(os.path.join(directory, name), root)
                )
    return diagnostics


# ---------------------------------------------------------------------------
# Seeded-violation fixtures: every rule must fire where planted
# ---------------------------------------------------------------------------
def expected_codes(source: str) -> set[tuple[int, str]]:
    """``(line, code)`` pairs declared by ``# expect:`` markers."""
    expected: set[tuple[int, str]] = set()
    for number, line in enumerate(source.splitlines(), start=1):
        marker = EXPECT_DIRECTIVE.search(line)
        if marker:
            for code in marker.group(1).split(","):
                code = code.strip()
                if code:
                    expected.add((number, code))
    return expected


def check_fixture(path: str) -> list[str]:
    """Compare a fixture's findings against its ``# expect:`` markers.

    Returns human-readable problems; empty means the file produced
    exactly its planted diagnostics — every rule fired, and nothing
    else did.
    """
    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    expected = expected_codes(source)
    found = {
        (diagnostic.line, diagnostic.code)
        for diagnostic in lint_file(path)
    }
    name = os.path.basename(path)
    problems = [
        f"{name}:{line}: expected {code} was not reported"
        for line, code in sorted(expected - found)
    ]
    problems.extend(
        f"{name}:{line}: unexpected {code} reported"
        for line, code in sorted(found - expected)
    )
    return problems


def check_fixture_dir(directory: str) -> list[str]:
    """Run :func:`check_fixture` over every ``*.py`` in a directory."""
    problems: list[str] = []
    names = [
        name
        for name in sorted(os.listdir(directory))
        if name.endswith(".py")
    ]
    if not names:
        return [f"{directory}: no fixture files found"]
    for name in names:
        problems.extend(check_fixture(os.path.join(directory, name)))
    return problems
