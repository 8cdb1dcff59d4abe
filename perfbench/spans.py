"""Per-layer timing from the benchmark's own files.

The traced runs time each layer by wrapping the program's public
functions at run time — nothing is added inside ``src/``.  A wrapped
call's *self* time is its duration minus the time of wrapped calls
nested inside it, so ``find_schedule`` is charged for the search and
not for the prelint gate or the (cached) net compilation it calls.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

#: layer wrappers for the one-shot CLI: (module, attribute, layer).
#: ``repro.cli`` binds its pipeline functions by name, so they are
#: wrapped in the CLI module's namespace.
CLI_LAYERS = (
    ("repro.cli", "dsl_load", "spec.parse"),
    ("repro.lint.specrules", "presearch_diagnostics", "lint.prelint"),
    ("repro.cli", "compose", "blocks.compose"),
    ("repro.blocks.composer", "ComposedModel.compiled", "tpn.compile"),
    ("repro.cli", "find_schedule", "scheduler.search"),
    ("repro.cli", "schedule_from_result", "scheduler.extract"),
    ("repro.cli", "full_report", "analysis.report"),
    ("repro.cli", "generate_project", "codegen.emit"),
    ("repro.codegen.generator", "GeneratedProject.write", "codegen.emit"),
    ("repro.cli", "run_schedule", "sim.simulate"),
    ("repro.cli", "verify_trace", "sim.verify"),
)

#: layer wrappers for in-process searches, which call the library
#: through its package attributes (``repro.blocks.compose`` ...)
SEARCH_LAYERS = (
    ("repro.lint.specrules", "presearch_diagnostics", "lint.prelint"),
    ("repro.blocks", "compose", "blocks.compose"),
    ("repro.blocks.composer", "ComposedModel.compiled", "tpn.compile"),
    ("repro.scheduler", "find_schedule", "scheduler.search"),
)

#: every layer a wrapper can charge, in pipeline order
LAYERS = (
    "spec.parse",
    "lint.prelint",
    "blocks.compose",
    "tpn.compile",
    "scheduler.search",
    "scheduler.extract",
    "analysis.report",
    "codegen.emit",
    "sim.simulate",
    "sim.verify",
)


def _resolve(module_name: str, attr: str):
    owner = importlib.import_module(module_name)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class LayerClock:
    """Accumulates self time (seconds) per layer while installed."""

    def __init__(self) -> None:
        self.self_seconds: dict[str, float] = defaultdict(float)
        self._nested: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    def install(self, targets) -> None:
        for module_name, attr, layer in targets:
            owner, name = _resolve(module_name, attr)
            original = getattr(owner, name)
            setattr(owner, name, self._timed(original, layer))
            self._undo.append((owner, name, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def take(self) -> dict[str, float]:
        """Self milliseconds per layer since the last take; resets."""
        taken = {
            layer: seconds * 1000.0
            for layer, seconds in self.self_seconds.items()
        }
        self.self_seconds.clear()
        return taken

    def _timed(self, original, layer: str):
        nested = self._nested
        totals = self.self_seconds

        @functools.wraps(original)
        def timed(*args, **kwargs):
            nested.append(0.0)
            started = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                totals[layer] += elapsed - nested.pop()
                if nested:
                    nested[-1] += elapsed

        return timed
