"""Counter/gauge/histogram registry with cross-process aggregation.

A :class:`MetricsRegistry` is process-local and lock-free (the search
loop and its callers are single-threaded per process); aggregation
across worker processes happens at the *snapshot* level: each portfolio
worker attaches ``registry.snapshot()`` to the stats payload it
already sends over the results queue, and the parent merges the
drained snapshots with :meth:`MetricsRegistry.merge_snapshots` —
no shared memory, no extra queue, no new failure modes.

Merge semantics per kind:

* **counters** sum (total cache hits, total restarts);
* **gauges** keep the maximum (deepest frontier across workers; the
  per-slot wall-clock gauges carry the slot name, so distinct workers
  never collide on one key);
* **histograms** combine ``count``/``sum`` and widen ``min``/``max``.

Snapshots are plain nested dicts (JSON- and pickle-friendly), shaped
``{"counters": {...}, "gauges": {...}, "histograms": {...}}`` — the
shape that lands on ``SchedulerResult.metrics`` and
``BatchStats.metrics``.
"""

from __future__ import annotations


class MetricsRegistry:
    """Process-local metrics; snapshots merge across processes."""

    __slots__ = ("_counters", "_gauges", "_histograms")

    def __init__(self):
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, dict] = {}

    # ------------------------------------------------------------------
    def inc(self, name: str, value: float = 1) -> None:
        """Add ``value`` to counter ``name`` (created at 0)."""
        self._counters[name] = self._counters.get(name, 0) + value

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (last write wins locally)."""
        self._gauges[name] = value

    def max_gauge(self, name: str, value: float) -> None:
        """Raise gauge ``name`` to ``value`` if higher (never lowers)."""
        current = self._gauges.get(name)
        if current is None or value > current:
            self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Record one observation into histogram ``name``."""
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = {
                "count": 0,
                "sum": 0.0,
                "min": value,
                "max": value,
            }
        hist["count"] += 1
        hist["sum"] += value
        if value < hist["min"]:
            hist["min"] = value
        if value > hist["max"]:
            hist["max"] = value

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Plain-dict copy of the current state (queue-shippable)."""
        return {
            "counters": dict(self._counters),
            "gauges": dict(self._gauges),
            "histograms": {
                name: dict(hist)
                for name, hist in self._histograms.items()
            },
        }

    def merge_snapshot(self, snapshot: dict | None) -> None:
        """Fold one snapshot into this registry (see module doc)."""
        if not snapshot:
            return
        for name, value in snapshot.get("counters", {}).items():
            self.inc(name, value)
        for name, value in snapshot.get("gauges", {}).items():
            self.max_gauge(name, value)
        for name, hist in snapshot.get("histograms", {}).items():
            mine = self._histograms.get(name)
            if mine is None:
                self._histograms[name] = dict(hist)
                continue
            mine["count"] += hist["count"]
            mine["sum"] += hist["sum"]
            if hist["min"] < mine["min"]:
                mine["min"] = hist["min"]
            if hist["max"] > mine["max"]:
                mine["max"] = hist["max"]

    @classmethod
    def merge_snapshots(cls, snapshots) -> dict:
        """Merge an iterable of snapshots into one snapshot dict."""
        merged = cls()
        for snapshot in snapshots:
            merged.merge_snapshot(snapshot)
        return merged.snapshot()


def format_metrics(snapshot: dict | None) -> str:
    """Human-readable metrics block (``ezrt schedule --profile``)."""
    if not snapshot:
        return "(no metrics recorded)"
    lines: list[str] = []
    counters = snapshot.get("counters", {})
    gauges = snapshot.get("gauges", {})
    histograms = snapshot.get("histograms", {})
    if counters:
        lines.append("counters:")
        for name in sorted(counters):
            value = counters[name]
            shown = f"{value:g}" if isinstance(value, float) else value
            lines.append(f"  {name:<32} {shown}")
    if gauges:
        lines.append("gauges:")
        for name in sorted(gauges):
            lines.append(f"  {name:<32} {gauges[name]:g}")
    if histograms:
        lines.append("histograms:")
        for name in sorted(histograms):
            hist = histograms[name]
            mean = hist["sum"] / hist["count"] if hist["count"] else 0.0
            lines.append(
                f"  {name:<32} count={hist['count']} "
                f"mean={mean:g} min={hist['min']:g} max={hist['max']:g}"
            )
    if not lines:
        return "(no metrics recorded)"
    return "\n".join(lines)
