"""Fixture: fake config dataclass for the fingerprint drift pair.

``drift_cache.py`` names this file in its ``lint-fingerprint-config``
directive; the guard cross-checks the fields below against the
``"scheduler"`` section of that file's ``job_fingerprint``.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class SchedulerConfig:
    engine: str = "kernel"
    max_states: int = 100
    policy: str = "earliest"
    trace_jsonl: str | None = None
    progress: bool = False
