"""Adaptive portfolio seeding and workload-hardness prediction.

**Overview for new contributors.**  The portfolio race
(:mod:`repro.scheduler.parallel`) wins because search times are
heavy-tailed — but *which* slot wins is strongly correlated with the
model's shape: wide-interval nets fall to the dense state-class slot,
preemption-heavy task sets to seeded shuffles, and so on.  This module
closes that loop:

* :func:`net_family` / :func:`spec_family` compute a coarse
  **model-family fingerprint** — a short digest of bucketed structural
  features, deliberately lossy so that similar models (a time-scaled
  variant, a re-seeded task set of the same shape) land in the same
  family;
* :class:`AdaptiveStore` persists per-family statistics: which
  portfolio slots won races (``record_win``), and how many states
  searches of the family visited (``record_job``).  The store orders a
  slot rotation by past wins (``order_slots``) and predicts search
  hardness (``predicted_states``) for the batch engine's hardest-first
  job ordering;
* :meth:`AdaptiveStore.warm_start_from_bench` seeds a fresh store from
  the repository's ``BENCH_parallel.json`` winner statistics, so a
  first race on a familiar model shape already starts with the
  historically winning slot up front.

The statistics are *advisory*: slot order changes which worker finds
the verdict first, never which verdict exists, and the batch ordering
changes completion order, never the JSONL content — both contracts are
pinned by tests.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile

from repro.spec.model import EzRTSpec
from repro.tpn.interval import INF
from repro.tpn.net import CompiledNet

#: Bump when the fingerprint features or bucketing change: old
#: families then miss cleanly instead of aliasing into new ones.
FAMILY_VERSION = 1


def _log_bucket(value: float) -> int:
    """Coarse log2 bucket (0 for empty, else ``round(log2(value))``)."""
    if value <= 1:
        return 0
    return int(round(math.log2(value)))


def _decile(fraction: float) -> int:
    """A fraction in [0, 1] bucketed to tenths."""
    if fraction <= 0.0:
        return 0
    if fraction >= 1.0:
        return 10
    return int(fraction * 10)


def _digest(kind: str, features: dict) -> str:
    document = json.dumps(
        {"v": FAMILY_VERSION, "kind": kind, "features": features},
        sort_keys=True,
        separators=(",", ":"),
    )
    digest = hashlib.sha256(document.encode("utf-8")).hexdigest()[:12]
    return f"fam{FAMILY_VERSION}:{kind}:{digest}"


def net_family(net: CompiledNet) -> str:
    """Model-family fingerprint of a compiled net.

    Buckets the structural features that predict which portfolio slot
    wins: net size (log2 buckets), and the interval profile of the
    timed transitions — the fractions that are immediate ``[0,0]``,
    punctual (``eft == lft``), *wide* (window of at least 2 time
    units, the state-class engine's home turf) and unbounded.
    """
    n = net.num_transitions
    immediate = punctual = wide = unbounded = 0
    for t in range(n):
        eft, lft = net.eft[t], net.lft[t]
        if lft == INF:
            unbounded += 1
        elif eft == 0 and lft == 0:
            immediate += 1
        elif lft == eft:
            punctual += 1
        if lft == INF or lft - eft >= 2:
            wide += 1
    total = max(1, n)
    features = {
        "transitions": _log_bucket(n),
        "places": _log_bucket(net.num_places),
        "immediate": _decile(immediate / total),
        "punctual": _decile(punctual / total),
        "wide": _decile(wide / total),
        "unbounded": _decile(unbounded / total),
        "miss": _decile(len(net.miss_transitions) / total),
    }
    return _digest("net", features)


def _spec_features(spec: EzRTSpec) -> dict:
    periods = [task.period for task in spec.tasks]
    schedule_period = math.lcm(*periods) if periods else 1
    instances = sum(
        schedule_period // task.period for task in spec.tasks
    )
    n = max(1, len(spec.tasks))
    utilization = sum(
        task.computation / task.period for task in spec.tasks
    )
    preemptive = sum(task.is_preemptive for task in spec.tasks) / n
    slack = sum(
        (task.deadline - task.computation) / task.period
        for task in spec.tasks
    ) / n
    return {
        "tasks": len(spec.tasks),
        "instances": _log_bucket(instances),
        "utilization": _decile(min(utilization, 1.0)),
        "preemptive": _decile(preemptive),
        "slack": _decile(min(slack, 1.0)),
        "relations": _log_bucket(
            len(spec.precedence_pairs())
            + len(spec.exclusion_pairs())
            + len(spec.messages)
        ),
    }


def spec_family(spec: EzRTSpec) -> str:
    """Model-family fingerprint of a specification.

    The batch-side view of the same family scheme as
    :func:`net_family`: computable without composing the net (the
    batch engine orders hundreds of jobs before any of them compiles),
    from the features that predict search hardness — instance count
    over the hyper-period, utilisation, preemption, deadline slack and
    relation density, all bucketed.
    """
    return _digest("spec", _spec_features(spec))


def predict_states(spec: EzRTSpec) -> float:
    """Heuristic search-hardness estimate of a specification.

    Used as the hardest-first ordering key when no recorded statistics
    exist for the spec's family yet.  Monotone in the features that
    actually blow up the DFS: task instances over the hyper-period
    (the backtrack-free path length is linear in them), utilisation
    pressure (close to 1 forces tight interleavings and deep
    refutation subtrees) and preemption (every grant becomes a genuine
    branch).  The absolute value is meaningless; only the induced
    order matters.
    """
    features = _spec_features(spec)
    periods = [task.period for task in spec.tasks]
    schedule_period = math.lcm(*periods) if periods else 1
    instances = sum(
        schedule_period // task.period for task in spec.tasks
    )
    utilization = sum(
        task.computation / task.period for task in spec.tasks
    )
    pressure = 1.0 / max(0.05, 1.05 - min(utilization, 1.0))
    preemptive = 1.0 + features["preemptive"] / 10.0
    return instances * (1.0 + len(spec.tasks) / 4.0) * pressure * preemptive


class AdaptiveStore:
    """Per-family slot-win and hardness statistics, optionally on disk.

    The JSON layout is ``{"version", "families": {family: {"slots":
    {slot: {"wins", "states", "seconds", "runs", "near"}}, "jobs":
    {"runs", "states"}}}}`` (the three timing keys are settled lazily,
    so stores written before the wall-clock refinement load fine).
    With
    a ``path`` the store loads existing statistics at construction and
    :meth:`save` persists atomically (write + rename), so concurrent
    readers never see torn files; without one it is memory-only.
    A corrupt or alien file is treated as empty rather than fatal —
    losing advisory statistics must never fail a search.
    """

    VERSION = 1

    def __init__(self, path: str | None = None):
        self.path = path
        self._families: dict[str, dict] = {}
        if path and os.path.exists(path):
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    payload = json.load(handle)
                if payload.get("version") == self.VERSION:
                    self._families = payload.get("families", {})
            except (OSError, ValueError):
                self._families = {}

    # ------------------------------------------------------------------
    def _family(self, family: str) -> dict:
        return self._families.setdefault(
            family, {"slots": {}, "jobs": {"runs": 0, "states": 0}}
        )

    def _slot_entry(self, family: str, slot: str) -> dict:
        entry = self._family(family)["slots"].setdefault(
            slot, {"wins": 0, "states": 0}
        )
        # stores written before the wall-clock refinement lack the
        # timing keys; settle them on first touch
        entry.setdefault("seconds", 0.0)
        entry.setdefault("runs", 0)
        entry.setdefault("near", 0)
        return entry

    def record_win(
        self, family: str, slot: str, states_visited: int = 0
    ) -> None:
        """Credit ``slot`` with a race win on ``family``."""
        entry = self._slot_entry(family, slot)
        entry["wins"] += 1
        entry["states"] += int(states_visited)

    def record_slot_time(
        self,
        family: str,
        slot: str,
        seconds: float,
        near: bool = False,
    ) -> None:
        """Record one race's wall-clock for ``slot`` on ``family``.

        ``near`` credits a *near win*: the slot reached a definitive
        verdict on its own but another slot got there first.  Ordering
        by ``(wins, near, mean seconds)`` means a narrowly-losing
        diverse slot keeps a place near the front instead of being
        starved forever by a single historical winner.
        """
        entry = self._slot_entry(family, slot)
        entry["seconds"] += float(seconds)
        entry["runs"] += 1
        if near:
            entry["near"] += 1

    def decay_family(self, family: str, factor: float = 0.95) -> None:
        """Decay the family's win/near credit by ``factor``.

        Called once per race before the new win is recorded, so old
        wins fade geometrically and a slot that stopped winning loses
        its head start within a few dozen races.  Counts become floats;
        consumers only compare, so ``1.0`` reads like ``1``.
        """
        slots = self._families.get(family, {}).get("slots")
        if not slots:
            return
        for entry in slots.values():
            entry["wins"] = entry.get("wins", 0) * factor
            entry["near"] = entry.get("near", 0) * factor

    def record_job(self, family: str, states_visited: int) -> None:
        """Record one search's visited count for hardness prediction."""
        jobs = self._family(family)["jobs"]
        jobs["runs"] += 1
        jobs["states"] += int(states_visited)

    def wins(self, family: str) -> dict[str, int]:
        """``slot -> win count`` for a family (empty when unknown)."""
        slots = self._families.get(family, {}).get("slots", {})
        return {slot: entry["wins"] for slot, entry in slots.items()}

    def order_slots(
        self, family: str, slots: tuple[str, ...]
    ) -> tuple[str, ...]:
        """Reorder a slot rotation by the family's recorded statistics.

        Sort key, most significant first: decayed race wins, then
        *near wins* (definitive verdicts that lost the race — the
        refinement that keeps a narrowly-losing diverse slot from
        being starved), then mean recorded wall-clock (fastest first;
        slots the store knows nothing about tie at zero and keep their
        relative rotation order).  The ordering is a pure permutation —
        no slot is added or dropped, so the race's verdict contract is
        untouched.
        """
        slot_stats = self._families.get(family, {}).get("slots", {})
        if not slot_stats:
            return tuple(slots)

        def sort_key(pair):
            index, slot = pair
            entry = slot_stats.get(slot, {})
            runs = entry.get("runs", 0)
            mean_seconds = (
                entry.get("seconds", 0.0) / runs if runs else 0.0
            )
            return (
                -entry.get("wins", 0),
                -entry.get("near", 0),
                mean_seconds,
                index,
            )

        indexed = list(enumerate(slots))
        indexed.sort(key=sort_key)
        return tuple(slot for _index, slot in indexed)

    def predicted_states(self, family: str, default: float) -> float:
        """Mean recorded visited count of the family, else ``default``."""
        jobs = self._families.get(family, {}).get("jobs")
        if not jobs or not jobs.get("runs"):
            return default
        return jobs["states"] / jobs["runs"]

    # ------------------------------------------------------------------
    def save(self) -> None:
        """Persist to ``path`` atomically (no-op for memory stores)."""
        if not self.path:
            return
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        payload = {
            "version": self.VERSION,
            "families": self._families,
        }
        fd, temp_path = tempfile.mkstemp(
            dir=directory, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, sort_keys=True)
            os.replace(temp_path, self.path)
        except OSError:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            raise

    # ------------------------------------------------------------------
    def warm_start_from_bench(
        self, payload: dict, families: dict[str, str]
    ) -> int:
        """Seed the store from a ``BENCH_parallel.json`` payload.

        ``families`` maps the bench's model names to family
        fingerprints (see :func:`bench_model_families`); models the
        mapping does not know are skipped.  Every portfolio curve row
        with a recorded winner credits that slot; returns the number
        of wins recorded.
        """
        recorded = 0
        for entry in payload.get("results", ()):
            if entry.get("mode") != "portfolio":
                continue
            family = families.get(entry.get("model"))
            if family is None:
                continue
            for row in entry.get("curve", ()):
                slot = row.get("winner_slot") or row.get(
                    "winner_policy"
                )
                if not slot:
                    continue
                self.record_win(
                    family, slot, row.get("states_visited", 0)
                )
                recorded += 1
        return recorded


def bench_model_families() -> dict[str, str]:
    """Family fingerprints of the parallel-bench models.

    The mapping :meth:`AdaptiveStore.warm_start_from_bench` needs to
    translate ``BENCH_parallel.json`` model names into families: the
    hard portfolio task set and the wide-interval race net, composed
    and fingerprinted the same way a live race fingerprints its net.
    """
    # deferred imports: keep this module import-light for the workers
    from repro.blocks.composer import compose
    from repro.workloads import (
        hard_portfolio_task_set,
        wide_interval_race_net,
    )

    families: dict[str, str] = {}
    spec = hard_portfolio_task_set()
    families[spec.name] = net_family(compose(spec).compiled())
    net = wide_interval_race_net()
    families[net.name] = net_family(net.compile())
    return families
