"""Content-addressed result cache for batch synthesis.

The cache maps a *canonical fingerprint* of a synthesis job to the
outcome it produced, so re-running a campaign skips every point that was
already solved and an incremental sweep only pays for its new points.

Cache key scheme
----------------

The key is the SHA-256 hex digest of the canonical JSON encoding
(sorted keys, compact separators) of a fingerprint document::

    {"v": <format version>,
     "spec": <spec fingerprint>,
     "composer": {"style": ..., "priority_policy": ...},
     "scheduler": {"engine": ..., "priority_mode": ...,
                   "delay_mode": ..., "partial_order": ...,
                   "reset_policy": ..., "max_states": ...,
                   "max_seconds": ..., "policy": ...,
                   "policy_seed": ..., "parallel": ...,
                   "portfolio": [...]},
     "stages": {"codegen": <target or None>, "simulate": <bool>,
                "store_schedule": <bool>}}

The spec fingerprint contains every *semantic* field of the
specification — task tuples ``(ph, r, c, d, p)``, scheduling modes,
energy, processors, relations, messages and attached source code — but
deliberately excludes the auto-generated ``identifier`` fields (two
builds of the same task set get different ``ez...`` counters) and the
specification ``name`` (a label, not content).  Task *order* is
preserved because the ``lex`` priority policy depends on it.

``max_seconds`` in the scheduler section is the job's *effective* time
budget (per-job timeout folded in), so the same model searched under a
different budget is a different key: a timeout outcome must never
shadow a longer search.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile

from repro.blocks.composer import ComposerOptions
from repro.scheduler.config import SchedulerConfig
from repro.spec.model import EzRTSpec

#: Bump when the fingerprint layout or outcome payload changes shape.
#: v2: scheduler section gained the search-policy and parallel knobs.
#: v3: scheduler section gained the engine selection — reference,
#: incremental and stateclass runs used to collide on one key even
#: though their stats and schedule shapes differ; bumping the version
#: also makes every v2 entry miss cleanly instead of being replayed
#: with the wrong shape.
#: v4: scheduler section lost the parallel-mode knob (the portfolio
#: race is the only parallel search); v3 entries miss instead of
#: matching a layout that no longer exists.
CACHE_FORMAT_VERSION = 4


def spec_fingerprint(spec: EzRTSpec) -> dict:
    """Identifier-free canonical description of a specification."""
    return {
        "disp_oveh": spec.disp_oveh,
        "tasks": [
            {
                "name": task.name,
                "computation": task.computation,
                "deadline": task.deadline,
                "period": task.period,
                "release": task.release,
                "phase": task.phase,
                "scheduling": task.scheduling.value,
                "energy": task.energy,
                "processor": task.processor,
                "code": task.code.content if task.code else None,
                "precedes_tasks": list(task.precedes_tasks),
                "excludes_tasks": sorted(task.excludes_tasks),
                "precedes_msgs": list(task.precedes_msgs),
            }
            for task in spec.tasks
        ],
        "processors": [p.name for p in spec.processors],
        "messages": [
            {
                "name": message.name,
                "bus": message.bus,
                "communication": message.communication,
                "grant_bus": message.grant_bus,
                "sender": message.sender,
                "precedes": message.precedes,
            }
            for message in spec.messages
        ],
    }


def job_fingerprint(
    spec: EzRTSpec,
    options: ComposerOptions,
    config: SchedulerConfig,
    codegen_target: str | None = None,
    simulate: bool = False,
    store_schedule: bool = False,
) -> dict:
    """The full fingerprint document hashed into the cache key."""
    return {
        "v": CACHE_FORMAT_VERSION,
        "spec": spec_fingerprint(spec),
        "composer": {
            "style": options.style.value,
            "priority_policy": options.priority_policy,
        },
        "scheduler": {
            "engine": config.engine,
            "priority_mode": config.priority_mode,
            "delay_mode": config.delay_mode,
            "partial_order": config.partial_order,
            "reset_policy": config.reset_policy,
            "max_states": config.max_states,
            "max_seconds": config.max_seconds,
            "policy": config.policy,
            "policy_seed": config.policy_seed,
            "parallel": config.parallel,
            "portfolio": list(config.portfolio),
        },
        "stages": {
            "codegen": codegen_target,
            "simulate": simulate,
            "store_schedule": store_schedule,
        },
    }


def cache_key(
    spec: EzRTSpec,
    options: ComposerOptions,
    config: SchedulerConfig,
    codegen_target: str | None = None,
    simulate: bool = False,
    store_schedule: bool = False,
) -> str:
    """SHA-256 hex key of a synthesis job."""
    document = job_fingerprint(
        spec, options, config, codegen_target, simulate, store_schedule
    )
    canonical = json.dumps(
        document, sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ResultCache:
    """Two-layer (memory + optional directory) outcome store.

    Values are plain JSON-serialisable dicts (the engine stores
    ``JobOutcome.to_dict()`` payloads).  With a ``directory`` every
    ``put`` is persisted as ``<key>.json`` via an atomic rename, so
    concurrent campaigns sharing a directory never read torn files
    (they may compute one fingerprint twice; the later rename wins).
    ``hits``/``misses`` count :meth:`get` calls (:meth:`peek` reads
    without counting) and ``bytes_served`` sums the canonical-JSON size
    of every hit — the campaign report's hit-rate and bytes-from-cache
    lines read all three.
    """

    def __init__(self, directory: str | None = None):
        self.directory = directory
        self._memory: dict[str, dict] = {}
        self._sizes: dict[str, int] = {}
        self.hits = 0
        self.misses = 0
        self.bytes_served = 0
        if directory:
            os.makedirs(directory, exist_ok=True)

    # ------------------------------------------------------------------
    def _path(self, key: str) -> str:
        assert self.directory is not None
        return os.path.join(self.directory, f"{key}.json")

    def _size_of(self, key: str, payload: dict) -> int:
        """Canonical-JSON byte size of a payload, memoised per key."""
        size = self._sizes.get(key)
        if size is None:
            size = len(
                json.dumps(
                    payload, sort_keys=True, separators=(",", ":")
                ).encode("utf-8")
            )
            self._sizes[key] = size
        return size

    def peek(self, key: str) -> dict | None:
        """Stored payload for ``key`` without counting a hit or miss.

        Memory first, then disk.  A torn file reads as absent: only a
        completed atomic rename makes an entry visible, so a writer
        killed mid-``put`` can never serve a partial payload.
        """
        payload = self._memory.get(key)
        if payload is None and self.directory:
            try:
                with open(
                    self._path(key), "r", encoding="utf-8"
                ) as handle:
                    payload = json.load(handle)
            except (OSError, ValueError):
                payload = None
            if payload is not None:
                self._memory[key] = payload
        return payload

    def get(self, key: str) -> dict | None:
        """Stored payload for ``key``, counting the hit or miss."""
        payload = self.peek(key)
        if payload is None:
            self.misses += 1
            return None
        self.hits += 1
        self.bytes_served += self._size_of(key, payload)
        return payload

    def put(self, key: str, payload: dict) -> None:
        """Store ``payload`` under ``key`` (memory, then disk)."""
        self._memory[key] = payload
        self._sizes.pop(key, None)
        if not self.directory:
            return
        fd, temp_path = tempfile.mkstemp(
            dir=self.directory, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, sort_keys=True)
            os.replace(temp_path, self._path(key))
        except OSError:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            raise

    def __contains__(self, key: str) -> bool:
        if key in self._memory:
            return True
        return bool(self.directory) and os.path.exists(self._path(key))

    def __len__(self) -> int:
        keys = set(self._memory)
        if self.directory:
            keys.update(
                name[: -len(".json")]
                for name in os.listdir(self.directory)
                if name.endswith(".json")
            )
        return len(keys)

    def clear(self) -> None:
        """Drop every entry (memory and disk)."""
        self._memory.clear()
        self._sizes.clear()
        if self.directory:
            for name in os.listdir(self.directory):
                if name.endswith((".json", ".tmp")):
                    os.unlink(os.path.join(self.directory, name))

    def stats(self) -> dict[str, int]:
        return {
            "entries": len(self),
            "hits": self.hits,
            "misses": self.misses,
            "bytes_served": self.bytes_served,
        }
