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
import time

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
    concurrent campaigns sharing a directory never read torn files.
    ``hits``/``misses`` count :meth:`get` calls and ``bytes_served``
    sums the canonical-JSON size of every hit — the campaign report's
    hit-rate and bytes-from-cache lines read all three.
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

    def get(self, key: str) -> dict | None:
        """Stored payload for ``key``, counting the hit or miss."""
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

    # -- read-through compute ------------------------------------------
    def _read(self, key: str) -> dict | None:
        """Uncounted lookup (memory, then disk); torn files read as
        absent — only a completed atomic rename makes an entry
        visible, so a writer killed mid-``put`` can never serve a
        partial payload."""
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

    def _lock_path(self, key: str) -> str:
        assert self.directory is not None
        return os.path.join(self.directory, f"{key}.lock")

    def _try_lock(self, key: str) -> bool:
        """Try to become the computing owner of ``key``.

        The lock is an ``O_CREAT | O_EXCL`` file holding the owner's
        pid — the one primitive that is atomic across processes *and*
        threads on every platform the repo targets.
        """
        try:
            fd = os.open(
                self._lock_path(key),
                os.O_WRONLY | os.O_CREAT | os.O_EXCL,
                0o644,
            )
        except FileExistsError:
            return False
        try:
            os.write(fd, str(os.getpid()).encode("ascii"))
        finally:
            os.close(fd)
        return True

    def _unlock(self, key: str) -> None:
        try:
            os.unlink(self._lock_path(key))
        except OSError:
            pass

    def _lock_is_stale(self, key: str, stale_seconds: float) -> bool:
        """True when the lock owner is provably dead or too old.

        A crashed owner (killed mid-compute or mid-rename) would
        otherwise starve every waiter; a dead pid or an over-age lock
        file lets a waiter break the lock and take over the compute.
        """
        path = self._lock_path(key)
        try:
            with open(path, "r", encoding="ascii") as handle:
                pid = int(handle.read().strip() or "0")
        except (OSError, ValueError):
            # vanished (owner finished) or torn mid-write: not ours to
            # break — the retry loop re-reads the entry either way
            return False
        if pid > 0:
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                return True
            except PermissionError:
                pass  # alive, owned by someone else
        try:
            # Lock files are aged *across processes* by their mtime, so
            # the only comparable clock is the filesystem's wall clock:
            # monotonic clocks are process-local.  The age is clamped at
            # zero because mtime can sit ahead of time.time() (clock
            # steps, NFS server skew) and a negative age must read as
            # "fresh", never as instantly stale.
            # lint: allow EZC101 — cross-process lock aging needs mtime
            age = max(0.0, time.time() - os.path.getmtime(path))
        except OSError:
            return False
        return age > stale_seconds

    def get_or_compute(
        self,
        key: str,
        compute,
        *,
        poll_interval: float = 0.01,
        stale_seconds: float = 30.0,
        wait_timeout: float | None = None,
    ) -> dict:
        """Read-through lookup: return ``key``'s payload, computing it
        exactly once across concurrent callers.

        With a ``directory``, concurrency control spans *processes*: the
        first caller to create ``<key>.lock`` runs ``compute()`` and
        publishes the result with the usual atomic rename; every other
        caller polls until the entry appears.  A crashed owner is
        detected (dead pid in the lock file, or lock older than
        ``stale_seconds``) and its lock broken, so the compute is
        retried rather than lost — exactly-once holds for every run in
        which the owner survives, and at-least-once with no torn reads
        when it does not.  Without a directory the cache is process-
        local and the same O_EXCL handshake degenerates to a
        thread-level mutex via the memory dict.

        ``wait_timeout`` bounds the total wait; on expiry the caller
        computes inline (availability over strict once-ness — the
        result is still published atomically).  Accounting: one hit
        when the entry already existed, else one miss, regardless of
        how many polls the wait took.
        """
        payload = self._read(key)
        if payload is not None:
            self.hits += 1
            self.bytes_served += self._size_of(key, payload)
            return payload
        self.misses += 1
        if not self.directory:
            # process-local: the caller is responsible for in-process
            # dedup (the service's submission bridge does); compute
            # inline and publish to memory
            payload = compute()
            self.put(key, payload)
            return payload
        deadline = (
            None
            if wait_timeout is None
            else time.monotonic() + wait_timeout
        )
        while True:
            if self._try_lock(key):
                try:
                    # double-check: the previous owner may have
                    # published between our miss and our lock
                    payload = self._read(key)
                    if payload is None:
                        payload = compute()
                        self.put(key, payload)
                    return payload
                finally:
                    self._unlock(key)
            # somebody else is computing: wait for the rename to land
            payload = self._read(key)
            if payload is not None:
                return payload
            if self._lock_is_stale(key, stale_seconds):
                self._unlock(key)
                continue
            if (
                deadline is not None
                and time.monotonic() >= deadline
            ):
                payload = compute()
                self.put(key, payload)
                return payload
            time.sleep(poll_interval)

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
                if name.endswith((".json", ".lock", ".tmp")):
                    os.unlink(os.path.join(self.directory, name))

    def stats(self) -> dict[str, int]:
        return {
            "entries": len(self),
            "hits": self.hits,
            "misses": self.misses,
            "bytes_served": self.bytes_served,
        }
