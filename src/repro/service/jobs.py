"""Job lifecycle, SSE fan-out and the audit log of the service.

The :class:`JobManager` is the seam between the asyncio front end
(:mod:`repro.service.app`) and the blocking batch layer
(:class:`repro.batch.SubmissionBridge`): ``submit`` runs on the event
loop and never blocks — the bridge resolves cache hits inline, dedups
in-flight fingerprints and ships fresh computes to pool workers — and
completion re-enters the loop via ``call_soon_threadsafe`` from the
executor's callback thread.

Each submission becomes a :class:`JobRecord` with a monotonically
numbered id (``job-1``, ``job-2``, ...).  Any number of SSE
subscribers can attach to a record; they receive the event sequence

* ``queued`` — acceptance: id, fingerprint, disposition
  (``computed`` / ``deduplicated`` / ``cached``);
* ``progress`` — periodic while the job runs: elapsed seconds plus a
  merged :class:`~repro.obs.metrics.MetricsRegistry` snapshot of the
  service counters (submissions, dedup hits, SSE clients, ...);
* ``done`` — terminal: status, verdict fields and the search counters
  (states visited, states/sec) of the outcome, plus the
  content-addressed ``result`` path.

Late subscribers are replayed the current state first (a ``queued``
event, then ``done`` if already finished), so attaching after
completion still yields a complete, self-contained stream.

The **audit log** appends one canonical-JSON line per lifecycle
transition via the same ``O_APPEND`` discipline as
:class:`repro.obs.events.JsonlSink`.  Rows carry a sequence number and
no wall-clock fields, so a replayed request sequence produces a
byte-identical file — the property the determinism tests pin.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field

from repro.batch.engine import Submission, SubmissionBridge
from repro.batch.job import BatchJob, JobOutcome
from repro.obs.metrics import MetricsRegistry
from repro.service.sse import EventQueue, ServerEvent

JOB_QUEUED = "queued"
JOB_RUNNING = "running"
JOB_DONE = "done"

#: wire names of the bridge's submission dispositions
DISPOSITIONS = {
    Submission.SUBMITTED: "computed",
    Submission.JOINED: "deduplicated",
    Submission.CACHED: "cached",
}


class SubmissionRejected(Exception):
    """The bridge's pre-search lint gate rejected a submission.

    ``outcome`` is the diagnosed ``infeasible`` outcome; its
    ``diagnostics`` list the violated necessary conditions.  No job
    record exists for a rejected submission.
    """

    def __init__(self, outcome: JobOutcome):
        super().__init__(
            f"spec {outcome.spec_name!r} is trivially infeasible; "
            "see diagnostics"
        )
        self.outcome = outcome


class AuditLog:
    """Deterministic JSONL audit trail (one atomic line per event)."""

    def __init__(self, path: str | None):
        self.path = path
        self._seq = 0
        self._fd: int | None = None

    def emit(self, event: str, **fields) -> None:
        self._seq += 1
        if self.path is None:
            return
        if self._fd is None:
            self._fd = os.open(
                self.path,
                os.O_WRONLY | os.O_CREAT | os.O_APPEND,
                0o644,
            )
        row = {"seq": self._seq, "event": event}
        row.update(fields)
        line = (
            json.dumps(row, sort_keys=True, separators=(",", ":"))
            + "\n"
        )
        os.write(self._fd, line.encode("utf-8"))

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None


class RollingQuantiles:
    """Fixed-window quantile estimate for the latency gauges.

    Keeps the last ``size`` observations (a ring); ``quantile`` sorts
    on demand — the window is small and the endpoint infrequent, so
    simplicity beats a streaming sketch here.
    """

    def __init__(self, size: int = 512):
        self.size = size
        self._ring: list[float] = []
        self._next = 0

    def observe(self, value: float) -> None:
        if len(self._ring) < self.size:
            self._ring.append(value)
        else:
            self._ring[self._next] = value
            self._next = (self._next + 1) % self.size

    def quantile(self, q: float) -> float:
        if not self._ring:
            return 0.0
        ordered = sorted(self._ring)
        index = min(
            len(ordered) - 1, max(0, round(q * (len(ordered) - 1)))
        )
        return ordered[index]


@dataclass
class JobRecord:
    """One accepted submission and its fan-out state."""

    id: str
    key: str
    spec_name: str
    disposition: str
    state: str
    outcome: dict | None = None
    submitted_at: float = 0.0
    finished_at: float | None = None
    subscribers: list[EventQueue] = field(default_factory=list)
    done_event: asyncio.Event = field(default_factory=asyncio.Event)

    def summary(self) -> dict:
        """The JSON shape of ``GET /jobs/{id}`` (sans outcome body)."""
        doc = {
            "job": self.id,
            "fingerprint": self.key,
            "spec": self.spec_name,
            "disposition": self.disposition,
            "state": self.state,
            "links": {
                "self": f"/jobs/{self.id}",
                "events": f"/jobs/{self.id}/events",
                "result": f"/results/{self.key}",
            },
        }
        if self.outcome is not None:
            doc["status"] = self.outcome.get("status")
        return doc

    def elapsed(self) -> float:
        end = (
            self.finished_at
            if self.finished_at is not None
            else time.monotonic()
        )
        return max(0.0, end - self.submitted_at)


class JobManager:
    """Owns job records, SSE subscribers, metrics and the audit log."""

    def __init__(
        self,
        bridge: SubmissionBridge,
        *,
        audit_path: str | None = None,
        queue_size: int = 256,
        heartbeat: float = 0.25,
        progress_dir: str | None = None,
    ):
        self.bridge = bridge
        self.audit = AuditLog(audit_path)
        self.metrics = MetricsRegistry()
        self.queue_size = queue_size
        self.heartbeat = heartbeat
        self.submit_latency = RollingQuantiles()
        # live-progress spool: fresh computes write rate-limited search
        # counters to <dir>/<fingerprint>.json from their pool worker
        # (repro.obs.progress.ProgressFile); the ticker reads the
        # latest sample back into the SSE `progress` event.  An owned
        # tempdir is created lazily and removed on aclose.
        self.progress_dir = progress_dir
        self._owns_progress_dir = progress_dir is None
        self._records: dict[str, JobRecord] = {}
        self._by_key: dict[str, JobRecord] = {}
        #: records not yet done, in submission order: the only ones
        #: that can have live subscribers or progress to report
        self._unfinished: dict[str, JobRecord] = {}
        #: subscribers attached over all records (the SSE gauge)
        self._subscribers = 0
        #: unfinished spooling records (fresh computes and the
        #: duplicates that joined them) per fingerprint: the spool is
        #: removed when the last of them completes
        self._spooling: dict[str, int] = {}
        self._counter = 0
        self._loop: asyncio.AbstractEventLoop | None = None
        self._heartbeat_task: asyncio.Task | None = None

    # ------------------------------------------------------------------
    def bind(self, loop: asyncio.AbstractEventLoop) -> None:
        """Attach to the serving loop and start the progress ticker."""
        self._loop = loop
        if self.progress_dir is None:
            self.progress_dir = tempfile.mkdtemp(
                prefix="ezrt-progress-"
            )
        else:
            os.makedirs(self.progress_dir, exist_ok=True)
        if self.heartbeat > 0:
            self._heartbeat_task = loop.create_task(
                self._progress_ticker()
            )

    async def aclose(self) -> None:
        if self._heartbeat_task is not None:
            self._heartbeat_task.cancel()
            try:
                await self._heartbeat_task
            except asyncio.CancelledError:
                pass
            self._heartbeat_task = None
        for record in self._unfinished.values():
            for queue in record.subscribers:
                queue.close()
        if self._owns_progress_dir and self.progress_dir is not None:
            shutil.rmtree(self.progress_dir, ignore_errors=True)
            self.progress_dir = None
        self.audit.close()

    # ------------------------------------------------------------------
    @property
    def records(self) -> list[JobRecord]:
        return list(self._records.values())

    def record(self, job_id: str) -> JobRecord | None:
        return self._records.get(job_id)

    def outcome_for_key(self, key: str) -> dict | None:
        """Finished outcome payload for a fingerprint, if any job here
        produced one (the cache-less fallback of ``GET /results``)."""
        record = self._by_key.get(key)
        if record is not None and record.outcome is not None:
            return record.outcome
        return None

    # ------------------------------------------------------------------
    def submit(self, item, *, timeout: float | None = None) -> JobRecord:
        """Accept one spec/job on the event loop; returns its record.

        Raises :class:`SubmissionRejected`, creating no record, when
        the bridge's pre-search lint gate rejects the spec.
        """
        assert self._loop is not None, "manager is not bound to a loop"
        started = time.monotonic()
        submission = self.bridge.submit(
            item, timeout=timeout, progress_dir=self.progress_dir
        )
        if submission.disposition == Submission.REJECTED:
            raise SubmissionRejected(submission.future.result())
        self._counter += 1
        disposition = DISPOSITIONS[submission.disposition]
        record = JobRecord(
            id=f"job-{self._counter}",
            key=submission.key,
            spec_name=submission.job.spec.name,
            disposition=disposition,
            state=JOB_QUEUED,
            submitted_at=started,
        )
        self._records[record.id] = record
        if submission.disposition != Submission.CACHED:
            self._spooling[record.key] = (
                self._spooling.get(record.key, 0) + 1
            )
        self.metrics.inc("service.submissions")
        self.metrics.inc(f"service.submissions.{disposition}")
        self.audit.emit(
            "submit",
            job=record.id,
            key=record.key,
            spec=record.spec_name,
            disposition=disposition,
        )
        self._publish(
            record,
            ServerEvent.of(
                "queued",
                {
                    "job": record.id,
                    "fingerprint": record.key,
                    "disposition": disposition,
                },
                id=record.id,
            ),
        )
        future = submission.future
        if future.done():
            # cache hit (or an instantly-joined finished compute):
            # complete synchronously so the POST response can already
            # say "done" and never touches the pool
            self._complete(record, future.result())
        else:
            record.state = JOB_RUNNING
            self._unfinished[record.id] = record
            loop = self._loop
            future.add_done_callback(
                lambda f: loop.call_soon_threadsafe(
                    self._complete, record, f.result()
                )
            )
        self.submit_latency.observe(time.monotonic() - started)
        return record

    # ------------------------------------------------------------------
    def _complete(self, record: JobRecord, outcome: JobOutcome) -> None:
        if record.state == JOB_DONE:
            return
        record.state = JOB_DONE
        self._unfinished.pop(record.id, None)
        record.finished_at = time.monotonic()
        record.outcome = outcome.to_dict()
        self._by_key.setdefault(record.key, record)
        self.metrics.inc(f"service.outcomes.{outcome.status}")
        self.metrics.observe(
            "service.job_seconds", record.elapsed()
        )
        self.audit.emit(
            "done",
            job=record.id,
            key=record.key,
            spec=record.spec_name,
            status=outcome.status,
            feasible=outcome.feasible,
        )
        self._publish(record, self._done_event(record), terminal=True)
        for queue in record.subscribers:
            queue.close()
        record.done_event.set()
        self._drop_progress_spool(record)

    def _drop_progress_spool(self, record: JobRecord) -> None:
        """Best-effort removal of a finished job's progress file.

        A cache hit never spooled one; a fresh compute's file stays
        until every duplicate that joined it has finished too.
        """
        if record.disposition == DISPOSITIONS[Submission.CACHED]:
            return
        left = self._spooling.pop(record.key) - 1
        if left:
            self._spooling[record.key] = left
            return  # a joined duplicate is still streaming it
        if self.progress_dir is None:
            return
        try:
            os.unlink(
                os.path.join(self.progress_dir, f"{record.key}.json")
            )
        except OSError:
            pass

    def _read_progress_spool(self, key: str) -> dict | None:
        """Latest live-search sample for a fingerprint, if spooled.

        The worker's writes are atomic (``os.replace``), so a read
        sees a complete JSON document or no file; anything else —
        including a torn read on exotic filesystems — is treated as
        "no sample yet" rather than an error.
        """
        if self.progress_dir is None:
            return None
        path = os.path.join(self.progress_dir, f"{key}.json")
        try:
            with open(path, encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            return None
        return payload if isinstance(payload, dict) else None

    def _done_event(self, record: JobRecord) -> ServerEvent:
        outcome = record.outcome or {}
        search = outcome.get("search", {})
        seconds = outcome.get("search_seconds", 0.0)
        visited = search.get("states_visited", 0)
        payload = {
            "job": record.id,
            "fingerprint": record.key,
            "status": outcome.get("status"),
            "feasible": outcome.get("feasible", False),
            "schedule_length": outcome.get("schedule_length", 0),
            "makespan": outcome.get("makespan", 0),
            "states_visited": visited,
            "states_per_second": (
                visited / seconds if seconds > 0 else 0.0
            ),
            "error": outcome.get("error"),
            "result": f"/results/{record.key}",
        }
        return ServerEvent.of("done", payload, id=record.id)

    def _publish(
        self,
        record: JobRecord,
        event: ServerEvent,
        terminal: bool = False,
    ) -> None:
        for queue in record.subscribers:
            queue.publish(event, terminal=terminal)

    # ------------------------------------------------------------------
    def subscribe(self, record: JobRecord) -> EventQueue:
        """Attach an SSE subscriber; replays state before going live."""
        queue = EventQueue(maxsize=self.queue_size)
        self.metrics.inc("service.sse.clients")
        queue.publish(
            ServerEvent.of(
                "queued",
                {
                    "job": record.id,
                    "fingerprint": record.key,
                    "disposition": record.disposition,
                },
                id=record.id,
            )
        )
        if record.state == JOB_DONE:
            queue.publish(self._done_event(record), terminal=True)
            queue.close()
        else:
            record.subscribers.append(queue)
            self._subscribers += 1
        return queue

    def unsubscribe(self, record: JobRecord, queue: EventQueue) -> None:
        queue.close()
        if queue in record.subscribers:
            record.subscribers.remove(queue)
            self._subscribers -= 1
            self.metrics.inc("service.sse.disconnects")

    # ------------------------------------------------------------------
    def metrics_snapshot(self) -> dict:
        """Service + bridge registries merged, with latency gauges."""
        self.metrics.set_gauge(
            "service.submit_latency_p50_ms",
            1000.0 * self.submit_latency.quantile(0.50),
        )
        self.metrics.set_gauge(
            "service.submit_latency_p99_ms",
            1000.0 * self.submit_latency.quantile(0.99),
        )
        self.metrics.set_gauge(
            "service.jobs_inflight", float(self.bridge.inflight)
        )
        self.metrics.set_gauge(
            "service.sse.subscribers", float(self._subscribers)
        )
        return MetricsRegistry.merge_snapshots(
            [self.metrics.snapshot(), self.bridge.metrics.snapshot()]
        )

    async def _progress_ticker(self) -> None:
        """Publish ``progress`` events to live subscribers.

        One ticker for the whole service: each beat snapshots the
        metrics registries once and fans the event out to every
        subscriber of every running job — so N stalled clients cost
        one snapshot, not N.
        """
        while True:
            await asyncio.sleep(self.heartbeat)
            self._beat()

    def _beat(self) -> None:
        """One ticker beat: reads only the unfinished records."""
        running = [
            record
            for record in self._unfinished.values()
            if record.subscribers
        ]
        if not running:
            return
        snapshot = self.metrics_snapshot()
        counters = snapshot.get("counters", {})
        for record in running:
            payload = {
                "job": record.id,
                "state": record.state,
                "elapsed_seconds": round(record.elapsed(), 6),
                "submissions": counters.get("service.submissions", 0),
                "dedup_hits": counters.get("bridge.dedup_joined", 0),
                "cache_hits": counters.get("bridge.cache_hits", 0),
            }
            sample = self._read_progress_spool(record.key)
            if sample is not None:
                # live counters from the worker's search loop;
                # the spool is keyed by fingerprint, so joined
                # (deduplicated) submissions see the leader's
                # search progress too
                for name in (
                    "slot",
                    "states_visited",
                    "states_generated",
                    "states_per_sec",
                    "depth",
                ):
                    if name in sample:
                        payload[name] = sample[name]
            self._publish(
                record,
                ServerEvent.of("progress", payload, id=record.id),
            )
