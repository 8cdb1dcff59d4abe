"""Service-grade tests for the synthesis HTTP front end.

Covers the tentpole contract of :mod:`repro.service` end to end:

* the JSON spec codec that makes content-addressed dedup work across
  clients (fingerprint-preserving round-trips);
* the SSE codec (canonical encode, tolerant decode, fuzzed byte-stable
  round-trips) and the bounded drop-and-flag subscriber queue;
* :class:`ResultCache` crash safety: a writer killed mid-publish or a
  torn entry file reads as absent, never as a fragment;
* the HTTP/1.1 contract (error statuses, keep-alive, HEAD, limits);
* the jobs API over the one job pipeline it shares with batch runs
  (:class:`repro.batch.SubmissionBridge`): submission, the bridge's
  prelint gate answered as ``422``, dedup dispositions, SSE streams,
  strong ETags, degradation under client disconnect / job timeout /
  worker crash;
* deterministic JSONL audit logs and verdict parity — every feasible
  schedule the service serves replays cleanly through the checked
  reference engine.

Hermeticity: every server binds ``127.0.0.1`` port 0 (ephemeral), and
socket-using tests skip with a visible reason when the runner forbids
loopback binds.  The existing parallel/batch suites are socket-free;
this file is the only network user in the tree.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import multiprocessing
import os
import random
import signal
import socket
import string
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import Future

import pytest

from repro.batch import BatchEngine, ResultCache
from repro.batch.engine import Submission
from repro.batch.job import BatchJob, JobOutcome
from repro.blocks import compose
from repro.errors import DSLError, SchedulingError
from repro.obs.metrics import MetricsRegistry
from repro.scheduler import SchedulerConfig
from repro.scheduler.parallel import validate_with_reference
from repro.service import (
    EventQueue,
    ServerEvent,
    decode_stream,
    encode_comment,
    encode_event,
    run_in_thread,
)
from repro.service.jobs import JOB_DONE, JobManager
from repro.spec import paper_examples
from repro.spec.builder import SpecBuilder
from repro.spec.examples import mine_pump
from repro.spec.jsonio import spec_from_json, spec_to_json
from repro.workloads import random_task_set
from repro.batch.cache import spec_fingerprint


# ----------------------------------------------------------------------
# Hermeticity guard: every server here binds an ephemeral loopback
# port; when the runner forbids even that, skip loudly instead of
# erroring obscurely mid-test.
# ----------------------------------------------------------------------
def _loopback_available() -> bool:
    try:
        probe = socket.socket()
        try:
            probe.bind(("127.0.0.1", 0))
        finally:
            probe.close()
        return True
    except OSError:
        return False


needs_loopback = pytest.mark.skipif(
    not _loopback_available(),
    reason="runner forbids binding loopback sockets",
)

#: the heavy-backtracking feasible instance the parallel suite uses —
#: hundreds of thousands of states under the default ordering, so a
#: job over it stays observably *running* long enough to disconnect
#: from (always submitted with a timeout cap to bound the test)
#: an exhaustive refutation of ~750k states: ~0.7 s even on the
#: compiled kernel driver, long enough for several progress samples
HARD_KWARGS = dict(
    n_tasks=7,
    total_utilization=0.75,
    seed=1,
)


def _two_task_doc(name: str = "two-task") -> dict:
    spec = (
        SpecBuilder(name)
        .processor("proc0")
        .task("A", computation=2, deadline=10, period=10)
        .task("B", computation=3, deadline=10, period=10)
        .build()
    )
    return spec_to_json(spec)


def _overloaded_doc() -> dict:
    """Utilisation > 1 on one processor: provably infeasible, so the
    pre-search lint gate answers 422 without creating a job."""
    spec = (
        SpecBuilder("overloaded")
        .task("A", computation=7, deadline=10, period=10)
        .task("B", computation=7, deadline=10, period=10)
        .build()
    )
    return spec_to_json(spec)


def _tight_pair_doc() -> dict:
    """Search-refuted infeasible: U == 1.0 and every necessary
    condition holds, but two zero-laxity non-preemptive tasks cannot
    both meet their deadlines — the lint gate passes it through and
    the DFS refutes it in a handful of states."""
    spec = (
        SpecBuilder("tight-pair")
        .task("A", computation=5, deadline=5, period=10)
        .task("B", computation=5, deadline=5, period=10)
        .build()
    )
    return spec_to_json(spec)


class Client:
    """Tiny http.client wrapper: one connection per call, JSON in/out."""

    def __init__(self, port: int, timeout: float = 30.0):
        self.port = port
        self.timeout = timeout

    def request(self, method, path, body=None, headers=None):
        conn = http.client.HTTPConnection(
            "127.0.0.1", self.port, timeout=self.timeout
        )
        try:
            conn.request(method, path, body=body, headers=headers or {})
            response = conn.getresponse()
            payload = response.read()
            return response.status, dict(response.getheaders()), payload
        finally:
            conn.close()

    def get(self, path, headers=None):
        status, hdrs, body = self.request("GET", path, headers=headers)
        doc = json.loads(body) if body else None
        return status, hdrs, doc

    def post(self, path, doc):
        status, hdrs, body = self.request(
            "POST",
            path,
            body=json.dumps(doc),
            headers={"content-type": "application/json"},
        )
        return status, hdrs, json.loads(body) if body else None

    def submit(self, spec_doc, timeout=None):
        body = {"spec": spec_doc}
        if timeout is not None:
            body["timeout"] = timeout
        return self.post("/jobs", body)

    def wait_done(self, job_id: str, deadline: float = 60.0) -> dict:
        end = time.monotonic() + deadline
        while time.monotonic() < end:
            status, _, doc = self.get(f"/jobs/{job_id}")
            assert status == 200
            if doc["state"] == "done":
                return doc
            time.sleep(0.02)
        raise AssertionError(f"{job_id} did not finish in {deadline}s")

    def sse(self, path: str) -> list[ServerEvent]:
        """Read one event stream to connection close and decode it."""
        status, _, raw = self.request("GET", path)
        assert status == 200
        return decode_stream(raw)


@pytest.fixture()
def handle():
    server = run_in_thread(
        BatchEngine(
            store_schedules=True, cache=ResultCache(), max_workers=2
        )
    )
    yield server
    server.stop()


@pytest.fixture()
def client(handle):
    return Client(handle.port)


# ======================================================================
# JSON spec codec
# ======================================================================
class TestSpecJsonCodec:
    def test_round_trip_preserves_fingerprint(self):
        doc = _two_task_doc()
        spec = spec_from_json(doc)
        again = spec_from_json(spec_to_json(spec))
        assert spec_fingerprint(spec) == spec_fingerprint(again)

    @pytest.mark.parametrize(
        "name", sorted(paper_examples().keys())
    )
    def test_paper_examples_round_trip(self, name):
        original = paper_examples()[name]
        parsed = spec_from_json(spec_to_json(original))
        assert spec_fingerprint(parsed) == spec_fingerprint(original)
        assert spec_to_json(parsed) == spec_to_json(original)

    def test_unknown_spec_key_rejected(self):
        doc = _two_task_doc()
        doc["colour"] = "blue"
        with pytest.raises(DSLError, match="colour"):
            spec_from_json(doc)

    def test_unknown_task_key_rejected(self):
        doc = _two_task_doc()
        doc["tasks"][0]["computaton"] = 2  # the classic typo
        with pytest.raises(DSLError, match="computaton"):
            spec_from_json(doc)

    def test_missing_required_task_field(self):
        doc = _two_task_doc()
        del doc["tasks"][0]["deadline"]
        with pytest.raises(DSLError, match="deadline"):
            spec_from_json(doc)

    def test_bad_scheduling_value(self):
        doc = _two_task_doc()
        doc["tasks"][0]["scheduling"] = "sometimes"
        with pytest.raises(Exception):
            spec_from_json(doc)

    def test_bool_is_not_an_integer(self):
        doc = _two_task_doc()
        doc["tasks"][0]["computation"] = True
        with pytest.raises(DSLError, match="integer"):
            spec_from_json(doc)

    def test_relations_survive_round_trip(self):
        spec = (
            SpecBuilder("related")
            .task("A", computation=1, deadline=10, period=10)
            .task("B", computation=1, deadline=10, period=10)
            .task("C", computation=1, deadline=10, period=10)
            .precedence("A", "B")
            .exclusion("B", "C")
            .build()
        )
        parsed = spec_from_json(spec_to_json(spec))
        assert parsed.task("A").precedes_tasks == ["B"]
        assert "C" in parsed.task("B").excludes_tasks
        assert "B" in parsed.task("C").excludes_tasks
        assert spec_fingerprint(parsed) == spec_fingerprint(spec)


# ======================================================================
# SSE codec
# ======================================================================
class TestSseCodec:
    def test_encode_minimal_event(self):
        wire = encode_event(ServerEvent(data="hi"))
        assert wire == b"data: hi\n\n"

    def test_encode_multiline_data(self):
        wire = encode_event(
            ServerEvent(data="a\nb", event="tick", id="7")
        )
        assert wire == b"event: tick\nid: 7\ndata: a\ndata: b\n\n"

    def test_decode_normalises_crlf_and_cr(self):
        events = decode_stream(
            b"event: x\r\ndata: one\r\rdata: two\n\n"
        )
        assert [e.data for e in events] == ["one", "two"]
        assert events[0].event == "x"

    def test_decode_skips_comments_and_unknown_fields(self):
        events = decode_stream(
            b": keep-alive\nwhatever: ignored\ndata: payload\n\n"
        )
        assert len(events) == 1
        assert events[0].data == "payload"

    def test_decode_ignores_non_integer_retry(self):
        events = decode_stream(b"retry: soon\ndata: x\n\n")
        assert events[0].retry is None

    def test_decode_discards_incomplete_tail(self):
        # a connection cut mid-event must not fabricate a half event
        events = decode_stream(b"data: full\n\ndata: torn-off")
        assert [e.data for e in events] == ["full"]

    def test_comment_round_trip_is_invisible(self):
        wire = encode_event(ServerEvent(data="x")) + encode_comment(
            "keep-alive"
        )
        assert [e.data for e in decode_stream(wire)] == ["x"]

    def test_service_event_payload_round_trip(self):
        event = ServerEvent.of(
            "done", {"job": "job-1", "feasible": True}, id="job-1"
        )
        (back,) = decode_stream(encode_event(event))
        assert back == event
        assert back.payload() == {"job": "job-1", "feasible": True}

    @pytest.mark.parametrize("seed", range(5))
    def test_fuzz_round_trip_byte_stable(self, seed):
        """encode→decode→encode is the identity on random sequences."""
        rng = random.Random(seed)
        alphabet = string.ascii_letters + string.digits + " {}:,\"'é—"

        def rand_text(allow_newlines):
            n = rng.randrange(0, 40)
            text = "".join(rng.choice(alphabet) for _ in range(n))
            if allow_newlines and n and rng.random() < 0.4:
                cut = rng.randrange(n)
                text = text[:cut] + "\n" + text[cut:]
            return text

        events = [
            ServerEvent(
                data=rand_text(allow_newlines=True),
                event=(
                    rand_text(False).replace(" ", "") or None
                    if rng.random() < 0.6
                    else None
                ),
                id=(
                    f"id-{rng.randrange(1000)}"
                    if rng.random() < 0.5
                    else None
                ),
                retry=(
                    rng.randrange(1, 10_000)
                    if rng.random() < 0.3
                    else None
                ),
            )
            for _ in range(rng.randrange(1, 30))
        ]
        wire = b"".join(encode_event(e) for e in events)
        decoded = decode_stream(wire)
        assert decoded == events
        assert b"".join(encode_event(e) for e in decoded) == wire


# ======================================================================
# Bounded subscriber queue
# ======================================================================
class TestEventQueue:
    def _drain(self, queue):
        async def go():
            chunks = []
            while True:
                chunk = await queue.next_chunk()
                if chunk is None:
                    return chunks
                chunks.append(chunk)

        return asyncio.run(go())

    def test_fifo_delivery(self):
        queue = EventQueue(maxsize=8)
        for i in range(3):
            queue.publish(ServerEvent.of("n", {"i": i}))
        queue.close()
        events = decode_stream(b"".join(self._drain(queue)))
        assert [e.payload()["i"] for e in events] == [0, 1, 2]

    def test_overflow_drops_oldest_and_flags(self):
        queue = EventQueue(maxsize=4)
        for i in range(10):
            queue.publish(ServerEvent.of("n", {"i": i}))
        queue.close()
        events = decode_stream(b"".join(self._drain(queue)))
        # first delivered event is the synthetic drop marker
        assert events[0].event == "dropped"
        assert events[0].payload()["events"] == 6
        assert [e.payload()["i"] for e in events[1:]] == [6, 7, 8, 9]

    def test_terminal_event_survives_overflow(self):
        queue = EventQueue(maxsize=2)
        for i in range(5):
            queue.publish(ServerEvent.of("n", {"i": i}))
        queue.publish(
            ServerEvent.of("done", {"final": True}), terminal=True
        )
        queue.close()
        events = decode_stream(b"".join(self._drain(queue)))
        assert events[-1].event == "done"

    def test_publisher_never_blocks(self):
        """10x maxsize synchronous publishes complete with no reader."""
        queue = EventQueue(maxsize=16)
        started = time.monotonic()
        for i in range(160):
            queue.publish(ServerEvent.of("n", {"i": i}))
        assert time.monotonic() - started < 1.0
        assert queue.pending <= 16
        assert queue.dropped == 160 - 16

    def test_close_drains_then_ends(self):
        queue = EventQueue(maxsize=8)
        queue.publish(ServerEvent.of("n", {"i": 1}))
        queue.close()

        async def go():
            first = await queue.next_chunk()
            second = await queue.next_chunk()
            return first, second

        first, second = asyncio.run(go())
        assert first is not None
        assert second is None

    def test_heartbeat_comment_when_idle(self):
        queue = EventQueue(maxsize=8)

        async def go():
            return await queue.next_chunk(heartbeat=0.01)

        chunk = asyncio.run(go())
        assert chunk.startswith(b":")
        assert decode_stream(chunk) == []  # invisible to parsers


# ======================================================================
# ResultCache crash safety
# ======================================================================
def _crashing_writer(directory: str) -> None:
    """Write a torn temp file and die before the rename — the
    worst-case crash point of ``put``."""
    fd, _ = tempfile.mkstemp(dir=directory, suffix=".tmp")
    os.write(fd, b'{"partial": tru')
    os.close(fd)
    os._exit(1)


def _racing_writer(directory: str) -> None:
    """Publish the same entries over and over, then exit."""
    cache = ResultCache(directory)
    for _ in range(100):
        for key in _RACE_KEYS:
            cache.put(key, _race_payload(key))
    os._exit(0)


_RACE_KEYS = ("alpha", "beta", "gamma")


def _race_payload(key: str) -> dict:
    return {"key": key, "blob": key * 5000}


class TestResultCacheConcurrency:
    def test_writer_killed_mid_publish_recovers(self, tmp_path):
        directory = str(tmp_path)
        ctx = multiprocessing.get_context("fork")
        crasher = ctx.Process(target=_crashing_writer, args=(directory,))
        crasher.start()
        crasher.join(timeout=30)
        assert crasher.exitcode == 1
        cache = ResultCache(directory)
        # the torn temp file is on disk; the entry must read as
        # absent, never as a fragment
        assert cache.peek("k") is None
        assert cache.get("k") is None
        cache.put("k", {"v": "complete"})
        assert ResultCache(directory).get("k") == {"v": "complete"}

    def test_concurrent_writers_never_tear_an_entry(self, tmp_path):
        directory = str(tmp_path)
        ctx = multiprocessing.get_context("fork")
        writers = [
            ctx.Process(target=_racing_writer, args=(directory,))
            for _ in range(3)
        ]
        for writer in writers:
            writer.start()
        # read while the writers race, through a fresh cache each
        # time so every read goes to disk: an entry is absent until
        # first published, and whole from then on, even while it is
        # being republished
        published: set[str] = set()
        while any(writer.is_alive() for writer in writers):
            for key in _RACE_KEYS:
                payload = ResultCache(directory).peek(key)
                if key in published:
                    assert payload == _race_payload(key)
                elif payload is not None:
                    assert payload == _race_payload(key)
                    published.add(key)
        for writer in writers:
            writer.join(timeout=30)
            assert writer.exitcode == 0
        assert not [
            name for name in os.listdir(directory)
            if name.endswith(".tmp")
        ]
        cache = ResultCache(directory)
        assert len(cache) == len(_RACE_KEYS)
        for key in _RACE_KEYS:
            assert cache.get(key) == _race_payload(key)

    def test_torn_entry_file_reads_as_absent(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        with open(
            cache._path("k"), "w", encoding="utf-8"
        ) as fh:
            fh.write('{"status": "feasib')  # truncated mid-write
        assert cache.peek("k") is None
        assert cache.get("k") is None
        cache.put("k", {"ok": True})
        assert ResultCache(str(tmp_path)).get("k") == {"ok": True}

    def test_clear_removes_tmp_litter(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put("k", {"v": 1})
        with open(
            os.path.join(str(tmp_path), "litter.tmp"), "w"
        ) as fh:
            fh.write("x")
        cache.clear()
        assert os.listdir(str(tmp_path)) == []

    def test_accounting_one_hit_or_miss_per_call(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        assert cache.get("k") is None
        assert (cache.hits, cache.misses) == (0, 1)
        cache.put("k", {"v": 1})
        assert cache.peek("k") == {"v": 1}  # peek never counts
        assert (cache.hits, cache.misses) == (0, 1)
        assert cache.get("k") == {"v": 1}
        assert (cache.hits, cache.misses) == (1, 1)


# ======================================================================
# HTTP/1.1 contract
# ======================================================================
@needs_loopback
class TestHttpContract:
    def test_unknown_route_404(self, client):
        status, _, doc = client.get("/nope")
        assert status == 404
        assert "no route" in doc["error"]

    def test_post_on_get_route_405_with_allow(self, client):
        status, headers, _ = client.post("/healthz", {})
        assert status == 405
        assert "GET" in headers.get("allow", "")

    def test_unsupported_method_405(self, client):
        status, _, body = client.request("PUT", "/jobs", body=b"{}")
        assert status == 405

    def test_malformed_json_body_400(self, client):
        status, _, body = client.request(
            "POST", "/jobs", body=b"{not json"
        )
        assert status == 400
        assert b"not valid JSON" in body

    def test_non_object_body_400(self, client):
        status, _, body = client.request(
            "POST", "/jobs", body=b"[1,2,3]"
        )
        assert status == 400
        assert b"JSON object" in body

    def test_oversized_body_413(self, handle):
        with socket.create_connection(
            ("127.0.0.1", handle.port), timeout=10
        ) as raw:
            raw.sendall(
                b"POST /jobs HTTP/1.1\r\n"
                b"content-length: 99999999999\r\n\r\n"
            )
            reply = raw.recv(4096)
        assert b"413" in reply.split(b"\r\n", 1)[0]

    def test_post_without_length_411(self, handle):
        with socket.create_connection(
            ("127.0.0.1", handle.port), timeout=10
        ) as raw:
            raw.sendall(b"POST /jobs HTTP/1.1\r\n\r\n")
            reply = raw.recv(4096)
        assert b"411" in reply.split(b"\r\n", 1)[0]

    def test_overlong_request_line_431(self, handle):
        with socket.create_connection(
            ("127.0.0.1", handle.port), timeout=10
        ) as raw:
            raw.sendall(
                b"GET /" + b"a" * 10000 + b" HTTP/1.1\r\n\r\n"
            )
            reply = raw.recv(4096)
        assert b"431" in reply.split(b"\r\n", 1)[0]

    def test_chunked_body_rejected_501(self, handle):
        with socket.create_connection(
            ("127.0.0.1", handle.port), timeout=10
        ) as raw:
            raw.sendall(
                b"POST /jobs HTTP/1.1\r\n"
                b"transfer-encoding: chunked\r\n\r\n"
            )
            reply = raw.recv(4096)
        assert b"501" in reply.split(b"\r\n", 1)[0]

    def test_malformed_request_line_400(self, handle):
        with socket.create_connection(
            ("127.0.0.1", handle.port), timeout=10
        ) as raw:
            raw.sendall(b"NONSENSE\r\n\r\n")
            reply = raw.recv(4096)
        assert b"400" in reply.split(b"\r\n", 1)[0]

    def test_keep_alive_serves_sequential_requests(self, handle):
        conn = http.client.HTTPConnection(
            "127.0.0.1", handle.port, timeout=10
        )
        try:
            for _ in range(3):
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                assert response.status == 200
                response.read()
        finally:
            conn.close()

    def test_head_omits_body(self, client):
        status, headers, body = client.request("HEAD", "/healthz")
        assert status == 200
        assert body == b""
        assert int(headers["content-length"]) > 0

    def test_healthz_shape(self, client):
        status, _, doc = client.get("/healthz")
        assert status == 200
        assert doc["ok"] is True
        assert set(doc) == {"ok", "jobs", "inflight"}

    def test_metrics_exposes_service_counters(self, client):
        client.get("/healthz")
        status, _, doc = client.get("/metrics")
        assert status == 200
        assert doc["counters"]["service.requests"] >= 1
        assert "service.submit_latency_p99_ms" in doc["gauges"]


# ======================================================================
# Jobs API
# ======================================================================
@needs_loopback
class TestJobsApi:
    def test_submit_returns_201_with_links(self, client):
        status, _, doc = client.submit(_two_task_doc())
        assert status == 201
        assert doc["job"] == "job-1"
        assert doc["disposition"] == "computed"
        assert len(doc["fingerprint"]) == 64
        assert doc["links"]["result"].endswith(doc["fingerprint"])

    def test_submit_rejects_unknown_keys(self, client):
        status, _, doc = client.post(
            "/jobs", {"spec": _two_task_doc(), "urgent": True}
        )
        assert status == 400
        assert "urgent" in doc["error"]

    def test_submit_requires_spec_object(self, client):
        status, _, doc = client.post("/jobs", {"timeout": 1.0})
        assert status == 400
        assert "spec" in doc["error"]

    @pytest.mark.parametrize("bad", [0, -2, "fast", True])
    def test_submit_rejects_bad_timeout(self, client, bad):
        status, _, doc = client.post(
            "/jobs", {"spec": _two_task_doc(), "timeout": bad}
        )
        assert status == 400
        assert "timeout" in doc["error"]

    def test_submit_invalid_spec_422(self, client):
        doc = _two_task_doc()
        del doc["tasks"][0]["period"]
        status, _, reply = client.submit(doc)
        assert status == 422
        assert "invalid spec" in reply["error"]

    def test_job_visible_in_listing_and_get(self, client):
        _, _, submitted = client.submit(_two_task_doc())
        status, _, listing = client.get("/jobs")
        assert status == 200
        assert [j["job"] for j in listing["jobs"]] == [
            submitted["job"]
        ]
        status, _, single = client.get(f"/jobs/{submitted['job']}")
        assert status == 200
        assert single["fingerprint"] == submitted["fingerprint"]

    def test_unknown_job_404(self, client):
        status, _, doc = client.get("/jobs/job-999")
        assert status == 404

    def test_feasible_job_completes(self, client):
        _, _, submitted = client.submit(_two_task_doc())
        done = client.wait_done(submitted["job"])
        assert done["status"] == "feasible"

    def test_infeasible_spec_outcome(self, client):
        # search-refuted infeasible, not lint-rejected: the gate lets
        # it through and the DFS produces the verdict
        _, _, submitted = client.submit(_tight_pair_doc())
        done = client.wait_done(submitted["job"])
        assert done["status"] == "infeasible"

    def test_trivially_infeasible_rejected_422(self, client, handle):
        status, _, reply = client.submit(_overloaded_doc())
        assert status == 422
        assert "trivially infeasible" in reply["error"]
        codes = [d["code"] for d in reply["diagnostics"]]
        assert "EZS101" in codes
        severities = {d["severity"] for d in reply["diagnostics"]}
        assert "error" in severities
        # no job record was created and the pool never computed
        _, _, listing = client.get("/jobs")
        assert listing["jobs"] == []
        counters = handle.service.bridge.metrics.snapshot()["counters"]
        assert counters.get("bridge.computed", 0) == 0
        assert counters.get("bridge.rejected", 0) == 1

    def test_tiny_budget_times_out(self, client):
        _, _, submitted = client.submit(
            spec_to_json(mine_pump()), timeout=1e-6
        )
        done = client.wait_done(submitted["job"])
        assert done["status"] == "timeout"

    def test_resubmit_after_done_is_cached(self, client, handle):
        _, _, first = client.submit(_two_task_doc())
        client.wait_done(first["job"])
        status, _, second = client.submit(_two_task_doc())
        assert status == 201
        assert second["disposition"] == "cached"
        assert second["state"] == "done"
        assert second["fingerprint"] == first["fingerprint"]
        # the hit bypassed the pool: still exactly one compute
        counters = handle.service.bridge.metrics.snapshot()["counters"]
        assert counters.get("bridge.computed") == 1
        assert counters.get("bridge.cache_hits") == 1

    def test_result_carries_firing_schedule(self, client):
        _, _, submitted = client.submit(_two_task_doc())
        client.wait_done(submitted["job"])
        status, _, payload = client.get(
            f"/results/{submitted['fingerprint']}"
        )
        assert status == 200
        assert payload["status"] == "feasible"
        schedule = payload["firing_schedule"]
        assert schedule and all(len(e) == 3 for e in schedule)

    def test_result_strong_etag_and_304(self, client):
        _, _, submitted = client.submit(_two_task_doc())
        client.wait_done(submitted["job"])
        path = f"/results/{submitted['fingerprint']}"
        status, headers, _ = client.get(path)
        etag = headers["etag"]
        assert etag == f'"{submitted["fingerprint"]}"'
        status, headers, body = client.request(
            "GET", path, headers={"if-none-match": etag}
        )
        assert status == 304
        assert body == b""
        assert headers["etag"] == etag

    def test_result_unknown_fingerprint_404(self, client):
        status, _, doc = client.get("/results/" + "0" * 64)
        assert status == 404


# ======================================================================
# SSE streams
# ======================================================================
@needs_loopback
class TestSseStream:
    def test_stream_ends_with_done_event(self, client):
        _, _, submitted = client.submit(_two_task_doc())
        events = client.sse(f"/jobs/{submitted['job']}/events")
        kinds = [e.event for e in events]
        assert kinds[0] == "queued"
        assert kinds[-1] == "done"
        done = events[-1].payload()
        assert done["status"] == "feasible"
        assert done["states_visited"] > 0
        assert done["states_per_second"] > 0
        assert done["result"] == f"/results/{submitted['fingerprint']}"

    def test_late_subscriber_gets_replay(self, client):
        _, _, submitted = client.submit(_two_task_doc())
        client.wait_done(submitted["job"])
        events = client.sse(f"/jobs/{submitted['job']}/events")
        assert [e.event for e in events] == ["queued", "done"]

    def test_sse_events_carry_metrics_snapshot(self, client):
        doc = spec_to_json(random_task_set(**HARD_KWARGS))
        _, _, submitted = client.submit(doc, timeout=8.0)
        events = client.sse(f"/jobs/{submitted['job']}/events")
        progress = [e for e in events if e.event == "progress"]
        if progress:  # only present while the job was still running
            payload = progress[0].payload()
            assert payload["submissions"] >= 1
            assert "elapsed_seconds" in payload

    def test_progress_events_carry_live_search_counters(
        self, client, handle
    ):
        """A running job's ``progress`` events forward the worker's
        spooled search counters (states visited, states/sec, engine
        slot) once the first heartbeat sample lands."""
        doc = spec_to_json(random_task_set(**HARD_KWARGS))
        _, _, submitted = client.submit(doc, timeout=8.0)
        events = client.sse(f"/jobs/{submitted['job']}/events")
        live = [
            e.payload()
            for e in events
            if e.event == "progress"
            and "states_visited" in e.payload()
        ]
        # the hard instance searches for seconds while both the spool
        # (0.25s) and the ticker (0.25s) sample much faster, so live
        # samples must appear in the stream
        assert live
        sample = live[-1]
        assert sample["states_visited"] > 0
        assert sample["states_per_sec"] >= 0
        assert sample["depth"] >= 0
        assert sample["slot"] == SchedulerConfig().engine
        # monotone within the stream: later events never report fewer
        # visited states than earlier ones
        visited = [s["states_visited"] for s in live]
        assert visited == sorted(visited)
        # terminal cleanup: the spool file is gone once the job is done
        client.wait_done(submitted["job"])
        spool_dir = handle.service.manager.progress_dir
        assert spool_dir is not None
        assert f"{submitted['fingerprint']}.json" not in os.listdir(
            spool_dir
        )

    def test_disconnect_removes_subscriber(self, client, handle):
        doc = spec_to_json(random_task_set(**HARD_KWARGS))
        _, _, submitted = client.submit(doc, timeout=6.0)
        conn = http.client.HTTPConnection(
            "127.0.0.1", handle.port, timeout=10
        )
        conn.request("GET", f"/jobs/{submitted['job']}/events")
        conn.getresponse()  # headers received: stream established
        conn.close()  # client walks away mid-stream
        record = handle.service.manager.record(submitted["job"])
        deadline = time.monotonic() + 15.0
        while time.monotonic() < deadline:
            if not record.subscribers:
                break
            time.sleep(0.05)
        assert not record.subscribers
        # the service is unharmed: the job still finishes and the
        # next request is served normally
        client.wait_done(submitted["job"])
        assert client.get("/healthz")[0] == 200


# ======================================================================
# Degradation: dedup under concurrency, worker crashes
# ======================================================================
@needs_loopback
class TestDegradation:
    def test_concurrent_identical_submissions_compute_once(
        self, handle
    ):
        doc = _two_task_doc("stampede")
        body = {"spec": doc, "timeout": 10.0}
        results: list[dict] = []
        errors: list[Exception] = []

        def submit_one():
            try:
                _, _, reply = Client(handle.port).post("/jobs", body)
                results.append(reply)
            except Exception as err:  # pragma: no cover - diagnostics
                errors.append(err)

        threads = [
            threading.Thread(target=submit_one) for _ in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        assert len(results) == 8
        fingerprints = {r["fingerprint"] for r in results}
        assert len(fingerprints) == 1
        dispositions = sorted(r["disposition"] for r in results)
        assert dispositions.count("computed") == 1
        assert all(
            d in ("computed", "deduplicated", "cached")
            for d in dispositions
        )
        # the hard evidence: the pool executed the job exactly once
        client = Client(handle.port)
        for reply in results:
            client.wait_done(reply["job"])
        counters = handle.service.bridge.metrics.snapshot()["counters"]
        assert counters.get("bridge.computed") == 1
        # and every waiter got the same feasible outcome
        status, _, payload = client.get(
            f"/results/{fingerprints.pop()}"
        )
        assert status == 200
        assert payload["status"] == "feasible"

    def test_worker_crash_yields_error_and_pool_recovers(
        self, monkeypatch
    ):
        monkeypatch.setenv("EZRT_CRASH_SPEC", "crash-me")
        server = run_in_thread(
            BatchEngine(
                store_schedules=True,
                cache=ResultCache(),
                max_workers=1,
            )
        )
        try:
            client = Client(server.port)
            _, _, doomed = client.submit(_two_task_doc("crash-me"))
            done = client.wait_done(doomed["job"])
            assert done["status"] == "error"
            events = client.sse(f"/jobs/{doomed['job']}/events")
            error = events[-1].payload()
            assert error["status"] == "error"
            assert error["error"]  # the crash reason is surfaced
            # degradation, not collapse: the pool was replaced and a
            # healthy submission still synthesises
            _, _, healthy = client.submit(_two_task_doc("healthy"))
            assert client.wait_done(healthy["job"])["status"] == (
                "feasible"
            )
        finally:
            server.stop()


# ======================================================================
# Progress spool bookkeeping (no sockets: a stub bridge)
# ======================================================================
class _StubBridge:
    """Hands out :class:`Submission` objects in a scripted order."""

    inflight = 0

    def __init__(self, *dispositions: str):
        self.metrics = MetricsRegistry()
        self.submissions = [
            Submission("k1", BatchJob(spec=mine_pump()), Future(), d)
            for d in dispositions
        ]
        for submission in self.submissions:
            if submission.disposition == Submission.CACHED:
                submission.future.set_result(_stub_outcome())

    def submit(self, item, *, timeout=None, progress_dir=None):
        return self.submissions.pop(0)


class _UnscannableRecords(dict):
    """A record table that fails any walk over its records."""

    def _walk(self, *args):
        raise AssertionError("walked every record")

    values = items = keys = __iter__ = _walk


def _stub_outcome() -> JobOutcome:
    return JobOutcome(
        spec_name="mine-pump", status="feasible", key="k1", n_tasks=1
    )


class TestProgressSpool:
    @pytest.fixture
    def loop(self):
        loop = asyncio.new_event_loop()
        yield loop
        loop.close()

    def _manager(self, loop, tmp_path, *dispositions):
        bridge = _StubBridge(*dispositions)
        manager = JobManager(
            bridge, heartbeat=0, progress_dir=str(tmp_path)
        )
        manager.bind(loop)
        manager._records = _UnscannableRecords()
        spool = tmp_path / "k1.json"
        spool.write_text("{}")
        return manager, list(bridge.submissions), spool

    def _finish(self, loop, submission) -> None:
        submission.future.set_result(_stub_outcome())
        loop.run_until_complete(asyncio.sleep(0))

    def test_completion_reads_no_other_record(self, loop, tmp_path):
        manager, (leader,), spool = self._manager(
            loop, tmp_path, Submission.SUBMITTED
        )
        record = manager.submit("mine-pump")
        self._finish(loop, leader)
        assert record.state == JOB_DONE
        assert not spool.exists()

    def test_cached_submission_unlinks_nothing(
        self, loop, tmp_path, monkeypatch
    ):
        manager, _, spool = self._manager(
            loop, tmp_path, Submission.CACHED
        )
        unlinked = []
        monkeypatch.setattr(os, "unlink", unlinked.append)
        record = manager.submit("mine-pump")
        assert record.state == JOB_DONE
        assert unlinked == []

    def test_joined_duplicate_keeps_the_spool_until_last_done(
        self, loop, tmp_path
    ):
        manager, (leader, joined, _cached), spool = self._manager(
            loop,
            tmp_path,
            Submission.SUBMITTED,
            Submission.JOINED,
            Submission.CACHED,
        )
        records = [manager.submit("mine-pump") for _ in range(3)]
        assert [r.disposition for r in records] == [
            "computed", "deduplicated", "cached",
        ]
        self._finish(loop, leader)
        assert records[0].state == JOB_DONE
        assert spool.exists()  # the joined duplicate still streams it
        self._finish(loop, joined)
        assert records[1].state == JOB_DONE
        assert not spool.exists()


class _FinishedRecord:
    """A finished record that fails any read of its fields."""

    def __getattr__(self, name):
        raise AssertionError(f"read finished record field {name!r}")


class TestProgressTicker:
    """The heartbeat and the subscriber gauge cost O(live jobs)."""

    FINISHED = 10_000

    @pytest.fixture
    def loop(self):
        loop = asyncio.new_event_loop()
        yield loop
        loop.close()

    def _manager(self, loop, tmp_path):
        """One running job with one subscriber, among 10,000 finished
        records that neither a walk nor a field read may touch."""
        bridge = _StubBridge(Submission.SUBMITTED)
        (self.submission,) = bridge.submissions
        manager = JobManager(
            bridge, heartbeat=0, progress_dir=str(tmp_path)
        )
        manager.bind(loop)
        live = manager.submit("mine-pump")
        queue = manager.subscribe(live)
        table = _UnscannableRecords(manager._records)
        for index in range(self.FINISHED):
            table[f"done-{index}"] = _FinishedRecord()
        manager._records = table
        return manager, live, queue

    def _events(self, queue) -> list[str]:
        return [event.event for event, _ in queue._buffer]

    def test_beat_reads_only_unfinished_records(self, loop, tmp_path):
        manager, live, queue = self._manager(loop, tmp_path)
        manager._beat()
        assert self._events(queue) == ["queued", "progress"]
        gauges = manager.metrics_snapshot()["gauges"]
        assert gauges["service.sse.subscribers"] == 1.0

    def test_subscriber_gauge_follows_unsubscribe(self, loop, tmp_path):
        manager, live, queue = self._manager(loop, tmp_path)
        manager.unsubscribe(live, queue)
        gauges = manager.metrics_snapshot()["gauges"]
        assert gauges["service.sse.subscribers"] == 0.0
        manager._beat()  # no live subscriber: nothing to publish
        assert self._events(queue) == ["queued"]

    def test_finished_job_leaves_the_beat(self, loop, tmp_path):
        manager, live, queue = self._manager(loop, tmp_path)
        self.submission.future.set_result(_stub_outcome())
        loop.run_until_complete(asyncio.sleep(0))
        assert live.state == JOB_DONE
        assert self._events(queue) == ["queued", "done"]
        manager._beat()
        assert self._events(queue) == ["queued", "done"]


# ======================================================================
# Audit log determinism
# ======================================================================
@needs_loopback
class TestAuditLog:
    def _run_session(self, audit_path: str) -> None:
        server = run_in_thread(
            BatchEngine(
                store_schedules=True, cache=ResultCache(), max_workers=1
            ),
            audit_path=audit_path,
        )
        try:
            client = Client(server.port)
            for doc in (
                _two_task_doc(),
                _tight_pair_doc(),  # searched-infeasible: audited too
                _two_task_doc(),  # cached: still audited
            ):
                _, _, submitted = client.submit(doc)
                client.wait_done(submitted["job"])
        finally:
            server.stop()

    def test_replay_is_byte_identical(self, tmp_path):
        first = str(tmp_path / "a.jsonl")
        second = str(tmp_path / "b.jsonl")
        self._run_session(first)
        self._run_session(second)
        with open(first, "rb") as fh:
            first_bytes = fh.read()
        with open(second, "rb") as fh:
            second_bytes = fh.read()
        assert first_bytes == second_bytes
        assert first_bytes  # and it is not trivially empty

    def test_rows_are_ordered_and_clock_free(self, tmp_path):
        path = str(tmp_path / "audit.jsonl")
        self._run_session(path)
        with open(path, "r", encoding="utf-8") as fh:
            rows = [json.loads(line) for line in fh]
        assert [row["seq"] for row in rows] == list(
            range(1, len(rows) + 1)
        )
        assert [row["event"] for row in rows] == [
            "submit", "done", "submit", "done", "submit", "done",
        ]
        for row in rows:
            assert not any(
                "time" in key or "stamp" in key for key in row
            )
        # the cached resubmission is visible as such
        assert rows[4]["disposition"] == "cached"


# ======================================================================
# Verdict parity: served schedules replay through the reference engine
# ======================================================================
@needs_loopback
class TestVerdictParity:
    @pytest.mark.parametrize(
        "spec_factory",
        [
            lambda: mine_pump(),
            lambda: spec_from_json(_two_task_doc()),
            lambda: random_task_set(4, 0.6, seed=0),
        ],
        ids=["mine-pump", "two-task", "random-4"],
    )
    def test_served_schedule_replays_clean(
        self, client, spec_factory
    ):
        spec = spec_factory()
        _, _, submitted = client.submit(spec_to_json(spec))
        done = client.wait_done(submitted["job"])
        assert done["status"] == "feasible"
        _, _, payload = client.get(
            f"/results/{submitted['fingerprint']}"
        )
        schedule = [
            tuple(entry) for entry in payload["firing_schedule"]
        ]
        net = compose(spec).compiled()
        # raises SchedulingError on any illegal firing or a wrong
        # final marking — serving such a schedule would be the bug
        validate_with_reference(net, SchedulerConfig(), schedule)
        assert payload["makespan"] == schedule[-1][2]

    def test_reference_engine_rejects_tampering(self, client):
        """The parity gate is a real check, not a rubber stamp."""
        spec = spec_from_json(_two_task_doc())
        _, _, submitted = client.submit(spec_to_json(spec))
        client.wait_done(submitted["job"])
        _, _, payload = client.get(
            f"/results/{submitted['fingerprint']}"
        )
        schedule = [
            tuple(entry) for entry in payload["firing_schedule"]
        ]
        net = compose(spec).compiled()
        tampered = [schedule[-1]] + schedule[1:]
        with pytest.raises(SchedulingError):
            validate_with_reference(
                net, SchedulerConfig(), tampered
            )


# ======================================================================
# CLI entry point
# ======================================================================
@needs_loopback
class TestServeCli:
    def test_serve_smoke_and_clean_shutdown(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = "src"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            cwd=os.path.dirname(os.path.dirname(__file__)),
        )
        try:
            ready = proc.stdout.readline()
            assert "ezrt-service listening on" in ready
            port = int(ready.strip().rsplit(":", 1)[1])
            client = Client(port)
            _, _, submitted = client.submit(_two_task_doc())
            assert client.wait_done(submitted["job"])["status"] == (
                "feasible"
            )
            proc.send_signal(signal.SIGINT)
            # a clean, prompt exit means the worker pool was reaped —
            # leaked children would keep the process wait hanging
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
