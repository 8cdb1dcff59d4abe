"""Experiment SV1 — synthesis service: dedup rate, latency, parity.

Acceptance benchmark of :mod:`repro.service` (the asyncio HTTP front
end over the batch engine), gating three service-level promises:

* **dedup under concurrent identical traffic** — a stampede of
  identical submissions from parallel clients is answered with a
  ≥ 90% hit rate (``cached`` + ``deduplicated`` dispositions) and the
  worker pool computes the fingerprint **exactly once**;
* **responsiveness** — p99 submit→first-SSE-event latency stays under
  a frozen floor (generous: the gate catches event-loop stalls and
  accidental blocking in the submission path, not scheduler noise);
* **verdict parity** — every feasible schedule the service serves
  replays cleanly through the checked reference engine
  (:func:`repro.scheduler.parallel.validate_with_reference`).

Each test writes its rows and gates to ``BENCH_service.json`` at the
repository root (:func:`harness.write_bench`); CI uploads it as an
artifact so the service-latency trajectory is recorded per commit.
The client loop times its own requests: it is a load generator, not a
min-of-N timer.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time

import pytest

from harness import gate, row, write_bench
from repro.batch import BatchEngine, ResultCache
from repro.blocks import compose
from repro.scheduler import SchedulerConfig
from repro.scheduler.parallel import validate_with_reference
from repro.service import decode_stream, run_in_thread
from repro.spec import paper_examples
from repro.spec.jsonio import spec_to_json
from repro.workloads import random_task_set

#: dedup gate: fraction of stampede submissions answered without a
#: fresh compute (ISSUE 8 acceptance criterion)
MIN_HIT_RATE = 0.90
#: frozen latency floor for p99 submit→first-event (seconds).  The
#: first event is published at subscription time, so this measures
#: HTTP + event-loop turnaround, independent of search hardness.
MAX_P99_FIRST_EVENT = 2.5
#: concurrent clients x submissions each for the stampede phase
CLIENTS = 8
PER_CLIENT = 5

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


pytestmark = pytest.mark.skipif(
    not _loopback_available(),
    reason="runner forbids binding loopback sockets",
)


def _post_json(port: int, path: str, doc: dict) -> dict:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request(
            "POST",
            path,
            body=json.dumps(doc),
            headers={"content-type": "application/json"},
        )
        response = conn.getresponse()
        assert response.status == 201, response.read()
        return json.loads(response.read())
    finally:
        conn.close()


def _get_json(port: int, path: str) -> dict:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        assert response.status == 200, response.read()
        return json.loads(response.read())
    finally:
        conn.close()


def _first_event_bytes(port: int, path: str) -> bytes:
    """Open an SSE stream, return once the first full event arrived."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        assert response.status == 200
        buffer = b""
        while b"\n\n" not in buffer:
            chunk = response.read1(4096)
            if not chunk:
                break
            buffer += chunk
        # closing with the stream still live also exercises
        # mid-stream client drops on the server side
        return buffer
    finally:
        conn.close()


def _wait_done(port: int, job_id: str, deadline: float = 120.0) -> dict:
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        doc = _get_json(port, f"/jobs/{job_id}")
        if doc["state"] == "done":
            return doc
        time.sleep(0.02)
    raise AssertionError(f"{job_id} never finished")


def _quantile(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    index = min(
        len(ordered) - 1, max(0, round(q * (len(ordered) - 1)))
    )
    return ordered[index]


@pytest.fixture(scope="module")
def service():
    handle = run_in_thread(
        BatchEngine(
            store_schedules=True,
            cache=ResultCache(),
            max_workers=2,
            job_timeout=10.0,
        )
    )
    yield handle
    handle.stop()


def test_stampede_dedup_and_latency(service, report):
    """Concurrent identical traffic: one compute, ≥90% hits, fast."""
    port = service.port
    doc = {
        "spec": spec_to_json(
            random_task_set(5, 0.6, seed=11, name="stampede")
        )
    }
    replies: list[dict] = []
    latencies: list[float] = []
    errors: list[BaseException] = []
    lock = threading.Lock()

    def client_loop():
        try:
            for _ in range(PER_CLIENT):
                started = time.monotonic()
                reply = _post_json(port, "/jobs", doc)
                raw = _first_event_bytes(
                    port, f"/jobs/{reply['job']}/events"
                )
                elapsed = time.monotonic() - started
                (first, *_rest) = decode_stream(raw)
                assert first.event == "queued"
                with lock:
                    replies.append(reply)
                    latencies.append(elapsed)
        except BaseException as err:  # noqa: BLE001 — re-raised below
            with lock:
                errors.append(err)

    threads = [
        threading.Thread(target=client_loop) for _ in range(CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300)
    assert not errors, errors[0]
    total = CLIENTS * PER_CLIENT
    assert len(replies) == total

    _wait_done(port, replies[0]["job"])
    dispositions = [reply["disposition"] for reply in replies]
    computed = dispositions.count("computed")
    hits = total - computed
    hit_rate = hits / total
    counters = service.service.bridge.metrics.snapshot()["counters"]
    p50 = _quantile(latencies, 0.50)
    p99 = _quantile(latencies, 0.99)

    report("SV1", "stampede hit rate", f">={MIN_HIT_RATE:.0%}", f"{hit_rate:.1%}")
    report("SV1", "pool computes", 1, int(counters["bridge.computed"]))
    report(
        "SV1",
        "submit->first-event p99",
        f"<{MAX_P99_FIRST_EVENT}s",
        f"{p99 * 1000:.1f}ms",
    )

    write_bench(
        "service",
        [
            row("stampede:p50", "warm", "submit-first-event", seconds=p50),
            row("stampede:p99", "warm", "submit-first-event", seconds=p99),
        ],
        [
            gate("pool_computes", 1, counters["bridge.computed"],
                 counters["bridge.computed"] == 1),
            gate("computed_dispositions", 1, computed, computed == 1),
            gate("stampede_hit_rate", MIN_HIT_RATE, hit_rate,
                 hit_rate >= MIN_HIT_RATE),
            gate("p99_first_event_seconds", MAX_P99_FIRST_EVENT, p99,
                 p99 < MAX_P99_FIRST_EVENT),
        ],
    )


def test_served_schedules_replay_through_reference(service, report):
    """Verdict parity: everything served feasible replays clean."""
    port = service.port
    specs = list(paper_examples().values()) + [
        random_task_set(4, 0.5, seed=2, name="fresh-a"),
        random_task_set(6, 0.4, seed=5, name="fresh-b"),
    ]
    rows = []
    statuses: dict[str, int] = {}
    for spec in specs:
        reply = _post_json(port, "/jobs", {"spec": spec_to_json(spec)})
        done = _wait_done(port, reply["job"])
        statuses[done["status"]] = statuses.get(done["status"], 0) + 1
        if done["status"] != "feasible":
            continue
        payload = _get_json(port, f"/results/{reply['fingerprint']}")
        schedule = [
            tuple(entry) for entry in payload["firing_schedule"]
        ]
        assert schedule, "feasible result served without its schedule"
        net = compose(spec).compiled()
        # raises SchedulingError if the served schedule is illegal
        validate_with_reference(net, SchedulerConfig(), schedule)
        assert payload["makespan"] == schedule[-1][2]
        rows.append(
            row(f"served:{spec.name}", "warm", "replay",
                states=payload["search"]["states_visited"])
        )

    report("SV1", "served schedules replayed", "all feasible", len(rows))
    write_bench(
        "service",
        rows,
        [gate("replayed_clean", 3, len(rows), len(rows) >= 3)],
    )
