"""Workload ``service-mixed``: mixed traffic against ``ezrt serve``.

``python -m repro.cli serve --port 0`` runs as a subprocess with its
default worker pool and memory cache; its ready line gives the port.
One closed-loop client drives it over a keep-alive connection.  An op
is ``POST /jobs``, then the job's SSE stream until ``done`` (skipped
when the POST already answers ``done``), then ``GET
/results/{fingerprint}``.  The server closes an event stream after its
terminal event, so each stream is read on a short-lived connection of
its own.

One client, not two: the workload, server and pool included, runs on
one CPU beside its host probe, and one closed-loop client keeps at
most one job in flight, so client, server and worker take turns.  Two
clients kept every process busy at once, and their throughput moved by
up to ±20% between runs of the same code.

The op list is seeded and fixed.  Fresh submissions are computes
(pool dispatch, search, cache write), drawn from the paper case
studies and ``random_task_set(3, U in {0.3, 0.5, 0.7}, seed)``; every
fresh spec has a distinct fingerprint, and the set is the same for
every seed.  40% of ops re-submit a spec sent at least ten ops
earlier, so they are answered from the cache.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import random
import re
import signal
import subprocess
import threading
import time

from repro.batch import BatchEngine
from repro.blocks import compose
from repro.errors import EzRealtimeError
from repro.lint.specrules import presearch_diagnostics
from repro.scheduler import SchedulerConfig
from repro.scheduler.parallel import validate_with_reference
from repro.service import decode_stream
from repro.spec import paper_examples
from repro.spec.jsonio import spec_from_json, spec_to_json
from repro.workloads import random_task_set

from common import (
    WORK,
    HostSpeed,
    emit,
    end_to_end,
    mean,
    overhead,
    p50,
    pin_to_one_cpu,
    pinned_env,
    python_argv,
    stop_process,
)

REPEAT_SHARE = 0.4
#: a repeat re-submits a spec sent at least this many ops earlier
REPEAT_GAP = 10
UTILIZATIONS = (0.3, 0.5, 0.7)
#: nominal throughput on a 2-vCPU Xeon host; sizes a run from
#: ``--seconds`` so every run of a given length does the same work
NOMINAL_OPS_PER_S = 80
SETUP_REPEATS = 3
#: submitted during set-up so the worker pool is up before timing;
#: two tasks, so it never collides with a planned (three-task) spec
WARM_SPEC = random_task_set(2, 0.2, seed=0, name="warm-up")

SERVE_DIR = os.path.join(WORK, "service")
_READY = re.compile(r"listening on http://([\d.]+):(\d+)")


class Op:
    __slots__ = ("spec", "body", "planned")

    def __init__(self, spec, body: bytes, planned: str):
        self.spec = spec
        self.body = body
        self.planned = planned


def fresh_specs(count: int) -> list:
    """The fresh submissions: the same for every seed.

    The paper case studies, then three-task random sets from a fixed
    seed range, skipping any whose fingerprint another fresh spec has
    (the planned dispositions must be exact).  Fixing the set, not just
    its size, keeps the compute work of a run independent of the seed.
    """
    keys = BatchEngine(max_workers=1, store_schedules=True)
    specs = list(paper_examples().values())[:count]
    seen = {keys.make_job(spec).key() for spec in specs}
    draw = 0
    while len(specs) < count:
        draw += 1
        spec = random_task_set(
            3, UTILIZATIONS[draw % len(UTILIZATIONS)], seed=draw
        )
        key = keys.make_job(spec).key()
        if key not in seen:
            seen.add(key)
            specs.append(spec)
    return specs


def plan(seed: int, n_ops: int) -> list[Op]:
    """The op list; deterministic in ``seed`` and ``n_ops``.

    The seed orders the fixed fresh specs and places the repeats; a
    repeat re-submits an op at least ``REPEAT_GAP`` earlier, which has
    finished by then, so it is a cache hit.
    """
    rng = random.Random(f"service-mixed:{seed}")
    repeats = round(n_ops * REPEAT_SHARE)
    fresh = fresh_specs(n_ops - repeats)
    rng.shuffle(fresh)
    repeat_at = set(rng.sample(range(REPEAT_GAP, n_ops), repeats))
    ops: list[Op] = []
    for index in range(n_ops):
        if index in repeat_at:
            source = ops[rng.randrange(index - REPEAT_GAP + 1)]
            ops.append(Op(source.spec, source.body, "cached"))
        else:
            spec = fresh.pop()
            body = json.dumps({"spec": spec_to_json(spec)}).encode()
            ops.append(Op(spec, body, "computed"))
    return ops


class Server:
    """``ezrt serve --port 0`` as a subprocess."""

    def __init__(self, env: dict):
        os.makedirs(SERVE_DIR, exist_ok=True)
        self._stderr = open(os.path.join(SERVE_DIR, "stderr.txt"), "ab")
        self.proc = subprocess.Popen(
            python_argv("-m", "repro.cli", "serve", "--port", "0"),
            cwd=SERVE_DIR,
            env=env,
            stdout=subprocess.PIPE,
            stderr=self._stderr,
        )
        self._drain = None
        line = self.proc.stdout.readline().decode()
        match = _READY.search(line)
        if match is None:
            self.stop()
            raise SystemExit(f"no ready line from the server: {line!r}")
        self.host, self.port = match.group(1), int(match.group(2))
        # keep draining standard output so the server never blocks on it
        self._drain = threading.Thread(target=self.proc.stdout.read)
        self._drain.start()

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=120)

    def workers(self) -> list[int]:
        """Pids of the server's child processes (its worker pool)."""
        pids = []
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                    ppid = int(handle.read().rsplit(")", 1)[1].split()[1])
            except (OSError, ValueError, IndexError):
                continue
            if ppid == self.proc.pid:
                pids.append(int(entry))
        return pids

    def peak_rss_mb(self) -> float:
        """Largest VmHWM among the server and its worker processes."""
        peak_kb = 0
        for pid in [self.proc.pid, *self.workers()]:
            try:
                with open(f"/proc/{pid}/status", encoding="ascii") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            peak_kb = max(peak_kb, int(line.split()[1]))
            except OSError:
                continue
        return peak_kb / 1024.0

    def metrics(self) -> dict:
        conn = self.connect()
        try:
            conn.request("GET", "/metrics")
            return json.loads(conn.getresponse().read())["counters"]
        finally:
            conn.close()

    def stop(self) -> None:
        workers = self.workers()
        stop_process(self.proc, timeout=5.0)
        if self.proc.returncode == -signal.SIGKILL:
            # a killed server leaves its pool behind
            for pid in workers:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        if self._drain is not None:
            self._drain.join()
        self.proc.stdout.close()
        self._stderr.close()


def run_op(conn, server: Server, body: bytes) -> dict:
    """One op; leg times in ms plus the raw answers, checked later."""
    started = time.perf_counter()
    conn.request(
        "POST", "/jobs", body=body, headers={"content-type": "application/json"}
    )
    response = conn.getresponse()
    submit_status, submitted = response.status, json.loads(response.read())
    posted = time.perf_counter()
    stream = b""
    if submit_status == 201 and submitted["state"] != "done":
        events = server.connect()
        try:
            events.request("GET", f"/jobs/{submitted['job']}/events")
            stream = events.getresponse().read()
        finally:
            events.close()
    waited = time.perf_counter()
    conn.request("GET", f"/results/{submitted.get('fingerprint')}")
    response = conn.getresponse()
    result_status, result = response.status, response.read()
    fetched = time.perf_counter()
    return {
        "started": started,
        "ended": fetched,
        "submit_ms": (posted - started) * 1000.0,
        "wait_ms": (waited - posted) * 1000.0,
        "fetch_ms": (fetched - waited) * 1000.0,
        "submit_status": submit_status,
        "submitted": submitted,
        "stream": stream,
        "result_status": result_status,
        "result": result,
    }


def start_ready(env: dict) -> Server:
    """Start a server and push the warm-up job through its pool."""
    server = Server(env)
    body = json.dumps({"spec": spec_to_json(WARM_SPEC)}).encode()
    conn = server.connect()
    try:
        record = run_op(conn, server, body)
    finally:
        conn.close()
    if record["result_status"] != 200:
        server.stop()
        raise SystemExit("warm-up job failed")
    return server


def timed_setup(env: dict, speed: HostSpeed) -> tuple[float, Server]:
    """Median scaled seconds to a ready server with a live pool; keeps
    the last.

    The first start is an untimed warm-up.
    """
    times = []
    for rep in range(SETUP_REPEATS + 1):
        speed.sample()
        started = time.perf_counter()
        server = start_ready(env)
        ended = time.perf_counter()
        speed.sample()
        if rep:
            times.append(speed.scaled_s(started, ended))
        if rep < SETUP_REPEATS:
            server.stop()
    return p50(times), server


def check(ops, records, counters) -> tuple[list[str], list[tuple]]:
    """Failure reasons, and (op, record, outcome) of every answered op.

    Every op must answer 201/200 with its planned disposition and a
    result that is neither ``error`` nor ``timeout``; every distinct
    feasible schedule is replayed through the reference engine, and
    the service's own counters must match the planned mix.
    """
    failures: list[str] = []
    rows = []
    replayed: set[str] = set()
    for op, rec in zip(ops, records):
        if rec["submit_status"] != 201 or rec["result_status"] != 200:
            failures.append(f"HTTP {rec['submit_status']}/{rec['result_status']}")
            continue
        outcome = json.loads(rec["result"])
        disposition = rec["submitted"]["disposition"]
        if disposition != op.planned:
            failures.append(f"disposition {disposition} != {op.planned}")
        elif rec["submitted"]["state"] != "done" and not any(
            event.event == "done" for event in decode_stream(rec["stream"])
        ):
            failures.append("event stream ended without done")
        elif outcome["status"] not in ("feasible", "infeasible"):
            failures.append(f"result status {outcome['status']}")
        elif outcome["feasible"] and outcome["key"] not in replayed:
            replayed.add(outcome["key"])
            try:
                validate_with_reference(
                    compose(op.spec).compiled(),
                    SchedulerConfig(),
                    [tuple(entry) for entry in outcome["firing_schedule"]],
                )
            except EzRealtimeError as err:
                failures.append(f"reference replay failed: {err}")
        rows.append((op, rec, outcome))
    planned = [op.planned for op in ops]
    mix = {
        # the warm-up job is the one compute outside the plan
        "bridge.computed": planned.count("computed") + 1,
        "bridge.cache_hits": planned.count("cached"),
        "bridge.dedup_joined": 0,
    }
    for name, want in mix.items():
        if counters.get(name, 0) != want:
            failures.append(f"{name} {counters.get(name, 0)} != planned {want}")
    return failures, rows


def run_pass(server: Server, ops: list[Op], setup_s: float, speed: HostSpeed):
    """Drive ``ops`` through ``server``, then stop it and check."""
    records = []
    try:
        conn = server.connect()
        try:
            for op in ops:
                speed.maybe_sample()
                records.append(run_op(conn, server, op.body))
            speed.sample()
        finally:
            conn.close()
        rss = server.peak_rss_mb()
        counters = server.metrics()
    finally:
        server.stop()
    failures, rows = check(ops, records, counters)
    latencies = [
        speed.scaled_s(rec["started"], rec["ended"]) * 1000.0 for rec in records
    ]
    return end_to_end(latencies, setup_s, rss), failures, rows, counters


def layer_metrics(rows, counters) -> dict[str, float]:
    """Per-layer means per op from the legs, results and counters."""
    metrics: dict[str, float] = {}
    for disposition in ("computed", "cached"):
        mine = [rec for op, rec, _ in rows if op.planned == disposition]
        for leg in ("submit", "wait", "fetch"):
            metrics[f"service.{disposition}.{leg}_ms"] = mean(
                [rec[f"{leg}_ms"] for rec in mine]
            )
    computed = [(rec, out) for op, rec, out in rows if op.planned == "computed"]
    job_ms = [out["elapsed_seconds"] * 1000.0 for _, out in computed]
    metrics["batch.job_ms"] = mean(job_ms)
    metrics["service.dispatch_ms"] = mean(
        [rec["wait_ms"] - ms for (rec, _), ms in zip(computed, job_ms)]
    )
    metrics["scheduler.search_ms"] = mean(
        [out["search_seconds"] * 1000.0 for _, out in computed]
    )
    metrics["scheduler.states"] = mean(
        [out["search"]["states_visited"] for _, out in computed]
    )
    # the server parses, prelints, composes and compiles every fresh
    # submission in-process; those layers are timed here on the same
    # inputs (a cached op never reaches them)
    layers = {
        "spec.parse_ms": [],
        "lint.prelint_ms": [],
        "blocks.compose_ms": [],
        "tpn.compile_ms": [],
    }
    for op, _, _ in rows:
        if op.planned != "computed":
            for values in layers.values():
                values.append(0.0)
            continue
        doc = json.loads(op.body)["spec"]
        t0 = time.perf_counter()
        spec = spec_from_json(doc)
        t1 = time.perf_counter()
        presearch_diagnostics(spec)
        t2 = time.perf_counter()
        model = compose(spec)
        t3 = time.perf_counter()
        model.compiled()
        t4 = time.perf_counter()
        for values, seconds in zip(
            layers.values(), (t1 - t0, t2 - t1, t3 - t2, t4 - t3)
        ):
            values.append(seconds * 1000.0)
    metrics.update({name: mean(values) for name, values in layers.items()})
    hits = counters.get("bridge.cache_hits", 0)
    submissions = counters.get("bridge.submissions", 0)
    metrics["batch.hit_ratio"] = hits / max(1, submissions)
    metrics["bridge.computed"] = counters.get("bridge.computed", 0)
    metrics["bridge.cached"] = hits
    metrics["bridge.joined"] = counters.get("bridge.dedup_joined", 0)
    return metrics


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    pin_to_one_cpu()
    speed = HostSpeed()
    env = pinned_env()
    n_ops = NOMINAL_OPS_PER_S * args.seconds
    if args.trace:
        n_ops //= 2  # two passes, untraced and traced
    ops = plan(args.seed, n_ops)
    setup_s, server = timed_setup(env, speed)
    untraced, failures, rows, counters = run_pass(server, ops, setup_s, speed)
    attempted = len(ops)
    if not args.trace:
        metrics = untraced
    else:
        # the legs are timed in every pass; the second pass gives the
        # per-layer figures and the overhead reading against the first
        traced, traced_failures, rows, counters = run_pass(
            start_ready(env), ops, setup_s, speed
        )
        attempted += len(ops)
        failures += traced_failures
        metrics = layer_metrics(rows, counters)
        metrics.update(overhead(traced, untraced))
        metrics["host.probe_ms"] = speed.median_ms()
    planned = [op.planned for op in ops]
    notes = [
        f"{len(ops)} ops per pass: {planned.count('computed')} computed, "
        f"{planned.count('cached')} cached (planned)"
    ]
    notes += [f"FAILED {reason}" for reason in failures[:10]]
    emit("service-mixed", attempted, len(failures), metrics, notes)


if __name__ == "__main__":
    main()
