"""Synthesis-as-a-service: the asyncio front end over the batch engine.

:class:`SynthesisService` glues the pieces together: the HTTP/1.1
plumbing (:mod:`repro.service.http11`), the SSE codec and per-client
queues (:mod:`repro.service.sse`), the job registry with its audit log
(:mod:`repro.service.jobs`) and the blocking compute path
(:class:`repro.batch.SubmissionBridge` over a persistent worker pool).

Endpoints::

    GET  /healthz                 liveness + job/in-flight counts
    GET  /metrics                 merged service+bridge metrics snapshot
    POST /jobs                    submit {"spec": ..., "timeout": ...}
    GET  /jobs                    list accepted jobs
    GET  /jobs/{id}               one job's state + links
    GET  /jobs/{id}/events        SSE stream (queued/progress/done)
    GET  /results/{fingerprint}   content-addressed outcome, strong ETag

``POST /jobs`` fast-fails trivially-infeasible specs: the bridge's
pre-search lint gate (:mod:`repro.lint.specrules`) rejects them, and
the app answers ``422`` with a machine-readable ``diagnostics`` list —
the violated necessary conditions — and no job record is created, no
pool worker touched.

Dedup is content-addressed at two layers and both are visible in the
``disposition`` field of a submission response: ``cached`` (the result
cache already held the fingerprint — the request never touches the
pool), ``deduplicated`` (an identical job is in flight — this request
joins its future; N concurrent identical submissions compute once) and
``computed`` (fresh work shipped to a pool worker).

``GET /results/{fp}`` serves the outcome under a strong ``ETag`` equal
to the fingerprint, so conditional re-fetches cost a ``304`` and no
body; results are immutable by construction (same fingerprint ⇒ same
canonical outcome), which is what makes the strong validator sound.

Two entry points: :func:`SynthesisService.start` for callers already
inside an event loop, and :class:`ServiceThread` (via
:func:`run_in_thread`) which hosts the loop on a daemon thread — the
shape the test-suite, the benchmark and ``ezrt serve`` all use.
"""

from __future__ import annotations

import asyncio
import json
import threading

from repro.batch.cache import ResultCache
from repro.batch.engine import BatchEngine, SubmissionBridge
from repro.service import http11
from repro.service.http11 import HttpError, Request
from repro.service.jobs import JobManager, JobRecord, SubmissionRejected
from repro.spec.dsl import DSLError
from repro.spec.jsonio import spec_from_json

#: top-level keys a POST /jobs body may carry (strict contract: an
#: unknown key is a client error, not something to silently ignore)
SUBMIT_KEYS = frozenset({"spec", "timeout"})


class SynthesisService:
    """One service instance: routes, job manager, compute bridge."""

    def __init__(
        self,
        engine: BatchEngine | None = None,
        *,
        audit_path: str | None = None,
        heartbeat: float = 0.25,
        sse_keepalive: float = 15.0,
        max_body: int = http11.MAX_BODY_BYTES,
    ):
        if engine is None:
            # feasible outcomes must carry their firing schedule so
            # they can be replayed through the reference engine (the
            # verdict-parity contract) and served as full results; the
            # memory cache makes repeat submissions of a finished
            # fingerprint `cached` instead of recomputed
            engine = BatchEngine(
                store_schedules=True, cache=ResultCache()
            )
        self.engine = engine
        self.bridge: SubmissionBridge = engine.bridge()
        self.manager = JobManager(
            self.bridge,
            audit_path=audit_path,
            heartbeat=heartbeat,
        )
        self.sse_keepalive = sse_keepalive
        self.max_body = max_body
        self._server: asyncio.base_events.Server | None = None
        self.host: str | None = None
        self.port: int | None = None

    # -- lifecycle -----------------------------------------------------
    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        """Bind and start serving (``port=0`` picks an ephemeral one)."""
        self.manager.bind(asyncio.get_running_loop())
        self._server = await asyncio.start_server(
            self._serve_client, host, port
        )
        bound = self._server.sockets[0].getsockname()
        self.host, self.port = bound[0], bound[1]

    async def aclose(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.manager.aclose()
        # blocking, but only at teardown: reap the worker pool so no
        # ezrt processes outlive the service (the CI leak gate)
        await asyncio.get_running_loop().run_in_executor(
            None, self.bridge.shutdown
        )

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- connection loop -----------------------------------------------
    async def _serve_client(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self.manager.metrics.inc("service.connections")
        try:
            while True:
                try:
                    request = await http11.read_request(
                        reader, max_body=self.max_body
                    )
                except HttpError as err:
                    writer.write(
                        http11.error_response(err, keep_alive=False)
                    )
                    await writer.drain()
                    return
                if request is None:
                    return
                self.manager.metrics.inc("service.requests")
                if await self._dispatch(request, writer):
                    return  # handler took over / asked to close
                await writer.drain()
                if not request.keep_alive:
                    return
        except (
            ConnectionError,
            asyncio.IncompleteReadError,
            asyncio.CancelledError,
        ):
            pass  # client went away mid-request; nothing to answer
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(
        self, request: Request, writer: asyncio.StreamWriter
    ) -> bool:
        """Route one request; returns True to close the connection."""
        try:
            return await self._route(request, writer)
        except HttpError as err:
            self.manager.metrics.inc("service.client_errors")
            writer.write(
                http11.error_response(
                    err, keep_alive=request.keep_alive
                )
            )
            return False
        except Exception as err:  # noqa: BLE001 — must answer something
            self.manager.metrics.inc("service.server_errors")
            writer.write(
                http11.error_response(
                    HttpError(500, f"{type(err).__name__}: {err}"),
                    keep_alive=False,
                )
            )
            return True

    async def _route(
        self, request: Request, writer: asyncio.StreamWriter
    ) -> bool:
        parts = [p for p in request.path.split("/") if p]
        method = request.method
        head = method == "HEAD"
        if method not in ("GET", "HEAD", "POST"):
            raise HttpError(
                405, f"method {method} not supported", allow="GET, HEAD, POST"
            )

        if parts == ["healthz"]:
            self._require_get(request)
            writer.write(
                self._json(
                    request,
                    200,
                    {
                        "ok": True,
                        "jobs": len(self.manager.records),
                        "inflight": self.bridge.inflight,
                    },
                )
            )
            return False

        if parts == ["metrics"]:
            self._require_get(request)
            writer.write(
                self._json(
                    request, 200, self.manager.metrics_snapshot()
                )
            )
            return False

        if parts == ["jobs"]:
            if method == "POST":
                writer.write(self._submit(request))
                return False
            writer.write(
                self._json(
                    request,
                    200,
                    {
                        "jobs": [
                            record.summary()
                            for record in self.manager.records
                        ]
                    },
                )
            )
            return False

        if len(parts) == 2 and parts[0] == "jobs":
            self._require_get(request)
            record = self._record(parts[1])
            writer.write(self._json(request, 200, record.summary()))
            return False

        if (
            len(parts) == 3
            and parts[0] == "jobs"
            and parts[2] == "events"
        ):
            self._require_get(request)
            record = self._record(parts[1])
            if head:
                writer.write(http11.sse_preamble())
                return True
            await self._stream_events(record, writer)
            return True

        if len(parts) == 2 and parts[0] == "results":
            self._require_get(request)
            writer.write(self._result(request, parts[1]))
            return False

        raise HttpError(404, f"no route for {request.path}")

    @staticmethod
    def _require_get(request: Request) -> None:
        if request.method not in ("GET", "HEAD"):
            raise HttpError(
                405,
                f"{request.path} only supports GET",
                allow="GET, HEAD",
            )

    def _json(
        self,
        request: Request,
        status: int,
        payload: dict,
        headers: dict | None = None,
    ) -> bytes:
        return http11.json_response(
            status,
            payload,
            headers=headers,
            head=request.method == "HEAD",
            keep_alive=request.keep_alive,
        )

    def _record(self, job_id: str) -> JobRecord:
        record = self.manager.record(job_id)
        if record is None:
            raise HttpError(404, f"unknown job {job_id!r}")
        return record

    # -- handlers ------------------------------------------------------
    def _submit(self, request: Request) -> bytes:
        doc = request.json()
        unknown = set(doc) - SUBMIT_KEYS
        if unknown:
            raise HttpError(
                400,
                "unknown submission keys: "
                + ", ".join(sorted(unknown)),
            )
        spec_doc = doc.get("spec")
        if not isinstance(spec_doc, dict):
            raise HttpError(
                400, 'submission requires a "spec" object'
            )
        timeout = doc.get("timeout")
        if timeout is not None:
            if (
                not isinstance(timeout, (int, float))
                or isinstance(timeout, bool)
                or timeout <= 0
            ):
                raise HttpError(
                    400, '"timeout" must be a positive number'
                )
            timeout = float(timeout)
        try:
            spec = spec_from_json(spec_doc)
        except DSLError as err:
            raise HttpError(422, f"invalid spec: {err}") from None
        try:
            record = self.manager.submit(spec, timeout=timeout)
        except SubmissionRejected as rejected:
            # the bridge's pre-search lint gate: a trivially-infeasible
            # spec is a client error, answered with the violated
            # necessary conditions; no job record, no pool worker
            self.manager.metrics.inc("service.prelint_rejected")
            raise HttpError(
                422,
                str(rejected),
                extra={"diagnostics": rejected.outcome.diagnostics},
            ) from None
        return self._json(request, 201, record.summary())

    def _result(self, request: Request, key: str) -> bytes:
        payload = None
        cache = self.engine.cache
        if isinstance(cache, ResultCache):
            payload = cache.peek(key)
        if payload is None:
            payload = self.manager.outcome_for_key(key)
        if payload is None:
            raise HttpError(404, f"no result for fingerprint {key}")
        etag = f'"{key}"'
        condition = request.headers.get("if-none-match")
        if condition is not None:
            tags = [tag.strip() for tag in condition.split(",")]
            if "*" in tags or etag in tags:
                self.manager.metrics.inc("service.results.not_modified")
                return http11.render_response(
                    304,
                    headers={"etag": etag},
                    keep_alive=request.keep_alive,
                )
        self.manager.metrics.inc("service.results.served")
        return self._json(
            request,
            200,
            payload,
            headers={"etag": etag, "cache-control": "max-age=31536000, immutable"},
        )

    async def _stream_events(
        self, record: JobRecord, writer: asyncio.StreamWriter
    ) -> None:
        queue = self.manager.subscribe(record)
        writer.write(http11.sse_preamble())
        try:
            while True:
                chunk = await queue.next_chunk(
                    heartbeat=self.sse_keepalive
                )
                if chunk is None:
                    return
                writer.write(chunk)
                await writer.drain()
        except (ConnectionError, OSError, asyncio.CancelledError):
            pass  # client disconnected; drop the subscription
        finally:
            self.manager.unsubscribe(record, queue)


class ServiceThread:
    """A running service hosted on a daemon thread with its own loop.

    The synchronous face of the service for tests, benchmarks and the
    docs walkthrough: construct, read ``base_url``, make plain
    ``http.client`` requests, then ``stop()`` — which drains the
    server, closes subscribers and reaps the worker pool before
    returning.
    """

    def __init__(
        self,
        service: SynthesisService | None = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        **service_kwargs,
    ):
        self.service = service or SynthesisService(**service_kwargs)
        self._host = host
        self._port = port
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None
        self._thread = threading.Thread(
            target=self._run, name="ezrt-service", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=30.0)
        if self._startup_error is not None:
            raise self._startup_error

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        try:
            await self.service.start(self._host, self._port)
        except BaseException as err:  # noqa: BLE001 — re-raised in ctor
            self._startup_error = err
            self._ready.set()
            return
        self._ready.set()
        await self._stop_event.wait()
        await self.service.aclose()

    @property
    def base_url(self) -> str:
        return self.service.base_url

    @property
    def port(self) -> int:
        assert self.service.port is not None
        return self.service.port

    def stop(self, timeout: float = 30.0) -> None:
        """Shut down and join; idempotent."""
        if self._loop is not None and self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._stop_event.set)
        self._thread.join(timeout=timeout)


def run_in_thread(
    engine: BatchEngine | None = None,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    **service_kwargs,
) -> ServiceThread:
    """Start a service on a background thread; returns the handle."""
    service = SynthesisService(engine, **service_kwargs)
    return ServiceThread(service, host=host, port=port)


async def serve(
    host: str,
    port: int,
    engine: BatchEngine | None = None,
    *,
    audit_path: str | None = None,
    ready_line: bool = True,
) -> None:
    """Run a service until cancelled (the ``ezrt serve`` entry point)."""
    service = SynthesisService(engine, audit_path=audit_path)
    await service.start(host, port)
    if ready_line:
        # parse-friendly readiness marker for process supervisors (the
        # CI smoke job greps for it before aiming traffic)
        print(f"ezrt-service listening on {service.base_url}", flush=True)
    try:
        await service.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        await service.aclose()
