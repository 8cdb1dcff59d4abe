"""Synthesis-as-a-service: an asyncio HTTP front end over the batch
engine.

Pure stdlib (``asyncio`` streams — no aiohttp, no uvicorn), following
the repository's no-new-required-dependencies rule.  The package
splits along protocol lines:

* :mod:`repro.service.http11` — minimal HTTP/1.1 request/response
  plumbing with hard size limits;
* :mod:`repro.service.sse` — the Server-Sent-Events codec and the
  bounded drop-and-flag per-subscriber queue;
* :mod:`repro.service.jobs` — job records, SSE fan-out, service
  metrics and the deterministic JSONL audit log;
* :mod:`repro.service.app` — :class:`SynthesisService` (routes and
  lifecycle) plus :class:`ServiceThread` / :func:`run_in_thread` for
  synchronous callers.

Quick start::

    from repro.service import run_in_thread

    handle = run_in_thread()          # ephemeral port, default engine
    ...                               # http.client against handle.base_url
    handle.stop()                     # drains, reaps the worker pool

or, from the shell: ``ezrt serve --port 8787 --jobs 4``.

See ``docs/service.md`` for the endpoint contract, the SSE event
schema and dedup semantics.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.service.app import (
        ServiceThread,
        SynthesisService,
        run_in_thread,
        serve,
    )
    from repro.service.http11 import HttpError, Request
    from repro.service.jobs import AuditLog, JobManager, JobRecord
    from repro.service.sse import (
        EventQueue,
        ServerEvent,
        decode_stream,
        encode_comment,
        encode_event,
    )
else:
    __getattr__, __dir__ = lazy_exports(
        __name__,
        {
            "repro.service.app": (
                "ServiceThread SynthesisService run_in_thread serve"
            ),
            "repro.service.http11": "HttpError Request",
            "repro.service.jobs": "AuditLog JobManager JobRecord",
            "repro.service.sse": (
                "EventQueue ServerEvent decode_stream encode_comment "
                "encode_event"
            ),
        },
    )

__all__ = [
    "AuditLog",
    "EventQueue",
    "HttpError",
    "JobManager",
    "JobRecord",
    "Request",
    "ServerEvent",
    "ServiceThread",
    "SynthesisService",
    "decode_stream",
    "encode_comment",
    "encode_event",
    "run_in_thread",
    "serve",
]
