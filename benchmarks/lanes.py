"""Per-lane ``BENCH_*.json`` artifacts for the native-core benches.

CI runs ``bench_kernel`` and ``bench_dbm`` twice into the same file:
once with the compiled cores and once with ``EZRT_PURE=1``.  Each run
writes its results under ``lanes.native`` or ``lanes.pure`` and keeps
the other lane's entry, so the uploaded artifact shows both:

    {"bench": "dbm", "lanes": {"native": {...}, "pure": {...}}}

A file in any other shape (an older single-lane artifact, another
bench's) is replaced.
"""

from __future__ import annotations

import json
import os


def lane_name(native: bool) -> str:
    return "native" if native else "pure"


def read_lanes(path: str, bench: str) -> dict:
    """The artifact at ``path``, or a fresh one for ``bench``."""
    path = os.path.abspath(path)
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        if payload.get("bench") == bench and isinstance(
            payload.get("lanes"), dict
        ):
            return payload
    return {"bench": bench, "lanes": {}}


def write_lane(path: str, bench: str, lane: str, entry: dict) -> None:
    """Store ``entry`` as ``lanes[lane]``, keeping the other lane."""
    payload = read_lanes(path, bench)
    payload["lanes"][lane] = entry
    with open(os.path.abspath(path), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
