"""Build and load machinery shared by the optional compiled cores.

Both native cores (:mod:`repro.tpn._kernelc` for the packed kernel,
:mod:`repro.tpn._dbmc` for the packed DBM) are small C translation
units embedded as strings and compiled on demand through cffi's API
mode.  Each core module builds one :class:`NativeCore` and re-exports
its :meth:`~NativeCore.build`, :meth:`~NativeCore.native_module`,
:meth:`~NativeCore.load` and :meth:`~NativeCore.available`; this module
holds the one copy of the logic behind them:

* ``EZRT_PURE=1`` in the environment force-disables every compiled
  core (checked per :meth:`~NativeCore.load` call, so tests can flip
  it without reloading the process);
* a missing cffi, a missing C compiler, an unwritable cache directory
  or any other build/import failure is swallowed after recording the
  exception on :attr:`NativeCore.load_error` (each core module exposes
  it as its ``LOAD_ERROR``).

Both cores also carry a resumable depth-first search driver
(``kn_search_*`` and ``dc_search_*``); :class:`NativeSearch` is the one
Python handle on either, the shape
:meth:`repro.scheduler.core.SearchCore._drive` runs.

Build caching: the shared object lands in ``<build_dir>/<digest>-pyXY/``
beside this package (or under ``$EZRT_KERNEL_CACHE``, which takes
precedence, or under the system temp directory when the package is not
writable), keyed by a digest of the C source, so editing the source
never picks up a stale binary and concurrent builders (pytest workers,
portfolio processes) can only race to produce identical files — the
final ``os.replace`` is atomic.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import shutil
import sys
import tempfile

from repro.errors import SchedulingError

#: Environment variable that force-disables the compiled cores (one
#: switch, pure everything).
PURE_ENV = "EZRT_PURE"

#: Environment variable naming a preferred build cache root.
CACHE_ENV = "EZRT_KERNEL_CACHE"


class NativeCore:
    """One lazily built, per-process cached cffi extension module."""

    def __init__(
        self,
        *,
        label: str,
        module_name: str,
        build_dir: str,
        temp_prefix: str,
        cdef: str,
        source: str,
    ):
        #: human name used in build errors (``"kernel"``, ``"DBM"``)
        self.label = label
        self.module_name = module_name
        self.build_dir = build_dir
        self.temp_prefix = temp_prefix
        self.cdef = cdef
        self.source = source
        #: last build/import failure, for diagnostics
        self.load_error: Exception | None = None
        self._loaded: tuple[object | None] | None = None

    def _digest(self) -> str:
        payload = (self.cdef + self.source).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()[:12]

    def _cache_dirs(self) -> list[str]:
        """Candidate build directories, most preferred first."""
        here = os.path.dirname(os.path.abspath(__file__))
        tag = (
            f"{self._digest()}-py{sys.version_info[0]}"
            f"{sys.version_info[1]}"
        )
        dirs = [os.path.join(here, self.build_dir, tag)]
        override = os.environ.get(CACHE_ENV)
        if override:
            dirs.insert(0, os.path.join(override, tag))
        uid = os.getuid() if hasattr(os, "getuid") else 0
        dirs.append(
            os.path.join(
                tempfile.gettempdir(), f"{self.temp_prefix}-{uid}", tag
            )
        )
        return dirs

    def _find_built(self) -> str | None:
        for cache in self._cache_dirs():
            if not os.path.isdir(cache):
                continue
            for entry in sorted(os.listdir(cache)):
                if entry.startswith(self.module_name) and entry.endswith(
                    ".so"
                ):
                    return os.path.join(cache, entry)
        return None

    def build(self, verbose: bool = False) -> str:
        """Compile the core into the first writable cache dir; returns
        the shared-object path.  Raises on any failure (callers that
        want the graceful path go through :meth:`load`)."""
        existing = self._find_built()
        if existing:
            return existing
        from cffi import FFI

        last_error: Exception | None = None
        for cache in self._cache_dirs():
            try:
                os.makedirs(cache, exist_ok=True)
                ffi = FFI()
                ffi.cdef(self.cdef)
                ffi.set_source(self.module_name, self.source)
                with tempfile.TemporaryDirectory(
                    prefix=f"{self.temp_prefix}-build-"
                ) as tmp:
                    so_path = ffi.compile(tmpdir=tmp, verbose=verbose)
                    target = os.path.join(
                        cache, os.path.basename(so_path)
                    )
                    # atomic within a filesystem; fall back to a plain
                    # copy when tempdir and cache live on different
                    # mounts
                    try:
                        os.replace(so_path, target)
                    except OSError:
                        shutil.copy2(so_path, target)
                return target
            except Exception as exc:  # try the next candidate dir
                last_error = exc
        raise RuntimeError(
            f"could not build the {self.label} native core: {last_error}"
        ) from last_error

    def native_module(self):
        """The compiled extension module (``.ffi`` / ``.lib``), or
        ``None``.

        Build failures are recorded on :attr:`load_error` and never
        raised; the result is cached per process.  The ``EZRT_PURE``
        gate is *not* applied here — :meth:`load` checks it per call.
        """
        if self._loaded is not None:
            return self._loaded[0]
        try:
            path = self._find_built() or self.build()
            spec = importlib.util.spec_from_file_location(
                self.module_name, path
            )
            if spec is None or spec.loader is None:
                raise ImportError(f"cannot load {path}")
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            self._loaded = (module,)
        except Exception as exc:
            self.load_error = exc
            self._loaded = (None,)
        return self._loaded[0]

    def load(self):
        """The compiled module, or ``None`` (pure-Python fallback).

        ``None`` when ``EZRT_PURE=1`` is set or the build/import failed.
        """
        if os.environ.get(PURE_ENV) == "1":
            return None
        return self.native_module()

    def available(self) -> bool:
        """Whether the compiled core is usable right now."""
        return self.load() is not None


#: :meth:`NativeSearch.run` statuses (the C drivers' ``KN_S_*`` and
#: ``DC_S_*``, which share their values).
SEARCH_DONE = 0
SEARCH_POLL = 1
SEARCH_REORDER = 2
SEARCH_FEASIBLE = 3
SEARCH_BUDGET = 4
SEARCH_TOKENS = 5
SEARCH_CLOCK = 6
SEARCH_NOMEM = 7

# option bits of both drivers' ``*_search_new`` (``KN_O_*``/``DC_O_*``;
# the kernel adds its delay-mode bits 8 and 16)
_OPT_INTERMEDIATE = 1
_OPT_STRICT = 2
_OPT_PARTIAL_ORDER = 4
_OPT_REORDER = 32
_OPT_TIMED = 64
_OPT_LATEST = 128
_OPT_LAXITY = 256

#: Search policies the drivers order natively; any other non-default
#: policy stops a driver at :data:`SEARCH_REORDER` for Python.
_NATIVE_POLICIES = {
    "earliest": 0,
    "latest": _OPT_LATEST,
    "min-laxity": _OPT_LAXITY,
}


def search_options(
    intermediate: bool,
    strict: bool,
    partial_order: bool,
    policy: str,
    timed: bool,
) -> int:
    """The option word of a driver search under ``policy``."""
    return (
        (_OPT_INTERMEDIATE if intermediate else 0)
        | (_OPT_STRICT if strict else 0)
        | (_OPT_PARTIAL_ORDER if partial_order else 0)
        | _NATIVE_POLICIES.get(policy, _OPT_REORDER)
        | (_OPT_TIMED if timed else 0)
    )


class NativeSearch:
    """One resumable depth-first search in a compiled core.

    A ``<prefix>search_*`` driver runs
    :class:`repro.scheduler.core.SearchCore`'s loop over a state arena
    and visited table it owns; :meth:`run` advances it to its next stop
    and returns the status:

    * :data:`SEARCH_POLL` — the 1024-expansion poll (resume to go on);
    * :data:`SEARCH_REORDER` — a new frame waits for :meth:`reorder`
      (only under a policy the driver cannot order itself: ``random``);
    * :data:`SEARCH_FEASIBLE` — the final marking is reached
      (:meth:`path`);
    * :data:`SEARCH_BUDGET` — ``max_states`` states are tagged;
    * :data:`SEARCH_DONE` — the space is exhausted.

    Packed-cap overflows go to ``fault(status, transition)``, which
    raises the engine's :class:`~repro.errors.SchedulingError`.
    ``counters`` is the live ``<prefix>counters`` struct (SearchCore's
    counters plus span timings and the visited-state bytes).  The
    driver's memory is released by :meth:`close`, or at collection.
    """

    __slots__ = (
        "counters",
        "_label",
        "_fault",
        "_core",
        "_ffi",
        "_run",
        "_pending",
        "_path",
        "_ptr",
    )

    def __init__(self, core, prefix: str, label: str, args, fault):
        """Start a search with ``<prefix>search_new(core.net_ptr,
        *args, counters)``; ``core`` is the engine's per-net handle
        (``ffi``, ``lib``, ``net_ptr``)."""
        ffi = core.ffi
        lib = core.lib
        self.counters = ffi.new(f"{prefix}counters *")
        raw = getattr(lib, f"{prefix}search_new")(
            core.net_ptr, *args, self.counters
        )
        if raw == ffi.NULL:
            raise MemoryError(f"{prefix}search_new failed")
        self._label = label
        self._fault = fault
        self._core = core  # the C search reads the core's net
        self._ffi = ffi
        self._run = getattr(lib, f"{prefix}search_run")
        self._pending = getattr(lib, f"{prefix}search_pending")
        self._path = getattr(lib, f"{prefix}search_path")
        self._ptr = ffi.gc(raw, getattr(lib, f"{prefix}search_free"))

    def run(self) -> int:
        status = self._run(self._ptr)
        if status >= SEARCH_TOKENS:
            if status == SEARCH_NOMEM:
                raise MemoryError(
                    f"{self._label} search driver: out of memory"
                )
            self._fault(status, self.counters.fault)
        return status

    def reorder(self, policy) -> None:
        """Order the pending frame's candidates with a reorder policy
        (``policy(candidates, state) -> candidates``, a permutation).
        The policies that read the state run natively, so ``state``
        is ``None`` here."""
        n = self.counters.pending
        pairs = self._pending(self._ptr)
        flat = self._ffi.unpack(pairs, 2 * n)
        ordered = policy(list(zip(flat[0::2], flat[1::2])), None)
        if len(ordered) != n:
            raise SchedulingError(
                "a reorder policy must permute the candidate list"
            )
        pairs[0 : 2 * n] = [v for pair in ordered for v in pair]

    def path(self) -> list[tuple[int, int, int]]:
        """The accepting path as ``(transition, delay, absolute time)``
        triples (after :data:`SEARCH_FEASIBLE`)."""
        n = self.counters.pending
        out = self._ffi.new("int64_t[]", 3 * n)
        self._path(self._ptr, out)
        flat = self._ffi.unpack(out, 3 * n)
        return list(zip(flat[0::3], flat[1::3], flat[2::3]))

    def close(self) -> None:
        """Free the arena, table and stack now (idempotent)."""
        if self._ptr is not None:
            self._ffi.release(self._ptr)
            self._ptr = None
