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
