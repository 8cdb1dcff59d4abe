"""Packed DBM state-class engine — dense time at kernel speed.

**Overview for new contributors.**  The dense-time engine of
:mod:`repro.tpn.stateclass` represents a Berthomieu–Diaz state class
as nested tuples: every successor allocates a tuple-of-tuples bound
matrix, every visited-set probe hashes it element by element, and the
O(n²) incremental closure repair walks boxed ints and floats.  This
module is the packed counterpart — the same Definition 3.1 dense-time
semantics over flat buffers, the substrate the discrete kernel engine
(:mod:`repro.tpn.kernel`) proved out:

* the marking is an ``array('H')`` with the same 16-bit token cap and
  loud-overflow contract as the kernel engine;
* the bound matrix is a flat row-major ``array('i')`` of 32-bit
  integers with :data:`DINF` (``2³¹ − 1``) as the unbounded sentinel —
  every finite bound is an exact integer, and the engine rejects nets
  whose static intervals exceed :data:`MAX_BOUND` up front, which
  keeps every canonical entry within ``±MAX_BOUND`` and every closure
  sum clear of the sentinel (lint rule ``EZT204`` diagnoses this
  before a search starts);
* the enabled list is an ``array('i')`` of transition indices in DBM
  variable order (variable 0 is the zero reference);
* the 64-bit state key is the XOR of two words: the kernel's additive
  key of the marking (``sum of coef[p] * m[p]`` mod 2**64 over the
  net's coefficient table, see :mod:`repro.tpn.kernel`), maintained
  *incrementally* across firings (one multiply-add per changed place),
  and a
  four-lane word-stream hash over the bound matrix's bytes, taken once
  per successor right after the matrix is written; since the enabled
  list is a function of the marking it needs no words of its own.

The firing rule runs in the DBM part (:mod:`repro.tpn._dbmc`) of the
native core (:mod:`repro.tpn._native`, one cffi extension for both
packed engines): one foreign call per successor performs the
column-scan firability test, the marking update, the enabled-list
merge, the O(n²) incremental closure repair fused with the
persistence projection (each persistent entry is written once,
already closed) and the key; a second entry point enumerates candidates
(firability scans, priority filter, dense partial-order reduction,
``(lower, priority, index)`` sort) in one call, and a third keys a
class from scratch.  The engine needs that core.  When the core is off
(``EZRT_PURE=1``, no cffi, a failed build) or cannot pack a net (no
places or no transitions), :func:`repro.scheduler.core.make_adapter`
runs ``engine="stateclass"`` on the tuple
:class:`repro.tpn.stateclass.StateClassEngine` instead, the
executable spec (the same O(n²) incremental closure repair per
firing); ``tests/test_dbm.py`` walks the two in
lockstep, class by class, under both reset policies.  The token,
:data:`MAX_BOUND` and :data:`MAX_VARS` caps are limits of the packed
representation only: the spec has none, and a search that meets one
(:class:`~repro.errors.PackedCapError`) restarts on it.

Searches do not step through this module class by class:
:meth:`DbmEngine.open_search` roots the native core's resumable
depth-first search driver on the DBM engine's operations table
(``dc_search_new``), which
:meth:`repro.scheduler.dfs.PreRuntimeScheduler._drive` runs to a verdict
(``tests/test_dbm_driver.py`` locks it to the search loop over the
tuple engine).
"""

from __future__ import annotations

from array import array

from repro.errors import PackedCapError, SchedulingError
from repro.tpn._native import (
    SEED_MASK,
    NativeNet,
    NativeSearch,
    core_for,
    search_options,
)
from repro.tpn.interval import INF, MAX_BOUND
from repro.tpn.kernel import MAX_TOKENS
from repro.tpn.net import CompiledNet
from repro.tpn.state import check_reset_policy
from repro.tpn.stateclass import (
    Bound,
    RealizedSchedule,
    StateClass,
    StateClassEngine,
    realize_firing_sequence,
    realized_schedule,
)

#: Unbounded-entry sentinel in the packed ``array('i')`` bound matrix:
#: ``INT32_MAX``, above every finite canonical bound (see
#: :data:`MAX_BOUND`), so ``min``/comparison logic needs no special
#: cases.
DINF = (1 << 31) - 1

#: DBM size cap (variables per class, including the zero reference).
#: A class matrix, and each successor buffer a packed search
#: allocates for the largest class up front, holds ``(T+1)²`` int32
#: bounds: the cap holds that at 16 MiB and keeps the core's int32 cell
#: indices ``i·size + j`` below 2²².
MAX_VARS = 1 << 11


class PackedClass:
    """A Berthomieu–Diaz state class as packed flat buffers.

    Identity (equality) lives in the marking and bound-matrix buffers
    — the enabled list is a function of the marking, so it carries no
    identity of its own and two equal classes always agree on it.
    ``__hash__`` returns the precomputed 64-bit key, so set
    membership never walks the buffers on the non-colliding path.
    ``marking`` is indexable, so the compiled marking predicates
    (:meth:`CompiledNet.is_final`,
    :meth:`CompiledNet.has_missed_deadline`) work unchanged.
    """

    __slots__ = (
        "marking", "enabled", "dbm", "size", "_mhash", "_hash", "_cv",
    )

    def __init__(
        self,
        marking: array,
        enabled: array,
        dbm: array,
        size: int,
        mhash: int,
        key: int,
    ):
        self.marking = marking
        self.enabled = enabled
        self.dbm = dbm
        self.size = size
        self._mhash = mhash
        self._hash = key
        # lazily-built cffi views over the three immutable buffers
        # (set on the first core call)
        self._cv = None

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PackedClass):
            return NotImplemented
        return self.marking == other.marking and self.dbm == other.dbm

    def __repr__(self) -> str:
        return (
            f"PackedClass(m={self.marking.tolist()}, "
            f"enabled={self.enabled.tolist()})"
        )

    @property
    def hash64(self) -> int:
        """The 64-bit class key (marking hash XOR bound-matrix hash),
        as a public value."""
        return self._hash

    def bounds_of(self, transition: int) -> tuple[Bound, Bound]:
        """Earliest/latest relative firing time of an enabled transition."""
        try:
            var = self.enabled.index(transition) + 1
        except ValueError:
            raise SchedulingError(
                f"transition {transition} is not enabled in this class"
            ) from None
        lower = -self.dbm[var]
        upper = self.dbm[var * self.size]
        return (lower, INF if upper >= DINF else upper)

    def unpack(self) -> StateClass:
        """Convert to the tuple-based reference representation."""
        size = self.size
        dbm = self.dbm
        rows = []
        for i in range(size):
            row = dbm[i * size:(i + 1) * size]
            rows.append(
                tuple(INF if b >= DINF else b for b in row)
            )
        return StateClass(
            tuple(self.marking), tuple(self.enabled), tuple(rows)
        )


class _DbmNativeCore(NativeNet):
    """Per-net handle on the compiled core: the packed net plus the DBM
    engine's preallocated output buffers."""

    __slots__ = (
        "_out_enb",
        "_out_dbm",
        "_out",
        "_red",
        "_hash_io",
        "_null_i32",
    )

    def __init__(self, module, net: CompiledNet):
        super().__init__(module, net)
        ffi = self.ffi
        max_size = net.num_transitions + 1
        self._out_enb = ffi.new(
            "int32_t[]", max(1, net.num_transitions)
        )
        self._out_dbm = ffi.new("int32_t[]", max_size * max_size)
        self._out = ffi.new(
            "int32_t[]", 2 * max(1, net.num_transitions)
        )
        self._red = ffi.new("int32_t *")
        self._hash_io = ffi.new("uint64_t[2]")
        # stand-in pointer for zero-length enabled buffers (cffi
        # cannot take a C view of an empty array)
        self._null_i32 = ffi.new("int32_t[1]")

    def keys(self, marking: array, dbm: array, size: int):
        """``dc_hash``: the marking hash and the key of a class, from
        scratch."""
        ffi = self.ffi
        hio = self._hash_io
        self.lib.dc_hash(
            self.net_ptr,
            ffi.from_buffer("uint16_t[]", marking),
            size,
            ffi.from_buffer("int32_t[]", dbm),
            hio,
        )
        return hio[0], hio[0] ^ hio[1]

    def _enb_ptr(self, enabled: array):
        if not enabled:
            return self._null_i32
        return self.ffi.from_buffer("int32_t[]", enabled)

    def fire(
        self, cls: PackedClass, transition: int, intermediate: int
    ):
        """``-1`` when not firable, ``-2`` on token overflow, else
        the packed successor class."""
        ffi = self.ffi
        cv = cls._cv
        if cv is None:
            # classes are fired/enumerated several times each; the
            # immutable input views are built once and kept on the class
            cv = (
                ffi.from_buffer("uint16_t[]", cls.marking),
                self._enb_ptr(cls.enabled),
                ffi.from_buffer("int32_t[]", cls.dbm),
            )
            cls._cv = cv
        new_mark = array("H", cls.marking)
        hio = self._hash_io
        hio[0] = cls._mhash
        k = self.lib.dc_fire(
            self.net_ptr,
            cv[0],
            cv[1],
            len(cls.enabled),
            cv[2],
            transition,
            intermediate,
            ffi.from_buffer("uint16_t[]", new_mark),
            self._out_enb,
            self._out_dbm,
            hio,
        )
        if k < 0:
            return k
        new_size = k + 1
        enabled = array("i")
        if k:
            enabled.frombytes(ffi.buffer(self._out_enb, 4 * k))
        dbm = array("i")
        dbm.frombytes(
            ffi.buffer(self._out_dbm, 4 * new_size * new_size)
        )
        mhash = hio[0]
        return PackedClass(
            new_mark, enabled, dbm, new_size, mhash, mhash ^ hio[1]
        )

    def candidates(
        self, cls: PackedClass, strict: int, partial_order: int
    ) -> tuple[list[tuple[int, int]], bool]:
        ffi = self.ffi
        cv = cls._cv
        if cv is None:
            cv = (
                ffi.from_buffer("uint16_t[]", cls.marking),
                self._enb_ptr(cls.enabled),
                ffi.from_buffer("int32_t[]", cls.dbm),
            )
            cls._cv = cv
        out = self._out
        n = self.lib.dc_candidates(
            self.net_ptr,
            cv[1],
            len(cls.enabled),
            cv[2],
            strict,
            partial_order,
            out,
            self._red,
        )
        return (
            [(out[2 * i], out[2 * i + 1]) for i in range(n)],
            bool(self._red[0]),
        )

    def realize(
        self, m0, sequence: list[int], intermediate: int
    ) -> tuple[list[int], list[Bound]] | None:
        """``dc_realize``: the earliest and latest firing dates of
        ``sequence`` from ``m0``, or ``None`` on any non-zero status
        (the caller then runs the spec, which raises its error)."""
        try:
            mark = array("H", m0)
            seq = array("i", sequence)
        except OverflowError:
            return None
        ffi = self.ffi
        n = len(seq)
        earliest = ffi.new("int64_t[]", n + 1)
        latest = ffi.new("int64_t[]", n + 1)
        status = self.lib.dc_realize(
            self.net_ptr,
            ffi.from_buffer("uint16_t[]", mark),
            ffi.from_buffer("int32_t[]", seq) if n else ffi.NULL,
            n,
            intermediate,
            earliest,
            latest,
        )
        if status:
            return None
        return ffi.unpack(earliest, n + 1), [
            INF if b < 0 else b for b in ffi.unpack(latest, n + 1)
        ]


class DbmEngine:
    """Packed state-class construction over a compiled net.

    Same dense-time semantics as the tuple-based
    :class:`~repro.tpn.stateclass.StateClassEngine` (both reset
    policies), but classes are flat buffers with precomputed hash
    keys, the whole firing rule and the whole candidate pipeline are
    one foreign call each, and :meth:`open_search` runs a whole search
    in C.  ``core`` is the per-net handle on the compiled core;
    construction raises :class:`SchedulingError` when the core cannot
    run the net (see :func:`repro.tpn._native.core_for`).
    """

    __slots__ = ("net", "reset_policy", "core", "_intermediate")

    def __init__(self, net: CompiledNet, reset_policy: str = "paper"):
        check_reset_policy(reset_policy)
        if net.num_transitions + 1 > MAX_VARS:
            raise PackedCapError(
                "packed DBM engine: net has more than "
                f"{MAX_VARS - 1} transitions"
            )
        for t in range(net.num_transitions):
            lft = net.lft[t]
            if net.eft[t] > MAX_BOUND or (
                lft != INF and lft > MAX_BOUND
            ):
                raise PackedCapError(
                    "packed DBM engine: static interval of "
                    f"{net.transition_names[t]!r} exceeds the bound "
                    f"cap ({MAX_BOUND}); see lint rule EZT204"
                )
        module = core_for(net)
        if module is None:
            raise SchedulingError(
                "packed DBM engine: the native core cannot run this "
                "net (it is off or unbuilt, or the net has no places "
                "or no transitions)"
            )
        self.net = net
        self.reset_policy = reset_policy
        self._intermediate = reset_policy == "intermediate"
        self.core = _DbmNativeCore(module, net)

    # ------------------------------------------------------------------
    # Class construction
    # ------------------------------------------------------------------
    def initial_class(self) -> PackedClass:
        """The root: the spec's
        :meth:`StateClassEngine.initial_class
        <repro.tpn.stateclass.StateClassEngine.initial_class>` (its
        Floyd–Warshall closure, one O(n³) pass per search), packed —
        so the root is byte-identical to the specification engine's."""
        if any(v > MAX_TOKENS for v in self.net.m0):
            raise PackedCapError(
                "packed DBM engine: initial marking exceeds the "
                f"packed token cap ({MAX_TOKENS} per place)"
            )
        root = StateClassEngine(self.net, self.reset_policy).initial_class()
        marking = array("H", root.marking)
        size = len(root.enabled) + 1
        flat = array(
            "i",
            (
                DINF if b == INF else int(b)
                for row in root.dbm
                for b in row
            ),
        )
        return PackedClass(
            marking,
            array("i", root.enabled),
            flat,
            size,
            *self.core.keys(marking, flat, size),
        )

    # ------------------------------------------------------------------
    # Firing rule (dense-time Definition 3.1, packed)
    # ------------------------------------------------------------------
    def try_fire(
        self, cls: PackedClass, transition: int
    ) -> PackedClass | None:
        """Successor class, or ``None`` when the firing is infeasible.

        Same incremental closure repair and already-closed projection
        as the tuple engine's
        :meth:`~repro.tpn.stateclass.StateClassEngine.try_fire`, over
        the flat buffers, in one foreign call.
        """
        result = self.core.fire(
            cls, transition, 1 if self._intermediate else 0
        )
        if result == -1:
            return None
        if result == -2:
            self._overflow(transition)
        return result

    def open_search(
        self,
        root: PackedClass,
        *,
        strict: bool,
        partial_order: bool,
        policy: str,
        seed: int,
        max_states: int,
        timed: bool,
    ) -> NativeSearch:
        """A native driver search from ``root`` under search
        ``policy`` (``seed`` picks the ``random`` order's stream).
        ``root`` counts as visited; the caller has checked its marking
        predicates."""
        core = self.core
        ffi = core.ffi
        return NativeSearch(
            core,
            core.lib.dc_search_new,
            (
                ffi.from_buffer("uint16_t[]", root.marking),
                core._enb_ptr(root.enabled),
                len(root.enabled),
                ffi.from_buffer("int32_t[]", root.dbm),
                root._mhash,
                root._hash,
                search_options(
                    self._intermediate, strict, partial_order, policy,
                    timed,
                ),
                seed & SEED_MASK,
                max_states,
            ),
            "DBM",
            self._search_fault,
        )

    def realize(self, sequence: list[int]) -> RealizedSchedule:
        """Concretise a class path to integer time.

        :func:`~repro.tpn.stateclass.realize_firing_sequence` under
        this engine's reset policy, run as one ``dc_realize`` call.  On
        any non-zero status the spec runs instead and raises its own
        :class:`SchedulingError`.
        """
        dates = self.core.realize(
            self.net.m0, sequence, 1 if self._intermediate else 0
        )
        if dates is not None:
            return realized_schedule(self.net, sequence, *dates)
        return realize_firing_sequence(
            self.net, sequence, self.reset_policy
        )

    def _search_fault(self, _status: int, transition: int) -> None:
        self._overflow(transition)

    def _overflow(self, transition: int) -> None:
        raise PackedCapError(
            "packed DBM engine: firing "
            f"{self.net.transition_names[transition]!r} overflows "
            f"the packed token cap ({MAX_TOKENS} per place)"
        )

    # ------------------------------------------------------------------
    # Candidate enumeration
    # ------------------------------------------------------------------
    def candidates(
        self, cls: PackedClass, strict: bool, partial_order: bool
    ) -> tuple[list[tuple[int, int]], bool]:
        """Ordered ``(transition, dense lower bound)`` pairs plus the
        partial-order reduction flag.

        The firability column scans, the miss filter, the strict
        priority filter, the dense forced-immediate reduction (see
        :class:`repro.scheduler.core.StateClassSpecAdapter`) and the
        ``(lower, priority, index)`` ordering all run inside one core
        call.
        """
        return self.core.candidates(
            cls, 1 if strict else 0, 1 if partial_order else 0
        )
