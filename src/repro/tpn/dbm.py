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
* the bound matrix is a flat row-major ``array('q')`` of 64-bit
  integers with :data:`DINF` (``1 << 62``) as the unbounded sentinel —
  every finite bound is an exact integer, and the engine rejects nets
  whose static intervals exceed :data:`MAX_BOUND` up front so closure
  sums can never collide with the sentinel (lint rule ``EZT204``
  diagnoses this before a search starts);
* the enabled list is an ``array('i')`` of transition indices in DBM
  variable order (variable 0 is the zero reference);
* the 64-bit state key is a functional Zobrist hash: the marking part
  is maintained *incrementally* across firings (XOR out the old word,
  XOR in the new one), the matrix part is fused into successor
  construction — no second pass, and since the enabled list is a
  function of the marking it needs no words of its own.

The firing rule runs in one of two cores over the *same* buffer
layout:

* the DBM part (:mod:`repro.tpn._dbmc`) of the optional native core
  (:mod:`repro.tpn._native`, one cffi extension for both packed
  engines, built lazily with graceful degradation) — one foreign call
  per successor performs the column-scan firability test, the O(n²)
  incremental closure repair, the marking update, the enabledness
  rescan, the persistence projection and the fused hash; a second
  entry point enumerates candidates (firability scans, priority
  filter, dense partial-order reduction, ``(lower, priority, index)``
  sort) in one call;
* the pure-Python core in this file — line-for-line the same
  semantics, used when the compiled core is unavailable or
  ``EZRT_PURE=1`` force-disables it.

Both cores produce bit-identical classes *and hashes*, which the
differential suite in ``tests/test_dbm.py`` asserts firing-by-firing
against the tuple-based Floyd–Warshall specification of
:class:`repro.tpn.stateclass.StateClassEngine` across both reset
policies.

With the C core live, searches do not step through this module class
by class: :meth:`DbmEngine.open_search` roots the native core's
resumable depth-first search driver on the DBM engine's operations
table (``dc_search_new``), which
:meth:`repro.scheduler.core.SearchCore._drive` runs to a verdict
(``tests/test_dbm_driver.py`` locks it to the search loop over the
pure core).
"""

from __future__ import annotations

from array import array
from itertools import chain
from operator import itemgetter

from repro.errors import SchedulingError
from repro.tpn import _dbmc
from repro.tpn._native import NativeNet, NativeSearch, search_options
from repro.tpn.interval import INF
from repro.tpn.kernel import MAX_TOKENS, _MASK64, _mix
from repro.tpn.net import CompiledNet
from repro.tpn.state import RESET_POLICIES
from repro.tpn.stateclass import (
    Bound,
    RealizedSchedule,
    StateClass,
    _canonical,
    realize_firing_sequence,
    realized_schedule,
)

#: Unbounded-entry sentinel in the packed ``array('q')`` bound matrix.
#: Far above any reachable finite bound (see :data:`MAX_BOUND`), so
#: ``min``/comparison logic needs no special cases.
DINF = 1 << 62

#: Largest static interval bound the packed representation accepts.
#: Closure entries are shortest-path distances over at most
#: :data:`MAX_VARS` hops, so |entry| ≤ MAX_VARS · MAX_BOUND < 2⁴¹ —
#: comfortably below :data:`DINF`; candidate lower bounds also fit the
#: C core's ``int32`` output pairs.  The engine raises loudly at
#: construction when a net exceeds the cap (lint rule ``EZT204``
#: reports the same condition pre-search, at spec level).
MAX_BOUND = 1 << 30

#: DBM size cap (variables per class, including the zero reference):
#: the Zobrist position key packs ``(i << 11) | j``.
MAX_VARS = 1 << 11


def _zd(ij: int, b: int) -> int:
    """Zobrist word of bound-matrix cell ``ij`` holding bound ``b``.

    ``ij`` packs ``(row << 11) | column``; a double splitmix64 pass
    folds the full 64-bit bound in (bounds are signed — the masked
    value is the two's-complement image, matching the C core's
    ``(uint64_t)`` cast bit for bit).
    """
    return _mix(_mix((3 << 62) ^ ij) ^ (b & _MASK64))


#: Shared Zobrist word tables.  Every entry is a pure function of its
#: key and independent of the net, so all engine instances share one
#: set of tables and repeated searches start warm; ``DbmEngine``
#: clears the lot past :data:`_CACHE_CAP` total rows+matrices.
_ZM_CACHE: dict[int, int] = {}
_ZD_CACHE: dict[tuple[int, int], int] = {}
_ZROW_CACHE: dict[tuple, int] = {}
_DBM_MEMO: dict[tuple, int] = {}
_CACHE_CAP = 1 << 21


class PackedClass:
    """A Berthomieu–Diaz state class as packed flat buffers.

    Identity (equality) lives in the marking and bound-matrix buffers
    — the enabled list is a function of the marking, so it carries no
    identity of its own and two equal classes always agree on it.
    ``__hash__`` returns the precomputed fused Zobrist key, so set
    membership never walks the buffers on the non-colliding path.
    ``marking`` is indexable, so the compiled marking predicates
    (:meth:`CompiledNet.is_final`,
    :meth:`CompiledNet.has_missed_deadline`) work unchanged.
    """

    __slots__ = (
        "marking", "enabled", "dbm", "size", "_mhash", "_hash",
        "_cv", "_eset",
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
        # (set on first native-core call; stays None on the pure path)
        self._cv = None
        # lazily-built frozen set view of ``enabled`` (pure path);
        # shared with successors under copy-on-write
        self._eset = None

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PackedClass):
            return NotImplemented
        if self.marking != other.marking:
            return False
        mine, theirs = self.dbm, other.dbm
        if type(mine) is not type(theirs):
            # pure-path classes carry the matrix as a flat tuple,
            # native ones as an array('q') — same cells either way
            return list(mine) == list(theirs)
        return mine == theirs

    def __repr__(self) -> str:
        return (
            f"PackedClass(m={self.marking.tolist()}, "
            f"enabled={self.enabled.tolist()})"
        )

    @property
    def hash64(self) -> int:
        """The fused 64-bit Zobrist key, as a public value."""
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
        self._out_dbm = ffi.new("int64_t[]", max_size * max_size)
        self._out = ffi.new(
            "int32_t[]", 2 * max(1, net.num_transitions)
        )
        self._red = ffi.new("int32_t *")
        self._hash_io = ffi.new("uint64_t[2]")
        # stand-in pointer for zero-length enabled buffers (cffi
        # cannot take a C view of an empty array)
        self._null_i32 = ffi.new("int32_t[1]")

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
                ffi.from_buffer("int64_t[]", cls.dbm),
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
        dbm = array("q")
        dbm.frombytes(
            ffi.buffer(self._out_dbm, 8 * new_size * new_size)
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
                ffi.from_buffer("int64_t[]", cls.dbm),
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
    keys, and — when the compiled core is available — the whole
    firing rule and the whole candidate pipeline are one foreign call
    each, and :meth:`open_search` runs a whole search in C.
    ``native`` records which core is live.
    """

    __slots__ = (
        "net",
        "reset_policy",
        "native",
        "_core",
        "_intermediate",
        "_pre",
        "_delta",
        "_eft",
        "_lft_i",
        "_prio",
        "_miss",
        "_conflict_free",
        "_post_conflicts",
        "_num_transitions",
        "_zm_cache",
        "_zd_cache",
        "_zrow_cache",
        "_dbm_memo",
        "_aff",
    )

    def __init__(self, net: CompiledNet, reset_policy: str = "paper"):
        if reset_policy not in RESET_POLICIES:
            raise SchedulingError(
                f"unknown reset policy {reset_policy!r}; "
                f"expected one of {RESET_POLICIES}"
            )
        if net.num_transitions + 1 > MAX_VARS:
            raise SchedulingError(
                "packed DBM engine: net has more than "
                f"{MAX_VARS - 1} transitions"
            )
        for t in range(net.num_transitions):
            lft = net.lft[t]
            if net.eft[t] > MAX_BOUND or (
                lft != INF and lft > MAX_BOUND
            ):
                raise SchedulingError(
                    "packed DBM engine: static interval of "
                    f"{net.transition_names[t]!r} exceeds the bound "
                    f"cap ({MAX_BOUND}); see lint rule EZT204"
                )
        self.net = net
        self.reset_policy = reset_policy
        self._intermediate = reset_policy == "intermediate"
        self._pre = net.pre
        self._delta = net.delta
        self._eft = net.eft
        # integer LFT vector with DINF encoding the unbounded bound
        self._lft_i = tuple(
            DINF if b == INF else int(b) for b in net.lft
        )
        self._prio = net.priority
        self._miss = net.miss_transitions
        self._conflict_free = net.conflict_free
        self._post_conflicts = net.post_conflicts
        self._num_transitions = net.num_transitions
        # the Zobrist word tables are pure functions of their keys
        # (place/value, cell/bound, row, whole matrix — all
        # net-independent), so every engine shares the module-level
        # tables: repeated searches run with hot tables.  A crude
        # high-water cap keeps a long-lived process (the service, big
        # batches) from accumulating tables without bound.
        if len(_ZROW_CACHE) + len(_DBM_MEMO) > _CACHE_CAP:
            _ZM_CACHE.clear()
            _ZD_CACHE.clear()
            _ZROW_CACHE.clear()
            _DBM_MEMO.clear()
        self._zm_cache = _ZM_CACHE
        self._zd_cache = _ZD_CACHE
        # XOR word per whole matrix row, keyed by (row index, cells):
        # the pure fallback's hash recompute then costs one dict hit
        # per row instead of one per cell
        self._zrow_cache = _ZROW_CACHE
        # whole-matrix hash memo: canonical matrices recur heavily
        # across a class graph, so the common case is one dict hit
        self._dbm_memo = _DBM_MEMO
        # transitions whose enabledness can change when t fires: those
        # sharing an input place with t's marking delta.  The pure
        # fallback re-checks only these instead of rescanning T.
        watchers: list[list[int]] = [
            [] for _ in range(net.num_places)
        ]
        for u in range(net.num_transitions):
            for place, _weight in net.pre[u]:
                watchers[place].append(u)
        self._aff = tuple(
            tuple(
                sorted(
                    {
                        u
                        for place, d in net.delta[t]
                        if d
                        for u in watchers[place]
                    }
                )
            )
            for t in range(net.num_transitions)
        )
        self._core = None
        if net.num_transitions and net.num_places:
            module = _dbmc.load()
            if module is not None:
                self._core = _DbmNativeCore(module, net)
        self.native = self._core is not None

    # ------------------------------------------------------------------
    # Zobrist hashing (pure side; the C core mirrors these bit for bit)
    # ------------------------------------------------------------------
    def _zm(self, p: int, v: int) -> int:
        key = (p << 20) ^ v
        cache = self._zm_cache
        word = cache.get(key)
        if word is None:
            word = _mix((1 << 62) ^ key)
            cache[key] = word
        return word

    def _zd(self, ij: int, b: int) -> int:
        key = (ij, b)
        cache = self._zd_cache
        word = cache.get(key)
        if word is None:
            word = _zd(ij, b)
            cache[key] = word
        return word

    def _mark_hash(self, marking) -> int:
        zm = self._zm
        h = 0
        for p, v in enumerate(marking):
            h ^= zm(p, v)
        return h

    def _dbm_hash(self, dbm, size: int) -> int:
        # the hot recompute of the pure fallback: whole matrix rows
        # recur across classes (persistent blocks project through
        # firings), so the XOR word of a full row is memoised — the
        # common case is one C-speed dict hit per row, the miss path
        # folds the row cell by cell exactly as the C core does
        cache = self._zrow_cache
        get = cache.get
        zd = self._zd
        h = 0
        idx = 0
        for i in range(size):
            end = idx + size
            key = (i, *dbm[idx:end])
            idx = end
            word = get(key)
            if word is None:
                ij = i << 11
                word = 0
                for j, b in enumerate(key[1:]):
                    word ^= zd(ij | j, b)
                cache[key] = word
            h ^= word
        return h

    # ------------------------------------------------------------------
    # Class construction
    # ------------------------------------------------------------------
    def _enabled(self, marking) -> list[int]:
        pre = self._pre
        result = []
        for t in range(self._num_transitions):
            ok = True
            for place, weight in pre[t]:
                if marking[place] < weight:
                    ok = False
                    break
            if ok:
                result.append(t)
        return result

    def initial_class(self) -> PackedClass:
        """The root class, canonicalised by the reference
        Floyd–Warshall closure and then packed — one O(n³) pass per
        search guarantees the root is byte-identical to the
        specification engine's."""
        net = self.net
        if any(v > MAX_TOKENS for v in net.m0):
            raise SchedulingError(
                "packed DBM engine: initial marking exceeds the "
                f"packed token cap ({MAX_TOKENS} per place)"
            )
        marking = array("H", net.m0)
        enabled = self._enabled(marking)
        size = len(enabled) + 1
        matrix: list[list[Bound]] = [
            [INF] * size for _ in range(size)
        ]
        for i in range(size):
            matrix[i][i] = 0
        for var, t in enumerate(enabled, start=1):
            matrix[var][0] = net.lft[t]
            matrix[0][var] = -net.eft[t]
        closed = _canonical(matrix)
        if closed is None:
            raise SchedulingError("initial class is inconsistent")
        flat = array(
            "q",
            (
                DINF if b == INF else int(b)
                for row in closed
                for b in row
            ),
        )
        mhash = self._mark_hash(marking)
        return PackedClass(
            marking,
            array("i", enabled),
            flat,
            size,
            mhash,
            mhash ^ self._dbm_hash(flat, size),
        )

    def pack(self, cls: StateClass) -> PackedClass:
        """Wrap a reference :class:`StateClass` into packed buffers."""
        marking = array("H", cls.marking)
        size = len(cls.enabled) + 1
        flat = array(
            "q",
            (
                DINF if b == INF else int(b)
                for row in cls.dbm
                for b in row
            ),
        )
        mhash = self._mark_hash(marking)
        return PackedClass(
            marking,
            array("i", cls.enabled),
            flat,
            size,
            mhash,
            mhash ^ self._dbm_hash(flat, size),
        )

    # ------------------------------------------------------------------
    # Firing rule (dense-time Definition 3.1, packed)
    # ------------------------------------------------------------------
    def fire(self, cls: PackedClass, transition: int) -> PackedClass:
        """Successor class after firing ``transition``."""
        successor = self.try_fire(cls, transition)
        if successor is None:
            raise SchedulingError(
                f"transition "
                f"{self.net.transition_names[transition]!r} is not "
                "firable from this class"
            )
        return successor

    def try_fire(
        self, cls: PackedClass, transition: int
    ) -> PackedClass | None:
        """Successor class, or ``None`` when the firing is infeasible.

        Same incremental closure repair and already-closed projection
        as the tuple engine's
        :meth:`~repro.tpn.stateclass.StateClassEngine.try_fire`, over
        the flat buffers; one foreign call when the compiled core is
        live.
        """
        core = self._core
        if core is not None:
            result = core.fire(
                cls, transition, 1 if self._intermediate else 0
            )
            if result == -1:
                return None
            if result == -2:
                self._overflow(transition)
            return result
        return self._try_fire_pure(cls, transition)

    def open_search(
        self,
        root: PackedClass,
        *,
        strict: bool,
        partial_order: bool,
        policy: str,
        max_states: int,
        timed: bool,
    ) -> NativeSearch | None:
        """A native driver search from ``root`` under search
        ``policy``, or ``None`` without a compiled core.  ``root``
        counts as visited; the caller has checked its marking
        predicates."""
        core = self._core
        if core is None:
            return None
        ffi = core.ffi
        return NativeSearch(
            core,
            core.lib.dc_search_new,
            (
                ffi.from_buffer("uint16_t[]", root.marking),
                core._enb_ptr(root.enabled),
                len(root.enabled),
                ffi.from_buffer("int64_t[]", root.dbm),
                root._mhash,
                root._hash,
                search_options(
                    self._intermediate, strict, partial_order, policy,
                    timed,
                ),
                max_states,
            ),
            "DBM",
            self._search_fault,
        )

    def realize(self, sequence: list[int]) -> RealizedSchedule:
        """Concretise a class path to integer time.

        :func:`~repro.tpn.stateclass.realize_firing_sequence` under
        this engine's reset policy, run as one ``dc_realize`` call when
        the compiled core is live.  On any non-zero status the spec
        runs instead and raises its own :class:`SchedulingError`.
        """
        core = self._core
        if core is not None:
            dates = core.realize(
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
        raise SchedulingError(
            "packed DBM engine: firing "
            f"{self.net.transition_names[transition]!r} overflows "
            f"the packed token cap ({MAX_TOKENS} per place)"
        )

    def _try_fire_pure(
        self, cls: PackedClass, transition: int
    ) -> PackedClass | None:
        enabled = cls.enabled
        var_t = 0
        for var, t in enumerate(enabled, start=1):
            if t == transition:
                var_t = var
                break
        if not var_t:
            return None
        size = cls.size
        # pure-path classes carry the matrix as a flat tuple; array
        # backed ones (the root, lifted classes) are unboxed once so
        # every later cell access is a plain C-level read
        cells = cls.dbm
        kind = type(cells)
        if kind is tuple:
            cells = list(cells)
        elif kind is not list:
            cells = cells.tolist()
        # firability: adding θ_t ≤ θ_u for every enabled u keeps the
        # canonical system satisfiable iff no column entry into var_t
        # is negative (see the tuple engine for the cycle argument)
        col_t = cells[var_t::size]
        for var_u in range(1, size):
            if col_t[var_u] < 0:
                return None
        # incremental closure: the new shortest row out of var_t is
        # the column-wise minimum over every enabled row (a C-level
        # map), and any other entry improves only by routing through
        # var_t once.  The per-row repair itself is deferred until the
        # surviving (persistent) rows are known — discarded rows are
        # never repaired.
        rows = [cells[i * size:(i + 1) * size] for i in range(size)]
        if size > 2:
            row_t = list(map(min, *rows[1:]))
        else:
            row_t = rows[var_t]

        # new marking, with the marking hash maintained incrementally
        # (the word cache is probed inline; _zm fills it on a miss)
        new_mark = array("H", cls.marking)
        mhash = cls._mhash
        zget = self._zm_cache.get
        for place, delta in self._delta[transition]:
            old = new_mark[place]
            value = old + delta
            if value < 0 or value > MAX_TOKENS:
                self._overflow(transition)
            pk = place << 20
            word = zget(pk ^ old)
            if word is None:
                word = self._zm(place, old)
            mhash ^= word
            word = zget(pk ^ value)
            if word is None:
                word = self._zm(place, value)
            mhash ^= word
            new_mark[place] = value

        # enabledness changes only for transitions sharing an input
        # place with the firing's marking delta — re-check those,
        # everything else keeps its status.  The enabled set rides on
        # the class (copy-on-write into the successor), and the "no
        # change" case reuses the parent's enabled array outright
        pre = self._pre
        enabled_set = cls._eset
        if enabled_set is None:
            enabled_set = set(enabled)
            cls._eset = enabled_set
        newly: list[int] = []
        changed = False
        for u in self._aff[transition]:
            for place, weight in pre[u]:
                if new_mark[place] < weight:
                    if u in enabled_set:
                        if not changed:
                            enabled_set = enabled_set.copy()
                            changed = True
                        enabled_set.discard(u)
                    break
            else:
                if u not in enabled_set:
                    if not changed:
                        enabled_set = enabled_set.copy()
                        changed = True
                    enabled_set.add(u)
                    newly.append(u)
        if changed:
            new_enabled = sorted(enabled_set)
            enabled_arr = array("i", new_enabled)
        else:
            new_enabled = enabled
            enabled_arr = cls.enabled
        if self._intermediate:
            inter = list(cls.marking)
            for place, weight in self._pre[transition]:
                inter[place] -= weight
        else:
            inter = None

        new_size = len(new_enabled) + 1
        # the successor matrix is written down already closed: the
        # persistent block is a projection of the closed matrix (the
        # triangle inequality holds inside it) and a newly enabled
        # variable's shortest paths all route through the origin — the
        # same argument as the tuple engine, so construction cannot
        # fail
        pers_old = [0] * new_size
        new_vars: list[int] = []
        lft_i = self._lft_i
        eft = self._eft
        pre = self._pre
        for new_var, t in enumerate(new_enabled, start=1):
            old_var = 0
            if t != transition and t not in newly:
                old_var = enabled.index(t) + 1
            if old_var and inter is not None:
                for place, weight in pre[t]:
                    if inter[place] < weight:
                        old_var = 0
                        break
            if old_var:
                pers_old[new_var] = old_var
            else:
                new_vars.append(new_var)

        # closure repair, restricted to the rows the projection will
        # actually read: the persistent rows (the origin row and the
        # rows of disabled variables are discarded unrepaired)
        for i in pers_old:
            if not i:
                continue
            row_i = rows[i]  # slices are already fresh lists
            d_it = col_t[i]
            if d_it != DINF:
                for j, d_tj in enumerate(row_t):
                    if d_tj == DINF:
                        continue
                    candidate = d_it + d_tj
                    if candidate < row_i[j]:
                        row_i[j] = candidate

        origin = [DINF] * new_size  # successor row 0
        origin[0] = 0
        col0 = [0] * new_size  # successor D'[i][0] column
        for new_var, t in enumerate(new_enabled, start=1):
            old_var = pers_old[new_var]
            if old_var:
                # θ'_u = θ_u − θ_t: bounds against the new origin
                col0[new_var] = rows[old_var][var_t]
                origin[new_var] = row_t[old_var]
            else:
                col0[new_var] = lft_i[t]
                origin[new_var] = -eft[t]
        # a persistent row is one projection gather over the closed
        # matrix (its diagonal zero rides along: closed[o][o] == 0);
        # new variables start from their static interval row.  The
        # gather runs at C speed via itemgetter; position 0 and the
        # new-variable columns are patched afterwards (both map to
        # pers_old == 0, where the gather read a stale cell)
        fresh_rows: list[list[int]] = [origin]
        gather = (
            itemgetter(*pers_old) if new_size > 2 else None
        )
        for i_var in range(1, new_size):
            old_i = pers_old[i_var]
            if old_i:
                row_old = rows[old_i]
                if gather is not None:
                    row = list(gather(row_old))
                    for nv in new_vars:
                        row[nv] = DINF
                else:
                    row = [
                        row_old[o] if o else DINF for o in pers_old
                    ]
            else:
                row = [DINF] * new_size
                row[i_var] = 0
            row[0] = col0[i_var]
            fresh_rows.append(row)
        # cross entries of newly enabled variables: via the origin
        for nv in new_vars:
            row_n = fresh_rows[nv]
            up = col0[nv]
            down = origin[nv]
            for j in range(1, new_size):
                if j == nv:
                    continue
                d_0j = origin[j]
                if up != DINF and d_0j != DINF:
                    candidate = up + d_0j
                    if candidate < row_n[j]:
                        row_n[j] = candidate
                d_j0 = fresh_rows[j][0]
                if d_j0 != DINF:
                    candidate = d_j0 + down
                    if candidate < fresh_rows[j][nv]:
                        fresh_rows[j][nv] = candidate
        # the successor keeps the flat *tuple* as its matrix: in pure
        # mode nothing needs the buffer protocol, skipping the array
        # round-trip avoids re-boxing every cell downstream (export
        # converts on demand), and the tuple doubles as the hash-memo
        # key.  The Zobrist fold runs over the row lists in hand
        # rather than re-slicing the flat buffer — same per-row
        # memoisation as _dbm_hash
        fresh = tuple(chain.from_iterable(fresh_rows))
        memo = self._dbm_memo
        dhash = memo.get(fresh)
        if dhash is None:
            cache = self._zrow_cache
            get = cache.get
            dhash = 0
            for i, row in enumerate(fresh_rows):
                rkey = (i, *row)
                word = get(rkey)
                if word is None:
                    zd = self._zd
                    ij = i << 11
                    word = 0
                    for j, b in enumerate(row):
                        word ^= zd(ij | j, b)
                    cache[rkey] = word
                dhash ^= word
            memo[fresh] = dhash
        successor = PackedClass(
            new_mark,
            enabled_arr,
            fresh,
            new_size,
            mhash,
            mhash ^ dhash,
        )
        successor._eset = enabled_set
        return successor

    # ------------------------------------------------------------------
    # Firability / windows / candidate enumeration
    # ------------------------------------------------------------------
    def firable(self, cls: PackedClass) -> list[int]:
        """Transitions firable from the class (column scans)."""
        dbm = cls.dbm
        size = cls.size
        n = size * size
        result = []
        for var, t in enumerate(cls.enabled, start=1):
            idx = var + size
            while idx < n:
                if dbm[idx] < 0:
                    break
                idx += size
            else:
                result.append(t)
        return result

    def fire_window(
        self, cls: PackedClass, transition: int
    ) -> tuple[int, Bound] | None:
        """Dense window of relative times at which ``transition`` can
        fire *next* from this class, or ``None`` when it cannot."""
        var = 0
        for v, t in enumerate(cls.enabled, start=1):
            if t == transition:
                var = v
                break
        if not var:
            return None
        dbm = cls.dbm
        size = cls.size
        upper = dbm[var * size]
        for u in range(1, size):
            if dbm[u * size + var] < 0:
                return None
            bound = dbm[u * size]
            if bound < upper:
                upper = bound
        lower = -dbm[var]
        return (lower, INF if upper >= DINF else upper)

    def candidates(
        self, cls: PackedClass, strict: bool, partial_order: bool
    ) -> tuple[list[tuple[int, int]], bool]:
        """Ordered ``(transition, dense lower bound)`` pairs plus the
        partial-order reduction flag.

        The firability column scans, the miss filter, the strict
        priority filter, the dense forced-immediate reduction (see
        :meth:`repro.scheduler.core.StateClassAdapter`) and the
        ``(lower, priority, index)`` ordering all run inside one core
        call when the compiled core is live.
        """
        core = self._core
        if core is not None:
            return core.candidates(
                cls, 1 if strict else 0, 1 if partial_order else 0
            )
        return self._candidates_pure(cls, strict, partial_order)

    def _candidates_pure(
        self, cls: PackedClass, strict: bool, partial_order: bool
    ) -> tuple[list[tuple[int, int]], bool]:
        miss = self._miss
        dbm = cls.dbm
        size = cls.size
        n = size * size
        cands: list[tuple[int, int]] = []
        for var, t in enumerate(cls.enabled, start=1):
            if t in miss:
                continue
            # early-break column scan over the flat buffer: no strided
            # slice is materialised on the (common) blocked columns
            idx = var + size
            while idx < n:
                if dbm[idx] < 0:
                    break
                idx += size
            else:
                cands.append((t, -dbm[var]))
        if not cands:
            return cands, False

        prio = self._prio
        if strict:
            best = min(prio[t] for t, _lo in cands)
            cands = [(t, lo) for t, lo in cands if prio[t] == best]

        if partial_order and len(cands) > 1:
            reduced = self._forced_immediate(cls, cands)
            if reduced is not None:
                return [reduced], True

        if len(cands) > 1:
            expanded = [(lo, prio[t], t) for t, lo in cands]
            expanded.sort()
            cands = [(t, lo) for lo, _p, t in expanded]
        return cands, False

    def _forced_immediate(
        self, cls: PackedClass, cands: list[tuple[int, int]]
    ) -> tuple[int, int] | None:
        """Partial-order reduction pick on a packed class.

        The packed image of
        :meth:`repro.scheduler.core.StateClassAdapter`'s dense rule: a
        conflict-free candidate whose own firing bounds are exactly
        ``[0, 0]`` and whose postset feeds no enabled transition fires
        alone.
        """
        conflict_free = self._conflict_free
        post_conflicts = self._post_conflicts
        dbm = cls.dbm
        size = cls.size
        enabled = cls._eset
        if enabled is None:
            enabled = set(cls.enabled)
            cls._eset = enabled
        for t, lower in cands:
            if lower != 0 or not conflict_free[t]:
                continue
            var = cls.enabled.index(t) + 1
            if dbm[var * size] != 0:
                continue  # not forced at this instant
            for other in post_conflicts[t]:
                if other in enabled:
                    break  # an enabled transition consumes from t•
            else:
                return (t, 0)
        return None
