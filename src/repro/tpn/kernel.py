"""Packed-buffer TLTS successor engine — the native search kernel.

**Overview for new contributors.**  The reference discrete engine
represents a state as Python tuples
(:class:`repro.tpn.state.State`); every successor allocates fresh
tuples and every comparison walks boxed ints.  This module is the
production discrete engine (``PreRuntimeScheduler(engine="kernel")``,
the default): the same Definition 3.1 semantics over *packed flat
buffers* —

* the marking is an ``array('H')``, one unsigned 16-bit word per place
  (token counts are capped at 65535 — comfortably past the paper
  models' tick-counter places; the engine raises loudly on overflow
  instead of silently wrapping);
* the clock vector is an ``array('H')`` of unsigned 16-bit words with
  :data:`DIS` (``0xFFFF``) marking disabled transitions (clocks are
  capped at 65534 — a search that deep raises rather than corrupting
  parity);
* the enabled set is implicit in the clock buffer (``clk[t] != DIS``)
  and maintained branchlessly from :attr:`CompiledNet.affected`;
* the 64-bit state key is a functional Zobrist hash (splitmix64 of a
  packed ``(kind, index, value)`` word — no precomputed tables; the
  pure core memoises the words it meets) maintained *incrementally*
  across firings: XOR out the old word, XOR in the new one.

The successor/firable/min-DUB inner loop runs in one of two cores over
the *same* buffer layout:

* the optional C core (:mod:`repro.tpn._kernelc`, built lazily via
  cffi with graceful degradation) — one foreign call per step,
  operating in place on the Python-owned buffers (searches go
  further, see below);
* the pure-Python core in this file — line-for-line the same
  semantics, used when the compiled core is unavailable or
  ``EZRT_PURE=1`` force-disables it.

Both cores produce bit-identical states *and hashes* (the Zobrist mix
is implemented identically on both sides), which the differential
suite in ``tests/test_kernel_engine.py`` asserts, together with
engine-level parity against the checked reference semantics.

With the C core live, searches do not step through this module state
by state: :meth:`KernelEngine.open_search` starts a
:class:`NativeSearch`, the C core's resumable depth-first search
driver, which :meth:`repro.scheduler.core.SearchCore._drive` runs to a
verdict (``tests/test_kernel_driver.py`` locks it to the search loop
over the pure core).
"""

from __future__ import annotations

from array import array

from repro.errors import SchedulingError
from repro.tpn import _kernelc
from repro.tpn.interval import INF
from repro.tpn.net import CompiledNet
from repro.tpn.state import DISABLED, RESET_POLICIES, State

#: Disabled-clock sentinel in the packed ``array('H')`` clock buffer.
DIS = 0xFFFF

#: Largest storable token count / clock value (loud overflow above).
MAX_TOKENS = 0xFFFF
MAX_CLOCK = DIS - 1

_MASK64 = (1 << 64) - 1


def _mix(x: int) -> int:
    """splitmix64 finalizer — identical to ``kn_mix`` in the C core."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


class _ZobristTable(dict):
    """Lazily filled Zobrist words of one kind (1: place, 2: clock).

    ``table[(i << 20) ^ v]`` is ``_mix((kind << 62) ^ (i << 20) ^ v)``
    — the word ``kn_zm``/``kn_zc`` compute in the C core — so the pure
    core reads each word with one subscript and mixes it only once.
    """

    __slots__ = ("_tag",)

    def __init__(self, kind: int):
        super().__init__()
        self._tag = kind << 62

    def __missing__(self, key: int) -> int:
        word = self[key] = _mix(self._tag ^ key)
        return word


class KernelState:
    """A TLTS state as two packed buffers plus its 64-bit Zobrist key.

    Identity (equality) lives entirely in the buffer contents, exactly
    like the tuple-based states; ``__hash__`` returns the precomputed
    incremental key, so set membership never walks the buffers on the
    non-colliding path.  ``marking`` is indexable (``marking[p]``), so
    the compiled marking predicates (:meth:`CompiledNet.is_final`,
    :meth:`CompiledNet.has_missed_deadline`) work unchanged.
    """

    __slots__ = ("marking", "clk", "_hash")

    def __init__(self, marking: array, clk: array, key: int):
        self.marking = marking
        self.clk = clk
        self._hash = key

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KernelState):
            return NotImplemented
        return self.marking == other.marking and self.clk == other.clk

    def __repr__(self) -> str:
        return (
            f"KernelState(m={self.marking.tolist()}, "
            f"c={self.clk.tolist()})"
        )

    def clocks_tuple(self) -> tuple[int, ...]:
        """Dense clock tuple with :data:`repro.tpn.state.DISABLED`
        markers — the representation reorder policies read."""
        return tuple(
            DISABLED if v == DIS else v for v in self.clk
        )

    def to_state(self) -> State:
        """Convert to the reference dataclass representation."""
        return State(tuple(self.marking), self.clocks_tuple())

    def export(self) -> tuple[bytes, bytes]:
        """Minimal picklable form: the two raw buffers.

        Cheaper to ship than the object (two ``bytes`` blobs); the
        receiving side rebuilds the hash with
        :meth:`KernelEngine.revive`.
        """
        return (self.marking.tobytes(), self.clk.tobytes())


class _NativeCore:
    """Per-net handle on the compiled core: flattened CSR arrays plus
    preallocated output buffers, all kept alive for the net pointer's
    lifetime."""

    __slots__ = (
        "ffi",
        "lib",
        "net_ptr",
        "_keepalive",
        "_out",
        "_red",
        "_ceil",
        "_hash_io",
    )

    def __init__(self, module, net: CompiledNet):
        ffi = module.ffi
        lib = module.lib
        self.ffi = ffi
        self.lib = lib

        def csr(rows, pair_index):
            off = array("i", [0])
            flat_a = array("i")
            flat_b = array("i") if pair_index else None
            for row in rows:
                if pair_index:
                    for a, b in row:
                        flat_a.append(a)
                        flat_b.append(b)
                else:
                    for a in row:
                        flat_a.append(a)
                off.append(len(flat_a))
            return off, flat_a, flat_b

        pre_off, pre_place, pre_w = csr(net.pre, True)
        d_off, d_place, d_d = csr(net.delta, True)
        aff_off, aff_t, _ = csr(net.affected, False)
        pc_off, pc_t, _ = csr(
            [sorted(s) for s in net.post_conflicts], False
        )
        eft = array("i", net.eft)
        lft = array(
            "i", [-1 if b == INF else int(b) for b in net.lft]
        )
        prio = array("i", net.priority)
        flags = bytearray(net.num_transitions)
        for t in range(net.num_transitions):
            flags[t] = (
                (1 if net.immediate[t] else 0)
                | (2 if t in net.miss_transitions else 0)
                | (4 if net.conflict_free[t] else 0)
                | (8 if net.touches_miss[t] else 0)
                | (16 if net.touches_final[t] else 0)
            )
        # the search driver's marking predicates; one padding word
        # keeps every buffer non-empty
        miss_place = array("i", net.miss_places or (0,))
        final_place = array(
            "i", [p for p, _req in net.final_constraints] or [0]
        )
        final_req = array(
            "i", [req for _p, req in net.final_constraints] or [0]
        )
        timer = array("i", net.deadline_timer or (0,))

        def ptr(a):
            return ffi.from_buffer("int32_t[]", a)

        # the cffi buffer views (and the arrays they view) must stay
        # alive as long as the C net reads them
        self._keepalive = [
            pre_off, pre_place, pre_w, d_off, d_place, d_d,
            aff_off, aff_t, pc_off, pc_t, eft, lft, prio, flags,
            miss_place, final_place, final_req, timer,
        ]
        buffers = [
            ptr(pre_off), ptr(pre_place), ptr(pre_w),
            ptr(d_off), ptr(d_place), ptr(d_d),
            ptr(aff_off), ptr(aff_t), ptr(pc_off), ptr(pc_t),
            ptr(eft), ptr(lft), ptr(prio),
            ffi.from_buffer("uint8_t[]", flags),
            len(net.miss_places), ptr(miss_place),
            len(net.final_constraints), ptr(final_place), ptr(final_req),
            ptr(timer),
        ]
        self._keepalive.extend(buffers)
        raw = lib.kn_net_new(
            net.num_places, net.num_transitions, *buffers
        )
        if raw == ffi.NULL:
            raise MemoryError("kn_net_new failed")
        self.net_ptr = ffi.gc(raw, lib.kn_net_free)
        self._out = ffi.new(
            "int32_t[]", 2 * max(1, net.num_transitions)
        )
        self._red = ffi.new("int32_t *")
        self._ceil = ffi.new("int32_t *")
        self._hash_io = ffi.new("uint64_t *")

    def full_hash(self, mark: array, clk: array) -> int:
        ffi = self.ffi
        return self.lib.kn_hash(
            self.net_ptr,
            ffi.from_buffer("uint16_t[]", mark),
            ffi.from_buffer("uint16_t[]", clk),
        )

    def successor(self, om, oc, nm, nc, key, t, q, intermediate):
        ffi = self.ffi
        hio = self._hash_io
        hio[0] = key
        status = self.lib.kn_successor(
            self.net_ptr,
            ffi.from_buffer("uint16_t[]", om),
            ffi.from_buffer("uint16_t[]", oc),
            ffi.from_buffer("uint16_t[]", nm),
            ffi.from_buffer("uint16_t[]", nc),
            hio,
            t,
            q,
            intermediate,
        )
        return status, hio[0]

    def candidates(self, clk, strict, partial_order):
        out = self._out
        n = self.lib.kn_candidates(
            self.net_ptr,
            self.ffi.from_buffer("uint16_t[]", clk),
            strict,
            partial_order,
            out,
            self._red,
        )
        return (
            [(out[2 * i], out[2 * i + 1]) for i in range(n)],
            bool(self._red[0]),
        )

    def window(self, clk):
        out = self._out
        n = self.lib.kn_window(
            self.net_ptr,
            self.ffi.from_buffer("uint16_t[]", clk),
            out,
            self._ceil,
        )
        ceiling = self._ceil[0]
        return (
            INF if ceiling < 0 else ceiling,
            [(out[2 * i], out[2 * i + 1]) for i in range(n)],
        )


#: :meth:`NativeSearch.run` statuses (the C core's ``KN_S_*``).
SEARCH_DONE = 0
SEARCH_POLL = 1
SEARCH_REORDER = 2
SEARCH_FEASIBLE = 3
SEARCH_BUDGET = 4
_SEARCH_TOKENS = 5
_SEARCH_CLOCK = 6
_SEARCH_NOMEM = 7

# kn_search_new option bits (the C core's ``KN_O_*``)
_OPT_INTERMEDIATE = 1
_OPT_STRICT = 2
_OPT_PARTIAL_ORDER = 4
_OPT_EXTREMES = 8
_OPT_FULL = 16
_OPT_REORDER = 32
_OPT_TIMED = 64
_OPT_LATEST = 128
_OPT_LAXITY = 256

#: Search policies the driver orders natively; any other non-default
#: policy stops the driver at :data:`SEARCH_REORDER` for Python.
_NATIVE_POLICIES = {
    "earliest": 0,
    "latest": _OPT_LATEST,
    "min-laxity": _OPT_LAXITY,
}


class NativeSearch:
    """One resumable depth-first search in the compiled core.

    The ``kn_search_*`` driver runs :class:`repro.scheduler.core.SearchCore`'s
    loop over a state arena and visited table it owns; :meth:`run`
    advances it to its next stop and returns the status:

    * :data:`SEARCH_POLL` — the 1024-expansion poll (resume to go on);
    * :data:`SEARCH_REORDER` — a new frame waits for :meth:`reorder`
      (only under a policy the driver cannot order itself: ``random``);
    * :data:`SEARCH_FEASIBLE` — the final marking is reached
      (:meth:`path`);
    * :data:`SEARCH_BUDGET` — ``max_states`` states are tagged;
    * :data:`SEARCH_DONE` — the space is exhausted.

    Packed-cap overflows raise the engine's :class:`SchedulingError`.
    ``counters`` is the live ``kn_counters`` struct (SearchCore's
    counters plus span timings and the visited-state bytes).  The
    driver's memory is released by :meth:`close`, or at collection.
    """

    __slots__ = (
        "counters",
        "_engine",
        "_core",
        "_ffi",
        "_lib",
        "_ptr",
    )

    def __init__(self, engine, core, root, now, options, max_states):
        ffi = core.ffi
        lib = core.lib
        self.counters = ffi.new("kn_counters *")
        raw = lib.kn_search_new(
            core.net_ptr,
            ffi.from_buffer("uint16_t[]", root.marking),
            ffi.from_buffer("uint16_t[]", root.clk),
            root._hash,
            now,
            options,
            max_states,
            self.counters,
        )
        if raw == ffi.NULL:
            raise MemoryError("kn_search_new failed")
        self._engine = engine
        self._core = core  # the C search reads the core's net
        self._ffi = ffi
        self._lib = lib
        self._ptr = ffi.gc(raw, lib.kn_search_free)

    def run(self) -> int:
        status = self._lib.kn_search_run(self._ptr)
        if status >= _SEARCH_TOKENS:
            if status == _SEARCH_NOMEM:
                raise MemoryError("kernel search driver: out of memory")
            self._engine._overflow(
                1 if status == _SEARCH_TOKENS else 2,
                self.counters.fault,
            )
        return status

    def reorder(self, policy) -> None:
        """Order the pending frame's candidates with a reorder policy
        (``policy(candidates, state) -> candidates``, a permutation).
        The policies that read the state run natively, so ``state``
        is ``None`` here."""
        n = self.counters.pending
        pairs = self._lib.kn_search_pending(self._ptr)
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
        self._lib.kn_search_path(self._ptr, out)
        flat = self._ffi.unpack(out, 3 * n)
        return list(zip(flat[0::3], flat[1::3], flat[2::3]))

    def close(self) -> None:
        """Free the arena, table and stack now (idempotent)."""
        if self._ptr is not None:
            self._ffi.release(self._ptr)
            self._ptr = None


class KernelEngine:
    """Packed-buffer successor computation over a compiled net.

    Same semantics as the reference :class:`~repro.tpn.state.StateEngine`
    (Definition 3.1, both clock-reset policies), but enabledness
    re-checks are limited to ``affected[t]``, states are flat buffers
    and — when the compiled core is available — each step is one
    foreign call and :meth:`open_search` runs a whole search in C.
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
        "_affected",
        "_eft",
        "_lft_i",
        "_prio",
        "_miss",
        "_conflict_free",
        "_post_conflicts",
        "_num_transitions",
        "_zm",
        "_zc",
    )

    def __init__(self, net: CompiledNet, reset_policy: str = "paper"):
        if reset_policy not in RESET_POLICIES:
            raise SchedulingError(
                f"unknown reset policy {reset_policy!r}; "
                f"expected one of {RESET_POLICIES}"
            )
        self.net = net
        self.reset_policy = reset_policy
        self._intermediate = reset_policy == "intermediate"
        self._pre = net.pre
        self._delta = net.delta
        self._affected = net.affected
        self._eft = net.eft
        # integer LFT vector with -1 encoding the unbounded bound, the
        # packed analogue of the float INF convention
        self._lft_i = tuple(
            -1 if b == INF else int(b) for b in net.lft
        )
        self._prio = net.priority
        self._miss = net.miss_transitions
        self._conflict_free = net.conflict_free
        self._post_conflicts = net.post_conflicts
        self._num_transitions = net.num_transitions
        self._zm = _ZobristTable(1)
        self._zc = _ZobristTable(2)
        self._core = None
        if net.num_transitions and net.num_places:
            module = _kernelc.load()
            if module is not None:
                self._core = _NativeCore(module, net)
        self.native = self._core is not None

    # ------------------------------------------------------------------
    # Zobrist hashing (pure side; the C core mirrors these bit for bit)
    # ------------------------------------------------------------------
    def full_hash(self, mark: array, clk: array) -> int:
        """The 64-bit Zobrist key of a packed state, from scratch."""
        if self._core is not None:
            return self._core.full_hash(mark, clk)
        zm = self._zm
        zc = self._zc
        h = 0
        for p, v in enumerate(mark):
            h ^= zm[(p << 20) ^ v]
        for t, v in enumerate(clk):
            h ^= zc[(t << 20) ^ v]
        return h

    # ------------------------------------------------------------------
    # State construction
    # ------------------------------------------------------------------
    def initial(self) -> KernelState:
        net = self.net
        if any(v > MAX_TOKENS for v in net.m0):
            raise SchedulingError(
                "kernel engine: initial marking exceeds the packed "
                f"token cap ({MAX_TOKENS} per place)"
            )
        mark = array("H", net.m0)
        pre = self._pre
        clk = array(
            "H",
            (
                0
                if all(mark[p] >= w for p, w in pre[t])
                else DIS
                for t in range(self._num_transitions)
            ),
        )
        return KernelState(mark, clk, self.full_hash(mark, clk))

    def revive(self, marking: bytes, clocks: bytes) -> KernelState:
        """Rebuild a state from :meth:`KernelState.export` buffers."""
        mark = array("H")
        mark.frombytes(marking)
        clk = array("H")
        clk.frombytes(clocks)
        return KernelState(mark, clk, self.full_hash(mark, clk))

    def lift(self, state: State) -> KernelState:
        """Wrap a reference :class:`State` into packed buffers."""
        if any(v > MAX_TOKENS for v in state.marking):
            raise SchedulingError(
                "kernel engine: marking exceeds the packed token cap"
            )
        mark = array("H", state.marking)
        clk = array(
            "H",
            (DIS if v == DISABLED else v for v in state.clocks),
        )
        return KernelState(mark, clk, self.full_hash(mark, clk))

    # ------------------------------------------------------------------
    # Firing rule (Definition 3.1, packed)
    # ------------------------------------------------------------------
    def successor(self, state: KernelState, t: int, q: int) -> KernelState:
        """Fire ``t`` after delay ``q`` on copies of the packed buffers."""
        om = state.marking
        oc = state.clk
        nm = array("H", om)
        nc = array("H", oc)
        core = self._core
        if core is not None:
            status, key = core.successor(
                om, oc, nm, nc, state._hash, t, q,
                1 if self._intermediate else 0,
            )
            if status:
                self._overflow(status, t)
            return KernelState(nm, nc, key)
        return self._successor_pure(state, om, oc, nm, nc, t, q)

    def _overflow(self, status: int, t: int) -> None:
        name = self.net.transition_names[t]
        if status == 1:
            raise SchedulingError(
                f"kernel engine: firing {name!r} overflows the packed "
                f"token cap ({MAX_TOKENS} per place)"
            )
        raise SchedulingError(
            f"kernel engine: clock overflow past {MAX_CLOCK} while "
            f"firing {name!r} (use another engine for searches this "
            "deep in time)"
        )

    def _successor_pure(
        self, state, om, oc, nm, nc, t: int, q: int
    ) -> KernelState:
        zm = self._zm
        zc = self._zc
        h = state._hash

        for p, d in self._delta[t]:
            old = nm[p]
            nv = old + d
            if nv < 0 or nv > MAX_TOKENS:
                self._overflow(1, t)
            base = p << 20
            h ^= zm[base ^ old] ^ zm[base ^ nv]
            nm[p] = nv

        if q:
            for tk, v in enumerate(oc):
                if v != DIS:
                    nv = v + q
                    if nv >= DIS:
                        self._overflow(2, t)
                    base = tk << 20
                    h ^= zc[base ^ v] ^ zc[base ^ nv]
                    nc[tk] = nv

        pre = self._pre
        if self._intermediate:
            ref = array("H", om)
            for place, weight in pre[t]:
                ref[place] -= weight
        else:
            ref = None

        for tk in self._affected[t]:
            oldc = oc[tk]
            enabled_now = True
            for place, weight in pre[tk]:
                if nm[place] < weight:
                    enabled_now = False
                    break
            if not enabled_now:
                if oldc != DIS:
                    base = tk << 20
                    h ^= zc[base ^ nc[tk]] ^ zc[base ^ DIS]
                    nc[tk] = DIS
            elif oldc == DIS:
                # newly enabled: clock resets to zero (the bulk
                # advance skipped disabled entries)
                base = tk << 20
                h ^= zc[base ^ DIS] ^ zc[base]
                nc[tk] = 0
            else:
                reset = tk == t
                if not reset and ref is not None:
                    for place, weight in pre[tk]:
                        if ref[place] < weight:
                            reset = True
                            break
                if reset:
                    cur = nc[tk]
                    if cur:
                        base = tk << 20
                        h ^= zc[base ^ cur] ^ zc[base]
                        nc[tk] = 0
                # else persistent: the bulk advance already set it

        return KernelState(nm, nc, h)

    # ------------------------------------------------------------------
    # Firing window / candidate enumeration
    # ------------------------------------------------------------------
    def candidates(
        self, state: KernelState, strict: bool, partial_order: bool
    ) -> tuple[list[tuple[int, int]], bool]:
        """Earliest-mode candidates, fully ordered, plus the
        reduction flag.

        The min-DUB ceiling, the firing window, the optional strict
        priority filter, the forced-immediate partial-order reduction
        and the ``(delay, priority, index)`` ordering all run inside
        one core call; the returned flag records whether the reduction
        collapsed the window to a single forced firing.
        """
        core = self._core
        if core is not None:
            return core.candidates(
                state.clk, 1 if strict else 0, 1 if partial_order else 0
            )
        return self._candidates_pure(state.clk, strict, partial_order)

    def _candidates_pure(self, clk, strict, partial_order):
        lft = self._lft_i
        eft = self._eft
        miss = self._miss

        ceiling = -1  # sentinel: unbounded
        for tk, v in enumerate(clk):
            if v == DIS:
                continue
            bound = lft[tk]
            if bound < 0:
                continue
            bound -= v
            if ceiling < 0 or bound < ceiling:
                ceiling = bound

        cands: list[tuple[int, int]] = []
        for tk, v in enumerate(clk):
            if v == DIS or tk in miss:
                continue
            lo = eft[tk] - v
            if lo < 0:
                lo = 0
            if ceiling < 0 or lo <= ceiling:
                cands.append((tk, lo))
        if not cands:
            return cands, False

        prio = self._prio
        if strict:
            best = min(prio[t] for t, _lo in cands)
            cands = [(t, lo) for t, lo in cands if prio[t] == best]

        if partial_order and len(cands) > 1:
            reduced = self.forced_immediate(cands, clk)
            if reduced is not None:
                return [reduced], True

        if len(cands) > 1:
            expanded = [(lo, prio[t], t) for t, lo in cands]
            expanded.sort()
            cands = [(t, lo) for lo, _p, t in expanded]
        return cands, False

    def forced_immediate(
        self, cands: list[tuple[int, int]], clk
    ) -> tuple[int, int] | None:
        """Partial-order reduction pick on the packed clock buffer.

        The packed analogue of
        :func:`repro.scheduler.core.forced_immediate` (which reads
        enabledness as ``clocks[t] >= 0`` and cannot run on the
        ``0xFFFF``-sentinel encoding): a zero-delay, structurally
        conflict-free candidate whose dynamic upper bound is zero and
        whose postset feeds no enabled transition fires alone.
        """
        conflict_free = self._conflict_free
        post_conflicts = self._post_conflicts
        lft = self._lft_i
        for t, lower in cands:
            if lower != 0 or not conflict_free[t]:
                continue
            bound = lft[t]
            if bound < 0 or bound - clk[t] > 0:
                continue  # not forced at this instant
            for other in post_conflicts[t]:
                if clk[other] != DIS:
                    break  # an enabled transition consumes from t•
            else:
                return (t, 0)
        return None

    def open_search(
        self,
        root: KernelState,
        now: int,
        *,
        strict: bool,
        partial_order: bool,
        delay_mode: str,
        policy: str,
        max_states: int,
        timed: bool,
    ) -> NativeSearch | None:
        """A native driver search from ``root`` at absolute time
        ``now`` under search ``policy``, or ``None`` without a
        compiled core.  ``root`` counts as visited; the caller has
        checked its marking predicates."""
        core = self._core
        if core is None:
            return None
        options = (
            (_OPT_INTERMEDIATE if self._intermediate else 0)
            | (_OPT_STRICT if strict else 0)
            | (_OPT_PARTIAL_ORDER if partial_order else 0)
            | (_OPT_EXTREMES if delay_mode == "extremes" else 0)
            | (_OPT_FULL if delay_mode == "full" else 0)
            | _NATIVE_POLICIES.get(policy, _OPT_REORDER)
            | (_OPT_TIMED if timed else 0)
        )
        return NativeSearch(self, core, root, now, options, max_states)

    def window(
        self, state: KernelState
    ) -> tuple[float, list[tuple[int, int]]]:
        """``(min DUB, raw [(t, DLB(t)), ...])`` for the
        delay-enumeration modes — no filter, no reduction, no sort
        beyond the ascending index order of the scan."""
        core = self._core
        if core is not None:
            return core.window(state.clk)
        clk = state.clk
        lft = self._lft_i
        eft = self._eft
        miss = self._miss
        ceiling = -1
        for tk, v in enumerate(clk):
            if v == DIS:
                continue
            bound = lft[tk]
            if bound < 0:
                continue
            bound -= v
            if ceiling < 0 or bound < ceiling:
                ceiling = bound
        cands: list[tuple[int, int]] = []
        for tk, v in enumerate(clk):
            if v == DIS or tk in miss:
                continue
            lo = eft[tk] - v
            if lo < 0:
                lo = 0
            if ceiling < 0 or lo <= ceiling:
                cands.append((tk, lo))
        return (INF if ceiling < 0 else ceiling, cands)
