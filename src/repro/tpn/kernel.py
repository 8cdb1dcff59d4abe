"""Packed-buffer TLTS successor engine — the native search kernel.

**Overview for new contributors.**  The reference discrete engine
represents a state as Python tuples
(:class:`repro.tpn.state.State`); every successor allocates fresh
tuples and every comparison walks boxed ints.  This module is the
production discrete engine (``engine="kernel"``, the default): the
same Definition 3.1 semantics over *packed flat buffers* —

* the marking is an ``array('H')``, one unsigned 16-bit word per place
  (token counts are capped at 65535 — comfortably past the paper
  models' tick-counter places; the engine raises
  :class:`~repro.errors.PackedCapError` on overflow instead of
  silently wrapping);
* the clock vector is an ``array('H')`` of unsigned 16-bit words with
  :data:`DIS` (``0xFFFF``) marking disabled transitions (clocks are
  capped at 65534 — a search that deep raises rather than corrupting
  parity);
* the enabled set is implicit in the clock buffer (``clk[t] != DIS``)
  and maintained branchlessly from :attr:`CompiledNet.affected`;
* the 64-bit state key is additive: ``sum of coef[i] * word[i]`` mod
  2**64 over the marking words and then the clock words, with one
  odd coefficient per word (``ez_mix(i) | 1``, a table built once per
  net).  It is maintained *incrementally* across firings: a word that
  changes by ``d`` moves the key by ``coef[i] * d``, and a delay ``q``
  moves it by ``q`` times the sum of the enabled clocks'
  coefficients, one multiply-add each.  The key is linear, so its low
  bits are weak; the native search's visited table takes its slot
  from the top bits of the key's Fibonacci product (``ez_slot``).

The successor/firable/min-DUB inner loop runs in the kernel's part
(:mod:`repro.tpn._kernelc`) of the native core
(:mod:`repro.tpn._native`, one cffi extension for both packed
engines): one foreign call per step, operating in place on the
Python-owned buffers.  The engine needs that core.  When the core is
off (``EZRT_PURE=1``, no cffi, a failed build) or cannot pack a net
(no places or no transitions),
:func:`repro.scheduler.core.make_adapter` runs ``engine="kernel"`` on
the reference :class:`~repro.tpn.state.StateEngine` instead, the
kernel's executable spec; ``tests/test_kernel_engine.py`` walks the
two in lockstep.  The token and clock caps above are limits of the
packed representation only: the spec has none, and
:meth:`repro.scheduler.dfs.PreRuntimeScheduler.search` restarts a
search that meets one on it.

Searches do not step through this module state by state:
:meth:`KernelEngine.open_search` roots the native core's resumable
depth-first search driver on the kernel's operations table
(``kn_search_new``) and returns its :class:`NativeSearch` handle,
which :meth:`repro.scheduler.dfs.PreRuntimeScheduler._drive` runs to a
verdict (``tests/test_kernel_driver.py`` locks it to the search loop
over the reference engine).
"""

from __future__ import annotations

from array import array

from repro.errors import PackedCapError, SchedulingError
from repro.tpn._native import (
    SEARCH_TOKENS,
    SEED_MASK,
    NativeNet,
    NativeSearch,
    core_for,
    search_options,
)
from repro.tpn.net import CompiledNet
from repro.tpn.state import DISABLED, State, StateEngine, check_reset_policy

#: Disabled-clock sentinel in the packed ``array('H')`` clock buffer.
DIS = 0xFFFF

#: Largest storable token count / clock value (loud overflow above).
MAX_TOKENS = 0xFFFF
MAX_CLOCK = DIS - 1


class KernelState:
    """A TLTS state as two packed buffers plus its 64-bit additive key.

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


class _NativeCore(NativeNet):
    """Per-net handle on the compiled core: the packed net plus the
    kernel's preallocated output buffers."""

    __slots__ = ("_out", "_cap", "_red", "_hash_io")

    def __init__(self, module, net: CompiledNet):
        super().__init__(module, net)
        ffi = self.ffi
        self._cap = max(1, net.num_transitions)
        self._out = ffi.new("int32_t[]", 2 * self._cap)
        self._red = ffi.new("int32_t *")
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

    def candidates(self, clk, strict, partial_order, mode):
        clk_ptr = self.ffi.from_buffer("uint16_t[]", clk)
        while True:
            out = self._out
            n = self.lib.kn_candidates(
                self.net_ptr,
                clk_ptr,
                strict,
                partial_order,
                mode,
                out,
                self._cap,
                self._red,
            )
            if n >= 0:
                break
            # a delay-enumerating expansion outgrew the buffer
            self._cap = -n
            self._out = self.ffi.new("int32_t[]", 2 * self._cap)
        return (
            [(out[2 * i], out[2 * i + 1]) for i in range(n)],
            bool(self._red[0]),
        )


# kn_search_new's delay-mode option bits (the core's ``EZ_O_EXTREMES``
# and ``EZ_O_FULL``); the rest of the option word is shared with the
# DBM engine
_OPT_EXTREMES = 8
_OPT_FULL = 16

# kn_candidates' delay-mode argument
_MODES = {"earliest": 0, "extremes": 1, "full": 2}


class KernelEngine:
    """Packed-buffer successor computation over a compiled net.

    Same semantics as the reference :class:`~repro.tpn.state.StateEngine`
    (Definition 3.1, both clock-reset policies), but enabledness
    re-checks are limited to ``affected[t]``, states are flat buffers,
    each step is one foreign call and :meth:`open_search` runs a whole
    search in C.  ``core`` is the per-net handle on the compiled core;
    construction raises :class:`SchedulingError` when the core cannot
    run the net (see :func:`repro.tpn._native.core_for`).
    """

    __slots__ = ("net", "reset_policy", "core", "_intermediate")

    def __init__(self, net: CompiledNet, reset_policy: str = "paper"):
        check_reset_policy(reset_policy)
        module = core_for(net)
        if module is None:
            raise SchedulingError(
                "kernel engine: the native core cannot run this net "
                "(it is off or unbuilt, or the net has no places or "
                "no transitions)"
            )
        self.net = net
        self.reset_policy = reset_policy
        self._intermediate = reset_policy == "intermediate"
        self.core = _NativeCore(module, net)

    def full_hash(self, mark: array, clk: array) -> int:
        """The 64-bit additive key of a packed state, from scratch."""
        return self.core.full_hash(mark, clk)

    # ------------------------------------------------------------------
    # State construction
    # ------------------------------------------------------------------
    def initial(self) -> KernelState:
        """The root: the spec's :meth:`StateEngine.initial_state`,
        packed."""
        return self.lift(
            StateEngine(self.net, self.reset_policy).initial_state()
        )

    def lift(self, state: State) -> KernelState:
        """Wrap a reference :class:`State` into packed buffers."""
        if any(v > MAX_TOKENS for v in state.marking):
            raise PackedCapError(
                "kernel engine: marking exceeds the packed token cap "
                f"({MAX_TOKENS} per place)"
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
        status, key = self.core.successor(
            om, oc, nm, nc, state._hash, t, q,
            1 if self._intermediate else 0,
        )
        if status:
            self._overflow(status, t)
        return KernelState(nm, nc, key)

    def _overflow(self, status: int, t: int) -> None:
        name = self.net.transition_names[t]
        if status == 1:
            raise PackedCapError(
                f"kernel engine: firing {name!r} overflows the packed "
                f"token cap ({MAX_TOKENS} per place)"
            )
        raise PackedCapError(
            f"kernel engine: clock overflow past {MAX_CLOCK} while "
            f"firing {name!r}"
        )

    # ------------------------------------------------------------------
    # Candidate enumeration
    # ------------------------------------------------------------------
    def candidates(
        self,
        state: KernelState,
        strict: bool,
        partial_order: bool,
        delay_mode: str,
    ) -> tuple[list[tuple[int, int]], bool]:
        """The state's ``(transition, delay)`` candidates, fully
        ordered, plus the reduction flag.

        One core call runs the driver's own candidate pipeline: the
        min-DUB ceiling, the firing window, the optional strict
        priority filter, the forced-immediate partial-order reduction,
        the ``delay_mode`` expansion and the ``(delay, priority,
        index)`` ordering.  The flag records whether the reduction
        collapsed the window to a single forced firing.
        """
        return self.core.candidates(
            state.clk,
            1 if strict else 0,
            1 if partial_order else 0,
            _MODES[delay_mode],
        )

    def open_search(
        self,
        root: KernelState,
        *,
        strict: bool,
        partial_order: bool,
        delay_mode: str,
        policy: str,
        seed: int,
        max_states: int,
        timed: bool,
    ) -> NativeSearch:
        """A native driver search from ``root`` under search
        ``policy`` (``seed`` picks the ``random`` order's stream).
        ``root`` counts as visited; the caller has checked its marking
        predicates."""
        options = (
            search_options(
                self._intermediate, strict, partial_order, policy, timed
            )
            | (_OPT_EXTREMES if delay_mode == "extremes" else 0)
            | (_OPT_FULL if delay_mode == "full" else 0)
        )
        core = self.core
        ffi = core.ffi
        return NativeSearch(
            core,
            core.lib.kn_search_new,
            (
                ffi.from_buffer("uint16_t[]", root.marking),
                ffi.from_buffer("uint16_t[]", root.clk),
                root._hash,
                options,
                seed & SEED_MASK,
                max_states,
            ),
            "kernel",
            self._search_fault,
        )

    def _search_fault(self, status: int, t: int) -> None:
        self._overflow(1 if status == SEARCH_TOKENS else 2, t)
