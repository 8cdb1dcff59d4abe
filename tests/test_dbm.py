"""The packed DBM core (ISSUE 10): bit-identity and round trips.

Two engines implement the Berthomieu–Diaz firing rule:

* the tuple-of-tuples :class:`repro.tpn.stateclass.StateClassEngine`,
  the executable specification (and the ``engine="stateclass"`` path
  without the native core): the same O(n²) incremental closure repair
  per firing, with a full Floyd–Warshall closure (``_canonical``)
  only at the root;
* :class:`repro.tpn.dbm.DbmEngine` — incremental closure repair over
  flat ``array('q')`` buffers in the compiled C core
  (:mod:`repro.tpn._dbmc`).

This suite walks seeded class graphs and pins the two to the *same
bits*: identical markings, identical canonical matrices, identical
firable sets, bounds and ordered candidate lists (against
:class:`~repro.scheduler.core.StateClassSpecAdapter`'s pipeline),
and incremental 64-bit keys equal to their from-scratch
``dc_hash``, under both clock-reset policies.  It also pins the
construction-time EZT204 bound-cap refusal.  The packed engine needs
the native core, so the suite skips without it; the caps it pins are
limits of the packed representation only.
"""

from __future__ import annotations

import itertools

import pytest

from repro.blocks.composer import compose
from repro.errors import SchedulingError
from repro.scheduler.config import SchedulerConfig
from repro.scheduler.core import StateClassSpecAdapter
from repro.scheduler.result import SearchStats
from repro.spec.examples import fig3_precedence, fig4_exclusion
from repro.tpn import _dbmc
from repro.tpn.dbm import DINF, MAX_BOUND, DbmEngine, PackedClass
from repro.tpn.interval import INF, TimeInterval
from repro.tpn.net import TimePetriNet
from repro.tpn.stateclass import StateClassEngine, _canonical
from repro.workloads import (
    random_task_set,
    wide_interval_job_net,
)

pytestmark = pytest.mark.skipif(
    _dbmc.load() is None,
    reason="the native core is not live (EZRT_PURE=1 or no compiler)",
)

RESETS = ("paper", "intermediate")


def bound_edge_net(feasible: bool = True):
    """A one-shot net at the packed bound cap: static bounds equal to
    :data:`MAX_BOUND` beside unbounded LFTs, so canonical entries reach
    ``±MAX_BOUND`` and rows of unbounded variables meet lower bounds of
    ``MAX_BOUND`` in the closure — where an ``int32`` sum would hit the
    :data:`DINF` sentinel.  ``feasible=False`` adds an unreachable final
    place, turning the search into an exhaustive refutation."""
    net = TimePetriNet("bound-edge" if feasible else "bound-edge-refute")
    net.add_place("never")
    for name, interval, src, dst in (
        ("cap", TimeInterval(MAX_BOUND, MAX_BOUND), "a0", "a1"),
        ("open", TimeInterval(MAX_BOUND, INF), "b0", "b1"),
        ("free", TimeInterval(0, INF), "c0", "c1"),
        ("late", TimeInterval(MAX_BOUND, MAX_BOUND), "c1", "c2"),
        ("tick", TimeInterval(1, MAX_BOUND), "d0", "d1"),
    ):
        for place in (src, dst):
            if place not in net:
                net.add_place(place, marking=1 if place.endswith("0") else 0)
        net.add_transition(name, interval)
        net.add_arc(src, name)
        net.add_arc(name, dst)
    final = {"a1": 1, "c2": 1}
    if not feasible:
        final["never"] = 1
    net.set_final_marking(final)
    return net.compile()


def _nets():
    return {
        "bound-edge": bound_edge_net(),
        "fig3": compose(fig3_precedence()).compiled(),
        "fig4": compose(fig4_exclusion()).compiled(),
        "wide-feasible": wide_interval_job_net(feasible=True).compile(),
        "wide-infeasible": wide_interval_job_net(
            feasible=False
        ).compile(),
        "seeded": compose(
            random_task_set(3, 0.6, seed=11, deadline_slack=0.8)
        ).compiled(),
    }


@pytest.fixture(scope="module")
def nets():
    return _nets()


def _assert_same_class(packed: PackedClass, spec_cls) -> None:
    """Packed class ≡ tuple-engine class, bit for bit."""
    unpacked = packed.unpack()
    assert unpacked.marking == spec_cls.marking
    assert unpacked.enabled == spec_cls.enabled
    assert unpacked.dbm == spec_cls.dbm


def _assert_bounded(net, cls: PackedClass) -> None:
    """The ``int32`` bound argument of :data:`MAX_BOUND`, on one class:
    every finite entry lies in ``[-MAX_BOUND, MAX_BOUND]`` and every
    unbounded one is exactly :data:`DINF`; delays are non-negative
    (row 0 is ``<= 0``); a variable with an unbounded LFT has an
    all-``DINF`` row off the diagonal."""
    size = cls.size
    dbm = cls.dbm
    assert all(b == DINF or -MAX_BOUND <= b <= MAX_BOUND for b in dbm)
    assert all(b <= 0 for b in dbm[:size])
    for var, t in enumerate(cls.enabled, start=1):
        if net.lft[t] == INF:
            row = dbm[var * size:(var + 1) * size]
            assert all(b == DINF for i, b in enumerate(row) if i != var)


def _walk(net, reset_policy, check, limit=600):
    """Drive the two engines in lockstep over the class graph.

    ``check(packed, spec, a, s)`` sees the same class as produced by
    the packed engine (``a``) and the tuple specification engine
    (``s``).  Every class the walk meets is also held to the ``int32``
    bound argument (:func:`_assert_bounded`).
    """
    packed = DbmEngine(net, reset_policy=reset_policy)
    spec = StateClassEngine(net, reset_policy=reset_policy)
    frontier = [(packed.initial_class(), spec.initial_class())]
    seen = set()
    visited = 0
    while frontier and visited < limit:
        a, s = frontier.pop()
        if a in seen:
            continue
        seen.add(a)
        visited += 1
        _assert_bounded(net, a)
        check(packed, spec, a, s)
        for t in spec.firable(s):
            sa = packed.try_fire(a, t)
            ss = spec.try_fire(s, t)
            assert (sa is None) == (ss is None)
            if ss is None:
                continue
            if not net.has_missed_deadline(sa.marking):
                frontier.append((sa, ss))
    assert visited > 1, "walk never left the initial class"
    return visited


class TestClosureBitIdentity:
    """Native vs the tuple spec, across both policies."""

    @pytest.mark.parametrize("reset_policy", RESETS)
    @pytest.mark.parametrize("name", sorted(_nets()))
    def test_successors_match_spec_engine(
        self, nets, name, reset_policy
    ):
        def check(packed, spec, a, s):
            _assert_same_class(a, s)
            again = packed.initial_class()
            assert (a == again) == (s == spec.initial_class())

        _walk(nets[name], reset_policy, check)

    @pytest.mark.parametrize("reset_policy", RESETS)
    @pytest.mark.parametrize("name", sorted(_nets()))
    def test_closure_is_a_floyd_warshall_fixpoint(
        self, nets, name, reset_policy
    ):
        """Every packed matrix equals its own full FW re-closure —
        the incremental repair never under- or over-tightens."""

        def check(packed, spec, a, s):
            matrix = [list(row) for row in a.unpack().dbm]
            closed = _canonical(matrix)
            assert closed is not None
            assert tuple(
                tuple(row) for row in closed
            ) == a.unpack().dbm

        _walk(nets[name], reset_policy, check, limit=150)

    @pytest.mark.parametrize("reset_policy", RESETS)
    @pytest.mark.parametrize("name", sorted(_nets()))
    def test_firable_and_windows_match(
        self, nets, name, reset_policy
    ):
        """The packed engine fires exactly the spec's firable set, and
        every enabled transition has the spec's bounds, whose lower
        end opens the spec's firing window."""

        def check(packed, spec, a, s):
            firable = spec.firable(s)
            for t in s.enabled:
                assert (packed.try_fire(a, t) is not None) == (
                    t in firable
                )
                assert a.bounds_of(t) == s.bounds_of(t)
                window = spec.fire_window(s, t)
                assert (window is not None) == (t in firable)
                if window is not None:
                    assert window[0] == a.bounds_of(t)[0]

        _walk(nets[name], reset_policy, check, limit=200)

    @pytest.mark.parametrize("reset_policy", RESETS)
    @pytest.mark.parametrize(
        "strict,partial_order",
        list(itertools.product((False, True), repeat=2)),
    )
    def test_candidates_native_matches_spec(
        self, nets, reset_policy, strict, partial_order
    ):
        """The single-call C candidate path (filters + reduction +
        ordering) is identical to the spec adapter's enumeration."""
        config = SchedulerConfig(
            engine="stateclass",
            reset_policy=reset_policy,
            priority_mode="strict" if strict else "ordered",
            partial_order=partial_order,
        )

        for name in ("fig4", "seeded", "wide-infeasible"):
            adapter = StateClassSpecAdapter(nets[name], config)

            def check(packed, spec, a, s):
                stats = SearchStats()
                want = adapter.candidates_of(s, stats)
                got = packed.candidates(a, strict, partial_order)
                assert got == (want, bool(stats.reductions))

            _walk(nets[name], reset_policy, check, limit=200)


class TestIncrementalHash:
    @pytest.mark.parametrize("reset_policy", RESETS)
    def test_hash_matches_from_scratch_recomputation(
        self, nets, reset_policy
    ):
        """The incrementally maintained key equals a full recompute
        (``dc_hash``) on every reachable class (collision-free
        bookkeeping).  ``hash()`` folds the raw key modulo 2**61 - 1
        (CPython int hashing), so the comparison pins the unfolded
        ``hash64``."""

        def check(packed, spec, a, s):
            mhash, full = packed.core.keys(a.marking, a.dbm, a.size)
            assert a._mhash == mhash
            assert a.hash64 == full

        _walk(nets["seeded"], reset_policy, check, limit=300)


class TestBoundCap:
    def test_wide_static_interval_is_refused(self):
        net = TimePetriNet("wide")
        net.add_place("p0", marking=1)
        net.add_place("p1")
        net.add_transition(
            "t0", interval=TimeInterval(0, MAX_BOUND + 1)
        )
        net.add_arc("p0", "t0")
        net.add_arc("t0", "p1")
        with pytest.raises(SchedulingError, match="EZT204"):
            DbmEngine(net.compile())

    def test_unbounded_interval_is_fine(self):
        net = TimePetriNet("open")
        net.add_place("p0", marking=1)
        net.add_place("p1")
        net.add_transition("t0", interval=TimeInterval(1, INF))
        net.add_arc("p0", "t0")
        net.add_arc("t0", "p1")
        engine = DbmEngine(net.compile())
        cls = engine.initial_class()
        # INF maps onto the DINF sentinel, not a saturated bound
        assert cls.dbm[cls.size] == DINF
        assert cls.bounds_of(0) == (1, INF)
