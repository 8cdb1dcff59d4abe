"""The packed DBM core (ISSUE 10): bit-identity and round trips.

Three engines implement the Berthomieu–Diaz firing rule:

* the tuple-of-tuples :class:`repro.tpn.stateclass.StateClassEngine`,
  whose full Floyd–Warshall re-closure (``_canonical``) is the
  executable specification;
* the pure-Python side of :class:`repro.tpn.dbm.DbmEngine` —
  incremental closure repair over flat ``array('q')`` buffers;
* the compiled C core (:mod:`repro.tpn._dbmc`), reached through the
  same :class:`DbmEngine` when built.

This suite walks seeded class graphs and pins all three to the *same
bits*: identical markings, identical canonical matrices, identical
64-bit Zobrist keys, identical firable sets, windows and ordered
candidate lists, under both clock-reset policies.  It also pins the
construction-time EZT204 bound-cap refusal.
"""

from __future__ import annotations

import itertools

import pytest

from repro.blocks.composer import compose
from repro.errors import SchedulingError
from repro.spec.examples import fig3_precedence, fig4_exclusion
from repro.tpn.dbm import DINF, MAX_BOUND, DbmEngine, PackedClass
from repro.tpn.interval import INF, TimeInterval
from repro.tpn.net import TimePetriNet
from repro.tpn.stateclass import StateClassEngine, _canonical
from repro.workloads import (
    random_task_set,
    wide_interval_job_net,
)

RESETS = ("paper", "intermediate")


def _nets():
    return {
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


def _pure_engine(net, reset_policy) -> DbmEngine:
    """A DbmEngine forced onto the pure-Python path."""
    engine = DbmEngine(net, reset_policy=reset_policy)
    engine._core = None
    engine.native = False
    return engine


def _assert_same_class(packed: PackedClass, spec_cls) -> None:
    """Packed class ≡ tuple-engine class, bit for bit."""
    unpacked = packed.unpack()
    assert unpacked.marking == spec_cls.marking
    assert unpacked.enabled == spec_cls.enabled
    assert unpacked.dbm == spec_cls.dbm


def _walk(net, reset_policy, check, limit=600):
    """Drive the three engines in lockstep over the class graph.

    ``check(packed_a, packed_b, spec_cls)`` sees the same class as
    produced by the default engine (native when built), the forced-pure
    engine and the tuple specification engine.
    """
    default = DbmEngine(net, reset_policy=reset_policy)
    pure = _pure_engine(net, reset_policy)
    spec = StateClassEngine(net, reset_policy=reset_policy)
    frontier = [
        (default.initial_class(), pure.initial_class(),
         spec.initial_class())
    ]
    seen = set()
    visited = 0
    while frontier and visited < limit:
        a, b, s = frontier.pop()
        if a in seen:
            continue
        seen.add(a)
        visited += 1
        check(default, pure, spec, a, b, s)
        for t in spec.firable(s):
            sa = default.try_fire(a, t)
            sb = pure.try_fire(b, t)
            ss = spec.try_fire(s, t)
            assert (sa is None) == (ss is None)
            assert (sb is None) == (ss is None)
            if ss is None:
                continue
            if not net.has_missed_deadline(sa.marking):
                frontier.append((sa, sb, ss))
    assert visited > 1, "walk never left the initial class"
    return visited


class TestClosureBitIdentity:
    """Native vs pure vs Floyd–Warshall spec, across both policies."""

    @pytest.mark.parametrize("reset_policy", RESETS)
    @pytest.mark.parametrize("name", sorted(_nets()))
    def test_successors_match_spec_engine(
        self, nets, name, reset_policy
    ):
        def check(default, pure, spec, a, b, s):
            _assert_same_class(a, s)
            _assert_same_class(b, s)
            assert a == b and hash(a) == hash(b)

        _walk(nets[name], reset_policy, check)

    @pytest.mark.parametrize("reset_policy", RESETS)
    @pytest.mark.parametrize("name", sorted(_nets()))
    def test_closure_is_a_floyd_warshall_fixpoint(
        self, nets, name, reset_policy
    ):
        """Every packed matrix equals its own full FW re-closure —
        the incremental repair never under- or over-tightens."""

        def check(default, pure, spec, a, b, s):
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
        def check(default, pure, spec, a, b, s):
            firable = spec.firable(s)
            assert default.firable(a) == firable
            assert pure.firable(b) == firable
            for t in s.enabled:
                window = spec.fire_window(s, t)
                assert default.fire_window(a, t) == window
                assert pure.fire_window(b, t) == window
                if t in firable:
                    assert a.bounds_of(t) == s.bounds_of(t)

        _walk(nets[name], reset_policy, check, limit=200)

    @pytest.mark.parametrize("reset_policy", RESETS)
    @pytest.mark.parametrize(
        "strict,partial_order",
        list(itertools.product((False, True), repeat=2)),
    )
    def test_candidates_native_matches_pure(
        self, nets, reset_policy, strict, partial_order
    ):
        """The single-call C candidate path (filters + reduction +
        ordering) is bit-identical to the pure enumeration."""

        def check(default, pure, spec, a, b, s):
            got = default.candidates(a, strict, partial_order)
            want = pure.candidates(b, strict, partial_order)
            assert got == want

        for name in ("fig4", "seeded", "wide-infeasible"):
            _walk(nets[name], reset_policy, check, limit=200)


class TestIncrementalHash:
    @pytest.mark.parametrize("reset_policy", RESETS)
    def test_hash_matches_from_scratch_recomputation(
        self, nets, reset_policy
    ):
        """The XOR-maintained key equals a full Zobrist recompute on
        every reachable class (collision-free bookkeeping).  ``hash()``
        folds the raw key modulo 2**61 - 1 (CPython int hashing), so
        the comparison pins the unfolded ``hash64``."""

        def check(default, pure, spec, a, b, s):
            mhash = default._mark_hash(a.marking)
            full = mhash ^ default._dbm_hash(a.dbm, a.size)
            assert a.hash64 == full
            assert b.hash64 == full

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
        assert engine.fire_window(cls, 0) == (1, INF)
