"""The kernel's additive state key on whole reachable state spaces.

The packed kernel keys a state by the sum of ``coef[i] * word[i]`` mod
2**64 over its marking and clock words, and each firing updates that
sum incrementally (``kn_successor``).  The visited table only trusts a
key to pick a bucket — a key match is confirmed on the buffers — so a
wrong key would lose states silently rather than fail loudly.  This
suite walks the reachable states of the paper models through
:meth:`~repro.tpn.kernel.KernelEngine.successor`, under both clock-reset
policies, and checks on every generated state that:

* the incremental key equals the from-scratch
  :meth:`~repro.tpn.kernel.KernelEngine.full_hash`;
* distinct packed states have distinct keys.

It is the kernel twin of ``tests/test_dbm.py``'s ``dc_hash`` check and
pins no key values.
"""

from __future__ import annotations

import pytest

from repro.blocks import compose
from repro.spec import paper_examples
from repro.tpn import _kernelc
from repro.tpn.kernel import KernelEngine

pytestmark = pytest.mark.skipif(
    _kernelc.load() is None,
    reason="the native core is not live (EZRT_PURE=1 or no compiler)",
)

RESETS = ("paper", "intermediate")

#: States walked per net and policy, ``None`` for the whole space.
#: Every integer delay of every candidate is fired ("full"), so fig3,
#: fig4 and fig8 are walked to exhaustion (24,349, 162,723 and 5,074
#: states); mine-pump's space passes 400,000 states and is capped.
LIMITS = {"fig3": None, "fig4": None, "fig8": None, "mine-pump": 30_000}


@pytest.fixture(scope="module")
def nets():
    return {
        name: compose(spec).compiled()
        for name, spec in paper_examples().items()
    }


def _walk(net, reset_policy, limit):
    """Depth-first over the states the candidate pipeline reaches under
    every delay, up to ``limit`` states; returns the states seen (a set
    keyed by the state key, confirmed on the buffers) and whether the
    walk was exhaustive."""
    engine = KernelEngine(net, reset_policy=reset_policy)
    root = engine.initial()
    assert root._hash == engine.full_hash(root.marking, root.clk)
    seen = {root}
    stack = [root]
    while stack:
        state = stack.pop()
        cands, _reduced = engine.candidates(state, False, False, "full")
        for t, q in cands:
            child = engine.successor(state, t, q)
            assert child._hash == engine.full_hash(
                child.marking, child.clk
            ), f"incremental key drifted firing ({t}, {q}) from {state}"
            if child not in seen:
                if len(seen) == limit:
                    return seen, False
                seen.add(child)
                stack.append(child)
    return seen, True


@pytest.mark.parametrize("reset_policy", RESETS)
@pytest.mark.parametrize("name", LIMITS)
def test_incremental_keys_are_exact_and_collision_free(
    nets, name, reset_policy
):
    limit = LIMITS[name]
    seen, exhausted = _walk(nets[name], reset_policy, limit)
    assert exhausted == (limit is None), name
    keys = {state._hash for state in seen}
    assert len(keys) == len(seen), (
        f"{name}: {len(seen) - len(keys)} key collisions among "
        f"{len(seen)} states"
    )
