"""Time Petri net substrate (paper Section 3.1).

Public surface:

* :class:`TimeInterval`, :data:`INF` — static firing intervals;
* :class:`Place`, :class:`Transition`, :class:`Arc`,
  :class:`TimePetriNet` — net construction;
* :class:`CompiledNet` — frozen index-based view;
* :class:`State`, :class:`StateEngine`, :class:`FiringCandidate` — the
  checked reference semantics (Definition 3.1,
  ``ET``/``FT``/``DLB``/``DUB``);
* :class:`TLTS`, :class:`Run`, :class:`Action` — labeled runs and the
  feasibility predicate (Definition 3.2);
* :func:`explore`, :class:`ReachabilityGraph` — bounded state-space
  enumeration;
* place invariants and their cross-check on an explored graph.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.tpn.analysis import (
        check_invariants_on_graph,
        incidence_matrix,
        invariant_value,
        place_invariants,
    )
    from repro.tpn.interval import INF, TimeInterval
    from repro.tpn.net import (
        Arc,
        CompiledNet,
        Place,
        ROLE_ARRIVAL,
        ROLE_COMPUTE,
        ROLE_DEADLINE_MISS,
        ROLE_DEADLINE_OK,
        ROLE_EXCLUSION,
        ROLE_FINISH,
        ROLE_FORK,
        ROLE_GRANT,
        ROLE_JOIN,
        ROLE_MESSAGE,
        ROLE_PHASE,
        ROLE_PRECEDENCE,
        ROLE_RELEASE,
        TimePetriNet,
        Transition,
    )
    from repro.tpn.reachability import ReachabilityGraph, explore
    from repro.tpn.stateclass import (
        RealizedSchedule,
        StateClass,
        StateClassEngine,
        StateClassGraph,
        build_state_class_graph,
        realize_firing_sequence,
    )
    from repro.tpn.state import (
        DISABLED,
        FiringCandidate,
        RESET_POLICIES,
        State,
        StateEngine,
    )
    from repro.tpn.tlts import TLTS, Action, Run
else:
    __getattr__, __dir__ = lazy_exports(
        __name__,
        {
            "repro.tpn.analysis": (
                "check_invariants_on_graph incidence_matrix "
                "invariant_value place_invariants"
            ),
            "repro.tpn.interval": "INF TimeInterval",
            "repro.tpn.net": (
                "Arc CompiledNet Place ROLE_ARRIVAL ROLE_COMPUTE "
                "ROLE_DEADLINE_MISS ROLE_DEADLINE_OK ROLE_EXCLUSION "
                "ROLE_FINISH ROLE_FORK ROLE_GRANT ROLE_JOIN "
                "ROLE_MESSAGE ROLE_PHASE ROLE_PRECEDENCE ROLE_RELEASE "
                "TimePetriNet Transition"
            ),
            "repro.tpn.reachability": "ReachabilityGraph explore",
            "repro.tpn.stateclass": (
                "RealizedSchedule StateClass StateClassEngine "
                "StateClassGraph build_state_class_graph "
                "realize_firing_sequence"
            ),
            "repro.tpn.state": (
                "DISABLED FiringCandidate RESET_POLICIES State "
                "StateEngine"
            ),
            "repro.tpn.tlts": "TLTS Action Run",
        },
    )

__all__ = [
    "Action",
    "Arc",
    "CompiledNet",
    "DISABLED",
    "FiringCandidate",
    "INF",
    "Place",
    "ROLE_ARRIVAL",
    "ROLE_COMPUTE",
    "ROLE_DEADLINE_MISS",
    "ROLE_DEADLINE_OK",
    "ROLE_EXCLUSION",
    "ROLE_FINISH",
    "ROLE_FORK",
    "ROLE_GRANT",
    "ROLE_JOIN",
    "ROLE_MESSAGE",
    "ROLE_PHASE",
    "ROLE_PRECEDENCE",
    "ROLE_RELEASE",
    "RESET_POLICIES",
    "ReachabilityGraph",
    "Run",
    "State",
    "RealizedSchedule",
    "StateClass",
    "StateClassEngine",
    "StateClassGraph",
    "StateEngine",
    "TLTS",
    "TimeInterval",
    "TimePetriNet",
    "Transition",
    "build_state_class_graph",
    "check_invariants_on_graph",
    "explore",
    "incidence_matrix",
    "invariant_value",
    "place_invariants",
    "realize_firing_sequence",
]
