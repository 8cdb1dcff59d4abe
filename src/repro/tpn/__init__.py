"""Time Petri net substrate (paper Section 3.1).

Public surface:

* :class:`TimeInterval`, :data:`INF` — static firing intervals;
* :class:`Place`, :class:`Transition`, :class:`Arc`,
  :class:`TimePetriNet`, :func:`net_union` — net construction;
* :class:`CompiledNet` — frozen index-based view;
* :class:`MarkingView` — name-addressed marking inspection;
* :class:`State`, :class:`StateEngine`, :class:`FiringCandidate` — the
  checked reference semantics (Definition 3.1,
  ``ET``/``FT``/``DLB``/``DUB``);
* :class:`TLTS`, :class:`Run`, :class:`Action` — labeled runs and the
  feasibility predicate (Definition 3.2);
* :func:`explore`, :class:`ReachabilityGraph` — bounded state-space
  enumeration;
* analysis helpers (invariants, conservation, classification) and DOT
  export.
"""

from repro.tpn.analysis import (
    BehaviouralReport,
    behavioural_report,
    check_invariants_on_graph,
    classify,
    incidence_matrix,
    invariant_value,
    is_conservative,
    place_invariants,
    transition_invariants,
)
from repro.tpn.dot import net_to_dot, reachability_to_dot
from repro.tpn.interval import INF, TimeInterval
from repro.tpn.marking import MarkingView
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
    net_union,
)
from repro.tpn.reachability import (
    ReachabilityGraph,
    explore,
    find_state,
    reachable_markings,
)
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

__all__ = [
    "Action",
    "Arc",
    "BehaviouralReport",
    "CompiledNet",
    "DISABLED",
    "FiringCandidate",
    "INF",
    "MarkingView",
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
    "behavioural_report",
    "build_state_class_graph",
    "check_invariants_on_graph",
    "classify",
    "explore",
    "find_state",
    "incidence_matrix",
    "invariant_value",
    "is_conservative",
    "net_to_dot",
    "net_union",
    "place_invariants",
    "reachability_to_dot",
    "reachable_markings",
    "realize_firing_sequence",
    "transition_invariants",
]
