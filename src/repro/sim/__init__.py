"""Simulated execution substrate (hardware substitute, DESIGN.md S14)."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.sim.machine import (
        DispatcherMachine,
        MachineResult,
        run_schedule,
    )
    from repro.sim.netsim import (
        NetSimRun,
        NetSimulator,
        WALK_POLICIES,
        simulate_net,
    )
    from repro.sim.trace import EVENT_KINDS, Trace, TraceEvent
    from repro.sim.verifier import ensure_trace_ok, verify_trace
else:
    __getattr__, __dir__ = lazy_exports(
        __name__,
        {
            "repro.sim.machine": (
                "DispatcherMachine MachineResult run_schedule"
            ),
            "repro.sim.netsim": (
                "NetSimRun NetSimulator WALK_POLICIES simulate_net"
            ),
            "repro.sim.trace": "EVENT_KINDS Trace TraceEvent",
            "repro.sim.verifier": "ensure_trace_ok verify_trace",
        },
    )

__all__ = [
    "DispatcherMachine",
    "EVENT_KINDS",
    "MachineResult",
    "NetSimRun",
    "NetSimulator",
    "Trace",
    "TraceEvent",
    "WALK_POLICIES",
    "ensure_trace_ok",
    "run_schedule",
    "simulate_net",
    "verify_trace",
]
