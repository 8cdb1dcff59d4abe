"""PNML (ISO/IEC 15909-2) interchange for time Petri nets."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.pnml.reader import load, loads
    from repro.pnml.schema import PNML_NS, PTNET_TYPE, TOOL_NAME, TOOL_VERSION
    from repro.pnml.writer import dumps, save
else:
    __getattr__, __dir__ = lazy_exports(
        __name__,
        {
            "repro.pnml.reader": "load loads",
            "repro.pnml.schema": "PNML_NS PTNET_TYPE TOOL_NAME TOOL_VERSION",
            "repro.pnml.writer": "dumps save",
        },
    )

__all__ = [
    "PNML_NS",
    "PTNET_TYPE",
    "TOOL_NAME",
    "TOOL_VERSION",
    "dumps",
    "load",
    "loads",
    "save",
]
