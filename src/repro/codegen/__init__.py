"""Scheduled C code generation (paper Section 4.4.2)."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.codegen.dispatcher import (
        render_dispatcher,
        render_main,
        render_tasks_header,
        render_tasks_source,
    )
    from repro.codegen.generator import GeneratedProject, generate_project
    from repro.codegen.schedule_table import (
        render_paper_style,
        render_schedule_header,
        render_schedule_source,
    )
    from repro.codegen.targets import (
        ARM9,
        HOSTSIM,
        I8051,
        M68K,
        TARGETS,
        TargetProfile,
        X86,
        get_target,
    )
    from repro.codegen.templates import (
        banner,
        block_comment,
        c_identifier,
        include_guard,
        indent,
    )
else:
    __getattr__, __dir__ = lazy_exports(
        __name__,
        {
            "repro.codegen.dispatcher": (
                "render_dispatcher render_main render_tasks_header "
                "render_tasks_source"
            ),
            "repro.codegen.generator": "GeneratedProject generate_project",
            "repro.codegen.schedule_table": (
                "render_paper_style render_schedule_header "
                "render_schedule_source"
            ),
            "repro.codegen.targets": (
                "ARM9 HOSTSIM I8051 M68K TARGETS TargetProfile X86 "
                "get_target"
            ),
            "repro.codegen.templates": (
                "banner block_comment c_identifier include_guard "
                "indent"
            ),
        },
    )

__all__ = [
    "ARM9",
    "GeneratedProject",
    "HOSTSIM",
    "I8051",
    "M68K",
    "TARGETS",
    "TargetProfile",
    "X86",
    "banner",
    "block_comment",
    "c_identifier",
    "generate_project",
    "get_target",
    "include_guard",
    "indent",
    "render_dispatcher",
    "render_main",
    "render_paper_style",
    "render_schedule_header",
    "render_schedule_source",
    "render_tasks_header",
    "render_tasks_source",
]
