"""Building blocks and spec→TPN composition (paper Sections 3.3, 4.3)."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.blocks.blocks import (
        BlockStyle,
        DEADLINE_MISS_PRIORITY,
        DECISION_PRIORITY,
        RELEASE_PRIORITY,
        STRUCTURAL_PRIORITY,
        TaskNodes,
        add_bus_block,
        add_fork_block,
        add_join_block,
        add_processor_block,
        add_task_blocks,
        firings_per_instance,
        minimum_schedule_firings,
        sanitize,
    )
    from repro.blocks.composer import (
        ComposedModel,
        ComposerOptions,
        PRIORITY_POLICIES,
        compose,
        task_ranks,
    )
    from repro.blocks.relations import (
        ROLE_GATE,
        add_exclusion_relation,
        add_message_relation,
        add_precedence_relation,
        ensure_gate,
        exclusion_place_name,
        precedence_place_name,
    )
else:
    __getattr__, __dir__ = lazy_exports(
        __name__,
        {
            "repro.blocks.blocks": (
                "BlockStyle DEADLINE_MISS_PRIORITY DECISION_PRIORITY "
                "RELEASE_PRIORITY STRUCTURAL_PRIORITY TaskNodes "
                "add_bus_block add_fork_block add_join_block "
                "add_processor_block add_task_blocks "
                "firings_per_instance minimum_schedule_firings "
                "sanitize"
            ),
            "repro.blocks.composer": (
                "ComposedModel ComposerOptions PRIORITY_POLICIES "
                "compose task_ranks"
            ),
            "repro.blocks.relations": (
                "ROLE_GATE add_exclusion_relation add_message_relation "
                "add_precedence_relation ensure_gate "
                "exclusion_place_name precedence_place_name"
            ),
        },
    )

__all__ = [
    "BlockStyle",
    "ComposedModel",
    "ComposerOptions",
    "DEADLINE_MISS_PRIORITY",
    "DECISION_PRIORITY",
    "PRIORITY_POLICIES",
    "RELEASE_PRIORITY",
    "ROLE_GATE",
    "STRUCTURAL_PRIORITY",
    "TaskNodes",
    "add_bus_block",
    "add_exclusion_relation",
    "add_fork_block",
    "add_join_block",
    "add_message_relation",
    "add_precedence_relation",
    "add_processor_block",
    "add_task_blocks",
    "compose",
    "ensure_gate",
    "exclusion_place_name",
    "firings_per_instance",
    "minimum_schedule_firings",
    "precedence_place_name",
    "sanitize",
    "task_ranks",
]
