"""Code-generation target profiles.

The paper's future work names several microcontroller/processor
families ("ARM9, 8051, M68K, x86"); each profile here captures the
platform-specific idioms the dispatcher needs — timer-interrupt entry,
context save/restore, timer reprogramming — while the portable parts
(schedule table, dispatcher policy) stay identical.

Only the ``hostsim`` profile is expected to *compile and run* in this
repository (it drives the table from a virtual-clock loop and is
exercised by integration tests with the system C compiler); the
embedded profiles emit the correct source idioms for their toolchains
and are validated structurally.  This is the documented substitution
for real target hardware — the timing semantics of the table itself is
executed and verified by :mod:`repro.sim`.
"""

from __future__ import annotations

from repro._record import FrozenRecord
from repro.errors import CodeGenError


class TargetProfile(FrozenRecord):
    """Platform-specific code idioms for the generated dispatcher.

    Attributes:
        name: profile identifier used by the CLI/codegen API.
        description: one-line human description.
        includes: extra ``#include`` lines for the dispatcher unit.
        isr_signature: function header of the timer interrupt handler.
        timer_setup: statements installing/starting the schedule timer.
        timer_program: statements (re)programming the next match value;
            ``{next}`` is substituted with the C expression of the next
            dispatch time.
        context_save / context_restore: statements around a preemption.
        idle: statement executed while waiting for the next interrupt.
        runnable: True when this repository can compile and execute the
            generated project with the host toolchain.
    """

    __slots__ = (
        "name",
        "description",
        "includes",
        "isr_signature",
        "timer_setup",
        "timer_program",
        "context_save",
        "context_restore",
        "idle",
        "runnable",
    )
    name: str
    description: str
    includes: tuple[str, ...]
    isr_signature: str
    timer_setup: str
    timer_program: str
    context_save: str
    context_restore: str
    idle: str
    runnable: bool

    def __init__(
        self,
        name: str,
        description: str,
        includes: tuple[str, ...],
        isr_signature: str,
        timer_setup: str,
        timer_program: str,
        context_save: str,
        context_restore: str,
        idle: str,
        runnable: bool = False,
    ) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "description", description)
        object.__setattr__(self, "includes", includes)
        object.__setattr__(self, "isr_signature", isr_signature)
        object.__setattr__(self, "timer_setup", timer_setup)
        object.__setattr__(self, "timer_program", timer_program)
        object.__setattr__(self, "context_save", context_save)
        object.__setattr__(self, "context_restore", context_restore)
        object.__setattr__(self, "idle", idle)
        object.__setattr__(self, "runnable", runnable)


HOSTSIM = TargetProfile(
    name="hostsim",
    description=(
        "portable host simulation: a virtual-clock loop replays the "
        "schedule table and logs every dispatch"
    ),
    includes=("#include <stdio.h>",),
    isr_signature="void ezrt_timer_tick(unsigned int now)",
    timer_setup="/* virtual clock driven by main() */",
    timer_program="ezrt_next_match = {next};",
    context_save="ezrt_log_context_save(item->task_id);",
    context_restore="ezrt_log_context_restore(item->task_id);",
    idle="/* virtual time advances in main() */",
    runnable=True,
)

I8051 = TargetProfile(
    name="8051",
    description="Intel 8051 family (Keil C51 idioms, timer 0)",
    includes=("#include <reg51.h>",),
    isr_signature="void ezrt_timer_isr(void) interrupt 1 using 1",
    timer_setup=(
        "TMOD = (TMOD & 0xF0) | 0x01;  /* timer 0, mode 1 */\n"
        "TH0 = EZRT_TIMER_RELOAD_HIGH;\n"
        "TL0 = EZRT_TIMER_RELOAD_LOW;\n"
        "ET0 = 1;  /* enable timer 0 interrupt */\n"
        "EA = 1;   /* global interrupt enable */\n"
        "TR0 = 1;  /* run */"
    ),
    timer_program=(
        "TR0 = 0;\n"
        "ezrt_timer_match = {next};\n"
        "TH0 = (unsigned char)(ezrt_timer_match >> 8);\n"
        "TL0 = (unsigned char)(ezrt_timer_match & 0xFF);\n"
        "TR0 = 1;"
    ),
    context_save=(
        "/* 8051: registers live in the active bank; push PSW/ACC */\n"
        "ezrt_save_bank(item->task_id);"
    ),
    context_restore="ezrt_restore_bank(item->task_id);",
    idle="PCON |= 0x01;  /* IDL: idle mode until interrupt */",
)

ARM9 = TargetProfile(
    name="arm9",
    description="ARM9 (ARM926EJ-S style, VIC + timer peripheral)",
    includes=('#include "arm9_vic.h"', '#include "arm9_timer.h"'),
    isr_signature=(
        'void __attribute__((interrupt("IRQ"))) ezrt_timer_isr(void)'
    ),
    timer_setup=(
        "vic_enable(VIC_TIMER0);\n"
        "timer0_set_mode(TIMER_MATCH_INTERRUPT);\n"
        "timer0_start();"
    ),
    timer_program="timer0_set_match({next});",
    context_save=(
        "/* r0-r12, sp, lr, spsr banked away for the preempted task */\n"
        "ezrt_store_frame(item->task_id);"
    ),
    context_restore="ezrt_load_frame(item->task_id);",
    idle='__asm volatile ("mcr p15, 0, %0, c7, c0, 4" :: "r"(0));',
)

M68K = TargetProfile(
    name="m68k",
    description="Motorola 68000 family (vector 0x19 auto-level timer)",
    includes=('#include "m68k_timer.h"',),
    isr_signature=(
        "__attribute__((interrupt_handler)) void ezrt_timer_isr(void)"
    ),
    timer_setup=(
        "*(volatile unsigned short *)TIMER_CTRL = TIMER_ENABLE;\n"
        "m68k_set_vector(TIMER_VECTOR, ezrt_timer_isr);"
    ),
    timer_program=(
        "*(volatile unsigned long *)TIMER_MATCH = {next};"
    ),
    context_save=(
        "/* movem.l d0-d7/a0-a6 handled by the interrupt frame; keep "
        "usp */\n"
        "ezrt_store_usp(item->task_id);"
    ),
    context_restore="ezrt_load_usp(item->task_id);",
    idle='__asm volatile ("stop #0x2000");',
)

X86 = TargetProfile(
    name="x86",
    description="x86 protected mode (PIT channel 0, IRQ0)",
    includes=('#include "x86_pit.h"', '#include "x86_idt.h"'),
    isr_signature=(
        "__attribute__((interrupt)) void ezrt_timer_isr(void *frame)"
    ),
    timer_setup=(
        "idt_install(IRQ0_VECTOR, ezrt_timer_isr);\n"
        "pit_set_mode(PIT_RATE_GENERATOR);\n"
        "pit_set_divisor(EZRT_PIT_DIVISOR);"
    ),
    timer_program="pit_set_match({next});",
    context_save=(
        "/* general registers pushed by the stub; keep esp per task */\n"
        "ezrt_store_esp(item->task_id);"
    ),
    context_restore="ezrt_load_esp(item->task_id);",
    idle='__asm volatile ("hlt");',
)

TARGETS: dict[str, TargetProfile] = {
    profile.name: profile
    for profile in (HOSTSIM, I8051, ARM9, M68K, X86)
}


def get_target(name: str) -> TargetProfile:
    """Look up a target profile by name."""
    try:
        return TARGETS[name]
    except KeyError:
        raise CodeGenError(
            f"unknown codegen target {name!r}; available: "
            f"{sorted(TARGETS)}"
        ) from None
