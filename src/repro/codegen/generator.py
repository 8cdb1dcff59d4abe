"""Whole-project scheduled-code generation.

Bundles the emitters into a generated project: schedule table, task
bodies, dispatcher + ISR, entry point, build file and a README — the
"timely and predictable scheduled C code" the tool synthesises.
"""

from __future__ import annotations

import os

from repro._record import Record
from repro.errors import CodeGenError
from repro.blocks.composer import ComposedModel
from repro.codegen.dispatcher import (
    render_dispatcher,
    render_main,
    render_tasks_header,
    render_tasks_source,
)
from repro.codegen.schedule_table import (
    render_schedule_header,
    render_schedule_source,
)
from repro.codegen.targets import TargetProfile, get_target
from repro.scheduler.schedule import TaskLevelSchedule


class GeneratedProject(Record):
    """A generated scheduled-code project (file name → content)."""

    __slots__ = ("target", "files")

    def __init__(
        self, target: TargetProfile, files: dict[str, str] | None = None
    ) -> None:
        self.target = target
        self.files = {} if files is None else files

    @property
    def source_files(self) -> list[str]:
        return sorted(f for f in self.files if f.endswith(".c"))

    def write(self, directory: str) -> list[str]:
        """Write every file under ``directory``; returns the paths."""
        os.makedirs(directory, exist_ok=True)
        paths = []
        for name, content in self.files.items():
            path = os.path.join(directory, name)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(content)
            paths.append(path)
        return sorted(paths)

    def compile_and_run(
        self, directory: str, cc: str = "cc", timeout: float = 60.0
    ) -> str:
        """Build and execute a runnable project; returns its stdout.

        Only host-simulation targets are runnable; embedded targets
        raise :class:`CodeGenError` (their toolchains are not part of
        this repository — the substitution DESIGN.md documents).
        """
        if not self.target.runnable:
            raise CodeGenError(
                f"target {self.target.name!r} is not runnable on the "
                "host; use the 'hostsim' target or the Python "
                "dispatcher simulator (repro.sim)"
            )
        import subprocess

        self.write(directory)
        binary = os.path.join(directory, "ezrt_app")
        sources = [
            os.path.join(directory, f) for f in self.source_files
        ]
        compile_cmd = [
            cc,
            "-Wall",
            "-Wextra",
            "-Werror",
            "-DEZRT_HOSTSIM",
            "-o",
            binary,
            *sources,
        ]
        build = subprocess.run(
            compile_cmd, capture_output=True, text=True, timeout=timeout
        )
        if build.returncode != 0:
            raise CodeGenError(
                f"generated project failed to compile:\n{build.stderr}"
            )
        run = subprocess.run(
            [binary], capture_output=True, text=True, timeout=timeout
        )
        if run.returncode != 0:
            raise CodeGenError(
                f"generated binary failed:\n{run.stderr}"
            )
        return run.stdout


def _render_makefile(project_name: str, target: TargetProfile) -> str:
    define = "-DEZRT_HOSTSIM " if target.runnable else ""
    lines = [
        f"# Generated build file for {project_name} "
        f"(target: {target.name})",
        "CC ?= cc",
        f"CFLAGS ?= -Wall -Wextra {define}-O2",
        "SRC = $(wildcard *.c)",
        "",
        "ezrt_app: $(SRC)",
        "\t$(CC) $(CFLAGS) -o $@ $(SRC)",
        "",
        "clean:",
        "\trm -f ezrt_app",
        "",
        ".PHONY: clean",
        "",
    ]
    return "\n".join(lines)


def _render_readme(
    model: ComposedModel,
    schedule: TaskLevelSchedule,
    target: TargetProfile,
) -> str:
    spec = model.spec
    lines = [
        f"Generated scheduled code for specification '{spec.name}'",
        "=" * 60,
        "",
        f"target           : {target.name} — {target.description}",
        f"schedule period  : {model.schedule_period} time units",
        f"task instances   : {model.total_instances}",
        f"table entries    : {len(schedule.items)}",
        f"processor busy   : {schedule.busy_time()} "
        f"({100.0 * schedule.busy_time() / model.schedule_period:.1f}%)",
        "",
        "Files:",
        "  ezrt_schedule.h/.c  schedule table (struct ScheduleItem)",
        "  ezrt_tasks.h/.c     task entry points and bodies",
        "  ezrt_dispatcher.c   dispatcher + timer interrupt handler",
        "  main.c              timer setup and idle loop",
        "  Makefile            host build (hostsim target only)",
        "",
        "Tasks:",
    ]
    for i, task in enumerate(spec.tasks, start=1):
        lines.append(
            f"  {i}. {task.name}: c={task.computation} "
            f"d={task.deadline} p={task.period} "
            f"{'P' if task.is_preemptive else 'NP'}"
        )
    lines.append("")
    return "\n".join(lines)


def generate_project(
    model: ComposedModel,
    schedule: TaskLevelSchedule,
    target: str | TargetProfile = "hostsim",
) -> GeneratedProject:
    """Generate the full scheduled-code project for a model + schedule."""
    profile = (
        target if isinstance(target, TargetProfile) else get_target(target)
    )
    if not schedule.items:
        raise CodeGenError(
            "cannot generate code from an empty schedule"
        )
    files = {
        "ezrt_schedule.h": render_schedule_header(model, schedule),
        "ezrt_schedule.c": render_schedule_source(model, schedule),
        "ezrt_tasks.h": render_tasks_header(model),
        "ezrt_tasks.c": render_tasks_source(model),
        "ezrt_dispatcher.c": render_dispatcher(model, profile),
        "main.c": render_main(model, profile),
        "Makefile": _render_makefile(model.spec.name, profile),
        "README.txt": _render_readme(model, schedule, profile),
    }
    return GeneratedProject(target=profile, files=files)
