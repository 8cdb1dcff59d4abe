"""Experiment COLD1 — the cold one-shot command: start and import.

The paper's tool chain runs one ``ezrt`` process per step (model →
schedule → code, Fig. 6), so the cost of a fresh interpreter importing
the tool is paid on every command.  This bench measures that cold
path in fresh processes with bytecode cached:

1. **Module counts** (hard gate; deterministic): ``import repro.cli``
   loads at most :data:`MAX_IMPORT_MODULES` ``repro`` modules,
   ``ezrt export/validate @fig3`` each at most
   :data:`MAX_SPEC_MODULES` and ``ezrt schedule/codegen/simulate
   @fig3`` each at most :data:`MAX_COMMAND_MODULES`.
2. **Wall time** (recorded, not gated: this host is shared and its
   speed drifts): ``python -c pass``, ``import repro.cli`` and the
   five commands, as the minimum of :data:`REPEATS` runs taken
   strictly interleaved after a warm-up run that writes the bytecode
   (:func:`harness.measure`), plus the import's own time measured
   inside the child (against the ≤ :data:`IMPORT_TARGET_MS` ms
   target).
3. **Exit** (recorded, not gated): per command, the time from
   ``main``'s return to the parent's ``wait``, through the
   ``repro.cli.run`` entry point.  The child prints its
   ``time.perf_counter()`` as ``main`` returns; on Linux that clock is
   ``CLOCK_MONOTONIC``, shared by every process, so the parent's own
   reading after the wait is comparable.

Results are written to ``BENCH_cold_start.json`` at the repository
root (:func:`harness.write_bench`): one ``cold`` row per case (layer
``process``, the child's wall time), one for the in-child import
(layer ``import``) and one per command for its exit (layer
``exit``); the module counts are the gates.  Run it as
``PYTHONPATH=src python -m pytest benchmarks/bench_cold_start.py -q``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time

from harness import ROOT, gate, measure, row, write_bench

SRC = os.path.join(ROOT, "src")

#: ``repro`` modules ``import repro.cli`` may load (74 before the
#: package facades became lazy, 44 before the CLI's own names did; 4)
MAX_IMPORT_MODULES = 5
#: ``repro`` modules ``ezrt export/validate`` may load (the spec
#: package only; 9-10)
MAX_SPEC_MODULES = 12
#: ``repro`` modules a one-shot schedule/codegen/simulate may load
#: (40-44)
MAX_COMMAND_MODULES = 46
#: the import-time target, reported against, never gated
IMPORT_TARGET_MS = 50.0
REPEATS = 15
#: the one-shot commands, as named in :func:`_cases`, each with the
#: ``repro`` modules it may load
COMMANDS = {
    "export @fig3": MAX_SPEC_MODULES,
    "validate @fig3": MAX_SPEC_MODULES,
    "schedule @fig3": MAX_COMMAND_MODULES,
    "codegen @fig3": MAX_COMMAND_MODULES,
    "simulate @fig3": MAX_COMMAND_MODULES,
}

#: prints the milliseconds ``import repro.cli`` takes inside the child
_TIMED_IMPORT = (
    "import time\n"
    "started = time.perf_counter()\n"
    "import repro.cli\n"
    "print((time.perf_counter() - started) * 1000.0)"
)

#: runs ``repro.cli.main`` on argv[1:] (only imports without) and
#: prints the loaded module names as JSON on stderr
_MODULE_PROBE = (
    "import json, sys\n"
    "import repro.cli\n"
    "if sys.argv[1:]:\n"
    "    assert repro.cli.main(sys.argv[1:]) == 0\n"
    "print(json.dumps(sorted(sys.modules)), file=sys.stderr)"
)

#: runs ``repro.cli.run`` on argv[1:] with ``main`` wrapped to print
#: the ``perf_counter`` reading at its return as the last stderr line
_EXIT_PROBE = (
    "import sys, time\n"
    "import repro.cli\n"
    "main = repro.cli.main\n"
    "def stamped(argv=None):\n"
    "    rc = main(argv)\n"
    "    print(repr(time.perf_counter()), file=sys.stderr, flush=True)\n"
    "    return rc\n"
    "repro.cli.main = stamped\n"
    "repro.cli.run()"
)


def _environment(pycache: str) -> dict:
    """The caller's environment with bytecode cached under ``pycache``."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = pycache
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    return env


def _cases(workdir: str) -> dict[str, list[str]]:
    python = sys.executable
    cli = [python, "-m", "repro.cli"]
    return {
        "python -c pass": [python, "-c", "pass"],
        "import repro.cli": [python, "-c", "import repro.cli"],
        "export @fig3": [
            *cli,
            "export",
            "@fig3",
            "-o",
            os.path.join(workdir, "fig3.xml"),
        ],
        "validate @fig3": [*cli, "validate", "@fig3"],
        "schedule @fig3": [*cli, "schedule", "@fig3"],
        "codegen @fig3": [
            *cli,
            "codegen",
            "@fig3",
            "-o",
            os.path.join(workdir, "gen"),
        ],
        "simulate @fig3": [*cli, "simulate", "@fig3"],
    }


def _run(argv: list[str], env: dict, cwd: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        argv,
        env=env,
        cwd=cwd,
        check=True,
        capture_output=True,
        text=True,
        timeout=120,
    )


def _repro_modules(argv: list[str], env: dict, cwd: str) -> int:
    """``repro`` modules the probe loads running ``argv``."""
    probe = [sys.executable, "-c", _MODULE_PROBE, *argv]
    loaded = json.loads(_run(probe, env, cwd).stderr)
    return sum(1 for m in loaded if m.startswith("repro"))


def test_cold_start(report):
    with tempfile.TemporaryDirectory(prefix="ezrt-cold-") as workdir:
        env = _environment(os.path.join(workdir, "pycache"))
        cases = _cases(workdir)
        import_ms: list[float] = []

        def timed_import():
            argv = [sys.executable, "-c", _TIMED_IMPORT]
            import_ms.append(float(_run(argv, env, workdir).stdout))

        # each command's argv after ``-m repro.cli``
        probed = {name: cases[name][3:] for name in COMMANDS}
        exit_ms: dict[str, list[float]] = {name: [] for name in COMMANDS}

        def timed_exit(name):
            argv = [sys.executable, "-c", _EXIT_PROBE, *probed[name]]
            stamp = _run(argv, env, workdir).stderr.splitlines()[-1]
            waited = time.perf_counter()
            exit_ms[name].append((waited - float(stamp)) * 1000.0)

        variants = {
            name: (lambda argv=argv: _run(argv, env, workdir))
            for name, argv in cases.items()
        }
        variants["timed import"] = timed_import
        for name in COMMANDS:
            variants[f"exit {name}"] = lambda name=name: timed_exit(name)
        _, wall = measure(variants, REPEATS)

        probed["import repro.cli"] = []
        modules = {
            name: _repro_modules(argv, env, workdir)
            for name, argv in probed.items()
        }

    rows = [
        row(name, "cold", "process", seconds=min(wall[name]))
        for name in cases
    ]
    for entry in rows:
        report(
            "COLD1",
            f"{entry['workload']} wall (ms)",
            "-",
            f"{entry['seconds'] * 1000.0:.1f}",
        )
    rows.append(
        row("import repro.cli", "cold", "import",
            seconds=min(import_ms) / 1000.0)
    )
    report(
        "COLD1",
        "import repro.cli, in-process (ms)",
        f"<= {IMPORT_TARGET_MS:.0f}",
        f"{min(import_ms):.1f}",
    )
    for name, samples in exit_ms.items():
        rows.append(row(name, "cold", "exit", seconds=min(samples) / 1000.0))
        report(
            "COLD1",
            f"{name} exit (ms)",
            "-",
            f"{min(samples):.1f}",
        )
    bounds = {"import repro.cli": MAX_IMPORT_MODULES, **COMMANDS}
    gates = []
    for name, count in modules.items():
        report("COLD1", f"{name} repro modules", "-", count)
        bound = bounds[name]
        gates.append(
            gate(f"repro_modules:{name}", bound, count, count <= bound)
        )
    write_bench("cold_start", rows, gates)
