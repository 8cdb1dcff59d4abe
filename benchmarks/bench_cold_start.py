"""Experiment COLD1 — the cold one-shot command: start and import.

The paper's tool chain runs one ``ezrt`` process per step (model →
schedule → code, Fig. 6), so the cost of a fresh interpreter importing
the tool is paid on every command.  This bench measures that cold
path in fresh processes with bytecode cached:

1. **Module counts** (hard gate; deterministic): ``import repro.cli``
   loads at most :data:`MAX_IMPORT_MODULES` ``repro`` modules, and
   ``ezrt schedule/codegen/simulate @fig3`` each at most
   :data:`MAX_COMMAND_MODULES`.
2. **Wall time** (recorded, not gated: this host is shared and its
   speed drifts): ``python -c pass``, ``import repro.cli`` and the
   three commands, as the minimum of :data:`REPEATS` runs taken
   strictly interleaved, plus the import's own time measured inside
   the child (against the ≤ :data:`IMPORT_TARGET_MS` ms target).

Results are written to ``BENCH_cold_start.json`` at the repository
root.  Run it as ``PYTHONPATH=src python -m pytest
benchmarks/bench_cold_start.py -q``.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import tempfile
import time

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
SRC = os.path.join(ROOT, "src")
JSON_PATH = os.path.join(ROOT, "BENCH_cold_start.json")

#: ``repro`` modules ``import repro.cli`` may load (74 before the
#: package facades became lazy)
MAX_IMPORT_MODULES = 50
#: ``repro`` modules a one-shot schedule/codegen/simulate may load
MAX_COMMAND_MODULES = 55
#: the import-time target, reported against, never gated
IMPORT_TARGET_MS = 50.0
REPEATS = 15
#: the one-shot commands, as named in :func:`_cases`
COMMANDS = ("schedule @fig3", "codegen @fig3", "simulate @fig3")

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


def _wall_ms(argv: list[str], env: dict, cwd: str) -> float:
    started = time.perf_counter()
    _run(argv, env, cwd)
    return (time.perf_counter() - started) * 1000.0


def _loaded_modules(code: str, argv: list[str], env: dict, cwd: str) -> set:
    argv = [sys.executable, "-c", code, *argv]
    return set(json.loads(_run(argv, env, cwd).stderr))


def _module_counts(env: dict, cwd: str, cases: dict) -> dict:
    """``repro`` modules, and all modules beyond a bare interpreter's."""
    bare = _loaded_modules(
        "import json, sys; print(json.dumps(sorted(sys.modules)), "
        "file=sys.stderr)",
        [],
        env,
        cwd,
    )
    counts = {}
    for name, argv in cases.items():
        loaded = _loaded_modules(_MODULE_PROBE, argv, env, cwd)
        counts[name] = {
            "repro": sum(1 for m in loaded if m.startswith("repro")),
            "beyond_interpreter": len(loaded - bare),
        }
    return counts


def test_cold_start(report):
    with tempfile.TemporaryDirectory(prefix="ezrt-cold-") as workdir:
        env = _environment(os.path.join(workdir, "pycache"))
        cases = _cases(workdir)
        # warm-up: write the bytecode and load the native cores once
        for argv in cases.values():
            _run(argv, env, workdir)
        timed_import = [sys.executable, "-c", _TIMED_IMPORT]
        wall: dict[str, list[float]] = {name: [] for name in cases}
        import_ms: list[float] = []
        for _ in range(REPEATS):
            for name, argv in cases.items():
                wall[name].append(_wall_ms(argv, env, workdir))
            import_ms.append(float(_run(timed_import, env, workdir).stdout))

        # the probe runs each command's argv after ``-m repro.cli``
        probed = {name: cases[name][3:] for name in COMMANDS}
        probed["import repro.cli"] = []
        modules = _module_counts(env, workdir, probed)

    payload = {
        "bench": "cold_start",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
        "pure": os.environ.get("EZRT_PURE") == "1",
        "repeats": REPEATS,
        "wall_ms_min": {name: min(times) for name, times in wall.items()},
        "import_ms_min": min(import_ms),
        "import_target_ms": IMPORT_TARGET_MS,
        "modules": modules,
    }
    with open(JSON_PATH, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")

    report(
        "COLD1",
        "import repro.cli, in-process (ms)",
        f"<= {IMPORT_TARGET_MS:.0f}",
        f"{payload['import_ms_min']:.1f}",
    )
    for name, value in payload["wall_ms_min"].items():
        report("COLD1", f"{name} wall (ms)", "-", f"{value:.1f}")
    for name, counts in modules.items():
        report("COLD1", f"{name} repro modules", "-", counts["repro"])

    assert modules["import repro.cli"]["repro"] <= MAX_IMPORT_MODULES
    for name in COMMANDS:
        assert modules[name]["repro"] <= MAX_COMMAND_MODULES, name
