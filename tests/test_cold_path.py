"""The cold path: a one-shot ``ezrt`` command loads only what it runs.

The paper's tool chain is one ``ezrt`` process per step (model →
schedule → code), so import is a large share of every command.  The
package facades resolve their names lazily and so does ``repro.cli``,
name by name on first use; these tests pin the result:

* ``import repro.cli`` alone loads at most 5 ``repro`` modules and no
  pipeline stage (spec, blocks, net, search, analysis, codegen, sim,
  obs), nor ``dataclasses``;
* each one-shot command, run in a fresh interpreter, loads none of
  the batch engine, the service, PNML, the code lint pack, the
  parallel and baseline schedulers, the net analysis tools, the
  dense engine, the process-pool and socket stacks, ``json``,
  ``hashlib`` (OpenSSL), ``dataclasses`` or ``inspect`` (with the
  ``ast``, ``dis`` and ``tokenize`` it loads), and no stage it does
  not run: ``export``, ``validate`` and ``examples`` no search,
  ``schedule`` neither the code generator nor the simulator,
  ``codegen`` no simulator and ``simulate`` no code generator;
* such a command defines no dataclass: the value types it loads,
  ``SchedulerConfig`` included, are slot classes (``repro._record``),
  so no method is generated through ``exec`` at import (a command
  that does load ``dataclasses``, ``--engine stateclass``, shows that
  the probe counts them);
* the pipeline runs as ``python -m repro.cli``, where the CLI module
  is ``__main__``;
* every layer the benchmark's traced pass wraps on ``repro.cli`` is
  still called through the module attribute it wraps;
* ``main`` builds only the named subcommand's arguments, yet every
  ``--help`` page is byte-identical to the full parser's.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import importlib.util
import io
import os
import subprocess
import sys

import pytest

from repro import cli

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
SRC = os.path.join(REPO_ROOT, "src")

#: modules (and their submodules) no one-shot command may load
FORBIDDEN = (
    "repro.batch",
    "repro.service",
    "repro.pnml",
    "repro.lint.coderules",
    "repro.scheduler.parallel",
    "repro.scheduler.baselines",
    "repro.tpn.analysis",
    "repro.tpn.dbm",
    "repro.tpn.stateclass",
    "repro.tpn.reachability",
    "repro.tpn.tlts",
    "repro.workloads",
    "multiprocessing",
    "concurrent.futures",
    "asyncio",
    "socket",
    "json",
    "hashlib",
    "_hashlib",
    "dataclasses",
    "inspect",
    "ast",
    "dis",
    "tokenize",
)

#: the dataclasses a one-shot command may define: none, so that it
#: never imports ``dataclasses`` (~9 ms, most of it ``inspect``)
ALLOWED_DATACLASSES: frozenset[str] = frozenset()

#: ``repro`` modules ``import repro.cli`` may load (it loads 4:
#: ``repro``, ``repro._lazy``, ``repro.errors`` and itself)
MAX_IMPORT_MODULES = 5

#: the search and everything after it
_SEARCH_STAGES = (
    "repro.blocks",
    "repro.tpn",
    "repro.scheduler",
    "repro.analysis",
    "repro.codegen",
    "repro.sim",
)

#: the stages (and their submodules) each command does not run, so
#: must not load; ``None`` is the bare ``import repro.cli``
NOT_RUN = {
    None: (
        "repro.spec",
        *_SEARCH_STAGES,
        "repro.obs",
        "dataclasses",
    ),
    "export": _SEARCH_STAGES,
    "validate": _SEARCH_STAGES,
    "examples": _SEARCH_STAGES,
    "lint": ("repro.codegen", "repro.sim"),
    "schedule": ("repro.codegen", "repro.sim"),
    "codegen": ("repro.sim",),
    "simulate": ("repro.codegen",),
}

#: runs ``repro.cli.main`` on argv[2:] (or only imports the CLI when
#: there are none), then writes the loaded module names to argv[1]
#: and the dataclasses the loaded ``repro`` modules define to
#: argv[1] + ".dataclasses"
_PROBE = """
import sys
import repro.cli
if sys.argv[2:]:
    rc = repro.cli.main(sys.argv[2:])
    assert rc == 0, rc
loaded = sorted(sys.modules)
dataclasses = sys.modules.get("dataclasses")
defined = sorted(
    f"{name}.{value.__qualname__}"
    for name in loaded
    if name.startswith("repro") and dataclasses is not None
    for value in vars(sys.modules[name]).values()
    if isinstance(value, type)
    and value.__module__ == name
    and dataclasses.is_dataclass(value)
)
with open(sys.argv[1], "w") as out:
    out.write("\\n".join(loaded))
with open(sys.argv[1] + ".dataclasses", "w") as out:
    out.write("\\n".join(defined))
"""


def _probe_env() -> dict[str, str]:
    """The environment of a fresh ``ezrt`` process: this one's, with
    ``src/`` first on the path (``EZRT_KERNEL_CACHE`` carried over)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    return env


@pytest.fixture(scope="module", autouse=True)
def _native_core_built():
    """Build the native core before any probe runs.

    On a cold cache the first probe's ``ezrt schedule`` would compile
    the core through cffi, which loads ``ast`` and more modules the
    pins forbid; a one-shot command on a built core loads none of
    them.  The build runs once, in a fresh interpreter with the
    probes' environment, so it fills the cache they read.
    """
    subprocess.run(
        [
            sys.executable,
            "-c",
            "from repro.tpn._native import CORE; CORE.load()",
        ],
        env=_probe_env(),
        check=True,
        capture_output=True,
        timeout=600,
    )


def _loaded_modules(tmp_path, *argv: str) -> set[str]:
    """Modules a fresh interpreter holds after the probe runs ``argv``
    (the dataclasses it defined: :func:`_defined_dataclasses`)."""
    out = tmp_path / "modules.txt"
    subprocess.run(
        [sys.executable, "-c", _PROBE, str(out), *argv],
        cwd=tmp_path,
        env=_probe_env(),
        check=True,
        capture_output=True,
        timeout=120,
    )
    return set(out.read_text().split())


def _defined_dataclasses(tmp_path) -> set[str]:
    """Dataclasses of the ``repro`` modules the last probe loaded."""
    return set((tmp_path / "modules.txt.dataclasses").read_text().split())


@functools.lru_cache(maxsize=1)
def _interpreter_baseline() -> frozenset[str]:
    """What a bare interpreter loads here (site hooks included)."""
    done = subprocess.run(
        [sys.executable, "-c", "import sys; print(*sys.modules)"],
        check=True,
        capture_output=True,
        text=True,
        timeout=60,
    )
    return frozenset(done.stdout.split())


def _forbidden(modules: set[str], banned=FORBIDDEN) -> list[str]:
    extra = modules - _interpreter_baseline()
    return sorted(
        name
        for name in extra
        for prefix in banned
        if name == prefix or name.startswith(prefix + ".")
    )


@pytest.mark.parametrize(
    "argv",
    [
        ("schedule", "@fig3"),
        ("codegen", "@fig3", "-o", "generated"),
        ("simulate", "@fig3"),
        ("validate", "@fig3"),
        ("export", "@fig3", "-o", "fig3.xml"),
        ("examples",),
        ("lint", "@fig3"),
    ],
    ids=lambda argv: argv[0],
)
def test_one_shot_command_loads_only_its_pipeline(tmp_path, argv):
    modules = _loaded_modules(tmp_path, *argv)
    assert "repro.cli" in modules
    assert _forbidden(modules) == []
    assert _forbidden(modules, NOT_RUN[argv[0]]) == []
    assert _defined_dataclasses(tmp_path) == ALLOWED_DATACLASSES


def test_probe_counts_the_dataclasses_a_command_defines(tmp_path):
    # the dense engine's module still defines dataclasses, so its
    # command loads `dataclasses`; `SchedulerConfig` then answers to
    # `is_dataclass` through its `__dataclass_fields__` shim
    modules = _loaded_modules(
        tmp_path, "schedule", "@fig3", "--engine", "stateclass"
    )
    assert "dataclasses" in modules
    defined = _defined_dataclasses(tmp_path)
    assert "repro.tpn.stateclass.StateClass" in defined
    assert "repro.scheduler.config.SchedulerConfig" in defined


def test_import_cli_module_budget(tmp_path):
    modules = _loaded_modules(tmp_path)
    repro_modules = sorted(m for m in modules if m.startswith("repro"))
    assert len(repro_modules) <= MAX_IMPORT_MODULES, repro_modules
    assert _forbidden(modules) == []
    assert _forbidden(modules, NOT_RUN[None]) == []


def test_pipeline_runs_as_main_module(tmp_path):
    # the path the benchmark's untraced ops take: each step a fresh
    # `python -m repro.cli`, so the CLI module runs as `__main__`
    env = _probe_env()

    def ezrt(*argv: str) -> str:
        done = subprocess.run(
            [sys.executable, "-m", "repro.cli", *argv],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        return done.stdout

    assert ezrt("export", "@fig3", "-o", "f.xml") == "wrote f.xml\n"
    assert "states visited" in ezrt("schedule", "f.xml")
    assert "generated 8 file(s) in gen" in ezrt(
        "codegen", "f.xml", "-o", "gen"
    )
    assert "trace verified" in ezrt("simulate", "f.xml")


# ----------------------------------------------------------------------
# the benchmark's traced layers still see every call
# ----------------------------------------------------------------------
def _cli_layers() -> tuple[tuple[str, str, str], ...]:
    path = os.path.join(REPO_ROOT, "perfbench", "spans.py")
    spec = importlib.util.spec_from_file_location("_perfbench_spans", path)
    assert spec is not None and spec.loader is not None
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.CLI_LAYERS


def _owner(module_name: str, attr: str):
    owner = importlib.import_module(module_name)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def test_every_traced_cli_layer_is_called(tmp_path, monkeypatch):
    layers = _cli_layers()
    assert any(module == "repro.cli" for module, _attr, _ in layers)
    calls = {}
    for module_name, attr, _layer in layers:
        owner, name = _owner(module_name, attr)
        original = getattr(owner, name)
        key = f"{module_name}.{attr}"
        calls[key] = 0

        def counting(*args, _original=original, _key=key, **kwargs):
            calls[_key] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)

    spec_path = str(tmp_path / "fig3.xml")
    runs = (
        ["export", "@fig3", "-o", spec_path],
        ["schedule", spec_path],
        ["codegen", spec_path, "-o", str(tmp_path / "gen")],
        ["simulate", spec_path],
    )
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in runs:
            assert cli.main(argv) == 0, argv
    assert {key for key, n in calls.items() if n == 0} == set()


# ----------------------------------------------------------------------
# the lean parser keeps every help page
# ----------------------------------------------------------------------
def _help_text(parse) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer), pytest.raises(SystemExit) as done:
        parse()
    assert done.value.code == 0
    return buffer.getvalue()


SUBCOMMANDS = [name for name, _options, _add in cli._SUBCOMMANDS]


@pytest.mark.parametrize("command", [None, *SUBCOMMANDS])
def test_help_matches_the_full_parser(command):
    argv = ["--help"] if command is None else [command, "--help"]
    full = _help_text(lambda: cli.build_parser().parse_args(argv))
    lean = _help_text(lambda: cli.main(argv))
    assert lean == full
    assert lean


def test_lean_parser_builds_only_the_named_subcommand():
    parser = cli.build_parser("schedule")
    sub = next(
        action
        for action in parser._actions
        if action.dest == "command"
    )
    assert set(sub.choices) == set(SUBCOMMANDS)
    # registered but unconfigured subcommands carry only --help
    assert [a.dest for a in sub.choices["batch"]._actions] == ["help"]
    assert "--engine" in sub.choices["schedule"]._option_string_actions


def test_unknown_subcommand_lists_every_choice(capsys):
    with pytest.raises(SystemExit) as done:
        cli.main(["bogus"])
    assert done.value.code == 2
    err = capsys.readouterr().err
    for name in SUBCOMMANDS:
        assert name in err
