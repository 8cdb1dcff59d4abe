"""The process entry point: ``repro.cli.run`` behind ``ezrt``.

``run`` calls ``main``, flushes the standard streams, runs the
``atexit`` handlers and leaves through ``os._exit``, skipping module
teardown and the final collection; with another non-daemon thread
alive it exits through ``sys.exit`` instead.  These tests drive fresh
``python -m repro.cli`` processes and pin that nothing a user sees
changes:

* stdout, stderr, the exit status and the files written equal those
  of ``main`` called in-process and followed by a normal exit, for
  every one-shot command on ``@fig3``, an infeasible spec, an error,
  ``--help`` and a usage error;
* the generated code tree is complete;
* ``--trace`` writes a valid Chrome trace;
* a reader that closed the pipe ends the command with status 1 and an
  empty stderr;
* ``atexit`` handlers run, and a live non-daemon thread takes the
  ``sys.exit`` path;
* the ``ezrt`` console script names ``repro.cli:run``.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

from repro.spec import SpecBuilder
from repro.spec.dsl import dumps

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
SRC = os.path.join(REPO_ROOT, "src")

#: the report lines that carry wall-clock figures, so differ run to run
_TIMING = re.compile(r"^(search time|throughput)\s*:.*$", re.M)


def _env(**overrides: str | None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    for name, value in overrides.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    return env


def _fresh(argv, cwd) -> subprocess.CompletedProcess:
    """``argv`` in a fresh ``python -m repro.cli`` process."""
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv],
        cwd=cwd,
        env=_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )


#: calls ``main`` and exits as ``python -m repro.cli`` did before
#: ``run``: ``sys.exit(main())`` and a full interpreter teardown
_MAIN_ONLY = "import sys, repro.cli; sys.exit(repro.cli.main())"


def _in_process(argv, cwd) -> subprocess.CompletedProcess:
    """``main(argv)`` called in a fresh interpreter that then exits
    normally (a fresh one, as built-in specs number their element
    identifiers from a per-process counter)."""
    return subprocess.run(
        [sys.executable, "-c", _MAIN_ONLY, *argv],
        cwd=cwd,
        env=_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )


def _mask(text: str) -> str:
    return _TIMING.sub(r"\1: <timing>", text)


def _tree(root) -> dict[str, bytes]:
    files = {}
    for folder, _, names in os.walk(root):
        for name in names:
            path = os.path.join(folder, name)
            with open(path, "rb") as handle:
                files[os.path.relpath(path, root)] = handle.read()
    return files


@pytest.fixture
def infeasible_spec(tmp_path) -> str:
    spec = (
        SpecBuilder("over")
        .task("A", computation=6, deadline=10, period=10)
        .task("B", computation=6, deadline=10, period=10)
        .build()
    )
    path = tmp_path / "over.xml"
    path.write_text(dumps(spec))
    return str(path)


CASES = {
    "schedule": (["schedule", "@fig3"], 0),
    "codegen": (["codegen", "@fig3", "-o", "gen"], 0),
    "simulate": (["simulate", "@fig3"], 0),
    "validate": (["validate", "@fig3"], 0),
    "export": (["export", "@fig3", "-o", "fig3.xml"], 0),
    "infeasible": (["schedule", "{infeasible}"], 1),
    "error": (["validate", "@no-such-spec"], 2),
    "help": (["--help"], 0),
    "usage-error": (["schedule"], 2),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_fresh_process_matches_main(case, tmp_path, infeasible_spec):
    template, expected_rc = CASES[case]
    argv = [arg.format(infeasible=infeasible_spec) for arg in template]
    fresh_dir = tmp_path / "fresh"
    inproc_dir = tmp_path / "inproc"
    fresh_dir.mkdir()
    inproc_dir.mkdir()

    fresh = _fresh(argv, fresh_dir)
    reference = _in_process(argv, inproc_dir)

    assert fresh.returncode == reference.returncode == expected_rc
    assert _mask(fresh.stdout) == _mask(reference.stdout)
    assert fresh.stderr == reference.stderr
    assert _tree(fresh_dir) == _tree(inproc_dir)


def test_codegen_tree_is_complete(tmp_path):
    result = _fresh(["codegen", "@fig3", "-o", "gen"], tmp_path)
    assert result.returncode == 0, result.stderr
    listed = [
        line.strip()
        for line in result.stdout.splitlines()
        if line.startswith("  ")
    ]
    first = result.stdout.splitlines()[0]
    assert first == f"generated {len(listed)} file(s) in gen:"
    written = sorted(
        os.path.join("gen", name) for name in _tree(tmp_path / "gen")
    )
    assert sorted(listed) == written
    for path in written:
        assert os.path.getsize(tmp_path / path) > 0


def test_trace_writes_a_valid_chrome_trace(tmp_path):
    result = _fresh(
        ["schedule", "@fig3", "--trace", "trace.json"], tmp_path
    )
    assert result.returncode == 0, result.stderr
    assert "wrote Chrome trace to trace.json" in result.stdout
    with open(tmp_path / "trace.json", encoding="utf-8") as handle:
        doc = json.load(handle)
    spans = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
    assert {"compile", "search"} <= spans
    for event in doc["traceEvents"]:
        assert {"name", "ph", "pid"} <= set(event)


@pytest.mark.parametrize("unbuffered", ["1", None])
def test_closed_pipe_exits_1_without_traceback(tmp_path, unbuffered):
    """``ezrt schedule ... | head`` with the reader already gone."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "repro.cli", "schedule", "@fig3"],
            cwd=tmp_path,
            env=_env(PYTHONUNBUFFERED=unbuffered),
            stdout=write_end,
            stderr=subprocess.PIPE,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert result.returncode == 1
    assert result.stderr == b""


#: replaces ``main`` and ``os._exit`` (which reports its call on
#: stderr), registers an ``atexit`` handler and, with ``thread`` or
#: ``daemon`` in argv, starts a thread still alive when ``main``
#: returns; then runs the entry point
_EXIT_PROBE = """
import atexit, os, sys, threading, time
import repro.cli

real_exit = os._exit

def reporting_exit(rc):
    sys.stderr.write(f"os._exit({rc})\\n")
    sys.stderr.flush()
    real_exit(rc)

os._exit = reporting_exit
repro.cli.main = lambda argv=None: 3
atexit.register(print, "atexit ran")
if sys.argv[1] != "alone":
    threading.Thread(
        target=time.sleep, args=(0.2,), daemon=sys.argv[1] == "daemon"
    ).start()
repro.cli.run()
"""


@pytest.mark.parametrize(
    "threads, exit_path",
    [
        ("alone", "os._exit(3)\n"),
        ("daemon", "os._exit(3)\n"),
        ("thread", ""),
    ],
)
def test_exit_path(tmp_path, threads, exit_path):
    result = subprocess.run(
        [sys.executable, "-c", _EXIT_PROBE, threads],
        cwd=tmp_path,
        env=_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 3
    assert result.stdout == "atexit ran\n"
    assert result.stderr == exit_path


def test_console_script_names_run():
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(REPO_ROOT, "pyproject.toml"), "rb") as handle:
        project = tomllib.load(handle)["project"]
    assert project["scripts"]["ezrt"] == "repro.cli:run"
