"""The lazy package facades keep the public API of the eager ones.

Every package ``__init__`` resolves its re-exported names on first
access (:mod:`repro._lazy`) and imports them statically only under
``TYPE_CHECKING``.  These tests hold the three views together: the
static imports, the runtime table and ``__all__`` name the same
objects, ``dir()`` and ``from ... import *`` see every name, unknown
names fail the standard way, and the search's config and result types
still cross a fork pool.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

import pytest

import repro
from repro.scheduler import SchedulerConfig, SchedulerResult

SRC = os.path.join(os.path.dirname(__file__), "..", "src")

PACKAGES = (
    "repro",
    "repro.analysis",
    "repro.batch",
    "repro.blocks",
    "repro.codegen",
    "repro.lint",
    "repro.obs",
    "repro.pnml",
    "repro.scheduler",
    "repro.service",
    "repro.sim",
    "repro.spec",
    "repro.tpn",
)

#: names a facade defines itself instead of re-exporting
OWN_NAMES = {"repro": {"__version__"}}


def _static_exports(package: str) -> dict[str, str]:
    """name → leaf module, from the facade's ``TYPE_CHECKING`` block."""
    module = importlib.import_module(package)
    with open(module.__file__, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    guard = next(
        node
        for node in tree.body
        if isinstance(node, ast.If)
        and isinstance(node.test, ast.Name)
        and node.test.id == "TYPE_CHECKING"
    )
    exports = {}
    for node in guard.body:
        assert isinstance(node, ast.ImportFrom)
        for alias in node.names:
            assert alias.asname is None
            exports[alias.name] = node.module
    return exports


@pytest.mark.parametrize("package", PACKAGES)
def test_all_names_resolve_to_their_leaf_objects(package):
    module = importlib.import_module(package)
    exports = _static_exports(package)
    own = OWN_NAMES.get(package, set())
    assert set(exports) == set(module.__all__) - own
    assert len(module.__all__) == len(set(module.__all__))
    for name, leaf in exports.items():
        assert not leaf.endswith("__init__")
        assert importlib.import_module(leaf).__name__ == leaf
        assert getattr(module, name) is getattr(
            importlib.import_module(leaf), name
        ), f"{package}.{name}"


@pytest.mark.parametrize("package", PACKAGES)
def test_dir_lists_every_public_name(package):
    module = importlib.import_module(package)
    listed = dir(module)
    assert listed == sorted(listed)
    assert set(module.__all__) <= set(listed)


def test_fresh_facades_load_no_leaf_and_list_their_tables():
    # importing every facade loads no leaf module, and before any name
    # is touched the names dir() adds beyond the module dict are
    # exactly the lazy table
    code = (
        "import importlib, json, sys\n"
        f"packages = {list(PACKAGES)!r}\n"
        "mods = [importlib.import_module(p) for p in packages]\n"
        "loaded = [m for m in sys.modules if m.startswith('repro')]\n"
        "tables = {m.__name__: sorted(set(dir(m)) - set(vars(m)))\n"
        "          for m in mods}\n"
        "print(json.dumps({'loaded': sorted(loaded), 'tables': tables}))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=SRC),
        check=True,
        capture_output=True,
        text=True,
        timeout=60,
    )
    report = json.loads(done.stdout)
    assert report["loaded"] == sorted([*PACKAGES, "repro._lazy"])
    tables = report["tables"]
    for package in PACKAGES:
        module = importlib.import_module(package)
        own = OWN_NAMES.get(package, set())
        assert tables[package] == sorted(set(module.__all__) - own)


@pytest.mark.parametrize("package", PACKAGES)
def test_star_import_binds_every_documented_name(package):
    namespace: dict = {}
    exec(f"from {package} import *", namespace)
    module = importlib.import_module(package)
    for name in module.__all__:
        assert namespace[name] is getattr(module, name), name


def test_names_are_cached_on_the_package():
    from repro import tpn

    first = tpn.TimeInterval
    assert "TimeInterval" in vars(tpn)
    assert tpn.TimeInterval is first


@pytest.mark.parametrize("package", PACKAGES)
def test_unknown_attribute_raises_the_standard_error(package):
    module = importlib.import_module(package)
    with pytest.raises(AttributeError) as lazy_error:
        getattr(module, "no_such_name")
    with pytest.raises(AttributeError) as plain_error:
        getattr(importlib.import_module("repro.errors"), "no_such_name")
    assert str(lazy_error.value) == (
        f"module {package!r} has no attribute 'no_such_name'"
    )
    assert str(plain_error.value) == (
        "module 'repro.errors' has no attribute 'no_such_name'"
    )
    assert not hasattr(module, "no_such_name")


def test_submodule_import_through_a_facade():
    # ``from package import submodule`` falls through the lazy table
    from repro.tpn import _kernelc

    assert _kernelc.__name__ == "repro.tpn._kernelc"


def _solve(config: SchedulerConfig) -> tuple[SchedulerConfig, SchedulerResult]:
    model = repro.compose(repro.fig3_precedence())
    return config, repro.find_schedule(model, config)


def test_config_and_result_pickle_across_a_fork_pool():
    config = SchedulerConfig(max_states=50_000)
    with ProcessPoolExecutor(
        max_workers=1, mp_context=get_context("fork")
    ) as pool:
        returned, result = pool.submit(_solve, config).result(timeout=120)
    assert returned == config
    assert isinstance(result, SchedulerResult)
    assert result.feasible
    local = _solve(config)[1]
    assert result.firing_schedule == local.firing_schedule
    assert result.stats.states_visited == local.stats.states_visited


def test_library_modules_import_leaf_modules():
    # a facade import inside the library would be resolved lazily too,
    # but it hides which leaf a module depends on; the rule keeps the
    # import graph readable and the cold path predictable
    root = os.path.join(SRC, "repro")
    offenders = []
    for folder, _dirs, files in os.walk(root):
        for filename in files:
            if not filename.endswith(".py") or filename == "__init__.py":
                continue
            path = os.path.join(folder, filename)
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read())
            for node in ast.walk(tree):
                if not (
                    isinstance(node, ast.ImportFrom)
                    and node.module in PACKAGES
                ):
                    continue
                package = importlib.import_module(node.module)
                for alias in node.names:
                    if alias.name in package.__all__:
                        offenders.append(
                            f"{os.path.relpath(path, SRC)}:{node.lineno} "
                            f"from {node.module} import {alias.name}"
                        )
    assert offenders == []
