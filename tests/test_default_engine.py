"""The default discrete engine: ``kernel``, equivalent to ``reference``.

Every entry point (``SchedulerConfig``, the CLI ``--engine`` flags,
``ezrt lint``, the batch engine, the service and unprefixed portfolio
slots) reads :data:`repro.scheduler.config.DEFAULT_ENGINE`.  The
kernel is the only production discrete engine; the checked reference
engine is its executable spec, and this suite pins the two together:

* **settings matrix** — every delay mode × priority mode ×
  ``partial_order`` × reset policy, on the four paper models and
  seeded ``random_task_set`` / ``random_task_set_with_relations``
  inputs: ``SchedulerConfig()`` and ``SchedulerConfig(engine=
  "reference")`` give the same verdict, ``exhausted``, every
  :class:`~repro.scheduler.result.SearchStats` counter and the same
  firing schedule;
* **entry points** — the config, the CLI parsers, the batch engine and
  the lint gate all default to the kernel.

Work stealing on the default engine is covered by the verdict-parity
cases of ``tests/test_parallel.py``, which now run on the kernel.
"""

from __future__ import annotations

import itertools

import pytest

from repro.batch import BatchEngine
from repro.blocks import compose
from repro.cli import build_parser
from repro.lint import config_diagnostics
from repro.scheduler import (
    DEFAULT_ENGINE,
    PreRuntimeScheduler,
    SchedulerConfig,
)
from repro.scheduler.config import DELAY_MODES, PRIORITY_MODES
from repro.spec import paper_examples
from repro.workloads import random_task_set, random_task_set_with_relations

RESETS = ("paper", "intermediate")
SETTINGS = list(
    itertools.product(DELAY_MODES, PRIORITY_MODES, (True, False), RESETS)
)
#: state budget per search: the paper models and the small random
#: inputs finish well inside it under ``earliest``; the enumerating
#: delay modes stop on it, which pins the budget stop as well
MATRIX_STATES = 5_000


def _inputs():
    nets = {
        name: compose(spec).compiled()
        for name, spec in paper_examples().items()
    }
    for seed in (0, 1):
        nets[f"rand-s{seed}"] = compose(
            random_task_set(
                4, 0.7, seed=seed, preemptive_fraction=0.5,
                deadline_slack=0.8,
            )
        ).compiled()
        nets[f"rel-s{seed}"] = compose(
            random_task_set_with_relations(3, 0.5, seed=seed)
        ).compiled()
    return nets


@pytest.fixture(scope="module")
def nets():
    return _inputs()


def _outcome(result):
    stats = result.stats.as_dict()
    for key in result.stats.WALL_CLOCK_KEYS:
        stats.pop(key)
    return (
        result.feasible,
        result.exhausted,
        stats,
        result.firing_schedule,
    )


def test_default_engine_is_the_kernel():
    assert DEFAULT_ENGINE == "kernel"
    assert SchedulerConfig().engine == DEFAULT_ENGINE


@pytest.mark.parametrize(
    "setting", SETTINGS, ids=lambda s: "-".join(map(str, s))
)
def test_default_matches_reference(nets, setting):
    delay_mode, priority_mode, partial_order, reset = setting
    knobs = dict(
        delay_mode=delay_mode,
        priority_mode=priority_mode,
        partial_order=partial_order,
        reset_policy=reset,
        max_states=MATRIX_STATES,
    )
    for name, net in nets.items():
        default = PreRuntimeScheduler(net, SchedulerConfig(**knobs))
        assert default.engine_mode == "kernel"
        reference = PreRuntimeScheduler(
            net, SchedulerConfig(engine="reference", **knobs)
        )
        assert _outcome(default.search()) == _outcome(
            reference.search()
        ), name


def test_entry_points_default_to_the_kernel():
    parser = build_parser()
    for argv in (
        ["schedule", "@fig3"],
        ["codegen", "@fig3"],
        ["simulate", "@fig3"],
        ["batch"],
        ["lint", "@fig3"],
    ):
        assert parser.parse_args(argv).engine == DEFAULT_ENGINE, argv
    # `ezrt serve` and batch jobs inherit the engine's default config
    assert BatchEngine().scheduler_config.engine == DEFAULT_ENGINE
    # worksteal needs no engine flag: the default already qualifies
    assert config_diagnostics(parallel=2, parallel_mode="worksteal") == []
