"""Self-checks of the benchmark's inputs and pins.

    PYTHONPATH=src python -m pytest perfbench -q

Not part of the tier-1 suite: they guard the benchmark, not the
program.  A workload input that prelint answers would be decided in 0
states and measure nothing (noise rule 4), search-large kinds far apart
in cost would let the median fall between kinds (rule 1), and a service
plan whose repeats could miss the cache would make the disposition mix
vary from run to run.
"""

from __future__ import annotations

import time
from types import SimpleNamespace

import pytest

import oneshot
import search
import service
from repro.cli import main as cli_main
from repro.lint.diagnostics import has_errors
from repro.lint.specrules import presearch_diagnostics
from repro.spec import paper_examples


def test_every_input_passes_prelint():
    for kind, (spec, config) in search.kinds().items():
        found = presearch_diagnostics(spec, engine=config.engine)
        assert not has_errors(found), (kind, found)
        assert config.max_seconds is None and config.parallel <= 1
    for name in oneshot.SPECS:
        assert not has_errors(presearch_diagnostics(paper_examples()[name]))
    specs = [service.WARM_SPEC] + [op.spec for op in service.plan(1, 400)]
    for spec in specs:
        assert not has_errors(presearch_diagnostics(spec)), spec.name


def test_search_kinds_meet_pins_and_stay_within_3x():
    expected = search.load_expected()["search-large"]
    seconds = {}
    for kind, (spec, config) in search.kinds().items():
        started = time.perf_counter()
        model, result = search.run_op(spec, config)
        seconds[kind] = time.perf_counter() - started
        assert search.check(kind, model, config, result, expected) is None
        assert result.diagnostics == [] or not has_errors(result.diagnostics)
    assert max(seconds.values()) <= 3.5 * min(seconds.values()), seconds
    # the two samples around the median of a two-round run are close:
    # the median lands inside a cluster of kinds, not in a gap
    samples = sorted(seconds[kind] for kind in search.ROUND * 2)
    middle = len(samples) // 2
    assert samples[middle] <= 1.5 * samples[middle - 1], seconds


def test_service_plan_is_fixed_and_its_mix_is_exact():
    first = service.plan(7, 600)
    assert [(op.body, op.planned) for op in first] == [
        (op.body, op.planned) for op in service.plan(7, 600)
    ]
    # another seed reorders the same fresh specs
    fresh = sorted(op.body for op in first if op.planned == "computed")
    assert fresh == sorted(
        op.body for op in service.plan(8, 600) if op.planned == "computed"
    )
    keys = service.BatchEngine(max_workers=1, store_schedules=True)
    fingerprints = [
        keys.make_job(op.spec).key() for op in first if op.planned == "computed"
    ]
    assert len(fingerprints) == len(set(fingerprints))
    for index, op in enumerate(first):
        if op.planned == "cached":
            sources = [
                j
                for j, earlier in enumerate(first[:index])
                if earlier.planned == "computed" and earlier.body == op.body
            ]
            assert sources and sources[0] <= index - service.REPEAT_GAP
    planned = [op.planned for op in first]
    assert planned.count("cached") == round(len(planned) * service.REPEAT_SHARE)


@pytest.mark.parametrize("command", oneshot.COMMANDS)
def test_oneshot_pins_match_the_cli(command, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    expected = oneshot.load_expected()["oneshot-cli"]
    for name in oneshot.SPECS:
        rc = cli_main([command, f"@{name}"])
        out = capsys.readouterr().out
        res = SimpleNamespace(returncode=rc, stdout=out, stderr="")
        assert oneshot.check(command, name, res, expected) is None
