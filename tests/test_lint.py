"""Tests for :mod:`repro.lint` — the diagnostic model, both rule
packs, the seeded-violation fixture corpus and every fast-fail gate
(scheduler, batch engine, submission bridge, CLI)."""

import json
import os
import shutil
import subprocess
import textwrap

import pytest

from repro.batch.cache import ResultCache
from repro.batch.engine import (
    BatchEngine,
    Submission,
    SubmissionBridge,
    prelint_outcome,
)
from repro.batch.job import (
    STATUS_ERROR,
    STATUS_FEASIBLE,
    STATUS_INFEASIBLE,
    BatchJob,
)
from repro.blocks.composer import compose
from repro.cli import main as cli_main
from repro.lint import (
    ERROR,
    WARNING,
    Diagnostic,
    LintReport,
    check_fixture_dir,
    config_diagnostics,
    dbm_bound_diagnostics,
    errors,
    fingerprint_drift,
    format_report,
    has_errors,
    infeasibility_diagnostics,
    lint_spec,
    lint_tree,
    net_diagnostics,
    presearch_diagnostics,
    token_cap_diagnostics,
    validation_diagnostics,
)
from repro.lint.__main__ import main as lint_main
from repro.lint.coderules import (
    check_fixture,
    expected_codes,
    lint_source,
    virtual_path_of,
)
from repro.lint.diagnostics import allowed_codes_by_line
from repro.scheduler import SchedulerConfig
from repro.scheduler.dfs import find_schedule
from repro.spec import (
    SpecBuilder,
    dumps,
    fig3_precedence,
    fig4_exclusion,
    mine_pump,
)
from repro.spec.model import EzRTSpec, Task
from repro.tpn.dbm import MAX_BOUND
from repro.tpn.interval import INF, TimeInterval
from repro.tpn.kernel import MAX_TOKENS
from repro.tpn.net import TimePetriNet

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "lint_fixtures")
SRC_ROOT = os.path.join(os.path.dirname(HERE), "src")


def overloaded_spec() -> EzRTSpec:
    """Valid but provably infeasible: U = 14/10 on one processor."""
    return (
        SpecBuilder("overloaded")
        .processor("proc0")
        .task("A", computation=7, deadline=10, period=10)
        .task("B", computation=7, deadline=10, period=10)
        .build()
    )


def tight_pair_spec() -> EzRTSpec:
    """Searched-infeasible: zero-laxity warnings only, U = 1.0."""
    return (
        SpecBuilder("tight-pair")
        .task("A", computation=5, deadline=5, period=10)
        .task("B", computation=5, deadline=5, period=10)
        .build()
    )


def broken_spec() -> EzRTSpec:
    """Validation-invalid (c > d), built without the builder's check."""
    return EzRTSpec(
        "broken", tasks=[Task("t0", computation=5, deadline=2, period=10)]
    )


def codes(diagnostics) -> list:
    return [d.code for d in diagnostics]


# ----------------------------------------------------------------------
# Diagnostic model
# ----------------------------------------------------------------------
class TestDiagnosticModel:
    def test_unknown_severity_rejected(self):
        with pytest.raises(ValueError, match="unknown severity"):
            Diagnostic("EZS999", "fatal", "boom")

    def test_location_prefers_element(self):
        d = Diagnostic("EZS101", ERROR, "m", element="task 'A'")
        assert d.location == "task 'A'"

    def test_location_file_line(self):
        d = Diagnostic("EZC101", ERROR, "m", file="a.py", line=7)
        assert d.location == "a.py:7"
        assert Diagnostic("EZC101", ERROR, "m", file="a.py").location == "a.py"
        assert Diagnostic("EZC101", ERROR, "m").location == "-"

    def test_format_includes_hint(self):
        d = Diagnostic(
            "EZS103", ERROR, "bad timing", hint="fix it", element="task 'A'"
        )
        assert d.format() == "EZS103 error task 'A': bad timing (fix it)"
        bare = Diagnostic("EZS103", ERROR, "bad timing")
        assert bare.format() == "EZS103 error -: bad timing"

    def test_to_dict_round_shape(self):
        d = Diagnostic("EZT203", WARNING, "cap", file="x.py", line=3)
        doc = d.to_dict()
        assert doc["code"] == "EZT203"
        assert doc["severity"] == "warning"
        assert doc["line"] == 3
        # JSON-serialisable as-is (service 422 payloads depend on it).
        json.dumps(doc)

    def test_errors_and_has_errors(self):
        warn = Diagnostic("EZS105", WARNING, "w")
        err = Diagnostic("EZS101", ERROR, "e")
        assert errors([warn]) == []
        assert not has_errors([warn])
        assert errors([warn, err]) == [err]
        assert has_errors([warn, err])

    def test_format_report_one_line_each(self):
        report = format_report(
            [Diagnostic("EZS101", ERROR, "a"), Diagnostic("EZS105", WARNING, "b")]
        )
        assert report.splitlines() == [
            "EZS101 error -: a",
            "EZS105 warning -: b",
        ]

    def test_allowed_codes_cover_directive_line_and_next(self):
        source = "x = 1\n# lint: allow EZC101 — because\ny = 2\nz = 3\n"
        allowed = allowed_codes_by_line(source)
        assert allowed[2] == {"EZC101"}
        assert allowed[3] == {"EZC101"}
        assert 4 not in allowed

    def test_lint_report_partitions(self):
        report = LintReport()
        assert report.clean
        report.extend(
            [Diagnostic("EZS101", ERROR, "e"), Diagnostic("EZS105", WARNING, "w")]
        )
        assert not report.clean
        assert codes(report.errors) == ["EZS101"]
        assert codes(report.warnings) == ["EZS105"]
        assert len(report.to_dicts()) == 2


# ----------------------------------------------------------------------
# Spec rules
# ----------------------------------------------------------------------
class TestSpecRules:
    def test_validation_diagnostics_carry_codes(self):
        diagnostics = validation_diagnostics(broken_spec())
        assert diagnostics
        assert all(d.severity == ERROR for d in diagnostics)
        assert "EZS103" in codes(diagnostics)

    def test_single_processor_overload_reported_once(self):
        diagnostics = infeasibility_diagnostics(overloaded_spec())
        overutil = [d for d in diagnostics if d.code == "EZS101"]
        assert len(overutil) == 1
        assert overutil[0].element == "processor 'proc0'"
        assert overutil[0].severity == ERROR

    def test_multiprocessor_global_overload(self):
        spec = (
            SpecBuilder("multi")
            .processor("proc0")
            .processor("proc1")
            .task("A", computation=9, deadline=10, period=10, processor="proc0")
            .task("B", computation=9, deadline=10, period=10, processor="proc1")
            .task("C", computation=9, deadline=10, period=10, processor="proc0")
            .build()
        )
        overutil = [
            d
            for d in infeasibility_diagnostics(spec)
            if d.code == "EZS101"
        ]
        # global (2.7 > 2 processors) plus the overloaded proc0 (1.8 > 1)
        elements = {d.element for d in overutil}
        assert "processor 'proc0'" in elements
        assert "spec 'multi'" in elements

    def test_bus_overutilization(self):
        spec = (
            SpecBuilder("bus-heavy")
            .processor("proc0")
            .processor("proc1")
            .task("A", computation=1, deadline=10, period=10, processor="proc0")
            .task("B", computation=2, deadline=10, period=10, processor="proc1")
            .task("C", computation=2, deadline=10, period=10, processor="proc1")
            .message("m0", sender="A", receiver="B", communication=6)
            .message("m1", sender="A", receiver="C", communication=6)
            .build()
        )
        diagnostics = infeasibility_diagnostics(spec)
        assert "EZS102" in codes(diagnostics)

    def test_precedence_chain_misses_deadline(self):
        spec = (
            SpecBuilder("chain")
            .task("A", computation=4, deadline=10, period=10)
            .task("B", computation=4, deadline=6, period=10)
            .precedence("A", "B")
            .build()
        )
        chain = [
            d for d in infeasibility_diagnostics(spec) if d.code == "EZS106"
        ]
        assert len(chain) == 1
        assert chain[0].element == "task 'B'"

    def test_message_delay_counts_toward_chain(self):
        spec = (
            SpecBuilder("msg-chain")
            .processor("proc0")
            .processor("proc1")
            .task("A", computation=2, deadline=10, period=10, processor="proc0")
            .task("B", computation=2, deadline=7, period=10, processor="proc1")
            .message("m", sender="A", receiver="B", communication=5)
            .build()
        )
        assert "EZS106" in codes(infeasibility_diagnostics(spec))

    def test_zero_laxity_is_warning_not_gate(self):
        diagnostics = infeasibility_diagnostics(tight_pair_spec())
        laxity = [d for d in diagnostics if d.code == "EZS105"]
        assert len(laxity) == 2
        assert all(d.severity == WARNING for d in laxity)
        assert not has_errors(diagnostics)

    def test_paper_examples_are_clean(self):
        for spec in (mine_pump(), fig3_precedence(), fig4_exclusion()):
            assert lint_spec(spec) == []

    def test_presearch_skips_invalid_specs(self):
        # An ill-formed spec is the composer's error to raise, not a
        # diagnosed infeasibility — the gate must stand aside.
        assert presearch_diagnostics(broken_spec()) == []

    def test_presearch_flags_valid_infeasible_spec(self):
        diagnostics = presearch_diagnostics(overloaded_spec())
        assert has_errors(diagnostics)
        assert "EZS101" in codes(diagnostics)

    def test_lint_spec_short_circuits_on_validation(self):
        diagnostics = lint_spec(broken_spec())
        assert diagnostics
        assert all(d.code.startswith("EZS1") for d in diagnostics)
        assert "EZS101" not in codes(diagnostics)


# ----------------------------------------------------------------------
# Net rules
# ----------------------------------------------------------------------
def structurally_dead_net() -> TimePetriNet:
    net = TimePetriNet("diag")
    net.add_place("p_src", marking=1)
    net.add_place("p_orphan")  # never in any postset -> unmarkable
    net.add_place("p_sink")
    net.add_transition("t_ok")
    net.add_arc("p_src", "t_ok")
    net.add_arc("t_ok", "p_sink")
    net.add_transition("t_dead")  # consumes only from the orphan
    net.add_arc("p_orphan", "t_dead")
    return net


class TestNetRules:
    def test_dead_transition_and_unmarkable_place(self):
        diagnostics = net_diagnostics(structurally_dead_net().compile())
        by_code = {d.code: d for d in diagnostics}
        assert by_code["EZT201"].severity == ERROR
        assert "t_dead" in by_code["EZT201"].element
        assert by_code["EZT202"].severity == WARNING
        assert "p_orphan" in by_code["EZT202"].element

    def test_live_net_is_clean(self):
        model = compose(fig3_precedence())
        assert net_diagnostics(model.net.compile()) == []

    def test_initial_marking_over_token_cap(self):
        net = TimePetriNet("fat")
        net.add_place("p0", marking=MAX_TOKENS + 1)
        net.add_place("p1")
        net.add_transition("t0")
        net.add_arc("p0", "t0")
        net.add_arc("t0", "p1")
        compiled = net.compile()
        for_kernel = [
            d for d in net_diagnostics(compiled, engine="kernel")
            if d.code == "EZT203"
        ]
        assert for_kernel and for_kernel[0].severity == ERROR
        generic = [
            d for d in net_diagnostics(compiled) if d.code == "EZT203"
        ]
        assert generic and generic[0].severity == WARNING

    def test_spec_level_token_cap(self):
        # lcm(1, MAX_TOKENS + 2) instances of the fast task overflow a
        # uint16 instance counter; MAX_TOKENS + 2 is odd so the LCM is
        # the product.
        spec = EzRTSpec(
            "many",
            tasks=[
                Task("fast", computation=1, deadline=1, period=1),
                Task(
                    "slow",
                    computation=1,
                    deadline=MAX_TOKENS + 2,
                    period=MAX_TOKENS + 2,
                ),
            ],
        )
        diagnostics = token_cap_diagnostics(spec, engine="kernel")
        assert codes(diagnostics) == ["EZT203"]
        assert diagnostics[0].severity == WARNING
        assert "kernel" in diagnostics[0].message
        # presearch includes it only when targeting the kernel engine,
        # which is also what an unset engine means (the default)
        assert "EZT203" in codes(
            presearch_diagnostics(spec, engine="kernel")
        )
        assert "EZT203" in codes(presearch_diagnostics(spec))
        assert "EZT203" not in codes(
            presearch_diagnostics(spec, engine="reference")
        )

    def test_small_spec_has_no_token_cap_finding(self):
        assert token_cap_diagnostics(mine_pump(), engine="kernel") == []

    def test_net_interval_over_dbm_bound_cap(self):
        net = TimePetriNet("wide")
        net.add_place("p0", marking=1)
        net.add_place("p1")
        net.add_transition(
            "t0", interval=TimeInterval(0, MAX_BOUND + 1)
        )
        net.add_arc("p0", "t0")
        net.add_arc("t0", "p1")
        compiled = net.compile()
        for_stateclass = [
            d for d in net_diagnostics(compiled, engine="stateclass")
            if d.code == "EZT204"
        ]
        assert for_stateclass
        assert for_stateclass[0].severity == ERROR
        assert "t0" in for_stateclass[0].element
        generic = [
            d for d in net_diagnostics(compiled) if d.code == "EZT204"
        ]
        assert generic and generic[0].severity == WARNING

    def test_net_unbounded_interval_checks_eft_only(self):
        # lft = INF is the DBM's sentinel, not a magnitude — only a
        # finite bound past the cap may fire the rule
        net = TimePetriNet("open")
        net.add_place("p0", marking=1)
        net.add_place("p1")
        net.add_transition("t0", interval=TimeInterval(1, INF))
        net.add_arc("p0", "t0")
        net.add_arc("t0", "p1")
        diagnostics = [
            d
            for d in net_diagnostics(
                net.compile(), engine="stateclass"
            )
            if d.code == "EZT204"
        ]
        assert diagnostics == []

    def test_spec_level_dbm_bound_cap(self):
        spec = EzRTSpec(
            "wide",
            tasks=[
                Task(
                    "slow",
                    computation=1,
                    deadline=MAX_BOUND + 1,
                    period=MAX_BOUND + 1,
                )
            ],
        )
        diagnostics = dbm_bound_diagnostics(spec, engine="stateclass")
        assert codes(diagnostics) == ["EZT204"]
        assert diagnostics[0].severity == WARNING
        assert "state-class" in diagnostics[0].message
        # presearch includes it only when targeting the dense engine
        assert "EZT204" in codes(
            presearch_diagnostics(spec, engine="stateclass")
        )
        assert "EZT204" not in codes(presearch_diagnostics(spec))
        assert "EZT204" not in codes(
            presearch_diagnostics(spec, engine="kernel")
        )

    def test_coprime_periods_overflow_via_hyper_period(self):
        # every field is far below the cap, but the hyper-period
        # multiplies the co-prime periods past it
        p, q = 65537, 65539  # both prime; p * q > 2**30
        spec = EzRTSpec(
            "coprime",
            tasks=[
                Task("a", computation=1, deadline=p, period=p),
                Task("b", computation=1, deadline=q, period=q),
            ],
        )
        diagnostics = dbm_bound_diagnostics(spec)
        assert codes(diagnostics) == ["EZT204"]
        assert "hyper-period" in diagnostics[0].message

    def test_small_spec_has_no_dbm_bound_finding(self):
        assert (
            dbm_bound_diagnostics(mine_pump(), engine="stateclass")
            == []
        )


# ----------------------------------------------------------------------
# Config rules
# ----------------------------------------------------------------------
class TestConfigRules:
    def test_defaults_are_clean(self):
        assert config_diagnostics() == []
        assert config_diagnostics(engine="reference") == []

    def test_unknown_engine(self):
        diagnostics = config_diagnostics(engine="quantum")
        assert codes(diagnostics) == ["EZG303"]
        assert diagnostics[0].severity == ERROR

    def test_unknown_delay_mode_and_parallel_mode(self):
        assert "EZG303" in codes(config_diagnostics(delay_mode="sometimes"))
        assert "EZG303" in codes(
            config_diagnostics(parallel=2, parallel_mode="magic")
        )

    def test_stateclass_requires_earliest_delay(self):
        diagnostics = config_diagnostics(
            engine="stateclass", delay_mode="extremes"
        )
        assert "EZG301" in codes(diagnostics)
        assert config_diagnostics(
            engine="stateclass", delay_mode="earliest"
        ) == []

    def test_worksteal_requires_kernel(self):
        diagnostics = config_diagnostics(
            engine="reference", parallel=4, parallel_mode="worksteal"
        )
        assert "EZG302" in codes(diagnostics)
        assert "kernel" in diagnostics[0].hint
        assert config_diagnostics(
            engine="kernel", parallel=4, parallel_mode="worksteal"
        ) == []
        assert config_diagnostics(
            parallel=4, parallel_mode="worksteal"
        ) == []

    def test_lint_spec_passes_config_findings_through(self):
        diagnostics = lint_spec(mine_pump(), engine="quantum")
        assert "EZG303" in codes(diagnostics)


# ----------------------------------------------------------------------
# Code rules
# ----------------------------------------------------------------------
class TestCodeRules:
    def test_syntax_error_is_ezc100(self):
        diagnostics = lint_source("def broken(:\n", "repro/batch/x.py")
        assert codes(diagnostics) == ["EZC100"]

    def test_wall_clock_in_deterministic_module(self):
        source = "import time\nstamp = time.time()\n"
        diagnostics = lint_source(source, "repro/obs/sink.py")
        assert codes(diagnostics) == ["EZC101"]
        assert diagnostics[0].line == 2
        # the same call outside the deterministic prefixes is fine
        assert lint_source(source, "scripts/bench.py") == []

    def test_monotonic_clock_is_allowed(self):
        source = "import time\nt0 = time.monotonic()\n"
        assert lint_source(source, "repro/batch/engine.py") == []

    def test_aliased_wall_clock_import_caught(self):
        source = "from time import time as now\nstamp = now()\n"
        diagnostics = lint_source(source, "repro/spec/clock.py")
        assert codes(diagnostics) == ["EZC101"]

    def test_blocking_call_in_service_coroutine(self):
        source = textwrap.dedent(
            """
            import time

            async def handle(request):
                time.sleep(0.1)
            """
        )
        diagnostics = lint_source(source, "repro/service/handler.py")
        assert codes(diagnostics) == ["EZC102"]

    def test_blocking_call_outside_coroutine_ok(self):
        source = "def load(path):\n    return open(path).read()\n"
        assert lint_source(source, "repro/service/util.py") == []

    def test_blocking_coroutine_outside_service_ok(self):
        source = textwrap.dedent(
            """
            import time

            async def tick():
                time.sleep(1)
            """
        )
        assert lint_source(source, "repro/batch/x.py") == []

    def test_mutable_default_argument(self):
        source = "def collect(rows=[]):\n    return rows\n"
        diagnostics = lint_source(source, "anywhere.py")
        assert codes(diagnostics) == ["EZC103"]

    def test_allow_directive_suppresses_only_that_code(self):
        flagged = "import time\nstamp = time.time()\n"
        allowed = (
            "import time\n"
            "# lint: allow EZC101 — test fixture\n"
            "stamp = time.time()\n"
        )
        assert lint_source(flagged, "repro/obs/a.py") != []
        assert lint_source(allowed, "repro/obs/a.py") == []

    def test_fingerprint_drift_fixture_pair(self):
        diagnostics = fingerprint_drift(
            os.path.join(FIXTURES, "drift_config.py"),
            os.path.join(FIXTURES, "drift_cache.py"),
        )
        assert codes(diagnostics) == ["EZC104", "EZC104"]
        messages = " ".join(d.message for d in diagnostics)
        assert "policy" in messages
        assert "stale_knob" in messages
        assert all(
            d.file.endswith("drift_cache.py") for d in diagnostics
        )

    def test_repo_fingerprint_has_not_drifted(self):
        diagnostics = fingerprint_drift(
            os.path.join(SRC_ROOT, "repro", "scheduler", "config.py"),
            os.path.join(SRC_ROOT, "repro", "batch", "cache.py"),
        )
        assert diagnostics == []

    def test_virtual_path_is_rooted_at_repro(self):
        path = os.path.join(SRC_ROOT, "repro", "obs", "events.py")
        assert virtual_path_of(path, SRC_ROOT) == "repro/obs/events.py"

    def test_source_tree_is_self_clean(self):
        assert lint_tree(SRC_ROOT) == []


# ----------------------------------------------------------------------
# Fixture corpus
# ----------------------------------------------------------------------
class TestFixtureCorpus:
    def test_every_seeded_violation_fires(self):
        assert check_fixture_dir(FIXTURES) == []

    def test_expected_codes_parse_markers(self):
        path = os.path.join(FIXTURES, "mutable_defaults.py")
        with open(path, encoding="utf-8") as handle:
            marks = expected_codes(handle.read())
        assert marks
        assert all(code == "EZC103" for _, code in marks)

    def test_missing_violation_is_reported(self, tmp_path):
        stale = tmp_path / "stale.py"
        stale.write_text("x = 1  # expect: EZC103\n")
        problems = check_fixture(str(stale))
        assert problems
        assert "EZC103" in problems[0]

    def test_unexpected_violation_is_reported(self, tmp_path):
        rogue = tmp_path / "rogue.py"
        rogue.write_text("def f(rows=[]):\n    return rows\n")
        problems = check_fixture(str(rogue))
        assert problems
        assert "EZC103" in " ".join(problems)

    def test_empty_fixture_dir_fails_self_test(self, tmp_path):
        assert check_fixture_dir(str(tmp_path)) != []


# ----------------------------------------------------------------------
# Scheduler gate
# ----------------------------------------------------------------------
class TestSchedulerGate:
    def test_infeasible_spec_diagnosed_without_search(self):
        result = find_schedule(compose(overloaded_spec()))
        assert not result.feasible
        assert result.stats.states_visited == 0
        assert not result.exhausted
        assert "EZS101" in codes(result.diagnostics)
        assert "lint" in result.summary()
        assert "EZS101" in result.summary()

    def test_prelint_false_forces_the_search(self):
        result = find_schedule(compose(overloaded_spec()), prelint=False)
        assert not result.feasible
        assert result.stats.states_visited > 0
        assert result.diagnostics == []

    def test_warnings_attach_to_searched_results(self):
        result = find_schedule(compose(tight_pair_spec()))
        assert result.stats.states_visited > 0  # warnings never gate
        assert "EZS105" in codes(result.diagnostics)

    def test_feasible_specs_are_untouched(self):
        result = find_schedule(compose(fig3_precedence()))
        assert result.feasible
        assert result.diagnostics == []


# ----------------------------------------------------------------------
# Batch gate
# ----------------------------------------------------------------------
class TestBatchGate:
    def test_prelint_outcome_shapes(self):
        assert prelint_outcome(BatchJob(spec=fig3_precedence())) is None
        assert prelint_outcome(BatchJob(spec=broken_spec())) is None
        rejected = prelint_outcome(BatchJob(spec=overloaded_spec()))
        assert rejected is not None
        assert rejected.status == STATUS_INFEASIBLE
        assert rejected.diagnostics
        assert rejected.search == {}

    def test_run_rejects_without_computing(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        engine = BatchEngine(max_workers=1, cache=cache)
        result = engine.run([overloaded_spec(), fig3_precedence()])
        first, second = result.outcomes
        assert first.status == STATUS_INFEASIBLE
        assert first.search == {}
        assert [d["code"] for d in first.diagnostics] == ["EZS101"]
        assert second.status == STATUS_FEASIBLE
        assert result.stats.prelint_rejected == 1
        assert "trivially-infeasible" in result.summary()
        # diagnosed outcomes are never cached: a re-run re-diagnoses
        again = BatchEngine(max_workers=1, cache=cache).run(
            [overloaded_spec()]
        )
        assert again.stats.prelint_rejected == 1
        assert again.stats.cache_hits == 0

    def test_rejected_outcome_row_carries_diagnostics(self):
        rejected = prelint_outcome(BatchJob(spec=overloaded_spec()))
        row = rejected.row()
        assert row["diagnostics"][0]["code"] == "EZS101"
        json.dumps(row)

    def test_invalid_spec_still_errors(self):
        result = BatchEngine(max_workers=1).run([broken_spec()])
        assert result.outcomes[0].status == STATUS_ERROR
        assert result.stats.prelint_rejected == 0


# ----------------------------------------------------------------------
# Bridge gate
# ----------------------------------------------------------------------
class TestBridgeGate:
    def test_submission_rejected_before_the_pool(self):
        bridge = SubmissionBridge(BatchEngine(max_workers=1)).start()
        try:
            submission = bridge.submit(overloaded_spec())
            assert submission.disposition == Submission.REJECTED
            assert submission.future.done()
            outcome = submission.future.result()
            assert outcome.status == STATUS_INFEASIBLE
            assert outcome.diagnostics
            counters = bridge.metrics.snapshot()["counters"]
            assert counters["bridge.rejected"] == 1
            assert "bridge.computed" not in counters
        finally:
            bridge.shutdown()


# ----------------------------------------------------------------------
# ezrt lint CLI
# ----------------------------------------------------------------------
class TestLintCli:
    def test_clean_builtin(self, capsys):
        assert cli_main(["lint", "@mine-pump"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_infeasible_file_fails(self, tmp_path, capsys):
        path = tmp_path / "overloaded.xml"
        path.write_text(dumps(overloaded_spec()))
        assert cli_main(["lint", str(path)]) == 1
        assert "EZS101" in capsys.readouterr().out

    def test_json_output(self, tmp_path, capsys):
        path = tmp_path / "overloaded.xml"
        path.write_text(dumps(overloaded_spec()))
        assert cli_main(["lint", str(path), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["spec"] == "overloaded"
        assert payload[0]["diagnostics"][0]["code"] == "EZS101"

    def test_config_incompatibility_fails(self, capsys):
        rc = cli_main(
            ["lint", "@fig3", "--engine", "stateclass", "--delay-mode", "extremes"]
        )
        assert rc == 1
        assert "EZG301" in capsys.readouterr().out

    def test_warnings_alone_keep_exit_zero(self, tmp_path, capsys):
        path = tmp_path / "tight.xml"
        path.write_text(dumps(tight_pair_spec()))
        assert cli_main(["lint", str(path)]) == 0
        assert "EZS105" in capsys.readouterr().out


# ----------------------------------------------------------------------
# python -m repro.lint
# ----------------------------------------------------------------------
class TestTypeChecking:
    def test_lint_and_spec_packages_typecheck_strict(self):
        # CI installs mypy for its lint job; locally the container may
        # not have it — skip with a visible reason rather than fail.
        mypy = shutil.which("mypy")
        if mypy is None:
            pytest.skip("mypy is not installed in this environment")
        result = subprocess.run(
            [mypy, "--strict", "src/repro/lint", "src/repro/spec"],
            cwd=os.path.dirname(SRC_ROOT),
            env={**os.environ, "MYPYPATH": "src"},
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, (
            f"mypy --strict failed:\n{result.stdout}\n{result.stderr}"
        )


class TestLintModuleMain:
    def test_self_lint_is_clean(self, capsys):
        assert lint_main(["--self", "--root", SRC_ROOT]) == 0
        assert "self-lint ok" in capsys.readouterr().out

    def test_fixture_self_test_passes(self, capsys):
        assert lint_main(["--self-test", FIXTURES]) == 0
        assert "fixture self-test ok" in capsys.readouterr().out

    def test_file_mode_reports_violations(self, capsys):
        path = os.path.join(FIXTURES, "mutable_defaults.py")
        assert lint_main([path]) == 1
        assert "EZC103" in capsys.readouterr().out

    def test_self_test_fails_on_empty_corpus(self, tmp_path, capsys):
        assert lint_main(["--self-test", str(tmp_path)]) == 1
