"""End-to-end tests of the ``ezrt`` command-line interface."""

import os

import pytest

from repro.cli import main
from repro.spec import dumps, mine_pump


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "spec.xml"
    path.write_text(dumps(mine_pump()))
    return str(path)


@pytest.fixture
def small_spec_file(tmp_path):
    from repro.spec import SpecBuilder

    spec = (
        SpecBuilder("small")
        .processor("proc0")
        .task("A", computation=2, deadline=10, period=10, code="a();")
        .task("B", computation=3, deadline=10, period=10, code="b();")
        .build()
    )
    path = tmp_path / "small.xml"
    path.write_text(dumps(spec))
    return str(path)


class TestValidate:
    def test_valid(self, capsys, spec_file):
        assert main(["validate", spec_file]) == 0
        assert "is valid" in capsys.readouterr().out

    def test_builtin(self, capsys):
        assert main(["validate", "@mine-pump"]) == 0
        assert "10 task(s)" in capsys.readouterr().out

    def test_unknown_builtin(self, capsys):
        from repro.spec.examples import EXAMPLES

        assert main(["validate", "@nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown built-in" in err
        for name in EXAMPLES:
            assert repr(name) in err

    def test_builtin_builds_only_the_named_spec(self, capsys, monkeypatch):
        from repro.spec import examples

        built = []
        for name, builder in examples.EXAMPLES.items():

            def counting(name=name, builder=builder):
                built.append(name)
                return builder()

            monkeypatch.setitem(examples.EXAMPLES, name, counting)
        assert main(["validate", "@fig3"]) == 0
        assert built == ["fig3"]
        assert "fig3-precedence" in capsys.readouterr().out

    def test_invalid_spec(self, tmp_path, capsys):
        document = """<?xml version="1.0"?>
        <rt:ez-spec xmlns:rt="http://pnmp.sf.net/EZRealtime">
        <Task identifier="a">
          <name>A</name><period>5</period><computing>9</computing>
          <deadline>5</deadline>
        </Task>
        </rt:ez-spec>"""
        path = tmp_path / "bad.xml"
        path.write_text(document)
        # parse-time validation raises -> CLI error path
        assert main(["validate", str(path)]) == 2


class TestCompile:
    def test_writes_pnml(self, tmp_path, capsys, small_spec_file):
        out = str(tmp_path / "model.pnml")
        assert main(["compile", small_spec_file, "-o", out]) == 0
        assert os.path.exists(out)
        text = capsys.readouterr().out
        assert "places" in text

    def test_pnml_is_readable(self, tmp_path, small_spec_file):
        out = str(tmp_path / "model.pnml")
        main(["compile", small_spec_file, "-o", out])
        from repro.pnml import load

        net = load(out)
        assert net.has_place("pproc_proc0")

    def test_expanded_style_flag(self, tmp_path, small_spec_file):
        out = str(tmp_path / "model.pnml")
        assert (
            main(
                [
                    "compile",
                    small_spec_file,
                    "-o",
                    out,
                    "--style",
                    "expanded",
                ]
            )
            == 0
        )
        from repro.pnml import load

        assert load(out).has_transition("tf_A")


class TestSchedule:
    def test_report_printed(self, capsys, small_spec_file):
        assert main(["schedule", small_spec_file]) == 0
        out = capsys.readouterr().out
        assert "== pre-runtime search ==" in out
        assert "feasible" in out

    def test_gantt_flag(self, capsys, small_spec_file):
        assert main(["schedule", small_spec_file, "--gantt"]) == 0
        assert "Gantt" in capsys.readouterr().out

    def test_profile_flag(self, capsys, small_spec_file):
        assert main(["schedule", small_spec_file, "--profile"]) == 0
        out = capsys.readouterr().out
        assert "search profile:" in out
        assert "states visited" in out
        assert "states generated" in out
        assert "deadline prunes" in out
        assert "reductions" in out
        assert "throughput" in out

    def test_engine_flag_reference(self, capsys, small_spec_file):
        """The kernel's spec is no engine of its own: ``EZRT_PURE=1``
        runs it, and ``--engine reference`` is an argparse error."""
        for command in ("schedule", "lint"):
            with pytest.raises(SystemExit) as exit_info:
                main([command, small_spec_file, "--engine", "reference"])
            assert exit_info.value.code == 2
            assert "invalid choice: 'reference'" in capsys.readouterr().err

    def test_engine_flag_stateclass(self, capsys, small_spec_file):
        assert (
            main(
                [
                    "schedule",
                    small_spec_file,
                    "--engine",
                    "stateclass",
                    "--profile",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "feasible" in out
        assert "dense firing windows" in out
        assert "dense window" in out

    def test_stateclass_rejects_delay_modes(self, capsys, small_spec_file):
        assert (
            main(
                [
                    "schedule",
                    small_spec_file,
                    "--engine",
                    "stateclass",
                    "--delay-mode",
                    "full",
                ]
            )
            == 2
        )
        assert "delay_mode" in capsys.readouterr().err

    def test_infeasible_exit_code(self, tmp_path, capsys):
        from repro.spec import SpecBuilder

        spec = (
            SpecBuilder("over")
            .task("A", computation=6, deadline=10, period=10)
            .task("B", computation=6, deadline=10, period=10)
            .build()
        )
        path = tmp_path / "over.xml"
        path.write_text(dumps(spec))
        assert main(["schedule", str(path)]) == 1

    def test_search_flags(self, capsys, small_spec_file):
        assert (
            main(
                [
                    "schedule",
                    small_spec_file,
                    "--delay-mode",
                    "extremes",
                    "--priority-mode",
                    "strict",
                    "--no-partial-order",
                    "--max-states",
                    "100000",
                ]
            )
            == 0
        )

    def test_parallel_profile_reports_the_native_core(
        self, capsys, small_spec_file
    ):
        """A portfolio race's profile carries the same native-core
        gauge as the serial search: its workers drive the same core."""

        def native_core_line(argv):
            assert main(argv) == 0
            lines = capsys.readouterr().out.splitlines()
            return [line.split() for line in lines if "native_core" in line]

        serial = native_core_line(["schedule", small_spec_file, "--profile"])
        race = native_core_line(
            ["schedule", small_spec_file, "--parallel", "2", "--profile"]
        )
        assert serial and race == serial

    @pytest.mark.parametrize(
        "argv",
        [
            ["schedule", "@fig3", "--parallel-mode", "portfolio"],
            ["lint", "@fig3", "--parallel", "2"],
            ["lint", "@fig3", "--parallel-mode", "portfolio"],
        ],
        ids=["schedule-parallel-mode", "lint-parallel", "lint-parallel-mode"],
    )
    def test_retired_parallel_flags_are_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestCodegen:
    def test_generates_project(self, tmp_path, capsys, small_spec_file):
        out = str(tmp_path / "gen")
        assert main(["codegen", small_spec_file, "-o", out]) == 0
        files = os.listdir(out)
        assert "ezrt_schedule.c" in files
        assert "ezrt_dispatcher.c" in files
        assert "Makefile" in files
        content = open(
            os.path.join(out, "ezrt_tasks.c")
        ).read()
        assert "a();" in content

    def test_embedded_target(self, tmp_path, small_spec_file):
        out = str(tmp_path / "gen8051")
        assert (
            main(
                [
                    "codegen",
                    small_spec_file,
                    "-o",
                    out,
                    "--target",
                    "8051",
                ]
            )
            == 0
        )
        dispatcher = open(
            os.path.join(out, "ezrt_dispatcher.c")
        ).read()
        assert "interrupt 1" in dispatcher


class TestSimulate:
    def test_clean_simulation(self, capsys, small_spec_file):
        assert main(["simulate", small_spec_file]) == 0
        assert "trace verified" in capsys.readouterr().out

    def test_overhead_can_break(self, capsys, tmp_path):
        from repro.spec import SpecBuilder

        spec = (
            SpecBuilder("tight")
            .task("A", computation=5, deadline=5, period=10)
            .task("B", computation=5, deadline=10, period=10)
            .build()
        )
        path = tmp_path / "tight.xml"
        path.write_text(dumps(spec))
        assert (
            main(["simulate", str(path), "--overhead", "1"]) == 1
        )
        assert "FAILED" in capsys.readouterr().out


class TestExportExamples:
    def test_export_builtin(self, tmp_path, capsys):
        out = str(tmp_path / "mp.xml")
        assert main(["export", "@mine-pump", "-o", out]) == 0
        assert os.path.exists(out)

    def test_examples_listing(self, capsys):
        assert main(["examples"]) == 0
        out = capsys.readouterr().out
        assert "@mine-pump" in out
        assert "@fig8" in out

    def test_exported_spec_revalidates(self, tmp_path):
        out = str(tmp_path / "mp.xml")
        main(["export", "@mine-pump", "-o", out])
        assert main(["validate", out]) == 0
