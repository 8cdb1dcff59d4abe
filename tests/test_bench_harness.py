"""The benchmark harness (``benchmarks/harness.py``).

Every bench times, gates and records through this module, so its
row schema check, its merge of earlier rows and its gate failure are
what stop a bench from writing a malformed or silently failing
``BENCH_*.json``.  The module lives beside the benches (they import it
as ``harness``), so it is loaded here from its file.
"""

from __future__ import annotations

import copy
import gc
import importlib.util
import json
import os

import pytest

_PATH = os.path.join(
    os.path.dirname(__file__), "..", "benchmarks", "harness.py"
)
_spec = importlib.util.spec_from_file_location("bench_harness", _PATH)
harness = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(harness)


def _document():
    return {
        "bench": "demo",
        "host": {"python": "3"},
        "rows": [
            harness.row("fig3", "warm", "search", "kernel", seconds=0.5,
                        states=10),
            harness.row("fig3", "warm", "search", "reference",
                        seconds=1.5, states=10, bytes=64),
        ],
        "gates": [harness.gate("speed-up", 2.0, 3.0, True)],
    }


@pytest.fixture
def root(tmp_path, monkeypatch):
    """BENCH files go to a scratch directory instead of the repo."""
    monkeypatch.setattr(harness, "ROOT", str(tmp_path))
    return tmp_path


def _read(root, name="demo"):
    with open(root / f"BENCH_{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


class TestCheckBench:
    def test_accepts_a_valid_document(self):
        harness.check_bench(_document())

    def test_row_has_exactly_the_schema_fields(self):
        assert tuple(harness.row("w", "cold", "process", seconds=1)) == (
            harness.ROW_FIELDS
        )
        document = _document()
        del document["rows"][0]["bytes"]
        with pytest.raises(ValueError, match="row fields"):
            harness.check_bench(document)

    def test_rejects_other_top_level_keys(self):
        document = _document()
        document["platform"] = "x"
        with pytest.raises(ValueError, match="BENCH keys"):
            harness.check_bench(document)

    @pytest.mark.parametrize("part", ["rows", "gates"])
    def test_needs_a_row_and_a_gate(self, part):
        document = _document()
        document[part] = []
        with pytest.raises(ValueError, match="at least one row"):
            harness.check_bench(document)

    def test_rejects_an_unknown_tier(self):
        document = _document()
        document["rows"][0]["tier"] = "hot"
        with pytest.raises(ValueError, match="tier"):
            harness.check_bench(document)

    def test_rejects_an_empty_workload(self):
        document = _document()
        document["rows"][0]["workload"] = ""
        with pytest.raises(ValueError, match="workload"):
            harness.check_bench(document)

    def test_rejects_a_non_string_engine(self):
        document = _document()
        document["rows"][0]["engine"] = 4
        with pytest.raises(ValueError, match="engine"):
            harness.check_bench(document)

    def test_rejects_a_row_that_measures_nothing(self):
        document = _document()
        document["rows"][0]["seconds"] = None
        document["rows"][0]["states"] = None
        with pytest.raises(ValueError, match="measures nothing"):
            harness.check_bench(document)

    @pytest.mark.parametrize("value", [0, -1.0, True])
    def test_rejects_a_non_positive_measurement(self, value):
        document = _document()
        document["rows"][0]["states"] = value
        with pytest.raises(ValueError, match="non-positive"):
            harness.check_bench(document)

    def test_rejects_a_duplicate_row_key(self):
        document = _document()
        document["rows"][1]["engine"] = "kernel"
        with pytest.raises(ValueError, match="duplicate row"):
            harness.check_bench(document)

    def test_rejects_a_duplicate_gate_name(self):
        document = _document()
        document["gates"].append(copy.deepcopy(document["gates"][0]))
        with pytest.raises(ValueError, match="gate name"):
            harness.check_bench(document)

    def test_rejects_a_non_numeric_gate(self):
        document = _document()
        document["gates"][0]["measured"] = None
        with pytest.raises(ValueError, match="not numeric"):
            harness.check_bench(document)

    def test_rejects_a_non_boolean_met(self):
        document = _document()
        document["gates"][0]["met"] = 1
        with pytest.raises(ValueError, match="met"):
            harness.check_bench(document)


class TestWriteBench:
    def test_writes_host_rows_and_gates(self, root):
        document = _document()
        written = harness.write_bench(
            "demo", document["rows"], document["gates"]
        )
        on_disk = _read(root)
        assert on_disk == written
        assert on_disk["bench"] == "demo"
        assert on_disk["rows"] == document["rows"]
        assert on_disk["gates"] == document["gates"]
        assert set(on_disk["host"]) >= {"python", "machine", "cpus"}
        harness.check_bench(on_disk)

    def test_merges_rows_by_key_and_gates_by_name(self, root):
        first = _document()
        harness.write_bench("demo", first["rows"], first["gates"])
        newer = harness.row("fig3", "warm", "search", "kernel",
                            seconds=0.25, states=10)
        other = harness.row("fig4", "large", "search", "kernel",
                            seconds=2.0)
        harness.write_bench(
            "demo",
            [newer, other],
            [harness.gate("bytes", 100, 64, True)],
        )
        on_disk = _read(root)
        assert on_disk["rows"] == [newer, first["rows"][1], other]
        assert [g["name"] for g in on_disk["gates"]] == [
            "speed-up",
            "bytes",
        ]

    def test_an_earlier_file_of_another_layout_is_replaced(self, root):
        with open(root / "BENCH_demo.json", "w", encoding="utf-8") as fh:
            json.dump({"bench": "demo", "rows": [{"old": 1}]}, fh)
        document = _document()
        harness.write_bench("demo", document["rows"], document["gates"])
        assert _read(root)["rows"] == document["rows"]

    def test_an_unmet_gate_fails_after_the_file_is_written(self, root):
        document = _document()
        missed = harness.gate("speed-up", 2.0, 1.5, False)
        with pytest.raises(AssertionError, match="speed-up: measured 1.5"):
            harness.write_bench("demo", document["rows"], [missed])
        assert _read(root)["gates"] == [missed]

    def test_an_invalid_row_writes_nothing(self, root):
        document = _document()
        harness.write_bench("demo", document["rows"], document["gates"])
        bad = harness.row("fig3", "hot", "search", "kernel", seconds=1)
        with pytest.raises(ValueError, match="tier"):
            harness.write_bench("demo", [bad], document["gates"])
        assert _read(root)["rows"] == document["rows"]


class TestMeasure:
    def test_warm_up_value_and_interleaved_samples(self):
        calls = []

        def variant(name):
            def run():
                calls.append(name)
                return name.upper()

            return run

        first, samples = harness.measure(
            {"a": variant("a"), "b": variant("b")}, rounds=3
        )
        assert first == {"a": "A", "b": "B"}
        assert {name: len(s) for name, s in samples.items()} == {
            "a": 3,
            "b": 3,
        }
        assert all(t >= 0 for s in samples.values() for t in s)
        # one warm-up each, then the order flips every round
        assert calls == ["a", "b", "a", "b", "b", "a", "a", "b"]

    def test_collector_free_pauses_and_restores_the_collector(self):
        assert gc.isenabled()
        value, seconds = harness.collector_free(gc.isenabled)
        assert value is False
        assert seconds >= 0
        assert gc.isenabled()

    def test_collector_free_leaves_a_paused_collector_paused(self):
        gc.disable()
        try:
            harness.collector_free(lambda: None)
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_total_sums_an_engines_rows_by_prefix(self):
        rows = [
            harness.row("fig3", "warm", "search", "kernel", states=10),
            harness.row("fig4", "warm", "search", "kernel", states=20),
            harness.row("fig3", "warm", "search", "reference", states=7),
        ]
        assert harness.total(rows, "states", "kernel") == 30
        assert harness.total(rows, "states", "kernel", "fig4") == 20


def test_on_spec_sets_the_pure_switch_for_the_call_only(monkeypatch):
    monkeypatch.setenv("EZRT_PURE", "0")
    assert harness.on_spec(os.environ.get, "EZRT_PURE") == "1"
    assert os.environ["EZRT_PURE"] == "0"
