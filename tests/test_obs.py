"""The repro.obs observability layer (ISSUE 6).

Covers the recorder/sink/null-recorder contracts, the Chrome
trace-event exporter (JSONL → Perfetto-openable JSON, deterministic
structure under ``normalize=True``), the metrics registry and its
cross-process snapshot merging (including a real ``--parallel 2``
portfolio race), the progress heartbeat, the zero-elapsed throughput
guard, and the CLI ``--trace`` round trip.
"""

from __future__ import annotations

import io
import json
import multiprocessing
import os

import pytest

from repro.blocks import compose
from repro.obs import (
    NULL_RECORDER,
    JsonlSink,
    MetricsRegistry,
    NullRecorder,
    ProgressFile,
    ProgressPrinter,
    Recorder,
    chrome_trace,
    format_metrics,
    read_events,
    write_chrome_trace,
)
from repro.scheduler import SchedulerConfig, find_schedule
from repro.scheduler.result import SearchStats
from repro.spec import paper_examples
from repro.tpn import _dbmc


def _no_ezrt_children() -> bool:
    return not [
        child
        for child in multiprocessing.active_children()
        if child.name.startswith("ezrt-")
    ]


# ----------------------------------------------------------------------
# Recorder and sink
# ----------------------------------------------------------------------
class TestRecorder:
    def test_span_record(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        recorder = Recorder(JsonlSink(path), track="t1")
        with recorder.span("compile", cat="compile", spec="fig3"):
            pass
        recorder.record_span("search", 10, 250, args={"n": 3})
        recorder.close()
        events = read_events(path)
        assert [e["name"] for e in events] == ["compile", "search"]
        span = events[0]
        assert span["type"] == "span"
        assert span["cat"] == "compile"
        assert span["args"] == {"spec": "fig3"}
        assert span["dur"] >= 0
        assert span["pid"] == os.getpid()
        assert span["track"] == "t1"
        assert events[1]["ts"] == 10 and events[1]["dur"] == 240

    def test_span_recorded_even_when_body_raises(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        recorder = Recorder(JsonlSink(path))
        try:
            with recorder.span("boom"):
                raise RuntimeError("inside")
        except RuntimeError:
            pass
        assert [e["name"] for e in read_events(path)] == ["boom"]

    def test_negative_duration_clamped(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        recorder = Recorder(JsonlSink(path))
        recorder.record_span("clock-skew", 500, 100)
        assert read_events(path)[0]["dur"] == 0

    def test_instant_and_counter(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        recorder = Recorder(JsonlSink(path), track="w0")
        recorder.instant("cancelled", reason="first-win")
        recorder.counter("progress", states=100, depth=7)
        kinds = {e["type"]: e for e in read_events(path)}
        assert kinds["instant"]["args"] == {"reason": "first-win"}
        assert kinds["counter"]["values"] == {
            "states": 100,
            "depth": 7,
        }

    def test_track_relabel_applies_to_later_events(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        recorder = Recorder(JsonlSink(path), track="before")
        recorder.instant("a")
        recorder.track = "after"
        recorder.instant("b")
        assert [e["track"] for e in read_events(path)] == [
            "before",
            "after",
        ]

    def test_null_recorder_writes_nothing(self, tmp_path):
        path = str(tmp_path / "never-created.jsonl")
        null = NullRecorder()
        assert null.enabled is False
        with null.span("compile", spec="x"):
            pass
        null.record_span("a", 0, 1)
        null.instant("b")
        null.counter("c", n=1)
        null.close()
        assert not os.path.exists(path)
        assert NULL_RECORDER.now_ns() > 0

    def test_read_events_skips_torn_lines(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        recorder = Recorder(JsonlSink(path))
        recorder.instant("whole")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"type": "span", "name": "torn", "ts": 12')
        events = read_events(path)
        assert [e["name"] for e in events] == ["whole"]


# ----------------------------------------------------------------------
# Chrome trace exporter
# ----------------------------------------------------------------------
class TestChromeTrace:
    def test_empty(self):
        assert chrome_trace([]) == {
            "traceEvents": [],
            "displayTimeUnit": "ms",
        }

    def test_normalized_structure(self):
        events = [
            {
                "type": "span",
                "name": "search",
                "cat": "search",
                "ts": 5_000_000,
                "dur": 2_000,
                "pid": 4242,
                "track": "search:kernel",
                "args": {},
            },
            {
                "type": "span",
                "name": "compile",
                "cat": "compile",
                "ts": 4_000_000,
                "dur": 1_000,
                "pid": 77,
                "track": "cli",
                "args": {},
            },
        ]
        doc = chrome_trace(events, normalize=True)
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        # pids renumbered 1..n by first-seen timestamp: pid 77 first
        assert [e["name"] for e in xs] == ["compile", "search"]
        assert xs[0]["pid"] == 1 and xs[1]["pid"] == 2
        # timestamps rebased to the earliest event, ns -> us
        assert xs[0]["ts"] == 0.0
        assert xs[1]["ts"] == 1000.0
        assert xs[1]["dur"] == 2.0
        metas = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        names = {
            (e["name"], e["pid"], e["args"]["name"]) for e in metas
        }
        assert ("process_name", 1, "ezrt") in names
        assert ("thread_name", 1, "cli") in names
        assert ("thread_name", 2, "search:kernel") in names

    def test_instants_and_counters_mapped(self):
        events = [
            {
                "type": "instant",
                "name": "cancelled",
                "cat": "race",
                "ts": 10,
                "pid": 1,
                "track": "w0",
                "args": {"x": 1},
            },
            {
                "type": "counter",
                "name": "progress",
                "ts": 20,
                "pid": 1,
                "track": "w0",
                "values": {"states": 5},
            },
        ]
        doc = chrome_trace(events)
        by_ph = {e["ph"]: e for e in doc["traceEvents"]}
        assert by_ph["i"]["s"] == "t"
        assert by_ph["i"]["args"] == {"x": 1}
        assert by_ph["C"]["args"] == {"states": 5}

    def test_jsonl_round_trip(self, tmp_path):
        jsonl = str(tmp_path / "events.jsonl")
        out = str(tmp_path / "trace.json")
        recorder = Recorder(JsonlSink(jsonl), track="main")
        with recorder.span("compile", cat="compile"):
            pass
        recorder.counter("progress", states=1)
        written = write_chrome_trace(jsonl, out, normalize=True)
        assert written == out
        with open(out, encoding="utf-8") as fh:
            doc = json.load(fh)
        phases = sorted(e["ph"] for e in doc["traceEvents"])
        assert phases == ["C", "M", "M", "X"]

    def test_search_trace_structure_is_deterministic(self, tmp_path):
        """Two traced runs of one model have identical span structure.

        Wall-clock timestamps differ run to run; the *structure* —
        which spans exist, on which tracks, in which per-track order —
        must not.  ``normalize=True`` makes the pid numbering
        comparable too.
        """
        model = compose(paper_examples()["fig4"])

        def structure(run: int):
            jsonl = str(tmp_path / f"run{run}.jsonl")
            result = find_schedule(
                model, SchedulerConfig(trace_jsonl=jsonl)
            )
            assert result.feasible
            doc = chrome_trace(
                read_events(jsonl), normalize=True
            )
            return [
                (e["ph"], e["pid"], e["tid"], e["name"], e["cat"])
                for e in doc["traceEvents"]
                if e["ph"] == "X"
            ], [
                (e["pid"], e["args"]["name"])
                for e in doc["traceEvents"]
                if e["ph"] == "M" and e["name"] == "thread_name"
            ]

        assert structure(1) == structure(2)

    def test_serial_trace_covers_the_pipeline(self, tmp_path):
        # the kernel engine runs its search in the native driver, which
        # times the two phases in C when tracing is on
        for engine in ("reference", "kernel"):
            jsonl = str(tmp_path / f"events-{engine}.jsonl")
            model = compose(paper_examples()["fig4"])
            find_schedule(
                model, SchedulerConfig(engine=engine, trace_jsonl=jsonl)
            )
            events = read_events(jsonl)
            names = {e["name"] for e in events}
            assert {
                "search",
                "successor-generation",
                "candidate-enumeration",
            } <= names
            search_span = next(e for e in events if e["name"] == "search")
            assert search_span["args"]["engine"] == engine
            assert search_span["args"]["states_visited"] > 0
            # aggregate child spans nest inside the search span
            for child in (
                "successor-generation",
                "candidate-enumeration",
            ):
                span = next(e for e in events if e["name"] == child)
                assert span["args"]["aggregate"] is True
                assert span["args"]["calls"] > 0
                assert span["ts"] >= search_span["ts"]
                assert (
                    span["ts"] + span["dur"]
                    <= search_span["ts"] + search_span["dur"]
                )

    def test_stateclass_trace_has_concretisation_and_replay(
        self, tmp_path
    ):
        jsonl = str(tmp_path / "events.jsonl")
        model = compose(paper_examples()["fig4"])
        result = find_schedule(
            model,
            SchedulerConfig(engine="stateclass", trace_jsonl=jsonl),
        )
        assert result.feasible
        names = {e["name"] for e in read_events(jsonl)}
        assert {"concretisation", "reference-replay"} <= names

    @pytest.mark.parametrize("pure", [False, True])
    @pytest.mark.parametrize("engine", ["kernel", "stateclass"])
    def test_trace_says_which_path_ran(
        self, tmp_path, monkeypatch, engine, pure
    ):
        """The core instant and gauge say whether the native driver or
        the executable spec ran; the search span names the requested
        engine either way."""
        if pure:
            monkeypatch.setenv(_dbmc.PURE_ENV, "1")
        else:
            monkeypatch.delenv(_dbmc.PURE_ENV, raising=False)
            if _dbmc.native_module() is None:
                pytest.skip("the native core cannot be built here")
        jsonl = str(tmp_path / "events.jsonl")
        result = find_schedule(
            compose(paper_examples()["fig3"]),
            SchedulerConfig(engine=engine, trace_jsonl=jsonl),
        )
        assert result.feasible
        events = read_events(jsonl)
        core = "kernel" if engine == "kernel" else "dbm"
        instant = next(e for e in events if e["name"] == f"{core}-core")
        assert instant["args"]["native"] is not pure
        gauge = result.metrics["gauges"][f"{core}.native_core"]
        assert gauge == (0.0 if pure else 1.0)
        search_span = next(e for e in events if e["name"] == "search")
        assert search_span["args"]["engine"] == engine

    def test_traced_stateclass_driver_search(self, tmp_path, monkeypatch):
        """A dense search run by the DBM core's C driver reports the
        aggregate phase spans from the driver's timers and the
        visited-bytes gauges, as a kernel driver search does."""
        if _dbmc.native_module() is None:
            pytest.skip("the DBM engine's compiled core cannot be built")
        monkeypatch.delenv(_dbmc.PURE_ENV, raising=False)
        jsonl = str(tmp_path / "events.jsonl")
        model = compose(paper_examples()["mine-pump"])
        result = find_schedule(
            model,
            SchedulerConfig(engine="stateclass", trace_jsonl=jsonl),
        )
        assert result.feasible
        events = read_events(jsonl)
        search_span = next(e for e in events if e["name"] == "search")
        assert search_span["args"]["engine"] == "stateclass"
        visited = result.stats.states_visited
        assert search_span["args"]["states_visited"] == visited
        for child in ("successor-generation", "candidate-enumeration"):
            span = next(e for e in events if e["name"] == child)
            assert span["args"]["aggregate"] is True
            assert span["args"]["calls"] > 0
            assert (
                span["ts"] + span["dur"]
                <= search_span["ts"] + search_span["dur"]
            )
        gauges = result.metrics["gauges"]
        assert gauges["search.visited_bytes"] > 0
        assert gauges["search.bytes_per_state"] == pytest.approx(
            gauges["search.visited_bytes"] / visited
        )

    def test_native_finish_keeps_its_spans(self, tmp_path, monkeypatch):
        """With the native core live, the concretisation and the
        reference replay of a feasible dense search run in C and still
        emit one span each, after the search span."""
        if _dbmc.native_module() is None:
            pytest.skip("the DBM engine's compiled core cannot be built")
        monkeypatch.delenv(_dbmc.PURE_ENV, raising=False)
        jsonl = str(tmp_path / "events.jsonl")
        model = compose(paper_examples()["fig8"])
        result = find_schedule(
            model,
            SchedulerConfig(engine="stateclass", trace_jsonl=jsonl),
        )
        assert result.feasible
        assert result.metrics["gauges"]["dbm.native_core"] == 1
        events = read_events(jsonl)
        names = [e["name"] for e in events]
        assert names.count("concretisation") == 1
        assert names.count("reference-replay") == 1
        search_span = next(e for e in events if e["name"] == "search")
        for name in ("concretisation", "reference-replay"):
            span = next(e for e in events if e["name"] == name)
            assert span["ts"] >= search_span["ts"]


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counters_gauges_histograms(self):
        reg = MetricsRegistry()
        reg.inc("hits")
        reg.inc("hits", 2)
        reg.set_gauge("depth", 5)
        reg.set_gauge("depth", 3)  # last write wins locally
        reg.max_gauge("peak", 7)
        reg.max_gauge("peak", 4)  # never lowers
        reg.observe("lat", 1.0)
        reg.observe("lat", 3.0)
        snap = reg.snapshot()
        assert snap["counters"] == {"hits": 3}
        assert snap["gauges"] == {"depth": 3, "peak": 7}
        assert snap["histograms"]["lat"] == {
            "count": 2,
            "sum": 4.0,
            "min": 1.0,
            "max": 3.0,
        }

    def test_snapshot_is_a_copy(self):
        reg = MetricsRegistry()
        reg.inc("n")
        snap = reg.snapshot()
        reg.inc("n")
        assert snap["counters"] == {"n": 1}

    def test_merge_semantics(self):
        a = MetricsRegistry()
        a.inc("cache.hits", 2)
        a.max_gauge("depth", 10)
        a.observe("secs", 1.0)
        b = MetricsRegistry()
        b.inc("cache.hits", 3)
        b.max_gauge("depth", 8)
        b.observe("secs", 5.0)
        merged = MetricsRegistry.merge_snapshots(
            [a.snapshot(), None, b.snapshot(), {}]
        )
        assert merged["counters"] == {"cache.hits": 5}  # sum
        assert merged["gauges"] == {"depth": 10}  # max
        assert merged["histograms"]["secs"] == {
            "count": 2,
            "sum": 6.0,
            "min": 1.0,
            "max": 5.0,
        }

    def test_format_metrics(self):
        reg = MetricsRegistry()
        reg.inc("slot.earliest.feasible", 4)
        reg.set_gauge("slot.earliest.wall_seconds", 0.25)
        reg.observe("job.seconds", 2.0)
        text = format_metrics(reg.snapshot())
        assert "counters:" in text
        assert "slot.earliest.feasible" in text
        assert "slot.earliest.wall_seconds" in text
        assert "count=1 mean=2" in text
        assert format_metrics({}) == "(no metrics recorded)"
        assert format_metrics(None) == "(no metrics recorded)"


# ----------------------------------------------------------------------
# Progress heartbeat
# ----------------------------------------------------------------------
class TestProgressPrinter:
    def test_rate_limited(self):
        stream = io.StringIO()
        printer = ProgressPrinter(
            label="x", interval=3600.0, stream=stream
        )
        printer(100, 200, 5)
        assert stream.getvalue() == ""
        assert printer.samples == 0

    def test_sample_prints_and_records(self, tmp_path):
        stream = io.StringIO()
        jsonl = str(tmp_path / "events.jsonl")
        metrics = MetricsRegistry()
        printer = ProgressPrinter(
            label="search:kernel",
            interval=0.0,
            stream=stream,
            recorder=Recorder(JsonlSink(jsonl)),
            metrics=metrics,
        )
        printer(1024, 2048, 9)
        line = stream.getvalue()
        assert line.startswith("[progress] search:kernel:")
        assert "1,024 states visited" in line
        assert "depth 9" in line
        counter = read_events(jsonl)[0]
        assert counter["type"] == "counter"
        assert counter["values"]["states"] == 1024
        assert counter["values"]["depth"] == 9
        assert metrics.snapshot()["counters"] == {
            "progress.samples": 1
        }

    def test_disabled_recorder_not_called(self):
        stream = io.StringIO()
        printer = ProgressPrinter(
            interval=0.0, stream=stream, recorder=NULL_RECORDER
        )
        printer(10, 20, 1)  # must not raise, NULL recorder skipped
        assert "[progress]" in stream.getvalue()


class TestProgressFile:
    def test_rate_limited(self, tmp_path):
        path = str(tmp_path / "progress.json")
        spool = ProgressFile(path, interval=3600.0)
        spool(100, 200, 5)
        assert not os.path.exists(path)
        assert spool.samples == 0

    def test_sample_spools_atomic_json(self, tmp_path):
        path = str(tmp_path / "progress.json")
        spool = ProgressFile(path, slot="kernel", interval=0.0)
        spool(1024, 2048, 9)
        with open(path, encoding="utf-8") as handle:
            sample = json.load(handle)
        assert sample == {
            "slot": "kernel",
            "states_visited": 1024,
            "states_generated": 2048,
            "states_per_sec": sample["states_per_sec"],
            "depth": 9,
        }
        assert sample["states_per_sec"] >= 0
        # no leftover temp file: the write went through os.replace
        assert os.listdir(tmp_path) == ["progress.json"]
        # a later sample overwrites, never appends
        spool(4096, 8192, 3)
        with open(path, encoding="utf-8") as handle:
            sample = json.load(handle)
        assert sample["states_visited"] == 4096
        assert sample["depth"] == 3
        assert spool.samples == 2

    def test_vanished_directory_never_raises(self, tmp_path):
        gone = tmp_path / "gone"
        gone.mkdir()
        spool = ProgressFile(str(gone / "p.json"), interval=0.0)
        gone.rmdir()  # spool dir torn down mid-search
        spool(10, 20, 1)  # best-effort: swallowed, search unharmed
        assert spool.samples == 1


# ----------------------------------------------------------------------
# Search metrics end to end
# ----------------------------------------------------------------------
class TestSearchMetrics:
    def test_serial_search_ships_a_snapshot(self):
        model = compose(paper_examples()["fig4"])
        result = find_schedule(model, SchedulerConfig())
        assert set(result.metrics) == {
            "counters",
            "gauges",
            "histograms",
        }

    @pytest.mark.parametrize("engine", ["kernel", "reference"])
    def test_progress_run_samples_depth(self, engine):
        # a heartbeat turns polling on, so the depth gauge is sampled:
        # 3256 expansions make three polls, each calling the heartbeat
        # (here a recorder standing in for the progress printer), and
        # the deepest sample is pinned (the gauge starts at 1, so a run
        # whose polls never fire would read 1)
        model = compose(paper_examples()["mine-pump"])
        depths: list[int] = []
        result = find_schedule(
            model,
            SchedulerConfig(engine=engine, progress=True),
            heartbeat=lambda _visited, _generated, depth: depths.append(
                depth
            ),
        )
        assert result.feasible
        assert result.stats.states_visited == 3256
        assert len(depths) == 3
        assert max(depths) == 2955
        assert result.metrics["gauges"]["search.max_depth"] == 2955

    def test_portfolio_race_merges_worker_metrics(self, tmp_path):
        """--parallel 2: both workers' snapshots land on the result."""
        model = compose(paper_examples()["mine-pump"])
        jsonl = str(tmp_path / "events.jsonl")
        result = find_schedule(
            model,
            SchedulerConfig(
                parallel=2,
                portfolio=("earliest", "min-laxity"),
                trace_jsonl=jsonl,
            ),
        )
        assert result.feasible
        assert result.workers == 2
        gauges = result.metrics["gauges"]
        for slot in ("earliest", "min-laxity"):
            assert gauges[f"slot.{slot}.wall_seconds"] > 0
        counters = result.metrics["counters"]
        # every slot reports exactly one terminal outcome
        outcomes = [
            value
            for name, value in counters.items()
            if name.startswith("slot.")
            and name.split(".")[-1]
            in ("feasible", "infeasible", "cancelled", "error")
        ]
        assert sum(outcomes) == 2
        # one trace track per portfolio worker
        tracks = {
            e["track"]
            for e in read_events(jsonl)
            if e.get("track", "").startswith("w")
        }
        assert {"w0:earliest", "w1:min-laxity"} <= tracks
        assert _no_ezrt_children()

# ----------------------------------------------------------------------
# Batch metrics: cache accounting from the cache's own counters
# ----------------------------------------------------------------------
class TestBatchMetrics:
    def test_cache_metrics_and_bytes_served(self):
        from repro.batch import BatchEngine, ResultCache
        from repro.spec import fig3_precedence, fig4_exclusion

        cache = ResultCache()
        engine = BatchEngine(max_workers=1, cache=cache)
        specs = [fig3_precedence(), fig4_exclusion()]
        first = engine.run(specs)
        assert first.stats.cache_bytes == 0
        metrics = first.stats.metrics
        assert metrics["counters"]["batch.cache.misses"] == 2
        assert metrics["counters"]["batch.jobs.total"] == 2
        assert "cache_bytes" in first.stats.as_dict()
        second = engine.run(specs)
        assert second.stats.cache_hits == 2
        assert second.stats.cache_bytes > 0
        assert (
            second.stats.metrics["counters"]["batch.cache.hits"] == 2
        )
        assert (
            second.stats.metrics["counters"][
                "batch.cache.bytes_served"
            ]
            == second.stats.cache_bytes
        )
        assert "byte(s) served from cache" in second.summary()
        assert "byte(s) served from cache" not in first.summary()

    def test_batch_trace_has_cache_lookup_span(self, tmp_path):
        from repro.batch import BatchEngine
        from repro.spec import fig3_precedence

        jsonl = str(tmp_path / "events.jsonl")
        engine = BatchEngine(
            max_workers=1,
            scheduler_config=SchedulerConfig(trace_jsonl=jsonl),
        )
        engine.run([fig3_precedence()])
        names = {e["name"] for e in read_events(jsonl)}
        assert {"batch-run", "cache-lookup", "compile"} <= names


# ----------------------------------------------------------------------
# Zero-elapsed guard and the profile metrics block
# ----------------------------------------------------------------------
class TestThroughputGuard:
    def test_states_per_second_zero_elapsed(self):
        stats = SearchStats(states_visited=100, elapsed_seconds=0.0)
        assert stats.states_per_second == 0.0
        assert stats.as_dict()["states_per_second"] == 0.0

    def test_states_per_second_negative_elapsed(self):
        stats = SearchStats(states_visited=10, elapsed_seconds=-1.0)
        assert stats.states_per_second == 0.0

    def test_profile_without_metrics(self):
        text = SearchStats(states_visited=5).profile()
        assert "metrics:" not in text
        assert "metrics:" not in SearchStats().profile({})

    def test_profile_appends_metrics_block(self):
        reg = MetricsRegistry()
        reg.max_gauge("search.max_depth", 42)
        text = SearchStats(states_visited=5).profile(reg.snapshot())
        assert "metrics:" in text
        assert "search.max_depth" in text
        assert "42" in text


# ----------------------------------------------------------------------
# CLI --trace round trip
# ----------------------------------------------------------------------
class TestCliTrace:
    def test_schedule_trace_writes_chrome_json(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        out = str(tmp_path / "trace.json")
        code = main(["schedule", "@fig4", "--trace", out])
        assert code == 0
        captured = capsys.readouterr()
        assert "wrote Chrome trace to" in captured.out
        with open(out, encoding="utf-8") as fh:
            doc = json.load(fh)
        names = {
            e["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "X"
        }
        assert {"compile", "search"} <= names

    def test_progress_flag_streams_to_stderr(self, capsys):
        from repro.cli import main

        code = main(["batch", "@fig3", "--progress", "--jobs", "1"])
        assert code == 0
        captured = capsys.readouterr()
        assert "[progress] batch: 1/1 job(s) executed" in captured.err
