"""Tracer tests: spans, export round-trip, validation, null backend."""

import json

import pytest

from repro.telemetry import NULL_TRACER, Tracer, validate_chrome_trace


def sample_tracer():
    tracer = Tracer()
    track = tracer.track("bus", "master0")
    track.begin("transfer", 1000, cat="bus.master")
    track.instant("wait", 2000, cat="bus.wait")
    track.end(3000)
    power = tracer.track("power", "power_fsm")
    power.begin("WRITE", 0)
    power.end(5000)
    power.counter("energy_j", 5000, {"ARB": 1e-12, "M2S": 2e-12})
    return tracer


class TestTracks:
    def test_span_pairing(self):
        tracer = sample_tracer()
        phases = [event.phase for event in tracer.events]
        assert phases.count("B") == phases.count("E") == 2

    def test_end_without_begin_rejected(self):
        with pytest.raises(ValueError):
            Tracer().track("p", "t").end(0)

    def test_nested_spans_close_innermost_first(self):
        tracer = Tracer()
        track = tracer.track("p", "t")
        track.begin("outer", 0)
        track.begin("inner", 10)
        track.end(20)
        track.end(30)
        names = [event.name for event in tracer.events
                 if event.phase == "E"]
        assert names == ["inner", "outer"]

    def test_finish_closes_open_spans(self):
        tracer = Tracer()
        track = tracer.track("p", "t")
        track.begin("dangling", 0)
        tracer.finish(999)
        assert not track.open_spans
        last = tracer.events[-1]
        assert last.phase == "E" and last.ts_ps == 999

    def test_event_cap_counts_drops(self):
        tracer = Tracer(max_events=2)
        track = tracer.track("p", "t")
        for index in range(5):
            track.instant("i%d" % index, index)
        assert len(tracer) == 2
        assert tracer.dropped == 3

    def test_cap_keeps_spans_whole(self, tmp_path):
        tracer = Tracer(max_events=3)
        outer = tracer.track("p", "outer")
        inner = tracer.track("p", "inner")
        outer.begin("kept", 0)          # stored
        inner.begin("kept", 1)          # stored
        outer.instant("full", 2)        # stored: the cap is reached
        inner.end(3)                    # B stored: E kept past the cap
        inner.begin("lost", 4)          # dropped
        inner.end(5)                    # B dropped: E dropped too
        outer.begin("open", 6)          # dropped
        tracer.finish(7)                # closes "kept", drops "open"
        assert len(tracer) == 5
        assert tracer.dropped == 4
        assert [(event.tid, event.phase, event.name)
                for event in tracer.events] == [
            ("outer", "B", "kept"), ("inner", "B", "kept"),
            ("outer", "i", "full"), ("inner", "E", "kept"),
            ("outer", "E", "kept")]
        path = tracer.write_chrome(str(tmp_path / "capped.json"))
        assert validate_chrome_trace(path) == []

    def test_dual_timebase_recorded(self):
        tracer = sample_tracer()
        for event in tracer.events:
            assert event.wall_ns >= 0
            assert isinstance(event.ts_ps, int)


def span_block_tracer(max_events=2_000_000):
    """A tracer holding one bus span and a block of three kernel
    spans on two tracks, handed over as columns."""
    tracer = Tracer(max_events=max_events)
    track = tracer.track("bus", "master0")
    track.begin("transfer", 1000, cat="bus.master")
    track.end(3000)
    start = tracer._wall_start
    tracer.add_spans("kernel", ["tick", "decode"],
                     [0, 1, 0], [1000, 1000, 2000],
                     [start + 5000, start + 6000, start + 9000],
                     [2e-6, 5e-7, 1e-6], cat="kernel.process")
    return tracer


class TestSpanBlocks:
    def test_counted_as_two_events_each(self):
        tracer = span_block_tracer()
        assert len(tracer) == 2 + 6
        assert len(tracer.events) == len(tracer)

    def test_expansion(self):
        events = [(event.tid, event.phase, event.ts_ps, event.wall_ns,
                   event.cat, event.args)
                  for event in span_block_tracer().events
                  if event.pid == "kernel"]
        assert events == [
            ("tick", "B", 1000, 3000, "kernel.process", None),
            ("tick", "E", 1000, 5000, "span", {"wall_us": 2.0}),
            ("decode", "B", 1000, 5500, "kernel.process", None),
            ("decode", "E", 1000, 6000, "span", {"wall_us": 0.5}),
            ("tick", "B", 2000, 8000, "kernel.process", None),
            ("tick", "E", 2000, 9000, "span", {"wall_us": 1.0}),
        ]

    def test_merged_with_emitted_events_by_sim_time(self):
        names = [(event.name, event.phase)
                 for event in span_block_tracer().events]
        assert names == [
            ("transfer", "B"), ("tick", "B"), ("tick", "E"),
            ("decode", "B"), ("decode", "E"), ("tick", "B"),
            ("tick", "E"), ("transfer", "E")]

    def test_cap_drops_whole_spans(self, tmp_path):
        tracer = span_block_tracer(max_events=5)
        assert len(tracer) == 4
        assert tracer.dropped == 4
        assert [event.tid for event in tracer.events
                if event.pid == "kernel"] == ["tick", "tick"]
        for timebase in ("sim", "wall"):
            path = tracer.write_chrome(
                str(tmp_path / (timebase + ".json")), timebase=timebase)
            assert validate_chrome_trace(path) == []

    def test_one_group_may_fill_most_of_the_cap(self):
        tracer = Tracer(max_events=9)
        bus = tracer.track("bus", "master0")
        bus.instant("beat", 0)
        start = tracer._wall_start
        tracer.add_spans("kernel", ["tick"], [0, 0, 0], [0, 1, 2],
                         [start] * 3, [0.0] * 3, cat="kernel.process")
        tracer.track("power", "energy").counter("energy_j", 2, {"m": 1})
        assert len(tracer) == 8
        assert tracer.dropped == 0
        assert tracer.room == 1

    def test_exports(self, tmp_path):
        tracer = span_block_tracer()
        path = str(tmp_path / "trace.jsonl")
        tracer.write_jsonl(path)
        lines = [json.loads(line)
                 for line in open(path).read().splitlines()]
        assert len(lines) == len(tracer)
        assert lines[1] == {"ts_ps": 1000, "wall_ns": 3000, "ph": "B",
                            "pid": "kernel", "tid": "tick",
                            "name": "tick", "cat": "kernel.process"}
        records = [event for event in tracer.chrome_events("wall")
                   if event["ph"] != "M"]
        assert [event["ts"] for event in records] \
            == sorted(event["ts"] for event in records)


class TestChromeExport:
    def test_round_trip_valid(self, tmp_path):
        path = str(tmp_path / "trace.json")
        sample_tracer().write_chrome(path)
        assert validate_chrome_trace(path) == []
        payload = json.loads(open(path).read())
        assert payload["otherData"]["timebase"] == "sim"

    def test_wall_timebase_valid(self, tmp_path):
        path = str(tmp_path / "trace.json")
        sample_tracer().write_chrome(path, timebase="wall")
        assert validate_chrome_trace(path) == []

    def test_bad_timebase_rejected(self):
        with pytest.raises(ValueError):
            sample_tracer().chrome_events(timebase="lunar")

    def test_metadata_names_tracks(self):
        events = sample_tracer().chrome_events()
        meta = [event for event in events if event["ph"] == "M"]
        names = {event["args"]["name"] for event in meta}
        assert {"bus", "power", "master0", "power_fsm"} <= names

    def test_ts_monotonic_and_microseconds(self):
        events = [event for event in sample_tracer().chrome_events()
                  if event["ph"] != "M"]
        ts = [event["ts"] for event in events]
        assert ts == sorted(ts)
        # 1000 ps == 0.001 us
        begin = next(event for event in events
                     if event["name"] == "transfer")
        assert begin["ts"] == pytest.approx(1e-3)

    def test_instants_are_thread_scoped(self):
        events = sample_tracer().chrome_events()
        instant = next(event for event in events
                       if event["ph"] == "i")
        assert instant["s"] == "t"

    def test_validator_flags_unmatched_end(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"traceEvents": [
            {"name": "x", "ph": "E", "ts": 0, "pid": 1, "tid": 1},
        ]}))
        problems = validate_chrome_trace(str(path))
        assert any("unmatched E" in problem for problem in problems)

    def test_validator_flags_non_monotonic(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"traceEvents": [
            {"name": "a", "ph": "i", "ts": 5, "pid": 1, "tid": 1},
            {"name": "b", "ph": "i", "ts": 1, "pid": 1, "tid": 1},
        ]}))
        problems = validate_chrome_trace(str(path))
        assert any("monotonic" in problem for problem in problems)

    def test_validator_flags_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert validate_chrome_trace(str(path))


class TestJsonlExport:
    def test_one_object_per_line(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        tracer = sample_tracer()
        tracer.write_jsonl(path)
        lines = open(path).read().splitlines()
        assert len(lines) == len(tracer.events)
        first = json.loads(lines[0])
        assert first["ts_ps"] == 1000
        assert "wall_ns" in first


class TestNullTracer:
    def test_noop_and_shared(self):
        track = NULL_TRACER.track("p", "t")
        assert track is NULL_TRACER.track("other", "lane")
        track.begin("x", 0)
        track.end(1)
        track.instant("y", 2)
        track.counter("c", 3, {})
        assert len(NULL_TRACER) == 0
        NULL_TRACER.finish(100)
