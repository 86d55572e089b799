"""Simulation-time tracing with Chrome-trace / Perfetto export.

A :class:`Tracer` records spans (``B``/``E`` pairs), instant events and
counter samples on named tracks.  Every event is stamped with **both**
time bases: the kernel's simulated time (picoseconds) and host
wall-clock time (nanoseconds since the tracer was created), so the same
recording can be rendered as a simulated-time timeline (bus and power
behaviour) or a wall-clock profile (where the host CPU went).

Kernel process activations, the bulk of a full trace, are not emitted
event by event: :meth:`Tracer.add_spans` takes them over as a block of
columns (one row of plain numbers per span) and they are expanded into
``B``/``E`` events only when the trace is read or exported.

Export formats:

* :meth:`Tracer.write_chrome` — Chrome trace-event JSON, loadable in
  Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``;
* :meth:`Tracer.write_jsonl` — one compact JSON object per line for
  streaming consumers.

:func:`validate_chrome_trace` re-parses an exported file and checks
the structural invariants (valid JSON, non-decreasing ``ts``, every
``E`` matched to a ``B`` on its track) — used by tests and CI.
"""

from __future__ import annotations

import heapq
import json
import time as _time
from operator import attrgetter

_BY_SIM_TIME = attrgetter("ts_ps")


class TraceEvent:
    """One recorded event."""

    __slots__ = ("ts_ps", "wall_ns", "phase", "pid", "tid", "name",
                 "cat", "args")

    def __init__(self, ts_ps, wall_ns, phase, pid, tid, name, cat,
                 args):
        self.ts_ps = ts_ps
        self.wall_ns = wall_ns
        self.phase = phase
        self.pid = pid
        self.tid = tid
        self.name = name
        self.cat = cat
        self.args = args

    def __repr__(self):
        return "TraceEvent(%s %r @%d ps on %s/%s)" % (
            self.phase, self.name, self.ts_ps, self.pid, self.tid)


class Track:
    """One (process, thread) lane of a tracer."""

    __slots__ = ("tracer", "pid", "tid", "_open", "_kept")

    def __init__(self, tracer, pid, tid):
        self.tracer = tracer
        self.pid = pid
        self.tid = tid
        self._open = []  # names of open spans (for finish/validation)
        # The bottom ``_kept`` open spans had their B stored; spans
        # opened once the tracer was full (it never frees room) lost
        # theirs, so their E is dropped as well.
        self._kept = 0

    def begin(self, name, ts_ps, cat="span", args=None):
        """Open a span at simulated time *ts_ps*."""
        self._open.append(name)
        if self.tracer._emit("B", self, name, ts_ps, cat, args):
            self._kept += 1

    def end(self, ts_ps, args=None):
        """Close the innermost open span."""
        if not self._open:
            raise ValueError(
                "no open span on %s/%s" % (self.pid, self.tid))
        self._close(ts_ps, args)

    def _close(self, ts_ps, args):
        name = self._open.pop()
        if len(self._open) < self._kept:
            # past the cap if need be: a stored B keeps its E
            self._kept -= 1
            self.tracer._append("E", self, name, ts_ps, "span", args)
        else:
            self.tracer.dropped += 1

    def instant(self, name, ts_ps, cat="instant", args=None):
        """A zero-duration marker."""
        self.tracer._emit("i", self, name, ts_ps, cat, args)

    def counter(self, name, ts_ps, values):
        """A sampled set of named values (rendered as stacked series)."""
        self.tracer._emit("C", self, name, ts_ps, "counter",
                          dict(values))

    @property
    def open_spans(self):
        return tuple(self._open)


class NullTrack:
    """No-op track: one shared instance serves every disabled call
    site at the cost of an attribute lookup and an empty call."""

    __slots__ = ()
    pid = tid = "null"
    open_spans = ()

    def begin(self, name, ts_ps, cat="span", args=None):
        pass

    def end(self, ts_ps, args=None):
        pass

    def instant(self, name, ts_ps, cat="instant", args=None):
        pass

    def counter(self, name, ts_ps, values):
        pass


NULL_TRACK = NullTrack()


class Tracer:
    """Records :class:`TraceEvent` streams across named tracks.

    Parameters
    ----------
    max_events:
        Cap on stored events; once reached, further events are counted
        in :attr:`dropped` instead of stored.  The trace stays
        structurally valid: a span whose ``B`` was stored keeps its
        ``E`` past the cap (so :func:`len` can exceed the cap by the
        spans open at that point), a span whose ``B`` was dropped
        drops its ``E`` too, and span blocks are taken whole spans at
        a time.  A pending span counts as two events.
    """

    enabled = True

    def __init__(self, max_events=2_000_000):
        self._events = []
        #: Span blocks taken over by :meth:`add_spans`, as columns.
        self._spans = []
        #: Events held: emitted events plus two per pending span.
        self._stored = 0
        self.max_events = max_events
        self.dropped = 0
        self._tracks = {}
        self._wall_start = _time.perf_counter_ns()

    def wall_now_ns(self):
        """Nanoseconds of host wall-clock since tracer creation."""
        return _time.perf_counter_ns() - self._wall_start

    def track(self, pid, tid):
        """The (created-on-demand) track for process *pid*, lane *tid*."""
        key = (pid, tid)
        track = self._tracks.get(key)
        if track is None:
            track = self._tracks[key] = Track(self, pid, tid)
        return track

    def _emit(self, phase, track, name, ts_ps, cat, args):
        """Store one event unless the cap is reached; True if stored."""
        if self._stored >= self.max_events:
            self.dropped += 1
            return False
        self._append(phase, track, name, ts_ps, cat, args)
        return True

    def _append(self, phase, track, name, ts_ps, cat, args):
        self._stored += 1
        self._events.append(TraceEvent(
            int(ts_ps), self.wall_now_ns(), phase, track.pid,
            track.tid, name, cat, args))

    def add_spans(self, pid, names, index, ts_ps, wall_end_ns, seconds,
                  cat="span"):
        """Take over a block of closed spans, one per row of columns.

        Row *k* is a span on track ``(pid, names[index[k]])`` named
        after its track, zero-width at simulated time ``ts_ps[k]``,
        that ended at the ``time.perf_counter_ns()`` reading
        ``wall_end_ns[k]`` after ``seconds[k]`` of host time.  The
        columns are kept as they are (sequences of plain numbers; the
        caller must not change them afterwards) and expanded into
        ``B``/``E`` events only when the trace is read or exported.
        Spans beyond the cap are dropped whole, the latest first.
        """
        count = len(index)
        room = max(0, (self.max_events - self._stored) // 2)
        if count > room:
            self.dropped += 2 * (count - room)
            count = room
            index, ts_ps = index[:count], ts_ps[:count]
            wall_end_ns, seconds = wall_end_ns[:count], seconds[:count]
        if count:
            self._spans.append((pid, tuple(names), index, ts_ps,
                                wall_end_ns, seconds, cat))
            self._stored += 2 * count

    def _span_events(self):
        """Expand the pending span blocks, in recording order."""
        wall_start = self._wall_start
        for pid, names, index, ts_ps, wall_end_ns, seconds, cat \
                in self._spans:
            for row, ts, end, span_s in zip(index, ts_ps, wall_end_ns,
                                            seconds):
                name = names[row]
                end -= wall_start
                yield TraceEvent(ts, end - round(span_s * 1e9), "B",
                                 pid, name, name, cat, None)
                yield TraceEvent(ts, end, "E", pid, name, name, "span",
                                 {"wall_us": span_s * 1e6})

    def _iter_events(self):
        if not self._spans:
            return iter(self._events)
        return heapq.merge(self._events, self._span_events(),
                           key=_BY_SIM_TIME)

    @property
    def events(self):
        """Every stored event as a fresh list of :class:`TraceEvent`.

        Emitted events and expanded span blocks are merged by
        simulated time; each track keeps its own order, while events
        of different tracks at one instant may interleave differently
        from the order they were recorded in."""
        return list(self._iter_events())

    def finish(self, ts_ps):
        """Force-close every open span at *ts_ps* (end of run)."""
        for track in self._tracks.values():
            while track._open:
                track._close(ts_ps, None)

    def __len__(self):
        return self._stored

    # -- export ---------------------------------------------------------

    def chrome_events(self, timebase="sim"):
        """The trace as a list of Chrome trace-event dicts.

        ``timebase="sim"`` stamps ``ts`` in simulated microseconds
        (kernel process activations collapse to zero width — all the
        work of one delta cascade happens at one simulated instant);
        ``timebase="wall"`` stamps ``ts`` in host microseconds, giving
        a conventional CPU profile of the same run.
        """
        if timebase not in ("sim", "wall"):
            raise ValueError("timebase must be 'sim' or 'wall'")
        sim_time = timebase == "sim"
        # numeric pid/tid assignment in first-use order
        pids, tids = {}, {}
        records = []
        for event in self._iter_events():
            pid = pids.get(event.pid)
            if pid is None:
                pid = pids[event.pid] = len(pids) + 1
            key = (event.pid, event.tid)
            tid = tids.get(key)
            if tid is None:
                tid = tids[key] = len(tids) + 1
            record = {
                "name": event.name,
                "cat": event.cat,
                "ph": event.phase,
                "ts": (event.ts_ps / 1e6 if sim_time
                       else event.wall_ns / 1e3),
                "pid": pid,
                "tid": tid,
            }
            if event.phase == "i":
                record["s"] = "t"  # thread-scoped instant
            if event.args:
                record["args"] = event.args
            elif event.phase == "C":
                record["args"] = {}
            records.append(record)
        out = []
        for name, pid in pids.items():
            out.append({"name": "process_name", "ph": "M", "pid": pid,
                        "tid": 0, "args": {"name": name}})
        for (pid_name, tid_name), tid in tids.items():
            out.append({"name": "thread_name", "ph": "M",
                        "pid": pids[pid_name], "tid": tid,
                        "args": {"name": tid_name}})
        # Chrome/Perfetto want non-decreasing timestamps; Python's sort
        # is stable, so same-ts events keep their order in ``events``
        # and B/E nesting per track survives.
        records.sort(key=lambda record: record["ts"])
        return out + records

    def write_chrome(self, path, timebase="sim"):
        """Write Chrome trace-event JSON to *path*; returns the path."""
        payload = {
            "traceEvents": self.chrome_events(timebase=timebase),
            "displayTimeUnit": "ns",
            "otherData": {
                "generator": "repro.telemetry",
                "timebase": timebase,
                "dropped_events": self.dropped,
            },
        }
        # one C-encoded string: json.dump would encode in pure Python
        text = json.dumps(payload)
        with open(path, "w") as fh:
            fh.write(text)
        return path

    def write_jsonl(self, path):
        """Write the compact one-object-per-line stream to *path*."""
        with open(path, "w") as fh:
            for event in self._iter_events():
                record = {"ts_ps": event.ts_ps,
                          "wall_ns": event.wall_ns,
                          "ph": event.phase, "pid": event.pid,
                          "tid": event.tid, "name": event.name,
                          "cat": event.cat}
                if event.args:
                    record["args"] = event.args
                fh.write(json.dumps(record) + "\n")
        return path


class NullTracer:
    """Disabled tracer: hands out :data:`NULL_TRACK` for every track."""

    enabled = False
    events = ()
    dropped = 0

    def track(self, pid, tid):
        return NULL_TRACK

    def wall_now_ns(self):
        return 0

    def add_spans(self, pid, names, index, ts_ps, wall_end_ns, seconds,
                  cat="span"):
        pass

    def finish(self, ts_ps):
        pass

    def __len__(self):
        return 0


NULL_TRACER = NullTracer()


def validate_chrome_trace(path):
    """Check the structural invariants of an exported Chrome trace.

    Returns a list of problem strings (empty = valid):

    * the file parses as JSON with a ``traceEvents`` list;
    * non-metadata timestamps are non-decreasing;
    * every ``E`` matches an open ``B`` on its ``(pid, tid)`` track
      and no ``B`` is left open.
    """
    problems = []
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except ValueError as exc:
        return ["not valid JSON: %s" % exc]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["no traceEvents list"]
    last_ts = None
    stacks = {}
    for index, event in enumerate(events):
        phase = event.get("ph")
        if phase == "M":
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)):
            problems.append("event %d has no numeric ts" % index)
            continue
        if last_ts is not None and ts < last_ts:
            problems.append(
                "ts not monotonic at event %d (%r < %r)"
                % (index, ts, last_ts))
        last_ts = ts
        key = (event.get("pid"), event.get("tid"))
        if phase == "B":
            stacks.setdefault(key, []).append(event.get("name"))
        elif phase == "E":
            stack = stacks.get(key)
            if not stack:
                problems.append(
                    "unmatched E %r on track %r (event %d)"
                    % (event.get("name"), key, index))
            else:
                stack.pop()
    for key, stack in stacks.items():
        if stack:
            problems.append(
                "unclosed span(s) %r on track %r" % (stack, key))
    return problems
