"""In-memory spans around the public calls of each layer.

A :class:`Spans` recorder keeps ``(id, name, start, end, parent,
run_id, attrs)`` records in memory and writes them once, as JSON, when
the traced run ends.  :meth:`Spans.patched` wraps the public functions
the benchmark's workloads reach *through* other public functions
(``replay.execute`` building a scenario, the executor journalling a
result, ...) for the duration of a ``with`` block, and restores them on
exit; the program itself is never edited.  Everything runs in one
process, so executor workloads trace at ``jobs = 1``.
"""

from __future__ import annotations

import contextlib
import json
import os
import time


class Spans:
    """Span and engine records of one traced run."""

    def __init__(self):
        self.records = []
        self.run_id = None
        self._stack = []
        self._next_id = 0
        #: Engines returned by ``compile_system`` since the last
        #: :meth:`fold_engines` (their run counters are read once the
        #: runs that used them are over).
        self._engines = []
        self.compiles = 0
        self.declines = 0
        self.fallback_reasons = {}

    @contextlib.contextmanager
    def span(self, name, **attrs):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.records.append({
                "id": span_id, "name": name, "start": start, "end": end,
                "parent": parent, "run_id": self.run_id, "attrs": attrs,
            })

    def wrap(self, fn, name, attrs_of=None):
        """*fn* with every call recorded as a span called *name*."""
        def traced(*args, **kwargs):
            attrs = attrs_of(*args, **kwargs) if attrs_of else {}
            with self.span(name, **attrs):
                return fn(*args, **kwargs)
        return traced

    # -- engine declines ------------------------------------------------

    def note_engine(self, engine):
        self._engines.append(engine)
        return engine

    def fold_engines(self):
        """Count the compiles whose engine never ran a call compiled."""
        for engine in self._engines:
            self.compiles += 1
            if engine.runs_compiled == 0:
                self.declines += 1
                reason = engine.fallback_reason or "unknown"
                self.fallback_reasons[reason] = \
                    self.fallback_reasons.get(reason, 0) + 1
        self._engines = []

    # -- queries --------------------------------------------------------

    def select(self, name, run_prefix=None, **attrs):
        return [record for record in self.records
                if record["name"] == name
                and (run_prefix is None
                     or (record["run_id"] or "").startswith(run_prefix))
                and all(record["attrs"].get(key) == value
                        for key, value in attrs.items())]

    def durations(self, name, run_prefix=None, **attrs):
        return [record["end"] - record["start"]
                for record in self.select(name, run_prefix, **attrs)]

    def group_under(self, ancestor_name, name, **attrs):
        """Spans called *name* grouped by their nearest enclosing span
        called *ancestor_name*: ``{ancestor: [spans]}``."""
        by_id = {record["id"]: record for record in self.records}
        groups = {}
        for record in self.select(name, **attrs):
            parent = by_id.get(record["parent"])
            while parent is not None and parent["name"] != ancestor_name:
                parent = by_id.get(parent["parent"])
            if parent is not None:
                groups.setdefault(parent["id"], []).append(record)
        return groups

    def durations_under(self, ancestor_name, name, **attrs):
        return [record["end"] - record["start"]
                for group in self.group_under(ancestor_name, name,
                                              **attrs).values()
                for record in group]

    def dump(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"spans": self.records,
                       "compiles": self.compiles,
                       "declines": self.declines,
                       "fallback_reasons": self.fallback_reasons}, fh)

    # -- patching -------------------------------------------------------

    @contextlib.contextmanager
    def patched(self):
        """Record spans around the public calls one layer makes into
        another, for the duration of the block."""
        import importlib

        import repro.compiled
        import repro.faults
        import repro.fuzz
        import repro.replay
        import repro.state
        import repro.tlm
        import repro.workloads
        # Submodules by name: ``repro.replay.shrink`` is also a function.
        executor = importlib.import_module("repro.exec.executor")
        journal = importlib.import_module("repro.exec.journal")
        shrink = importlib.import_module("repro.replay.shrink")
        trace = importlib.import_module("repro.replay.trace")

        def spec_attrs(spec, *args, **kwargs):
            return {"tier": spec.tier, "engine": spec.engine,
                    "duration_us": spec.duration_us}

        def compile_traced(system, *args, **kwargs):
            with self.span("compile_system"):
                engine = original_compile(system, *args, **kwargs)
            return self.note_engine(engine)

        original_compile = repro.compiled.compile_system
        patches = [
            (repro.compiled, "compile_system", compile_traced),
            (repro.workloads, "build_paper_testbench",
             self.wrap(repro.workloads.build_paper_testbench,
                       "build_paper_testbench")),
            (repro.faults, "run_fault_campaign",
             self.wrap(repro.faults.run_fault_campaign,
                       "run_fault_campaign")),
            (repro.fuzz, "run_fuzz_campaign",
             self.wrap(repro.fuzz.run_fuzz_campaign, "run_fuzz_campaign")),
            (repro.tlm, "validate_table",
             self.wrap(repro.tlm.validate_table, "validate_table")),
            (trace, "build_scenario",
             self.wrap(trace.build_scenario,
                       "build_scenario")),
            (repro.replay, "execute",
             self.wrap(repro.replay.execute, "replay.execute",
                       spec_attrs)),
            (shrink, "execute",
             self.wrap(shrink.execute, "replay.execute",
                       lambda spec, *a, **k: dict(spec_attrs(spec),
                                                  caller="shrink"))),
            (repro.tlm, "execute_tlm",
             self.wrap(repro.tlm.execute_tlm, "execute_tlm")),
            (executor, "execute_payload",
             self.wrap(executor.execute_payload,
                       "execute_payload")),
            (repro.state.CheckpointStore, "put",
             self.wrap(repro.state.CheckpointStore.put,
                       "CheckpointStore.put")),
            (journal.CampaignJournal, "append",
             self.wrap(journal.CampaignJournal.append,
                       "CampaignJournal.append")),
            (repro.workloads.AhbSystem, "snapshot",
             self.wrap(repro.workloads.AhbSystem.snapshot,
                       "AhbSystem.snapshot")),
            (repro.workloads.AhbSystem, "run",
             self.wrap(repro.workloads.AhbSystem.run, "AhbSystem.run")),
        ]
        saved = [(owner, name, getattr(owner, name))
                 for owner, name, _ in patches]
        try:
            for owner, name, replacement in patches:
                setattr(owner, name, replacement)
            yield self
        finally:
            for owner, name, original in saved:
                setattr(owner, name, original)
