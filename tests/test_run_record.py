"""The per-run record: a ``FaultRunResult`` holds one ``RunOutcome``.

Every simulated fact of a campaign run lives in its
:class:`~repro.replay.RunOutcome`; the journal line (and ``--json``
report row) stores each value once.  ``fixtures/
campaign_journal_flat_outcomes.jsonl`` was written by the earlier
record layout, which repeated every fingerprint field flat next to
``"fingerprint"``: two executed runs, a supervisor deadline kill
(``timeout``) and a quarantined run, the last two with
``"fingerprint": null``.  Resuming from it must restore every run
exactly, without executing anything.
"""

import json
import os
import shutil

import pytest

import repro.compiled as compiled_mod
import repro.exec.executor as executor_mod
from repro.compiled import CompileError
from repro.faults import FaultRunResult, run_fault_campaign
from repro.replay import RunOutcome, RunSpec, execute

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures",
                       "campaign_journal_flat_outcomes.jsonl")

#: The campaign the fixture journal records.
CAMPAIGN = dict(scenarios=("portable-audio-player",),
                faults=("always-retry", "hung-slave", "unreleased-split"),
                seed=1, duration_us=5.0)

#: Flat keys of the earlier record that copied a fingerprint field.
FLAT_COPIES = {"completed": "completed", "failed": "failed",
               "aborted": "aborted", "watchdog_events": "watchdog_events",
               "recoveries": "recoveries", "violations": "violations",
               "recovery_compliant": "recovery_compliant",
               "total_energy_j": "total_energy",
               "overhead_energy_j": "overhead_energy"}


def journal_results(path):
    """run id -> result dict of every ``result`` line in *path*."""
    with open(path) as fh:
        records = [json.loads(line) for line in fh]
    return {record["run"]: record["result"] for record in records
            if record.get("event") == "result"}


def refuse_execution(monkeypatch):
    def refuse(payload, wall_clock_budget=None):
        raise AssertionError("re-executed %s" % payload["run"])
    monkeypatch.setattr(executor_mod, "execute_payload", refuse)


class TestFlatJournalFixture:
    def test_fixture_holds_executed_and_supervisor_lines(self):
        lines = journal_results(FIXTURE)
        assert {line["outcome"] for line in lines.values()
                if line["fingerprint"] is None} \
            == {"timeout", "quarantined"}
        assert sum(line["fingerprint"] is not None
                   for line in lines.values()) == 2

    def test_resume_restores_every_run_without_execution(
            self, monkeypatch, tmp_path):
        journal = str(tmp_path / "c.jsonl")
        shutil.copy(FIXTURE, journal)
        refuse_execution(monkeypatch)
        campaign = run_fault_campaign(journal=journal, resume=True,
                                      **CAMPAIGN)
        lines = journal_results(FIXTURE)
        assert campaign.resumed == len(lines) == len(campaign.runs) == 4
        for run in campaign.runs:
            line = lines[run.run_id]
            assert run.fingerprint == line["fingerprint"]
            assert run.outcome == line["outcome"]
            assert run.detail == line["detail"]
            assert run.traceback == line["traceback"]
            assert run.spec == line["spec"]
            assert (run.tier, run.engine) == (line["tier"],
                                              line["engine"])
            assert (run.attempts, run.wall_time_s) \
                == (line["attempts"], line["wall_time_s"])
            assert run.rules_tripped == tuple(line["rules_tripped"])
            for key, attribute in FLAT_COPIES.items():
                assert getattr(run, attribute) == line[key], key
        by_outcome = {run.outcome: run for run in campaign.runs}
        assert by_outcome["recovered"].overhead_energy > 0.0
        assert by_outcome["recovered"].energy_overhead_ratio > 0.0

    def test_executed_lines_still_replay_bit_exactly(self):
        for line in journal_results(FIXTURE).values():
            if line["fingerprint"] is not None:
                _, outcome = execute(RunSpec.from_dict(line["spec"]))
                assert outcome.fingerprint() == line["fingerprint"]


@pytest.fixture(scope="module")
def compiled_campaign():
    return run_fault_campaign(
        scenarios=("portable-audio-player",), faults=("always-retry",),
        seed=1, duration_us=2.0, engine="compiled")


class TestRecord:
    def records(self, campaign):
        results = list(campaign.runs)
        results += [FaultRunResult.from_dict(line)
                    for line in journal_results(FIXTURE).values()]
        return results

    def test_from_dict_round_trips(self, compiled_campaign):
        for result in self.records(compiled_campaign):
            again = FaultRunResult.from_dict(result.to_dict())
            assert again.to_dict() == result.to_dict()
            assert again.run_outcome == result.run_outcome
            for name in ("executed", "engine_actual", "fallback_reason",
                         "traceback_text"):
                assert getattr(again.run_outcome, name) \
                    == getattr(result.run_outcome, name)
            assert again.detail == result.detail

    def test_no_outcome_field_is_stored_twice(self, tmp_path):
        journal = str(tmp_path / "c.jsonl")
        run_fault_campaign(journal=journal,
                           **dict(CAMPAIGN, faults=("always-retry",)))
        written = list(journal_results(journal).values())
        assert written
        written += [FaultRunResult.from_dict(line).to_dict()
                    for line in journal_results(FIXTURE).values()]
        for record in written:
            flat = set(record) & set(RunOutcome.FIELDS)
            if record["fingerprint"] is None:
                # a supervisor-made record: its outcome is stored flat
                assert "outcome" in flat and flat <= {"outcome",
                                                      "detail"}
            else:
                # The flat ``detail`` is the host-side display text; it
                # is written only when it is not a copy of the
                # outcome's own ``detail``.
                assert flat <= {"detail"}, sorted(flat)
                if flat:
                    assert record["detail"] \
                        != record["fingerprint"]["detail"]
            assert "tier" not in record and "engine" not in record

    def test_supervisor_results_have_no_fingerprint(self):
        for line in journal_results(FIXTURE).values():
            result = FaultRunResult.from_dict(line)
            assert (result.fingerprint is None) \
                == (line["fingerprint"] is None)
            assert result.run_outcome.executed \
                == (line["fingerprint"] is not None)


class TestEngineActual:
    """``execute`` records what engine ran, outside the fingerprint."""

    @staticmethod
    def spec(**kwargs):
        return RunSpec("portable-audio-player", seed=3, duration_us=2.0,
                       **kwargs)

    def test_interpreted_and_compiled(self):
        _, interpreted = execute(self.spec())
        _, compiled = execute(self.spec(engine="compiled"))
        assert (interpreted.engine_actual,
                interpreted.fallback_reason) == ("interpreted", None)
        assert (compiled.engine_actual,
                compiled.fallback_reason) == ("compiled", None)
        assert interpreted == compiled   # fingerprints engine-free

    def test_auto_records_the_swallowed_compile_error(
            self, monkeypatch):
        def refuse(system, install=True):
            raise CompileError("refused for the test")

        monkeypatch.setattr(compiled_mod, "compile_system", refuse)
        _, outcome = execute(self.spec(engine="auto"))
        assert outcome.outcome == "completed"
        assert outcome.engine_actual == "interpreted"
        assert outcome.fallback_reason.startswith("CompileError: ")
        assert "refused for the test" in outcome.fallback_reason

    def test_run_time_decline_is_recorded(self, monkeypatch):
        compile_system = compiled_mod.compile_system

        def compile_then_register(system, install=True):
            # an inert process registered after compile: the engine
            # declines when the run starts
            engine = compile_system(system, install=install)
            system.sim.add_method(lambda: None, [], name="late",
                                  initialize=False)
            return engine

        monkeypatch.setattr(compiled_mod, "compile_system",
                            compile_then_register)
        _, outcome = execute(self.spec(engine="compiled"))
        assert outcome.outcome == "completed"
        assert outcome.engine_actual == "interpreted"
        assert "registered since compile" in outcome.fallback_reason

    def test_observer_keeps_the_compiled_engine(self):
        class Observer:
            def on_process(self, process, now, seconds):
                pass

            def on_settle(self, now, deltas):
                pass

        _, outcome = execute(
            self.spec(engine="compiled"),
            instrument=lambda system: system.sim.attach_observer(
                Observer()))
        assert (outcome.engine_actual,
                outcome.fallback_reason) == ("compiled", None)

    def test_tlm_tier(self):
        _, outcome = execute(self.spec(tier="tlm"))
        assert (outcome.engine_actual,
                outcome.fallback_reason) == ("tlm", None)

    def test_campaign_journals_the_engine(self, compiled_campaign):
        for run in compiled_campaign.runs:
            record = run.to_dict()
            assert record["engine_actual"] == "compiled"
            assert record["fallback_reason"] is None
            assert run.engine == "compiled"
