"""End-to-end tests: the fault-injection campaign runner and its CLI.

This is the PR's acceptance scenario: a campaign over two named
scenarios under always-RETRY and hung-slave faults must run to
completion with every fault contained (watchdog detection, bounded
master abort, no unhandled exception) and report the energy overhead
of retries/recovery against the fault-free baseline.
"""

import json

import pytest

from repro.cli import main
from repro.faults import (
    CampaignResult,
    FaultRunResult,
    fault_slave_factory,
    run_fault_campaign,
)
from repro.replay import RunOutcome


@pytest.fixture(scope="module")
def campaign():
    return run_fault_campaign(
        scenarios=("portable-audio-player", "wireless-modem"),
        faults=("always-retry", "hung-slave"),
        seed=1, duration_us=5.0,
    )


class TestCampaignAcceptance:
    def test_every_fault_is_contained(self, campaign):
        assert campaign.ok
        outcomes = {(run.scenario, run.fault): run.outcome
                    for run in campaign.runs}
        assert len(outcomes) == 6  # 2 scenarios x (baseline + 2 faults)
        for (scenario, fault), outcome in outcomes.items():
            if fault == "none":
                assert outcome == "completed"
            else:
                assert outcome in ("recovered", "degraded"), \
                    (scenario, fault, outcome)

    def test_no_crash_outcomes(self, campaign):
        assert all(run.outcome != "crashed" for run in campaign.runs)
        assert all(not run.detail.startswith("Traceback")
                   for run in campaign.runs)

    def test_hung_slave_triggers_watchdog_detection(self, campaign):
        hung = [run for run in campaign.runs
                if run.fault == "hung-slave"]
        assert hung
        for run in hung:
            assert run.watchdog_events >= 1
            assert run.recoveries >= 1
            assert run.failed >= 1

    def test_always_retry_is_bounded(self, campaign):
        retry = [run for run in campaign.runs
                 if run.fault == "always-retry"]
        assert retry
        for run in retry:
            # either the watchdog cut the storm or the master budget
            # did; both leave failed-but-done transactions behind
            assert run.failed >= 1
            assert run.aborted >= 1

    def test_faulted_runs_report_energy_overhead(self, campaign):
        for run in campaign.runs:
            if run.fault == "none":
                assert run.overhead_energy == 0.0
                assert run.energy_overhead_ratio == 0.0
            else:
                # retry/error response cycles carry measurable energy
                assert run.overhead_energy > 0.0
                assert run.energy_per_txn > run.baseline_energy_per_txn
                assert run.energy_overhead_ratio > 0.0

    def test_baseline_still_makes_progress_under_fault(self, campaign):
        for run in campaign.runs:
            assert run.completed - run.failed > 0


class TestCampaignReporting:
    def test_summary_table_lists_every_run(self, campaign):
        text = campaign.summary().format()
        assert "portable-audio-player" in text
        assert "wireless-modem" in text
        assert "hung-slave" in text
        assert "Energy/txn vs baseline" in text

    def test_to_dict_is_json_serialisable(self, campaign):
        payload = json.loads(json.dumps(campaign.to_dict()))
        assert payload["ok"] is True
        assert len(payload["runs"]) == 6
        run = payload["runs"][0]
        assert "overhead_energy_j" in run["fingerprint"]
        assert "energy_overhead_ratio" in run

    def test_result_reprs(self, campaign):
        assert "portable-audio-player" in repr(campaign.runs[0])

    def test_campaign_not_ok_when_a_run_hangs(self):
        bad = FaultRunResult("s", "f", RunOutcome.empty("hung"))
        assert not CampaignResult([bad], duration_us=1.0).ok
        crashed = FaultRunResult("s", "f", RunOutcome.empty("crashed"))
        assert not CampaignResult([crashed], duration_us=1.0).ok


class TestFactories:
    def test_unknown_fault_mode_raises(self):
        with pytest.raises(KeyError, match="unknown fault mode"):
            fault_slave_factory("melt-down")

    def test_unknown_scenario_propagates(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            run_fault_campaign(scenarios=("not-a-device",),
                               faults=("always-retry",),
                               duration_us=1.0)


class TestFaultsCli:
    def test_cli_smoke(self, capsys):
        code = main([
            "faults", "--duration-us", "2",
            "--scenario", "portable-audio-player",
            "--fault", "hung-slave",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "hung-slave" in out
        assert "Outcome" in out

    def test_cli_rejects_unknown_fault(self, capsys):
        code = main(["faults", "--fault", "melt-down"])
        assert code == 2
        assert "unknown fault mode" in capsys.readouterr().err

    def test_cli_writes_json(self, tmp_path, capsys):
        path = tmp_path / "campaign.json"
        code = main([
            "faults", "--duration-us", "2",
            "--scenario", "portable-audio-player",
            "--fault", "always-retry",
            "--json", str(path),
        ])
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["runs"]
