"""Coverage probe and campaign coverage map."""

import json

import pytest

from repro.fuzz.coverage import (
    CoverageMap,
    CoverageProbe,
    _latency_bucket,
)
from repro.replay import FaultEntry, RunOutcome, campaign_spec, execute

QUICK = dict(duration_us=5.0)


def probed_run(fault="none", **overrides):
    params = dict(QUICK)
    params.update(overrides)
    spec = campaign_spec("portable-audio-player", fault, **params)
    probe = CoverageProbe()
    system, outcome = execute(spec, instrument=probe.install)
    return probe.coverage_keys(system, outcome), outcome


class TestProbe:
    def test_healthy_run_covers_every_signal_class(self):
        keys, _ = probed_run()
        prefixes = {key.split(":", 1)[0] for key in keys}
        # bus transitions, burst kinds, latency buckets, power-FSM
        # transitions and the outcome class all show up on a normal run
        assert {"bus", "burst", "lat", "power", "outcome"} <= prefixes

    def test_keys_are_sorted_and_deterministic(self):
        first, _ = probed_run()
        second, _ = probed_run()
        assert first == sorted(first)
        assert first == second

    def test_rule_arms_and_responses_appear_on_faulty_runs(self):
        keys, outcome = probed_run(fault="always-retry")
        assert "rule:retry-livelock" in keys
        assert "resp:RETRY" in keys
        assert "outcome:%s" % outcome.outcome in keys

    def test_mandatory_breakage_is_its_own_key(self):
        spec = campaign_spec("portable-audio-player", "none", **QUICK)
        spec.faults.append(FaultEntry.signal_fault(
            "stuck-at", "haddr", bit=0, value=1,
            start_ps=100_000, end_ps=2_000_000))
        probe = CoverageProbe()
        system, outcome = execute(spec, instrument=probe.install)
        keys = probe.coverage_keys(system, outcome)
        assert "rule:alignment" in keys
        assert "mandatory-broken" in keys

    def test_elaboration_crash_yields_outcome_only_keys(self):
        probe = CoverageProbe()
        outcome = RunOutcome(outcome="crashed", rules_tripped=[],
                             recovery_compliant=True,
                             detail="KeyError: boom")
        keys = probe.coverage_keys(None, outcome)
        assert keys == ["outcome:crashed"]

    def test_probe_is_observe_only(self):
        spec = campaign_spec("portable-audio-player", "always-retry",
                             **QUICK)
        _, bare = execute(spec)
        probe = CoverageProbe()
        _, probed = execute(spec, instrument=probe.install)
        # the bit-exactness contract: instrumenting must not change
        # the fingerprint, violation cycles and energies included
        assert bare == probed

    def test_probe_state_round_trips_through_snapshot(self):
        spec = campaign_spec("portable-audio-player", "none", seed=1,
                             duration_us=2.0)
        probe = CoverageProbe()
        system, _ = execute(spec, instrument=probe.install)
        state = json.loads(json.dumps(probe.state_dict()))
        clone_probe = CoverageProbe()
        clone, _ = execute(spec, instrument=clone_probe.install)
        clone_probe.load_state_dict(state)
        assert clone_probe.state_dict() == probe.state_dict()
        assert clone_probe.keys == probe.keys


class TestLatencyBuckets:
    def test_power_of_two_buckets(self):
        assert _latency_bucket(1) == "le1"
        assert _latency_bucket(2) == "le2"
        assert _latency_bucket(3) == "le4"
        assert _latency_bucket(4) == "le4"
        assert _latency_bucket(5) == "le8"
        assert _latency_bucket(100) == "le128"


class TestCoverageMap:
    def test_add_returns_only_novel_keys(self):
        coverage = CoverageMap()
        assert coverage.add(["a", "b"]) == ["a", "b"]
        assert coverage.add(["b", "c"]) == ["c"]
        assert coverage.add(["a"]) == []
        assert coverage.counts == {"a": 2, "b": 2, "c": 1}

    def test_rarity_prefers_rare_keys(self):
        coverage = CoverageMap()
        coverage.add(["common"])
        coverage.add(["common"])
        coverage.add(["common", "rare"])
        assert coverage.rarity(["rare"]) > coverage.rarity(["common"])
        assert coverage.rarity(["unknown"]) == 0.0

    def test_save_load_round_trip(self, tmp_path):
        path = str(tmp_path / "coverage.json")
        coverage = CoverageMap()
        coverage.add(["rule:alignment", "bus:IDLE->NONSEQ"])
        coverage.save(path)
        loaded = CoverageMap.load(path)
        assert loaded.counts == coverage.counts

    def test_format_is_versioned(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "other/9"}))
        with pytest.raises(ValueError, match="format"):
            CoverageMap.load(str(path))
