"""The runtime compliance engine: rule catalogue, severity handling,
advisory liveness rules, and the legacy checker facade."""

import pytest

from repro.amba import (
    AhbBus,
    AhbConfig,
    AhbMaster,
    AhbProtocolChecker,
    AhbTransaction,
    DefaultMaster,
    MemorySlave,
)
from repro.faults import BabblingMaster
from repro.kernel import (
    Clock,
    FaultInjector,
    MHz,
    ProcessError,
    Simulator,
    ns,
    us,
)
from repro.protocol import (
    CATALOGUE,
    ComplianceEngine,
    ProtocolComplianceError,
    Rule,
    advisory_rules,
    is_mandatory,
    mandatory_rules,
    rule_info,
)
from repro.replay import FaultEntry, campaign_spec, execute
from repro.workloads import SCENARIOS, build_scenario


class EngineSystem:
    """2 active masters + 2 slaves with a configurable engine."""

    def __init__(self, severity="record", master1_cls=AhbMaster,
                 wait_states=(0, 0), **engine_kwargs):
        self.sim = Simulator()
        self.clk = Clock.from_frequency(self.sim, "clk", MHz(100))
        self.config = AhbConfig.with_uniform_map(
            n_masters=3, n_slaves=2, region_size=0x1000,
            default_master=2,
        )
        self.bus = AhbBus(self.sim, "ahb", self.clk, self.config)
        self.m0 = AhbMaster(self.sim, "m0", self.clk,
                            self.bus.master_ports[0], self.bus)
        self.m1 = master1_cls(self.sim, "m1", self.clk,
                              self.bus.master_ports[1], self.bus)
        self.dm = DefaultMaster(self.sim, "dm", self.clk,
                                self.bus.master_ports[2], self.bus)
        self.slaves = [
            MemorySlave(self.sim, "s%d" % index, self.clk,
                        self.bus.slave_ports[index], self.bus,
                        base=index * 0x1000,
                        wait_states=wait_states[index])
            for index in range(2)
        ]
        self.engine = ComplianceEngine(self.sim, "engine", self.bus,
                                       severity=severity,
                                       **engine_kwargs)

    def run_us(self, micros):
        self.sim.run(until=self.sim.now + us(micros))
        return self

    def glitch_htrans_seq(self, at_ns=500):
        """Force an out-of-thin-air SEQ onto HTRANS for one cycle."""
        injector = FaultInjector(self.sim, self.clk, seed=3)
        injector.glitch(self.bus.htrans, value=3, cycles=1,
                        start=ns(at_ns))
        return injector


class TestCatalogue:
    def test_every_rule_has_spec_reference_and_tier(self):
        assert len(CATALOGUE) == 14
        for rule_id, info in CATALOGUE.items():
            assert info.rule_id == rule_id
            assert info.spec.startswith("§")
            assert info.summary
            assert isinstance(info.mandatory, bool)

    def test_mandatory_advisory_split(self):
        advisory = {rule_id for rule_id, info in CATALOGUE.items()
                    if not info.mandatory}
        assert advisory == {"wait-limit", "retry-livelock",
                            "split-release"}

    def test_rule_factories_cover_the_catalogue(self):
        emitted = set()
        for rule in mandatory_rules() + advisory_rules():
            assert rule.emits, rule
            emitted.update(rule.emits)
        assert emitted == set(CATALOGUE)

    def test_unknown_rule_ids_count_as_mandatory(self):
        assert is_mandatory("no-such-rule")
        assert not is_mandatory("wait-limit")
        with pytest.raises(KeyError):
            rule_info("no-such-rule")

    def test_advisory_rules_can_be_disabled_individually(self):
        assert advisory_rules(wait_limit=None, retry_limit=None,
                              split_limit=None) == []
        assert len(advisory_rules(retry_limit=None)) == 2


class TestHealthyTraffic:
    def test_clean_system_records_nothing(self):
        sys = EngineSystem()
        for index in range(6):
            sys.m0.enqueue(AhbTransaction.write_single(4 * index,
                                                       index))
        from repro.amba import HBURST
        sys.m1.enqueue(AhbTransaction(True, 0x1000,
                                      data=list(range(8)),
                                      hburst=HBURST.INCR8))
        sys.run_us(3)
        assert sys.engine.ok
        assert sys.engine.mandatory_ok
        assert sys.engine.cycles_checked > 100
        assert sys.engine.rules_tripped() == ()
        assert sys.engine.first_violation is None
        sys.engine.raise_if_violations()  # no-op when clean

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_all_scenarios_clean_in_raise_mode(self, name):
        system = build_scenario(name, seed=1, check_protocol="raise")
        system.run(us(20))
        assert system.checker.ok
        assert system.checker.cycles_checked > 1000


class TestSeverity:
    def test_record_collects_structured_violations(self):
        sys = EngineSystem(severity="record")
        sys.glitch_htrans_seq()
        sys.run_us(2)
        assert not sys.engine.ok
        assert not sys.engine.mandatory_ok
        violation = sys.engine.first_violation
        assert violation.rule in sys.engine.rules_tripped()
        assert violation.cycle >= 0
        assert violation.spec.startswith("§")
        assert violation.snapshot["HTRANS"] == 3
        data = violation.to_dict()
        assert data["mandatory"] is True
        assert data["cycle"] == violation.cycle
        assert sys.engine.rule_counts[violation.rule] >= 1

    def test_raise_dies_at_the_violating_cycle(self):
        sys = EngineSystem(severity="raise")
        sys.glitch_htrans_seq()
        with pytest.raises(ProcessError) as exc_info:
            sys.run_us(2)
        assert isinstance(exc_info.value.original,
                          ProtocolComplianceError)
        assert len(sys.engine.violations) == 1

    def test_warn_prints_once_per_rule(self, capsys):
        sys = EngineSystem(severity="warn")
        sys.glitch_htrans_seq()
        sys.run_us(2)
        err = capsys.readouterr().err
        assert "ProtocolViolation" in err
        rule = sys.engine.first_violation.rule
        assert err.count(rule) >= 1

    def test_per_rule_severity_override(self):
        sys = EngineSystem(
            severity="record",
            severity_overrides={"seq-without-nonseq": "raise"},
        )
        sys.glitch_htrans_seq()
        with pytest.raises(ProcessError):
            sys.run_us(2)

    def test_unknown_severity_rejected(self):
        sim = Simulator()
        clk = Clock.from_frequency(sim, "clk", MHz(100))
        config = AhbConfig.with_uniform_map(n_masters=2, n_slaves=1,
                                            default_master=1)
        bus = AhbBus(sim, "ahb", clk, config)
        with pytest.raises(ValueError):
            ComplianceEngine(sim, "e", bus, severity="explode")
        with pytest.raises(ValueError):
            ComplianceEngine(sim, "e2", bus,
                             severity_overrides={"alignment": "nope"})

    def test_raise_if_violations_summarises(self):
        sys = EngineSystem(severity="record")
        sys.glitch_htrans_seq()
        sys.run_us(2)
        with pytest.raises(AssertionError, match="protocol violations"):
            sys.engine.raise_if_violations()


class TestAdvisoryRules:
    def test_wait_limit_flags_slow_slave_without_breaking_mandatory(self):
        sys = EngineSystem(wait_states=(6, 0), wait_limit=3)
        sys.m0.enqueue(AhbTransaction.write_single(0x10, 1))
        sys.run_us(2)
        assert "wait-limit" in sys.engine.rules_tripped()
        assert not sys.engine.ok
        assert sys.engine.mandatory_ok  # advisory only

    def test_advisory_off_ignores_slow_slave(self):
        sys = EngineSystem(wait_states=(6, 0), advisory=False)
        sys.m0.enqueue(AhbTransaction.write_single(0x10, 1))
        sys.run_us(2)
        assert sys.engine.ok

    def test_wait_limit_flags_once_per_episode(self):
        sys = EngineSystem(wait_states=(6, 0), wait_limit=3)
        sys.m0.enqueue(AhbTransaction.write_single(0x10, 1))
        sys.m0.enqueue(AhbTransaction.write_single(0x14, 2))
        sys.run_us(2)
        waits = [v for v in sys.engine.violations
                 if v.rule == "wait-limit"]
        assert len(waits) == 2  # one per slow transfer, not per cycle


class TestFaultModesTripRules:
    """Acceptance: every PR 1 behavioural fault mode trips at least
    one compliance rule."""

    @pytest.mark.parametrize("fault,expected_rule", [
        ("always-retry", "retry-livelock"),
        ("hung-slave", "wait-limit"),
        ("unreleased-split", "split-release"),
    ])
    def test_slave_fault_modes(self, fault, expected_rule):
        spec = campaign_spec("portable-audio-player", fault=fault,
                             duration_us=8.0)
        _, outcome = execute(spec)
        assert expected_rule in outcome.rules_tripped
        assert outcome.violations >= 1

    def test_babbling_master_trips_mandatory_rules(self):
        sys = EngineSystem(master1_cls=BabblingMaster)
        sys.m0.enqueue(AhbTransaction.write_single(0x10, 1))
        sys.run_us(2)
        tripped = set(sys.engine.rules_tripped())
        assert tripped & {"stall-stability", "seq-without-nonseq",
                          "burst-address", "alignment",
                          "busy-outside-burst"}
        assert not sys.engine.mandatory_ok


class TestLegacyFacade:
    def test_checker_is_an_engine_with_advisory_off(self):
        sys = EngineSystem()
        checker = AhbProtocolChecker(sys.sim, "chk", sys.bus)
        assert isinstance(checker, ComplianceEngine)
        assert all(is_mandatory(rule_id)
                   for rule in checker.rules for rule_id in rule.emits)

    def test_strict_property_maps_to_severity(self):
        sys = EngineSystem()
        checker = AhbProtocolChecker(sys.sim, "chk", sys.bus,
                                     strict=True)
        assert checker.strict and checker.severity == "raise"
        checker.strict = False
        assert checker.severity == "record"
        checker.strict = True
        assert checker.severity == "raise"


class _PendingProbe:
    """Samples an engine's ``(pending rows, violations)`` at every
    falling clock edge, i.e. in the middle of a run."""

    def __init__(self, sys, engine):
        self.engine = engine
        self.samples = []
        sys.sim.add_method(self._sample, [sys.clk.negedge],
                           name="probe", initialize=False)

    def _sample(self):
        self.samples.append((self.engine.pending,
                             len(self.engine.violations)))


def _records(engine):
    return [violation.to_dict() for violation in engine.violations]


class TestBatchedEvaluation:
    """Rows are evaluated when ``run`` returns, except where a cycle
    must go straight to the scalar reference."""

    def test_violations_visible_when_run_returns(self):
        sys = EngineSystem()
        probe = _PendingProbe(sys, sys.engine)
        sys.glitch_htrans_seq()
        sys.run_us(2)
        assert max(pending for pending, _ in probe.samples) > 0
        assert all(count == 0 for _, count in probe.samples)
        assert sys.engine.pending == 0
        assert sys.engine.violations
        assert sys.engine.cycles_checked == len(probe.samples)

    def test_strict_toggled_between_runs_acts_on_the_next_cycle(self):
        sys = EngineSystem()
        checker = AhbProtocolChecker(sys.sim, "chk", sys.bus)
        injector = FaultInjector(sys.sim, sys.clk, seed=3)
        for at_ns in (500, 1500):
            injector.glitch(sys.bus.htrans, value=3, cycles=1,
                            start=ns(at_ns))
        sys.run_us(1)
        recorded = len(checker.violations)
        assert recorded >= 1                 # record: the run goes on
        checker.strict = True
        with pytest.raises(ProcessError) as exc_info:
            sys.run_us(1)
        violation = exc_info.value.original.violation
        assert violation is checker.violations[-1]
        assert len(checker.violations) == recorded + 1
        assert violation.time == sys.sim.now >= ns(1500)
        # the record-severity engine on the same bus saw the same cycle
        assert violation.to_dict() in _records(sys.engine)

        sys = EngineSystem()
        checker = AhbProtocolChecker(sys.sim, "chk", sys.bus, strict=True)
        checker.strict = False
        sys.glitch_htrans_seq()
        sys.run_us(2)
        assert _records(checker) == [
            record for record in _records(sys.engine)
            if record["mandatory"]]

    def test_warn_prints_once_per_rule_when_run_returns(self, capsys):
        sys = EngineSystem(severity="warn", wait_states=(6, 0),
                           wait_limit=3)
        for index in range(4):
            sys.m0.enqueue(AhbTransaction.write_single(4 * index, index))
        injector = FaultInjector(sys.sim, sys.clk, seed=3)
        injector.glitch(sys.bus.htrans, value=3, cycles=1,
                        probability=0.05)
        probe = _PendingProbe(sys, sys.engine)
        printed = []
        sys.sim.add_method(
            lambda: printed.append(capsys.readouterr().err),
            [sys.clk.negedge], name="stderr", initialize=False)
        sys.run_us(2)
        assert "".join(printed) == ""        # nothing printed mid-run
        assert max(pending for pending, _ in probe.samples) > 0
        err = capsys.readouterr().err
        engine = sys.engine
        assert len(engine.rules_tripped()) >= 2
        firsts = [next(v for v in engine.violations if v.rule == rule)
                  for rule in engine.rules_tripped()]
        assert err.splitlines() == ["[engine] %r" % (v,) for v in firsts]
        sys.run_us(1)
        assert capsys.readouterr().err == ""  # each rule warns once

    def test_undecodable_code_raises_in_its_cycle(self):
        sys = EngineSystem()
        sys.run_us(1)
        before = sys.engine.state_dict()
        sys.bus.htrans.force(6)
        process, = [process for process in sys.sim.processes
                    if process.name == "engine.check"]
        with pytest.raises(ValueError, match="HTRANS"):
            process.fn()
        # the per-cycle torn state: the cycle counted, no rule after
        # the raising one evaluated, the previous view kept
        assert sys.engine.cycles_checked == before["cycles_checked"] + 1
        assert sys.engine.state_dict()["prev"] == before["prev"]
        assert sys.engine.pending == 0

    def test_custom_rule_sees_every_cycle_in_order(self):
        class CycleLog(Rule):
            emits = ("cycle-log",)

            def __init__(self, sim):
                self.sim = sim
                self.seen = []

            def check(self, prev, view):
                self.seen.append((None if prev is None else prev.cycle,
                                  view.cycle, view.time, self.sim.now))
                return ()

        sys = EngineSystem()
        log = CycleLog(sys.sim)
        custom = ComplianceEngine(sys.sim, "custom", sys.bus,
                                  rules=mandatory_rules() + [log])
        probe = _PendingProbe(sys, custom)
        sys.glitch_htrans_seq()
        sys.run_us(1)
        sys.run_us(1)
        assert [seen[1] for seen in log.seen] == \
            list(range(custom.cycles_checked))
        assert [seen[0] for seen in log.seen] == \
            [None] + list(range(custom.cycles_checked - 1))
        # evaluated in each cycle's own process, never buffered
        assert all(time == now for _, _, time, now in log.seen)
        assert all(pending == 0 for pending, _ in probe.samples)
        assert _records(custom) == [
            record for record in _records(sys.engine)
            if record["mandatory"]]

    def test_disabled_rules_drop_out_of_the_batched_path(self):
        sys = EngineSystem(wait_states=(6, 0), wait_limit=3)
        no_wait = ComplianceEngine(sys.sim, "no_wait", sys.bus,
                                   wait_limit=None)
        no_advisory = ComplianceEngine(sys.sim, "no_advisory", sys.bus,
                                       advisory=False)
        probes = [_PendingProbe(sys, engine)
                  for engine in (no_wait, no_advisory)]
        sys.m0.enqueue(AhbTransaction.write_single(0x10, 1))
        sys.m0.enqueue(AhbTransaction.write_single(0x14, 2))
        sys.glitch_htrans_seq()
        sys.run_us(2)
        full = _records(sys.engine)
        assert {"wait-limit", "retry-livelock", "split-release"} \
            >= {record["rule"] for record in full
                if not record["mandatory"]} == {"wait-limit"}
        assert _records(no_wait) == [
            record for record in full if record["rule"] != "wait-limit"]
        assert _records(no_advisory) == [
            record for record in full if record["mandatory"]]
        assert "WaitLimitRule" not in {
            type(rule).__name__ for rule in no_wait.rules}
        for probe in probes:                 # both stayed batched
            assert max(pending for pending, _ in probe.samples) > 0


#: Net faults added to the behavioural ones: stalls with moving
#: addresses, and an HSIZE code no transfer size has (those cycles, and
#: the bursts they open, go to the scalar reference).
NET_FAULTS = {
    "stall-haddr": [
        FaultEntry.signal_fault("glitch", "hready", value=0, cycles=2,
                                probability=0.03),
        FaultEntry.signal_fault("bit-flip", "haddr", bit=3,
                                probability=0.05)],
    "bad-hsize": [
        FaultEntry.signal_fault("glitch", "hsize", value=12, cycles=2,
                                probability=0.03)],
}


@pytest.mark.parametrize("net", sorted(NET_FAULTS))
@pytest.mark.parametrize("fault", [
    "always-retry", "hung-slave", "unreleased-split"])
@pytest.mark.parametrize("cap", [1, 7, 4096])
def test_batched_evaluation_equals_scalar_reference(fault, net, cap,
                                                    monkeypatch):
    """Whatever the flush cap, the batched evaluation reproduces the
    per-cycle scalar reference on faulted campaign runs."""
    from repro.protocol import engine as engine_module
    spec = campaign_spec("wireless-modem", fault=fault, duration_us=4.0)
    spec.faults.extend(NET_FAULTS[net])

    def run():
        system, outcome = execute(spec)
        return outcome.outcome, _records(system.checker), \
            system.checker.state_dict()

    monkeypatch.setattr(engine_module, "FLUSH_ROWS", cap)
    batched = run()
    refresh = ComplianceEngine._refresh_divert

    def always_scalar(engine):
        refresh(engine)
        engine._always_divert = engine._divert = True

    monkeypatch.setattr(ComplianceEngine, "_refresh_divert",
                        always_scalar)
    assert batched == run()
    assert batched[1]
