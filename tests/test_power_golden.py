"""Golden pins for the global power model's energy path.

Both engines share one energy path (record a row per cycle, replay the
rows in columns), so compiled ≡ interpreted no longer checks the energy
code itself.  These tests pin its output against values recorded with
the original per-cycle live monitor, before the replay became the only
path: SHA-256 digests of the monitor state plus every per-cycle sink
(instruction log, traces, datafile), the exception types and torn
state of runs that die mid-run, the offline ledger of a fixed VCD dump,
and the telemetry/coverage a ``PowerTracer`` and the fuzz probe see.

Every digest is a pure function of simulated behaviour, so the same
values must come out on either engine.  Run this file as a script to
print the current values.
"""

import hashlib
import io
import json

import pytest

from repro.amba.transactions import reset_txn_ids
from repro.kernel import ns, us
from repro.power import (
    ClockGateController,
    GlobalPowerMonitor,
    OfflinePowerAnalyzer,
    trace_bus,
)
from repro.workloads import AhbSystem, PaperWriteReadSource
from repro.workloads import build_paper_testbench

ENGINES = ("interpreted", "compiled")


def _digest(obj):
    text = json.dumps(obj, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _maybe_compile(system, engine):
    if engine == "compiled":
        from repro.compiled import compile_system
        compile_system(system)


def _sinks_digest(monitor, datafile=None):
    fsm = monitor.fsm
    traces = None
    if monitor.traces is not None:
        traces = {name: [list(trace._times), list(trace._energies)]
                  for name, trace in monitor.traces.traces.items()}
    return _digest({
        "state": monitor.state_dict(),
        "log": [list(entry) for entry in fsm.instruction_log or ()],
        "traces": traces,
        "datafile": datafile.getvalue() if datafile is not None else None,
    })


def paper_run(engine="interpreted"):
    """Paper testbench, checker on, every FSM sink attached; 5000
    cycles, so the 4096-row flush cap is crossed once."""
    reset_txn_ids()
    datafile = io.StringIO()
    system = build_paper_testbench(seed=3, with_traces=True,
                                   datafile=datafile)
    system.monitor.fsm.enable_logging()
    _maybe_compile(system, engine)
    system.run(us(50))
    return _sinks_digest(system.monitor, datafile)


def dpm_run(engine="interpreted"):
    """Clock-tree block plus idle-window clock gating (the "CLK"
    column), long idle windows so gating and wake-ups both happen."""
    reset_txn_ids()
    regions = [(index * 0x1000, 0x1000) for index in range(2)]
    sources = [PaperWriteReadSource(regions, seed=1, max_pairs=3,
                                    idle_range=(20, 60))]
    system = AhbSystem(sources, n_slaves=2, power_analysis=False,
                       monitor_style="none", checker=False)
    gate = ClockGateController(system.sim, "cgc", system.bus,
                               idle_threshold=4)
    monitor = GlobalPowerMonitor(system.sim, "mon", system.bus,
                                 with_clock_tree=True, clock_gate=gate)
    monitor.fsm.enable_logging()
    _maybe_compile(system, engine)
    system.run(us(50))
    return _sinks_digest(monitor)


def _error_record(error, system):
    return {
        "error": type(error).__name__ if error is not None else None,
        "cause": type(error.__cause__).__name__
        if error is not None and error.__cause__ is not None else None,
        "process": getattr(error, "process_name", None),
        "now": system.sim.now,
        "digest": _sinks_digest(system.monitor),
    }


def corrupted_hresp_run(engine="interpreted"):
    """An undecodable ``HRESP`` code on an idle bus, where the power
    monitor is the only process that decodes it: the run dies in the
    monitor's clock process."""
    reset_txn_ids()
    system = build_paper_testbench(seed=3, checker=False)
    system.monitor.fsm.enable_logging()
    _maybe_compile(system, engine)
    system.run(us(5))
    system.run(ns(10_060))
    system.bus.hresp.set_injection(lambda _: 5)
    error = None
    try:
        system.run(us(1))
    except Exception as exc:          # noqa: BLE001 - recorded below
        error = exc
    return _error_record(error, system)


def direct_call(signal_name, value):
    """Force *signal_name* to an undecodable *value* after 10 µs and
    call the monitor's clock process by hand: the exception type and
    the torn state it leaves (activity, previous values and counters
    updated; the FSM and ledger charged only for an out-of-range
    owner, which fails at the chargeback)."""
    reset_txn_ids()
    system = build_paper_testbench(seed=3, checker=False)
    system.monitor.fsm.enable_logging()
    system.run(us(10))
    getattr(system.bus, signal_name).force(value)
    process, = [process for process in system.sim.processes
                if process.name == "power_monitor.monitor"]
    error = None
    try:
        process.fn()
    except Exception as exc:          # noqa: BLE001 - recorded below
        error = exc
    return _error_record(error, system)


def checker_raise_run(engine="interpreted"):
    """Checker at ``raise`` severity stops a run mid-way, at the first
    violating cycle (a forced SEQ from 12 µs on), with rows of the
    current run still waiting to be replayed."""
    reset_txn_ids()
    regions = [(index * 0x1000, 0x1000) for index in range(3)]
    sources = [PaperWriteReadSource(regions, seed=3000 + index,
                                    max_pairs=14, idle_range=(8, 24))
               for index in range(2)]
    system = AhbSystem(sources, check_protocol="raise")
    system.monitor.fsm.enable_logging()
    _maybe_compile(system, engine)
    system.run(us(5))
    sim = system.sim
    system.bus.htrans.set_injection(
        lambda value: 3 if sim.now >= 12_000_000 else value)
    error = None
    try:
        system.run(us(20))
    except Exception as exc:          # noqa: BLE001 - recorded below
        error = exc
    return _error_record(error, system)


def offline_ledger(tmp_dir):
    """Offline replay of a fixed ``trace_bus`` dump (seed 1, 20 µs)."""
    reset_txn_ids()
    system = build_paper_testbench(seed=1, checker=False,
                                   power_analysis=False)
    path = "%s/bus.vcd" % tmp_dir
    tracer = trace_bus(system.sim, system.bus, path)
    system.run(us(20))
    tracer.close()
    ledger = OfflinePowerAnalyzer(system.config).analyze_file(
        path, 10_000, 5_000)
    return {
        "cycles": ledger.cycles,
        "total_energy": ledger.total_energy,
        "block_energy": dict(sorted(ledger.block_energy.items())),
        "instructions": {name: [stats.count, stats.energy]
                         for name, stats
                         in sorted(ledger.instructions.items())},
    }


def telemetry_run(engine="interpreted"):
    """Bus + power telemetry (no kernel observer, so the compiled
    engine runs) and the fuzz coverage probe chained on the tracer."""
    from repro.fuzz.coverage import CoverageProbe
    from repro.telemetry import Telemetry
    reset_txn_ids()
    telemetry = Telemetry(trace_kernel=False)
    system = build_paper_testbench(seed=3, telemetry=telemetry)
    probe = CoverageProbe()
    probe.install(system)
    _maybe_compile(system, engine)
    system.run(us(20))
    telemetry.finalize()
    tracks = {}
    for event in telemetry.tracer.events:
        tracks.setdefault("%s/%s" % (event.pid, event.tid), []).append(
            [event.ts_ps, event.phase, event.name, event.args])
    return {
        "metrics": _digest(telemetry.registry.snapshot()),
        "coverage": sorted(probe.keys),
        "tracks": {name: _digest(events)
                   for name, events in sorted(tracks.items())},
    }


# -- values recorded with the per-cycle live monitor --------------------
#
# Printed by running this file as a script against the source tree in
# which ``GlobalPowerMonitor`` still computed every cycle's energy live
# in its clock process (interpreted kernel).  Never re-record them from
# the replay they are meant to check.

PAPER = '9cebcd57356d06425c091326c4d5e24898b096a6bd6d2440ebe52bd742b37549'

DPM = '4d59e20225d40d1246b1ff358da5847c8e9057247219fcfd894f469f103cab77'

CORRUPT_HRESP = {'cause': 'ValueError',
 'digest': 'ec5da8fdd73e21193061f51ff1164e03bf070b8648e69dc4d00c0fb6569f2658',
 'error': 'ProcessError',
 'now': 15065000,
 'process': 'power_monitor.monitor'}

DIRECT_HRESP = {'cause': None,
 'digest': '412b426d06b32b6bc5031ad0a347904d900f566b4105cd3d71302bb0a460735f',
 'error': 'ValueError',
 'now': 10000000,
 'process': None}

DIRECT_HTRANS = {'cause': None,
 'digest': 'f7458770a3ec0797c59aa383ce53934acba8c8d7913db663f04e8af5d5308f4c',
 'error': 'ValueError',
 'now': 10000000,
 'process': None}

DIRECT_OWNER = {'cause': None,
 'digest': 'f2239c89824c3d8aec622f88c5fe9448c8ed00c5ef3cc21dea706b084b769b91',
 'error': 'IndexError',
 'now': 10000000,
 'process': None}

CHECKER_RAISE = {'cause': 'ProtocolComplianceError',
 'digest': 'c7293197389c3368c9bd4f453b955489077014d9b965b13d4b9e75df6c1b835c',
 'error': 'ProcessError',
 'now': 12015000,
 'process': 'checker.check'}

OFFLINE = {'block_energy': {'ARB': 1.236515939999961e-09,
                  'DEC': 4.051079999999988e-10,
                  'M2S': 1.6136556975000033e-08,
                  'S2M': 1.2715926300000002e-08},
 'cycles': 1999,
 'instructions': {'IDLE_HO_IDLE_HO': [191, 5.5085976e-10],
                  'IDLE_HO_WRITE': [39, 4.4802548999999997e-10],
                  'IDLE_IDLE_HO': [39, 3.4677571499999995e-10],
                  'IDLE_WRITE': [75, 7.538057999999996e-10],
                  'READ_IDLE': [113, 1.5905879550000021e-09],
                  'READ_WRITE': [714, 1.303338069000002e-08],
                  'WRITE_READ': [828, 1.3770671804999972e-08]},
 'total_energy': 3.0494107215000017e-08}

TELEMETRY = {'coverage': ['burst:SINGLE',
              'bus:IDLE->NONSEQ',
              'bus:NONSEQ->IDLE',
              'power:IDLE_HO->WRITE',
              'power:READ->IDLE_HO',
              'power:READ->WRITE',
              'power:WRITE->READ'],
 'metrics': '3094f86daae4bb1619121abc61768607d4795075b7ad588b2cbe08da1c767a73',
 'tracks': {'bus/arbiter': '6d3d0f22d0bf23d42510ddc2fe3ee957a9c5ab36b66b4c6ee612341c4926e81d',
            'bus/master0': '677e21ebcad97e90ea21f63c3faa9b62fe91edbdfb9a71544922a07281c44377',
            'bus/master0.txns': '6ce78ce7f82516e563dea4019f07d20e2efc67b53ad2d9df6d736f0541e84705',
            'bus/master1': 'c84e94c4cc35590c274575f5e59c312bc4e9250926832c409062eecf48cbd686',
            'bus/master1.txns': 'a209629d85900d80a1a9a0770174e58885b269cfcfbcfaef48e0a8492b9144c9',
            'power/energy': '234280df5c7ef548b640d3fd23980c1ccc6c39ed467b0a697f0ebc7b4e25dacc',
            'power/power_fsm': '4100dfd4099796fa65a16ddc52ca136b79429a8bb42843562c9eb8c6c48dfe06'}}



@pytest.mark.parametrize("engine", ENGINES)
class TestGoldenMonitor:
    def test_paper_testbench_state_and_sinks(self, engine):
        assert paper_run(engine) == PAPER

    def test_clock_tree_and_gating(self, engine):
        assert dpm_run(engine) == DPM

    def test_corrupted_hresp_stops_in_the_monitor(self, engine):
        assert corrupted_hresp_run(engine) == CORRUPT_HRESP

    def test_checker_raise_mid_run(self, engine):
        assert checker_raise_run(engine) == CHECKER_RAISE

    def test_power_tracer_and_coverage(self, engine):
        assert telemetry_run(engine) == TELEMETRY


class TestGoldenTornState:
    """Undecodable codes make the monitor raise the live exception
    type and leave the live torn state."""

    def test_hresp(self):
        assert direct_call("hresp", 5) == DIRECT_HRESP

    def test_htrans(self):
        assert direct_call("htrans", 6) == DIRECT_HTRANS

    def test_owner(self):
        assert direct_call("hmaster", 9) == DIRECT_OWNER


class TestGoldenOffline:
    def test_offline_ledger(self, tmp_path):
        assert offline_ledger(str(tmp_path)) == OFFLINE


def _all(tmp_dir):
    return {
        "PAPER": paper_run(),
        "DPM": dpm_run(),
        "CORRUPT_HRESP": corrupted_hresp_run(),
        "DIRECT_HRESP": direct_call("hresp", 5),
        "DIRECT_HTRANS": direct_call("htrans", 6),
        "DIRECT_OWNER": direct_call("hmaster", 9),
        "CHECKER_RAISE": checker_raise_run(),
        "OFFLINE": offline_ledger(tmp_dir),
        "TELEMETRY": telemetry_run(),
    }


if __name__ == "__main__":
    import pprint
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        for key, value in _all(tmp).items():
            print("%s = %s\n" % (key, pprint.pformat(value, width=72)))
