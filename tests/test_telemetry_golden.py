"""Golden pins for the kernel telemetry layer.

Kernel activations are recorded as rows of plain numbers and expanded
into ``B``/``E`` trace events only when the trace is read or exported.
These tests pin what that record must reproduce, with values recorded
from the per-activation observer that emitted two ``TraceEvent``
objects live for every activation:

* each kernel track's ``(ts_ps, phase, name, cat)`` sequence;
* every kernel counter and histogram, except
  ``sim_process_seconds_total`` (a sum of host timings).

Only the order of events *across* tracks inside one simulated instant
may differ from the live recording: kernel spans reach the tracer when
a ``run`` call ends (or a long one has recorded ``FOLD_ROWS``
activations), after the bus and power events recorded meanwhile.
Within one track the order is pinned.

The capped run checks the ``max_events`` accounting: every event is
either stored or counted in ``dropped`` (their sum is the uncapped
event count recorded live), and the capped trace stays structurally
valid.  The live recording broke that: a span whose ``B`` fitted
under the cap lost its ``E`` and vice versa.

Run this file as a script to print the current values.
"""

import hashlib
import json

from repro.amba.transactions import reset_txn_ids
from repro.kernel import us
from repro.telemetry import Telemetry, validate_chrome_trace
from repro.workloads import build_paper_testbench

#: Digest of every kernel track's ``(ts_ps, phase, name, cat)`` list.
KERNEL_TRACKS = (
    "0a9aa1ae653382276278973b18b6537ff41403773dcaee4346f0203745953f87")
#: Events per kernel track (readable companion of the digest).
KERNEL_TRACK_EVENTS = {
    "clk.driver": 8002,
    "ahb.arbiter.decide_grant": 1672,
    "ahb.decoder.decode": 1732,
    "ahb.m2s_mux.route_addr_ctrl": 5732,
    "ahb.m2s_mux.route_wdata": 1962,
    "ahb.s2m_mux.route_response": 2528,
    "ahb.arbiter.update_owner": 4000,
    "ahb.arbiter.track_splits": 4000,
    "ahb.s2m_mux.advance_data_phase": 4000,
    "ahb.default_slave.fsm": 4000,
    "master0.fsm": 4000,
    "master1.fsm": 4000,
    "default_master.fsm": 4000,
    "slave0.fsm": 4000,
    "slave1.fsm": 4000,
    "slave2.fsm": 4000,
    "checker.check": 4000,
    "power_monitor.monitor": 4004,
    "bus_telemetry.monitor": 4000,
}
#: Digest of every kernel counter and histogram series except
#: ``sim_process_seconds_total``.
KERNEL_METRICS = (
    "d59463b6d76cdf0c7a1703f5bfbf98c219dac760b4deaee4497b765311664be5")
KERNEL_STEPS = 4001
KERNEL_DELTAS = 8858
#: Every event of the uncapped run: stored + dropped under any cap.
TOTAL_EVENTS = 81815

CAP = 5000
#: The capped run under the columnar record.  Not from the live
#: recording, whose capped trace failed validation.
CAPPED_LEN = 5003
CAPPED_DROPPED = 76812


def _digest(obj):
    text = json.dumps(obj, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def golden_run(max_events=2_000_000):
    """Paper testbench, full bundle, interpreted engine, two ``run``
    calls of 1000 cycles each, finalized."""
    reset_txn_ids()
    telemetry = Telemetry(max_events=max_events)
    system = build_paper_testbench(seed=1, telemetry=telemetry)
    system.run(us(10))
    system.run(us(10))
    telemetry.finalize()
    return telemetry


def kernel_tracks(tracer):
    tracks = {}
    for event in tracer.events:
        if event.pid == "kernel":
            tracks.setdefault(event.tid, []).append(
                [event.ts_ps, event.phase, event.name, event.cat])
    return tracks


def kernel_metrics(registry):
    snapshot = registry.snapshot()
    metrics = {}
    for kind in ("counters", "histograms"):
        for name, instrument in snapshot[kind].items():
            if name.startswith("sim_") \
                    and name != "sim_process_seconds_total":
                metrics[name] = instrument["series"]
    return metrics


def current_values():
    telemetry = golden_run()
    tracks = kernel_tracks(telemetry.tracer)
    metrics = kernel_metrics(telemetry.registry)
    capped = golden_run(max_events=CAP)
    return {
        "KERNEL_TRACKS": _digest(tracks),
        "KERNEL_TRACK_EVENTS": {tid: len(events)
                                for tid, events in tracks.items()},
        "KERNEL_METRICS": _digest(metrics),
        "KERNEL_STEPS": metrics["sim_time_steps_total"][""],
        "KERNEL_DELTAS": metrics["sim_delta_cycles_total"][""],
        "TOTAL_EVENTS": len(telemetry.tracer),
        "CAPPED_LEN": len(capped.tracer),
        "CAPPED_DROPPED": capped.tracer.dropped,
    }


class TestKernelTelemetryGolden:
    def test_kernel_tracks(self):
        tracks = kernel_tracks(golden_run().tracer)
        assert {tid: len(events) for tid, events in tracks.items()} \
            == KERNEL_TRACK_EVENTS
        assert _digest(tracks) == KERNEL_TRACKS

    def test_kernel_metrics(self):
        telemetry = golden_run()
        metrics = kernel_metrics(telemetry.registry)
        assert metrics["sim_time_steps_total"] == {"": KERNEL_STEPS}
        assert metrics["sim_delta_cycles_total"] == {"": KERNEL_DELTAS}
        assert _digest(metrics) == KERNEL_METRICS
        assert len(telemetry.tracer) == TOTAL_EVENTS
        assert telemetry.tracer.dropped == 0

    def test_mid_run_folds_are_invisible(self, monkeypatch):
        from repro.telemetry import hooks
        monkeypatch.setattr(hooks, "FOLD_ROWS", 1000)
        telemetry = golden_run()
        assert len(telemetry.tracer._spans) > 20
        assert _digest(kernel_tracks(telemetry.tracer)) == KERNEL_TRACKS
        assert _digest(kernel_metrics(telemetry.registry)) \
            == KERNEL_METRICS

    def test_capped_run(self, tmp_path):
        tracer = golden_run(max_events=CAP).tracer
        assert len(tracer) == CAPPED_LEN
        assert tracer.dropped == CAPPED_DROPPED
        assert len(tracer) + tracer.dropped == TOTAL_EVENTS
        assert len(tracer.events) == len(tracer)
        for timebase in ("sim", "wall"):
            path = tracer.write_chrome(
                str(tmp_path / ("%s.json" % timebase)),
                timebase=timebase)
            assert validate_chrome_trace(path) == []


if __name__ == "__main__":
    print(json.dumps(current_values(), indent=2))
