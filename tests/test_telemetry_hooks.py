"""System instrumentation tests: hooks, behaviour neutrality, and the
disabled-telemetry guard."""

import pytest

from repro.compiled import compile_system
from repro.kernel import Clock, MHz, Signal, Simulator, us
from repro.telemetry import (
    NULL_TRACER,
    KernelTelemetry,
    MetricsRegistry,
    Telemetry,
    Tracer,
    validate_chrome_trace,
)
from repro.workloads import build_paper_testbench


def instrumented_testbench(duration_us=10, **kwargs):
    telemetry = Telemetry(**kwargs)
    system = build_paper_testbench(seed=3, telemetry=telemetry)
    system.run(us(duration_us))
    telemetry.finalize()
    return system, telemetry


class TestKernelObserver:
    def test_attach_detach(self):
        sim = Simulator()

        class Observer:
            def on_process(self, process, now, seconds):
                pass

            def on_settle(self, now, deltas):
                pass

        observer = Observer()
        sim.attach_observer(observer)
        assert sim.observer is observer
        with pytest.raises(Exception):
            sim.attach_observer(Observer())
        sim.detach_observer(observer)
        assert sim.observer is None
        sim.detach_observer(observer)  # idempotent

    def test_observer_sees_activations_and_settles(self):
        sim = Simulator()
        clk = Clock.from_frequency(sim, "clk", MHz(100))
        count = Signal(sim, "count", width=32)
        sim.add_method(lambda: count.write(count.value + 1),
                       [clk.posedge], initialize=False, name="counter")
        seen = {"processes": 0, "settles": 0, "deltas": 0}

        class Observer:
            def on_process(self, process, now, seconds):
                seen["processes"] += 1
                assert seconds >= 0

            def on_settle(self, now, deltas):
                seen["settles"] += 1
                seen["deltas"] += deltas

        sim.attach_observer(Observer())
        sim.run(until=us(1))
        assert seen["processes"] >= 100
        assert seen["settles"] >= 100
        assert seen["deltas"] >= seen["settles"]


class _DurationSpy(KernelTelemetry):
    """Kernel telemetry that also keeps every duration it was given,
    per process name, in activation order."""

    def __init__(self, tracer, registry):
        super().__init__(tracer, registry)
        self.durations = {}

    def on_process(self, process, now, seconds):
        self.durations.setdefault(process.name, []).append(seconds)
        super().on_process(process, now, seconds)


class TestKernelRecord:
    def spied_run(self, engine=None):
        tracer = Tracer()
        system = build_paper_testbench(seed=3)
        spy = _DurationSpy(tracer, MetricsRegistry())
        system.sim.attach_observer(spy)
        if engine == "compiled":
            compile_system(system)
        for _ in range(2):
            system.run(us(2))
        return spy, tracer

    def test_wall_span_width_is_the_recorded_duration(self):
        spy, tracer = self.spied_run()
        spans = {}
        opened = {}
        for event in tracer.events:
            if event.pid != "kernel" or event.tid == "scheduler":
                continue
            if event.phase == "B":
                assert event.cat == "kernel.process"
                opened[event.tid] = event
            else:
                begin = opened.pop(event.tid)
                spans.setdefault(event.tid, []).append(
                    (event.wall_ns - begin.wall_ns,
                     event.args["wall_us"]))
        assert not opened
        assert set(spans) == set(spy.durations)
        for name, seconds in spy.durations.items():
            assert [width for width, _ in spans[name]] \
                == [round(value * 1e9) for value in seconds]
            assert [wall_us for _, wall_us in spans[name]] \
                == [value * 1e6 for value in seconds]

    def test_counters_current_after_every_run(self):
        registry = MetricsRegistry()
        tracer = Tracer()
        system = build_paper_testbench(seed=3)
        spy = _DurationSpy(tracer, registry)
        system.sim.attach_observer(spy)
        for _ in range(2):
            system.run(us(1))
            series = registry.snapshot()["counters"][
                "sim_process_activations_total"]["series"]
            assert series == {
                "process=%s" % name: float(len(values))
                for name, values in spy.durations.items()}
            activations = sum(len(values)
                              for values in spy.durations.values())
            assert len(tracer) == 2 * activations

    def test_compiled_engine_records_the_same_sequential_activations(
            self):
        interpreted, _ = self.spied_run()
        compiled, _ = self.spied_run("compiled")
        assert set(compiled.durations) == set(interpreted.durations)
        for name in ("clk.driver", "master0.fsm", "checker.check",
                     "power_monitor.monitor"):
            assert len(compiled.durations[name]) \
                == len(interpreted.durations[name])


class TestSystemInstrumentation:
    def test_tracks_cover_kernel_bus_and_power(self, tmp_path):
        _, telemetry = instrumented_testbench()
        pids = {event.pid for event in telemetry.tracer.events}
        assert {"kernel", "bus", "power"} <= pids
        path = str(tmp_path / "trace.json")
        telemetry.tracer.write_chrome(path)
        assert validate_chrome_trace(path) == []

    def test_metric_families_populated(self):
        system, telemetry = instrumented_testbench()
        snapshot = telemetry.snapshot()
        counters = snapshot["counters"]
        assert counters["sim_delta_cycles_total"]["series"][""] > 0
        assert sum(counters["bus_txns_total"]["series"].values()) \
            == system.transactions_completed()
        assert counters["power_cycles_total"]["series"][""] \
            == system.ledger.cycles
        energy = sum(
            counters["power_energy_j_total"]["series"].values())
        assert energy == pytest.approx(system.total_energy, rel=1e-9)
        gauges = snapshot["gauges"]
        assert gauges["run_txns_completed"]["series"][""] \
            == system.transactions_completed()

    def test_latency_histogram_counts_transactions(self):
        system, telemetry = instrumented_testbench()
        histogram = telemetry.snapshot()["histograms"][
            "bus_txn_latency_cycles"]
        observed = sum(series["count"]
                       for series in histogram["series"].values())
        assert observed == system.transactions_completed()

    def test_behaviour_not_modified_by_instrumentation(self):
        instrumented, _ = instrumented_testbench()
        plain = build_paper_testbench(seed=3)
        plain.run(us(10))
        assert instrumented.transactions_completed() \
            == plain.transactions_completed()
        assert instrumented.total_energy \
            == pytest.approx(plain.total_energy)
        assert instrumented.bus.arbiter.handover_count \
            == plain.bus.arbiter.handover_count

    def test_disabled_bundle_installs_nothing(self):
        telemetry = Telemetry.disabled()
        system = build_paper_testbench(seed=3, telemetry=telemetry)
        assert system.sim.observer is None
        assert system.monitor.fsm.tracer is None
        system.run(us(2))
        telemetry.finalize()
        assert len(telemetry.tracer) == 0
        assert telemetry.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {}}

    def test_double_instrument_rejected(self):
        telemetry = Telemetry()
        build_paper_testbench(seed=3, telemetry=telemetry)
        with pytest.raises(RuntimeError):
            build_paper_testbench(seed=3, telemetry=telemetry)

    def test_signal_watching_counts_commits(self):
        telemetry = Telemetry(trace_signals=("htrans",),
                              trace_bus=False, trace_power=False)
        system = build_paper_testbench(seed=3, telemetry=telemetry)
        system.run(us(2))
        commits = telemetry.snapshot()["counters"][
            "sim_signal_commits_total"]["series"]
        assert commits.get("signal=ahb.HTRANS", 0) > 0


class TestOverheadGuard:
    def test_disabled_telemetry_installs_nothing(self):
        """``Telemetry.disabled()`` must leave the system exactly as
        ``telemetry=None`` builds it — no kernel observer, no extra
        processes, no power-FSM tracer — and run it through the same
        kernel work: the runtime POWERTEST claim, checked exactly.

        Its host-time cost is measured by the ``testbench-telemetry``
        workload of the repo benchmark (``perfbench/``), not here.
        """
        def run(telemetry):
            system = build_paper_testbench(seed=1, telemetry=telemetry)
            installed = (system.sim.observer,
                         len(system.sim.processes),
                         system.monitor.fsm.tracer)
            # count per-process activations with a kernel observer of
            # our own (attaching fails if the bundle left one behind)
            registry = MetricsRegistry()
            counter = KernelTelemetry(NULL_TRACER, registry)
            system.sim.attach_observer(counter)
            system.run(us(10))
            system.sim.detach_observer(counter)
            calls = registry.snapshot()["counters"][
                "sim_process_activations_total"]["series"]
            assert calls
            return installed, system.sim.delta_count, calls

        baseline = run(None)
        observer, _, tracer = baseline[0]
        assert observer is None and tracer is None
        assert run(Telemetry.disabled()) == baseline
