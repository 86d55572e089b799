"""Unit tests for the static compiler (repro.compiled).

Covers graph extraction and its loud rejections (dynamic sensitivity,
undeclared write sets, mixed sensitivity, clock-writing combinational
processes), combinational-cycle detection with the named cycle path,
multi-clock domain partitioning, and the engine's run-time decline /
fall-back paths — every one of which must leave results bit-identical
to the interpreted kernel.
"""

import pytest

from repro.compiled import (
    CompileError,
    compile_simulator,
    extract_graph,
    levelize,
)
from repro.kernel import Clock, MHz, Signal, Simulator, ns, us


def _counter_design():
    """A clocked counter plus a combinational decode stage."""
    sim = Simulator()
    clk = Clock.from_frequency(sim, "clk", MHz(100))
    count = Signal(sim, "count", width=32)
    decoded = Signal(sim, "decoded", width=1)
    sim.add_method(lambda: count.write(count.value + 1),
                   [clk.posedge], name="tick", initialize=False)
    sim.add_method(lambda: decoded.write(1 if count.value % 5 == 0
                                         else 0),
                   [count], name="decode", writes=[decoded])
    return sim, clk, count, decoded


class TestGraphExtraction:
    def test_classifies_seq_and_comb(self):
        sim, clk, count, decoded = _counter_design()
        graph = extract_graph(sim, [clk])
        domain = graph.domain_of(clk)
        assert [info.name for info in domain.seq_pos] == ["tick"]
        assert [info.name for info in graph.comb] == ["decode"]
        assert graph.comb[0].reads == (count,)
        assert graph.comb[0].writes == (decoded,)

    def test_rejects_dynamic_sensitivity_thread(self):
        sim, clk, count, decoded = _counter_design()

        def roamer():
            yield count.changed     # dynamic wait — not compilable

        sim.add_thread(roamer, name="roamer")
        with pytest.raises(CompileError) as excinfo:
            extract_graph(sim, [clk])
        assert "dynamic sensitivity" in str(excinfo.value)
        assert excinfo.value.process_names == ("roamer",)

    def test_rejects_undeclared_comb_writes(self):
        sim = Simulator()
        clk = Clock.from_frequency(sim, "clk", MHz(100))
        a = Signal(sim, "a")
        b = Signal(sim, "b")
        sim.add_method(lambda: b.write(a.value), [a], name="anon")
        with pytest.raises(CompileError, match="write set"):
            extract_graph(sim, [clk])

    def test_rejects_mixed_sensitivity(self):
        sim = Simulator()
        clk = Clock.from_frequency(sim, "clk", MHz(100))
        a = Signal(sim, "a")
        b = Signal(sim, "b")
        sim.add_method(lambda: b.write(a.value), [clk.posedge, a],
                       name="mixed", writes=[b])
        with pytest.raises(CompileError, match="mixes"):
            extract_graph(sim, [clk])

    def test_rejects_edge_on_non_clock_signal(self):
        sim = Simulator()
        clk = Clock.from_frequency(sim, "clk", MHz(100))
        a = Signal(sim, "a")
        sim.add_method(lambda: None, [a.posedge], name="edgy")
        with pytest.raises(CompileError, match="not a .* clock"):
            extract_graph(sim, [clk])

    def test_rejects_comb_clock_writer(self):
        # Compile-time, not run-time: a combinational process that
        # drives the clock wire would corrupt the engine's edge
        # arithmetic.
        sim = Simulator()
        clk = Clock.from_frequency(sim, "clk", MHz(100))
        a = Signal(sim, "a")
        sim.add_method(lambda: clk.signal.write(0), [a],
                       name="gater", writes=[clk.signal])
        with pytest.raises(CompileError, match="writes clock signal"):
            compile_simulator(sim, [clk], install=False)


class TestLevelize:
    def test_orders_cascade(self):
        sim, clk, count, decoded = _counter_design()
        downstream = Signal(sim, "downstream")
        sim.add_method(lambda: downstream.write(decoded.value),
                       [decoded], name="stage2", writes=[downstream])
        graph = extract_graph(sim, [clk])
        ordered = levelize(graph.comb)
        assert [info.name for info in ordered] == ["decode", "stage2"]
        assert ordered[0].level == 0
        assert ordered[1].level == 1

    def test_cycle_error_names_full_path(self):
        sim = Simulator()
        clk = Clock.from_frequency(sim, "clk", MHz(100))
        a = Signal(sim, "a")
        b = Signal(sim, "b")
        sim.add_method(lambda: b.write(a.value), [a], name="fwd",
                       writes=[b])
        sim.add_method(lambda: a.write(b.value), [b], name="back",
                       writes=[a])
        graph = extract_graph(sim, [clk])
        with pytest.raises(CompileError) as excinfo:
            levelize(graph.comb)
        error = excinfo.value
        assert "combinational cycle" in str(error)
        # The alternating process -> signal -> process path closes on
        # itself and names both offenders and a connecting signal.
        assert set(error.process_names) == {"fwd", "back"}
        assert error.cycle_path[0] == error.cycle_path[-1]
        assert {"a", "b"} & set(error.cycle_path)


def _build_two_domain(seed_period_ns=10, second_period_ns=27):
    """Two independent clock domains sharing one simulator."""
    sim = Simulator()
    clk_a = Clock(sim, "clk_a", period=ns(seed_period_ns))
    clk_b = Clock(sim, "clk_b", period=ns(second_period_ns))
    count_a = Signal(sim, "count_a", width=32)
    count_b = Signal(sim, "count_b", width=32)
    mixed = Signal(sim, "mixed", width=32)
    sim.add_method(lambda: count_a.write(count_a.value + 1),
                   [clk_a.posedge], name="tick_a", initialize=False)
    sim.add_method(lambda: count_b.write(count_b.value + 1),
                   [clk_b.posedge], name="tick_b", initialize=False)
    sim.add_method(
        lambda: mixed.write(count_a.value * 1000 + count_b.value),
        [count_a, count_b], name="mix", writes=[mixed])
    return sim, clk_a, clk_b, count_a, count_b, mixed


class TestMultiClock:
    def test_domain_partitioning(self):
        sim, clk_a, clk_b, *_ = _build_two_domain()
        graph = extract_graph(sim, [clk_a, clk_b])
        assert [info.name
                for info in graph.domain_of(clk_a).seq_pos] == ["tick_a"]
        assert [info.name
                for info in graph.domain_of(clk_b).seq_pos] == ["tick_b"]
        assert [info.name for info in graph.comb] == ["mix"]

    def test_two_domain_run_matches_interpreted(self):
        reference = _build_two_domain()
        reference[0].run(until=us(2))

        sim, clk_a, clk_b, count_a, count_b, mixed = _build_two_domain()
        engine = compile_simulator(sim, [clk_a, clk_b])
        sim.run(until=us(2))
        assert engine.runs_compiled == 1
        assert engine.runs_declined == 0

        ref_sim, ref_a, ref_b = reference[0], reference[1], reference[2]
        assert (clk_a.cycles, clk_b.cycles) == (ref_a.cycles,
                                                ref_b.cycles)
        assert count_a.value == reference[3].value
        assert count_b.value == reference[4].value
        assert mixed.value == reference[5].value
        assert sim.now == ref_sim.now
        assert sim.delta_count == ref_sim.delta_count

    def test_coincident_edges_keep_interpreted_order(self):
        # Periods 10 and 20 ns: every other edge of the fast clock
        # lands on the same picosecond as the slow clock's edge, so
        # the multi-domain step must group and order by sequence
        # number exactly as the interpreted heap does.
        reference = _build_two_domain(10, 20)
        reference[0].run(until=us(1))

        sim, clk_a, clk_b, count_a, count_b, mixed = _build_two_domain(
            10, 20)
        compile_simulator(sim, [clk_a, clk_b])
        sim.run(until=us(1))
        assert sim.delta_count == reference[0].delta_count
        assert mixed.value == reference[5].value


class _CountingObserver:
    """Kernel observer recording activations per process and every
    ``on_settle`` call."""

    def __init__(self):
        self.activations = {}
        self.settles = []

    def on_process(self, process, now, seconds):
        assert seconds >= 0.0
        self.activations[process.name] = (
            self.activations.get(process.name, 0) + 1)

    def on_settle(self, now, deltas):
        self.settles.append((now, deltas))


def _observed(sim, until, engine=None):
    observer = _CountingObserver()
    sim.attach_observer(observer)
    sim.run(until=until)
    if engine is not None:
        assert engine.runs_compiled == 1, engine.fallback_reason
        assert engine.runs_declined == 0
    return observer


class TestObservedRuns:
    """An attached kernel observer keeps the compiled engine: the run
    and every per-step report match the interpreted kernel, and only
    deduplicated combinational activations may be fewer."""

    def test_observer_runs_compiled_with_same_results(self):
        ref_sim, _, ref_count, ref_decoded = _counter_design()
        reference = _observed(ref_sim, us(1))

        sim, clk, count, decoded = _counter_design()
        engine = compile_simulator(sim, [clk])
        observer = _observed(sim, us(1), engine)
        assert count.value == ref_count.value == 100
        assert decoded.value == ref_decoded.value
        assert sim.delta_count == ref_sim.delta_count
        assert observer.settles == reference.settles
        for name in ("clk.driver", "tick"):
            assert observer.activations[name] \
                == reference.activations[name]
        assert observer.activations["decode"] \
            <= reference.activations["decode"]

    def test_observer_on_two_domains(self):
        # coincident edges: one time step, one on_settle for both clocks
        ref = _build_two_domain(10, 20)
        reference = _observed(ref[0], us(1))

        sim, clk_a, clk_b, count_a, count_b, mixed = _build_two_domain(
            10, 20)
        engine = compile_simulator(sim, [clk_a, clk_b])
        observer = _observed(sim, us(1), engine)
        assert (count_a.value, count_b.value, mixed.value) == (
            ref[3].value, ref[4].value, ref[5].value)
        assert sim.delta_count == ref[0].delta_count
        assert observer.settles == reference.settles
        for name in ("clk_a.driver", "clk_b.driver", "tick_a",
                     "tick_b"):
            assert observer.activations[name] \
                == reference.activations[name]
        assert observer.activations["mix"] \
            <= reference.activations["mix"]


class TestEngineFallback:
    def test_late_process_registration_declines(self):
        sim, clk, count, decoded = _counter_design()
        engine = compile_simulator(sim, [clk])
        other = Signal(sim, "other")
        sim.add_method(lambda: other.write(count.value), [count],
                       name="late", writes=[other])
        sim.run(until=us(1))
        assert engine.runs_declined == 1
        assert "registered since compile" in engine.fallback_reason
        assert count.value == 100

    def test_seq_clock_writer_bails_mid_run(self):
        # A sequential process that drives the clock wire low is only
        # detectable at run time; the engine must materialize its
        # state and hand the rest of the run to the interpreter,
        # producing the interpreted trajectory.
        def build():
            sim = Simulator()
            clk = Clock(sim, "clk", period=ns(10))
            count = Signal(sim, "count", width=32)

            def tick():
                count.write(count.value + 1)
                if count.value == 49:
                    clk.signal.write(0)    # kill the clock mid-run
            sim.add_method(tick, [clk.posedge], name="tick",
                           initialize=False)
            return sim, clk, count

        ref_sim, _, ref_count = build()
        ref_sim.run(until=us(2))

        sim, clk, count = build()
        engine = compile_simulator(sim, [clk])
        sim.run(until=us(2))
        assert count.value == ref_count.value
        assert sim.now == ref_sim.now
        assert sim.delta_count == ref_sim.delta_count

    def test_uninstall_restores_interpreter(self):
        sim, clk, count, decoded = _counter_design()
        engine = compile_simulator(sim, [clk])
        sim.run(until=us(1))
        assert engine.runs_compiled == 1
        engine.uninstall()
        sim.run(until=us(2))
        assert engine.runs_compiled == 1    # second leg interpreted
        assert count.value == 200

    def test_partial_until_time_matches(self):
        # `until` falling between edges: the engine must stop the
        # clock plan exactly where the interpreted heap would.
        ref_sim, ref_clk, ref_count, _ = _counter_design()
        ref_sim.run(until=ns(10_015))

        sim, clk, count, _ = _counter_design()
        compile_simulator(sim, [clk])
        sim.run(until=ns(10_015))
        assert count.value == ref_count.value
        assert sim.now == ref_sim.now == ns(10_015)
        # and the next leg resumes cleanly, compiled again
        ref_sim.run(until=ns(20_000))
        sim.run(until=ns(20_000))
        assert count.value == ref_count.value
        assert sim.delta_count == ref_sim.delta_count
