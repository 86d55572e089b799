"""Unit tests for the delta-cycle scheduler."""

import pytest

from repro.kernel import (
    DeltaCycleLimitError,
    ProcessError,
    Signal,
    SimulationError,
    Simulator,
    ns,
)


class TestDeltaCycles:
    def test_combinational_chain_settles_in_one_time_step(self):
        sim = Simulator()
        a = Signal(sim, "a")
        b = Signal(sim, "b")
        c = Signal(sim, "c")
        sim.add_method(lambda: b.write(a.value + 1), [a])
        sim.add_method(lambda: c.write(b.value * 2), [b])

        def driver():
            yield ns(1)
            a.write(10)

        sim.add_thread(driver)
        sim.run()
        assert sim.now == ns(1)
        assert (b.value, c.value) == (11, 22)

    def test_zero_delay_loop_detected(self):
        sim = Simulator(max_delta_cycles=50)
        a = Signal(sim, "a")
        b = Signal(sim, "b")
        # a = not b; b = not a with no stable point given init values.
        sim.add_method(lambda: a.write(1 - b.value), [b],
                       name="inv_loop")
        sim.add_method(lambda: b.write(a.value), [a], name="buf_loop")

        def kick():
            yield ns(1)
            a.write(1 - a.value)

        sim.add_thread(kick)
        with pytest.raises(DeltaCycleLimitError) as exc_info:
            sim.run()
        # the error names the processes still runnable in the final
        # delta cycle, so the loop can be found without a debugger.
        error = exc_info.value
        # the two loop halves alternate, so whichever half was about
        # to run is the one reported -- never the innocent kicker.
        assert error.process_names
        assert set(error.process_names) <= {"inv_loop", "buf_loop"}
        assert "runnable processes" in str(error)

    def test_all_processes_in_delta_see_same_snapshot(self):
        sim = Simulator()
        sig = Signal(sim, "sig", init=7)
        seen = []

        def p1():
            sig.write(8)
            seen.append(("p1", sig.value))
            yield ns(1)

        def p2():
            seen.append(("p2", sig.value))
            yield ns(1)

        sim.add_thread(p1)
        sim.add_thread(p2)
        sim.run()
        assert ("p1", 7) in seen and ("p2", 7) in seen


class TestRunControl:
    def test_run_until_stops_clock(self):
        sim = Simulator()
        sig = Signal(sim, "sig")

        def driver():
            while True:
                sig.write(sig.value + 1)
                yield ns(10)

        sim.add_thread(driver)
        sim.run(until=ns(35))
        assert sim.now == ns(35)
        # events at 0, 10, 20, 30 ran; event at 40 pending
        assert sig.value == 4

    def test_run_resumes_where_it_stopped(self):
        sim = Simulator()
        sig = Signal(sim, "sig")

        def driver():
            while True:
                sig.write(sig.value + 1)
                yield ns(10)

        sim.add_thread(driver)
        sim.run(until=ns(25))
        first = sig.value
        sim.run(until=ns(55))
        assert sig.value > first
        assert sim.now == ns(55)

    def test_run_without_events_returns_immediately(self):
        sim = Simulator()
        assert sim.run() == 0

    def test_stop_from_process(self):
        sim = Simulator()
        log = []

        def runner():
            for index in range(100):
                log.append(index)
                if index == 3:
                    sim.stop()
                yield ns(1)

        sim.add_thread(runner)
        sim.run()
        assert log == [0, 1, 2, 3]

    def test_max_time_steps_guard(self):
        sim = Simulator()

        def ticker():
            while True:
                yield ns(1)

        sim.add_thread(ticker)
        sim.run(max_time_steps=5)
        assert sim.now <= ns(6)

    def test_run_is_not_reentrant(self):
        sim = Simulator()

        def nested():
            sim.run()
            yield ns(1)

        sim.add_thread(nested)
        with pytest.raises(SimulationError):
            sim.run()


class TestWallClockBudget:
    def test_budget_expiry_raises_between_time_steps(self):
        from repro.kernel import WallClockDeadlineError
        sim = Simulator()

        def ticker():
            while True:
                yield ns(1)

        sim.add_thread(ticker)
        with pytest.raises(WallClockDeadlineError) as excinfo:
            sim.run(until=ns(10_000_000), wall_clock_budget=0.0)
        assert excinfo.value.budget == 0.0
        assert excinfo.value.elapsed >= 0.0

    def test_no_budget_means_no_deadline(self):
        sim = Simulator()

        def ticker():
            for _ in range(5):
                yield ns(1)

        sim.add_thread(ticker)
        assert sim.run() == ns(5)

    def test_generous_budget_does_not_fire(self):
        sim = Simulator()

        def ticker():
            for _ in range(5):
                yield ns(1)

        sim.add_thread(ticker)
        assert sim.run(wall_clock_budget=60.0) == ns(5)


class TestRunEnd:
    def test_callbacks_run_when_run_returns_or_raises(self):
        sim = Simulator()
        calls = []

        def step():
            yield ns(1)
            raise RuntimeError("boom")

        process = sim.add_thread(step, name="step")
        sim.at_run_end(lambda: calls.append(sim.now), process)
        sim.run(until=0)
        assert calls == [0]
        with pytest.raises(ProcessError):
            sim.run()
        assert calls == [0, ns(1)]

    def test_observer_sees_callback_as_owner_activation(self):
        sim = Simulator()
        seen = []

        class Observer:
            def on_process(self, process, now, seconds):
                seen.append((process.name, now))

            def on_settle(self, now, deltas):
                pass

        process = sim.add_method(lambda: None, [], name="owner",
                                 initialize=False)
        sim.at_run_end(lambda: None, process)
        sim.attach_observer(Observer())
        sim.run()
        assert seen == [("owner", 0)]


class TestErrors:
    def test_process_exception_wrapped(self):
        sim = Simulator()

        def bad():
            raise RuntimeError("boom")
            yield  # pragma: no cover

        sim.add_thread(bad, name="badproc")
        with pytest.raises(ProcessError) as excinfo:
            sim.run()
        assert "badproc" in str(excinfo.value)
        assert isinstance(excinfo.value.original, RuntimeError)


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        def build():
            sim = Simulator()
            sig = Signal(sim, "sig", width=16)
            log = []

            def driver():
                value = 1
                while True:
                    value = (value * 5 + 1) % 65536
                    sig.write(value)
                    yield ns(3)

            sim.add_method(lambda: log.append((sim.now, sig.value)),
                           [sig], initialize=False)
            sim.add_thread(driver)
            sim.run(until=ns(100))
            return log

        assert build() == build()

    def test_introspection(self):
        sim = Simulator()
        Signal(sim, "a")
        sim.add_method(lambda: None, [], name="m")
        assert len(sim.signals) == 1
        assert len(sim.processes) == 1
        assert "Simulator" in repr(sim)
