"""Hook points wiring the tracer/registry into the simulation stack.

Three instrumentation layers, each strictly observe-only:

* :class:`KernelTelemetry` — a kernel observer (see
  :meth:`repro.kernel.Simulator.attach_observer`): per-process
  activation spans with wall-clock durations, recorded as one row of
  plain numbers per activation and folded at the end of every run;
  delta-cycles-per-step statistics, delta-storm markers, and optional
  per-signal commit markers;
* :class:`BusTelemetry` — a clocked module deriving each master's
  transaction lifecycle (request → grant → address/data → response)
  from the committed bus signals, plus arbiter tenure spans,
  wait-state and RETRY/SPLIT/ERROR annotations and per-transaction
  latency metrics;
* :class:`PowerTracer` — attached to a :class:`~repro.power.PowerFsm`:
  power-FSM state segments and per-block energy counter samples.

:class:`Telemetry` bundles a registry and a tracer and installs all
three onto an assembled :class:`~repro.workloads.AhbSystem`.  A
disabled bundle installs **nothing** — the simulation runs the exact
PR-3 code path, which is the runtime analogue of compiling the paper's
``POWERTEST`` instrumentation out.
"""

from __future__ import annotations

from array import array
from time import perf_counter_ns as _perf_counter_ns

import numpy as np

from ..amba.types import HRESP, HTRANS
from ..kernel import Module
from .registry import (
    CYCLE_BUCKETS,
    MetricsRegistry,
    NULL_REGISTRY,
)
from .tracing import NULL_TRACER, Tracer

#: Delta cycles within one time step beyond which the kernel observer
#: flags a "delta-storm" (zero-delay feedback churn worth seeing).
STORM_THRESHOLD = 100

#: Recorded activation rows that make the kernel observer fold
#: mid-run, so one long ``run`` call holds a bounded record.
FOLD_ROWS = 1 << 16

_DELTA_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0,
                  512.0)

#: Per-cycle energies are ~three orders below per-run totals.
_CYCLE_ENERGY_BUCKETS = tuple(
    mantissa * 10.0 ** exponent
    for exponent in range(-15, -9)
    for mantissa in (1.0, 3.0)
)


class KernelTelemetry:
    """Kernel observer: process activations, delta statistics, storms.

    Installed via ``sim.attach_observer(kernel_telemetry)``; the
    simulator only pays for instrumentation while an observer is
    attached.  Each activation appends one row — process index,
    simulated time, wall-clock end, duration — to typed ``array``
    columns and allocates nothing else.  When a ``run`` call ends
    (:meth:`on_run_end`), and after any time step that leaves
    :data:`FOLD_ROWS` rows recorded, the rows are folded into the
    per-process counters and handed to the tracer as one span block,
    so the registry is current whenever ``run`` returns.
    """

    def __init__(self, tracer, registry, storm_threshold=STORM_THRESHOLD):
        self.tracer = tracer
        self.registry = registry
        self.storm_threshold = storm_threshold
        self._scheduler = tracer.track("kernel", "scheduler")
        #: process -> row index; names and counter children by index
        self._index = {}
        self._names = []
        self._children = []
        self._new_rows()
        self._activations_metric = registry.counter(
            "sim_process_activations_total",
            "Process activations", labelnames=("process",))
        self._seconds_metric = registry.counter(
            "sim_process_seconds_total",
            "Wall-clock seconds inside each process",
            labelnames=("process",))
        self._steps = registry.counter(
            "sim_time_steps_total", "Distinct time points processed")
        self._deltas = registry.counter(
            "sim_delta_cycles_total", "Delta cycles executed")
        self._storms = registry.counter(
            "sim_delta_storms_total",
            "Time steps exceeding the delta-storm threshold")
        self._delta_hist = registry.histogram(
            "sim_deltas_per_step", "Delta cycles per time step",
            buckets=_DELTA_BUCKETS)
        self._signal_commits = registry.counter(
            "sim_signal_commits_total", "Watched signal commits",
            labelnames=("signal",))

    def _new_rows(self):
        self._rows_process = array("i")
        self._rows_now = array("q")
        self._rows_wall = array("q")
        self._rows_seconds = array("d")

    def _register(self, process):
        name = process.name
        index = self._index[process] = len(self._names)
        self._names.append(name)
        self._children.append((
            self._activations_metric.labels(process=name),
            self._seconds_metric.labels(process=name)))
        return index

    # -- Simulator observer interface -----------------------------------

    def on_process(self, process, now, seconds):
        """One process activation took *seconds* of host time."""
        index = self._index.get(process)
        if index is None:
            index = self._register(process)
        self._rows_process.append(index)
        self._rows_now.append(now)
        self._rows_wall.append(_perf_counter_ns())
        self._rows_seconds.append(seconds)

    def on_run_end(self):
        """A ``run`` call returned or raised: fold the rows."""
        self._fold()

    def _fold(self):
        """Fold the recorded rows into the counters and hand them to
        the tracer as kernel spans."""
        rows = self._rows_process
        if not rows:
            return
        index = np.frombuffer(rows, dtype=rows.typecode)
        size = len(self._names)
        counts = np.bincount(index, minlength=size)
        seconds = np.bincount(
            index, minlength=size,
            weights=np.frombuffer(self._rows_seconds, dtype="d"))
        for row in np.flatnonzero(counts).tolist():
            activations, total_seconds = self._children[row]
            activations.inc(int(counts[row]))
            total_seconds.inc(float(seconds[row]))
        self.tracer.add_spans("kernel", self._names, rows,
                              self._rows_now, self._rows_wall,
                              self._rows_seconds, cat="kernel.process")
        self._new_rows()

    def on_settle(self, now, deltas):
        """One time step settled after *deltas* delta cycles."""
        self._steps.inc()
        self._deltas.inc(deltas)
        self._delta_hist.observe(deltas)
        if deltas >= self.storm_threshold:
            self._storms.inc()
            self._scheduler.instant("delta-storm", now,
                                    cat="kernel.storm",
                                    args={"deltas": deltas})
        if len(self._rows_process) >= FOLD_ROWS:
            self._fold()

    # -- optional signal-commit hooks -----------------------------------

    def watch_signals(self, sim, signals):
        """Emit an instant event (and count) per commit of *signals*.

        Expensive at high toggle rates — opt in per signal.
        """
        track = self.tracer.track("kernel", "signals")
        for signal in signals:
            counter = self._signal_commits.labels(signal=signal.name)

            def watcher(signal, old, new, _track=track,
                        _counter=counter, _sim=sim):
                _counter.inc()
                _track.instant(signal.name, _sim.now,
                               cat="kernel.signal",
                               args={"old": old, "new": new})

            signal.add_watcher(watcher)


class BusTelemetry(Module):
    """Per-master AHB transaction-lifecycle tracing.

    Derives, from the committed bus signals each clock edge, which of
    four lifecycle states every active master occupies:

    ``request``
        ``HBUSREQ`` asserted, bus owned by someone else;
    ``granted``
        address-phase owner but driving IDLE (grant received, transfer
        not started — the paper's arbitration/handover territory);
    ``transfer``
        address-phase owner driving NONSEQ/SEQ/BUSY;
    *(no span)*
        idle.

    State changes open/close spans on the master's track; wait states
    and non-OKAY responses become instant annotations; completed
    transactions (via the master's ``on_complete`` hook) record
    latency/retry metrics and a summary marker.
    """

    def __init__(self, sim, name, clk, bus, masters, tracer, registry,
                 parent=None):
        super().__init__(sim, name, parent=parent)
        self.bus = bus
        self.masters = list(masters)
        self.tracer = tracer
        self._arbiter_track = tracer.track("bus", "arbiter")
        self._response_track = tracer.track("bus", "responses")
        self._owner = None
        self._clk_period = clk.period

        self._wait_counter = registry.counter(
            "bus_wait_cycles_total", "HREADY-low cycles seen by the "
            "address-phase owner", labelnames=("master",))
        self._response_counter = registry.counter(
            "bus_responses_total", "First cycles of non-OKAY responses",
            labelnames=("response",))
        self._handovers = registry.counter(
            "bus_handovers_total", "Address-phase ownership changes")
        self._txn_counter = registry.counter(
            "bus_txns_total", "Completed transactions",
            labelnames=("master", "kind"))
        self._txn_errors = registry.counter(
            "bus_txn_errors_total", "Transactions completed with error",
            labelnames=("master",))
        self._txn_retries = registry.counter(
            "bus_txn_retries_total", "RETRY/SPLIT re-issues",
            labelnames=("master",))
        self._latency_hist = registry.histogram(
            "bus_txn_latency_cycles", "Issue-to-completion latency",
            labelnames=("master",), buckets=CYCLE_BUCKETS)

        self._state = {}
        for index, master in enumerate(self.masters):
            master_name = "master%d" % index
            self._state[index] = {
                "name": master_name,
                "track": tracer.track("bus", master_name),
                "lifecycle": None,
                "wait": self._wait_counter.labels(master=master_name),
            }
            master.on_complete.append(
                self._transaction_hook(index, master_name))

        self.method(self._on_clk, [clk.posedge], name="monitor",
                    initialize=False)

    def _transaction_hook(self, index, master_name):
        track = self.tracer.track("bus", master_name + ".txns")
        read_counter = self._txn_counter.labels(master=master_name,
                                                kind="read")
        write_counter = self._txn_counter.labels(master=master_name,
                                                 kind="write")
        errors = self._txn_errors.labels(master=master_name)
        retries = self._txn_retries.labels(master=master_name)
        latency = self._latency_hist.labels(master=master_name)

        def on_complete(txn):
            (write_counter if txn.write else read_counter).inc()
            if txn.error:
                errors.inc()
            if txn.retries:
                retries.inc(txn.retries)
            args = {"addr": "0x%x" % txn.address, "beats": txn.beats,
                    "retries": txn.retries, "error": txn.error}
            if txn.issue_time is not None \
                    and txn.complete_time is not None:
                cycles = ((txn.complete_time - txn.issue_time)
                          / self._clk_period)
                latency.observe(cycles)
                args["latency_cycles"] = round(cycles, 1)
            track.instant("write" if txn.write else "read",
                          self.sim.now, cat="bus.txn", args=args)

        return on_complete

    def _on_clk(self):
        bus = self.bus
        now = self.sim.now
        owner = bus.hmaster.value
        htrans = bus.htrans.value
        hready = bus.hready.value
        hresp = bus.hresp.value

        if owner != self._owner:
            if self._owner is not None:
                self._arbiter_track.end(now)
                self._handovers.inc()
            self._arbiter_track.begin("master%d" % owner, now,
                                      cat="bus.tenure")
            self._owner = owner

        if not hready and hresp != int(HRESP.OKAY):
            response = HRESP(hresp).name
            self._response_counter.labels(response=response).inc()
            self._response_track.instant(response, now,
                                         cat="bus.response",
                                         args={"hmaster": owner})

        for index, state in self._state.items():
            if index == owner:
                lifecycle = ("granted" if htrans == int(HTRANS.IDLE)
                             else "transfer")
                if not hready:
                    state["wait"].inc()
                    state["track"].instant("wait", now, cat="bus.wait")
            elif self.masters[index].port.hbusreq.value:
                lifecycle = "request"
            else:
                lifecycle = None
            if lifecycle != state["lifecycle"]:
                if state["lifecycle"] is not None:
                    state["track"].end(now)
                if lifecycle is not None:
                    state["track"].begin(lifecycle, now,
                                         cat="bus.master")
                state["lifecycle"] = lifecycle


class PowerTracer:
    """Power-FSM hook: state segments plus per-block energy samples.

    Attached as ``power_fsm.tracer``; the FSM calls :meth:`on_step`
    once per cycle (one ``None`` check per cycle when detached).
    """

    def __init__(self, tracer, registry, counter_every=1):
        self._fsm_track = tracer.track("power", "power_fsm")
        self._energy_track = tracer.track("power", "energy")
        self.counter_every = max(0, int(counter_every))
        self._state = None
        self._tick = 0
        self._block_energy = registry.counter(
            "power_energy_j_total", "Accumulated energy per block",
            labelnames=("block",))
        self._block_children = {}
        self._cycles = registry.counter(
            "power_cycles_total", "Cycles classified by the power FSM")
        self._cycle_hist = registry.histogram(
            "power_cycle_energy_j", "Per-cycle total energy",
            buckets=_CYCLE_ENERGY_BUCKETS)
        self._instructions = registry.counter(
            "power_instructions_total", "Executed bus instructions",
            labelnames=("instruction",))
        self._instruction_children = {}

    def on_step(self, time_ps, mode, instruction, block_energies,
                total, response):
        if mode is not self._state:
            if self._state is not None:
                self._fsm_track.end(time_ps)
            self._fsm_track.begin(mode.name, time_ps, cat="power.fsm")
            self._state = mode
        self._cycles.inc()
        self._cycle_hist.observe(total)
        child = self._instruction_children.get(instruction)
        if child is None:
            child = self._instructions.labels(instruction=instruction)
            self._instruction_children[instruction] = child
        child.inc()
        for block, energy in block_energies.items():
            block_child = self._block_children.get(block)
            if block_child is None:
                block_child = self._block_energy.labels(block=block)
                self._block_children[block] = block_child
            block_child.inc(energy)
        if self.counter_every and self._tick % self.counter_every == 0:
            self._energy_track.counter(
                "energy_j", time_ps,
                {block: energy
                 for block, energy in block_energies.items()})
        self._tick += 1


class Telemetry:
    """A registry + tracer bundle and its system wiring.

    Parameters
    ----------
    enabled:
        ``False`` builds the null bundle: no hooks are installed and
        the simulation runs the uninstrumented code path.
    registry, tracer:
        Pre-built backends (fresh ones are created by default).
    trace_kernel, trace_bus, trace_power:
        Which instrumentation layers :meth:`instrument` installs.
    trace_signals:
        Bus signal attribute names (``"htrans"``, ``"hready"`` …) to
        watch at commit granularity (off by default — expensive).
    storm_threshold, energy_counter_every, max_events:
        Tuning knobs forwarded to the hook layers.
    """

    def __init__(self, enabled=True, registry=None, tracer=None,
                 trace_kernel=True, trace_bus=True, trace_power=True,
                 trace_signals=(), storm_threshold=STORM_THRESHOLD,
                 energy_counter_every=1, max_events=2_000_000):
        self.enabled = enabled
        if enabled:
            self.registry = (registry if registry is not None
                             else MetricsRegistry())
            self.tracer = (tracer if tracer is not None
                           else Tracer(max_events=max_events))
        else:
            self.registry = NULL_REGISTRY
            self.tracer = NULL_TRACER
        self.trace_kernel = trace_kernel
        self.trace_bus = trace_bus
        self.trace_power = trace_power
        self.trace_signals = tuple(trace_signals)
        self.storm_threshold = storm_threshold
        self.energy_counter_every = energy_counter_every
        self.kernel = None
        self.bus = None
        self.power = None
        self._collect_hooks = []
        self._system = None

    @classmethod
    def disabled(cls):
        """The null bundle — same API, zero installed hooks."""
        return cls(enabled=False)

    # -- wiring ---------------------------------------------------------

    def instrument(self, system):
        """Install the enabled layers onto an assembled AhbSystem."""
        if not self.enabled:
            return self
        if self._system is not None:
            raise RuntimeError("telemetry already instruments a system")
        self._system = system
        if self.trace_kernel:
            self.kernel = KernelTelemetry(
                self.tracer, self.registry,
                storm_threshold=self.storm_threshold)
            system.sim.attach_observer(self.kernel)
            if self.trace_signals:
                self.kernel.watch_signals(
                    system.sim,
                    [getattr(system.bus, name)
                     for name in self.trace_signals])
        if self.trace_bus:
            self.bus = BusTelemetry(
                system.sim, "bus_telemetry", system.clk, system.bus,
                system.masters, self.tracer, self.registry)
        if self.trace_power and system.monitor is not None:
            self.power = PowerTracer(
                self.tracer, self.registry,
                counter_every=self.energy_counter_every)
            system.monitor.fsm.tracer = self.power
        self.add_collect(self._collect_system)
        return self

    def add_collect(self, hook):
        """Register a zero-argument callable run before snapshots."""
        self._collect_hooks.append(hook)

    def _collect_system(self):
        system = self._system
        if system is None:
            return
        registry = self.registry
        registry.gauge("run_sim_time_ps",
                       "Kernel time reached").set(system.sim.now)
        registry.gauge("run_txns_completed",
                       "Transactions completed").set(
            system.transactions_completed())
        registry.gauge("run_txns_failed",
                       "Transactions failed").set(
            system.transactions_failed())
        ledger = system.ledger
        if ledger is not None:
            registry.gauge("run_total_energy_j",
                           "Accounted bus energy").set(
                ledger.total_energy)
            registry.gauge("run_cycles",
                           "Cycles charged by the ledger").set(
                ledger.cycles)

    def collect(self):
        """Run every registered collect hook (gauge refresh)."""
        for hook in self._collect_hooks:
            hook()

    def finalize(self):
        """Close open spans at the current kernel time and refresh
        gauges; call once after the run, before exporting."""
        if not self.enabled:
            return self
        now = self._system.sim.now if self._system is not None else 0
        self.tracer.finish(now)
        self.collect()
        return self

    def snapshot(self):
        """Refresh gauges and snapshot the registry."""
        self.collect()
        return self.registry.snapshot()

    def summary(self):
        """Renderable metrics table (see
        :func:`repro.telemetry.aggregate.metrics_table`)."""
        from .aggregate import metrics_table
        return metrics_table(self.snapshot())
