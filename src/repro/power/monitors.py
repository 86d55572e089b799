"""The three power-model styles of the paper's Fig. 1.

* :class:`GlobalPowerMonitor` — "a further specific module:
  communicating properly with the other modules it can characterize the
  energetic behavior of the entire system".  A separate kernel module,
  sensitive to the bus clock, that records the shared bus signals every
  cycle; the sub-block macromodels, the power FSM and the ledger
  evaluate the recorded cycles in batches
  (:mod:`repro.power.replay`).  This is the reference model used for
  all paper experiments.

* :class:`LocalPowerMonitor` — "a particular process added to those
  already present in the module ... a system activity monitor".  It
  watches only the activity *mode* and charges a pre-characterised
  average energy per instruction: cheaper, coarser.

* :class:`PrivatePowerMonitor` — "characterize each process in terms
  of energy so that a process is considered as a single, atomic
  instruction ... very accurate ... highly intrusive and with a deep
  impact on simulation speed".  It hooks every sub-block I/O signal
  commit (event granularity, not cycle granularity) and charges
  switched capacitance per individual transition.

Omitting a monitor reproduces the paper's ``POWERTEST`` compile switch:
no instrumentation code runs at all.
"""

from __future__ import annotations

import math

from ..amba.types import HRESP
from ..kernel import Module
from .hamming import hamming
from .instructions import classify_mode, instruction_name
from .ledger import (
    BLOCK_ARB,
    BLOCK_DEC,
    BLOCK_M2S,
    BLOCK_S2M,
    EnergyLedger,
    PAPER_BLOCKS,
)
from .parameters import PAPER_TECHNOLOGY
from .power_fsm import PowerFsm
from .power_trace import TraceSet
from .replay import BusPowerModel


class GlobalPowerMonitor(Module, BusPowerModel):
    """Cycle-accurate, macromodel-driven power analysis (global style).

    A kernel module whose clock process records one row of committed
    bus values per cycle; the :class:`~repro.power.replay.BusPowerModel`
    it extends replays the rows into the macromodels, the power FSM and
    the ledger in batches.  The simulator flushes pending rows whenever
    a ``run`` call returns or raises, so between runs every result
    attribute is current.

    Parameters
    ----------
    bus:
        The :class:`~repro.amba.bus.AhbBus` under analysis.
    params:
        Technology constants for the macromodels.
    with_traces:
        Record per-block :class:`PowerTrace` data (needed for the
        Fig. 3–5 experiments; costs memory on long runs).
    datafile:
        Optional open file for the per-cycle energy log.
    with_clock_tree, clock_tree_flops, clock_gate, wake_penalty_factor:
        The optional bus-wide clock-tree block ("CLK"): the pipeline
        registers of masters, slaves and fabric, charged every ungated
        cycle.  Off by default so the paper's four-block Fig. 6
        decomposition is reproduced unchanged; the DPM extension
        (repro.power.dpm) turns it on together with a
        ClockGateController.
    """

    def __init__(self, sim, name, bus, params=PAPER_TECHNOLOGY,
                 with_traces=False, datafile=None, parent=None,
                 with_clock_tree=False, clock_tree_flops=None,
                 clock_gate=None, wake_penalty_factor=2.0):
        Module.__init__(self, sim, name, parent=parent)
        if clock_gate is not None and not with_clock_tree:
            raise ValueError(
                "clock gating needs with_clock_tree=True (gating only "
                "affects the clock-tree block)")
        cfg = bus.config
        if not with_clock_tree:
            clock_tree_flops = None
        elif clock_tree_flops is None:
            clock_tree_flops = cfg.n_masters * 80 + cfg.n_slaves * 40
        request_signals = []
        for port in bus.master_ports:
            request_signals.append(port.hbusreq)
            request_signals.append(port.hlock)
        BusPowerModel.__init__(
            self, cfg,
            (bus.htrans, bus.haddr, bus.hwrite, bus.hsize, bus.hburst,
             bus.hprot, bus.hwdata),
            (bus.hrdata, bus.hresp, bus.hready),
            request_signals, params=params, with_traces=with_traces,
            datafile=datafile, clock_tree_flops=clock_tree_flops,
            clock_gate=clock_gate,
            wake_penalty_factor=wake_penalty_factor,
            haddr=bus.haddr.value, owner=bus.hmaster.value,
            dsel=bus.s2m_mux.dsel.value)
        self.bus = bus
        columns = (self._m2s_out.signals + self._s2m_out.signals
                   + self._arb_in.signals
                   + (bus.hmaster, bus.arbiter._grant_idx,
                      bus.s2m_mux.dsel))
        process = self.method(self.recorder(sim, columns),
                              [bus.clk.posedge], name="monitor",
                              initialize=False)
        sim.at_run_end(self.flush, process)


class LocalPowerMonitor(Module):
    """Instruction-table power analysis (local style).

    Only the activity mode is observed; each executed instruction is
    charged a fixed average energy from *instruction_energies* (a dict
    ``name -> joules``, typically produced by a characterisation run of
    the global monitor via
    :meth:`GlobalPowerMonitor.ledger.instructions`).  Unknown
    instructions fall back to *default_energy*.
    """

    def __init__(self, sim, name, bus, instruction_energies,
                 default_energy=0.0, with_traces=False, parent=None):
        super().__init__(sim, name, parent=parent)
        self.bus = bus
        self.instruction_energies = dict(instruction_energies)
        self.default_energy = default_energy
        self.ledger = EnergyLedger(blocks=("BUS",))
        traces = TraceSet(("BUS", "TOTAL")) if with_traces else None
        self.traces = traces
        self.fsm = PowerFsm(self.ledger, traces=traces)
        self._prev_owner = bus.hmaster.value
        self.method(self._on_clk, [bus.clk.posedge], name="monitor",
                    initialize=False)

    def _on_clk(self):
        bus = self.bus
        owner = bus.hmaster.value
        handover_done = owner != self._prev_owner
        grant_pending = bus.arbiter._grant_idx.value != owner
        parked = owner == bus.config.default_master
        self._prev_owner = owner
        mode = classify_mode(
            bus.htrans.value, bus.hwrite.value,
            handover=handover_done or grant_pending or parked,
        )
        # Peek the instruction the FSM will classify so its table
        # energy can be charged in the same step.
        name = instruction_name(self.fsm.state, mode)
        energy = self.instruction_energies.get(name, self.default_energy)
        self.fsm.step(self.sim.now, mode, {"BUS": energy},
                      response=HRESP(bus.hresp.value).name)

    @property
    def total_energy(self):
        """Total accounted energy so far (joules)."""
        return self.ledger.total_energy

    # -- checkpoint support ---------------------------------------------

    def state_dict(self):
        return {
            "prev_owner": self._prev_owner,
            "ledger": self.ledger.state_dict(),
            "fsm": self.fsm.state_dict(),
        }

    def load_state_dict(self, state):
        self._prev_owner = state["prev_owner"]
        self.ledger.load_state_dict(state["ledger"])
        self.fsm.load_state_dict(state["fsm"])


class PrivatePowerMonitor(Module):
    """Event-granularity power analysis (private style).

    Watches every individual signal commit on the sub-block interfaces
    and charges switched capacitance per transition: internal-node
    capacitance scaled by a per-block path depth, plus output load on
    the block output nets.  The most accurate and the slowest style —
    each signal change costs a Python callback inside the kernel's
    update phase.
    """

    def __init__(self, sim, name, bus, params=PAPER_TECHNOLOGY,
                 parent=None):
        super().__init__(sim, name, parent=parent)
        self.bus = bus
        self.params = params
        cfg = bus.config
        self.ledger = EnergyLedger()
        self.fsm = PowerFsm(self.ledger)
        self._pending = {block: 0.0 for block in PAPER_BLOCKS}
        self._prev_owner = bus.hmaster.value

        n_slaves_total = cfg.n_slaves + 1
        m2s_depth = 1 + math.ceil(math.log2(cfg.n_masters))
        s2m_depth = 1 + math.ceil(math.log2(n_slaves_total))
        dec_cost = (self.params.c_pd
                    * math.ceil(math.log2(n_slaves_total)))

        watch_plan = [
            (BLOCK_M2S, bus.htrans, m2s_depth),
            (BLOCK_M2S, bus.haddr, m2s_depth),
            (BLOCK_M2S, bus.hwrite, m2s_depth),
            (BLOCK_M2S, bus.hsize, m2s_depth),
            (BLOCK_M2S, bus.hburst, m2s_depth),
            (BLOCK_M2S, bus.hprot, m2s_depth),
            (BLOCK_M2S, bus.hwdata, m2s_depth),
            (BLOCK_S2M, bus.hrdata, s2m_depth),
            (BLOCK_S2M, bus.hresp, s2m_depth),
            (BLOCK_S2M, bus.hready, s2m_depth),
        ]
        half_cv2 = params.half_cv2
        for block, signal, depth in watch_plan:
            per_bit = half_cv2 * (params.c_pd * depth + params.c_o)
            signal.add_watcher(self._make_watcher(block, per_bit))

        for port in bus.slave_ports:
            port.hsel.add_watcher(
                self._make_watcher(BLOCK_DEC, half_cv2 * (dec_cost
                                                          + params.c_o))
            )
        bus.default_slave_port.hsel.add_watcher(
            self._make_watcher(BLOCK_DEC, half_cv2 * (dec_cost
                                                      + params.c_o))
        )
        for port in bus.master_ports:
            port.hgrant.add_watcher(
                self._make_watcher(BLOCK_ARB,
                                   half_cv2 * (params.c_pd + params.c_o))
            )
            port.hbusreq.add_watcher(
                self._make_watcher(BLOCK_ARB, half_cv2 * params.c_pd * 2)
            )

        self.method(self._on_clk, [bus.clk.posedge], name="monitor",
                    initialize=False)

    def _make_watcher(self, block, per_bit_energy):
        pending = self._pending

        def watcher(signal, old, new):
            pending[block] += per_bit_energy * hamming(
                old, new, width=signal.width,
            )
        return watcher

    def _on_clk(self):
        bus = self.bus
        owner = bus.hmaster.value
        handover_done = owner != self._prev_owner
        grant_pending = bus.arbiter._grant_idx.value != owner
        parked = owner == bus.config.default_master
        self._prev_owner = owner
        mode = classify_mode(
            bus.htrans.value, bus.hwrite.value,
            handover=handover_done or grant_pending or parked,
        )
        energies = dict(self._pending)
        # Arbiter clock tree burns every cycle.
        energies[BLOCK_ARB] += (
            self.params.half_cv2 * self.params.c_clk
            * (bus.config.n_masters + 8)
        )
        for block in self._pending:
            self._pending[block] = 0.0
        self.fsm.step(self.sim.now, mode, energies,
                      response=HRESP(bus.hresp.value).name)

    @property
    def total_energy(self):
        """Total accounted energy so far (joules)."""
        return self.ledger.total_energy

    # -- checkpoint support ---------------------------------------------

    def state_dict(self):
        return {
            "pending": dict(sorted(self._pending.items())),
            "prev_owner": self._prev_owner,
            "ledger": self.ledger.state_dict(),
            "fsm": self.fsm.state_dict(),
        }

    def load_state_dict(self, state):
        # The watcher closures hold a reference to the _pending dict:
        # mutate it in place, never rebind it.
        self._pending.clear()
        self._pending.update(state["pending"])
        self._prev_owner = state["prev_owner"]
        self.ledger.load_state_dict(state["ledger"])
        self.fsm.load_state_dict(state["fsm"])
