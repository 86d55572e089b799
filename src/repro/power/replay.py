"""The global power model's one energy path: record rows, replay columns.

:class:`BusPowerModel` holds the state of the paper's global power
model (Fig. 1) — activity groups, previous-cycle values, aggregate
counters, the power FSM and its ledger — and is the only code that
turns bus values into energy.  It reads no kernel signal itself: its
front end takes one row of raw bus values per cycle,

* from the committed signals, in the clock process of
  :class:`~repro.power.monitors.GlobalPowerMonitor` (either engine);
* from the samples of a VCD dump, in
  :class:`~repro.power.offline.OfflinePowerAnalyzer`;

and buffers it.  :meth:`BusPowerModel.flush` replays the buffered rows
in columns: the kernel calls it when every ``Simulator.run`` returns or
raises, and the front end calls it every :data:`FLUSH_ROWS` rows.

Row layout: the M2S, S2M and arbiter-request activity signals in
their sample order, then the bus owner, the pending grant, the
data-phase slave select and the cycle's kernel time, then — only with
a clock gate — the gate's committed enable.

Bit-identity with a per-cycle evaluation is the contract:

* integer work (Hamming distances via ``np.bitwise_count``, ones
  counts, mode classification) is vectorized — integers are exact;
* every floating-point expression reproduces the *operation order* of
  the scalar code (constant subexpressions are pre-folded exactly as
  Python's left-associative evaluation folds them; NumPy elementwise
  float64 ops round identically to CPython float ops);
* sequential float accumulators (ledger totals, per-instruction and
  per-response energy, per-master chargeback) and the per-cycle sinks
  (power traces, datafile, instruction log, FSM tracer) are driven by
  an in-order Python loop — float addition is not associative, so the
  accumulators are never vectorized;
* rows whose codes would make a per-cycle evaluation raise (a
  corrupted ``HRESP``/``HTRANS`` code, an out-of-range bus owner) are
  diverted by the front end: it flushes, then replays the row through
  :meth:`BusPowerModel._replay_rows`, the scalar reference, which
  raises the same exception and leaves the same torn state;
* values NumPy cannot hold (beyond int64) make the replay fall back to
  the same scalar reference.

A sink therefore sees each cycle's arguments — recorded time, mode,
instruction, block energies, total, response — exactly as a per-cycle
evaluation passes them, but at flush time: the ledger and FSM are
brought up to date once per flush, and host-time stamps a sink takes
(trace events' wall clock) mark the flush, not the cycle.
"""

from __future__ import annotations

import math

import numpy as np

from ..amba.types import HRESP
from ..kernel.recorder import compile_front_end
from .activity import Activity
from .hamming import hamming
from .instructions import BusMode, classify_mode, instruction_name
from .ledger import (
    BLOCK_ARB,
    BLOCK_DEC,
    BLOCK_M2S,
    BLOCK_S2M,
    EnergyLedger,
    InstructionStats,
    PAPER_BLOCKS,
)
from .macromodels import (
    ArbiterEnergyModel,
    DecoderEnergyModel,
    MuxEnergyModel,
)
from .parameters import PAPER_TECHNOLOGY
from .power_fsm import PowerFsm
from .power_trace import TraceSet

#: The optional clock-tree block's ledger key.
BLOCK_CLK = "CLK"

#: Fixed mode encoding used only inside the replay.
_MODES = (BusMode.IDLE, BusMode.IDLE_HO, BusMode.READ, BusMode.WRITE)
_MODE_CODE = {mode: code for code, mode in enumerate(_MODES)}
_INSTR = tuple(instruction_name(src, dst) for src in _MODES
               for dst in _MODES)
_RESP_NAMES = tuple(HRESP(code).name for code in range(4))

#: Signal widths above this cannot be masked inside int64 arrays.
_MAX_NP_WIDTH = 62

#: Rows buffered before an automatic flush.  Bounds memory on
#: arbitrarily long runs (a row is one tuple per cycle); flush points
#: are invisible to the replayed state, so the cap only trades peak
#: memory against per-flush NumPy overhead.
FLUSH_ROWS = 4096


def _decoder_shift(address_map):
    """Bit position where slave regions start to differ.

    The physical decoder only looks at address bits above the region
    granularity; Hamming activity below that bit is data-path, not
    decode, activity.
    """
    sizes = [region.size for region in address_map]
    if not sizes:
        return 0
    return int(math.floor(math.log2(min(sizes))))


class BusPowerModel:
    """State and energy path of the global power model.

    Parameters
    ----------
    config:
        The :class:`~repro.amba.config.AhbConfig` of the analysed bus.
    m2s, s2m, arb:
        The three activity groups' signals, in sample order: objects
        with ``name``, ``width`` and an initial ``value`` (kernel
        signals live, stand-ins offline).
    params:
        Technology constants for the macromodels.
    with_traces, datafile:
        Per-block power traces / per-cycle energy log (see
        :class:`~repro.power.power_fsm.PowerFsm`).
    clock_tree_flops:
        ``None`` (the paper's four blocks) or the flop count of an
        extra, always-clocked ``"CLK"`` block.
    clock_gate:
        Optional :class:`~repro.power.dpm.ClockGateController`; its
        committed ``gated`` enable is recorded as a column and zeroes
        the clock-tree charge (a wake-up costs *wake_penalty_factor*
        extra cycles of it).
    haddr, owner, dsel:
        Previous-cycle values the first row is compared against.
    """

    def __init__(self, config, m2s, s2m, arb, params=PAPER_TECHNOLOGY,
                 with_traces=False, datafile=None, clock_tree_flops=None,
                 clock_gate=None, wake_penalty_factor=2.0, haddr=0,
                 owner=0, dsel=0):
        self.params = params
        self.default_master = config.default_master
        n_slaves_total = config.n_slaves + 1  # incl. default slave
        self.m2s_model = MuxEnergyModel(
            config.n_masters, config.addr_width + config.data_width + 13,
            params)
        self.s2m_model = MuxEnergyModel(
            n_slaves_total, config.data_width + 3, params)
        self.decoder_model = DecoderEnergyModel(n_slaves_total, params)
        self.arbiter_model = ArbiterEnergyModel(config.n_masters, params)

        self._m2s_out = Activity("m2s_out", m2s)
        self._s2m_out = Activity("s2m_out", s2m)
        self._arb_in = Activity("arb_in", arb)
        self._decoder_shift = _decoder_shift(config.address_map)
        self._prev_haddr = haddr
        self._prev_owner = owner
        self._prev_dsel = dsel

        self.clock_gate = clock_gate
        self.wake_penalty_factor = wake_penalty_factor
        self.clock_tree_flops = clock_tree_flops or 0
        self._clock_tree_energy = None
        if clock_tree_flops is not None:
            self._clock_tree_energy = (
                params.half_cv2 * params.c_clk * clock_tree_flops)
        self._was_gated = False

        blocks = PAPER_BLOCKS + ("TOTAL",)
        self.traces = TraceSet(blocks) if with_traces else None
        self.ledger = EnergyLedger()
        self.fsm = PowerFsm(self.ledger, traces=self.traces,
                            datafile=datafile)

        # Aggregate activity counters consumed by
        # repro.power.statistical.WorkloadStatistics.from_monitor.
        self.decode_hd_total = 0
        self.decode_change_count = 0
        self.dsel_hd_total = 0
        self.handover_total = 0
        self.transfer_cycles = 0
        self.write_cycles = 0

        #: Energy chargeback: joules attributed to each master index
        #: (the cycle's address-phase owner pays for the cycle).
        self.master_energy = [0.0] * config.n_masters

        n_m2s = len(self._m2s_out.signals)
        n_s2m = len(self._s2m_out.signals)
        self._resp_col = n_m2s + 1
        self._owner_col = n_m2s + n_s2m + len(self._arb_in.signals)
        self._rows = []
        #: Offline front end: ``push(row)`` takes one complete row.
        self.push = self._front_end(
            "_row", ("    _vt = _row[0]\n"
                     "    _vr = _row[%d]\n"
                     "    _vo = _row[%d]\n"
                     % (self._resp_col, self._owner_col)), {})

    # -- front end -----------------------------------------------------

    def recorder(self, sim, signals):
        """The per-cycle recording closure for a live bus.

        *signals* are the row's signal columns in layout order (the
        three activity groups, owner, pending grant, slave select);
        the cycle time comes from *sim* and the gate column from the
        clock gate.  The closure is generated source so every signal
        is a free variable bound once — the per-cycle cost is slot
        loads and one tuple append.
        """
        namespace = {"_sim": sim}
        values = []
        for index, signal in enumerate(signals):
            namespace["_s%d" % index] = signal
            values.append("_s%d._value" % index)
        values[0] = "_vt"
        values[self._resp_col] = "_vr"
        values[self._owner_col] = "_vo"
        values.append("_sim.now")
        if self.clock_gate is not None:
            namespace["_g"] = self.clock_gate.gated
            values.append("_g._value")
        prelude = ("    _vt = _s0._value\n"
                   "    _vr = _s%d._value\n"
                   "    _vo = _s%d._value\n"
                   "    _row = (%s)\n"
                   % (self._resp_col, self._owner_col, ", ".join(values)))
        return self._front_end("", prelude, namespace)

    def _front_end(self, args, prelude, namespace):
        """Compile one front end: *prelude* binds ``_row`` and the three
        checked codes; rows with undecodable codes are diverted to the
        scalar reference.  A model whose coefficients could make a
        cycle's energy negative diverts every row, so the ledger's
        guard raises on that very cycle."""
        namespace["_nm"] = len(self.master_energy)
        divert = ("True" if not self._signs_ok() else
                  "(_vt > 3 or _vt < 0 or _vr > 3 or _vr < 0\n"
                  "            or _vo >= _nm or _vo < -_nm)")
        return compile_front_end(
            prelude, divert, self._rows, self.flush, self._replay_rows,
            FLUSH_ROWS, namespace, args=args,
            filename="<repro.power.replay-front-end>")

    def _signs_ok(self):
        """No cycle's energy can be negative (so the ledger's guard
        never fires and rows may wait for a batched replay)."""
        m2s, s2m = self.m2s_model, self.s2m_model
        dec, arb = self.decoder_model, self.arbiter_model
        params = self.params
        coeffs = [
            m2s.path_coeff, m2s.select_coeff, m2s.output_coeff,
            s2m.path_coeff, s2m.select_coeff, s2m.output_coeff,
            dec.input_coeff, dec.output_coeff,
            arb.request_coeff, arb.handover_coeff,
            params.half_cv2, params.c_pd, params.c_o, params.c_clk,
        ]
        if self._clock_tree_energy is not None:
            coeffs.append(self._clock_tree_energy)
            coeffs.append(self._clock_tree_energy
                          + self.wake_penalty_factor
                          * self._clock_tree_energy)
        return all(coeff >= 0 for coeff in coeffs)

    def _fits_int64(self):
        """Every column can be masked inside int64 arrays."""
        signals = (self._m2s_out.signals + self._s2m_out.signals
                   + self._arb_in.signals)
        return (all(signal.width <= _MAX_NP_WIDTH for signal in signals)
                and self.decoder_model.n_inputs <= _MAX_NP_WIDTH)

    # -- replay --------------------------------------------------------

    @property
    def pending(self):
        """Number of recorded, not yet replayed cycles."""
        return len(self._rows)

    def flush(self):
        """Replay every buffered row into the model, in order."""
        rows = self._rows
        if not rows:
            return
        try:
            if self._fits_int64():
                try:
                    arr = np.array(rows, dtype=np.int64)
                    self._replay_np(arr)
                except OverflowError:
                    # a value or stored previous value beyond int64;
                    # nothing was mutated yet (the compute phase is
                    # pure)
                    self._replay_rows(rows)
            else:
                self._replay_rows(rows)
        finally:
            rows.clear()

    def _activity_np(self, activity, cols, base, count):
        """Pure compute phase for one activity group.

        Returns ``(per_cycle_total, per_signal_hd, ones, lasts)``; the
        caller applies the mutations only after every group computed,
        so an OverflowError (huge stored value) leaves no torn state.
        """
        total = np.zeros(count, dtype=np.int64)
        hds = []
        ones = []
        lasts = []
        for offset, signal in enumerate(activity.signals):
            values = cols[base + offset]
            prev = self._shifted(values, activity._stored[signal])
            mask = (1 << signal.width) - 1
            hd = np.bitwise_count((prev ^ values) & mask) \
                .astype(np.int64)
            total += hd
            hds.append(int(hd.sum()))
            ones.append(int(np.bitwise_count(values & mask)
                            .astype(np.int64).sum()))
            lasts.append(int(values[-1]))
        return total, hds, ones, lasts

    @staticmethod
    def _apply_activity(activity, result, count):
        _, hds, ones, lasts = result
        changes = 0
        for offset, signal in enumerate(activity.signals):
            activity._stored[signal] = lasts[offset]
            activity._transitions_per_signal[signal] += hds[offset]
            activity._ones_accumulator[signal] += ones[offset]
            changes += hds[offset]
        activity._bit_changes += changes
        activity.samples_taken += count

    @staticmethod
    def _shifted(column, first):
        """*column* delayed by one row, *first* in front."""
        prev = np.empty_like(column)
        prev[0] = first                            # may overflow int64
        prev[1:] = column[:-1]
        return prev

    def _replay_np(self, arr):
        count = arr.shape[0]
        cols = arr.T
        n_m2s = len(self._m2s_out.signals)
        n_s2m = len(self._s2m_out.signals)
        owner_col = self._owner_col

        # ---- pure compute phase (exact integers) ----
        m2s = self._activity_np(self._m2s_out, cols, 0, count)
        s2m = self._activity_np(self._s2m_out, cols, n_m2s, count)
        arb = self._activity_np(self._arb_in, cols, n_m2s + n_s2m, count)

        htrans = cols[0]
        haddr = cols[1]
        hwrite = cols[2]
        hresp = cols[self._resp_col]
        owner = cols[owner_col]
        grant = cols[owner_col + 1]
        dsel = cols[owner_col + 2]
        times = cols[owner_col + 3]

        handover = owner != self._shifted(owner, self._prev_owner)
        parked = owner == self.default_master
        ho_flag = handover | (grant != owner) | parked

        shift = self._decoder_shift
        prev_haddr = self._shifted(haddr, self._prev_haddr)
        dec_mask = (1 << self.decoder_model.n_inputs) - 1
        hd_dec = np.bitwise_count(
            ((prev_haddr >> shift) ^ (haddr >> shift)) & dec_mask
        ).astype(np.int64)

        prev_dsel = self._shifted(dsel, self._prev_dsel)
        hd_dsel = np.bitwise_count((prev_dsel ^ dsel) & 0xFF) \
            .astype(np.int64)

        transfer = (htrans == 2) | (htrans == 3)
        writes = transfer & (hwrite != 0)
        modes = np.where(transfer, np.where(hwrite != 0, 3, 2),
                         np.where(ho_flag, 1, 0))

        # ---- energies: same float64 ops in the same order ----
        params = self.params
        hv, cpd, co = params.half_cv2, params.c_pd, params.c_o
        m2s_m, s2m_m = self.m2s_model, self.s2m_model
        dec_m, arb_m = self.decoder_model, self.arbiter_model

        hd_sel = handover.astype(np.int64)         # hd_owner_code
        t = m2s[0]
        e_m2s = hv * (cpd * (m2s_m.path_coeff * t
                             + m2s_m.select_coeff * hd_sel)
                      + (m2s_m.output_coeff * co) * t)
        t = s2m[0]
        e_s2m = hv * (cpd * (s2m_m.path_coeff * t
                             + s2m_m.select_coeff * hd_dsel)
                      + (s2m_m.output_coeff * co) * t)
        e_dec = hv * ((dec_m.input_coeff * cpd) * hd_dec
                      + np.where(hd_dec >= 1,
                                 (dec_m.output_coeff * 1) * co,
                                 (dec_m.output_coeff * 0) * co))
        arb_idle = hv * params.c_clk * arb_m.n_flops
        e_arb = arb_idle + (hv * cpd * arb_m.request_coeff) * arb[0]
        e_arb = np.where(
            handover,
            e_arb + hv * (cpd * arb_m.handover_coeff + co * 2.0),
            e_arb)

        e_clk = None
        tree = self._clock_tree_energy
        if tree is not None:
            if self.clock_gate is not None:
                gated = cols[owner_col + 4] != 0
            else:
                gated = np.zeros(count, dtype=bool)
            was_gated = self._shifted(gated, self._was_gated)
            e_clk = np.where(
                gated, 0.0,
                np.where(was_gated,
                         tree + self.wake_penalty_factor * tree, tree))

        # ---- apply integer state (order-independent sums) ----
        self._apply_activity(self._m2s_out, m2s, count)
        self._apply_activity(self._s2m_out, s2m, count)
        self._apply_activity(self._arb_in, arb, count)
        self.decode_hd_total += int(hd_dec.sum())
        self.decode_change_count += int(np.count_nonzero(hd_dec))
        self.dsel_hd_total += int(hd_dsel.sum())
        self.handover_total += int(np.count_nonzero(handover))
        self.transfer_cycles += int(np.count_nonzero(transfer))
        self.write_cycles += int(np.count_nonzero(writes))
        self._prev_haddr = int(haddr[-1])
        self._prev_owner = int(owner[-1])
        self._prev_dsel = int(dsel[-1])
        if tree is not None:
            self._was_gated = bool(gated[-1])

        # ---- sequential float accumulators, strictly in order ----
        self._accumulate(
            count, modes.tolist(), e_m2s.tolist(), e_s2m.tolist(),
            e_dec.tolist(), e_arb.tolist(),
            e_clk.tolist() if e_clk is not None else None,
            hresp.tolist(), owner.tolist(), times.tolist())

    def _accumulate(self, count, modes, l_m2s, l_s2m, l_dec, l_arb,
                    l_clk, resps, owners, times):
        """The in-order scalar tail of the replay.

        Reproduces ``PowerFsm.step`` → ``EnergyLedger.charge_cycle``,
        the step's sinks and the per-master chargeback for every
        cycle, with float additions in exactly the per-cycle order.
        """
        fsm = self.fsm
        ledger = fsm.ledger
        blocks = ledger.block_energy
        b_m2s = blocks.get(BLOCK_M2S, 0.0)
        b_s2m = blocks.get(BLOCK_S2M, 0.0)
        b_dec = blocks.get(BLOCK_DEC, 0.0)
        b_arb = blocks.get(BLOCK_ARB, 0.0)
        b_clk = blocks.get(BLOCK_CLK, 0.0)
        total = ledger.total_energy
        master_energy = self.master_energy
        instructions = ledger.instructions
        stats_by_code = [None] * 16
        resp_by_code = [None] * 4
        resp_order = []
        prev = _MODE_CODE[fsm.state]

        sinks = (fsm.traces is not None or fsm.datafile is not None
                 or fsm.instruction_log is not None
                 or fsm.tracer is not None)
        e4 = None

        for index in range(count):
            e0 = l_m2s[index]
            e1 = l_s2m[index]
            e2 = l_dec[index]
            e3 = l_arb[index]
            # charge_cycle: cycle_total = 0.0 then += per block, in
            # the energies dict's M2S, S2M, DEC, ARB(, CLK) order
            cycle = e0 + e1
            cycle = cycle + e2
            cycle = cycle + e3
            b_m2s = b_m2s + e0
            b_s2m = b_s2m + e1
            b_dec = b_dec + e2
            b_arb = b_arb + e3
            if l_clk is not None:
                e4 = l_clk[index]
                cycle = cycle + e4
                b_clk = b_clk + e4
            mode = modes[index]
            code = prev * 4 + mode
            stats = stats_by_code[code]
            if stats is None:
                name = _INSTR[code]
                stats = instructions.get(name)
                if stats is None:
                    stats = instructions[name] = InstructionStats()
                stats_by_code[code] = stats
            stats.count += 1
            stats.energy += cycle
            resp = resps[index]
            acc = resp_by_code[resp]
            if acc is None:
                acc = ledger.response_energy.get(_RESP_NAMES[resp], 0.0)
                resp_order.append(resp)
            resp_by_code[resp] = acc + cycle
            total = total + cycle
            if sinks:
                self._emit(fsm, times[index], mode, _INSTR[code],
                           e0, e1, e2, e3, e4, cycle, _RESP_NAMES[resp])
            # master_energy[owner] += sum(energies.values()) — the
            # same adds from 0, so it equals the cycle total
            master_energy[owners[index]] += cycle
            prev = mode

        blocks[BLOCK_M2S] = b_m2s
        blocks[BLOCK_S2M] = b_s2m
        blocks[BLOCK_DEC] = b_dec
        blocks[BLOCK_ARB] = b_arb
        if l_clk is not None:
            blocks[BLOCK_CLK] = b_clk
        ledger.total_energy = total
        ledger.cycles += count
        for resp in resp_order:
            ledger.response_energy[_RESP_NAMES[resp]] = resp_by_code[resp]
        fsm.state = _MODES[prev]
        fsm.cycles += count

    @staticmethod
    def _emit(fsm, time_ps, mode, instruction, e0, e1, e2, e3, e4, total,
              response):
        energies = {BLOCK_M2S: e0, BLOCK_S2M: e1, BLOCK_DEC: e2,
                    BLOCK_ARB: e3}
        if e4 is not None:
            energies[BLOCK_CLK] = e4
        fsm.emit(time_ps, _MODES[mode], instruction, energies, total,
                 response)

    # -- scalar reference ----------------------------------------------

    def _replay_rows(self, rows):
        """Replay *rows* one cycle at a time.

        The reference for the batched replay and its only fallback: it
        evaluates each cycle's statements in their per-cycle order and
        calls the same activity, model and FSM methods, so an
        undecodable code raises where a live evaluation raises —
        ``HTRANS`` (``ValueError``) and ``HRESP`` (``ValueError``)
        before the FSM step, an out-of-range owner (``IndexError``)
        after the ledger charge.
        """
        n_m2s = len(self._m2s_out.signals)
        n_s2m = len(self._s2m_out.signals)
        n_arb = len(self._arb_in.signals)
        owner_col = self._owner_col
        tree = self._clock_tree_energy
        gate_col = owner_col + 4 if self.clock_gate is not None else None
        for row in rows:
            m2s_total = self._m2s_out.sample(row[:n_m2s]).total
            s2m_total = self._s2m_out.sample(
                row[n_m2s:n_m2s + n_s2m]).total
            arb_total = self._arb_in.sample(
                row[n_m2s + n_s2m:n_m2s + n_s2m + n_arb]).total

            owner = row[owner_col]
            handover_done = owner != self._prev_owner
            grant_pending = row[owner_col + 1] != owner
            # Cycles parked on the default master are handover
            # territory: the default master never transfers, so the
            # next real transfer necessarily involves a grant change
            # (the paper's IDLE_HO periods span whole idle windows,
            # see DESIGN.md).
            parked = owner == self.default_master
            self._prev_owner = owner

            haddr = row[1]
            hd_decode = hamming(
                self._prev_haddr >> self._decoder_shift,
                haddr >> self._decoder_shift,
                width=self.decoder_model.n_inputs)
            self._prev_haddr = haddr

            dsel = row[owner_col + 2]
            hd_dsel = hamming(self._prev_dsel, dsel, width=8)
            self._prev_dsel = dsel

            hd_owner_code = 1 if handover_done else 0
            self.decode_hd_total += hd_decode
            if hd_decode:
                self.decode_change_count += 1
            self.dsel_hd_total += hd_dsel
            if handover_done:
                self.handover_total += 1
            htrans, hwrite = row[0], row[2]
            if htrans in (2, 3):
                self.transfer_cycles += 1
                if hwrite:
                    self.write_cycles += 1

            energies = {
                BLOCK_M2S: self.m2s_model.energy(
                    hd_in=m2s_total, hd_sel=hd_owner_code,
                    hd_out=m2s_total),
                BLOCK_S2M: self.s2m_model.energy(
                    hd_in=s2m_total, hd_sel=hd_dsel, hd_out=s2m_total),
                BLOCK_DEC: self.decoder_model.energy(hd_decode),
                BLOCK_ARB: self.arbiter_model.energy(
                    arb_total, handover_done),
            }
            if tree is not None:
                gated_now = gate_col is not None and bool(row[gate_col])
                if gated_now:
                    energy = 0.0
                else:
                    energy = tree
                    if self._was_gated:
                        # wake-up: the gated tree recharges and the
                        # enable latches toggle across the whole
                        # distribution
                        energy += self.wake_penalty_factor * tree
                self._was_gated = gated_now
                energies[BLOCK_CLK] = energy

            mode = classify_mode(
                htrans, hwrite,
                handover=handover_done or grant_pending or parked)
            self.fsm.step(row[owner_col + 3], mode, energies,
                          response=HRESP(row[self._resp_col]).name)
            self.master_energy[owner] += sum(energies.values())

    # -- results -------------------------------------------------------

    @property
    def total_energy(self):
        """Total accounted energy so far (joules)."""
        return self.ledger.total_energy

    def master_energy_shares(self):
        """Fraction of total energy attributed to each master index."""
        total = sum(self.master_energy)
        if total == 0:
            return [0.0] * len(self.master_energy)
        return [energy / total for energy in self.master_energy]

    def activity_summary(self):
        """Switching statistics of all monitored signal groups."""
        return {
            "m2s_out": self._m2s_out.summary(),
            "s2m_out": self._s2m_out.summary(),
            "arb_in": self._arb_in.summary(),
        }

    # -- checkpoint support ---------------------------------------------

    def state_dict(self):
        """Model, FSM, ledger and activity-group state.

        Taken between runs only, when no row is waiting for replay.
        Power *traces* (when enabled) are append-only history and are
        NOT checkpointed — a restored run continues recording from the
        restore point; see docs/RESILIENCE.md.
        """
        return {
            "was_gated": self._was_gated,
            "prev_haddr": self._prev_haddr,
            "prev_owner": self._prev_owner,
            "prev_dsel": self._prev_dsel,
            "decode_hd_total": self.decode_hd_total,
            "decode_change_count": self.decode_change_count,
            "dsel_hd_total": self.dsel_hd_total,
            "handover_total": self.handover_total,
            "transfer_cycles": self.transfer_cycles,
            "write_cycles": self.write_cycles,
            "master_energy": list(self.master_energy),
            "ledger": self.ledger.state_dict(),
            "fsm": self.fsm.state_dict(),
            "m2s_out": self._m2s_out.state_dict(),
            "s2m_out": self._s2m_out.state_dict(),
            "arb_in": self._arb_in.state_dict(),
        }

    def load_state_dict(self, state):
        self._was_gated = state["was_gated"]
        self._prev_haddr = state["prev_haddr"]
        self._prev_owner = state["prev_owner"]
        self._prev_dsel = state["prev_dsel"]
        self.decode_hd_total = state["decode_hd_total"]
        self.decode_change_count = state["decode_change_count"]
        self.dsel_hd_total = state["dsel_hd_total"]
        self.handover_total = state["handover_total"]
        self.transfer_cycles = state["transfer_cycles"]
        self.write_cycles = state["write_cycles"]
        self.master_energy = list(state["master_energy"])
        self.ledger.load_state_dict(state["ledger"])
        self.fsm.load_state_dict(state["fsm"])
        self._m2s_out.load_state_dict(state["m2s_out"])
        self._s2m_out.load_state_dict(state["s2m_out"])
        self._arb_in.load_state_dict(state["arb_in"])
