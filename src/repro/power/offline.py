"""Offline power analysis from recorded waveforms.

A complementary flow to the live monitors: run the functional model
once with VCD tracing (no power code at all — the fastest simulation
mode), then replay the waveform through the macromodels as many times
as needed — different technology parameters, voltage corners, or model
coefficients — without re-simulating.

Use :func:`trace_bus` to dump the canonical signal set during
simulation and :class:`OfflinePowerAnalyzer` to replay it.
"""

from __future__ import annotations

from ..kernel import VcdTracer
from ..kernel.vcd_reader import load_vcd
from .parameters import PAPER_TECHNOLOGY
from .replay import BusPowerModel

#: Canonical VCD names used by :func:`trace_bus` / the analyzer.
M2S_SIGNALS = ("HTRANS", "HADDR", "HWRITE", "HSIZE", "HBURST", "HPROT",
               "HWDATA")
S2M_SIGNALS = ("HRDATA", "HRESP", "HREADY")


def trace_bus(sim, bus, path):
    """Open a VCD tracer dumping the signal set the offline analyzer
    needs; returns the :class:`~repro.kernel.trace.VcdTracer` (close it
    after the run)."""
    tracer = VcdTracer(sim, path, timescale="1ps")
    shared = dict(zip(
        M2S_SIGNALS + S2M_SIGNALS,
        (bus.htrans, bus.haddr, bus.hwrite, bus.hsize, bus.hburst,
         bus.hprot, bus.hwdata, bus.hrdata, bus.hresp, bus.hready),
    ))
    for name, signal in shared.items():
        tracer.trace(signal, name)
    tracer.trace(bus.hmaster, "HMASTER")
    tracer.trace(bus.s2m_mux.dsel, "DSEL")
    for index, port in enumerate(bus.master_ports):
        tracer.trace(port.hbusreq, "HBUSREQ%d" % index)
        tracer.trace(port.hlock, "HLOCK%d" % index)
    return tracer


class _Column:
    """A VCD column standing in for a kernel signal: its name, its
    width, and the value 0 a dump shows before its first change."""

    __slots__ = ("name", "width", "value")

    def __init__(self, name, width):
        self.name = name
        self.width = width
        self.value = 0


class OfflinePowerAnalyzer:
    """Replays a recorded bus waveform through the macromodels.

    The samples are parsed into the rows the live
    :class:`~repro.power.monitors.GlobalPowerMonitor` records and
    replayed by the same :class:`~repro.power.replay.BusPowerModel`, so
    offline and live analyses share one energy path.  Two things a dump
    cannot show differ from a live run: previous-cycle values start at
    0, and the pending grant is taken to be the owner (no grant index
    is recorded).  ``HRESP`` is replayed, so the ledger's
    ``response_energy`` is filled in as live.

    Parameters
    ----------
    config:
        The :class:`~repro.amba.config.AhbConfig` of the recorded bus.
    params:
        Technology parameters to evaluate under (vary freely between
        replays of the same dump).
    """

    def __init__(self, config, params=PAPER_TECHNOLOGY):
        self.config = config
        self.params = params

    def _signal_widths(self):
        cfg = self.config
        return {
            "HTRANS": 2, "HADDR": cfg.addr_width, "HWRITE": 1,
            "HSIZE": 3, "HBURST": 3, "HPROT": 4,
            "HWDATA": cfg.data_width, "HRDATA": cfg.data_width,
            "HRESP": 2, "HREADY": 1,
        }

    def analyze(self, vcd, clock_period_ps, first_edge_ps,
                t_end=None):
        """Replay *vcd* and return the resulting
        :class:`~repro.power.ledger.EnergyLedger`."""
        missing = [name for name in
                   M2S_SIGNALS + S2M_SIGNALS + ("HMASTER", "DSEL")
                   if name not in vcd]
        if missing:
            raise ValueError(
                "VCD lacks required signals: %s (record with "
                "repro.power.offline.trace_bus)" % ", ".join(missing))
        request_names = [stem % index
                         for index in range(self.config.n_masters)
                         for stem in ("HBUSREQ%d", "HLOCK%d")
                         if stem % index in vcd]

        widths = self._signal_widths()
        model = BusPowerModel(
            self.config,
            [_Column(name, widths[name]) for name in M2S_SIGNALS],
            [_Column(name, widths[name]) for name in S2M_SIGNALS],
            [_Column(name, 1) for name in request_names],
            params=self.params)
        signals = [vcd[name] for name in
                   M2S_SIGNALS + S2M_SIGNALS + tuple(request_names)]
        owner, dsel = vcd["HMASTER"], vcd["DSEL"]
        push = model.push
        for sample_time in vcd.sample_times(clock_period_ps,
                                            first_edge_ps, t_end=t_end):
            values = [signal.value_at(sample_time) for signal in signals]
            master = owner.value_at(sample_time)
            # no grant index in the dump: the grant is the owner
            values += (master, master, dsel.value_at(sample_time),
                       sample_time)
            push(tuple(values))
        model.flush()
        return model.ledger

    def analyze_file(self, path, clock_period_ps, first_edge_ps,
                     t_end=None):
        """Convenience: :func:`load_vcd` then :meth:`analyze`."""
        return self.analyze(load_vcd(path), clock_period_ps,
                            first_edge_ps, t_end=t_end)
