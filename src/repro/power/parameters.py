"""Technology parameters for the energy macromodels.

The paper's macromodels are parameterised by the supply voltage
``V_DD``, the equivalent node capacitance ``C_PD`` and the output load
``C_O``; the paper itself never reports the concrete values of its
0.35 µm-era target process.  This module exposes them as an explicit
:class:`TechnologyParameters` value object with presets, calibrated so
that the default configuration lands per-instruction energies in the
paper's published 14.7–22.4 pJ band (Table 1).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TechnologyParameters:
    """Process/operating-point constants used by every macromodel.

    Attributes
    ----------
    vdd:
        Supply voltage, volts.
    c_pd:
        Equivalent capacitance of one internal node, farads (the
        paper's ``C_PD``).
    c_o:
        Capacitance of one block output node, farads (the paper's
        ``C_O``) — output nodes drive longer wires and more fanout.
    c_clk:
        Clock-pin capacitance charged per flip-flop per cycle, farads.
    name:
        Preset label for reports.
    """

    vdd: float = 3.3
    c_pd: float = 15e-15
    c_o: float = 100e-15
    c_clk: float = 8e-15
    name: str = "generic-0.35um"

    def __post_init__(self):
        if self.vdd <= 0:
            raise ValueError("vdd must be positive")
        for label in ("c_pd", "c_o", "c_clk"):
            if getattr(self, label) < 0:
                raise ValueError("%s must be non-negative" % label)

    @property
    def half_cv2(self):
        """``½·V_DD²`` — multiply by capacitance for one toggle's energy."""
        return 0.5 * self.vdd * self.vdd

    def node_energy(self, toggles=1):
        """Energy of *toggles* internal-node transitions (joules)."""
        return toggles * self.c_pd * self.half_cv2

    def scaled(self, vdd=None, **caps):
        """Return a copy with selected fields replaced."""
        fields = {
            "vdd": self.vdd if vdd is None else vdd,
            "c_pd": caps.get("c_pd", self.c_pd),
            "c_o": caps.get("c_o", self.c_o),
            "c_clk": caps.get("c_clk", self.c_clk),
            "name": caps.get("name", self.name + "-scaled"),
        }
        return TechnologyParameters(**fields)


#: The calibration used by the paper-reproduction experiments.
PAPER_TECHNOLOGY = TechnologyParameters()

#: A representative later node, for design-space exploration examples.
TECH_180NM = TechnologyParameters(
    vdd=1.8, c_pd=6e-15, c_o=20e-15, c_clk=3e-15, name="generic-0.18um",
)

#: Matches the gate-level library defaults so macromodel-vs-netlist
#: validation compares like with like.
GATE_LEVEL_TECHNOLOGY = TechnologyParameters(
    vdd=1.8, c_pd=12e-15, c_o=10e-15, c_clk=5e-15, name="gate-level",
)
