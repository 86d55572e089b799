"""Functional equivalence checking of netlists against references.

Used by the test suite to prove the synthesis generators implement the
intended functions before their switching activity is trusted for
macromodel calibration.
"""

from __future__ import annotations

import itertools
import random

from .gates import bits_to_int
from .simulate import GateLevelSimulator


class Mismatch:
    """One recorded functional mismatch."""

    __slots__ = ("inputs", "expected", "actual")

    def __init__(self, inputs, expected, actual):
        self.inputs = inputs
        self.expected = expected
        self.actual = actual

    def __repr__(self):
        return "Mismatch(inputs=%r, expected=%r, actual=%r)" % (
            self.inputs, self.expected, self.actual,
        )


def check_combinational(netlist, reference, exhaustive_limit=14,
                        samples=2000, seed=0):
    """Compare *netlist* against ``reference(input_bits) -> output_bits``.

    *reference* receives a tuple of input bit values (ordered like
    ``netlist.inputs``) and must return the expected output bits
    (ordered like ``netlist.outputs``).

    Input spaces up to ``2**exhaustive_limit`` are swept exhaustively;
    larger ones are sampled with *samples* random vectors.  Returns the
    list of :class:`Mismatch` (empty = equivalent).
    """
    n_in = len(netlist.inputs)
    simulator = GateLevelSimulator(netlist)
    mismatches = []

    if n_in <= exhaustive_limit:
        vector_iter = itertools.product((0, 1), repeat=n_in)
    else:
        rng = random.Random(seed)
        vector_iter = (
            tuple(rng.randint(0, 1) for _ in range(n_in))
            for _ in range(samples)
        )

    for bits in vector_iter:
        result = simulator.step(bits, clock=False)
        actual = tuple(result.outputs[net] for net in netlist.outputs)
        expected = tuple(reference(bits))
        if actual != expected:
            mismatches.append(Mismatch(bits, expected, actual))
    return mismatches


def decoder_reference(n_outputs, n_in):
    """Reference function factory for the one-hot decoder."""
    def reference(bits):
        code = bits_to_int(bits)
        return [1 if code == k and code < n_outputs else 0
                for k in range(n_outputs)]
    return reference


def mux_reference(n_inputs, width, n_sel):
    """Reference function factory for the AND-OR multiplexer.

    Input ordering matches :func:`~repro.gatelevel.synth.synth_mux`:
    legs ``d0..d{n-1}`` then the select bus.
    """
    def reference(bits):
        legs = []
        cursor = 0
        for _ in range(n_inputs):
            legs.append(bits[cursor:cursor + width])
            cursor += width
        select = bits_to_int(bits[cursor:cursor + n_sel])
        if select < n_inputs:
            return list(legs[select])
        return [0] * width
    return reference
