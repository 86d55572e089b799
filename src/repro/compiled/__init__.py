"""Compiled execution engine for elaborated designs.

``repro.compiled`` turns an instantiated design into specialized
straight-line edge code at elaboration time:

1. :func:`~repro.compiled.graph.extract_graph` reads the static
   sensitivity/write metadata every process declared to the kernel and
   classifies processes into clock domains (sequential) and a
   combinational network;
2. :func:`~repro.compiled.levelize.levelize` topologically orders the
   combinational network, raising a loud
   :class:`~repro.compiled.errors.CompileError` — with the named cycle
   path — when the design cannot be statically scheduled;
3. :mod:`~repro.compiled.codegen` emits one flat rising/falling
   function per clock domain; and
4. :class:`~repro.compiled.engine.CompiledEngine` installs itself as
   the simulator's pluggable scheduler, executing clock edges
   arithmetically (no heapq, no generator resume) while staying
   bit-identical to the interpreted kernel — checkpoints, replay
   digests and energy ledgers match byte for byte.  Anything it cannot
   prove safe falls back to the interpreted loop, loudly via
   :attr:`CompiledEngine.fallback_reason`.  A kernel observer
   (:class:`~repro.telemetry.KernelTelemetry`) is not such a case:
   while one is attached, edges take the engine's generic path, which
   reports every process activation and settled time step to it.

The engine knows nothing about power analysis.  The global power
monitor's clock process records one row per cycle and replays the rows
in batches (:mod:`repro.power.replay`) on either engine, so batching —
and every per-cycle power sink, telemetry included — behaves the same
compiled or interpreted.

Typical use::

    from repro.compiled import compile_system

    system = build_paper_testbench(seed=1)
    engine = compile_system(system)     # installs the scheduler
    system.run(us(100))                 # runs compiled
    engine.uninstall()                  # back to the interpreter

"""

from .engine import CompiledEngine
from .errors import CompileError
from .graph import DesignGraph, extract_graph
from .levelize import levelize

__all__ = [
    "CompileError",
    "CompiledEngine",
    "DesignGraph",
    "compile_simulator",
    "compile_system",
    "extract_graph",
    "levelize",
]


def compile_simulator(sim, clocks, install=True):
    """Compile *sim* (with its *clocks*) and install the engine.

    Pass ``install=False`` to get an un-installed engine (e.g. for
    inspection or deferred attachment).
    """
    engine = CompiledEngine(sim, clocks)
    if install:
        engine.install()
    return engine


def compile_system(system, install=True):
    """Compile an :class:`~repro.workloads.testbench.AhbSystem`.

    Convenience wrapper around :func:`compile_simulator` using the
    system's simulator and bus clock.
    """
    return compile_simulator(system.sim, [system.clk], install=install)
