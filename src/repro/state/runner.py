"""Chunked execution with periodic checkpoints.

:func:`run_with_checkpoints` advances a system in chunks, pausing at
*absolute* cycle boundaries (multiples of the checkpoint interval) to
capture a :class:`~repro.state.snapshot.Snapshot`.  Absolute alignment
is what makes the digest stream comparable across runs: a run resumed
from cycle 5000 hits the same boundaries (7500, 10000, ...) an
uninterrupted run does, so the two streams can be compared entry by
entry from the resume point on.

A final end-of-run entry is always recorded (whether or not the end
falls on a boundary), so two complete runs can always be compared on
their last digest — the whole-run exactness oracle.
"""

from __future__ import annotations

import time

from .snapshot import Snapshot


class CheckpointPlan:
    """How (and how often) a run is checkpointed.

    Parameters
    ----------
    interval_cycles:
        Checkpoint at every multiple of this many bus-clock cycles.
        ``0``/``None`` records only the final end-of-run entry.
    store:
        Optional :class:`~repro.state.store.CheckpointStore`; when
        given, every captured snapshot is persisted there and its
        digest appended to the store's stream.  ``None`` keeps the
        interval records in memory only (replay verification mode).
    """

    __slots__ = ("interval_cycles", "store")

    def __init__(self, interval_cycles=1000, store=None):
        self.interval_cycles = int(interval_cycles or 0)
        self.store = store

    def __repr__(self):
        return "CheckpointPlan(interval_cycles=%d, store=%r)" % (
            self.interval_cycles,
            getattr(self.store, "root", None),
        )


def _capture(system, plan, records, on_interval):
    snapshot = system.snapshot()
    entry = {
        "cycle": snapshot.cycle,
        "time_ps": snapshot.time_ps,
        "digest": snapshot.digest,
        "sections": snapshot.section_digests(),
    }
    records.append(entry)
    if plan.store is not None:
        plan.store.put(snapshot)
    if on_interval is not None:
        on_interval(snapshot, entry)
    return entry


def run_with_checkpoints(system, duration_ps, plan,
                         wall_clock_budget=None, on_interval=None):
    """Run *system* for *duration_ps*, checkpointing per *plan*.

    *system* needs ``sim``, ``clk`` and ``snapshot()`` (an
    :class:`~repro.workloads.testbench.AhbSystem` or compatible).
    Returns the list of interval records (``cycle`` / ``time_ps`` /
    ``digest`` / ``sections`` dicts), oldest first, final end-of-run
    entry included.

    ``wall_clock_budget`` (host seconds) covers the *whole* chunked
    run; each chunk gets the remaining budget.  ``on_interval`` is
    called as ``on_interval(snapshot, entry)`` after every capture —
    the replay verifier's hook.

    ``plan=None`` disables checkpointing entirely: the system runs
    straight through with no capture at all (not even the end-of-run
    entry a zero-interval plan records) and ``[]`` is returned.  This
    is the pay-for-what-you-use arm the overhead guard times.
    """
    sim = system.sim
    if plan is None:
        sim.run(until=sim.now + int(duration_ps),
                wall_clock_budget=wall_clock_budget)
        return []
    clk = system.clk
    period = clk.period
    interval = plan.interval_cycles
    end_time = sim.now + int(duration_ps)
    started = time.monotonic()
    records = []
    while sim.now < end_time:
        if interval:
            boundary_cycle = (clk.cycles // interval + 1) * interval
            boundary_time = sim.now + (boundary_cycle - clk.cycles) * period
            target = min(boundary_time, end_time)
        else:
            target = end_time
        remaining = None
        if wall_clock_budget is not None:
            remaining = wall_clock_budget - (time.monotonic() - started)
        sim.run(until=target, wall_clock_budget=remaining)
        at_end = sim.now >= end_time
        on_boundary = interval and not at_end
        if on_boundary or at_end:
            _capture(system, plan, records, on_interval)
    if not records:
        # Zero-duration run: still record the (initial) state once,
        # after settling the initial delta cycles as ``run(0)`` does.
        sim.run(until=sim.now, wall_clock_budget=wall_clock_budget)
        _capture(system, plan, records, on_interval)
    return records


def resume_latest(system, store):
    """Restore *system* from *store*'s newest loadable checkpoint.

    Stream entries past the restored cycle are dropped (the resumed
    run re-executes those intervals and re-records them).  Returns the
    restored :class:`~repro.state.snapshot.Snapshot`, or ``None`` when
    the store holds no usable checkpoint (caller starts from scratch).
    """
    snapshot = store.latest()
    if snapshot is None:
        return None
    system.restore(snapshot)
    entries = store.truncate_stream_after(snapshot.cycle)
    if not entries or entries[-1]["cycle"] != snapshot.cycle:
        # The crash landed in the window between the checkpoint file
        # write and its stream append (or tore the append): the resumed
        # run continues *past* this cycle and would never re-record it,
        # so reconstruct the missing entry from the snapshot itself.
        store.append_stream_entry({
            "cycle": snapshot.cycle,
            "time_ps": snapshot.time_ps,
            "digest": snapshot.digest,
            "sections": snapshot.section_digests(),
        })
    return snapshot
