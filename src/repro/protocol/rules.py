"""The AHB compliance rule catalogue.

Each rule is a per-cycle assertion monitor over the *committed* shared
bus signals, checking one machine-verifiable guarantee of the AMBA spec
rev 2.0 (ARM IHI 0011A) — the same class of properties "Synthesis of
AMBA AHB from Formal Specification" (Godhal, Chatterjee, Henzinger)
states as LTL guarantees.  Rules come in two tiers:

**mandatory** — spec *requirements*; a violation means the bus traffic
is illegal and any conclusion drawn from the power model is void:

========================  =======  ==========================================
rule id                   spec     guarantee
========================  =======  ==========================================
``hgrant-one-hot``        §3.11.3  exactly one master is granted per cycle
``hsel-one-hot``          §3.10    exactly one slave (incl. default) selected
``alignment``             §3.4     beat addresses aligned to ``HSIZE``
``stall-stability``       §3.9.1   address phase held while ``HREADY`` low
``two-cycle-response``    §3.9.3   ERROR/RETRY/SPLIT take two cycles, the
                                   first with ``HREADY`` low
``idle-okay``             §3.9.1   an IDLE transfer gets a zero-wait OKAY
``grant-handover``        §3.11.1  a new bus owner starts IDLE or NONSEQ,
                                   never SEQ/BUSY
``seq-without-nonseq``    §3.5     a burst opens with NONSEQ
``burst-address``         §3.5.4   SEQ beats carry the architected address
``burst-control``         §3.5.1   control signals constant within a burst
``busy-outside-burst``    §3.4     BUSY only appears inside an open burst
========================  =======  ==========================================

**advisory** — spec recommendations and liveness bounds; individually
every cycle is legal but the unbounded repetition marks a sick system
(the pathologies :mod:`repro.faults.modes` injects):

========================  =======  ==========================================
``wait-limit``            §3.9.1   slaves should insert at most N wait
                                   states (spec recommends 16)
``retry-livelock``        §3.9.3   bounded consecutive RETRYs per master
``split-release``         §3.12    a SPLIT master is eventually released
========================  =======  ==========================================

Rules are stateless where possible; stateful ones (burst tracking,
streak counters) keep their state private and expose ``reset()``.
Every rule's ``check(prev, view)`` receives the previous and current
:class:`CycleView` and yields ``(rule_id, message)`` pairs: the scalar
per-cycle reference.

Every built-in rule also has a batched form, ``batch(block)``, over a
:class:`RowBlock` of recorded cycles.  The stateless rules
(:class:`StatelessRule`) compute a NumPy mask of candidate cycles and
confirm each candidate with ``check``; the stateful ones replay the
rows in an in-order loop that updates the same private state.  Both
forms return the same violations with the same messages, and leave the
same state.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from ..amba.types import (
    HBURST,
    HRESP,
    HTRANS,
    aligned,
    is_active,
    next_burst_address,
)


#: Scalar columns that open every recorded row; the HSEL vector
#: (slaves, then the default slave), the HGRANT vector, the arbiter's
#: split mask and the data-phase-active flag follow.
ROW_FIELDS = ("time", "htrans", "haddr", "hwrite", "hsize", "hburst",
              "hready", "hresp", "hmaster", "hmaster_d")

(_TIME, _HTRANS, _HADDR, _HWRITE, _HSIZE, _HBURST, _HREADY, _HRESP,
 _HMASTER, _HMASTER_D) = range(len(ROW_FIELDS))


def row_signals(bus):
    """The signals of one recorded row, in column order after the time:
    the committed bus values every rule reads."""
    return ([bus.htrans, bus.haddr, bus.hwrite, bus.hsize, bus.hburst,
             bus.hready, bus.hresp, bus.hmaster, bus.hmaster_d]
            + [port.hsel for port in bus.slave_ports]
            + [bus.default_slave_port.hsel]
            + [port.hgrant for port in bus.master_ports]
            + [bus.arbiter.split_mask, bus.s2m_mux.dactive])


class CycleView:
    """Committed values of the bus-visible signals at one rising edge.

    Includes the shared (multiplexed) signals plus the arbitration and
    selection vectors the one-hot and liveness rules need.  Built from
    one recorded row (see :func:`row_signals`).
    """

    __slots__ = ("cycle", "time", "htrans", "haddr", "hwrite", "hsize",
                 "hburst", "hready", "hresp", "hmaster", "hmaster_d",
                 "hsels", "hgrants", "split_mask", "dactive")

    @classmethod
    def from_row(cls, row, cycle, n_sels):
        """The view of recorded *row* (``time`` first, then the
        :func:`row_signals` values); *n_sels* counts the HSEL columns,
        default slave included."""
        view = cls.__new__(cls)
        view.cycle = cycle
        fixed = len(ROW_FIELDS)
        (view.time, view.htrans, view.haddr, view.hwrite, view.hsize,
         view.hburst, view.hready, view.hresp, view.hmaster,
         view.hmaster_d) = row[:fixed]
        view.hsels = row[fixed:fixed + n_sels]
        view.hgrants = row[fixed + n_sels:-2]
        view.split_mask = row[-2]
        view.dactive = row[-1]
        return view

    def snapshot(self):
        """JSON-friendly dict of the signal values this cycle."""
        return {
            "cycle": self.cycle,
            "time_ps": self.time,
            "HTRANS": self.htrans,
            "HADDR": self.haddr,
            "HWRITE": self.hwrite,
            "HSIZE": self.hsize,
            "HBURST": self.hburst,
            "HREADY": self.hready,
            "HRESP": self.hresp,
            "HMASTER": self.hmaster,
            "HMASTER_D": self.hmaster_d,
            "HSEL": list(self.hsels),
            "HGRANT": list(self.hgrants),
            "split_mask": self.split_mask,
        }

    def to_state(self):
        """Full slot dump for checkpointing (a superset of
        :meth:`snapshot`: includes ``dactive``, which the liveness
        rules consult)."""
        state = {slot: getattr(self, slot) for slot in self.__slots__}
        state["hsels"] = list(self.hsels)
        state["hgrants"] = list(self.hgrants)
        return state

    @classmethod
    def from_state(cls, state):
        """Rebuild a view from :meth:`to_state` output without a bus."""
        view = cls.__new__(cls)
        for slot in cls.__slots__:
            value = state[slot]
            if slot in ("hsels", "hgrants"):
                value = tuple(value)
            setattr(view, slot, value)
        return view


class RowBlock:
    """A block of consecutive recorded cycles, as int64 columns.

    The batched rules read the current row's columns by field name
    (``block.htrans`` …), the previous row's as ``block.p_<field>``,
    and the HSEL / HGRANT vectors as 2-D ``hsels`` / ``hgrants``.
    ``has_prev`` is false only for a first cycle with no predecessor;
    ``p_ready`` marks cycles whose predecessor completed with
    ``HREADY`` high (its address phase was accepted).  Messages and
    snapshots come from :attr:`rows`, the recorded Python values.

    Raises ``OverflowError`` when a value does not fit int64.
    """

    def __init__(self, rows, prev, first_cycle, n_sels):
        self.rows = rows
        self.first_cycle = first_cycle
        self.n_sels = n_sels
        self.count = count = len(rows)
        width = len(rows[0])
        arr = np.fromiter(chain.from_iterable(rows), dtype=np.int64,
                          count=count * width).reshape(count, width)
        cols = arr.T
        head = arr[:, :len(ROW_FIELDS)]
        prev_head = np.empty_like(head)
        prev_head[1:] = head[:-1]
        if prev is not None:
            prev_head[0] = [getattr(prev, field) for field in ROW_FIELDS]
        else:
            prev_head[0] = 0
        prev_cols = prev_head.T
        for index, field in enumerate(ROW_FIELDS):
            setattr(self, field, cols[index])
            setattr(self, "p_" + field, prev_cols[index])
        start = len(ROW_FIELDS)
        self.hsels = arr[:, start:start + n_sels]
        self.hgrants = arr[:, start + n_sels:-2]
        self.split_mask = cols[-2]
        self.dactive = cols[-1]
        self.has_prev = np.ones(count, dtype=bool)
        self.has_prev[0] = prev is not None
        self.p_ready = self.has_prev & (self.p_hready != 0)
        self._views = {-1: prev}

    def view(self, index):
        """The :class:`CycleView` of row *index* (``-1``: the cycle
        before the block, or ``None``)."""
        view = self._views.get(index)
        if view is None and index >= 0:
            view = self._views[index] = CycleView.from_row(
                self.rows[index], self.first_cycle + index, self.n_sels)
        return view


class RuleInfo:
    """Catalogue entry: identity and provenance of one rule id."""

    __slots__ = ("rule_id", "spec", "mandatory", "summary")

    def __init__(self, rule_id, spec, mandatory, summary):
        self.rule_id = rule_id
        self.spec = spec
        self.mandatory = mandatory
        self.summary = summary

    def __repr__(self):
        tier = "mandatory" if self.mandatory else "advisory"
        return "RuleInfo(%s, %s, %s)" % (self.rule_id, self.spec, tier)


#: rule id -> :class:`RuleInfo`, the authoritative catalogue.
CATALOGUE = {info.rule_id: info for info in (
    RuleInfo("hgrant-one-hot", "§3.11.3", True,
             "exactly one master granted per cycle"),
    RuleInfo("hsel-one-hot", "§3.10", True,
             "exactly one slave (incl. default) selected per cycle"),
    RuleInfo("alignment", "§3.4", True,
             "beat address aligned to the transfer size"),
    RuleInfo("stall-stability", "§3.9.1", True,
             "address phase held while HREADY is low"),
    RuleInfo("two-cycle-response", "§3.9.3", True,
             "non-OKAY responses take two cycles, the first with "
             "HREADY low"),
    RuleInfo("idle-okay", "§3.9.1", True,
             "IDLE transfers receive a zero-wait OKAY response"),
    RuleInfo("grant-handover", "§3.11.1", True,
             "a newly granted master starts IDLE or NONSEQ"),
    RuleInfo("seq-without-nonseq", "§3.5", True,
             "a burst opens with a NONSEQ transfer"),
    RuleInfo("burst-address", "§3.5.4", True,
             "SEQ beats carry the architected next address"),
    RuleInfo("burst-control", "§3.5.1", True,
             "control signals unchanged within a burst"),
    RuleInfo("busy-outside-burst", "§3.4", True,
             "BUSY appears only inside an open burst"),
    RuleInfo("wait-limit", "§3.9.1", False,
             "slaves insert a bounded number of wait states"),
    RuleInfo("retry-livelock", "§3.9.3", False,
             "bounded consecutive RETRY completions per master"),
    RuleInfo("split-release", "§3.12", False,
             "a split-masked master is eventually released"),
)}


def rule_info(rule_id):
    """Return the :class:`RuleInfo` for *rule_id* (KeyError if unknown)."""
    return CATALOGUE[rule_id]


def is_mandatory(rule_id):
    """True when *rule_id* is a spec requirement (not advisory).

    Unknown ids count as mandatory so user-registered custom rules
    fail safe.
    """
    info = CATALOGUE.get(rule_id)
    return True if info is None else info.mandatory


class Rule:
    """Base class of a per-cycle assertion monitor.

    ``emits`` names every rule id the monitor can flag (one monitor may
    guard several related catalogue entries, e.g. burst sequencing).
    """

    emits = ()

    def reset(self):
        """Discard accumulated state (new run on the same engine)."""

    def state_dict(self):
        """Checkpointable private state (empty for stateless rules)."""
        return {}

    def load_state_dict(self, state):
        """Restore :meth:`state_dict` output (no-op when stateless)."""

    def check(self, prev, view):  # pragma: no cover - interface
        """Yield ``(rule_id, message)`` for every violation this cycle.

        *prev* is the previous :class:`CycleView` (``None`` on the
        first checked cycle); *view* is the current one.
        """
        raise NotImplementedError

    def batch_ready(self):
        """True when the private state lets the batched form continue
        (a diverted cycle may leave values it cannot replay)."""
        return True


class StatelessRule(Rule):
    """A rule whose verdict depends only on the current and previous
    cycle.  Its batched form is :meth:`mask`, a NumPy superset of the
    violating rows of a :class:`RowBlock`; :meth:`check` confirms each
    candidate and supplies the messages."""

    def mask(self, block):  # pragma: no cover - interface
        """Boolean array: the rows :meth:`check` may flag."""
        raise NotImplementedError

    def batch(self, block):
        """``(row, rule_id, message)`` for every violation in *block*,
        in order."""
        hits = []
        for index in np.flatnonzero(self.mask(block)).tolist():
            for rule_id, message in self.check(block.view(index - 1),
                                               block.view(index)) or ():
                hits.append((index, rule_id, message))
        return hits


class SingleGrantRule(StatelessRule):
    """HGRANT one-hot across masters (§3.11.3): the single-grant
    invariant — the bus has exactly one owner every cycle."""

    emits = ("hgrant-one-hot",)

    def check(self, prev, view):
        if sum(1 for grant in view.hgrants if grant) != 1:
            yield ("hgrant-one-hot",
                   "HGRANT vector %r is not one-hot" % (view.hgrants,))

    def mask(self, block):
        return np.count_nonzero(block.hgrants, axis=1) != 1


class SingleSelectRule(StatelessRule):
    """HSEL one-hot across slaves including the default slave (§3.10)."""

    emits = ("hsel-one-hot",)

    def check(self, prev, view):
        if sum(1 for sel in view.hsels if sel) != 1:
            yield ("hsel-one-hot",
                   "HSEL vector %r is not one-hot" % (view.hsels,))

    def mask(self, block):
        return np.count_nonzero(block.hsels, axis=1) != 1


class AlignmentRule(StatelessRule):
    """Active transfers carry size-aligned addresses (§3.4)."""

    emits = ("alignment",)

    def check(self, prev, view):
        if is_active(HTRANS(view.htrans)) and \
                not aligned(view.haddr, view.hsize):
            yield ("alignment",
                   "address %#x unaligned for HSIZE=%d"
                   % (view.haddr, view.hsize))

    def mask(self, block):
        htrans = block.htrans
        return (((htrans == int(HTRANS.NONSEQ))
                 | (htrans == int(HTRANS.SEQ)))
                & ((block.haddr & ((1 << block.hsize) - 1)) != 0))


class TwoCycleResponseRule(StatelessRule):
    """Non-OKAY responses follow the two-cycle protocol (§3.9.3): the
    final (``HREADY=1``) response cycle must be preceded by at least
    one ``HREADY=0`` cycle carrying the same response."""

    emits = ("two-cycle-response",)

    def check(self, prev, view):
        if view.hresp == int(HRESP.OKAY) or not view.hready:
            return
        if prev is None or prev.hready or prev.hresp != view.hresp:
            yield ("two-cycle-response",
                   "final %s cycle not preceded by a wait cycle with "
                   "the same response" % HRESP(view.hresp).name)

    def mask(self, block):
        return ((block.hresp != int(HRESP.OKAY)) & (block.hready != 0)
                & (~block.has_prev | (block.p_hready != 0)
                   | (block.p_hresp != block.hresp)))


class StallStabilityRule(StatelessRule):
    """Address/control stable while the bus is stalled (§3.9.1), except
    for the spec-sanctioned cancel to IDLE during a non-OKAY response
    cycle (§3.9.3)."""

    emits = ("stall-stability",)

    def check(self, prev, view):
        if prev is None or prev.hready:
            return
        cancelled = (view.htrans == int(HTRANS.IDLE)
                     and prev.hresp != int(HRESP.OKAY))
        if cancelled:
            return
        held = (view.htrans == prev.htrans and view.haddr == prev.haddr
                and view.hwrite == prev.hwrite
                and view.hsize == prev.hsize
                and view.hburst == prev.hburst)
        if not held:
            yield ("stall-stability",
                   "address phase changed while HREADY low "
                   "(HTRANS %d->%d, HADDR %#x->%#x)"
                   % (prev.htrans, view.htrans, prev.haddr, view.haddr))

    def mask(self, block):
        cancelled = ((block.htrans == int(HTRANS.IDLE))
                     & (block.p_hresp != int(HRESP.OKAY)))
        changed = ((block.htrans != block.p_htrans)
                   | (block.haddr != block.p_haddr)
                   | (block.hwrite != block.p_hwrite)
                   | (block.hsize != block.p_hsize)
                   | (block.hburst != block.p_hburst))
        return (block.has_prev & (block.p_hready == 0) & ~cancelled
                & changed)


class IdleResponseRule(StatelessRule):
    """An accepted IDLE transfer must receive a zero-wait OKAY response
    in its data phase (§3.9.1)."""

    emits = ("idle-okay",)

    def check(self, prev, view):
        if prev is None or not prev.hready:
            return
        if prev.htrans != int(HTRANS.IDLE):
            return
        if not view.hready or view.hresp != int(HRESP.OKAY):
            yield ("idle-okay",
                   "IDLE transfer answered HREADY=%d/%s instead of a "
                   "zero-wait OKAY"
                   % (view.hready, HRESP(view.hresp).name))

    def mask(self, block):
        return (block.p_ready & (block.p_htrans == int(HTRANS.IDLE))
                & ((block.hready == 0)
                   | (block.hresp != int(HRESP.OKAY))))


class GrantHandoverRule(StatelessRule):
    """HTRANS legality per grant state (§3.11.1): the first address
    phase a master presents after taking bus ownership must be IDLE or
    NONSEQ — a burst never continues across an ownership change."""

    emits = ("grant-handover",)

    def check(self, prev, view):
        if prev is None or not prev.hready:
            return
        if view.hmaster == prev.hmaster:
            return
        if view.htrans in (int(HTRANS.SEQ), int(HTRANS.BUSY)):
            yield ("grant-handover",
                   "new owner M%d drove %s in its first address phase"
                   % (view.hmaster, HTRANS(view.htrans).name))

    def mask(self, block):
        htrans = block.htrans
        return (block.p_ready & (block.hmaster != block.p_hmaster)
                & ((htrans == int(HTRANS.SEQ))
                   | (htrans == int(HTRANS.BUSY))))


def _burst_address_message(haddr, expected):
    return "SEQ address %#x, expected %#x" % (haddr, expected)


def _burst_control_message(opened, ctrl):
    return "control changed mid-burst: %r -> %r" % (opened, ctrl)


class BurstSequenceRule(Rule):
    """Burst structure across accepted address phases (§3.5): NONSEQ
    opens a burst; SEQ beats carry the architected next address with
    unchanged control; BUSY only appears inside an open burst."""

    emits = ("seq-without-nonseq", "burst-address", "burst-control",
             "busy-outside-burst")

    _SEQ_MESSAGE = "SEQ transfer with no open burst"
    _BUSY_MESSAGE = "BUSY transfer with no open burst"

    def __init__(self):
        self.reset()

    def reset(self):
        self._in_burst = False
        self._burst_addr = None
        self._burst_ctrl = None

    def check(self, prev, view):
        if prev is None or not prev.hready:
            return  # the previous address phase was not accepted
        htrans = HTRANS(view.htrans)
        if htrans == HTRANS.NONSEQ:
            self._in_burst = True
            self._burst_addr = view.haddr
            self._burst_ctrl = (view.hwrite, view.hsize, view.hburst,
                                view.hmaster)
        elif htrans == HTRANS.SEQ:
            if not self._in_burst:
                yield ("seq-without-nonseq", self._SEQ_MESSAGE)
                return
            expected = next_burst_address(
                self._burst_addr, HBURST(self._burst_ctrl[2]),
                self._burst_ctrl[1],
            )
            if view.haddr != expected:
                yield ("burst-address",
                       _burst_address_message(view.haddr, expected))
            ctrl = (view.hwrite, view.hsize, view.hburst, view.hmaster)
            if ctrl != self._burst_ctrl:
                yield ("burst-control",
                       _burst_control_message(self._burst_ctrl, ctrl))
            self._burst_addr = view.haddr
        elif htrans == HTRANS.BUSY:
            if not self._in_burst:
                yield ("busy-outside-burst", self._BUSY_MESSAGE)
        else:  # IDLE
            self._in_burst = False

    def batch(self, block):
        """The accepted address phases of *block*, replayed in order."""
        hits = []
        rows = block.rows
        in_burst = self._in_burst
        addr = self._burst_addr
        opened = self._burst_ctrl
        for index in np.flatnonzero(block.p_ready).tolist():
            row = rows[index]
            htrans = row[_HTRANS]
            if htrans == 2:                               # NONSEQ
                in_burst = True
                addr = row[_HADDR]
                opened = (row[_HWRITE], row[_HSIZE], row[_HBURST],
                          row[_HMASTER])
            elif htrans == 3:                             # SEQ
                if not in_burst:
                    hits.append((index, "seq-without-nonseq",
                                 self._SEQ_MESSAGE))
                    continue
                haddr = row[_HADDR]
                expected = next_burst_address(addr, HBURST(opened[2]),
                                              opened[1])
                if haddr != expected:
                    hits.append((index, "burst-address",
                                 _burst_address_message(haddr,
                                                        expected)))
                ctrl = (row[_HWRITE], row[_HSIZE], row[_HBURST],
                        row[_HMASTER])
                if ctrl != opened:
                    hits.append((index, "burst-control",
                                 _burst_control_message(opened, ctrl)))
                addr = haddr
            elif htrans == 1:                             # BUSY
                if not in_burst:
                    hits.append((index, "busy-outside-burst",
                                 self._BUSY_MESSAGE))
            else:                                         # IDLE
                in_burst = False
        self._in_burst = in_burst
        self._burst_addr = addr
        self._burst_ctrl = opened
        return hits

    def batch_ready(self):
        # An open burst's HSIZE/HBURST feed next_burst_address, which
        # raises on codes outside the 3-bit range.
        if not self._in_burst:
            return True
        _, hsize, hburst, _ = self._burst_ctrl
        return 0 <= hsize <= 7 and 0 <= hburst <= 7

    def state_dict(self):
        return {
            "in_burst": self._in_burst,
            "burst_addr": self._burst_addr,
            "burst_ctrl": list(self._burst_ctrl)
            if self._burst_ctrl is not None else None,
        }

    def load_state_dict(self, state):
        self._in_burst = state["in_burst"]
        self._burst_addr = state["burst_addr"]
        ctrl = state["burst_ctrl"]
        self._burst_ctrl = tuple(ctrl) if ctrl is not None else None


class WaitLimitRule(Rule):
    """Bounded wait-state runs (§3.9.1 recommends at most 16).

    Flags once per stall episode, when the run of consecutive
    ``HREADY=0`` cycles first exceeds *limit*.
    """

    emits = ("wait-limit",)

    def __init__(self, limit=16):
        self.limit = int(limit)
        self.reset()

    def reset(self):
        self._streak = 0

    def _message(self, owner):
        return ("HREADY low for more than %d consecutive cycles "
                "(data-phase owner M%d)" % (self.limit, owner))

    def check(self, prev, view):
        if view.hready:
            self._streak = 0
            return
        self._streak += 1
        if self._streak == self.limit + 1:
            yield ("wait-limit", self._message(view.hmaster_d))

    def batch(self, block):
        """The stalled cycles of *block*, replayed in order."""
        hits = []
        rows = block.rows
        streak = self._streak
        flag_at = self.limit + 1
        last = -1
        for index in np.flatnonzero(block.hready == 0).tolist():
            if index != last + 1:
                streak = 0          # a ready cycle ended the episode
            last = index
            streak += 1
            if streak == flag_at:
                hits.append((index, "wait-limit",
                             self._message(rows[index][_HMASTER_D])))
        if last != block.count - 1:
            streak = 0
        self._streak = streak
        return hits

    def state_dict(self):
        return {"streak": self._streak}

    def load_state_dict(self, state):
        self._streak = state["streak"]


class RetryLivelockRule(Rule):
    """Bounded consecutive RETRY completions per master (§3.9.3 makes
    unbounded retrying legal — which is exactly why a livelock needs a
    monitor).  Flags once per streak when it first exceeds *limit*.
    """

    emits = ("retry-livelock",)

    def __init__(self, limit=4):
        self.limit = int(limit)
        self.reset()

    def reset(self):
        self._counts = {}

    def _message(self, owner):
        return ("master M%d saw more than %d consecutive RETRY "
                "completions" % (owner, self.limit))

    def check(self, prev, view):
        if not view.hready or not view.dactive:
            # No data phase completed this cycle; the streak holds.
            return
        owner = view.hmaster_d
        if view.hresp == int(HRESP.RETRY):
            count = self._counts.get(owner, 0) + 1
            self._counts[owner] = count
            if count == self.limit + 1:
                yield ("retry-livelock", self._message(owner))
        else:
            self._counts[owner] = 0

    def batch(self, block):
        """The completed data phases of *block*, replayed in order."""
        hits = []
        rows = block.rows
        counts = self._counts
        flag_at = self.limit + 1
        retry = int(HRESP.RETRY)
        done = (block.hready != 0) & (block.dactive != 0)
        for index in np.flatnonzero(done).tolist():
            row = rows[index]
            owner = row[_HMASTER_D]
            if row[_HRESP] == retry:
                count = counts.get(owner, 0) + 1
                counts[owner] = count
                if count == flag_at:
                    hits.append((index, "retry-livelock",
                                 self._message(owner)))
            else:
                counts[owner] = 0
        return hits

    def state_dict(self):
        return {"counts": {str(owner): count for owner, count
                           in sorted(self._counts.items())}}

    def load_state_dict(self, state):
        self._counts = {int(owner): count for owner, count
                        in state["counts"].items()}


class SplitReleaseRule(Rule):
    """A split-masked master must eventually be released (§3.12).

    Flags once per parked episode, when a master has sat in the
    arbiter's split mask for more than *limit* cycles.
    """

    emits = ("split-release",)

    def __init__(self, limit=32):
        self.limit = int(limit)
        self.reset()

    def reset(self):
        self._ages = {}

    def check(self, prev, view):
        return self._step(view.split_mask)

    def _step(self, mask):
        ages = self._ages
        for index in list(ages):
            if not (mask >> index) & 1:
                del ages[index]
        bit = 0
        while mask >> bit:
            if (mask >> bit) & 1:
                age = ages.get(bit, 0) + 1
                ages[bit] = age
                if age == self.limit + 1:
                    yield ("split-release",
                           "master M%d split-masked for more than %d "
                           "cycles" % (bit, self.limit))
            bit += 1

    def batch(self, block):
        """The cycles of *block* with a non-empty split mask, replayed
        in order (an empty mask releases every master)."""
        hits = []
        rows = block.rows
        last = -1
        for index in np.flatnonzero(block.split_mask != 0).tolist():
            if index != last + 1:
                self._ages.clear()
            last = index
            for rule_id, message in self._step(rows[index][-2]):
                hits.append((index, rule_id, message))
        if last != block.count - 1:
            self._ages.clear()
        return hits

    def state_dict(self):
        return {"ages": {str(bit): age for bit, age
                         in sorted(self._ages.items())}}

    def load_state_dict(self, state):
        self._ages = {int(bit): age for bit, age
                      in state["ages"].items()}


#: Rule classes whose ``batch`` form the compliance engine may use
#: instead of calling ``check`` every cycle.  A subclass is not listed:
#: it may override ``check``.
BATCHED_RULES = (
    SingleGrantRule, SingleSelectRule, AlignmentRule,
    TwoCycleResponseRule, StallStabilityRule, IdleResponseRule,
    GrantHandoverRule, BurstSequenceRule, WaitLimitRule,
    RetryLivelockRule, SplitReleaseRule,
)


def mandatory_rules():
    """Fresh instances of every mandatory (spec-requirement) rule."""
    return [
        SingleGrantRule(),
        SingleSelectRule(),
        AlignmentRule(),
        TwoCycleResponseRule(),
        StallStabilityRule(),
        IdleResponseRule(),
        GrantHandoverRule(),
        BurstSequenceRule(),
    ]


def advisory_rules(wait_limit=16, retry_limit=4, split_limit=32):
    """Fresh instances of the advisory (liveness-bound) rules.

    Any limit passed as ``None`` disables that rule.
    """
    rules = []
    if wait_limit is not None:
        rules.append(WaitLimitRule(wait_limit))
    if retry_limit is not None:
        rules.append(RetryLivelockRule(retry_limit))
    if split_limit is not None:
        rules.append(SplitReleaseRule(split_limit))
    return rules
