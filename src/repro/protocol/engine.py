"""The runtime AHB compliance engine.

:class:`ComplianceEngine` registers a kernel process on the bus clock
that records one row of committed bus values every cycle (see
:func:`~repro.protocol.rules.row_signals`) and evaluates the rule
catalogue of :mod:`repro.protocol.rules` over the recorded rows in
batches: the stateless rules as NumPy masks over the current and
previous rows, the stateful ones in an in-order loop.  The kernel
flushes the rows whenever a ``Simulator.run`` call returns or raises
(and the recorder every :data:`FLUSH_ROWS` rows), so violations,
counts and checkpoints are current whenever ``run`` has returned.
Every violation becomes a structured :class:`ProtocolViolation`
carrying the kernel time, the cycle index, the rule id with its AMBA
spec reference, and a full signal snapshot — enough to diff two runs
or feed the replay shrinker without re-simulating.

Severity is configurable per engine and per rule:

``record``
    Collect the violation silently (campaigns, batch analysis).
    Violations become visible when ``run`` returns.
``warn``
    Collect, and print the first violation of each rule to stderr —
    when the rows are evaluated, i.e. when ``run`` returns.
``raise``
    Raise :class:`ProtocolComplianceError` at the violating cycle —
    the simulation dies exactly where the protocol does.

Each rule's ``check(prev, view)`` stays the scalar reference.  The
recorder hands a cycle straight to it, in the cycle's own process,
while any rule's effective severity is ``raise``, while the rule list
holds a rule without a batched form (a custom ``rules=`` entry), and
for a cycle whose codes (``HTRANS``, ``HRESP``, ``HSIZE``, ``HBURST``,
a negative split mask) would make a per-cycle evaluation raise.  A
block holding a value beyond int64 is evaluated by the same reference
when flushed.  Either way the violations, counts and ``state_dict()``
are those of a per-cycle evaluation.
"""

from __future__ import annotations

import sys
from types import MappingProxyType

from ..kernel import Module
from ..kernel.recorder import compile_front_end
from .rules import (
    BATCHED_RULES,
    ROW_FIELDS,
    CycleView,
    RowBlock,
    advisory_rules,
    is_mandatory,
    mandatory_rules,
    row_signals,
    rule_info,
)

#: Accepted severity levels, least to most drastic.
SEVERITIES = ("record", "warn", "raise")

#: Rows buffered before an automatic flush (bounds memory on long
#: runs; flush points are invisible in the results).
FLUSH_ROWS = 4096


class ProtocolComplianceError(AssertionError):
    """Raised in ``raise`` severity at the first violating cycle.

    Subclasses :class:`AssertionError` so existing
    ``assert_protocol_clean``-style callers and test harnesses catch
    it without change.
    """

    def __init__(self, violation):
        super().__init__(str(violation))
        self.violation = violation


class ProtocolViolation:
    """One structured rule violation.

    Attributes
    ----------
    time:
        Kernel time (ps) of the violating cycle.
    cycle:
        Index of the violating cycle, counted from the engine's first
        observed clock edge — the coordinate replay traces compare.
    rule:
        Rule id from the catalogue (e.g. ``"stall-stability"``).
    spec:
        AMBA rev 2.0 section reference, or ``None`` for custom rules.
    message:
        Human-readable description.
    snapshot:
        Committed signal values of the violating cycle (dict).
    """

    __slots__ = ("time", "cycle", "rule", "spec", "message", "snapshot")

    def __init__(self, time, cycle, rule, message, spec=None,
                 snapshot=None):
        self.time = time
        self.cycle = cycle
        self.rule = rule
        self.spec = spec
        self.message = message
        self.snapshot = snapshot or {}

    @property
    def mandatory(self):
        """True when the violated rule is a spec requirement."""
        return is_mandatory(self.rule)

    def to_dict(self):
        """JSON-friendly representation (used by replay traces)."""
        return {
            "time_ps": self.time,
            "cycle": self.cycle,
            "rule": self.rule,
            "spec": self.spec,
            "mandatory": self.mandatory,
            "message": self.message,
            "snapshot": dict(self.snapshot),
        }

    def __repr__(self):
        return "ProtocolViolation(t=%d, %s: %s)" % (
            self.time, self.rule, self.message,
        )


class ComplianceEngine(Module):
    """Runtime protocol-compliance monitor for one AHB bus.

    Parameters
    ----------
    bus:
        The :class:`~repro.amba.bus.AhbBus` to watch.
    severity:
        Global severity: ``"record"``, ``"warn"`` or ``"raise"``.
    severity_overrides:
        Optional ``rule id -> severity`` mapping taking precedence over
        the global severity for individual rules.
    advisory:
        Include the advisory liveness rules (wait-limit,
        retry-livelock, split-release).  The legacy
        :class:`~repro.amba.AhbProtocolChecker` facade disables them to
        keep its historical spec-requirements-only behaviour.
    wait_limit, retry_limit, split_limit:
        Thresholds of the advisory rules (``None`` disables one rule).
        Pick them *below* the watchdog's recovery timeouts so a
        campaign records which liveness bound a fault broke before the
        watchdog repairs it.
    rules:
        Explicit rule instances to use instead of the built-in
        catalogue (the two sets can be combined by passing
        ``mandatory_rules() + [MyRule()]``); fixed at construction.
        A rule the catalogue does not define (such as ``MyRule``) has
        no batched form, so the engine then evaluates every cycle in
        its own process.
    """

    def __init__(self, sim, name, bus, severity="record",
                 severity_overrides=None, advisory=True, wait_limit=16,
                 retry_limit=4, split_limit=32, rules=None, parent=None):
        super().__init__(sim, name, parent=parent)
        self.bus = bus
        if rules is None:
            rules = mandatory_rules()
            if advisory:
                rules += advisory_rules(wait_limit=wait_limit,
                                        retry_limit=retry_limit,
                                        split_limit=split_limit)
        self.rules = list(rules)
        self._batched = all(type(rule) in BATCHED_RULES
                            for rule in self.rules)

        #: Recorded :class:`ProtocolViolation` objects, in order.
        self.violations = []
        #: rule id -> violation count.
        self.rule_counts = {}
        self.cycles_checked = 0
        self._prev = None
        self._warned = set()
        self._rows = []
        self._n_sels = len(bus.slave_ports) + 1
        self._severity = "record"
        self._severity_overrides = {}
        self.severity_overrides = severity_overrides or {}
        self.severity = severity
        process = self.method(self._recorder(), [bus.clk.posedge],
                              name="check", initialize=False)
        sim.at_run_end(self.flush, process)

    # -- severity --------------------------------------------------------

    @property
    def severity(self):
        """Global severity; assignable (between runs), effective from
        the next recorded cycle."""
        return self._severity

    @severity.setter
    def severity(self, level):
        if level not in SEVERITIES:
            raise ValueError("unknown severity %r (one of %s)"
                             % (level, ", ".join(SEVERITIES)))
        self.flush()
        self._severity = level
        self._refresh_divert()

    @property
    def severity_overrides(self):
        """Read-only ``rule id -> severity`` overrides; assign a new
        mapping to change them."""
        return MappingProxyType(self._severity_overrides)

    @severity_overrides.setter
    def severity_overrides(self, overrides):
        overrides = dict(overrides)
        for rule_id, level in overrides.items():
            if level not in SEVERITIES:
                raise ValueError("unknown severity %r for rule %r"
                                 % (level, rule_id))
        self.flush()
        self._severity_overrides = overrides
        self._refresh_divert()

    def _refresh_divert(self):
        """Decide whether recorded cycles go straight to the scalar
        reference: always under ``raise`` or with a rule that has no
        batched form; otherwise while a rule's state is one its batched
        form cannot continue from."""
        self._always_divert = (
            not self._batched or self._severity == "raise"
            or "raise" in self._severity_overrides.values())
        self._check_divert()

    def _check_divert(self):
        self._divert = self._always_divert or not all(
            rule.batch_ready() for rule in self.rules)

    # -- reporting -----------------------------------------------------

    @property
    def ok(self):
        """True when no violation (of any tier) has been recorded."""
        return not self.violations

    @property
    def mandatory_ok(self):
        """True when no *mandatory* (spec-requirement) rule fired —
        the bus traffic, including any watchdog recovery, was legal."""
        return not any(v.mandatory for v in self.violations)

    @property
    def first_violation(self):
        """The earliest recorded violation, or ``None``."""
        return self.violations[0] if self.violations else None

    def rules_tripped(self):
        """Rule ids that fired, in first-occurrence order."""
        seen = []
        for violation in self.violations:
            if violation.rule not in seen:
                seen.append(violation.rule)
        return tuple(seen)

    def raise_if_violations(self, limit=5):
        """Raise :class:`ProtocolComplianceError` summarising the first
        *limit* violations when any were recorded (post-run gate)."""
        if not self.violations:
            return
        first = self.violations[0]
        error = ProtocolComplianceError(first)
        error.args = (
            "protocol violations: %r" % (self.violations[:limit],),
        )
        raise error

    # -- recording -------------------------------------------------------

    def _recorder(self):
        """The clock process: one row per cycle, generated so every
        signal is a free variable bound once."""
        signals = row_signals(self.bus)
        namespace = {"_sim": self.sim, "_eng": self}
        values = ["_sim.now"]
        for index, signal in enumerate(signals):
            namespace["_s%d" % index] = signal
            values.append("_s%d._value" % index)
        # the codes a per-cycle evaluation decodes (HTRANS, HSIZE,
        # HBURST, HRESP) and the split mask it shifts
        codes = {ROW_FIELDS.index(field): local for field, local in (
            ("htrans", "_vt"), ("hsize", "_vs"), ("hburst", "_vb"),
            ("hresp", "_vr"))}
        codes[-2] = "_vm"
        prelude = ""
        for column, local in codes.items():
            prelude += "    %s = %s\n" % (local, values[column])
            values[column] = local
        prelude += "    _row = (%s)\n" % ", ".join(values)
        divert = ("_eng._divert or (_vt | _vr) >> 2 or (_vs | _vb) >> 3"
                  " or _vm < 0")
        return compile_front_end(
            prelude, divert, self._rows, self.flush, self._replay_rows,
            FLUSH_ROWS, namespace,
            filename="<repro.protocol.engine-recorder>")

    @property
    def pending(self):
        """Number of recorded, not yet evaluated cycles."""
        return len(self._rows)

    # -- evaluation ------------------------------------------------------

    def flush(self):
        """Evaluate every recorded row, in order."""
        rows = self._rows
        if not rows:
            return
        try:
            try:
                block = RowBlock(rows, self._prev, self.cycles_checked,
                                 self._n_sels)
            except OverflowError:
                # a value beyond int64: nothing was evaluated yet
                self._replay_rows(rows)
            else:
                self._evaluate(block)
        finally:
            rows.clear()

    def _evaluate(self, block):
        """The batched evaluation: every rule's ``batch`` form, hits
        merged into per-cycle order (cycle, rule position, emission)."""
        hits = []
        for position, rule in enumerate(self.rules):
            for order, (index, rule_id, message) in enumerate(
                    rule.batch(block)):
                hits.append((index, position, order, rule_id, message))
        hits.sort()
        for index, _, _, rule_id, message in hits:
            self._flag(rule_id, message, block.view(index))
        self.cycles_checked += block.count
        self._prev = block.view(block.count - 1)

    def _replay_rows(self, rows):
        """The scalar reference: evaluate *rows* one cycle at a time,
        calling every rule's ``check`` in rule order — so ``raise``
        stops at the violating cycle with the per-cycle torn state."""
        try:
            for row in rows:
                view = CycleView.from_row(row, self.cycles_checked,
                                          self._n_sels)
                self.cycles_checked += 1
                for rule in self.rules:
                    for rule_id, message in rule.check(self._prev,
                                                       view) or ():
                        self._flag(rule_id, message, view)
                self._prev = view
        finally:
            self._check_divert()

    def _severity_for(self, rule_id):
        return self._severity_overrides.get(rule_id, self._severity)

    def _flag(self, rule_id, message, view):
        try:
            spec = rule_info(rule_id).spec
        except KeyError:
            spec = None
        violation = ProtocolViolation(
            view.time, view.cycle, rule_id, message, spec=spec,
            snapshot=view.snapshot(),
        )
        self.violations.append(violation)
        self.rule_counts[rule_id] = self.rule_counts.get(rule_id, 0) + 1
        severity = self._severity_for(rule_id)
        if severity == "raise":
            raise ProtocolComplianceError(violation)
        if severity == "warn" and rule_id not in self._warned:
            self._warned.add(rule_id)
            print("[%s] %r" % (self.name, violation), file=sys.stderr)

    # -- checkpoint support ---------------------------------------------

    def state_dict(self):
        """Engine + per-rule state.  Rule states are positional: the
        restored engine must have been built with the same rule list.
        Taken between runs, when no recorded row is pending."""
        return {
            "violations": [v.to_dict() for v in self.violations],
            "rule_counts": dict(sorted(self.rule_counts.items())),
            "cycles_checked": self.cycles_checked,
            "prev": self._prev.to_state() if self._prev is not None
            else None,
            "warned": sorted(self._warned),
            "rules": [rule.state_dict() for rule in self.rules],
        }

    def load_state_dict(self, state):
        self.violations = [
            ProtocolViolation(
                record["time_ps"], record["cycle"], record["rule"],
                record["message"], spec=record["spec"],
                snapshot=record["snapshot"],
            )
            for record in state["violations"]
        ]
        self.rule_counts = dict(state["rule_counts"])
        self.cycles_checked = state["cycles_checked"]
        prev = state["prev"]
        self._prev = CycleView.from_state(prev) if prev is not None \
            else None
        self._warned = set(state["warned"])
        rule_states = state["rules"]
        if len(rule_states) != len(self.rules):
            raise ValueError(
                "checkpoint has %d rule states, engine has %d rules"
                % (len(rule_states), len(self.rules)))
        for rule, rule_state in zip(self.rules, rule_states):
            rule.load_state_dict(rule_state)
        self._rows.clear()
        self._refresh_divert()

    def __repr__(self):
        return "ComplianceEngine(%r, rules=%d, violations=%d)" % (
            self.name, len(self.rules), len(self.violations),
        )
