"""Runtime AHB protocol-compliance engine.

The package splits into:

* :mod:`repro.protocol.rules` — the rule catalogue: per-cycle assertion
  monitors over committed bus signals, each tagged with its AMBA spec
  rev 2.0 section and a mandatory/advisory tier.
* :mod:`repro.protocol.engine` — :class:`ComplianceEngine`, a kernel
  process that records the bus every clock cycle, evaluates the rules
  over the recorded cycles in batches (or cycle by cycle when a run
  must stop at the violating cycle), and turns findings into
  structured :class:`ProtocolViolation` records with configurable
  severity (record / warn / raise).

The legacy :class:`repro.amba.AhbProtocolChecker` is a thin facade over
this engine.
"""

from .engine import (
    SEVERITIES,
    ComplianceEngine,
    ProtocolComplianceError,
    ProtocolViolation,
)
from .rules import (
    CATALOGUE,
    CycleView,
    Rule,
    RuleInfo,
    advisory_rules,
    is_mandatory,
    mandatory_rules,
    rule_info,
)

__all__ = [
    "CATALOGUE",
    "ComplianceEngine",
    "CycleView",
    "ProtocolComplianceError",
    "ProtocolViolation",
    "Rule",
    "RuleInfo",
    "SEVERITIES",
    "advisory_rules",
    "is_mandatory",
    "mandatory_rules",
    "rule_info",
]
