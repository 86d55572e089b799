"""Fault injection and resilience evaluation.

Three layers:

* signal-level injectors (re-exported from :mod:`repro.kernel.faults`)
  corrupting named bus wires — stuck-at, bit flip, glitch;
* behavioural fault modes (:mod:`repro.faults.modes`) — hung slave,
  retry livelock, unreleased SPLIT, babbling master;
* the campaign runner (:mod:`repro.faults.campaign`) measuring how the
  resilience stack (bounded-retry masters + bus watchdog) contains
  each fault and what it costs in energy.
"""

from ..kernel.faults import (
    BitFlipFault,
    FaultInjector,
    GlitchFault,
    SignalFault,
    StuckAtFault,
)
from .campaign import (
    CONTAINED_OUTCOMES,
    FAILURE_OUTCOMES,
    FAULT_MODES,
    CampaignResult,
    CampaignRun,
    FaultRunResult,
    derive_run_seed,
    enumerate_campaign,
    fault_slave_factory,
    run_fault_campaign,
)
from .modes import (
    AlwaysRetrySlave,
    BabblingMaster,
    HangSlave,
    UnreleasedSplitSlave,
)

__all__ = [
    "AlwaysRetrySlave",
    "BabblingMaster",
    "BitFlipFault",
    "CONTAINED_OUTCOMES",
    "CampaignResult",
    "CampaignRun",
    "FAILURE_OUTCOMES",
    "FAULT_MODES",
    "FaultInjector",
    "FaultRunResult",
    "GlitchFault",
    "HangSlave",
    "SignalFault",
    "StuckAtFault",
    "UnreleasedSplitSlave",
    "derive_run_seed",
    "enumerate_campaign",
    "fault_slave_factory",
    "run_fault_campaign",
]
