"""System-level power analysis methodology (the paper's contribution).

Activity monitoring (§5.3), energy macromodels (§5.1), the bus
instruction set and ``power_fsm`` (§5.2/§5.4), the three power-model
styles of Fig. 1, energy/power bookkeeping, and gate-level
characterisation (§3).
"""

from .activity import Activity, ActivitySample
from .apb_monitor import ApbPowerMonitor
from .characterize import (
    CharacterizationResult,
    characterize_arbiter,
    characterize_decoder,
    characterize_mux,
    fit_linear_model,
)
from .dpm import (
    ClockGateController,
    GatingEvaluation,
    evaluate_gating_policy,
)
from .encoding import (
    BusEncoder,
    BusInvertEncoder,
    EncodingEvaluation,
    GrayEncoder,
    IdentityEncoder,
    T0Encoder,
    evaluate_encoding,
)
from .hamming import (
    expected_hamming_uniform,
    hamming,
    hamming_sequence,
    signal_probability,
    total_transitions,
    transition_density,
)
from .instructions import (
    ALL_INSTRUCTIONS,
    ARBITRATION_INSTRUCTIONS,
    DATA_TRANSFER_INSTRUCTIONS,
    PAPER_FSM_INSTRUCTIONS,
    TABLE1_INSTRUCTIONS,
    BusMode,
    classify_mode,
    current_mode_of,
    instruction_name,
    is_arbitration,
    is_data_transfer,
)
from .ledger import (
    BLOCK_ARB,
    BLOCK_DEC,
    BLOCK_M2S,
    BLOCK_S2M,
    PAPER_BLOCKS,
    EnergyLedger,
    InstructionStats,
)
from .macromodels import (
    ArbiterEnergyModel,
    DecoderEnergyModel,
    FittedMacromodel,
    MuxEnergyModel,
    RegisterEnergyModel,
)
from .monitors import (
    GlobalPowerMonitor,
    LocalPowerMonitor,
    PrivatePowerMonitor,
)
from .offline import OfflinePowerAnalyzer, trace_bus
from .parameters import (
    GATE_LEVEL_TECHNOLOGY,
    PAPER_TECHNOLOGY,
    TECH_180NM,
    TechnologyParameters,
)
from .power_fsm import PowerFsm
from .power_trace import PowerTrace, TraceSet
from .statistical import (
    PowerEstimate,
    WorkloadStatistics,
    estimate_average_power,
)

__all__ = [
    "ALL_INSTRUCTIONS",
    "ARBITRATION_INSTRUCTIONS",
    "Activity",
    "ActivitySample",
    "ApbPowerMonitor",
    "ArbiterEnergyModel",
    "BLOCK_ARB",
    "BusEncoder",
    "BusInvertEncoder",
    "BLOCK_DEC",
    "BLOCK_M2S",
    "BLOCK_S2M",
    "BusMode",
    "CharacterizationResult",
    "ClockGateController",
    "DATA_TRANSFER_INSTRUCTIONS",
    "DecoderEnergyModel",
    "EncodingEvaluation",
    "EnergyLedger",
    "FittedMacromodel",
    "GrayEncoder",
    "IdentityEncoder",
    "GATE_LEVEL_TECHNOLOGY",
    "GatingEvaluation",
    "GlobalPowerMonitor",
    "InstructionStats",
    "LocalPowerMonitor",
    "MuxEnergyModel",
    "OfflinePowerAnalyzer",
    "PAPER_BLOCKS",
    "PAPER_FSM_INSTRUCTIONS",
    "PAPER_TECHNOLOGY",
    "PowerEstimate",
    "PowerFsm",
    "PowerTrace",
    "PrivatePowerMonitor",
    "RegisterEnergyModel",
    "T0Encoder",
    "TABLE1_INSTRUCTIONS",
    "TECH_180NM",
    "TechnologyParameters",
    "TraceSet",
    "WorkloadStatistics",
    "characterize_arbiter",
    "characterize_decoder",
    "characterize_mux",
    "classify_mode",
    "current_mode_of",
    "estimate_average_power",
    "evaluate_encoding",
    "evaluate_gating_policy",
    "expected_hamming_uniform",
    "fit_linear_model",
    "hamming",
    "hamming_sequence",
    "instruction_name",
    "is_arbitration",
    "is_data_transfer",
    "signal_probability",
    "total_transitions",
    "trace_bus",
    "transition_density",
]
