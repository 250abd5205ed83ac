"""Simulation substrate: static conflict statistics, dynamic execution
(the QEMU-trace substitute), the DSA VLIW and out-of-order cycle models,
register-file energy, and platform descriptions for RV#1 / RV#2 / DSA.
Every model counts stalls with the one bank-conflict rule of
:mod:`repro.sim.hazards`.
"""

from .dsa import DsaCycleReport, DsaMachine
from .energy import EnergyReport, estimate_energy
from .exec import (
    ExecutionError,
    ExecutionTrace,
    OPCODE_SEMANTICS,
    ValueInterpreter,
    observably_equivalent,
)
from .dynamic import (
    DynamicSimulator,
    DynamicStats,
    estimate_dynamic_conflicts,
    expected_block_frequencies,
)
from .hazards import instruction_hazards
from .machine import (
    DSA_SUBGROUPED,
    Platform,
    interleaved_files,
    platform_dsa,
    platform_rv1,
    platform_rv2,
)
from .ooo import (
    OooConfig,
    OooCycleReport,
    OooMachine,
    normalize_machine_spec,
)
from .static_stats import StaticStats, analyze_static, count_conflict_relevant

__all__ = [
    "DSA_SUBGROUPED",
    "ExecutionError",
    "ExecutionTrace",
    "OPCODE_SEMANTICS",
    "ValueInterpreter",
    "observably_equivalent",
    "DsaCycleReport",
    "EnergyReport",
    "estimate_energy",
    "DsaMachine",
    "DynamicSimulator",
    "DynamicStats",
    "OooConfig",
    "OooCycleReport",
    "OooMachine",
    "Platform",
    "StaticStats",
    "analyze_static",
    "count_conflict_relevant",
    "estimate_dynamic_conflicts",
    "expected_block_frequencies",
    "instruction_hazards",
    "interleaved_files",
    "normalize_machine_spec",
    "platform_dsa",
    "platform_rv1",
    "platform_rv2",
]
