"""Register allocation substrate: the greedy allocator the paper extends,
coalescing and pre-allocation scheduling phases, spilling and live-range
splitting machinery, and a bank-aware PBQP allocator for the PBQP
ablation.
"""

from .base import (
    AllocationError,
    AllocationPolicy,
    AllocationResult,
    NaturalOrderPolicy,
)
from .coalescing import CoalescingResult, coalesce
from .greedy import GreedyAllocator
from .pbqp import PbqpAllocator
from .scheduling import SchedulingResult, schedule_function
from .verify import AllocationVerificationError, verify_allocation

__all__ = [
    "AllocationError",
    "AllocationPolicy",
    "AllocationResult",
    "CoalescingResult",
    "GreedyAllocator",
    "PbqpAllocator",
    "NaturalOrderPolicy",
    "SchedulingResult",
    "coalesce",
    "schedule_function",
    "AllocationVerificationError",
    "verify_allocation",
]
