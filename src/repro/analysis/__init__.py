"""Program analyses: live intervals (over the flat lowering's slots and
block liveness), interference (RIG), conflict graph (RCG), conflict cost
estimation (Eq. 1/2), register and bank pressure tracking, and the Same
Displacement Graph (SDG).
"""

from .chordal import (
    chordal_coloring,
    chromatic_number,
    is_chordal,
    maximum_cardinality_search,
)
from .conflict_graph import ConflictGraph
from .cost import ConflictCostModel
from .interference import InterferenceGraph
from .intervals import LiveInterval, LiveIntervals, Segment
from .pressure import BankPressureTracker
from .sdg import SameDisplacementGraph

__all__ = [
    "BankPressureTracker",
    "ConflictCostModel",
    "ConflictGraph",
    "InterferenceGraph",
    "LiveInterval",
    "LiveIntervals",
    "SameDisplacementGraph",
    "Segment",
    "chordal_coloring",
    "chromatic_number",
    "is_chordal",
    "maximum_cardinality_search",
]
