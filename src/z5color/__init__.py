"""Group colorings of plane near-triangulations, over Z_m (default Z_5).

Subpackages:

- ``plane_graph``: rotation-system model, validation, structural queries.
- ``group_color``: edge labelings, the tau calculus, shift equivalence.
- ``gcg``: the line-oriented text format for graphs plus constraints.
- ``families``: wheel / broken-wheel / multi-wheel grammar, recognizer.
- ``solver``: exact counting, extension algorithms, obstruction certificates.
- ``propcheck``: randomized and exhaustive property checks with reports.
- ``cli``: the ``z5color`` command-line entry point.
"""

from .group_color import (
    ColorSystem,
    Coloring,
    GroupColorError,
    PhiAssignment,
    is_proper,
    normalize_star,
    shift_phi,
    tau,
    tau_set,
    triangle_consistent,
)
from .plane_graph import (
    Block,
    PlaneGraphError,
    PlaneNearTriangulation,
    ValidationReport,
    blocks,
    chords,
    separating_cycles,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "Block",
    "ColorSystem",
    "Coloring",
    "GroupColorError",
    "PhiAssignment",
    "PlaneGraphError",
    "PlaneNearTriangulation",
    "ValidationReport",
    "blocks",
    "chords",
    "is_proper",
    "normalize_star",
    "separating_cycles",
    "shift_phi",
    "tau",
    "tau_set",
    "triangle_consistent",
    "validate",
]
