"""arcmult: exact Nash multiplicity sequences and contact invariants.

An exact symbolic engine for hypersurface singularities over Q and F_p:
multiplicities along arcs via directed blow-ups, orders of contact with the
maximum-multiplicity locus, elimination algebras with their order function
in base dimension, and a sampled verifier for the equality between the two.
"""

from .blowup import (
    ChartMap,
    NashReport,
    blowup_lift,
    graph_arc,
    nash_sequence,
    persistence_oracle,
    strict_transform,
)
from .contact import (
    ContactResult,
    contact_order,
    integral_invariance_check,
    normalized_contact,
)
from .elimination import (
    EliminationResult,
    MonicPresentation,
    TheoremReport,
    coefficient_algebra,
    minimizing_arc,
    ord_d,
    tschirnhausen,
    verify_main_theorem,
    visible_elimination,
)
from .errors import EngineError
from .fields import INF, RATIONALS, FieldSpec, prime_field
from .poly import MultiPoly, parse_poly
from .rees import ReesAlgebra, parse_rees, presenting_algebra
from .series import Arc, TruncatedSeries, arc_substitute, parse_series

__version__ = "0.1.0"

__all__ = [
    "Arc",
    "ChartMap",
    "ContactResult",
    "EliminationResult",
    "EngineError",
    "FieldSpec",
    "INF",
    "MonicPresentation",
    "MultiPoly",
    "NashReport",
    "RATIONALS",
    "ReesAlgebra",
    "TheoremReport",
    "TruncatedSeries",
    "__version__",
    "arc_substitute",
    "blowup_lift",
    "coefficient_algebra",
    "contact_order",
    "graph_arc",
    "integral_invariance_check",
    "minimizing_arc",
    "nash_sequence",
    "normalized_contact",
    "ord_d",
    "parse_poly",
    "parse_rees",
    "parse_series",
    "persistence_oracle",
    "presenting_algebra",
    "prime_field",
    "strict_transform",
    "tschirnhausen",
    "verify_main_theorem",
    "visible_elimination",
]
