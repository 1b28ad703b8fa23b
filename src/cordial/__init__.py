"""Exact toolkit for cordial labelings of small graphs.

Exhaustive deficiency search with deterministic witnesses, closed forms for
complete graphs, cycles, wheels and mobius ladders, constructive labelings
checked by a certificate verifier, and a parity obstruction for lower bounds.
"""

from types import ModuleType as _ModuleType

from .certify import (
    Certificate,
    ValidationReport,
    ValidationRow,
    Verdict,
    check_certificate,
    cross_validate,
    parse_certificate,
    serialize_certificate,
)
from .errors import (
    CordialError,
    IdOutOfRange,
    LengthMismatch,
    LoopRejected,
    MalformedCertificate,
    NotApplicable,
    ParseError,
    SizeLimitExceeded,
    SizeTooSmall,
    StrictlyNoncordial,
)
from .families import (
    LabeledFamilyInstance,
    ced_complete,
    complete_cordial_labeling,
    complete_ced_witness,
    complete_cvd_witness,
    complete_split,
    construct_mobius_labeling,
    cvd_complete,
    cvd_complete_literal,
    cycle_cordial_labeling,
    is_cordial_complete,
    is_cordial_cycle,
    is_cordial_mobius,
    is_cordial_wheel,
    mobius_ced_witness,
    mobius_cvd_witness,
    wheel_cordial_labeling,
    wheel_ced_witness,
    wheel_cvd_witness,
)
from .graph_core import (
    FAMILIES,
    MIN_SIZE,
    FamilySpec,
    MultiGraph,
    complete_graph,
    cycle_graph,
    ladder_graph,
    mobius_ladder,
    parse_edge_list,
    path_graph,
    wheel_graph,
)
from .labeling import (
    BalanceReport,
    VertexLabeling,
    balance,
    first_pair_with_edge_label,
    parity_obstruction,
)
from .oracle import (
    DEFAULT_MAX_VERTICES,
    DeficiencyValue,
    InfinityReason,
    OracleResult,
    ced_oracle,
    cvd_oracle,
    decide_cordial,
)

__version__ = "0.1.0"

# every public name imported above; the submodules are attributes, not exports
__all__ = [
    name
    for name, value in list(globals().items())
    if not name.startswith("_") and not isinstance(value, _ModuleType)
] + ["__version__"]
