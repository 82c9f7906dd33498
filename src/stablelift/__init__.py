"""Stabilized lifts of finite relational structures.

Builds, for a finite relational structure, a lifted structure with the same
automorphism group, the interpretation-scheme machinery that transfers
automorphisms canonically, and an orbit-counting laboratory for stability
evidence at finite scale.
"""

from .structures import (
    Signature,
    Structure,
    StructureError,
    validate_structure,
    relational_companion,
    structure_to_json,
    structure_from_json,
)
from .formulas import (
    Formula,
    FormulaError,
    AtomicType,
    format_formula,
    eval_formula,
    definable_set,
    sort_partition,
)
from .groups import (
    Permutation,
    PermGroup,
    GroupError,
    orbits,
    is_automorphism,
    automorphism_group,
)
from .interpretation import (
    SchemeSort,
    InterpretationScheme,
    ValidationReport,
    SchemeError,
    validate_scheme,
    induced_automorphism,
)
from .lifting import (
    LIMIT,
    LiftConfig,
    PaddingAssignment,
    LiftedStructure,
    LiftError,
    LiftMapError,
    Anchor,
    BaseElem,
    FiberElem,
    canonical_padding,
    build_lift,
    limit_elements,
    direct_induced,
    project_automorphism,
    generate_scheme,
    continuity_witness,
)
from .stability import (
    CensusReport,
    stabilizer_orbits,
    qf_type_census,
    stability_report,
)

__version__ = "0.1.0"
