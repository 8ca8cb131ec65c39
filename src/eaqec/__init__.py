"""Entanglement-assisted quantum error-correcting codes.

Bit-packed Pauli groups over GF(2), the symplectic Gram-Schmidt split into
hyperbolic pairs and isotropic generators, the stabilizer/logical duality
swap, exact weight enumerators with their transform identities, and exact
rational LP distance bounds with the known-code registry behind the bounds
table.
"""

from .codes import (
    CodeRegistryEntry,
    EaqecCode,
    Pair,
    code_from_entry,
    code_to_json_dict,
    dual,
    ea_repetition_code,
    extend_code,
    format_code_text,
    from_generators,
    min_distance,
    parse_code_json,
    parse_code_text,
    registry,
)
from .enumerator import (
    DEFAULT_BUDGET_LOG2,
    IdentityCheck,
    WeightEnumerator,
    eaqec_identities,
    krawtchouk,
    macwilliams_transform,
    verify_macwilliams,
    weight_enumerator,
)
from .errors import (
    BudgetError,
    DimensionError,
    EaqecError,
    InconsistencyError,
    ParseError,
    StructureError,
    UndefinedDistanceError,
)
from .lpbound import (
    BoundsCell,
    BoundsTable,
    apply_overrides,
    build_table,
    lp_feasible,
    lp_feasible_general,
    lp_upper_bound,
)
from .pauli import (
    MAX_QUBITS,
    PauliGroup,
    PauliOperator,
    canonicalize,
    orthogonal_group,
    symplectic_gram_schmidt,
    symplectic_product,
)

__version__ = "0.1.0"

__all__ = [
    "BoundsCell",
    "BoundsTable",
    "BudgetError",
    "CodeRegistryEntry",
    "DEFAULT_BUDGET_LOG2",
    "DimensionError",
    "EaqecCode",
    "EaqecError",
    "IdentityCheck",
    "InconsistencyError",
    "MAX_QUBITS",
    "Pair",
    "ParseError",
    "PauliGroup",
    "PauliOperator",
    "StructureError",
    "UndefinedDistanceError",
    "WeightEnumerator",
    "apply_overrides",
    "build_table",
    "canonicalize",
    "code_from_entry",
    "code_to_json_dict",
    "dual",
    "ea_repetition_code",
    "eaqec_identities",
    "extend_code",
    "format_code_text",
    "from_generators",
    "krawtchouk",
    "lp_feasible",
    "lp_feasible_general",
    "lp_upper_bound",
    "macwilliams_transform",
    "min_distance",
    "orthogonal_group",
    "parse_code_json",
    "parse_code_text",
    "registry",
    "symplectic_gram_schmidt",
    "symplectic_product",
    "verify_macwilliams",
    "weight_enumerator",
]
