"""csspair: pairs of CSS codes, pairwise transversal gates, and repeater links.

The library builds CSS quantum codes from classical linear codes,
decides whether a pair of (possibly different) codes supports a
transversal non-local CNOT or CZ between two stations, verifies every
verdict against an exact state-vector oracle, and simulates logical
Bell-pair fidelity over a biased Pauli channel.
"""

from .codes import (
    ClassicalCode,
    CssCode,
    load_css,
    logical_z_representatives,
    make_classical,
    make_css,
    make_css_from_stabilizers,
    min_distance,
    parse_css_text,
    save_css,
    with_encoding,
)
from .gf2 import (
    BitMatrix,
    complement_basis,
    dual_basis,
    load_matrix,
    rank,
    right_identity_transform,
    rref,
    save_matrix,
    subspace_leq,
)
from .repeater import (
    ErrorModel,
    ProtocolConfig,
    ProtocolReport,
    decode_css,
    enumerate_error_patterns,
    load_config,
    run_local_swapping,
)
from .statevec import (
    PauliOp,
    StateVector,
    apply_pauli,
    apply_transversal_cnot,
    apply_transversal_cz,
    encode_logical,
    fidelity,
    tensor,
)
from .transversality import (
    OracleResult,
    TransversalityReport,
    audit_mirror_claims,
    check_cnot_transversal,
    check_cz_sufficient,
    check_cz_transversal,
    find_cnot_encoding,
    make_mirrored_pair,
    oracle_cnot,
    oracle_cz,
    repair_mirrored_encodings,
)

__version__ = "0.1.0"

__all__ = [
    "BitMatrix",
    "ClassicalCode",
    "CssCode",
    "ErrorModel",
    "OracleResult",
    "PauliOp",
    "ProtocolConfig",
    "ProtocolReport",
    "StateVector",
    "TransversalityReport",
    "apply_pauli",
    "apply_transversal_cnot",
    "apply_transversal_cz",
    "audit_mirror_claims",
    "check_cnot_transversal",
    "check_cz_sufficient",
    "check_cz_transversal",
    "complement_basis",
    "decode_css",
    "dual_basis",
    "encode_logical",
    "enumerate_error_patterns",
    "fidelity",
    "find_cnot_encoding",
    "load_config",
    "load_css",
    "load_matrix",
    "logical_z_representatives",
    "make_classical",
    "make_css",
    "make_css_from_stabilizers",
    "make_mirrored_pair",
    "min_distance",
    "oracle_cnot",
    "oracle_cz",
    "parse_css_text",
    "rank",
    "repair_mirrored_encodings",
    "right_identity_transform",
    "rref",
    "run_local_swapping",
    "save_css",
    "save_matrix",
    "subspace_leq",
    "tensor",
    "with_encoding",
]
