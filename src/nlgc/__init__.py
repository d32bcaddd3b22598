"""Compiler for group expansions of bipartite unitaries.

Given a unitary acting on two subsystems, find the smallest finite group
(with an ordinary or projective representation) expressing the gate as a
sum of local operator pairs driven by that group, then certify the result
by simulating every branch of the matching entanglement-assisted protocol.
"""
from .errors import (AssignmentError, CompilerError, DimensionError,
                     InconsistencyError, NondeterminismError,
                     SingularInputError, ValidationError)
from .expansion import (GroupExpansion, classify, compile_unitary,
                        construct_V, synthesize_group_gate)
from .groups import (FactorSystem, FiniteGroup, builtin_catalog, catalog_groups,
                     load_group_file)
from .protocol import (ProtocolTrace, build_M, fourier_basis, random_states,
                       simulate_protocol)
from .report import (build_report, canonical_json, expansion_from_report,
                     matrix_payload, parse_matrix_payload, verify_report)
from .representations import (Representation, irrep_dimensions, irreps_of,
                              pauli_projective_rep,
                              projective_irreps_from_extension)
from .schmidt import BipartiteUnitary, SchmidtDecomposition, schmidt_decompose
from .sbd import (BlockStructure, classify_equivalence, finest_sbd, gram_set,
                  merge_blocks)
from .search import CatalogIndex, SearchCandidate, search_group

__version__ = "0.1.0"

__all__ = [
    "AssignmentError", "BipartiteUnitary", "BlockStructure", "CatalogIndex",
    "CompilerError", "DimensionError", "FactorSystem", "FiniteGroup",
    "GroupExpansion", "InconsistencyError", "NondeterminismError",
    "ProtocolTrace", "Representation", "SchmidtDecomposition",
    "SearchCandidate", "SingularInputError", "ValidationError", "build_M",
    "build_report", "builtin_catalog", "canonical_json", "catalog_groups",
    "classify", "classify_equivalence", "compile_unitary", "construct_V",
    "expansion_from_report", "finest_sbd", "fourier_basis", "gram_set",
    "irrep_dimensions", "irreps_of", "load_group_file", "matrix_payload",
    "merge_blocks", "parse_matrix_payload", "pauli_projective_rep",
    "projective_irreps_from_extension", "random_states", "schmidt_decompose",
    "search_group", "simulate_protocol", "synthesize_group_gate",
    "verify_report",
]
