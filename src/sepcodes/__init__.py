"""Separating-domination codes: exact solvers, verifiers, and generators."""

from .codes import (
    CodeKind,
    CoverCodeMismatchError,
    KIND_INEQUALITIES,
    NotAdmissibleError,
    build_hypergraph,
    forced_vertices,
    is_admissible,
    is_full_separating,
    verify_code,
    x_number,
)
from .families import (
    Family,
    FamilySpec,
    formula_x_number,
    ftd_code_path_cycle,
    generate,
    random_gnp,
)
from .graphs import (
    Graph,
    GraphFormatError,
    UniverseMismatchError,
    VertexSet,
    format_edge_list,
    parse_edge_list,
)
from .hypergraphs import (
    CoverResult,
    DEFAULT_NODE_BUDGET,
    EmptyHyperedgeError,
    Hypergraph,
    min_cover,
    remove_redundant,
)
from .sat_reduction import (
    CnfFormula,
    DimacsError,
    GadgetGraph,
    assignment_from_code,
    brute_force_sat,
    build_gadget,
    code_from_assignment,
    parse_dimacs,
)

__version__ = "0.1.0"

__all__ = [
    "CodeKind",
    "CnfFormula",
    "CoverCodeMismatchError",
    "CoverResult",
    "DEFAULT_NODE_BUDGET",
    "DimacsError",
    "EmptyHyperedgeError",
    "Family",
    "FamilySpec",
    "GadgetGraph",
    "Graph",
    "GraphFormatError",
    "Hypergraph",
    "KIND_INEQUALITIES",
    "NotAdmissibleError",
    "UniverseMismatchError",
    "VertexSet",
    "assignment_from_code",
    "brute_force_sat",
    "build_gadget",
    "build_hypergraph",
    "code_from_assignment",
    "forced_vertices",
    "format_edge_list",
    "formula_x_number",
    "ftd_code_path_cycle",
    "generate",
    "is_admissible",
    "is_full_separating",
    "min_cover",
    "parse_dimacs",
    "parse_edge_list",
    "random_gnp",
    "remove_redundant",
    "verify_code",
    "x_number",
]
