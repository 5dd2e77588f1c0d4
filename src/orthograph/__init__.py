"""Exact solvers, witnesses, and constructions around orthogonal graph
representations: chromatic and local chromatic numbers, orthogonality
dimension and its local variant, minrank over prime fields, a SAT-to-graph
hardness reduction, and linear index coding."""

from __future__ import annotations

from .fields import (
    GF2,
    GF3,
    QQ,
    Field,
    PrimeField,
    RationalField,
    field_from_name,
)
from .linalg import (
    EchelonBasis,
    FieldTooSmallError,
    Matrix,
    ceil_log,
    nullspace_basis,
    rank,
    random_matrix,
    schulman_vectors,
    vandermonde,
    verify_family,
)
from .graphs import (
    DimacsParseError,
    Graph,
    SetSystem,
    complement,
    complete_graph,
    cycle_graph,
    empty_graph,
    intersection_graph,
    kneser,
    line_graph,
    read_dimacs,
    schrijver,
    write_dimacs,
)
from .coloring import (
    CapExceededError,
    ImproperColoringError,
    ParamResult,
    check_proper,
    chromatic_number,
    coloring_locality,
    local_chromatic_number,
    max_clique,
)
from .ortho import (
    Representation,
    coloring_to_rep,
    find_independent_rep,
    find_orthogonal_rep,
    independence_violations,
    local_orthogonality_dimension,
    minrank,
    orthogonality_dimension,
    orthogonality_violations,
    rep_locality,
)
from .reduction import (
    Cnf,
    CnfParseError,
    GadgetGraph,
    assignment_to_coloring,
    build_g,
    build_g_k,
    build_g_prime,
    certify_gadget_lemma,
    coloring_to_assignment,
    gadget_graph,
    parse_dimacs_cnf,
)
from .indexcoding import (
    CompressionError,
    CompressionResult,
    IndexCode,
    build_code,
    code_by_method,
    compress_representation,
    decode_one,
    encode,
    representing_matrix,
    simulate,
)

__version__ = "1.0.0"
