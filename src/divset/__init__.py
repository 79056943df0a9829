"""divset: exact selection of k pairwise-distant binary vectors from rows
with unknown entries, plus the graph reductions and first-order logic
tooling built around the same instances."""

from .errors import (
    ContractError,
    DimensionMismatch,
    NotApplicableError,
    OracleLimitError,
    ParseError,
    UnboundVariableError,
)
from .fologic import (
    embedding_transfer_report,
    evaluate,
    formula_size,
    free_variables,
    parse_formula,
    rewrite_sentence,
    to_text,
    vertex_classifier,
)
from .reductions import (
    Graph,
    distance_graph,
    has_independent_set,
    hypercube_embedding,
    independent_set_to_diversity,
    independent_set_to_r2,
    parse_graph,
    r2_equivalence_report,
    serialize_graph,
    subdivided_with_leaves,
)
from .solver import (
    Removal,
    SolveOutcome,
    Thresholds,
    brute_force,
    exhaustive_solve,
    find_prunable_row,
    greedy_attempt,
    lift_heavy_row,
    neighborhood_bound,
    neighborhood_gate,
    row_signature,
    solve,
    strip_heavy_row,
    sunflower_target,
)
from .sunflowers import SetFamily, Sunflower, find_sunflower
from .vectors import (
    Instance,
    PartialVector,
    Solution,
    VerificationReport,
    disagreement_set,
    known_distance,
    neighborhood,
    parse_instance,
    parse_solution,
    serialize_instance,
    serialize_solution,
    verify_solution,
)

__version__ = "0.1.0"
