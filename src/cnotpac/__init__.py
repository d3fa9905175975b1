"""Hardness of properly learning CNOT circuits, made executable.

The package walks the whole chain: GF(2) linear algebra, Pauli and
stabilizer machinery, tableau simulation, CNOT circuit synthesis, the
formula-to-matrix-family reduction, sample-set constructions that pin a
hypothesis circuit, consistency search oracles, and the learners for the
tractable special cases.
"""

__version__ = "0.1.0"

from .gf2 import (
    AffineSubspace,
    BitMatrix,
    SingularMatrixError,
    complete_to_basis,
    deterministic_completion,
    dot,
)
from .pauli import PauliOperator, z_power
from .stabilizer import Membership, StabilizerGroup, StabilizerState
from .tableau import (
    CliffordTableau,
    Gate,
    apply_circuit_to_state,
    evaluate_sample,
)
from .cnot import CnotCircuit, synthesize_cnot_from_theta
from .samples import Sample, SampleSet
from .formula import (
    Constant,
    Formula,
    Product,
    Sum,
    Variable,
    WeightedDigraph,
    arithmetize_cnf,
    eval_formula,
    formula_to_graph,
    num_variables,
    parse_formula,
    product_of,
    sum_of,
)
from .reduction import (
    NonSingularityInstance,
    constrain_pauli_samples,
    constrain_submatrix_samples,
    graph_to_instance,
    instance_to_samples,
    reduce_formula_to_samples,
    reduce_sat_to_samples,
)
from .search import (
    DecisionSearchResult,
    EnumerationLimitError,
    FamilySearchResult,
    SearchResult,
    affine_family_search,
    brute_force_decision,
    brute_force_search,
    check_consistent,
    enumerate_consistent_circuits,
    search_from_decision,
)
from .learning import (
    EmptyIntersectionError,
    LearningParameters,
    PacLearnResult,
    cnot_defaults,
    learn_single_measurement,
    pac_learner,
    sample_complexity,
    trivial_uniform_learner,
)
from .serialization import (
    DimacsError,
    circuit_from_json,
    circuit_to_json,
    instance_from_json,
    instance_to_json,
    parse_dimacs,
    sample_set_from_json,
    sample_set_to_json,
)
