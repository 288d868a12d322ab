"""charforge: finite-group character decomposition for quantum circuits.

Builds finite matrix groups by closure from gate unitaries, computes their
character tables, idempotents, and isotypic projectors, and applies them to
circuit analysis, optimization, classical simulation, and mechanical
verification of the underlying decomposition claims.
"""

from .algebra import (AlgebraElement, DecomposabilityReport, DecompositionResult,
                      characters_of, check_decomposability, convolve,
                      decompose_element, delta, random_element,
                      statement_formula_residual, to_matrix)
from .characters import (CharacterTable, central_idempotents, character_table,
                         character_table_csv, class_matrices,
                         isotypic_projectors, verify_orthogonality)
from .circuits import (BenchmarkSpec, Circuit, GateInstance, build_benchmark,
                       build_bv, build_grover, build_qft, build_vqe,
                       circuit_depth, circuit_unitary, gate, parse_circuit,
                       random_clifford_circuit, serialize_circuit)
from .complexity import (CostEstimate, CostParams, classify_group,
                         estimate_cost, kd2_bound_holds)
from .claims import ClaimResult, ClaimsReport, run_claims
from .expectation import (decomp_expectation, degree_square_sum,
                          paper_expectation_formula)
from .fixtures import FIXTURE_NAMES, all_fixture_groups, fixture_group
from .groups import (ClosureConfig, FiniteMatrixGroup, center_and_abelian,
                     close_group, element_of, group_to_json)
from .histogram import MeasurementHistogram, histogram_csv, tv_distance
from .observables import Observable, random_pauli, z_on_qubit
from .optimize import (EquivalenceVerdict, OptimizationReport, OptimizeConfig,
                       WordTable, build_word_table, equivalence_check, optimize)
from .statevector import sv_expectation, sv_run, time_gate_loop
from .tableau import StabilizerTableau, tableau_run, validate_tableau

__version__ = "0.1.0"
