"""Polyhedral general probabilistic theories: exact state discrimination,
distinguishability hypergraphs, and memory-capacity constructions."""

from .discrimination import (DiscriminationInstance, DiscriminationResult,
                             DistinguishabilityAnswer, IndeterminateError, instance,
                             instance_from_indices, is_perfectly_distinguishable,
                             max_success_probability, pairwise_distinguishable,
                             verify_witness)
from .families import (FamilySpec, build_family, classical_simplex, codeword_state_index,
                       hypercube_effect, hypercube_state, hypercube_theory, ngon_theory,
                       parse_family_spec, prism_product, simplex_power)
from .hypergraph import (Clique, DistinguishabilityHypergraph, build_hypergraph,
                         exact_max_clique, greedy_max_clique, is_fully_connected)
from .lp import LPOutcome, LPProblem, LPStatus, solve_exact, solve_float, verify_farkas
from .theory import (Measurement, Theory, is_effect, is_measurement, is_state, load_theory,
                     make_theory, reduce_to_pure_states, save_theory, theory_from_json,
                     theory_to_json, validate_theory)

__version__ = "0.1.0"

__all__ = [
    "Clique", "DiscriminationInstance", "DiscriminationResult",
    "DistinguishabilityAnswer", "DistinguishabilityHypergraph", "FamilySpec",
    "IndeterminateError", "LPOutcome", "LPProblem", "LPStatus", "Measurement", "Theory",
    "build_family", "build_hypergraph", "classical_simplex", "codeword_state_index",
    "exact_max_clique", "greedy_max_clique", "hypercube_effect", "hypercube_state",
    "hypercube_theory", "instance", "instance_from_indices", "is_effect",
    "is_fully_connected", "is_measurement", "is_perfectly_distinguishable", "is_state",
    "load_theory", "make_theory", "max_success_probability", "ngon_theory",
    "pairwise_distinguishable", "parse_family_spec", "prism_product", "reduce_to_pure_states",
    "save_theory", "simplex_power", "solve_exact", "solve_float", "theory_from_json",
    "theory_to_json", "validate_theory", "verify_farkas", "verify_witness",
]
