"""Exact noncommutative polynomial algebra with block-code lifting.

The pieces: polynomials over Z_p in free noncommuting variables,
arithmetic circuits computing them, weighted automata whose series
decode fixed-length blocks of letters back into variables, the Hadamard
product tying the three together, and oracles that verify every
construction against an independent route.
"""

from .automata import (Transition, WeightedAutomaton, Weight, build_decoder,
                       build_one_shot_decoder, format_automaton,
                       index_to_word, one_shot_nominal_states,
                       one_shot_state_count, parse_automaton,
                       series_truncate, word_to_index)
from .circuits import (AddNode, Circuit, CircuitBuilder, ConstNode,
                       InputNode, MulNode, SizeReport, circuit_from_poly,
                       eval_matrix, eval_scalar, expand, format_circuit,
                       parse_circuit)
from .config import DEFAULT_SEED, modulus_from_env
from .errors import BudgetError, FormatError, NCLiftError
from .hadamard import (HadamardWitness, hadamard_circuit, hadamard_eval,
                       hadamard_poly, hadamard_witness)
from .lifting import (LiftParams, LiftReport, SampleFamily, chain_decoders,
                      decode_circuit, encode_circuit, encode_poly,
                      encode_stages, encode_word, exact_cube_root,
                      iterate_decoder, iterate_encoder, lift_report,
                      one_shot_decode_circuit, sample_family)
from .matrices import SquareMatrix, matrix_value_of_poly
from .polynomials import (Alphabet, NCPolynomial, Word, format_poly,
                          length_lex_key, parse_poly, word_concat)
from .scalars import DEFAULT_MODULUS, Scalar, is_prime, require_prime_modulus
from .verify import (EquivVerdict, MatrixPoint, circuit_equiv_brute,
                     circuit_equiv_random)

__version__ = "0.1.0"

__all__ = [
    "AddNode", "Alphabet", "BudgetError", "Circuit", "CircuitBuilder",
    "ConstNode", "DEFAULT_MODULUS", "DEFAULT_SEED", "EquivVerdict",
    "FormatError", "HadamardWitness", "InputNode", "LiftParams",
    "LiftReport", "MatrixPoint", "MulNode", "NCLiftError", "NCPolynomial",
    "SampleFamily", "Scalar", "SizeReport", "SquareMatrix",
    "Transition", "Weight", "WeightedAutomaton", "Word", "build_decoder",
    "build_one_shot_decoder", "chain_decoders", "circuit_equiv_brute",
    "circuit_equiv_random", "circuit_from_poly", "decode_circuit", "encode_circuit", "encode_poly",
    "encode_stages", "encode_word", "eval_matrix", "eval_scalar",
    "exact_cube_root", "expand", "format_automaton", "format_circuit",
    "format_poly", "hadamard_circuit", "hadamard_eval", "hadamard_poly",
    "hadamard_witness", "index_to_word", "is_prime", "iterate_decoder",
    "iterate_encoder", "length_lex_key", "lift_report",
    "matrix_value_of_poly", "modulus_from_env", "one_shot_decode_circuit",
    "one_shot_nominal_states", "one_shot_state_count", "parse_automaton",
    "parse_circuit", "parse_poly", "require_prime_modulus", "sample_family",
    "series_truncate", "word_concat", "word_to_index",
]
