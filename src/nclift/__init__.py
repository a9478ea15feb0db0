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
from .circuits import (Circuit, CircuitBuilder, SizeReport, circuit_from_poly,
                       eval_scalar, expand, format_circuit, parse_circuit)
from .errors import BudgetError, FormatError, NCLiftError
from .hadamard import (HadamardWitness, hadamard_circuit, hadamard_eval,
                       hadamard_poly, hadamard_witness)
from .lifting import (DEFAULT_SEED, LiftParams, LiftReport, SampleFamily,
                      decode_circuit, decode_stages, encode_circuit,
                      encode_poly, encode_stages, encode_word,
                      iterate_decoder, iterate_encoder, lift_report,
                      one_shot_decode_circuit, sample_family)
from .polynomials import (Alphabet, NCPolynomial, Word, format_poly,
                          length_lex_key, parse_poly)
from .scalars import DEFAULT_MODULUS, is_prime, require_prime_modulus
from .verify import (EquivVerdict, MatrixPoint, circuit_equiv_brute,
                     circuit_equiv_random)

__version__ = "0.1.0"

__all__ = [
    "Alphabet", "BudgetError", "Circuit", "CircuitBuilder",
    "DEFAULT_MODULUS", "DEFAULT_SEED", "EquivVerdict", "FormatError",
    "HadamardWitness", "LiftParams", "LiftReport", "MatrixPoint",
    "NCLiftError", "NCPolynomial", "SampleFamily", "SizeReport",
    "Transition", "Weight", "WeightedAutomaton", "Word", "build_decoder",
    "build_one_shot_decoder", "circuit_equiv_brute",
    "circuit_equiv_random", "circuit_from_poly", "decode_circuit",
    "decode_stages", "encode_circuit", "encode_poly", "encode_stages",
    "encode_word", "eval_scalar", "expand", "format_automaton",
    "format_circuit", "format_poly", "hadamard_circuit", "hadamard_eval",
    "hadamard_poly", "hadamard_witness", "index_to_word", "is_prime",
    "iterate_decoder", "iterate_encoder", "length_lex_key", "lift_report",
    "one_shot_decode_circuit", "one_shot_nominal_states",
    "one_shot_state_count", "parse_automaton", "parse_circuit",
    "parse_poly", "require_prime_modulus", "sample_family",
    "series_truncate", "word_to_index",
]
