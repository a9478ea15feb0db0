"""Independent equivalence oracles for circuits.

Brute mode expands both circuits to canonical polynomials and compares;
it is exact but budget-bound.  Random mode evaluates both at random
matrix tuples whose dimension exceeds half the syntactic degree, the
threshold below which matrix algebras can satisfy nontrivial
identities; a disagreement is proof of distinctness, agreement on all
trials is probabilistic evidence of equality.  Distinct verdicts always
carry a witness that reproduces the disagreement on its own.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain

from .circuits import (Circuit, DEFAULT_MAX_DEGREE, DEFAULT_MAX_TERMS,
                       eval_matrix_residues, expand)
from .errors import BudgetError
from .polynomials import Word, length_lex_key

MODE_BRUTE = "brute"
MODE_RANDOM = "random"

EQUAL = "equal"
DISTINCT = "distinct"
INCONCLUSIVE = "inconclusive-budget"


@dataclass(frozen=True)
class MatrixPoint:
    """One random evaluation point: a dim x dim matrix per variable."""

    dim: int
    mats: tuple[tuple[int, tuple[tuple[int, ...], ...]], ...]

    def as_dict(self) -> dict[int, tuple[tuple[int, ...], ...]]:
        return dict(self.mats)


@dataclass(frozen=True)
class EquivVerdict:
    mode: str
    result: str
    witness: Word | MatrixPoint | None = None

    @property
    def is_equal(self) -> bool:
        return self.result == EQUAL


def _check_comparable(c1: Circuit, c2: Circuit) -> None:
    if c1.alphabet.size != c2.alphabet.size:
        raise ValueError(f"circuits read different alphabets: "
                         f"{c1.alphabet.size} vs {c2.alphabet.size}")
    if c1.modulus != c2.modulus:
        raise ValueError(f"modulus mismatch: {c1.modulus} vs {c2.modulus}")


def circuit_equiv_brute(c1: Circuit, c2: Circuit,
                        max_degree: int = DEFAULT_MAX_DEGREE,
                        max_terms: int = DEFAULT_MAX_TERMS) -> EquivVerdict:
    """Expand and compare; witness is the first differing word."""
    _check_comparable(c1, c2)
    try:
        f1 = expand(c1, max_degree, max_terms)
        f2 = expand(c2, max_degree, max_terms)
    except BudgetError:
        return EquivVerdict(MODE_BRUTE, INCONCLUSIVE)
    if f1 == f2:
        return EquivVerdict(MODE_BRUTE, EQUAL)
    t1, t2 = f1.terms, f2.terms
    differ = chain((w for w, c in t1.items() if t2.get(w) != c),
                   (w for w in t2 if w not in t1))
    witness = Word(f1.alphabet, min(differ, key=length_lex_key))
    return EquivVerdict(MODE_BRUTE, DISTINCT, witness)


def random_matrix_point(vars_used: list[int], dim: int, modulus: int,
                        rng: random.Random) -> MatrixPoint:
    mats = tuple(
        (v, tuple(tuple(rng.randrange(modulus) for _ in range(dim))
                  for _ in range(dim)))
        for v in vars_used)
    return MatrixPoint(dim, mats)


def circuit_equiv_random(c1: Circuit, c2: Circuit, trials: int = 10,
                         dim: int | None = None,
                         seed: int = 0) -> EquivVerdict:
    """Identity test at random matrix points over Z_p.

    dim defaults to floor(max syntactic degree / 2) + 1 and may not be
    set lower: smaller algebras satisfy identities of that degree, so
    agreement there proves nothing.  Points of more than
    DEFAULT_MAX_TERMS residues raise BudgetError before any is drawn.
    """
    _check_comparable(c1, c2)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    needed = max(c1.degree_bound(), c2.degree_bound()) // 2 + 1
    if dim is None:
        dim = needed
    elif dim < needed:
        raise ValueError(f"dimension {dim} below the identity-testing "
                         f"threshold {needed} for these degrees")
    vars_used = sorted(c1.used_vars() | c2.used_vars())
    cells = dim * dim * max(len(vars_used), 1)
    if cells > DEFAULT_MAX_TERMS:
        raise BudgetError(f"dimension {dim} needs {cells} matrix entries, "
                          f"budget is {DEFAULT_MAX_TERMS}")
    modulus = c1.modulus
    rng = random.Random(seed)
    for _ in range(trials):
        point = random_matrix_point(vars_used, dim, modulus, rng)
        mats = point.as_dict()
        a = eval_matrix_residues(c1, mats, dim, modulus)
        b = eval_matrix_residues(c2, mats, dim, modulus)
        if a != b:
            return EquivVerdict(MODE_RANDOM, DISTINCT, point)
    return EquivVerdict(MODE_RANDOM, EQUAL)
