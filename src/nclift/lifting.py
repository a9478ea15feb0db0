"""Block-code lifting between variable alphabets of sizes m^3 and m.

The encoder E sends the variable x_i (0 <= i < m^3) to the three-letter
word whose letters are the base-m digits of i, most significant first.
Applied to polynomials it is the linear, product-preserving extension;
applied to circuits it splices a two-mul chain over each input node.
Decoding is the Hadamard product with the matching block-decoder
automaton, so decode_circuit(encode_circuit(C, m), m) expands to
exactly what C expands to.

Iterating E walks the alphabet chain N_0 -> N_1 -> ... -> N_d with
N_k = n^(3^(d-k)), shrinking the alphabet by a cube root per stage
while tripling degrees; LiftParams/lift_report keep those books.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from typing import Sequence

from .automata import (MAX_SIZE_DIGITS, SIZE_CAP, build_decoder,
                       chain_variables, index_to_word)
from .circuits import (ADD, DEFAULT_MAX_TERMS, MUL, VAR, Circuit, Node,
                       circuit_from_poly)
from .errors import BudgetError
from .hadamard import hadamard_bound, hadamard_circuit
from .polynomials import Alphabet, Letters, NCPolynomial
from .scalars import DEFAULT_MODULUS, require_prime_modulus


def encode_word(i: int, m: int) -> Letters:
    """Base-m digits of i, most significant first, always three of them."""
    return index_to_word(i, m, 3)


def encode_poly(f: NCPolynomial, m: int, *, y_name: str = "Y",
                ) -> NCPolynomial:
    """Apply the 1-to-3 encoder letterwise to every word of f."""
    if f.alphabet.size != m ** 3:
        raise ValueError(f"encoder with m={m} needs {m ** 3} variables, "
                         f"polynomial has {f.alphabet.size}")
    y = Alphabet(y_name, m)
    terms = {}
    for letters, c in f.terms.items():
        image = tuple(d for i in letters for d in encode_word(i, m))
        terms[image] = c
    return NCPolynomial(y, f.modulus, terms, _trusted=True)


def encode_circuit(c: Circuit, m: int, *, y_name: str = "Y") -> Circuit:
    """Write each input variable as the product of its digit letters.

    One pass over the nodes: the input x_i becomes the chain
    (y_a * y_b) * y_c of its digits a, b, c, with one leaf per distinct
    digit, and every other node is kept with renumbered children.  Each
    distinct letter's digits are worked out once.  The nodes of c were
    checked, so the result is built without checking them again.
    """
    if c.alphabet.size != m ** 3:
        raise ValueError(f"encoder with m={m} needs {m ** 3} variables, "
                         f"circuit has {c.alphabet.size}")
    nodes: list[Node] = []
    push = nodes.append
    new_id: list[int] = []    # where each node of c landed
    words: dict[int, Letters] = {}
    for op, a, b in c.nodes:
        if op == VAR:
            word = words.get(a)
            if word is None:
                word = words[a] = encode_word(a, m)
            leaves: dict[int, int] = {}
            chain = -1
            for digit in word:
                leaf = leaves.get(digit)
                if leaf is None:
                    leaf = leaves[digit] = len(nodes)
                    push((VAR, digit, 0))
                if chain < 0:
                    chain = leaf
                else:
                    push((MUL, chain, leaf))
                    chain = len(nodes) - 1
            new_id.append(chain)
            continue
        if op == ADD or op == MUL:
            a, b = new_id[a], new_id[b]
        new_id.append(len(nodes))
        push((op, a, b))
    return Circuit(c.name, Alphabet(y_name, m), c.modulus, tuple(nodes),
                   new_id[c.output], _trusted=True)


# The most nodes (circuits) or word letters (polynomials) one chain of
# encode_stages keeps, summed over its stages.
MAX_CHAIN_SIZE = 250_000


def encode_stages(obj, n: int, d: int):
    """The whole chain [stage 0, ..., stage d]; stage 0 is obj itself.

    Raises BudgetError before building a stage that could take the
    stages kept past MAX_CHAIN_SIZE nodes or word letters.
    """
    if n < 1:
        raise ValueError(f"alphabet size must be positive, got {n}")
    if d < 0:
        raise ValueError(f"depth must be nonnegative, got {d}")
    size = obj.alphabet.size
    variables = chain_variables(n, d)
    if size != variables:
        raise ValueError(f"a depth-{d} chain down to {n} letters starts "
                         f"from {variables} variables, got {size}")
    # A stage has exactly 3x the word letters of the one before, and at
    # most 5x the nodes: an input becomes up to three leaves and two muls.
    if isinstance(obj, NCPolynomial):
        encode, growth, unit = encode_poly, 3, "word letters"
        measure = lambda f: sum(map(len, f.terms))
    else:
        encode, growth, unit = encode_circuit, 5, "nodes"
        measure = lambda c: len(c.nodes)
    stages = [obj]
    kept = last = measure(obj)
    for k in range(1, d + 1):
        if kept + growth * last > MAX_CHAIN_SIZE:
            raise BudgetError(f"stage {k} of a depth-{d} chain down to {n} "
                              f"letters could take the chain past "
                              f"{MAX_CHAIN_SIZE} {unit}")
        m = n ** (3 ** (d - k))    # stage k's alphabet; its cube is k-1's
        stages.append(encode(stages[-1], m, y_name=f"Y{k}"))
        last = measure(stages[-1])
        kept += last
    return stages


def iterate_encoder(obj, n: int, d: int):
    """d-fold encoding of a polynomial or circuit down to n letters."""
    return encode_stages(obj, n, d)[-1]


def decode_stages(c: Circuit, n: int, d: int, *, one_shot: bool = False,
                  **caps):
    """Walk a depth-d decode chain from n letters back up.

    Yields (stage input, decoder) before each synthesis, then (result,
    None).  The first draw refuses a circuit that does not read n
    letters, then builds every decoder, so one over its budget fails the
    chain before any synthesis: those on n, n^3, ..., n^(3^(d-1))
    letters, or with one_shot build_decoder(n, d); caps pass through.
    """
    if c.alphabet.size != n:
        raise ValueError(f"decode chain starts from {n} letters, circuit "
                         f"has {c.alphabet.size}")
    if one_shot:
        decoders = [build_decoder(n, d, modulus=c.modulus, **caps)]
    else:
        decoders = [build_decoder(n ** (3 ** k), modulus=c.modulus, **caps)
                    for k in range(d)]
    for decoder in decoders:
        yield c, decoder
        c = hadamard_circuit(c, decoder, name=c.name)
    yield c, None


def _decode(c: Circuit, n: int, d: int, **options) -> Circuit:
    for result, _ in decode_stages(c, n, d, **options):
        pass
    return result


def decode_circuit(c: Circuit, m: int) -> Circuit:
    """Hadamard product with the m-letter block decoder.

    Expands to the decode of what c expands to: code blocks map back to
    their variables and every non-code word is zeroed.
    """
    return _decode(c, m, 1)


def iterate_decoder(c: Circuit, n: int, d: int) -> Circuit:
    """Undo iterate_encoder one stage at a time, from n letters back up."""
    return _decode(c, n, d)


def one_shot_decode_circuit(c: Circuit, n: int, d: int, **caps) -> Circuit:
    """Undo all d stages with a single wider automaton.

    Expands to the same polynomial as iterate_decoder(c, n, d); the
    automaton's budget caps pass through as keyword arguments.
    """
    return _decode(c, n, d, one_shot=True, **caps)


# ---------------------------------------------------------------------------
# Stage bookkeeping.

@dataclass(frozen=True)
class LiftParams:
    """A depth-d chain over n letters starting from degree-t inputs.

    A chain whose report would print a number of more than
    MAX_SIZE_DIGITS decimal digits raises BudgetError when it is made:
    its largest, bound_factor(0), is about 16 n^(3^d).
    """

    n: int
    d: int
    t: int

    def __post_init__(self) -> None:
        for field in ("n", "d", "t"):
            object.__setattr__(self, field,
                               operator.index(getattr(self, field)))
        if self.n < 1:
            raise ValueError(f"alphabet size must be positive, got {self.n}")
        if self.d < 1:
            raise ValueError(f"depth must be positive, got {self.d}")
        if self.t < 1:
            raise ValueError(f"degree must be positive, got {self.t}")
        # First, so that bound_factor never builds a count past the cap.
        chain_variables(self.n, self.d)
        if self.bound_factor(0) >= SIZE_CAP:
            raise BudgetError(f"a depth-{self.d} chain down to {self.n} "
                              f"letters has a decode bound factor of more "
                              f"than {MAX_SIZE_DIGITS} decimal digits")

    @property
    def variable_count(self) -> int:
        return chain_variables(self.n, self.d)

    @property
    def alphabet_sizes(self) -> tuple[int, ...]:
        """N_0 .. N_d with N_k = n^(3^(d-k)); each is the cube of the next."""
        return tuple(self.n ** (3 ** (self.d - k))
                     for k in range(self.d + 1))

    @property
    def degrees(self) -> tuple[int, ...]:
        """Degree after each stage: t at stage 0, tripling per stage."""
        return tuple(self.t * 3 ** k for k in range(self.d + 1))

    def bound_factor(self, k: int) -> int:
        """Size growth allowed when decoding stage k+1 back to stage k.

        The decoder for that step has q = 2 N_{k+1} + 1 states and the
        product circuit at most 2q^3 + q^2 nodes per source node; the
        last stage has nothing below it and reports 1.
        """
        if not 0 <= k <= self.d:
            raise ValueError(f"stage {k} outside 0..{self.d}")
        if k == self.d:
            return 1
        size = self.n ** (3 ** (self.d - k - 1))    # N_{k+1}
        return hadamard_bound(2 * size + 1, 1, 1)


@dataclass(frozen=True)
class StageRow:
    k: int
    alphabet_size: int
    degree: int
    gates: int
    bound_factor: int

    def line(self) -> str:
        return (f"stage k={self.k} N={self.alphabet_size} "
                f"deg={self.degree} gates={self.gates} "
                f"bound_factor={self.bound_factor}")


@dataclass(frozen=True)
class LiftReport:
    params: LiftParams
    rows: tuple[StageRow, ...]

    def lines(self) -> list[str]:
        return [row.line() for row in self.rows]

    def table(self) -> str:
        header = f"{'k':>3} {'N_k':>12} {'deg_k':>8} {'gates':>10} " \
                 f"{'bound_factor':>14}"
        body = [f"{r.k:>3} {r.alphabet_size:>12} {r.degree:>8} "
                f"{r.gates:>10} {r.bound_factor:>14}" for r in self.rows]
        note = ("bound factor per decode stage: 2*q^3 + q^2 with "
                "q = 2*N_{k+1} + 1 (exponent 3, plain matrix product)")
        return "\n".join([header, *body, note]) + "\n"


def lift_report(params: LiftParams, stages: Sequence) -> LiftReport:
    """Assemble the N_k / deg_k / measured-size table for one chain: a
    circuit stage is measured by its gates, a polynomial by its terms."""
    sizes = params.alphabet_sizes
    degs = params.degrees
    if len(stages) != params.d + 1:
        raise ValueError(f"expected {params.d + 1} stages, got "
                         f"{len(stages)}")
    rows = []
    for k, stage in enumerate(stages):
        if isinstance(stage, NCPolynomial):
            size = len(stage.terms)
        else:
            size = stage.size_report().gates
        rows.append(StageRow(k, sizes[k], degs[k], size,
                             params.bound_factor(k)))
    return LiftReport(params, tuple(rows))


# ---------------------------------------------------------------------------
# Seeded input families.

@dataclass(frozen=True)
class SampleFamily:
    """A concrete input polynomial and the circuit that computes it."""

    kind: str
    poly: NCPolynomial
    circuit: Circuit


SAMPLE_KINDS = ("sum-of-squares", "random-sparse", "single-monomial")
DEFAULT_SEED = 1729


def sample_family(kind: str, N: int, t: int, seed: int, *,
                  terms: int = 5, index: int | None = None,
                  modulus: int = DEFAULT_MODULUS) -> SampleFamily:
    """Deterministic sample inputs over N variables.

    sum-of-squares: x_0 x_0 + ... + x_{N-1} x_{N-1} (degree 2).
    random-sparse: `terms` distinct seeded words, degree exactly t;
    drawing stops after 100 * terms attempts, or once the family holds
    every word of length 1..t, so asking for more words than exist
    returns them all.
    single-monomial: the one word of length t whose letters are the
    base-N digits of `index` (seeded when index is None).
    Before anything is drawn, BudgetError refuses a sum of squares over
    N > DEFAULT_MAX_TERMS, terms > DEFAULT_MAX_TERMS, and a single
    monomial of t > MAX_CHAIN_SIZE letters.
    """
    require_prime_modulus(modulus)
    N, t, terms = operator.index(N), operator.index(t), operator.index(terms)
    if index is not None:
        index = operator.index(index)
    if N < 1:
        raise ValueError(f"need at least one variable, got {N}")
    if t < 1:
        raise ValueError(f"degree must be positive, got {t}")
    x = Alphabet("X", N)
    rng = random.Random(seed)

    if kind == "sum-of-squares":
        if N > DEFAULT_MAX_TERMS:
            raise BudgetError(f"sum-of-squares over {N} variables has {N} "
                              f"terms, budget is {DEFAULT_MAX_TERMS}")
        body = {(i, i): 1 for i in range(N)}
    elif kind == "single-monomial":
        if t > MAX_CHAIN_SIZE:
            raise BudgetError(f"a single monomial of {t} letters exceeds "
                              f"the chain budget of {MAX_CHAIN_SIZE}")
        if index is None:
            index = rng.randrange(N ** t)
        body = {index_to_word(index, N, t): 1}
    elif kind == "random-sparse":
        if terms < 1:
            raise ValueError(f"need at least one term, got {terms}")
        if terms > DEFAULT_MAX_TERMS:
            raise BudgetError(f"{terms} terms exceed the budget of "
                              f"{DEFAULT_MAX_TERMS}")
        words = 0    # words of length 1..t, counted up to terms
        for length in range(1, t + 1):
            words += N ** length
            if words >= terms:
                break
        body = {}
        attempts = 0
        while len(body) < min(terms, words):
            attempts += 1
            if attempts > 100 * terms:
                break
            length = t if not body else rng.randint(1, t)
            w = tuple(rng.randrange(N) for _ in range(length))
            if w not in body:
                body[w] = rng.randrange(1, modulus) if modulus > 2 else 1
    else:
        raise ValueError(f"unknown sample kind {kind!r}; choose from "
                         f"{', '.join(SAMPLE_KINDS)}")

    poly = NCPolynomial(x, modulus, body, _trusted=True)
    circuit = circuit_from_poly(poly, name=f"{kind}-{N}-{t}-{seed}")
    return SampleFamily(kind, poly, circuit)
