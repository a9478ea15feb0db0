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

import random
from dataclasses import dataclass
from typing import Callable, Sequence

from .automata import WeightedAutomaton, build_decoder, index_to_word
from .circuits import (AddNode, Circuit, InputNode, MulNode, Node,
                       circuit_from_poly)
from .hadamard import hadamard_bound, hadamard_circuit
from .polynomials import Alphabet, Letters, NCPolynomial
from .scalars import DEFAULT_MODULUS, require_prime_modulus


def exact_cube_root(n: int) -> int:
    """The integer m with m^3 = n, or ValueError if none exists."""
    if n < 1:
        raise ValueError(f"expected a positive cube, got {n}")
    m = round(n ** (1 / 3))
    for cand in (m - 1, m, m + 1):
        if cand >= 1 and cand ** 3 == n:
            return cand
    raise ValueError(f"{n} is not a perfect cube")


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
    digit, and every other node is kept with renumbered children.
    """
    if c.alphabet.size != m ** 3:
        raise ValueError(f"encoder with m={m} needs {m ** 3} variables, "
                         f"circuit has {c.alphabet.size}")
    nodes: list[Node] = []
    push = nodes.append
    new_id: list[int] = []    # where each node of c landed
    for node in c.nodes:
        if isinstance(node, InputNode):
            leaves: dict[int, int] = {}
            chain = -1
            for digit in encode_word(node.var, m):
                leaf = leaves.get(digit)
                if leaf is None:
                    leaf = leaves[digit] = len(nodes)
                    push(InputNode(digit))
                if chain < 0:
                    chain = leaf
                else:
                    push(MulNode(chain, leaf))
                    chain = len(nodes) - 1
            new_id.append(chain)
            continue
        if isinstance(node, AddNode):
            node = AddNode(new_id[node.lhs], new_id[node.rhs])
        elif isinstance(node, MulNode):
            node = MulNode(new_id[node.lhs], new_id[node.rhs])
        new_id.append(len(nodes))
        push(node)
    return Circuit(c.name, Alphabet(y_name, m), c.modulus, tuple(nodes),
                   new_id[c.output])


def encode_stages(obj, n: int, d: int):
    """The whole chain [stage 0, ..., stage d]; stage 0 is obj itself."""
    if n < 1:
        raise ValueError(f"alphabet size must be positive, got {n}")
    if d < 0:
        raise ValueError(f"depth must be nonnegative, got {d}")
    size = obj.alphabet.size
    if size != n ** (3 ** d):
        raise ValueError(f"a depth-{d} chain down to {n} letters starts "
                         f"from {n ** (3 ** d)} variables, got {size}")
    stages = [obj]
    for k in range(1, d + 1):
        m = exact_cube_root(stages[-1].alphabet.size)
        y_name = f"Y{k}"
        if isinstance(obj, NCPolynomial):
            stages.append(encode_poly(stages[-1], m, y_name=y_name))
        else:
            stages.append(encode_circuit(stages[-1], m, y_name=y_name))
    return stages


def iterate_encoder(obj, n: int, d: int):
    """d-fold encoding of a polynomial or circuit down to n letters."""
    return encode_stages(obj, n, d)[-1]


def chain_decoders(n: int, d: int, modulus: int, *, one_shot: bool = False,
                   **caps) -> list[WeightedAutomaton]:
    """The decoders that undo a depth-d chain down to n letters.

    In the order they apply: the decoders on n, n^3, ..., n^(3^(d-1))
    letters, or with one_shot the single build_decoder(n, d).  All are
    built before the caller synthesises anything, so a decoder over
    its budget fails the chain up front; the budget caps pass through
    as keyword arguments.
    """
    if one_shot:
        return [build_decoder(n, d, modulus=modulus, **caps)]
    return [build_decoder(n ** (3 ** k), modulus=modulus, **caps)
            for k in range(d)]


def _decode(c: Circuit, n: int, d: int, **options) -> Circuit:
    if c.alphabet.size != n:
        raise ValueError(f"decode chain starts from {n} letters, circuit "
                         f"has {c.alphabet.size}")
    for decoder in chain_decoders(n, d, c.modulus, **options):
        c = hadamard_circuit(c, decoder, name=c.name)
    return c


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
    """A depth-d chain over n letters starting from degree-t inputs."""

    n: int
    d: int
    t: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"alphabet size must be positive, got {self.n}")
        if self.d < 1:
            raise ValueError(f"depth must be positive, got {self.d}")
        if self.t < 1:
            raise ValueError(f"degree must be positive, got {self.t}")

    @property
    def variable_count(self) -> int:
        return self.n ** (3 ** self.d)

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
        return hadamard_bound(2 * self.alphabet_sizes[k + 1] + 1, 1, 1)


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


def lift_report(params: LiftParams,
                stage_gates: Sequence[int]) -> LiftReport:
    """Assemble the N_k / deg_k / measured-gates table for one chain."""
    sizes = params.alphabet_sizes
    degs = params.degrees
    if len(stage_gates) != params.d + 1:
        raise ValueError(f"expected {params.d + 1} stage sizes, got "
                         f"{len(stage_gates)}")
    rows = tuple(StageRow(k, sizes[k], degs[k], int(stage_gates[k]),
                          params.bound_factor(k))
                 for k in range(params.d + 1))
    return LiftReport(params, rows)


# ---------------------------------------------------------------------------
# Seeded input families, each with its own coefficient oracle.

@dataclass(frozen=True)
class SampleFamily:
    """A concrete input polynomial plus a membership-free coefficient map.

    coeff answers "what is the coefficient of this word" directly from
    the family's description, without expanding anything; it takes a
    tuple of letters and returns an integer residue.
    """

    kind: str
    poly: NCPolynomial
    circuit: Circuit
    coeff: Callable[[Sequence[int]], int]


SAMPLE_KINDS = ("sum-of-squares", "random-sparse", "single-monomial")


def sample_family(kind: str, N: int, t: int, seed: int, *,
                  terms: int = 5, index: int | None = None,
                  modulus: int = DEFAULT_MODULUS,
                  x_name: str = "X") -> SampleFamily:
    """Deterministic sample inputs over N variables.

    sum-of-squares: x_0 x_0 + ... + x_{N-1} x_{N-1} (degree 2).
    random-sparse: `terms` distinct seeded words, degree exactly t.
    single-monomial: the one word of length t whose letters are the
    base-N digits of `index` (seeded when index is None).
    """
    require_prime_modulus(modulus)
    if N < 1:
        raise ValueError(f"need at least one variable, got {N}")
    if t < 1:
        raise ValueError(f"degree must be positive, got {t}")
    x = Alphabet(x_name, N)
    rng = random.Random(seed)

    if kind == "sum-of-squares":
        body = {(i, i): 1 for i in range(N)}
    elif kind == "single-monomial":
        if index is None:
            index = rng.randrange(N ** t)
        body = {index_to_word(index, N, t): 1}
    elif kind == "random-sparse":
        if terms < 1:
            raise ValueError(f"need at least one term, got {terms}")
        body = {}
        attempts = 0
        while len(body) < terms:
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

    poly = NCPolynomial(x, modulus, dict(body), _trusted=True)
    circuit = circuit_from_poly(poly, name=f"{kind}-{N}-{t}-{seed}")

    def coeff(letters: Sequence[int]) -> int:
        return body.get(tuple(letters), 0)

    return SampleFamily(kind, poly, circuit, coeff)
