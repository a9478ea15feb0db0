"""Independent equivalence oracles for circuits.

Brute mode expands both circuits, each word keyed by its code, and
compares the two maps; it is exact but budget-bound.  Random mode
evaluates c1 - c2 at random matrix tuples whose dimension exceeds half
the syntactic degree, the threshold below which matrix algebras can
satisfy nontrivial identities; a nonzero value is proof of
distinctness, zero on all trials is probabilistic evidence of
equality.  The difference is one circuit on one table of the pair's
distinct nodes, so a node the two circuits share is evaluated once per
point, and the trials after the first are evaluated side by side, many
points in one replay.  Distinct verdicts always carry a witness that
reproduces the disagreement on its own.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .circuits import (ADD, CONST, MUL, Circuit, DEFAULT_MAX_DEGREE,
                       DEFAULT_MAX_TERMS, Node, decode_word,
                       eval_matrix_residues, expand_codes, letter_bits)
from .errors import BudgetError
from .polynomials import Word

MODE_BRUTE = "brute"
MODE_RANDOM = "random"

EQUAL = "equal"
DISTINCT = "distinct"
INCONCLUSIVE = "inconclusive-budget"

# The most points one random-mode evaluation holds.  replay keeps every
# node's value, and each value holds all its points' matrices, so the
# chunk, not only the point budget, sets the memory a long run of
# trials takes.
MAX_CHUNK_POINTS = 16


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
    """Expand both circuits and compare them word by word.

    The expansions are compared as expand_codes' maps, keyed by word
    code; the witness is the length-lex least word whose coefficients
    differ, the least differing code, and only it is decoded.
    """
    _check_comparable(c1, c2)
    try:
        t1 = expand_codes(c1, max_degree, max_terms)
        t2 = expand_codes(c2, max_degree, max_terms)
    except BudgetError:
        return EquivVerdict(MODE_BRUTE, INCONCLUSIVE)
    if t1 == t2:
        return EquivVerdict(MODE_BRUTE, EQUAL)
    differ = [w for w, c in t1.items() if t2.get(w) != c]
    differ += [w for w in t2 if w not in t1]
    bits = letter_bits(c1.alphabet.size)
    return EquivVerdict(MODE_BRUTE, DISTINCT,
                        Word(c1.alphabet, decode_word(min(differ), bits)))


def random_matrix_point(vars_used: list[int], dim: int, modulus: int,
                        rng: random.Random) -> MatrixPoint:
    """One dim x dim matrix per variable, drawn variable by variable
    and row by row.  Each entry is drawn by rejection from
    rng.getrandbits(modulus.bit_length()), which is the value and the
    generator state rng.randrange(modulus) leaves on CPython 3.10-3.13,
    without its per-call overhead."""
    bits = modulus.bit_length()
    getrandbits = rng.getrandbits
    cells = []
    for _ in range(len(vars_used) * dim * dim):
        r = getrandbits(bits)
        while r >= modulus:
            r = getrandbits(bits)
        cells.append(r)
    rows = [tuple(cells[k:k + dim]) for k in range(0, len(cells), dim)]
    mats = tuple(zip(vars_used, (tuple(rows[k:k + dim])
                                 for k in range(0, len(rows), dim))))
    return MatrixPoint(dim, mats)


def difference_circuit(c1: Circuit, c2: Circuit) -> Circuit:
    """c1 - c2 as one circuit over one table of the pair's distinct nodes.

    Both circuits' nodes are hash-consed in order: a leaf is keyed by
    itself, (op, index or residue, 0), and a gate by its op and its
    children's merged ids, so a node the two share, or a circuit's own
    repeated node, appears once.  Three nodes follow, for
    o1 + (p - 1) * o2; eval_matrix_residues evaluates the product by a
    constant as a scaling.  The pair must read one alphabet size under
    one modulus; both were checked when built, so their merged nodes
    are not checked again.
    """
    _check_comparable(c1, c2)
    nodes: list[Node] = []
    ids: dict[Node, int] = {}

    def merge(circuit: Circuit) -> int:
        merged: list[int] = []
        for node in circuit.nodes:
            op, a, b = node
            if op == ADD or op == MUL:
                node = (op, merged[a], merged[b])
            nid = ids.get(node)
            if nid is None:
                nid = ids[node] = len(nodes)
                nodes.append(node)
            merged.append(nid)
        return merged[circuit.output]

    o1, o2 = merge(c1), merge(c2)
    k = len(nodes)
    nodes += [(CONST, c1.modulus - 1, 0), (MUL, k, o2), (ADD, o1, k + 1)]
    return Circuit("difference", c1.alphabet, c1.modulus, tuple(nodes),
                   k + 2, _trusted=True)


def circuit_equiv_random(c1: Circuit, c2: Circuit, trials: int = 10,
                         dim: int | None = None,
                         seed: int = 0) -> EquivVerdict:
    """Identity test of c1 - c2 at random matrix points over Z_p.

    The difference is built first, as difference_circuit, and it alone
    is walked after that: its table holds every node of both circuits,
    reachable or not, so its degree is the larger of the two and its
    variables are every variable either circuit names.  dim defaults
    to floor(that degree / 2) + 1 and may not be set lower: smaller
    algebras satisfy identities of that degree, so agreement there
    proves nothing.  A point holds dim*dim residues per variable;
    points of more than DEFAULT_MAX_TERMS residues raise BudgetError
    before any is drawn.

    Chunks: the first trial is evaluated alone, so a distinct pair
    stops after one evaluation; the rest are drawn in order and
    evaluated in chunks of at most MAX_CHUNK_POINTS points, and no
    more than fit DEFAULT_MAX_TERMS residues, one eval_matrix_residues
    call per chunk.  The witness is the first point, in draw order,
    whose value is nonzero.
    """
    difference = difference_circuit(c1, c2)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    needed = difference.degree_bound() // 2 + 1
    if dim is None:
        dim = needed
    elif dim < needed:
        raise ValueError(f"dimension {dim} below the identity-testing "
                         f"threshold {needed} for these degrees")
    vars_used = sorted(difference.used_vars())
    cells = dim * dim * max(len(vars_used), 1)
    if cells > DEFAULT_MAX_TERMS:
        raise BudgetError(f"dimension {dim} needs {cells} matrix entries, "
                          f"budget is {DEFAULT_MAX_TERMS}")
    modulus = c1.modulus
    rng = random.Random(seed)
    chunk = 1
    while trials:
        points = [random_matrix_point(vars_used, dim, modulus, rng)
                  for _ in range(min(chunk, trials))]
        values = eval_matrix_residues(
            difference, [point.as_dict() for point in points], dim)
        for point, rows in zip(points, values):
            if any(map(any, rows)):
                return EquivVerdict(MODE_RANDOM, DISTINCT, point)
        trials -= len(points)
        chunk = min(MAX_CHUNK_POINTS, DEFAULT_MAX_TERMS // cells)
    return EquivVerdict(MODE_RANDOM, EQUAL)
