"""Independent oracles and generators used across the test suite.

Everything here recomputes results from definitions (word enumeration,
explicit path enumeration) and deliberately avoids the faster code
paths under test.
"""

import operator
import random
from pathlib import Path

from nclift import (Alphabet, BudgetError, Circuit, CircuitBuilder,
                    EquivVerdict, FormatError, MatrixPoint, NCPolynomial,
                    Transition, Weight, WeightedAutomaton)
from nclift.circuits import (_MAX_PRODUCT_PAIRS, ADD, CONST,
                             DEFAULT_MAX_DEGREE, DEFAULT_MAX_TERMS, MUL, VAR,
                             replay)
from nclift.polynomials import Word, add_maps, echo, is_digits, mul_maps
from nclift.scalars import require_prime_modulus
from nclift.verify import (DISTINCT, EQUAL, INCONCLUSIVE, MODE_BRUTE,
                           MODE_RANDOM, _check_comparable)

# The nine lines `nclift accept` prints at the default seed and modulus,
# byte for byte; CI diffs the command's stdout against the same file.
ACCEPT_LINES = Path(__file__).with_name("accept_lines.txt")

# sha256 of format_automaton(build_decoder(n, d)) at the default
# modulus: state numbering, transition order and weights all show here.
DECODER_SHA256 = {
    (1, 1): "6c0a709723e523e2476460d685ef36fe9878981fe84faba6e080d8e1ec7ddbcc",
    (2, 1): "92d7a465623e35b32029230c72df82c223e7f31e90ad1525f5327ebc39586f44",
    (3, 1): "06278105d7c765a74b6929899ba43e6cee6b6fbc29bf7565614977a4d0ae083e",
    (8, 1): "6201b0c22b3f5020fe6fcf6e3cdfcc4be12fb447079738b9e9c4a51dc819d9fa",
    (2, 2): "5185a2ccec2968278621511e3fc48ddf61d8e448e1f99bea1e18a8a9cdded38c",
    (3, 2): "1a7cbb479b0461af54cfd2d944013b8749c5e5258694c3a15cd4c875c87086d4",
}


def random_poly(rng, alphabet, modulus, *, max_len=4, terms=6):
    body = {}
    for _ in range(terms):
        k = rng.randrange(max_len + 1)
        w = tuple(rng.randrange(alphabet.size) for _ in range(k))
        body[w] = rng.randrange(modulus)
    return NCPolynomial(alphabet, modulus, body)


def poly_substitute(f, images, alphabet, modulus):
    """Replace x_i by images[i], multiplying letters left to right."""
    out = NCPolynomial.zero(alphabet, modulus)
    for w in f.support():
        term = NCPolynomial.constant(f.coeff(w), alphabet, modulus)
        for i in w:
            term = term * images[i]
        out = out + term
    return out


def mul_maps_pairwise(a, b, p):
    """Product of two term maps, one running sum per word over every
    pair of terms; zero sums dropped at the end.  The oracle that
    polynomials.mul_maps is tested against."""
    out = {}
    for u, cu in a.items():
        for v, cv in b.items():
            out[u + v] = (out.get(u + v, 0) + cu * cv) % p
    return {w: c for w, c in out.items() if c}


def matrix_value_of_poly(f, mats, dim, p):
    """Evaluate a polynomial at integer matrices mod p, word by word.

    Each word adds coeff * M_{w_1} * ... * M_{w_k}, multiplied left to
    right; the empty word adds coeff * I.  The order-respecting oracle
    that circuit evaluation is tested against.
    """
    dims = range(dim)
    acc = [[0] * dim for _ in dims]
    for word, c in sorted(f.terms.items()):
        prod = [[int(i == j) for j in dims] for i in dims]
        for letter in word:
            m = mats[letter]
            prod = [[sum(prod[i][k] * m[k][j] for k in dims) % p
                     for j in dims] for i in dims]
        acc = [[(a + c * e) % p for a, e in zip(ra, re)]
               for ra, re in zip(acc, prod)]
    return acc


def reference_eval_matrix_residues(circuit, mats, dim, p):
    """Evaluate a circuit at dim x dim integer matrices mod p, one
    residue at a time; return the rows.

    Each value is one flat row-major list of dim*dim residues: a sum is
    one pass over both lists, and each cell of a product is the dot
    product of a row slice of the left factor and a column slice
    (every dim-th residue) of the right.  The list kernel that
    circuits.eval_matrix_residues replaced with packed ints, kept as
    the oracle it is tested against.
    """
    flat = {v: [x % p for row in m for x in row] for v, m in mats.items()}
    starts = range(0, dim * dim, dim)

    def const(c):
        out = [0] * (dim * dim)
        out[::dim + 1] = [c % p] * dim
        return out

    def mul(a, b):
        rows = [a[i:i + dim] for i in starts]
        cols = [b[j::dim] for j in range(dim)]
        return [sum(map(operator.mul, row, col)) % p
                for row in rows for col in cols]

    value = replay(circuit, flat.__getitem__, const,
                   lambda a, b: [(x + y) % p for x, y in zip(a, b)], mul)
    return [value[i:i + dim] for i in starts]


def word_code(letters, bits):
    """A word's code, one letter at a time: 1, then each letter shifted
    in below the ones before it.  The definition circuits.decode_word
    inverts, written apart from it."""
    code = 1
    for letter in letters:
        code = code << bits | letter
    return code


def fourth_power_of_sum(k, p):
    """(x0 + ... + x_{k-1})^4 over k letters, as a square squared: 2k - 1
    nodes for the sum, then the square (node 2k - 1) and the fourth
    power (node 2k), whose product pairs k^2 by k^2 terms."""
    b = CircuitBuilder(Alphabet("X", k), p)
    total = b.var(0)
    for i in range(1, k):
        total = b.add(total, b.var(i))
    square = b.mul(total, total)
    return b.finish(b.mul(square, square))


# ---------------------------------------------------------------------------
# Expansion and brute-mode identity testing as they stood before expansion
# keyed words by code: every term a letter tuple, every product through
# polynomials.mul_maps, and the witness found as the least of the
# shortest differing words.  The oracles that circuits.expand,
# circuits.expand_codes and verify.circuit_equiv_brute are tested against.

def reference_expand(circuit, max_degree=DEFAULT_MAX_DEGREE,
                     max_terms=DEFAULT_MAX_TERMS):
    p = circuit.modulus

    def checked(t: dict) -> dict:
        if t:
            deg = max(map(len, t))
            if deg > max_degree:
                raise BudgetError(f"degree {deg} exceeds budget "
                                  f"{max_degree}")
        if len(t) > max_terms:
            raise BudgetError(f"{len(t)} terms exceed budget {max_terms}")
        return t

    def const(c: int) -> dict:
        c %= p
        return checked({(): c} if c else {})

    def mul(a: dict, b: dict) -> dict:
        if len(a) * len(b) > _MAX_PRODUCT_PAIRS:
            raise BudgetError(f"product of {len(a)} x {len(b)} terms "
                              f"exceeds the convolution budget")
        return checked(mul_maps(a, b, p))

    terms = replay(circuit, lambda v: checked({(v,): 1}), const,
                   lambda a, b: checked(add_maps(a, b, p)), mul)
    return NCPolynomial(circuit.alphabet, p, terms, _trusted=True)


def reference_circuit_equiv_brute(c1, c2, max_degree=DEFAULT_MAX_DEGREE,
                                  max_terms=DEFAULT_MAX_TERMS):
    _check_comparable(c1, c2)
    try:
        f1 = reference_expand(c1, max_degree, max_terms)
        f2 = reference_expand(c2, max_degree, max_terms)
    except BudgetError:
        return EquivVerdict(MODE_BRUTE, INCONCLUSIVE)
    if f1 == f2:
        return EquivVerdict(MODE_BRUTE, EQUAL)
    t1, t2 = f1.terms, f2.terms
    differ = [w for w, c in t1.items() if t2.get(w) != c]
    differ += [w for w in t2 if w not in t1]
    shortest = min(map(len, differ))
    witness = min(w for w in differ if len(w) == shortest)
    return EquivVerdict(MODE_BRUTE, DISTINCT, Word(f1.alphabet, witness))


# ---------------------------------------------------------------------------
# Random-mode identity testing as it stood before it evaluated one
# difference circuit: each point drawn by nested comprehensions of
# rng.randrange, each trial evaluating both circuits, one point at a
# time in the list kernel, and comparing the rows.  The oracle that
# verify.random_matrix_point and verify.circuit_equiv_random are tested
# against.

def reference_random_matrix_point(vars_used, dim, modulus, rng):
    mats = tuple(
        (v, tuple(tuple(rng.randrange(modulus) for _ in range(dim))
                  for _ in range(dim)))
        for v in vars_used)
    return MatrixPoint(dim, mats)


def reference_circuit_equiv_random(c1, c2, trials=10, dim=None, seed=0):
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
        point = reference_random_matrix_point(vars_used, dim, modulus, rng)
        mats = point.as_dict()
        a = reference_eval_matrix_residues(c1, mats, dim, modulus)
        b = reference_eval_matrix_residues(c2, mats, dim, modulus)
        if a != b:
            return EquivVerdict(MODE_RANDOM, DISTINCT, point)
    return EquivVerdict(MODE_RANDOM, EQUAL)


def weight_poly(w, x_alphabet, modulus):
    if w.var is None:
        return NCPolynomial.constant(w.coeff, x_alphabet, modulus)
    return NCPolynomial.monomial((w.var,), w.coeff, x_alphabet, modulus)


def coeff_by_paths(auto, word):
    """Sum over every accepting state path labelled by `word` of the
    left-to-right product of its transition weights."""
    p = auto.modulus
    X = auto.x_alphabet
    total = NCPolynomial.zero(X, p)

    def walk(state, pos, prefix):
        nonlocal total
        if pos == len(word):
            if state == auto.accept:
                total = total + prefix
            return
        for t in auto.transitions:
            if t.source == state and t.letter == word[pos]:
                walk(t.target, pos + 1, prefix * weight_poly(t.weight, X, p))

    walk(auto.start, 0, NCPolynomial.constant(1, X, p))
    return total


def random_automaton(rng, *, states=4, letters=2, xvars=3, modulus=97,
                     arrows=10):
    # Distinct (source, letter, target) triples: parallel arrows in
    # different variables are rejected by the automaton constructor.
    if arrows > states * letters * states:
        raise ValueError(f"{arrows} arrows need distinct triples, "
                         f"{states} states and {letters} letters have "
                         f"{states * letters * states}")
    triples = set()
    while len(triples) < arrows:
        triples.add((rng.randrange(states), rng.randrange(letters),
                     rng.randrange(states)))
    trans = []
    for s, a, t in sorted(triples):
        if rng.random() < 0.4:
            w = Weight(rng.randrange(1, modulus))
        else:
            w = Weight(rng.randrange(1, modulus), rng.randrange(xvars))
        trans.append(Transition(s, a, t, w))
    return WeightedAutomaton(Alphabet("Y", letters), Alphabet("X", xvars),
                             modulus, states, rng.randrange(states),
                             rng.randrange(states), tuple(trans))


# ---------------------------------------------------------------------------
# The circuit text parser as it stood before its body became one loop over
# pre-split lines: read_text's header and body iteration and parse_circuit,
# kept as the oracle the current parser is tested against.  Its messages
# echo tokens and lines through polynomials.echo, as the parser's do.  It
# differs in one message only: a known node kind with the wrong number of
# arguments reads "bad node kind '<kind>'" here.

def reference_read_text(text, keys):
    """A file's header values and its body lines.

    keys lays the header out: a string is a keyword, str marks a name
    and int a count.  Values come back in order, counts as ints.  The
    body is an iterator of (line number, text) pairs, with comments cut
    off and blank lines left out.
    """
    kind = keys[0]
    lines = text.splitlines()
    if not lines:
        raise FormatError(f"empty {kind} file")
    toks = lines[0].split()
    values = []
    if len(toks) == len(keys):
        for tok, key in zip(toks, keys):
            if key is str:
                values.append(tok)
            elif key is int and is_digits(tok):
                values.append(int(tok))
            elif key != tok:
                break
        else:
            return values, ((lineno, line) for lineno, raw
                            in enumerate(lines[1:], start=2)
                            if (line := raw.split("#", 1)[0]).strip())
    raise FormatError(f"bad {kind} header: {echo(lines[0])}")


def reference_parse_circuit(text):
    (name, aname, size, modulus), body = reference_read_text(
        text, ("circuit", str, "over", str, "vars", int, "modulus", int))
    try:
        alphabet = Alphabet(aname, size)
        require_prime_modulus(modulus)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc

    nodes = []
    output = None
    for lineno, line in body:
        toks = line.split()
        if toks[0] == "output":
            if output is not None:
                raise FormatError(f"line {lineno}: duplicate output line")
            if len(toks) != 2 or not is_digits(toks[1]):
                raise FormatError(f"line {lineno}: bad output line")
            output = int(toks[1])
            continue
        if toks[0] != "node" or len(toks) < 4 or not is_digits(toks[1]):
            raise FormatError(f"line {lineno}: expected a node line")
        nid = int(toks[1])
        if nid != len(nodes):
            raise FormatError(f"line {lineno}: node ids must be dense and "
                              f"ascending (expected {len(nodes)}, got {nid})")
        kind, args = toks[2], toks[3:]
        if len(args) == 2 and (kind == ADD or kind == MUL):
            lhs, rhs = args
            if is_digits(lhs) and is_digits(rhs):
                nodes.append((ADD if kind == ADD else MUL, int(lhs),
                              int(rhs)))
                continue
        elif len(args) == 1 and kind == VAR:
            if is_digits(args[0]):
                nodes.append((VAR, int(args[0]), 0))
                continue
        elif len(args) == 1 and kind == CONST:
            if is_digits(args[0].removeprefix("-")):
                nodes.append((CONST, int(args[0]) % modulus, 0))
                continue
        else:
            raise FormatError(f"line {lineno}: bad node kind {echo(kind)}")
        raise FormatError(f"line {lineno}: bad node arguments")
    if output is None:
        raise FormatError("missing output line")
    try:
        return Circuit(name, alphabet, modulus, tuple(nodes), output)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
