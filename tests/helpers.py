"""Independent oracles and generators used across the test suite.

Everything here recomputes results from definitions (word enumeration,
explicit path enumeration) and deliberately avoids the faster code
paths under test.
"""

from nclift import (Alphabet, NCPolynomial, Transition, Weight,
                    WeightedAutomaton)

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
        term = NCPolynomial.constant(f.coeff(w).value, alphabet, modulus)
        for i in w.letters:
            term = term * images[i]
        out = out + term
    return out


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
