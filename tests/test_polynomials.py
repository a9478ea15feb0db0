import pytest
from hypothesis import given
from hypothesis import strategies as st

from nclift import DEFAULT_MODULUS, Alphabet, NCPolynomial, Word
from nclift.polynomials import length_lex_key, mul_maps

from helpers import mul_maps_pairwise, random_poly

MODULI = [7, DEFAULT_MODULUS]
X3 = Alphabet("X", 3)

words = st.lists(st.integers(0, 2), max_size=4).map(tuple)
term_maps = st.dictionaries(words, st.integers(-50, 50), max_size=5)


def polys(p):
    return term_maps.map(lambda t: NCPolynomial(X3, p, t))


@pytest.mark.parametrize("p", MODULI)
@given(data=st.data())
def test_ring_laws(p, data):
    f = data.draw(polys(p))
    g = data.draw(polys(p))
    h = data.draw(polys(p))
    assert f + g == g + f
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert (f + g) * h == f * h + g * h
    zero = NCPolynomial.zero(X3, p)
    one = NCPolynomial.constant(1, X3, p)
    assert f + zero == f
    assert f * one == f == one * f
    assert f - f == zero
    assert -(-f) == f
    assert f - g == f + (-g)


@pytest.mark.parametrize("p", MODULI)
@given(data=st.data())
def test_scalar_action(p, data):
    f = data.draw(polys(p))
    c = data.draw(st.integers(-20, 20))
    assert c * f == f * c == f.scale(c) == f.scale(c + p)
    assert f.scale(0).is_zero()


def test_multiplication_respects_order():
    p = 7
    x0 = NCPolynomial.variable(0, X3, p)
    x1 = NCPolynomial.variable(1, X3, p)
    assert x0 * x1 != x1 * x0
    assert (x0 * x1).coeff((0, 1)) == 1
    assert (x0 * x1).coeff((1, 0)) == 0


def test_mul_maps_matches_pairwise_oracle(rng):
    cases = [({(): 1, (0,): 1}, {(0,): 1, (): 4}, 5),  # x0 cancels mod 5
             ({}, {(0,): 3}, 7), ({(1,): 2}, {}, 7), ({}, {}, 7)]
    for trial in range(200):
        p = (5, 7, DEFAULT_MODULUS)[trial % 3]
        a, b = (random_poly(rng, X3, p, max_len=4, terms=8).terms
                for _ in range(2))
        cases.append((a, b, p))
    for a, b, p in cases:
        assert mul_maps(a, b, p) == mul_maps_pairwise(a, b, p)
    assert mul_maps({(): 1, (0,): 1}, {(0,): 1, (): 4}, 5) == {
        (): 4, (0, 0): 1}


@pytest.mark.parametrize("p", MODULI)
@given(data=st.data())
def test_leading_word_and_degree_multiplicative(p, data):
    # The free algebra over a field has no zero divisors: the leading
    # word of a product is the concatenation of the leading words.
    f = data.draw(polys(p))
    g = data.draw(polys(p))
    if f.is_zero() or g.is_zero():
        assert (f * g).is_zero()
        return
    prod = f * g
    assert prod.degree == f.degree + g.degree
    assert prod.leading_word() == f.leading_word() + g.leading_word()


def test_degree_conventions():
    p = 7
    assert NCPolynomial.zero(X3, p).degree == 0
    assert NCPolynomial.constant(3, X3, p).degree == 0
    assert NCPolynomial.monomial((1, 2, 0), 1, X3, p).degree == 3
    assert NCPolynomial.zero(X3, p).leading_word() is None


def test_canonical_form_drops_zeros():
    p = 7
    f = NCPolynomial(X3, p, {(0,): 7, (1,): 3})
    assert f.support() == [(1,)]
    g = NCPolynomial(X3, p, {(1,): 3})
    assert f == g
    assert NCPolynomial(X3, p, {(0, 1): 14}).is_zero()


def test_support_is_length_lex_sorted():
    p = 7
    f = NCPolynomial(X3, p, {(2,): 1, (0, 1): 1, (): 1, (1,): 1})
    assert f.support() == [(), (1,), (2,), (0, 1)]


@given(f=polys(7))
def test_support_and_leading_word_are_letter_tuples(f):
    support = f.support()
    assert support == sorted(f.terms, key=length_lex_key)
    assert all(type(w) is tuple for w in support)
    assert f.leading_word() == (support[-1] if support else None)


def test_word_is_not_a_word_key():
    # A Word is brute mode's witness record; polynomials take tuples.
    f = NCPolynomial(X3, 7, {(0, 1): 2})
    w = Word(X3, (0, 1))
    with pytest.raises(TypeError):
        f.coeff(w)
    with pytest.raises(TypeError):
        NCPolynomial(X3, 7, {w: 2})
    assert f.coeff(w.letters) == 2


@pytest.mark.parametrize("p", MODULI)
@given(data=st.data())
def test_evaluate_is_ring_hom_at_scalars(p, data):
    f = data.draw(polys(p))
    g = data.draw(polys(p))
    point = [data.draw(st.integers(0, p - 1)) for _ in range(3)]
    a, b = f.evaluate(point), g.evaluate(point)
    assert (f + g).evaluate(point) == (a + b) % p
    # Scalars commute, so evaluation is multiplicative there.
    assert (f * g).evaluate(point) == a * b % p


def test_evaluate_known_value():
    p = 101
    f = NCPolynomial(Alphabet("X", 2), p, {(): 5, (0, 1): 2, (1,): 3})
    # 5 + 2*4*7 + 3*7 = 82
    assert f.evaluate([4, 7]) == 82
    assert f.evaluate({0: 4, 1: 7}) == 82
    assert f.evaluate([4 - p, 7 + 3 * p]) == 82


def test_evaluate_checks_the_assignment():
    p = DEFAULT_MODULUS
    f = NCPolynomial.variable(0, Alphabet("X", 1), p)
    g = NCPolynomial(Alphabet("X", 2), 7, {(0, 1): 1})
    for point in ([4], {0: 4}):
        with pytest.raises(ValueError,
                           match="^variable x1 has no assigned value$"):
            g.evaluate(point)


def test_values_must_be_ints():
    # A float, str or other non-integer is refused, never truncated.
    f = NCPolynomial(X3, 7, {(0,): 2, (1, 2): 3})
    with pytest.raises(TypeError):
        NCPolynomial(X3, 7, {(0,): 2.7})
    with pytest.raises(TypeError):
        NCPolynomial(X3, 7, {(0,): "2"})
    with pytest.raises(TypeError):
        f.scale(2.0)
    with pytest.raises(TypeError):
        f * 2.0
    with pytest.raises(TypeError):
        2.0 * f
    for point in ([1.5, 1, 1], {0: 1, 1: 1.5, 2: 1}):
        with pytest.raises(TypeError):
            f.evaluate(point)
    assert type(f.coeff((0,))) is int
    assert type(f.evaluate([1, 1, 1])) is int


def test_letter_range_checked():
    with pytest.raises(ValueError):
        NCPolynomial(X3, 7, {(3,): 1})
    with pytest.raises(ValueError):
        NCPolynomial.variable(5, X3, 7)


def test_letters_must_be_ints():
    # A float letter would be written `x1.0`, which parse_poly refuses.
    with pytest.raises(TypeError):
        NCPolynomial(X3, 7, {(1.0,): 2})
    with pytest.raises(TypeError):
        NCPolynomial.variable(1.0, X3, 7)
    with pytest.raises(TypeError):
        Word(X3, (1.0,))
    with pytest.raises(TypeError):
        Word(X3, (0, "1"))
    # An int-like letter becomes a plain int.
    assert Word(X3, (True,)).letters == (1,)
    assert type(Word(X3, (True,)).letters[0]) is int
    f = NCPolynomial(X3, 7, {(True, 0): 2})
    assert f.terms == {(1, 0): 2}
    assert all(type(i) is int for w in f.terms for i in w)


def test_alphabet_size_must_be_an_int():
    # A float size would be written `vars 2.5`, which parse_circuit refuses.
    for size in (2.5, 2.0, "2"):
        with pytest.raises(TypeError):
            Alphabet("X", size)
    assert type(Alphabet("X", True).size) is int


def test_mixed_alphabet_and_modulus_rejected():
    f = NCPolynomial.variable(0, X3, 7)
    g = NCPolynomial.variable(0, Alphabet("X", 8), 7)
    h = NCPolynomial.variable(0, X3, 5)
    with pytest.raises(ValueError, match="^alphabet size mismatch: 8 vs 3$"):
        g + f
    with pytest.raises(ValueError, match="^modulus mismatch: 5 vs 7$"):
        h * f


def test_word_basics():
    u = Word(X3, (0, 1))
    v = Word(X3, (2,))
    assert str(u) == "x0 x1"
    assert str(v) == "x2"
    assert str(Word(X3, ())) == "1"
    # Same letters over an equal-sized alphabet compare equal.
    assert Word(Alphabet("Z", 3), (0, 1)) == u
