import hashlib
import random

import pytest

from nclift import (DEFAULT_MODULUS, Alphabet, LiftParams, NCPolynomial,
                    circuit_from_poly, decode_circuit, encode_circuit,
                    encode_poly, encode_stages, encode_word, exact_cube_root,
                    expand, format_circuit, index_to_word, iterate_decoder,
                    iterate_encoder, lift_report, one_shot_decode_circuit,
                    sample_family)
from nclift.lifting import SAMPLE_KINDS
from nclift.randcircuits import random_circuit

from helpers import poly_substitute, random_poly

P = DEFAULT_MODULUS


def test_encode_word_digits():
    assert encode_word(5, 2) == (1, 0, 1)
    assert encode_word(0, 3) == (0, 0, 0)
    assert encode_word(26, 3) == (2, 2, 2)


@pytest.mark.parametrize("m", [2, 3])
def test_encode_word_injective_exhaustive(m):
    images = {encode_word(i, m) for i in range(m ** 3)}
    assert len(images) == m ** 3
    assert all(len(w) == 3 for w in images)


def test_double_encode_is_binary_expansion():
    for i in range(512):
        f = NCPolynomial.variable(i, Alphabet("X", 512), P)
        lifted = iterate_encoder(f, 2, 2)
        assert [w.letters for w in lifted.support()] == [index_to_word(i, 2, 9)]


@pytest.mark.parametrize("m", [2, 3])
def test_encode_poly_matches_substitution_oracle(m, rng):
    X = Alphabet("X", m ** 3)
    Y = Alphabet("Y", m)
    images = {i: NCPolynomial.monomial(encode_word(i, m), 1, Y, P)
              for i in range(m ** 3)}
    for _ in range(50):
        f = random_poly(rng, X, P, max_len=3, terms=4)
        assert encode_poly(f, m) == poly_substitute(f, images, Y, P)


def test_encode_poly_triples_word_lengths(rng):
    X = Alphabet("X", 8)
    for _ in range(20):
        f = random_poly(rng, X, P, max_len=4, terms=4)
        enc = encode_poly(f, 2)
        lengths = {len(w.letters) for w in f.support()}
        assert {len(w.letters) for w in enc.support()} == {3 * k
                                                           for k in lengths}


def test_encode_circuit_agrees_with_encode_poly(rng):
    for m in (2, 3):
        X = Alphabet("X", m ** 3)
        for _ in range(25):
            c = random_circuit(X, P, rng, max_gates=10, max_degree=3)
            assert expand(encode_circuit(c, m)) == encode_poly(expand(c), m)


def test_decode_inverts_encode(rng):
    X = Alphabet("X", 8)
    for _ in range(20):
        c = random_circuit(X, P, rng, max_gates=10, max_degree=3)
        assert expand(decode_circuit(encode_circuit(c, 2), 2)) == expand(c)


def test_encode_bytes_are_pinned():
    """The text of every encoded stage, node order included, stays what
    it was when this digest was taken: digit leaves, their reuse when a
    digit repeats, and circuits that read no variable all show here."""
    rng = random.Random(8191)
    digest = hashlib.sha256()
    for n, d in ((2, 2), (3, 1)):
        N = n ** (3 ** d)
        X = Alphabet("X", N)
        circuits = [sample_family(kind, N, 3, 5, terms=12).circuit
                    for kind in SAMPLE_KINDS]
        circuits.append(circuit_from_poly(NCPolynomial.constant(3, X, P)))
        for i in range(40):
            p = (7, 97, P)[i % 3]
            circuits.append(random_circuit(X, p, rng, max_gates=15,
                                           max_degree=4))
        for c in circuits:
            for stage in encode_stages(c, n, d):
                digest.update(format_circuit(stage).encode())
    assert digest.hexdigest() == (
        "8c9aad491ce0c2d311739084e2e0d407692d6ce1ad6175276eab9951b15a7586")


def test_encode_requires_cube_alphabet():
    f = NCPolynomial.variable(0, Alphabet("X", 7), P)
    with pytest.raises(ValueError):
        encode_poly(f, 2)
    c = circuit_from_poly(NCPolynomial.variable(0, Alphabet("X", 9), P))
    with pytest.raises(ValueError):
        encode_circuit(c, 2)


def test_stage_chain_shapes():
    f = NCPolynomial.variable(3, Alphabet("X", 512), P)
    stages = encode_stages(f, 2, 2)
    assert len(stages) == 3
    assert [g.alphabet.size for g in stages] == [512, 8, 2]
    assert [g.alphabet.name for g in stages] == ["X", "Y1", "Y2"]
    assert stages[0] == f
    # Depth zero is the identity.
    assert iterate_encoder(f, 512, 0) == f
    with pytest.raises(ValueError):
        encode_stages(f, 2, 3)      # 512 != 2**27


def test_iterate_decoder_inverts_iterate_encoder(rng):
    X = Alphabet("X", 512)
    for _ in range(5):
        c = random_circuit(X, P, rng, max_gates=8, max_degree=2)
        lifted = iterate_encoder(c, 2, 2)
        assert expand(iterate_decoder(lifted, 2, 2)) == expand(c)
        assert expand(one_shot_decode_circuit(lifted, 2, 2)) == expand(c)


def test_exact_cube_root():
    assert exact_cube_root(1) == 1
    assert exact_cube_root(8) == 2
    assert exact_cube_root(10 ** 18) == 10 ** 6
    assert exact_cube_root((2 ** 18 + 1) ** 3) == 2 ** 18 + 1
    for bad in (2, 9, 10 ** 18 + 1):
        with pytest.raises(ValueError):
            exact_cube_root(bad)


def test_lift_params_bookkeeping():
    for n in (2, 3, 4):
        for d in (1, 2, 3):
            for t in (1, 2, 3):
                params = LiftParams(n, d, t)
                sizes = params.alphabet_sizes
                assert len(sizes) == d + 1
                assert sizes[0] == n ** (3 ** d) == params.variable_count
                assert sizes[-1] == n
                for k in range(d):
                    assert sizes[k] == sizes[k + 1] ** 3
                assert tuple(params.degrees) == tuple(
                    t * 3 ** k for k in range(d + 1))
                assert params.bound_factor(d) == 1
                for k in range(d):
                    q = 2 * sizes[k + 1] + 1
                    assert params.bound_factor(k) == 2 * q ** 3 + q ** 2
    with pytest.raises(ValueError):
        LiftParams(0, 1, 1)
    with pytest.raises(ValueError):
        LiftParams(2, 0, 1)


def test_lift_report_lines():
    params = LiftParams(2, 1, 2)
    report = lift_report(params, [3, 9])
    assert report.rows[0].line() == "stage k=0 N=8 deg=2 gates=3 bound_factor=275"
    assert report.rows[1].line() == "stage k=1 N=2 deg=6 gates=9 bound_factor=1"
    assert len(report.lines()) == 2
    assert "2*q^3 + q^2" in report.table()
    with pytest.raises(ValueError):
        lift_report(params, [3])


def test_sample_family_sum_of_squares():
    fam = sample_family("sum-of-squares", 4, 2, seed=0, modulus=P)
    X = Alphabet("X", 4)
    want = NCPolynomial(X, P, {(i, i): 1 for i in range(4)})
    assert fam.poly == want
    assert expand(fam.circuit) == want
    assert fam.coeff((2, 2)) == 1
    assert fam.coeff((0, 1)) == 0


def test_sample_family_single_monomial():
    fam = sample_family("single-monomial", 8, 3, seed=5, index=11, modulus=P)
    assert [w.letters for w in fam.poly.support()] == [index_to_word(11, 8, 3)]
    assert expand(fam.circuit) == fam.poly


def test_sample_family_random_sparse(rng):
    for seed in range(5):
        fam = sample_family("random-sparse", 8, 3, seed=seed, terms=4,
                            modulus=P)
        again = sample_family("random-sparse", 8, 3, seed=seed, terms=4,
                              modulus=P)
        assert fam.poly == again.poly          # seeded, reproducible
        assert fam.poly.degree == 3
        assert len(fam.poly.support()) <= 4
        assert expand(fam.circuit) == fam.poly
        for w in fam.poly.support():
            assert fam.coeff(w.letters) == fam.poly.coeff(w).value
        assert fam.coeff((7, 7, 7, 7, 7)) == fam.poly.coeff((7, 7, 7, 7, 7)).value


def test_sample_family_rejects_unknown_kind():
    with pytest.raises(ValueError):
        sample_family("mystery", 8, 2, seed=0)
