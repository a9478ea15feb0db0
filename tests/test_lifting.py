import hashlib
import random

import pytest

from nclift import (DEFAULT_MODULUS, Alphabet, BudgetError, CircuitBuilder,
                    LiftParams, NCPolynomial, circuit_from_poly, cli,
                    decode_circuit, encode_circuit, encode_poly,
                    encode_stages, encode_word, expand, format_circuit,
                    index_to_word, iterate_decoder, iterate_encoder,
                    lift_report, one_shot_decode_circuit, sample_family)
from nclift import lifting
from nclift.circuits import DEFAULT_MAX_TERMS
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
        assert lifted.support() == [index_to_word(i, 2, 9)]


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
        lengths = {len(w) for w in f.support()}
        assert {len(w) for w in enc.support()} == {3 * k for k in lengths}


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
    c = circuit_from_poly(NCPolynomial.variable(0, Alphabet("X", 3), P))
    with pytest.raises(ValueError, match="^encoder with m=2 needs 8 "
                                         "variables, circuit has 3$"):
        encode_circuit(c, 2)


def test_decode_refuses_another_letter_count():
    c = circuit_from_poly(NCPolynomial.variable(0, Alphabet("X", 8), P))
    for decode in (lambda: decode_circuit(c, 2),
                   lambda: iterate_decoder(c, 2, 1),
                   lambda: one_shot_decode_circuit(c, 2, 1)):
        with pytest.raises(ValueError, match="^decode chain starts from 2 "
                                             "letters, circuit has 8$"):
            decode()


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


@pytest.mark.parametrize("n, d", [(2, 5), (3, 5), (2, 7)])
def test_deep_chains_size_every_stage_exactly(n, d, capsys):
    # The top alphabets here are far past a float's 53-bit mantissa, so
    # each stage's size must come from integer arithmetic alone.
    sizes = [n ** (3 ** (d - k)) for k in range(d + 1)]
    fam = sample_family("single-monomial", sizes[0], 1, 1729)
    polys = encode_stages(fam.poly, n, d)
    circuits = encode_stages(fam.circuit, n, d)
    assert [f.alphabet.size for f in polys] == sizes
    assert [c.alphabet.size for c in circuits] == sizes
    assert expand(circuits[-1], max_degree=3 ** d) == polys[-1]
    argv = ["report", "--n", str(n), "--d", str(d), "--t", "1",
            "--kind", "single-monomial"]
    assert cli.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[2] for line in lines[:d + 1]] == [
        f"N={size}" for size in sizes]


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
    # x0 x1 + x1 x2 has 3 gates over 3 inputs, and encoding gives each
    # input two muls: the report measures 3 and 9 gates.
    b = CircuitBuilder(Alphabet("X", 8), P, name="g")
    c = b.finish(b.add(b.mul(b.var(0), b.var(1)),
                       b.mul(b.var(1), b.var(2))))
    stages = encode_stages(c, 2, 1)
    params = LiftParams(2, 1, 2)
    report = lift_report(params, stages)
    assert report.rows[0].line() == "stage k=0 N=8 deg=2 gates=3 bound_factor=275"
    assert report.rows[1].line() == "stage k=1 N=2 deg=6 gates=9 bound_factor=1"
    assert len(report.lines()) == 2
    assert "2*q^3 + q^2" in report.table()
    with pytest.raises(ValueError, match="^expected 2 stages, got 1$"):
        lift_report(params, stages[:1])


def test_sample_family_sum_of_squares():
    fam = sample_family("sum-of-squares", 4, 2, seed=0, modulus=P)
    X = Alphabet("X", 4)
    want = NCPolynomial(X, P, {(i, i): 1 for i in range(4)})
    assert fam.poly == want
    assert expand(fam.circuit) == want


def test_sample_family_sum_of_squares_budget(capsys):
    # Refused before any of the N terms is built.
    N = DEFAULT_MAX_TERMS + 1
    with pytest.raises(BudgetError, match=f"^sum-of-squares over {N} "
                                          f"variables has {N} terms, "
                                          f"budget is {DEFAULT_MAX_TERMS}$"):
        sample_family("sum-of-squares", N, 2, seed=0)
    # 59^3 = 205,379 variables: the report exits 3 and prints nothing.
    argv = ["report", "--n", "59", "--d", "1", "--t", "2", "--kind",
            "sum-of-squares"]
    assert cli.main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("nclift: budget exceeded: sum-of-squares over "
                            "205379 variables has 205379 terms, budget is "
                            "200000\n")


def test_chain_size_budget_is_the_printing_limit():
    """The report's largest number, bound_factor(0) = 16 n^3 + 28 n^2 +
    16 n + 3 at d = 1, may have 4300 digits and not 4301: n = 8 * 10^1432
    gives 8.19 * 10^4299 and n = 9 * 10^1432 gives 1.17 * 10^4301.  The
    bound is checked against a power of ten, so no refused size is
    printed, and each accepted report prints in full."""
    fits = LiftParams(8 * 10 ** 1432, 1, 1)
    # Polynomial stages are measured by their terms: 1 and 3.
    x = Alphabet("X", 2)
    stages = [NCPolynomial(x, P, {(0,): 1}),
              NCPolynomial(x, P, {(0,): 1, (1,): 1, (0, 1): 1})]
    report = lift_report(fits, stages)
    assert [row.gates for row in report.rows] == [1, 3]
    assert len(str(fits.bound_factor(0))) == 4300
    assert report.table().count("\n") == 4
    with pytest.raises(BudgetError, match=r"^a depth-1 chain down to 9\d+ "
                       r"letters has a decode bound factor of more than "
                       r"4300 decimal digits$"):
        LiftParams(9 * 10 ** 1432, 1, 1)
    # At d = 9 the variable count alone is over, and it is never built.
    with pytest.raises(BudgetError, match=r"^a depth-9 chain down to 2 "
                       r"letters has 2\^\(3\^9\) variables"):
        LiftParams(2, 9, 1)
    with pytest.raises(BudgetError, match=r"2\^\(3\^1000000\) variables"):
        encode_stages(sample_family("single-monomial", 2, 1, seed=0).circuit,
                      2, 10 ** 6)


def test_encode_stages_refuses_before_the_kept_size_budget(monkeypatch):
    """Stages of x0 over one letter keep 1, 3, 9 word letters; the
    budget refuses the stage that could take the total past it, before
    building it.  A circuit stage is bounded by 5x the one before."""
    x = NCPolynomial(Alphabet("X", 1), P, {(0,): 1})
    monkeypatch.setattr(lifting, "MAX_CHAIN_SIZE", 13)
    assert [sum(map(len, f.terms)) for f in encode_stages(x, 1, 2)] == \
        [1, 3, 9]
    monkeypatch.setattr(lifting, "MAX_CHAIN_SIZE", 12)
    with pytest.raises(BudgetError, match=r"^stage 2 of a depth-2 chain "
                       r"down to 1 letters could take the chain past 12 "
                       r"word letters$"):
        encode_stages(x, 1, 2)
    c = circuit_from_poly(x)
    assert len(c.nodes) == 1
    monkeypatch.setattr(lifting, "MAX_CHAIN_SIZE", 6)
    assert [len(s.nodes) for s in encode_stages(c, 1, 1)] == [1, 3]
    with pytest.raises(BudgetError, match=r"^stage 2 of a depth-2 chain "
                       r"down to 1 letters could take the chain past 6 "
                       r"nodes$"):
        encode_stages(c, 1, 2)


def test_sample_family_single_monomial():
    fam = sample_family("single-monomial", 8, 3, seed=5, index=11, modulus=P)
    assert fam.poly.support() == [index_to_word(11, 8, 3)]
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


def test_sample_family_rejects_unknown_kind():
    with pytest.raises(ValueError):
        sample_family("mystery", 8, 2, seed=0)


@pytest.mark.parametrize("kind, N, t, options", [
    ("random-sparse", 8, 2, {"terms": 2.5}),
    ("random-sparse", 8.0, 2, {}),
    ("random-sparse", 8, 2.0, {}),
    ("single-monomial", 8, 2, {"index": 3.0}),
])
def test_sample_family_counts_must_be_ints(kind, N, t, options):
    with pytest.raises(TypeError):
        sample_family(kind, N, t, 0, **options)


def test_lift_params_must_be_ints():
    # Kept, a float would print as N=8.0 and bound_factor=275.0.
    for n, d, t in ((2.0, 1, 1), (2, 1.0, 1), (2, 1, 1.0)):
        with pytest.raises(TypeError):
            LiftParams(n, d, t)
    assert type(LiftParams(True, 1, 1).n) is int
