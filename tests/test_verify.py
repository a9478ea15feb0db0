import hashlib
import random
from itertools import chain

import pytest

from nclift import (Alphabet, BudgetError, CircuitBuilder, MatrixPoint,
                    NCPolynomial, Word, circuit_equiv_brute,
                    circuit_equiv_random, circuit_from_poly, expand)
from nclift.circuits import (ADD, CONST, DEFAULT_MAX_TERMS, MUL,
                             eval_matrix_residues, expand_codes)
from nclift.polynomials import length_lex_key
from nclift.randcircuits import (perturb_mul_order, random_circuit,
                                 swap_add_children)
from nclift import verify
from nclift.verify import (MAX_CHUNK_POINTS, difference_circuit,
                          random_matrix_point)

from helpers import (fourth_power_of_sum, random_poly,
                     reference_circuit_equiv_brute,
                     reference_circuit_equiv_random,
                     reference_eval_matrix_residues,
                     reference_random_matrix_point)

PIT_P = 1_000_000_007
X3 = Alphabet("X", 3)


def _pair_xy_yx():
    b1 = CircuitBuilder(X3, PIT_P, name="xy")
    c1 = b1.finish(b1.mul(b1.var(0), b1.var(1)))
    b2 = CircuitBuilder(X3, PIT_P, name="yx")
    c2 = b2.finish(b2.mul(b2.var(1), b2.var(0)))
    return c1, c2


def test_brute_distinct_with_least_witness():
    c1, c2 = _pair_xy_yx()
    v = circuit_equiv_brute(c1, c2)
    assert v.result == "distinct"
    assert isinstance(v.witness, Word)
    assert v.witness.letters == (0, 1)      # length-lex least difference
    assert str(v.witness) == "x0 x1"
    w = v.witness.letters
    assert expand(c1).coeff(w) != expand(c2).coeff(w)
    assert not v.is_equal


def test_brute_equal_on_commuted_addition():
    b1 = CircuitBuilder(X3, PIT_P)
    c1 = b1.finish(b1.add(b1.var(0), b1.var(1)))
    b2 = CircuitBuilder(X3, PIT_P)
    c2 = b2.finish(b2.add(b2.var(1), b2.var(0)))
    v = circuit_equiv_brute(c1, c2)
    assert v.is_equal
    assert v.witness is None


def test_brute_budget_is_inconclusive():
    c1, c2 = _pair_xy_yx()
    v = circuit_equiv_brute(c1, c2, max_terms=0)
    assert v.result == "inconclusive-budget"
    assert not v.is_equal


def test_random_distinct_with_reusable_point():
    c1, c2 = _pair_xy_yx()
    v = circuit_equiv_random(c1, c2, trials=10, seed=3)
    assert v.result == "distinct"
    assert isinstance(v.witness, MatrixPoint)
    w = v.witness
    assert (reference_eval_matrix_residues(c1, w.as_dict(), w.dim, PIT_P)
            != reference_eval_matrix_residues(c2, w.as_dict(), w.dim, PIT_P))


def test_random_dimension_floor():
    c1, c2 = _pair_xy_yx()
    # Degree 2 needs dimension at least 2.
    with pytest.raises(ValueError):
        circuit_equiv_random(c1, c2, dim=1)
    assert circuit_equiv_random(c1, c2, dim=2, seed=0).result == "distinct"


@pytest.mark.parametrize("trials", [0, -3])
def test_random_refuses_no_trials(trials):
    c1, c2 = _pair_xy_yx()
    with pytest.raises(ValueError,
                       match=f"^trials must be >= 1, got {trials}$"):
        circuit_equiv_random(c1, c2, trials=trials)


def test_random_equal_on_identical_series():
    b1 = CircuitBuilder(X3, PIT_P)
    c1 = b1.finish(b1.mul(b1.add(b1.var(0), b1.var(1)), b1.var(2)))
    b2 = CircuitBuilder(X3, PIT_P)
    c2 = b2.finish(b2.add(b2.mul(b2.var(0), b2.var(2)),
                          b2.mul(b2.var(1), b2.var(2))))
    assert circuit_equiv_random(c1, c2, trials=10, seed=1).is_equal
    assert circuit_equiv_brute(c1, c2).is_equal


def test_random_never_contradicts_brute():
    rng = random.Random(404)
    X8 = Alphabet("X", 8)
    agree = 0
    for i in range(25):
        base = random_circuit(X8, PIT_P, rng, max_gates=12, max_degree=6)
        if i % 2 == 0:
            other = swap_add_children(base, rng)
        else:
            other = perturb_mul_order(base, rng)
        if other is None:
            continue
        brute = circuit_equiv_brute(base, other)
        rand = circuit_equiv_random(base, other, trials=10, dim=4,
                                    seed=1000 + i)
        assert brute.result in ("equal", "distinct")
        if rand.result == "distinct":
            assert brute.result == "distinct"
        if brute.result == "equal":
            assert rand.result == "equal"
        agree += 1
    assert agree >= 15


@pytest.mark.parametrize("swap, op", [(swap_add_children, ADD),
                                      (perturb_mul_order, MUL)])
def test_swaps_touch_one_gate_of_their_op(rng, swap, op):
    swapped = 0
    for _ in range(40):
        c = random_circuit(X3, PIT_P, rng, max_gates=12, max_degree=4)
        out = swap(c, rng)
        if out is None:
            assert not any(o == op and a != b for o, a, b in c.nodes)
            continue
        assert (len(out.nodes), out.output) == (len(c.nodes), c.output)
        [(old, new)] = [pair for pair in zip(c.nodes, out.nodes)
                        if pair[0] != pair[1]]
        assert old[0] == op
        assert new == (op, old[2], old[1])
        swapped += 1
    assert swapped > 20


def test_random_mode_budgets_the_point_size():
    """A point holds dim^2 residues per variable, and an evaluation at
    least one dim x dim matrix; past the budget nothing is drawn."""
    b = CircuitBuilder(X3, PIT_P)
    c = b.finish(b.add(b.var(0), b.add(b.var(1), b.var(2))))
    # 259^2 * 3 = 201,243 entries; 258^2 * 3 = 199,692 would fit.
    with pytest.raises(BudgetError, match="^dimension 259 needs 201243 "
                                          "matrix entries, budget is "
                                          "200000$"):
        circuit_equiv_random(c, c, trials=1, dim=259)
    b0 = CircuitBuilder(X3, PIT_P)
    k = b0.finish(b0.const(3))
    with pytest.raises(BudgetError, match="^dimension 448 needs 200704 "):
        circuit_equiv_random(k, k, trials=1, dim=448)
    assert circuit_equiv_random(k, k, trials=1, dim=447).is_equal


def test_modulus_mismatch_rejected():
    b1 = CircuitBuilder(X3, 5)
    c1 = b1.finish(b1.var(0))
    b2 = CircuitBuilder(X3, 7)
    c2 = b2.finish(b2.var(0))
    for mode in (circuit_equiv_brute, circuit_equiv_random):
        with pytest.raises(ValueError, match="^modulus mismatch: 5 vs 7$"):
            mode(c1, c2)
    # A mismatch is reported before the trial count is looked at.
    with pytest.raises(ValueError, match="^modulus mismatch: 5 vs 7$"):
        circuit_equiv_random(c1, c2, trials=0)


def test_alphabet_mismatch_rejected():
    b1 = CircuitBuilder(Alphabet("X", 8), PIT_P)
    c1 = b1.finish(b1.var(0))
    b2 = CircuitBuilder(X3, PIT_P)
    c2 = b2.finish(b2.var(0))
    for mode in (circuit_equiv_brute, circuit_equiv_random):
        with pytest.raises(ValueError, match="^circuits read different "
                                             "alphabets: 8 vs 3$"):
            mode(c1, c2)


def _least_differing_word(f1, f2):
    """The brute-mode witness as first written: one min over every
    differing word by length-lex key."""
    t1, t2 = f1.terms, f2.terms
    differ = chain((w for w, c in t1.items() if t2.get(w) != c),
                   (w for w in t2 if w not in t1))
    return min(differ, key=length_lex_key)


def test_brute_witness_is_the_length_lex_least_difference(rng):
    """Mixed word lengths, the empty word, and words whose coefficients
    cancel mod 5 so that they drop out of one side only."""
    X2 = Alphabet("X", 2)
    distinct = cancelled = 0
    lengths = set()
    for _ in range(150):
        f = random_poly(rng, X2, 5, max_len=rng.randrange(1, 5),
                        terms=rng.randrange(1, 9))
        g = f + random_poly(rng, X2, 5, max_len=rng.randrange(0, 5),
                            terms=rng.randrange(0, 4))
        if rng.random() < 0.5:
            # Cancel some of f's words in g, the empty word among them
            # when f has it.
            for w in list(f.terms):
                if not w or rng.random() < 0.4:
                    g = g - NCPolynomial.monomial(w, g.coeff(w), X2, 5)
                    cancelled += 1
        v = circuit_equiv_brute(circuit_from_poly(f), circuit_from_poly(g))
        if f == g:
            assert v.is_equal
            continue
        distinct += 1
        assert v.result == "distinct"
        assert v.witness.letters == _least_differing_word(f, g)
        lengths.add(len(v.witness.letters))
    assert distinct > 100
    assert cancelled > 20
    assert lengths == {0, 1, 2, 3, 4}


@pytest.mark.parametrize("p", [5, PIT_P])
@pytest.mark.parametrize("size", [2, 3, 8, 2 ** 70 + 3])
def test_brute_matches_the_tuple_kernel_on_pairs(size, p):
    rng = random.Random(f"brute:{size}:{p}")
    results = set()
    for c1, c2 in _pairs(rng, Alphabet("X", size), p):
        got = circuit_equiv_brute(c1, c2)
        assert got == reference_circuit_equiv_brute(c1, c2)
        results.add(got.result)
    assert results == {"equal", "distinct"}


def test_brute_on_512_letters_with_codes_past_64_bits():
    rng = random.Random("brute:512")
    X = Alphabet("X", 512)
    b = CircuitBuilder(X, PIT_P)
    node = b.var(rng.randrange(512))
    for _ in range(8):
        node = b.mul(node, b.add(b.var(rng.randrange(512)),
                                 b.var(rng.randrange(512))))
    base = b.finish(node)
    assert max(expand_codes(base)).bit_length() == 9 * 9 + 1
    lengths = set()
    for _ in range(6):
        for other in (swap_add_children(base, rng),
                      perturb_mul_order(base, rng)):
            got = circuit_equiv_brute(base, other)
            assert got == reference_circuit_equiv_brute(base, other)
            if got.witness is not None:
                lengths.add(len(got.witness.letters))
    assert lengths == {9}


def test_brute_on_a_one_letter_alphabet():
    X1 = Alphabet("X", 1)
    rng = random.Random("brute:1")
    results = set()
    for _ in range(20):
        c1 = random_circuit(X1, PIT_P, rng, max_gates=10, max_degree=5)
        for c2 in (perturb_mul_order(c1, rng), swap_add_children(c1, rng),
                   random_circuit(X1, PIT_P, rng, max_gates=10,
                                  max_degree=5)):
            if c2 is not None:
                got = circuit_equiv_brute(c1, c2)
                assert got == reference_circuit_equiv_brute(c1, c2)
                results.add(got.result)
    assert results == {"equal", "distinct"}
    # One letter commutes with itself: x0 (x0 + 1) = (x0 + 1) x0.
    b1, b2 = CircuitBuilder(X1, PIT_P), CircuitBuilder(X1, PIT_P)
    c1 = b1.finish(b1.mul(b1.var(0), b1.add(b1.var(0), b1.const(1))))
    c2 = b2.finish(b2.mul(b2.add(b2.var(0), b2.const(1)), b2.var(0)))
    assert circuit_equiv_brute(c1, c2).is_equal
    b3 = CircuitBuilder(X1, PIT_P)
    c3 = b3.finish(b3.mul(b3.const(2), b3.var(0)))
    v = circuit_equiv_brute(c1, c3)
    assert v == reference_circuit_equiv_brute(c1, c3)
    assert str(v.witness) == "x0"


@pytest.mark.parametrize("k, budgets", [
    (3, {"max_degree": 3}),
    (3, {"max_terms": 80}),
    (3, {"max_terms": 2}),
    (48, {}),
], ids=["degree", "terms", "terms-early", "convolution"])
def test_brute_is_inconclusive_at_each_budget(k, budgets):
    big = fourth_power_of_sum(k, PIT_P)
    b = CircuitBuilder(big.alphabet, PIT_P)
    small = b.finish(b.var(0))
    for c1, c2 in ((big, big), (small, big), (big, small)):
        got = circuit_equiv_brute(c1, c2, **budgets)
        assert got.result == "inconclusive-budget"
        assert got == reference_circuit_equiv_brute(c1, c2, **budgets)


# Small moduli reject up to half the raw draws, 2^31-1 and 2^61-1 almost
# none, and 10^9+7 about one in fifteen.
DRAW_MODULI = (2, 3, 5, 2 ** 31 - 1, 1_000_000_007, 2 ** 61 - 1)


# sha256 over every case's point and the generator state it leaves, per
# seed, as drawn when these digests were taken.
DRAW_SHA256 = {
    0: "53bd055b305e144a61fe6b8c604d533b0ee0b5f2ca4014ac442a56de1cf77fba",
    1: "a5849bdb6a146c3d6c209f7645808106227f8bf4a4da6307307f1a7a532afea6",
    99: "122ad0adaaba6a8ea5f868b16307646cc1df1985756d01667425f25c91a37808",
    1729: "d0714c01067b707f6c4739727ecdaa49767f11ac4f218e83d737284c7db5d546",
}


@pytest.mark.parametrize("seed", sorted(DRAW_SHA256))
def test_random_matrix_point_draws_as_the_nested_form(seed):
    """The points drawn, in variable, row and column order, and the
    generator state left behind, are pinned by value: a seed names the
    same trials whatever random.randrange does on this Python."""
    cases = [(PIT_P, dim) for dim in range(5, 8)]
    cases += [(p, dim) for p in DRAW_MODULI for dim in range(1, 5)]
    digest = hashlib.sha256()
    for p, dim in cases:
        for vars_used in ([], [0], [4, 1], [0, 2, 5, 7]):
            rng = random.Random(seed)
            point = random_matrix_point(vars_used, dim, p, rng)
            assert point.dim == dim
            assert [v for v, _ in point.mats] == vars_used
            assert all(0 <= x < p for _, m in point.mats for row in m
                       for x in row)
            digest.update(repr((point, rng.getstate())).encode())
    assert digest.hexdigest() == DRAW_SHA256[seed]


def _pairs(rng, alphabet, p=PIT_P):
    """Swapped-add pairs, perturbed-mul pairs, unrelated pairs, and a
    circuit against itself, in turn; then x1 x0 against 1 x0, whose
    leaves x1 and 1 differ only in their op."""
    for i in range(24):
        base = random_circuit(alphabet, p, rng, max_gates=14, max_degree=6)
        kind = i % 4
        if kind == 0:
            other = swap_add_children(base, rng)
        elif kind == 1:
            other = perturb_mul_order(base, rng)
        elif kind == 2:
            other = random_circuit(alphabet, p, rng, max_gates=14,
                                   max_degree=6)
        else:
            other = base
        if other is not None:
            yield base, other
    b1 = CircuitBuilder(alphabet, p)
    b2 = CircuitBuilder(alphabet, p)
    yield (b1.finish(b1.mul(b1.var(1), b1.var(0))),
           b2.finish(b2.mul(b2.const(1), b2.var(0))))


# Dim 19 is the least that takes 128-bit slots at PIT_P
# (test_slot_width_is_the_least_multiple_of_64_that_holds_a_cell).
@pytest.mark.parametrize("dim", [None, 4, 5, 19])
def test_difference_circuit_verdicts_match_two_evaluations(rng, dim):
    X5 = Alphabet("X", 5)
    verdicts = set()
    for k, (c1, c2) in enumerate(_pairs(rng, X5)):
        for seed, trials in ((k, 1), (k, 2), (1729 + k, 3), (k, 10)):
            got = circuit_equiv_random(c1, c2, trials=trials, dim=dim,
                                       seed=seed)
            assert got == reference_circuit_equiv_random(
                c1, c2, trials=trials, dim=dim, seed=seed)
            verdicts.add(got.result)
            if got.result == "distinct":
                w = got.witness
                mats = w.as_dict()
                assert (reference_eval_matrix_residues(c1, mats, w.dim, PIT_P)
                        != reference_eval_matrix_residues(c2, mats, w.dim,
                                                          PIT_P))
    assert verdicts == {"equal", "distinct"}


def test_random_mode_draws_for_a_variable_no_output_reaches():
    """x0 x1 holds a dead x2 (finished without prune), so the points
    carry a matrix for x2 as the reference's do: a draw over the
    reachable variables alone would give other points."""
    X4 = Alphabet("X", 4)
    b = CircuitBuilder(X4, PIT_P)
    b.mul(b.var(2), b.var(3))
    dead = b.finish(b.mul(b.var(0), b.var(1)))
    assert dead.used_vars() == {0, 1, 2, 3}
    pairs = []
    for first, second in ((0, 1), (1, 0)):
        b = CircuitBuilder(X4, PIT_P)
        pairs.append(b.finish(b.mul(b.var(first), b.var(second))))
    for other in pairs:
        for c1, c2 in ((dead, other), (other, dead)):
            for seed in (0, 1, 7, 1729):
                got = circuit_equiv_random(c1, c2, trials=5, seed=seed)
                assert got == reference_circuit_equiv_random(
                    c1, c2, trials=5, seed=seed)
                if got.witness is not None:
                    assert set(got.witness.as_dict()) == {0, 1, 2, 3}
    assert circuit_equiv_random(dead, pairs[0]).is_equal
    assert not circuit_equiv_random(dead, pairs[1]).is_equal


def _first_separating_trial(c1, c2, trials, dim, seed):
    """The index of the first of the reference's draws at which c1 and
    c2 differ, or None."""
    p = c1.modulus
    vars_used = sorted(c1.used_vars() | c2.used_vars())
    draws = random.Random(seed)
    for t in range(trials):
        mats = reference_random_matrix_point(vars_used, dim, p,
                                             draws).as_dict()
        if (reference_eval_matrix_residues(c1, mats, dim, p)
                != reference_eval_matrix_residues(c2, mats, dim, p)):
            return t
    return None


def test_witness_is_the_first_separating_draw_of_a_batch():
    """Over Z_2, x0 x1 and x1 x0 agree at about a third of the 2 x 2
    points, so some seeds separate them only at the second trial, the
    first of the batch after trial 1, and some only at the last, after
    points of the same batch that read zero."""
    X2 = Alphabet("X", 2)
    b1, b2 = CircuitBuilder(X2, 2), CircuitBuilder(X2, 2)
    c1 = b1.finish(b1.mul(b1.var(0), b1.var(1)))
    c2 = b2.finish(b2.mul(b2.var(1), b2.var(0)))
    trials, found = 4, set()
    for seed in range(2000):
        t = _first_separating_trial(c1, c2, trials, 2, seed)
        if t in (1, trials - 1) and t not in found:
            found.add(t)
            got = circuit_equiv_random(c1, c2, trials=trials, seed=seed)
            assert got.result == "distinct"
            assert got == reference_circuit_equiv_random(c1, c2, trials,
                                                         seed=seed)
            if len(found) == 2:
                break
    assert found == {1, trials - 1}


# At dim 150 a point over three variables holds 67,500 entries, so the
# trials after the first go two at a time; at dim 2 they go
# MAX_CHUNK_POINTS at a time.
@pytest.mark.parametrize("dim, trials, sizes", [
    (150, 7, [1, 2, 2, 2]),
    (2, 2 * MAX_CHUNK_POINTS + 8,
     [1, MAX_CHUNK_POINTS, MAX_CHUNK_POINTS, 7]),
])
def test_random_mode_chunks_stay_within_the_point_budget(monkeypatch, dim,
                                                         trials, sizes):
    """Each call holds at most MAX_CHUNK_POINTS points and at most
    DEFAULT_MAX_TERMS entries, and the points are the reference's
    draws, in order."""
    b = CircuitBuilder(X3, PIT_P)
    c = b.finish(b.add(b.var(0), b.mul(b.const(2), b.add(b.var(1),
                                                          b.var(2)))))
    calls = []
    real = verify.eval_matrix_residues

    def spy(circuit, points, dim):
        calls.append(points)
        return real(circuit, points, dim)

    monkeypatch.setattr(verify, "eval_matrix_residues", spy)
    seed = 5
    assert circuit_equiv_random(c, c, trials=trials, dim=dim, seed=seed)\
        .is_equal
    assert [len(points) for points in calls] == sizes
    assert all(sum(dim * dim * len(m) for m in points) <= DEFAULT_MAX_TERMS
               for points in calls)
    draws = random.Random(seed)
    assert list(chain.from_iterable(calls)) == [
        reference_random_matrix_point([0, 1, 2], dim, PIT_P,
                                      draws).as_dict()
        for _ in range(trials)]


def test_difference_circuit_evaluates_to_c1_minus_c2(rng):
    X5 = Alphabet("X", 5)
    for c1, c2 in _pairs(rng, X5):
        d = difference_circuit(c1, c2)
        assert len(d.nodes) <= len(c1.nodes) + len(c2.nodes) + 3
        dim = 3
        mats = {v: [[rng.randrange(PIT_P) for _ in range(dim)]
                    for _ in range(dim)] for v in range(5)}
        a = reference_eval_matrix_residues(c1, mats, dim, PIT_P)
        b = reference_eval_matrix_residues(c2, mats, dim, PIT_P)
        want = [[(x - y) % PIT_P for x, y in zip(ra, rb)]
                for ra, rb in zip(a, b)]
        assert eval_matrix_residues(d, [mats], dim) == [want]


def test_difference_circuit_refuses_a_mismatched_pair():
    """The merged nodes are not checked again, so the pair's alphabet
    size and modulus are compared first, by exact message."""
    b1 = CircuitBuilder(Alphabet("X", 8), 5)
    b2 = CircuitBuilder(Alphabet("X", 3), 5)
    b3 = CircuitBuilder(Alphabet("X", 8), 7)
    c1 = b1.finish(b1.var(7))
    c2 = b2.finish(b2.var(2))
    c3 = b3.finish(b3.var(7))
    with pytest.raises(ValueError) as err:
        difference_circuit(c1, c2)
    assert str(err.value) == "circuits read different alphabets: 8 vs 3"
    with pytest.raises(ValueError) as err:
        difference_circuit(c1, c3)
    assert str(err.value) == "modulus mismatch: 5 vs 7"


def test_difference_circuit_shares_the_nodes_of_the_pair(rng):
    X5 = Alphabet("X", 5)
    against_itself = 0
    for _ in range(30):
        c = random_circuit(X5, PIT_P, rng, max_gates=14, max_degree=6)
        if len(set(c.nodes)) != len(c.nodes):
            continue
        n = len(c.nodes)
        d = difference_circuit(c, c)
        # No node of c repeats, so the table is c's own nodes followed
        # by the three difference nodes.
        assert d.nodes == c.nodes + ((CONST, PIT_P - 1, 0),
                                     (MUL, n, c.output),
                                     (ADD, c.output, n + 1))
        assert d.output == n + 2
        against_itself += 1
        other = swap_add_children(c, rng)
        if other is not None:
            # Only the swapped gate and the gates above it are new.
            assert len(difference_circuit(c, other).nodes) < 2 * n + 3
    assert against_itself > 20
