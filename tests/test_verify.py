import random

import pytest

from nclift import (Alphabet, BudgetError, CircuitBuilder, MatrixPoint, Word,
                    circuit_equiv_brute, circuit_equiv_random, expand)
from nclift.circuits import ADD, MUL, eval_matrix_residues
from nclift.randcircuits import (perturb_mul_order, random_circuit,
                                 swap_add_children)

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
    assert v.witness.letters == (0, 1)      # length-lex first difference
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
    assert (eval_matrix_residues(c1, w.as_dict(), w.dim, PIT_P)
            != eval_matrix_residues(c2, w.as_dict(), w.dim, PIT_P))


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
    b1 = CircuitBuilder(X3, PIT_P)
    c1 = b1.finish(b1.var(0))
    b2 = CircuitBuilder(X3, 7)
    c2 = b2.finish(b2.var(0))
    with pytest.raises(ValueError):
        circuit_equiv_brute(c1, c2)
