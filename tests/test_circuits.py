import random

import pytest

from nclift import (DEFAULT_MODULUS, AddNode, Alphabet, BudgetError, Circuit,
                    CircuitBuilder, ConstNode, InputNode, MulNode,
                    NCPolynomial, Scalar, SquareMatrix, circuit_from_poly,
                    eval_matrix, eval_scalar, expand, matrix_value_of_poly,
                    substitute_inputs)
from nclift.circuits import replay
from nclift.randcircuits import random_circuit

from helpers import poly_substitute, random_poly

X3 = Alphabet("X", 3)
P = DEFAULT_MODULUS


def build_sample(p=P):
    b = CircuitBuilder(X3, p, name="s")
    out = b.add(b.mul(b.var(0), b.var(1)), b.mul(b.const(3), b.var(2)))
    return b.finish(out)


def test_builder_dedups_leaves():
    b = CircuitBuilder(X3, P)
    assert b.var(1) == b.var(1)
    assert b.const(5) == b.const(5)
    assert b.const(5) == b.const(5 + P)
    assert b.var(0) != b.var(1)


def test_size_report_and_degree_bound():
    c = build_sample()
    r = c.size_report()
    assert (r.adds, r.muls, r.inputs, r.consts) == (1, 2, 3, 1)
    assert r.gates == 3
    assert r.total == 7
    assert c.degree_bound() == 2
    assert c.used_vars() == {0, 1, 2}


def test_validate_rejects_malformed():
    # Children must point at earlier nodes.
    nodes = (InputNode(0), AddNode(0, 1))
    with pytest.raises(ValueError, match="node 1"):
        Circuit("bad", X3, P, nodes, 1).validate()
    with pytest.raises(ValueError):
        Circuit("bad", X3, P, (InputNode(7),), 0).validate()
    with pytest.raises(ValueError):
        Circuit("bad", X3, P, (InputNode(0),), 3).validate()


def test_pruned_drops_unreachable():
    b = CircuitBuilder(X3, P)
    keep = b.mul(b.var(0), b.var(1))
    b.add(b.var(2), keep)           # dead gate
    c = b.finish(keep)
    before = expand(c)
    pruned = c.pruned()
    assert pruned.size_report().total < c.size_report().total
    assert expand(pruned) == before
    assert 2 not in pruned.used_vars()


def test_eval_scalar_matches_expand(rng):
    for trial in range(100):
        p = 7 if trial % 2 else P
        c = random_circuit(X3, p, rng, max_gates=12, max_degree=4)
        point = [rng.randrange(p) for _ in range(3)]
        assert eval_scalar(c, point) == expand(c).evaluate(point)


def test_eval_matrix_matches_word_by_word_oracle(rng):
    one, zero = Scalar.one(P), Scalar.zero(P)
    for _ in range(30):
        c = random_circuit(X3, P, rng, max_gates=10, max_degree=4)
        mats = {i: SquareMatrix([[Scalar(rng.randrange(P), P)
                                  for _ in range(2)] for _ in range(2)])
                for i in range(3)}
        got = eval_matrix(c, mats)
        want = matrix_value_of_poly(expand(c), mats, 2, one, zero)
        assert got == want


def test_eval_matrix_needs_dim_for_constant_circuits():
    b = CircuitBuilder(X3, P)
    c = b.finish(b.const(9))
    with pytest.raises(ValueError):
        eval_matrix(c, {})
    got = eval_matrix(c, {}, dim=2)
    assert got == SquareMatrix.scalar_diag(2, Scalar(9, P), Scalar.zero(P))


def test_eval_matrix_rejects_foreign_modulus():
    b = CircuitBuilder(X3, P)
    c = b.finish(b.var(0))
    with pytest.raises(ValueError, match="^modulus mismatch: "):
        eval_matrix(c, {0: SquareMatrix([[Scalar(3, 7)]])})


def test_expand_budgets():
    b = CircuitBuilder(X3, P)
    sq = b.mul(b.var(0), b.var(0))
    c = b.finish(b.mul(sq, sq))
    with pytest.raises(BudgetError, match=r"^node 2: degree 4 exceeds "):
        expand(c, max_degree=3)
    b2 = CircuitBuilder(X3, P)
    c2 = b2.finish(b2.add(b2.var(0), b2.var(1)))
    with pytest.raises(BudgetError, match=r"^node 2: 2 terms exceed "):
        expand(c2, max_terms=1)


def test_replay_order_and_children_in_a_free_algebra():
    nodes = (InputNode(0), InputNode(1), ConstNode(5), MulNode(1, 0),
             AddNode(2, 3), MulNode(4, 1), MulNode(0, 4))
    algebra = (lambda v: f"x{v}", str, lambda a, b: f"({a}+{b})",
               lambda a, b: f"({a}*{b})")
    for output, want in ((5, "((5+(x1*x0))*x1)"), (6, "(x0*(5+(x1*x0)))"),
                         (3, "(x1*x0)")):
        c = Circuit("r", X3, P, nodes, output)
        assert replay(c, *algebra) == want

    def over_budget(a, b):
        raise BudgetError("too big")
    c = Circuit("r", X3, P, nodes, 6)
    with pytest.raises(BudgetError, match=r"^node 3: too big$"):
        replay(c, *algebra[:3], over_budget)


def test_substitute_then_expand_commutes(rng):
    Y = Alphabet("Y", 2)
    for _ in range(25):
        c = random_circuit(X3, P, rng, max_gates=8, max_degree=3)
        images = {}
        chains = {}
        for i in range(3):
            g = random_poly(rng, Y, P, max_len=2, terms=2)
            images[i] = g
            chains[i] = circuit_from_poly(g)
        subbed = substitute_inputs(c, chains)
        assert expand(subbed) == poly_substitute(expand(c), images, Y, P)


def test_substitute_missing_var_rejected():
    c = build_sample()
    with pytest.raises(ValueError):
        substitute_inputs(c, {0: build_sample()})


def test_circuit_from_poly_round_trip(rng):
    for _ in range(50):
        f = random_poly(rng, X3, P, max_len=4, terms=5)
        assert expand(circuit_from_poly(f)) == f


def test_circuit_from_poly_constant_and_zero():
    z = NCPolynomial.zero(X3, P)
    assert expand(circuit_from_poly(z)) == z
    k = NCPolynomial.constant(42, X3, P)
    assert expand(circuit_from_poly(k)) == k


def test_random_circuit_respects_budgets(rng):
    for _ in range(20):
        c = random_circuit(X3, P, rng, max_gates=9, max_degree=4)
        assert c.size_report().gates <= 9
        assert expand(c).degree <= 4
