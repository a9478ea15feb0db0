import random

import pytest

from nclift import (DEFAULT_MODULUS, AddNode, Alphabet, BudgetError, Circuit,
                    CircuitBuilder, ConstNode, InputNode, MulNode,
                    NCPolynomial, Scalar, SquareMatrix, circuit_from_poly,
                    eval_matrix, eval_scalar, expand, matrix_value_of_poly)
from nclift.circuits import replay
from nclift.randcircuits import random_circuit

from helpers import random_poly

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
        Circuit("bad", X3, P, nodes, 1)
    with pytest.raises(ValueError):
        Circuit("bad", X3, P, (InputNode(7),), 0)
    with pytest.raises(ValueError):
        Circuit("bad", X3, P, (InputNode(0),), 3)


@pytest.mark.parametrize("nodes, output, message", [
    ((InputNode(0), AddNode(-1, 0)), 1,
     "^node 1: child -1 is not strictly below its parent$"),
    ((InputNode(0), MulNode(0, 1)), 1,
     "^node 1: child 1 is not strictly below its parent$"),
    ((InputNode(0), AddNode(0, 2), InputNode(1)), 1,
     "^node 1: child 2 is not strictly below its parent$"),
    ((InputNode(0), InputNode(3)), 1,
     "^node 1: variable x3 outside alphabet of size 3$"),
    ((InputNode(0), InputNode(-1)), 0,
     "^node 1: variable x-1 outside alphabet of size 3$"),
    ((ConstNode(P),), 0, "^node 0: constant .* not a reduced residue"),
    ((InputNode(0), InputNode(1)), 2, "^output 2 is not a node id$"),
    ((InputNode(0),), -1, "^output -1 is not a node id$"),
    ((), 0, "^circuit has no nodes$"),
])
def test_invalid_circuit_is_refused_at_construction(nodes, output, message):
    """A circuit that breaks the node rules cannot be built, so it is
    never evaluated or written out; a negative child would read a node
    from the end of the list."""
    with pytest.raises(ValueError, match=message):
        Circuit("bad", X3, P, nodes, output)


def test_pruning_refuses_what_a_circuit_refuses():
    """Pruning walks the nodes before the Circuit checks them; a bad id
    met on the way must still be refused by name, not read modulo the
    list length or left to raise IndexError."""
    b = CircuitBuilder(X3, P)
    b.var(0)
    b.var(2)
    with pytest.raises(ValueError, match="^output -1 is not a node id$"):
        b.finish(-1, prune=True)
    b.add(0, 5)
    with pytest.raises(ValueError, match="^node 2: child 5 is not strictly "
                                         "below its parent$"):
        b.finish(2, prune=True)


def test_pruned_drops_unreachable():
    b = CircuitBuilder(X3, P)
    keep = b.mul(b.var(0), b.var(1))
    b.add(b.var(2), keep)           # dead gate
    c = b.finish(keep)
    before = expand(c)
    pruned = b.finish(keep, prune=True)
    assert pruned.size_report().total < c.size_report().total
    assert expand(pruned) == before
    assert 2 not in pruned.used_vars()


def test_eval_scalar_matches_expand(rng):
    for trial in range(100):
        p = 7 if trial % 2 else P
        c = random_circuit(X3, p, rng, max_gates=12, max_degree=4)
        point = [rng.randrange(p) for _ in range(3)]
        assert eval_scalar(c, point) == expand(c).evaluate(point)


def test_eval_scalar_checks_the_assignment():
    c = build_sample()
    with pytest.raises(ValueError,
                       match="^variable x2 has no assigned value$"):
        eval_scalar(c, {0: 1, 1: 1})
    with pytest.raises(ValueError, match="^modulus mismatch: "):
        eval_scalar(c, [1, 1, Scalar(1, 7)])


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
    assert got == SquareMatrix.identity(2, Scalar(9, P), Scalar.zero(P))


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
