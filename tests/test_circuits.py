import random

import pytest

import nclift
from nclift import (DEFAULT_MODULUS, Alphabet, BudgetError, Circuit,
                    CircuitBuilder, NCPolynomial, build_decoder,
                    circuit_from_poly, encode_circuit, eval_scalar, expand,
                    format_circuit, hadamard_circuit, parse_circuit)
from nclift import circuits
from nclift.circuits import (ADD, CONST, MUL, VAR, decode_word,
                             eval_matrix_residues, expand_codes, letter_bits,
                             replay, slot_width)
from nclift.polynomials import length_lex_key
from nclift.randcircuits import random_circuit
from nclift.verify import MAX_CHUNK_POINTS, difference_circuit

from helpers import (fourth_power_of_sum, matrix_value_of_poly, random_poly,
                     reference_eval_matrix_residues, reference_expand,
                     word_code)

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


def test_nodes_are_plain_triples():
    # A node is (op, a, b), and each op is its text format keyword.
    assert (VAR, CONST, ADD, MUL) == ("var", "const", "add", "mul")
    assert build_sample().nodes == (
        (VAR, 0, 0), (VAR, 1, 0), (MUL, 0, 1), (CONST, 3, 0), (VAR, 2, 0),
        (MUL, 3, 4), (ADD, 2, 5))
    for name in ("InputNode", "ConstNode", "AddNode", "MulNode"):
        assert not hasattr(nclift, name)
        assert not hasattr(circuits, name)


def test_text_round_trip_keeps_the_triples(rng):
    for trial in range(60):
        p = 7 if trial % 2 else P
        c = random_circuit(X3, p, rng, max_gates=15, max_degree=4)
        back = parse_circuit(format_circuit(c))
        assert back == c
        assert back.nodes == c.nodes
        assert all(type(node) is tuple for node in back.nodes)


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
    nodes = ((VAR, 0, 0), (ADD, 0, 1))
    with pytest.raises(ValueError, match="node 1"):
        Circuit("bad", X3, P, nodes, 1)
    with pytest.raises(ValueError):
        Circuit("bad", X3, P, ((VAR, 7, 0),), 0)
    with pytest.raises(ValueError):
        Circuit("bad", X3, P, ((VAR, 0, 0),), 3)


@pytest.mark.parametrize("nodes, output, message", [
    (((VAR, 0, 0), (ADD, -1, 0)), 1,
     "^node 1: child -1 is not strictly below its parent$"),
    (((VAR, 0, 0), (MUL, 0, 1)), 1,
     "^node 1: child 1 is not strictly below its parent$"),
    (((VAR, 0, 0), (ADD, 0, 2), (VAR, 1, 0)), 1,
     "^node 1: child 2 is not strictly below its parent$"),
    (((VAR, 0, 0), (VAR, 3, 0)), 1,
     "^node 1: variable x3 outside alphabet of size 3$"),
    (((VAR, 0, 0), (VAR, -1, 0)), 0,
     "^node 1: variable x-1 outside alphabet of size 3$"),
    (((CONST, P, 0),), 0, "^node 0: constant .* not a reduced residue"),
    (((VAR, 0, 0), (VAR, 1, 0)), 2, "^output 2 is not a node id$"),
    (((VAR, 0, 0),), -1, "^output -1 is not a node id$"),
    (((VAR, 0, 0),), 0.0, r"^output 0\.0 is not a node id$"),
    ((), 0, "^circuit has no nodes$"),
    # Every field is an int, every leaf's third field is 0, every node
    # is an (op, a, b) tuple of a known op.
    (((VAR, 1.0, 0),), 0, r"^node 0: field 1\.0 is not an int$"),
    (((VAR, 0, 0), (ADD, 0, 0.0)), 1, r"^node 1: field 0\.0 is not an int$"),
    (((VAR, True, 0),), 0, "^node 0: field True is not an int$"),
    (((VAR, 0, 1),), 0, "^node 0: var leaf has third field 1, not 0$"),
    (((CONST, 3, 2),), 0, "^node 0: const leaf has third field 2, not 0$"),
    (((VAR, 0, 0), [ADD, 0, 0]), 1, "^node 1: .* is not an .op, a, b. "
                                    "triple$"),
    (((VAR, 0),), 0, "^node 0: .* is not an .op, a, b. triple$"),
    (((VAR, 0, 0), ("neg", 0, 0)), 1, "^node 1: unknown node kind 'neg'$"),
])
def test_invalid_circuit_is_refused_at_construction(nodes, output, message):
    """A circuit that breaks the node rules cannot be built, so it is
    never evaluated or written out; a negative child would read a node
    from the end of the list."""
    with pytest.raises(ValueError, match=message):
        Circuit("bad", X3, P, nodes, output)


def test_pruning_refuses_what_a_circuit_refuses():
    """The builder refuses a bad child when the gate is appended, and a
    bad output at finish, pruning or not, with the messages a Circuit
    gives; a bad id is never read modulo the list length or left to
    raise IndexError."""
    b = CircuitBuilder(X3, P)
    b.var(0)
    b.var(2)
    with pytest.raises(ValueError, match="^output -1 is not a node id$"):
        b.finish(-1, prune=True)
    with pytest.raises(ValueError, match=r"^output 0\.0 is not a node id$"):
        b.finish(0.0, prune=True)
    with pytest.raises(ValueError, match="^node 2: child 5 is not strictly "
                                         "below its parent$"):
        b.add(0, 5)
    b = CircuitBuilder(X3, P)
    b.add(b.var(0), b.var(1))
    with pytest.raises(ValueError, match=r"^node 3: field 0\.0 is not an "
                                         r"int$"):
        b.add(1, 0.0)
    with pytest.raises(ValueError, match="^node 3: field True is not an "
                                         "int$"):
        b.mul(True, 1)
    with pytest.raises(ValueError, match="^node 3: child -1 is not "
                                         "strictly below its parent$"):
        b.mul(-1, 1)
    with pytest.raises(ValueError, match="^node 3: child 3 is not "
                                         "strictly below its parent$"):
        b.mul(0, 3)
    # A refused gate is not appended.
    assert len(b.nodes) == 3
    assert b.finish(2, prune=True).nodes == ((VAR, 0, 0), (VAR, 1, 0),
                                             (ADD, 0, 1))
    with pytest.raises(ValueError, match="^circuit has no nodes$"):
        CircuitBuilder(X3, P).finish(0)
    with pytest.raises(ValueError, match="^bad identifier 'a b': single "
                                         "token required$"):
        CircuitBuilder(X3, P, name="a b").finish(0)


def checked_copy(c):
    """c built again through Circuit's full check."""
    return Circuit(c.name, c.alphabet, c.modulus, c.nodes, c.output)


def test_trusted_builds_pass_the_full_check(rng):
    """Every path that builds a Circuit without checking it again (the
    parser, the builder, the encoder, the difference and the synthesis)
    makes only circuits the full check accepts, with tuple nodes."""
    X8 = Alphabet("X", 8)
    decoder = build_decoder(2, modulus=97)
    for _ in range(40):
        c1 = random_circuit(X8, 97, rng, max_gates=12, max_degree=4)
        c2 = random_circuit(X8, 97, rng, max_gates=12, max_degree=4)
        enc = encode_circuit(c1, 2)
        built = [c1, parse_circuit(format_circuit(c1)), enc,
                 difference_circuit(c1, c2), hadamard_circuit(enc, decoder)]
        for c in built:
            assert type(c.nodes) is tuple
            assert checked_copy(c) == c


def test_trusted_circuit_skips_the_check():
    """_trusted=True is the package's own fast path: it checks nothing,
    so only code that has checked its nodes may pass it."""
    bad = Circuit("not a name", X3, P, ((ADD, 0, 0),), 5, _trusted=True)
    assert bad.nodes == ((ADD, 0, 0),)
    with pytest.raises(ValueError, match="^bad identifier"):
        checked_copy(bad)
    # Only by keyword: a sixth positional argument is refused.
    with pytest.raises(TypeError):
        Circuit("not a name", X3, P, ((ADD, 0, 0),), 5, True)


def reachable_by_walk(nodes, output):
    """_reachable's contract, by a depth-first walk that keeps a set of
    the ids it reached: the reached nodes renumbered in order and the
    output's new id, or the input as given once a bad id is met."""
    if type(output) is not int or not 0 <= output < len(nodes):
        return nodes, output
    keep = set()
    stack = [output]
    while stack:
        i = stack.pop()
        if i in keep:
            continue
        keep.add(i)
        op, a, b = nodes[i]
        if op in (ADD, MUL):
            if not (type(a) is type(b) is int and 0 <= a < i and 0 <= b < i):
                return nodes, output
            stack += [a, b]
    new_id = {old: new for new, old in enumerate(sorted(keep))}
    kept = [(op, new_id[a], new_id[b]) if op in (ADD, MUL) else (op, a, b)
            for op, a, b in (nodes[i] for i in sorted(keep))]
    return kept, new_id[output]


def random_node_list(rng):
    """Up to 12 nodes, mostly well formed: some unreachable, some gates
    with a child that is negative, forward, the node itself or not an
    int, and an output that may be out of range or not an int."""
    nodes = []
    for i in range(rng.randint(1, 12)):
        op = rng.choice([VAR, CONST, ADD, MUL, ADD, MUL])
        if op in (VAR, CONST) or i == 0 and rng.random() < 0.9:
            nodes.append((VAR if op in (ADD, MUL) else op, rng.randrange(3),
                          0))
            continue
        children = [rng.randrange(i) if i else 0 for _ in range(2)]
        if rng.random() < 0.1:
            children[rng.randrange(2)] = rng.choice(
                [-1, i, i + 1, len(nodes) + 5, 1.0, True])
        nodes.append((op, *children))
    output = len(nodes) - 1 - rng.randrange(min(3, len(nodes)))
    if rng.random() < 0.1:
        output = rng.choice([-1, len(nodes), 0.0, None, False])
    return nodes, output


def test_reachable_matches_a_set_based_walk(rng):
    seen = {"whole": 0, "pruned": 0, "refused": 0}
    for _ in range(3000):
        nodes, output = random_node_list(rng)
        got = circuits._reachable(nodes, output)
        want = reachable_by_walk(nodes, output)
        assert got == want
        if want[0] is nodes:
            seen["refused"] += 1
        elif want[0] == nodes:
            # Every node reached: the list itself comes back, no copy.
            assert got[0] is nodes
            seen["whole"] += 1
        else:
            seen["pruned"] += 1
    assert min(seen.values()) > 200, seen


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
    with pytest.raises(TypeError):
        eval_scalar(c, [1, 1, 1.5])
    assert eval_scalar(c, [2, 3, 4 - P]) == 18
    assert type(eval_scalar(c, [1, 1, 1])) is int


def test_builder_refuses_non_int_leaves():
    # A float would build a circuit that writes `const 2.5` or `var 1.0`,
    # a file its own parser refuses.
    b = CircuitBuilder(X3, P)
    with pytest.raises(TypeError):
        b.const(2.5)
    with pytest.raises(TypeError):
        b.var(1.0)
    assert b.nodes == []
    assert b.const(-1) == b.const(P - 1)


def test_eval_matrix_matches_word_by_word_oracle(rng):
    b = CircuitBuilder(X3, P)
    nine = b.finish(b.const(9))
    cases = [(nine, {}, 2)]
    for dim in (1, 2, 3, 5, 7):
        for _ in range(20):
            c = random_circuit(X3, P, rng, max_gates=10, max_degree=4)
            mats = {i: [[rng.randrange(P) for _ in range(dim)]
                        for _ in range(dim)] for i in range(3)}
            cases.append((c, mats, dim))
    for c, mats, dim in cases:
        [got] = eval_matrix_residues(c, [mats], dim)
        assert got == matrix_value_of_poly(expand(c), mats, dim, P)
    assert eval_matrix_residues(nine, [{}], 2) == [[[9, 0], [0, 9]]]


# At dims 1-8, 2, 3, 7, 97 and 10^9+7 take 64-bit slots, 2^31-1 moves to
# 128-bit slots at dim 5, and 2^61-1 and 2^89-1 take 128 and 192 bits.
KERNEL_MODULI = (2, 3, 7, 97, 1_000_000_007, 2 ** 31 - 1, 2 ** 61 - 1,
                 2 ** 89 - 1)


@pytest.mark.parametrize("dim, p, width", [
    (1, 2, 64), (8, 97, 64), (18, P, 64), (19, P, 128), (447, P, 128),
    (4, 2 ** 31 - 1, 64), (5, 2 ** 31 - 1, 128), (1, 2 ** 61 - 1, 128),
    (1, 2 ** 89 - 1, 192),
])
def test_slot_width_is_the_least_multiple_of_64_that_holds_a_cell(
        dim, p, width):
    assert slot_width(dim, p) == width
    assert dim * (p - 1) ** 2 < 2 ** width
    assert width == 64 or dim * (p - 1) ** 2 >= 2 ** (width - 64)


def _eval_both(c, mats, dim, p):
    [got] = eval_matrix_residues(c, [mats], dim)
    assert got == reference_eval_matrix_residues(c, mats, dim, p)
    return got


@pytest.mark.parametrize("p", KERNEL_MODULI)
def test_eval_matrix_matches_the_list_kernel(p, rng):
    """Random circuits at random and all-(p-1) points, dims 1-8."""
    for dim in range(1, 9):
        for k in range(4):
            c = random_circuit(X3, p, rng, max_gates=12, max_degree=6)
            if k == 0:
                mats = {i: [[p - 1] * dim] * dim for i in range(3)}
            else:
                mats = {i: [[rng.randrange(-p, 2 * p) for _ in range(dim)]
                            for _ in range(dim)] for i in range(3)}
            _eval_both(c, mats, dim, p)


def test_eval_matrix_in_wide_slots_at_the_default_modulus(rng):
    dim = 19
    for k in range(3):
        c = random_circuit(X3, P, rng, max_gates=12, max_degree=6)
        mats = {i: [[P - 1 if k == 0 else rng.randrange(P)
                     for _ in range(dim)] for _ in range(dim)]
                for i in range(3)}
        _eval_both(c, mats, dim, P)


@pytest.mark.parametrize("p", KERNEL_MODULI)
def test_eval_matrix_edge_sums_and_doublings(p, rng):
    """Sums landing on p - 1, on p and on 2p - 2, a product whose cells
    gather dim*(p-1)^2, and a chain of 80 doublings before a product:
    every sum is reduced before the next."""
    for dim in (1, 2, 5):
        top = [[p - 1] * dim for _ in range(dim)]
        for v in {1 % p, p // 2, p - 1}:
            b = CircuitBuilder(X3, p)
            x, y = b.var(0), b.var(1)
            mats = {0: [[v] * dim for _ in range(dim)],
                    1: [[(p - v) % p] * dim for _ in range(dim)],
                    2: [[(p - 1 - v) % p] * dim for _ in range(dim)]}
            zero = _eval_both(b.finish(b.add(x, y)), mats, dim, p)
            assert zero == [[0] * dim for _ in range(dim)]
            below = _eval_both(b.finish(b.add(x, b.var(2))), mats, dim, p)
            assert below == [[(p - 1) % p] * dim for _ in range(dim)]
        b = CircuitBuilder(X3, p)
        x = b.var(0)
        assert _eval_both(b.finish(b.add(x, x)), {0: top}, dim, p) == \
            [[(2 * p - 2) % p] * dim for _ in range(dim)]
        assert _eval_both(b.finish(b.mul(x, x)), {0: top}, dim, p) == \
            [[dim * (p - 1) ** 2 % p] * dim for _ in range(dim)]
        b = CircuitBuilder(X3, p)
        chain = b.var(0)
        for _ in range(80):
            chain = b.add(chain, chain)
        c = b.finish(b.mul(chain, b.var(1)), prune=True)
        for first in (top, [[rng.randrange(p) for _ in range(dim)]
                            for _ in range(dim)]):
            _eval_both(c, {0: first, 1: top}, dim, p)


# Dim 19 is the least that takes 128-bit slots at P; 2^61-1 takes them
# from dim 1.
BATCH_MODULI = (2, 3, 97, 1_000_000_007, 2 ** 61 - 1)
BATCH_DIMS = (*range(1, 8), 18, 19)


def _scalar_product_circuits(p):
    """One circuit per way a product meets a scalar operand: a constant
    on the left, on the right and on both sides, zero constants, and
    constant-only subcircuits, one of which sums to zero; and products
    with x2, which a batch may set to a scalar matrix."""
    cases = (
        lambda b: b.mul(b.const(5), b.var(0)),
        lambda b: b.mul(b.var(1), b.const(p - 1)),
        lambda b: b.mul(b.const(3), b.const(p - 1)),
        lambda b: b.add(b.mul(b.const(0), b.var(1)),
                        b.mul(b.var(0), b.const(0))),
        lambda b: b.mul(b.add(b.const(1), b.const(p - 1)),
                        b.mul(b.var(0), b.var(1))),
        lambda b: b.mul(b.mul(b.var(0), b.var(1)),
                        b.mul(b.const(2), b.add(b.const(3), b.var(2)))),
        lambda b: b.mul(b.mul(b.const(2), b.var(2)),
                        b.mul(b.var(2), b.const(7))),
        lambda b: b.add(b.mul(b.var(2), b.var(0)),
                        b.mul(b.var(1), b.var(2))),
    )
    out = []
    for case in cases:
        b = CircuitBuilder(X3, p)
        out.append(b.finish(case(b)))
    return out


def _batch(rng, p, dim, k, mode):
    """k points over x0, x1 and x2.  x2 is drawn like the others, or is
    c times the identity at every point, or a different scalar matrix
    at each point, or a scalar matrix at the first point only."""
    def matrix(scalar=None):
        if scalar is None:
            return [[rng.randrange(-p, 2 * p) for _ in range(dim)]
                    for _ in range(dim)]
        return [[scalar if i == j else 0 for j in range(dim)]
                for i in range(dim)]

    c = rng.randrange(p)
    scalars = {"drawn": [None] * k, "same": [c] * k,
               "varied": [rng.randrange(p) for _ in range(k)],
               "first": [c] + [None] * (k - 1)}[mode]
    return [{0: matrix(), 1: matrix(), 2: matrix(x2)} for x2 in scalars]


@pytest.mark.parametrize("p", BATCH_MODULI)
def test_eval_matrix_batch_matches_the_list_kernel_at_each_point(p, rng):
    """One replay of k points side by side reads, at each point, what
    the list kernel reads there alone, mod the circuit's own modulus:
    the batch moduli take 64- and 128-bit slots."""
    scalar_cases = _scalar_product_circuits(p)
    modes = ("drawn", "same", "varied", "first")
    for dim in BATCH_DIMS:
        for k in (*range(1, 7), MAX_CHUNK_POINTS):
            cases = scalar_cases + [random_circuit(X3, p, rng, max_gates=12,
                                                   max_degree=6)]
            for n, c in enumerate(cases):
                points = _batch(rng, p, dim, k, modes[(n + k) % 4])
                assert c.modulus == p
                assert eval_matrix_residues(c, points, dim) == \
                    [reference_eval_matrix_residues(c, m, dim, c.modulus)
                     for m in points]


def test_eval_matrix_of_no_points_is_empty():
    assert eval_matrix_residues(build_sample(), [], 3) == []


@pytest.mark.parametrize("bad, dim, message", [
    ({0: [[1, 2, 3], [4, 5, 6], [7, 8, 9]]}, 2,
     "variable x0 has a matrix that is not 2x2"),
    ({1: [[1]]}, 2, "variable x1 has a matrix that is not 2x2"),
    ({2: [[1, 2], [3]]}, 2, "variable x2 has a matrix that is not 2x2"),
    ({}, 0, "dim must be >= 1, got 0"),
    ({}, -1, "dim must be >= 1, got -1"),
])
def test_eval_matrix_refuses_bad_points(bad, dim, message):
    good = {v: [[1, 0], [0, 1]] for v in range(3)}
    mats = good | bad
    for points in ([mats], [good, mats], [mats, good, good]):
        with pytest.raises(ValueError, match=f"^{message}$"):
            eval_matrix_residues(build_sample(), points, dim)


def test_eval_matrix_needs_every_variable():
    full = {0: [[1]], 1: [[1]], 2: [[1]]}
    partial = {0: [[1]], 1: [[1]]}
    for points in ([partial], [full, partial], [partial, full]):
        with pytest.raises(ValueError,
                           match="^variable x2 has no assigned matrix$"):
            eval_matrix_residues(build_sample(), points, 1)


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


# One alphabet's letters run past 2^64, so even its one-letter codes do.
CODE_ALPHABET_SIZES = (1, 2, 3, 8, 512, 2 ** 70 + 3)


def coded(f: NCPolynomial) -> dict:
    """A polynomial's terms keyed by word code."""
    bits = letter_bits(f.alphabet.size)
    return {word_code(w, bits): c for w, c in f.terms.items()}


@pytest.mark.parametrize("p", [5, P])
@pytest.mark.parametrize("size", CODE_ALPHABET_SIZES)
def test_expand_matches_the_tuple_kernel(size, p):
    rng = random.Random(f"expand:{size}:{p}")
    X = Alphabet("X", size)
    degrees = set()
    for _ in range(30):
        c = random_circuit(X, p, rng, max_gates=12, max_degree=6)
        want = reference_expand(c)
        assert expand(c) == want
        assert expand_codes(c) == coded(want)
        degrees.add(want.degree)
    assert max(degrees) >= 4


def _poly_circuit(alphabet, p, *factors):
    """The product of the given sums of (word, coefficient) terms, each
    term a chain of gates."""
    b = CircuitBuilder(alphabet, p)
    out = None
    for terms in factors:
        total = None
        for word, c in terms:
            node = b.const(c)
            for letter in word:
                node = b.mul(node, b.var(letter))
            total = node if total is None else b.add(total, node)
        out = total if out is None else b.mul(out, total)
    return b.finish(out)


@pytest.mark.parametrize("factors, want", [
    # Constants only.
    ([[((), 3)], [((), 4)], [((), 2)]], {(): 4}),
    ([[((), 3)], [((), 0)]], {}),
    # x0 + 4 x0 is zero mod 5, and so is every product with it.
    ([[((0,), 1), ((0, 0), 2)], [((0,), 1), ((0,), 4)]], {}),
    # x0 * x0 x0 (right group of length 2) and 2 x0 x0 * 2 x0 (length 1)
    # land on x0^3 with 1 + 4 = 0 mod 5: merging the groups cancels.
    ([[((0,), 1), ((0, 0), 2)], [((0, 0), 1), ((0,), 2)]],
     {(0, 0): 2, (0, 0, 0, 0): 2}),
    ([[((0,), 1), ((1,), 1)], [((0,), 1), ((1,), 4)]],
     {(0, 0): 1, (0, 1): 4, (1, 0): 1, (1, 1): 4}),
    ([[((0, 1), 1), ((1,), 3)], [((1,), 1), ((), 1)], [((0,), 2)]],
     {(0, 1, 1, 0): 2, (1, 1, 0): 1, (0, 1, 0): 2, (1, 0): 1}),
])
def test_expand_constants_zero_and_cancellation_mod_5(factors, want):
    for size in (2, 512, 2 ** 70 + 3):
        X = Alphabet("X", size)
        c = _poly_circuit(X, 5, *factors)
        f = NCPolynomial(X, 5, want)
        assert expand(c) == reference_expand(c) == f
        assert expand_codes(c) == coded(f)


@pytest.mark.parametrize("size", CODE_ALPHABET_SIZES)
def test_expand_degree_exactly_at_the_budget(size):
    rng = random.Random(f"degree:{size}")
    b = CircuitBuilder(Alphabet("X", size), P)
    node = b.var(rng.randrange(size))
    for _ in range(7):
        node = b.mul(node, b.add(b.var(rng.randrange(size)), b.const(1)))
    c = b.finish(node)
    assert reference_expand(c, max_degree=8).degree == 8
    assert expand(c, max_degree=8) == reference_expand(c, max_degree=8)
    with pytest.raises(BudgetError) as got:
        expand_codes(c, max_degree=7)
    with pytest.raises(BudgetError) as want:
        reference_expand(c, max_degree=7)
    assert str(got.value) == str(want.value) == (
        f"node {len(c.nodes) - 1}: degree 8 exceeds budget 7")


@pytest.mark.parametrize("circuit, budgets, message", [
    (fourth_power_of_sum(3, P), {"max_degree": 3},
     "node 6: degree 4 exceeds budget 3"),
    (fourth_power_of_sum(3, P), {"max_terms": 80},
     "node 6: 81 terms exceed budget 80"),
    (fourth_power_of_sum(3, P), {"max_terms": 2},
     "node 4: 3 terms exceed budget 2"),
    (fourth_power_of_sum(48, P), {},
     "node 96: product of 2304 x 2304 terms exceeds the convolution "
     "budget"),
], ids=["degree", "terms", "terms-early", "convolution"])
def test_expand_budget_messages_unchanged(circuit, budgets, message):
    for kernel in (expand, expand_codes, reference_expand):
        with pytest.raises(BudgetError) as exc:
            kernel(circuit, **budgets)
        assert str(exc.value) == message


@pytest.mark.parametrize("size", CODE_ALPHABET_SIZES)
def test_codes_sort_in_length_lex_order_and_decode(size):
    rng = random.Random(f"codes:{size}")
    bits = letter_bits(size)
    words = {tuple(rng.randrange(size) for _ in range(rng.randrange(7)))
             for _ in range(400)}
    words |= {(), (0,), (size - 1,), (0,) * 6, (size - 1,) * 6}
    codes = sorted(word_code(w, bits) for w in words)
    assert [decode_word(code, bits) for code in codes] == sorted(
        words, key=length_lex_key)
    for w in words:
        code = word_code(w, bits)
        assert (code.bit_length() - 1) // bits == len(w)
        assert decode_word(code, bits) == w


def test_letter_bits_and_long_words_decode_by_a_loop():
    assert [letter_bits(n) for n in (1, 2, 3, 4, 5, 512, 513, 2 ** 70 + 3)] \
        == [1, 1, 2, 2, 3, 9, 10, 71]
    # Far past the recursion limit, one letter per level.
    for size in (1, 3):
        word = tuple(i % size for i in range(5000))
        assert decode_word(word_code(word, letter_bits(size)),
                           letter_bits(size)) == word


def test_replay_order_and_children_in_a_free_algebra():
    nodes = ((VAR, 0, 0), (VAR, 1, 0), (CONST, 5, 0), (MUL, 1, 0),
             (ADD, 2, 3), (MUL, 4, 1), (MUL, 0, 4))
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
