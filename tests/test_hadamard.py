import copy
import hashlib
import pickle
import random
from dataclasses import replace

import pytest

from nclift import (DEFAULT_MODULUS, Alphabet, BudgetError, CircuitBuilder,
                    HadamardWitness, NCPolynomial, Transition, Weight,
                    build_decoder, build_one_shot_decoder, circuit_from_poly,
                    decode_circuit, encode_circuit, expand, format_automaton,
                    format_circuit, hadamard, hadamard_circuit, hadamard_eval,
                    hadamard_poly, hadamard_witness, iterate_encoder,
                    one_shot_decode_circuit, parse_automaton, sample_family)
from nclift.circuits import ADD, MUL, VAR, replay
from nclift.randcircuits import random_circuit

from helpers import DECODER_SHA256, random_automaton, random_poly

P = DEFAULT_MODULUS


def test_three_routes_agree_on_decoder(rng):
    """Polynomial, evaluation, and circuit routes compute the same product."""
    for m in (2, 3):
        dec = build_decoder(m, modulus=P)
        X = Alphabet("X", m ** 3)
        for _ in range(50):
            c = random_circuit(X, P, rng, max_gates=10, max_degree=3)
            enc = encode_circuit(c, m)
            via_poly = hadamard_poly(expand(enc), dec)
            via_eval = hadamard_eval(enc, dec)
            via_circ = expand(hadamard_circuit(enc, dec))
            assert via_poly == via_eval == via_circ
            # For a block decoder the product recovers the original.
            assert via_poly == expand(c)


def test_three_routes_agree_on_general_automata(rng):
    Y = Alphabet("Y", 2)
    for _ in range(50):
        auto = random_automaton(rng, states=3, letters=2, xvars=3,
                                modulus=P, arrows=7)
        f = random_poly(rng, Y, P, max_len=3, terms=4)
        c = circuit_from_poly(f)
        assert (hadamard_poly(f, auto) == hadamard_eval(c, auto)
                == expand(hadamard_circuit(c, auto)))


@pytest.mark.parametrize("p", [7, 97])
def test_three_routes_agree_on_shared_subcircuits(rng, p):
    """Random DAGs read one node from several gates, so synthesis must
    build the union of the cells its parents need; at small moduli
    constants cancel, and a cell the support pass allows may vanish."""
    Y = Alphabet("Y", 2)
    shared = 0
    for _ in range(80):
        q = rng.randint(1, 4)
        auto = random_automaton(rng, states=q, letters=2, xvars=3,
                                modulus=p, arrows=rng.randint(1, 2 * q * q))
        c = random_circuit(Y, p, rng, max_gates=15, max_degree=4)
        reads = [child for op, a, b in c.nodes if op in (ADD, MUL)
                 for child in (a, b)]
        shared += len(reads) > len(set(reads))
        assert (hadamard_poly(expand(c), auto) == hadamard_eval(c, auto)
                == expand(hadamard_circuit(c, auto)))
    assert shared > 40


@pytest.mark.parametrize("q", [1, 2, 3, 4, 7, 8, 15, 16, 17, 31, 32])
def test_three_routes_agree_where_cell_keys_widen(rng, q):
    """Synthesis keys cell (i, j) as i << s | j with s = q.bit_length(),
    which steps at q = 2^k - 1 -> 2^k; the last row and column of each
    width must not spill into a neighbour's key."""
    Y = Alphabet("Y", 2)
    nonzero = 0
    for _ in range(20):
        auto = random_automaton(rng, states=q, letters=2, xvars=3,
                                modulus=P, arrows=min(2 * q * q, 8 * q))
        # Paths through the highest states, so their cells are read.
        auto = replace(auto, start=rng.choice([0, q - 1]),
                       accept=rng.choice([q - 1, rng.randrange(q)]))
        c = random_circuit(Y, P, rng, max_gates=12, max_degree=4)
        via_poly = hadamard_poly(expand(c), auto)
        assert via_poly == hadamard_eval(c, auto)
        assert via_poly == expand(hadamard_circuit(c, auto))
        nonzero += bool(via_poly.terms)
    assert nonzero >= 5, nonzero


def count_gates(monkeypatch) -> list[int]:
    """From now on, count every add and mul any CircuitBuilder emits."""
    emitted = [0]
    for name in ("add", "mul"):
        def counted(self, lhs, rhs, build=getattr(CircuitBuilder, name)):
            emitted[0] += 1
            return build(self, lhs, rhs)
        monkeypatch.setattr(CircuitBuilder, name, counted)
    return emitted


@pytest.mark.parametrize("kind", ["sum-of-squares", "random-sparse"])
def test_decoding_emits_only_gates_it_keeps(monkeypatch, kind):
    """Every add, mul and variable leaf a block decode asks the builder
    for survives pruning: no cell or weight the output does not read is
    built."""
    f = sample_family(kind, 512, 3, 1, terms=40).circuit
    cases = [(encode_circuit(f, 8), lambda c: decode_circuit(c, 8)),
             (iterate_encoder(f, 2, 2),
              lambda c: one_shot_decode_circuit(c, 2, 2))]
    emitted = count_gates(monkeypatch)
    leaves = [0]

    def counted_var(self, i, build=CircuitBuilder.var):
        leaves[0] += 1
        return build(self, i)
    monkeypatch.setattr(CircuitBuilder, "var", counted_var)
    want = expand(f)
    for enc, decode in cases:
        emitted[0] = leaves[0] = 0
        out = decode(enc)
        report = out.size_report()
        assert emitted[0] == report.gates
        assert leaves[0] == report.inputs
        assert expand(out) == want


def test_shared_subcircuits_emit_only_gates_they_keep(rng, monkeypatch):
    """On DAGs, each node builds exactly the cells some parent reads.
    Unit weights emit no gates of their own, and at a large modulus no
    constants cancel, so every emitted gate must survive pruning."""
    Y = Alphabet("Y", 2)
    cases = []
    for _ in range(40):
        q = rng.randint(1, 4)
        auto = random_automaton(rng, states=q, letters=2, xvars=3,
                                modulus=P, arrows=rng.randint(1, 2 * q * q))
        unit = tuple(Transition(t.source, t.letter, t.target,
                                Weight(1, t.weight.var))
                     for t in auto.transitions)
        cases.append((replace(auto, transitions=unit),
                      random_circuit(Y, P, rng, max_gates=15, max_degree=4)))
    emitted = count_gates(monkeypatch)
    for auto, c in cases:
        emitted[0] = 0
        out = hadamard_circuit(c, auto)
        assert emitted[0] == out.size_report().gates
        assert expand(out) == hadamard_eval(c, auto)


def test_synthesis_bytes_are_pinned():
    """The text of synthesised circuits, node order included, stays
    what it was when this digest was taken.  The automata have weights
    other than 1 and variables shared by several transitions, and the
    circuits read only some of their cells, so leaves that are skipped
    or emitted out of order change the digest.  The second pass finds
    every automaton's support memo warm."""
    rng = random.Random(4099)
    Y = Alphabet("Y", 2)
    pairs = []
    for i in range(60):
        p = (7, 97, P)[i % 3]
        q = rng.randint(1, 4)
        auto = random_automaton(rng, states=q, letters=2, xvars=3,
                                modulus=p, arrows=rng.randint(1, 2 * q * q))
        pairs.append((random_circuit(Y, p, rng, max_gates=15, max_degree=4),
                      auto))
    for _ in range(2):
        digest = hashlib.sha256()
        for c, auto in pairs:
            digest.update(format_circuit(hadamard_circuit(c, auto)).encode())
        for kind in ("sum-of-squares", "random-sparse"):
            f = sample_family(kind, 512, 3, 1, terms=40).circuit
            for out in (decode_circuit(encode_circuit(f, 8), 8),
                        one_shot_decode_circuit(iterate_encoder(f, 2, 2),
                                                2, 2)):
                digest.update(format_circuit(out).encode())
        assert digest.hexdigest() == ("c03cd5589e6c3207807f9d6275d3e7ea"
                                      "67aea63329f50d719540333382c30fb4")


def test_synthesis_bytes_are_pinned_up_to_six_states():
    """A second digest, over automata of 2 to 6 states at small moduli,
    where blocks hold several demanded rows: leaves and constants that
    load their cells in any order but ascending rows change it.  As
    above, the second pass runs on warm support memos."""
    rng = random.Random(6151)
    Y = Alphabet("Y", 2)
    pairs = []
    for i in range(200):
        p = (7, 97)[i % 2]
        q = rng.randint(2, 6)
        auto = random_automaton(rng, states=q, letters=2, xvars=3,
                                modulus=p, arrows=rng.randint(1, 2 * q * q))
        pairs.append((random_circuit(Y, p, rng, max_gates=20, max_degree=5),
                      auto))
    for _ in range(2):
        digest = hashlib.sha256()
        for c, auto in pairs:
            digest.update(format_circuit(hadamard_circuit(c, auto)).encode())
        assert digest.hexdigest() == ("b40d864367883599e5af88b43ddfcb6b"
                                      "acdbc20d1a43f640a8e3f09af3b9bd69")


# Bounds of the support memo: reset before every synthesis, every few,
# and (the default) never within these tests.
MEMO_BOUNDS = [0, 300, hadamard.MAX_SUPPORT_MEMO]


@pytest.mark.parametrize("bound", MEMO_BOUNDS[:2])
def test_pins_hold_under_every_memo_bound(monkeypatch, bound):
    """The pinned tests themselves run at the default bound."""
    monkeypatch.setattr(hadamard, "MAX_SUPPORT_MEMO", bound)
    test_synthesis_bytes_are_pinned()
    test_synthesis_bytes_are_pinned_up_to_six_states()
    for (n, d), want in DECODER_SHA256.items():
        text = format_automaton(build_decoder(n, d))
        assert hashlib.sha256(text.encode()).hexdigest() == want


def memo_jobs(rng) -> list:
    """A mixed sequence of (circuit, automaton) syntheses: random
    automata that each see several circuits, interleaved with the
    shared m = 2, m = 8 and one-shot (2, 2) decoders."""
    Y = Alphabet("Y", 2)
    autos = []
    for p in (7, 97, 7, 97, P):
        q = rng.randint(2, 6)
        autos.append(random_automaton(rng, states=q, letters=2, xvars=3,
                                      modulus=p,
                                      arrows=rng.randint(q, 2 * q * q)))
    jobs = []
    for _ in range(60):
        auto = rng.choice(autos)
        jobs.append((random_circuit(Y, auto.modulus, rng, max_gates=15,
                                    max_degree=4), auto))
    X = Alphabet("X", 512)
    dec2, dec8 = build_decoder(2), build_decoder(8)
    one_shot = build_decoder(2, 2)
    for _ in range(8):
        enc = iterate_encoder(random_circuit(X, P, rng, max_gates=10,
                                             max_degree=3), 2, 2)
        jobs += [(enc, dec2), (hadamard_circuit(enc, dec2), dec8),
                 (enc, one_shot)]
    for kind in ("sum-of-squares", "random-sparse"):
        enc = iterate_encoder(sample_family(kind, 512, 3, 1,
                                            terms=40).circuit, 2, 2)
        jobs += [(enc, one_shot), (enc, dec2)]
    rng.shuffle(jobs)
    return jobs


@pytest.mark.parametrize("bound", MEMO_BOUNDS)
def test_warm_memo_synthesises_a_fresh_automatons_bytes(rng, monkeypatch,
                                                        bound):
    """Emission reads support contents, never table positions, so a
    synthesis on an automaton whose memo earlier calls filled (or
    reset) writes exactly what a copy with no memo writes."""
    monkeypatch.setattr(hadamard, "MAX_SUPPORT_MEMO", bound)
    for c, auto in memo_jobs(rng):
        fresh = copy.deepcopy(auto)
        assert (format_circuit(hadamard_circuit(c, auto))
                == format_circuit(hadamard_circuit(c, fresh)))


def test_memo_stays_within_its_bound(rng, monkeypatch):
    """After every call a memo holds at most the bound plus what that
    call alone adds to an empty memo.  The bound is small enough that
    most automata of the sequence reach it, so their memos reset."""
    bound = 60
    monkeypatch.setattr(hadamard, "MAX_SUPPORT_MEMO", bound)
    resets: dict = {}
    for c, auto in memo_jobs(rng):
        memo = auto.derived(hadamard._SupportMemo)
        before = memo.entries()
        hadamard_circuit(c, auto)
        cold = copy.deepcopy(auto)
        hadamard._supports(c, cold)
        assert memo.entries() <= bound + cold.derived(
            hadamard._SupportMemo).entries()
        if memo.entries() < before:
            resets[id(auto)] = resets.get(id(auto), 0) + 1
    assert len(resets) >= 5


def test_synthesis_budget(monkeypatch):
    """A budget of exactly the nodes a synthesis emits changes nothing;
    one node less stops it at the source gate that crosses it."""
    f = sample_family("random-sparse", 512, 3, 1, terms=40).circuit
    enc = encode_circuit(f, 8)
    dec = build_decoder(8, modulus=P)
    sizes = []

    def counted_finish(self, output, finish=CircuitBuilder.finish, **kw):
        sizes.append(len(self.nodes))
        return finish(self, output, **kw)
    monkeypatch.setattr(CircuitBuilder, "finish", counted_finish)
    text = format_circuit(hadamard_circuit(enc, dec))
    emitted = sizes[-1]
    monkeypatch.setattr(hadamard, "MAX_NODES", emitted)
    assert format_circuit(hadamard_circuit(enc, dec)) == text
    monkeypatch.setattr(hadamard, "MAX_NODES", emitted - 1)
    with pytest.raises(BudgetError, match=rf"^node \d+: synthesis emitted "
                       rf"{emitted} nodes, budget is {emitted - 1}$"):
        hadamard_circuit(enc, dec)
    monkeypatch.setattr(hadamard, "MAX_NODES", 1)
    with pytest.raises(BudgetError, match=r"^node \d+: synthesis emitted "
                       r"\d+ nodes, budget is 1$"):
        hadamard_circuit(enc, dec)


# The planning passes as they were before supports were interned and
# demands made sparse: q row bitmasks per node, dense lists throughout.
# Kept as the reference the sparse passes must agree with.

def dense_supports(circuit, automaton):
    q = automaton.num_states
    p = circuit.modulus
    letters = []
    for letter in range(circuit.alphabet.size):
        rows = [0] * q
        for src, tgt, _, _ in automaton.steps(letter):
            rows[src] |= 1 << tgt
        letters.append(tuple(rows))
    ident = tuple(1 << i for i in range(q))
    zero = (0,) * q
    sups = []

    def keep(rows):
        sups.append(rows)
        return rows

    def mul(a, b):
        acc = []
        for ks in a:
            row = 0
            while ks:
                low = ks & -ks
                row |= b[low.bit_length() - 1]
                ks ^= low
            acc.append(row)
        return keep(tuple(acc))

    replay(circuit, lambda v: keep(letters[v]),
           lambda c: keep(ident if c % p else zero),
           lambda a, b: keep(tuple(x | y for x, y in zip(a, b))), mul)
    return sups


def dense_demands(circuit, sups, cell):
    nodes = circuit.nodes
    q = len(sups[0])
    dem = [None] * len(nodes)
    read = [[0] * q for _ in range(circuit.alphabet.size)]

    def merge(child, rows):
        if any(rows):
            cur = dem[child]
            dem[child] = (rows if cur is None
                          else [a | b for a, b in zip(cur, rows)])

    i, j = cell
    root = [0] * q
    root[i] = sups[circuit.output][i] & 1 << j
    merge(circuit.output, root)
    for v in range(len(nodes) - 1, -1, -1):
        want = dem[v]
        if want is None:
            continue
        op, a, b = nodes[v]
        if op == ADD:
            for child in (a, b):
                merge(child, [w & s for w, s in zip(want, sups[child])])
        elif op == MUL:
            left, right = sups[a], sups[b]
            lwant, rwant = [0] * q, [0] * q
            for r, cols in enumerate(want):
                ks = left[r] if cols else 0
                while ks:
                    low = ks & -ks
                    k = low.bit_length() - 1
                    ks ^= low
                    hit = right[k] & cols
                    if hit:
                        lwant[r] |= low
                        rwant[k] |= hit
            merge(a, lwant)
            merge(b, rwant)
        elif op == VAR:
            rows = read[a]
            for r in range(q):
                rows[r] |= want[r]
    return dem, read


def cells(rows) -> set:
    """The (row, column) cells of {row: bitmask} or of a list of rows."""
    items = rows.items() if isinstance(rows, dict) else enumerate(rows)
    return {(r, c) for r, cols in items
            for c in range(cols.bit_length()) if cols >> c & 1}


def assert_planning_matches_dense(circuit, automaton):
    cell = (automaton.start, automaton.accept)
    want_sups = dense_supports(circuit, automaton)
    table, sups = hadamard._supports(circuit, automaton)
    assert len(set(table)) == len(table)
    assert [table[k] for k in sups] == want_sups
    want_dem, want_read = dense_demands(circuit, want_sups, cell)
    dem, read = hadamard._demands(circuit, table, sups, cell)
    for got, want in zip(dem, want_dem, strict=True):
        if want is None:
            assert got is None
        else:
            assert all(got.values())
            assert cells(got) == cells(want)
    assert read == want_read


@pytest.mark.parametrize("p", [7, 97])
def test_planning_matches_dense_reference_on_random_dags(rng, p):
    """Interned supports and sparse demands plan the same cells as the
    dense passes, on DAGs that share nodes and square them."""
    Y = Alphabet("Y", 2)
    same = 0
    for _ in range(80):
        q = rng.randint(2, 6)
        auto = random_automaton(rng, states=q, letters=2, xvars=3,
                                modulus=p, arrows=rng.randint(1, 2 * q * q))
        c = random_circuit(Y, p, rng, max_gates=15, max_degree=4)
        same += sum(op in (ADD, MUL) and a == b for op, a, b in c.nodes)
        assert_planning_matches_dense(c, auto)
    assert same > 20


@pytest.mark.parametrize("kind", ["sum-of-squares", "random-sparse"])
def test_planning_matches_dense_reference_on_decoders(kind):
    f = sample_family(kind, 512, 3, 1, terms=40).circuit
    enc = iterate_encoder(f, 2, 2)
    dec2 = build_decoder(2, modulus=P)
    assert_planning_matches_dense(enc, dec2)
    assert_planning_matches_dense(hadamard_circuit(enc, dec2),
                                  build_decoder(8, modulus=P))
    assert_planning_matches_dense(enc, build_one_shot_decoder(2, 2,
                                                              modulus=P))


def scaled_poly(f: NCPolynomial, point) -> NCPolynomial:
    """f with each word's coefficient times its letters' point values."""
    scaled = {}
    for w in f.support():
        c = f.coeff(w)
        for a in w:
            c = c * point[a] % f.modulus
        scaled[w] = c
    return NCPolynomial(f.alphabet, f.modulus, scaled)


def test_eval_point_scales_each_letter(rng):
    Y = Alphabet("Y", 2)
    for _ in range(20):
        auto = random_automaton(rng, states=3, modulus=P, arrows=7)
        f = random_poly(rng, Y, P, max_len=3, terms=4)
        point = [rng.randrange(P) for _ in range(2)]
        want = hadamard_poly(scaled_poly(f, point), auto)
        assert hadamard_eval(circuit_from_poly(f), auto, point) == want


def test_eval_at_zero_and_minus_one_coordinates(rng, monkeypatch):
    """A zero coordinate empties its letter's matrix, and p - 1 negates
    it so that sums cancel; either way the sparse rows must agree with
    the polynomial route and hold no empty cell."""
    def no_empty_cell(value):
        assert all(all(row.values()) for row in value)
        return value

    def checked_replay(circuit, var, const, add, mul):
        return replay(circuit, var, lambda c: no_empty_cell(const(c)),
                      lambda a, b: no_empty_cell(add(a, b)),
                      lambda a, b: no_empty_cell(mul(a, b)))
    monkeypatch.setattr(hadamard, "replay", checked_replay)
    dec = build_decoder(8)
    cases = [(enc, expand(enc), dec) for enc in encoded_samples(rng, 12)]
    for _ in range(40):
        p = rng.choice([7, 97, P])
        q = rng.randint(1, 4)
        auto = random_automaton(rng, states=q, modulus=p,
                                arrows=rng.randint(1, 2 * q * q))
        f = random_poly(rng, Alphabet("Y", 2), p, max_len=4, terms=6)
        cases.append((circuit_from_poly(f), f, auto))
        # y0 y1 + (p - 1) y0 y1 + y1: the first sum cancels cell by cell.
        b = CircuitBuilder(Alphabet("Y", 2), p)
        prod = b.mul(b.var(0), b.var(1))
        gone = b.add(prod, b.mul(b.const(p - 1), prod))
        cases.append((b.finish(b.add(gone, b.var(1))),
                      NCPolynomial(Alphabet("Y", 2), p, {(1,): 1}), auto))
    zeros = 0
    for c, f, auto in cases:
        p = c.modulus
        for _ in range(3):
            point = [rng.choice([0, p - 1, p - 1, rng.randrange(1, p)])
                     for _ in range(c.alphabet.size)]
            zeros += 0 in point
            want = hadamard_poly(scaled_poly(f, point), auto)
            assert hadamard_eval(c, auto, point) == want
        for mat in auto.derived(hadamard._term_rows):
            assert all(all(row.values()) for row in mat)
            for coord in (0, p - 1):
                scaled = hadamard._scaled(mat, coord, p)
                assert all(all(row.values()) for row in scaled)
                assert any(scaled) == (coord != 0 and any(mat))
    assert zeros > 50


def test_eval_point_is_checked():
    dec = build_decoder(2, modulus=P)
    b = CircuitBuilder(Alphabet("Y", 2), P)
    c = b.finish(b.mul(b.var(0), b.var(1)))
    with pytest.raises(ValueError, match="^letter y1 has no assigned value$"):
        hadamard_eval(c, dec, [1])
    with pytest.raises(TypeError):
        hadamard_eval(c, dec, [1, 1.5])


def test_all_ones_point_is_plain_product(rng):
    auto = random_automaton(rng, states=3, modulus=P)
    f = random_poly(rng, Alphabet("Y", 2), P, max_len=3, terms=4)
    c = circuit_from_poly(f)
    assert hadamard_eval(c, auto, [1, 1]) == hadamard_eval(c, auto)


def encoded_samples(rng, count: int) -> list:
    X = Alphabet("X", 512)
    return [encode_circuit(random_circuit(X, P, rng, max_gates=10,
                                          max_degree=3), 8)
            for _ in range(count)]


def test_shared_decoder_tables_are_never_written(rng):
    """Evaluating at a point scales copies of the cached decoder's
    matrices, and synthesis writes no table but its support memo:
    afterwards every other table of the cached decoder equals that of
    a twin that has tables of its own, and the two agree on every
    route."""
    dec = build_decoder(8)
    fresh = parse_automaton(format_automaton(dec))
    assert fresh == dec and fresh is not dec
    for enc in encoded_samples(rng, 10):
        point = [rng.randrange(2, P) for _ in range(8)]
        hadamard_eval(enc, dec, point)
        assert hadamard_eval(enc, dec) == hadamard_eval(enc, fresh)
        assert (format_circuit(hadamard_circuit(enc, dec))
                == format_circuit(hadamard_circuit(enc, fresh)))
    assert set(dec._derived) == set(fresh._derived) == {
        hadamard._term_rows, hadamard._positions, hadamard._SupportMemo}
    for table in (hadamard._term_rows, hadamard._positions):
        assert dec.derived(table) == fresh.derived(table)


def test_copies_of_a_used_decoder_agree(rng):
    """Copies and pickles of a decoder whose tables and support memo
    are built equal it, start without them and synthesise the same
    bytes."""
    dec = build_decoder(8)
    samples = encoded_samples(rng, 5)
    texts = [format_circuit(hadamard_circuit(enc, dec)) for enc in samples]
    values = [hadamard_eval(enc, dec, [3] * 8) for enc in samples]
    assert hadamard._SupportMemo in dec._derived
    for twin in (copy.copy(dec), copy.deepcopy(dec),
                 pickle.loads(pickle.dumps(dec))):
        assert twin == dec
        assert not twin._derived
        for enc, text, value in zip(samples, texts, values):
            assert format_circuit(hadamard_circuit(enc, twin)) == text
            assert hadamard_eval(enc, twin, [3] * 8) == value


def test_zero_circuit_gives_zero():
    Y = Alphabet("Y", 2)
    dec = build_decoder(2, modulus=P)
    b = CircuitBuilder(Y, P)
    z = b.finish(b.const(0))
    assert expand(hadamard_circuit(z, dec)).is_zero()
    assert hadamard_eval(z, dec).is_zero()


def test_incompatible_inputs_rejected():
    """Every route refuses another letter count or modulus, by name."""
    dec = build_decoder(2, modulus=7)
    b = CircuitBuilder(Alphabet("X", 8), 7)     # letter count differs
    c8 = b.finish(b.var(0))
    b = CircuitBuilder(Alphabet("Y", 2), 5)     # modulus differs
    c5 = b.finish(b.var(0))
    for route in (hadamard_circuit, hadamard_eval, hadamard_witness):
        with pytest.raises(ValueError, match="^circuit reads 8 letters, "
                                             "automaton has 2$"):
            route(c8, dec)
        with pytest.raises(ValueError, match="^modulus mismatch: 5 vs 7$"):
            route(c5, dec)
    with pytest.raises(ValueError, match="^polynomial has 8 letters, "
                                         "automaton has 2$"):
        hadamard_poly(expand(c8), dec)
    with pytest.raises(ValueError, match="^modulus mismatch: 5 vs 7$"):
        hadamard_poly(expand(c5), dec)


def test_default_name_marks_derivation():
    dec = build_decoder(2, modulus=P)
    b = CircuitBuilder(Alphabet("Y", 2), P, name="g")
    c = b.finish(b.mul(b.var(0), b.var(1)))
    assert hadamard_circuit(c, dec).name == "g.had"
    assert hadamard_circuit(c, dec, name="other").name == "other"


def test_witness_exact_small_case():
    dec = build_decoder(2, modulus=P)
    b = CircuitBuilder(Alphabet("Y", 2), P)
    c = b.finish(b.mul(b.var(0), b.var(1)))
    # q=5, one mul, two inputs: folded-free cost is
    # q^3 + q^2(q-1) muls and q^2 * 2 leaf copies.
    want = HadamardWitness(q=5, in_gates=1, out_gates=125 + 100 + 50,
                           bound=2 * 125 * 1 + 25 * 2, ok=True)
    assert hadamard_witness(c, dec) == want
    assert want.line() == "hadamard q=5 in_gates=1 out_gates=275 bound=300 ok=1"


def test_witness_bound_holds_on_random_corpus(rng):
    dec = build_decoder(2, modulus=P)
    X8 = Alphabet("X", 8)
    for _ in range(30):
        c = random_circuit(X8, P, rng, max_gates=15, max_degree=4)
        w = hadamard_witness(encode_circuit(c, 2), dec)
        assert w.ok
        assert w.out_gates <= w.bound
