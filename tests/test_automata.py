import copy
import hashlib
import itertools
import pickle

import pytest

import nclift
from nclift import (DEFAULT_MODULUS, Alphabet, BudgetError, NCPolynomial,
                    Transition, Weight, WeightedAutomaton, Word, automata,
                    build_decoder, build_one_shot_decoder, chain_decoders,
                    format_automaton, index_to_word, one_shot_nominal_states,
                    one_shot_state_count, series_truncate, word_to_index)

from helpers import DECODER_SHA256, coeff_by_paths, random_automaton

P = DEFAULT_MODULUS


def test_word_index_round_trip():
    for base in (2, 3, 5):
        for length in (0, 1, 3):
            for i in range(base ** length):
                w = index_to_word(i, base, length)
                assert len(w) == length
                assert word_to_index(w, base) == i
    assert index_to_word(5, 2, 3) == (1, 0, 1)
    with pytest.raises(ValueError):
        index_to_word(8, 2, 3)
    with pytest.raises(ValueError):
        word_to_index((2,), 2)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_decoder_floors(m):
    dec = build_decoder(m, modulus=P)
    assert dec.num_states == 2 * m + 1
    assert dec.transition_count == m ** 3 + 2 * m
    assert dec.start == dec.accept == 0


@pytest.mark.parametrize("m", [2, 3])
def test_decoder_block_table(m):
    dec = build_decoder(m, modulus=P)
    X = dec.x_alphabet
    # Empty word: start and accept coincide.
    assert dec.coeff_of_word(()) == NCPolynomial.constant(1, X, P)
    # One block: y_a y_b y_c picks out x with index m^2*a + m*b + c.
    for a, b, c in itertools.product(range(m), repeat=3):
        got = dec.coeff_of_word((a, b, c))
        want = NCPolynomial.variable(m * m * a + m * b + c, X, P)
        assert got == want
    # Non-multiples of the block length vanish.
    for length in (1, 2, 4, 5):
        for w in itertools.product(range(m), repeat=length):
            assert dec.coeff_of_word(w).is_zero()


def test_decoder_two_blocks_multiply_in_order():
    dec = build_decoder(2, modulus=P)
    X = dec.x_alphabet
    for i, j in itertools.product(range(8), repeat=2):
        w = index_to_word(i, 2, 3) + index_to_word(j, 2, 3)
        want = (NCPolynomial.variable(i, X, P)
                * NCPolynomial.variable(j, X, P))
        assert dec.coeff_of_word(w) == want


def test_series_truncate_decoder():
    dec = build_decoder(2, modulus=P)
    table = series_truncate(dec, 6)
    assert len(table) == 1 + 8 + 64
    X = dec.x_alphabet
    assert table[Word(dec.y_alphabet, ())] == NCPolynomial.constant(1, X, P)
    for i in range(8):
        w = Word(dec.y_alphabet, index_to_word(i, 2, 3))
        assert table[w] == NCPolynomial.variable(i, X, P)


def test_series_truncate_budget():
    dec = build_decoder(3, modulus=P)
    with pytest.raises(BudgetError):
        series_truncate(dec, 6, max_words=100)


def test_coeff_of_word_matches_path_enumeration(rng):
    for _ in range(20):
        auto = random_automaton(rng)
        for length in range(5):
            for w in itertools.product(range(2), repeat=length):
                assert auto.coeff_of_word(w) == coeff_by_paths(auto, w)


def test_matrix_product_matches_coeff(rng):
    for _ in range(10):
        auto = random_automaton(rng)
        mats = auto.transition_matrices()
        for length in range(4):
            for w in itertools.product(range(2), repeat=length):
                prod = None
                for a in w:
                    prod = mats[a] if prod is None else prod * mats[a]
                if prod is None:
                    expected = NCPolynomial.constant(
                        int(auto.start == auto.accept),
                        auto.x_alphabet, auto.modulus)
                else:
                    expected = prod.entry(auto.start, auto.accept)
                assert auto.coeff_of_word(w) == expected


def test_empty_word_needs_merged_endpoints(rng):
    auto = random_automaton(rng, states=3)
    c = auto.coeff_of_word(())
    if auto.start == auto.accept:
        assert c == NCPolynomial.constant(1, auto.x_alphabet, auto.modulus)
    else:
        assert c.is_zero()


def test_parallel_weights_merge():
    Y, X = Alphabet("Y", 1), Alphabet("X", 2)
    dup = (Transition(0, 0, 1, Weight(3)), Transition(0, 0, 1, Weight(4)))
    auto = WeightedAutomaton(Y, X, 97, 2, 0, 1, dup)
    assert auto.transition_count == 1
    assert auto.transitions[0].weight == Weight(7)

    same_var = (Transition(0, 0, 1, Weight(3, 1)),
                Transition(0, 0, 1, Weight(94, 1)))
    auto2 = WeightedAutomaton(Y, X, 97, 2, 0, 1, same_var)
    # 3 + 94 = 0 mod 97: the arrow disappears entirely.
    assert auto2.transition_count == 0

    with pytest.raises(ValueError):
        WeightedAutomaton(Y, X, 97, 2, 0, 1,
                          (Transition(0, 0, 1, Weight(3)),
                           Transition(0, 0, 1, Weight(4, 0))))
    with pytest.raises(ValueError):
        WeightedAutomaton(Y, X, 97, 2, 0, 1,
                          (Transition(0, 0, 1, Weight(3, 0)),
                           Transition(0, 0, 1, Weight(4, 1))))


def rebuilt_the_long_way(auto):
    """auto, built again from its transitions in reverse order with
    every weight split into two summands, so none of it is canonical."""
    trans = []
    for t in reversed(auto.transitions):
        coeff, var = t.weight
        for part in (2, coeff - 2):
            trans.append(Transition(t.source, t.letter, t.target,
                                    Weight(part, var)))
    return WeightedAutomaton(auto.y_alphabet, auto.x_alphabet, auto.modulus,
                             auto.num_states, auto.start, auto.accept,
                             tuple(trans))


@pytest.mark.parametrize("build, args", [
    *(("build_decoder", (m,)) for m in (1, 2, 3, 4)),
    *(("build_one_shot_decoder", nd) for nd in ((2, 1), (3, 1), (2, 2)))])
def test_canonical_input_is_kept_and_matches_a_merge(build, args):
    """The builder, under either public name, emits canonical
    transitions; merging and sorting the same weights gives the same
    automaton."""
    auto = getattr(nclift, build)(*args, modulus=P)
    merged = rebuilt_the_long_way(auto)
    assert merged.transitions == auto.transitions
    assert merged == auto
    for a in range(auto.y_alphabet.size):
        assert merged.steps(a) == auto.steps(a)


def test_sorted_input_is_still_checked_and_reduced():
    Y, X = Alphabet("Y", 2), Alphabet("X", 2)
    first = Transition(0, 0, 0, Weight(5))
    for bad in (Transition(0, 1, 2, Weight(1)),
                Transition(0, 1, 1, Weight(1, 2))):
        with pytest.raises(ValueError, match="out of range|outside"):
            WeightedAutomaton(Y, X, 97, 2, 0, 0, (first, bad))
    auto = WeightedAutomaton(Y, X, 97, 2, 0, 0,
                             (first,
                              Transition(0, 0, 1, Weight(97)),
                              Transition(0, 1, 0, Weight(100, 1)),
                              Transition(1, 1, 1, Weight(1))))
    assert auto.transitions == (first,
                                Transition(0, 1, 0, Weight(3, 1)),
                                Transition(1, 1, 1, Weight(1)))
    assert auto.steps(1) == ((0, 0, 3, 1), (1, 1, 1, None))


def test_automaton_validation():
    Y, X = Alphabet("Y", 2), Alphabet("X", 2)
    with pytest.raises(ValueError):
        WeightedAutomaton(Y, X, 97, 0, 0, 0, ())
    with pytest.raises(ValueError):
        WeightedAutomaton(Y, X, 97, 2, 2, 0, ())
    with pytest.raises(ValueError):
        WeightedAutomaton(Y, X, 97, 2, 0, 0,
                          (Transition(0, 5, 1, Weight(1)),))
    with pytest.raises(ValueError):
        WeightedAutomaton(Y, X, 97, 2, 0, 0,
                          (Transition(0, 0, 1, Weight(1, 9)),))


@pytest.mark.parametrize("n, d", sorted(DECODER_SHA256))
def test_decoder_bytes_are_pinned(n, d):
    text = format_automaton(build_decoder(n, d))
    assert hashlib.sha256(text.encode()).hexdigest() == DECODER_SHA256[n, d]


def test_one_shot_state_counts():
    # L = (3^d - 1) / 2 prefix and as many suffix states per length class.
    assert one_shot_state_count(2, 2) == 1 + 2 * (2 + 4 + 8 + 16)
    assert one_shot_state_count(2, 2, merged=False) == 62
    assert one_shot_nominal_states(2, 2) == 2 * 2**4 + 1
    assert one_shot_nominal_states(2, 2, merged=False) == 34
    dec = build_one_shot_decoder(2, 2, modulus=P)
    assert dec.num_states == 61
    assert dec.transition_count == 2**9 + 2 * (2 + 4 + 8 + 16)


def test_one_shot_block_table_sampled(rng):
    dec = build_one_shot_decoder(2, 2, modulus=P)
    X = dec.x_alphabet
    indices = {0, 511} | {rng.randrange(512) for _ in range(16)}
    for i in indices:
        w = index_to_word(i, 2, 9)
        assert dec.coeff_of_word(w) == NCPolynomial.variable(i, X, P)
    # Off-length words vanish; two blocks multiply in order.
    assert dec.coeff_of_word((0,) * 5).is_zero()
    two = index_to_word(7, 2, 9) + index_to_word(300, 2, 9)
    want = NCPolynomial.variable(7, X, P) * NCPolynomial.variable(300, X, P)
    assert dec.coeff_of_word(two) == want


def test_one_shot_budget_caps():
    with pytest.raises(BudgetError):
        build_one_shot_decoder(2, 2, modulus=P, max_states=10)
    with pytest.raises(BudgetError):
        build_one_shot_decoder(2, 2, modulus=P, max_transitions=100)
    # The d = 1 case has the same caps: m = 130 needs 130^3 + 260
    # transitions, over the default 2,000,000.
    with pytest.raises(BudgetError, match="^decoder needs 2197260 "
                                          "transitions, budget is 2000000$"):
        build_decoder(130, modulus=P)
    with pytest.raises(BudgetError, match="^decoder needs 5 states"):
        build_decoder(2, modulus=P, max_states=4)


def test_decoders_are_shared_under_every_name():
    dec = build_decoder(2, 2)
    assert build_one_shot_decoder(2, 2) is dec
    assert build_decoder(2, 2, modulus=P, max_states=61) is dec
    assert chain_decoders(2, 2, P, one_shot=True)[0] is dec


@pytest.mark.parametrize("options, y, x, p", [
    ({"modulus": 7}, "Y", "X", 7)])
def test_each_cache_key_field_gives_its_own_decoder(options, y, x, p):
    plain = build_decoder(2)
    other = build_decoder(2, **options)
    assert other is not plain
    assert other.y_alphabet == Alphabet(y, 2)
    assert other.x_alphabet == Alphabet(x, 8)
    assert other.modulus == p
    assert other.transitions == plain.transitions
    assert build_decoder(2) is plain


def test_budget_refuses_a_cached_decoder():
    build_decoder(2, 2)
    hits = automata._build.cache_info().hits
    with pytest.raises(BudgetError, match="^decoder needs 61 states"):
        build_decoder(2, 2, max_states=10)
    with pytest.raises(BudgetError, match="^decoder needs 572 transitions"):
        build_one_shot_decoder(2, 2, max_transitions=571)
    assert automata._build.cache_info().hits == hits


def test_failed_builds_are_not_cached():
    before = automata._build.cache_info().currsize
    with pytest.raises(ValueError):
        build_decoder(2, modulus=8)
    assert automata._build.cache_info().currsize == before


def test_decoder_cache_is_bounded():
    size = automata.DECODER_CACHE_SIZE
    for n in range(1, size + 3):
        build_decoder(n)
    info = automata._build.cache_info()
    assert info.maxsize == size
    assert info.currsize <= size


def test_shared_decoder_steps_are_read_only():
    dec = build_decoder(2)
    moves = dec.steps(0)
    with pytest.raises(TypeError):
        dec._steps[0] = ()
    assert build_decoder(2).steps(0) is moves


def test_copies_and_pickles_rebuild_the_step_table():
    dec = build_decoder(2)
    for twin in (copy.copy(dec), copy.deepcopy(dec),
                 pickle.loads(pickle.dumps(dec))):
        assert twin == dec
        for a in range(dec.y_alphabet.size):
            assert twin.steps(a) == dec.steps(a)


def test_random_automaton_refuses_more_arrows_than_triples(rng):
    """Arrows are distinct (source, letter, target) triples, so asking
    for more than there are raises instead of drawing forever."""
    with pytest.raises(ValueError, match="^12 arrows need distinct "
                       "triples, 1 states and 2 letters have 2$"):
        random_automaton(rng, states=1, letters=2, arrows=12)
    full = random_automaton(rng, states=2, letters=2, arrows=8)
    assert full.transition_count == 8


def test_derived_tables_are_built_once_per_automaton(rng):
    auto = random_automaton(rng)
    calls = []

    def build(a):
        calls.append(a)
        return object()
    table = auto.derived(build)
    assert auto.derived(build) is table
    assert calls == [auto]
    for twin in (copy.deepcopy(auto), pickle.loads(pickle.dumps(auto))):
        assert twin.derived(build) is not table
    assert len(calls) == 3
