"""Weighted finite automata over a free letter alphabet.

States are 0..q-1 with one start and one accept state (they may
coincide).  Each transition carries a weight that is either a scalar
residue or a single term c*x_i over a second, external variable
alphabet.  The coefficient an automaton assigns to a word
y_{a_1}..y_{a_k} is the (start, accept) entry of the ordered product of
its per-letter transition matrices, a polynomial in the x variables;
the empty word gets 1 exactly when start == accept.

The constructions in this module are block decoders: automata whose
series sends each fixed-length block of y letters to the x variable
whose index is the base-m value of the block, multiplying blocks in
order.  They invert the block encoders in the lifting module.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, NamedTuple, Sequence, TypeVar

from .errors import BudgetError, FormatError
from .polynomials import (Alphabet, Letters, NCPolynomial, add_maps, echo,
                          mul_map_term, read_index, read_int, read_text)
from .scalars import DEFAULT_MODULUS, require_prime_modulus, residue

DEFAULT_MAX_STATES = 50_000
DEFAULT_MAX_TRANSITIONS = 2_000_000
# Distinct decoders build_decoder keeps.  Decoding a depth-2 chain both
# stagewise and in one shot uses 3 (m = 2, m = 8 and n = 2, d = 2).
DECODER_CACHE_SIZE = 8
# Chain sizes are printed in decimal, and CPython prints an int of at most
# 4300 digits by default.  A size past that is refused with BudgetError
# before it is printed, so every size that printed before still does.
MAX_SIZE_DIGITS = 4300
SIZE_CAP = 10 ** MAX_SIZE_DIGITS

_T = TypeVar("_T")


def word_to_index(letters: Sequence[int], base: int) -> int:
    """Value of a word as base-`base` digits, most significant first."""
    if base < 1:
        raise ValueError(f"base must be positive, got {base}")
    value = 0
    for a in letters:
        if not 0 <= a < base:
            raise ValueError(f"letter {a} outside alphabet of size {base}")
        value = value * base + a
    return value


def index_to_word(index: int, base: int, length: int) -> Letters:
    """Base-`base` digits of index, most significant first, zero padded."""
    if base < 1:
        raise ValueError(f"base must be positive, got {base}")
    if not 0 <= index < base ** length:
        raise ValueError(f"index {index} needs more than {length} digits "
                         f"in base {base}")
    digits = []
    for _ in range(length):
        index, r = divmod(index, base)
        digits.append(r)
    return tuple(reversed(digits))


class Weight(NamedTuple):
    """Either the scalar `coeff` (var None) or the term coeff * x_var."""

    coeff: int
    var: int | None = None


class Transition(NamedTuple):
    source: int
    letter: int
    target: int
    weight: Weight


@dataclass(frozen=True)
class WeightedAutomaton:
    y_alphabet: Alphabet
    x_alphabet: Alphabet
    modulus: int
    num_states: int
    start: int
    accept: int
    transitions: tuple[Transition, ...]

    def __post_init__(self) -> None:
        """Check ranges and bring transitions to canonical form.

        Canonical: sorted by strictly increasing (source, letter,
        target), coefficients in 1..p-1, so parallel arrows are merged
        and zero weights dropped.  Every transition list is checked,
        merged and sorted, whatever order it comes in.  States, letters
        and variables pass through operator.index and coefficients
        through residue, so a float anywhere is a TypeError.
        """
        p = require_prime_modulus(self.modulus)
        index = operator.index
        for field in ("num_states", "start", "accept"):
            object.__setattr__(self, field, index(getattr(self, field)))
        q = self.num_states
        if q < 1:
            raise ValueError("an automaton needs at least one state")
        for label, state in (("start", self.start), ("accept", self.accept)):
            if not 0 <= state < q:
                raise ValueError(f"{label} state {state} out of range")
        letters, xvars = self.y_alphabet.size, self.x_alphabet.size
        merged: dict[tuple[int, int, int], Weight] = {}
        for source, letter, target, (coeff, var) in self.transitions:
            source, letter, target = map(index, (source, letter, target))
            if var is not None:
                var = index(var)
            coeff = residue(coeff, p)
            if not 0 <= source < q:
                raise ValueError(f"transition source {source} out of range")
            if not 0 <= target < q:
                raise ValueError(f"transition target {target} out of range")
            if not 0 <= letter < letters:
                raise ValueError(f"transition letter y{letter} outside "
                                 f"alphabet of size {letters}")
            if var is not None and not 0 <= var < xvars:
                raise ValueError(f"weight variable x{var} outside alphabet "
                                 f"of size {xvars}")
            key = (source, letter, target)
            prev = merged.get(key)
            if prev is None:
                merged[key] = Weight(coeff, var)
            elif prev.var == var:
                merged[key] = Weight((prev.coeff + coeff) % p, var)
            else:
                raise ValueError(f"transitions {key} mix scalar and term "
                                 f"weights, or terms in different variables")
        canon = tuple(Transition(s, a, t, w)
                      for (s, a, t), w in sorted(merged.items())
                      if w.coeff != 0)
        object.__setattr__(self, "transitions", canon)
        steps: dict[int, list[tuple[int, int, int, int | None]]] = {}
        for source, letter, target, (coeff, var) in canon:
            steps.setdefault(letter, []).append((source, target, coeff, var))
        # Read-only, because build_decoder hands one instance to every
        # caller asking for the same decoder.
        object.__setattr__(self, "_steps", MappingProxyType(
            {a: tuple(v) for a, v in steps.items()}))
        object.__setattr__(self, "_derived", {})

    def __reduce__(self):
        # A mapping proxy cannot be pickled; copies rebuild _steps and
        # start with no derived tables.
        return (type(self), (self.y_alphabet, self.x_alphabet, self.modulus,
                             self.num_states, self.start, self.accept,
                             self.transitions))

    def derived(self, build: Callable[[WeightedAutomaton], _T]) -> _T:
        """build(self), made on the first call with each build function
        and kept with this automaton.

        A cached decoder is shared by every caller, so tables that
        depend only on the automaton are built once for all of them.
        No caller may change what build returns, with one exception:
        Hadamard synthesis adds to its support memo on every call and
        resets it past a fixed bound (hadamard.MAX_SUPPORT_MEMO).  That
        memo assumes one thread at a time; nclift starts none.
        """
        table = self._derived.get(build)
        if table is None:
            table = self._derived[build] = build(self)
        return table

    def steps(self, letter: int) -> tuple[tuple[int, int, int, int | None],
                                          ...]:
        """All (source, target, coeff, var) moves on one letter."""
        return self._steps.get(letter, ())

    @property
    def transition_count(self) -> int:
        return len(self.transitions)

    def _advance(self, vec: dict[int, dict], letter: int) -> dict[int, dict]:
        out: dict[int, dict] = {}
        for src, tgt, coeff, var in self.steps(letter):
            cur = vec.get(src)
            if not cur:
                continue
            contrib = mul_map_term(cur, coeff, var, self.modulus)
            prev = out.get(tgt)
            out[tgt] = (add_maps(prev, contrib, self.modulus)
                        if prev else contrib)
        return {s: m for s, m in out.items() if m}

    def coeff_of_word(self, word: Sequence[int]) -> NCPolynomial:
        """The x-polynomial this automaton assigns to one y-word."""
        vec: dict[int, dict] = {self.start: {(): 1}}
        for a in word:
            if not 0 <= a < self.y_alphabet.size:
                raise ValueError(f"letter y{a} outside alphabet of size "
                                 f"{self.y_alphabet.size}")
            vec = self._advance(vec, a)
            if not vec:
                break
        terms = vec.get(self.accept, {})
        return NCPolynomial(self.x_alphabet, self.modulus, dict(terms),
                            _trusted=True)


def series_truncate(automaton: WeightedAutomaton, max_length: int, *,
                    max_words: int = 100_000) -> dict[Letters, NCPolynomial]:
    """All nonzero series coefficients on y-words up to a length.

    Enumerates every word of length <= max_length one length at a
    time, each word's state vector one step on from its prefix's, and
    returns {word: coefficient} for the nonzero ones in length-lex
    order.  A word whose vector is empty has no live extension, so it
    leaves the layer.  Refuses a negative length with ValueError, and
    up front with BudgetError if the word count would exceed max_words.
    """
    if max_length < 0:
        raise ValueError(f"length must be nonnegative, got {max_length}")
    m = automaton.y_alphabet.size
    total = sum(m ** j for j in range(max_length + 1))
    if total > max_words:
        raise BudgetError(f"{total} words of length <= {max_length} over "
                          f"{m} letters exceed the budget of {max_words}")
    out: dict[Letters, NCPolynomial] = {}
    layer: list[tuple[Letters, dict[int, dict]]] = [
        ((), {automaton.start: {(): 1}})]
    for length in range(max_length + 1):
        longer = []
        for letters, vec in layer:
            terms = vec.get(automaton.accept)
            if terms:
                out[letters] = NCPolynomial(
                    automaton.x_alphabet, automaton.modulus, dict(terms),
                    _trusted=True)
            if length < max_length:
                for a in range(m):
                    nxt = automaton._advance(vec, a)
                    if nxt:
                        longer.append((letters + (a,), nxt))
        layer = longer
    return out


# ---------------------------------------------------------------------------
# Block decoders.

def one_shot_nominal_states(n: int, d: int, *, merged: bool = True) -> int:
    """The 2 n^((3^d - 1)/2) + 2 state estimate for a one-shot decoder.

    This is what doubling the decoder recurrence would suggest; the
    correct automaton is larger for d >= 2 (see build_decoder),
    and one_shot_state_count gives its true size.  With merged start and
    accept states the estimate drops by one.
    """
    half = (3 ** d - 1) // 2
    return 2 * n ** half + (1 if merged else 2)


def one_shot_state_count(n: int, d: int, *, merged: bool = True) -> int:
    """Exact state count of build_decoder(n, d): 1 + 2 (n + ... + n^L)
    with L = (3^d - 1)/2 in closed form, so 3^d at n = 1.  A count of
    more than MAX_SIZE_DIGITS digits raises BudgetError uncomputed; as
    3^(3k) > 10^k, 3^d is tested with d capped at 3 MAX_SIZE_DIGITS."""
    if n > 1:
        chain_variables(n, d)       # the count is below n^(3^d)
    elif n == 1 and 3 ** min(d, 3 * MAX_SIZE_DIGITS) >= SIZE_CAP:
        raise BudgetError(f"a one-shot decoder over 1 letter at depth {d} "
                          f"has 3^{d} states, more than {MAX_SIZE_DIGITS} "
                          f"decimal digits")
    half = (3 ** d - 1) // 2
    side = half if n == 1 else (n ** (half + 1) - n) // (n - 1)
    return 1 + 2 * side + (0 if merged else 1)


def chain_variables(n: int, d: int) -> int:
    """n^(3^d), the variable count of a depth-d chain down to n letters.

    Raises BudgetError, naming the count as n^(3^d), once it has more
    than MAX_SIZE_DIGITS decimal digits.  The count is cubed up one
    stage at a time and the cubing stops there, so no larger count is
    ever computed.
    """
    size = n
    for _ in range(d if n > 1 else 0):
        size = size ** 3
        if size >= SIZE_CAP:
            raise BudgetError(f"a depth-{d} chain down to {n} letters has "
                              f"{n}^(3^{d}) variables, more than "
                              f"{MAX_SIZE_DIGITS} decimal digits")
    return size


def build_decoder(n: int, d: int = 1, *,
                  modulus: int = DEFAULT_MODULUS,
                  max_states: int = DEFAULT_MAX_STATES,
                  max_transitions: int = DEFAULT_MAX_TRANSITIONS,
                  ) -> WeightedAutomaton:
    """The block decoder undoing d rounds of 1-to-3 encoding at once.

    Blocks have length 3^d over n letters, and block y_{a_1}..y_{a_B}
    maps to the variable whose index has base-n digits a_1..a_B, so the
    x alphabet has n^(3^d) variables.  Blocks multiply in order, the
    empty word gets 1 and every other word gets 0.  So composed with
    the matching encoder chain it is the identity on polynomials.

    d = 1 is the three-letter block decoder on an m = n letter
    alphabet: 2m + 1 states and m + m^3 + m transitions, where the
    middle transition from state 1+a to 1+m+c reading y_b carries the
    weight x_{m^2 a + m b + c}.

    Shape: a full prefix tree on the first L = (3^d - 1)/2 letters of a
    block, one weighted middle transition, and a suffix tree checking
    the last L letters, with start and accept merged into state 0
    (merging them is what makes the empty-word coefficient 1).  No
    automaton for this series can do better than 1 + 2 sum_{j=1..L} n^j
    states: distinct prefixes of the same length are pairwise separated
    by their completions (each forces a different variable), and
    likewise for suffixes, so the two-layer 2 n^L + 2 estimate of
    one_shot_nominal_states is short for d >= 2.

    State ids: 0, then prefix states by length then base-n value, then
    suffix states in the same order.  Raises BudgetError before building
    anything if the states or transitions would exceed their budgets,
    or if the x alphabet would (chain_variables).

    The alphabets are named Y and X.  Decoders are memoised on (n, d,
    modulus), the arguments that fix the automaton: every call for the
    same decoder returns the same shared, immutable instance.  The
    argument and budget checks run on every call, before the lookup, so
    a budget refuses a decoder even when it is cached; failed builds are
    not cached.  At worst the cache pins DECODER_CACHE_SIZE decoders, each
    within the transition budget of the call that built it, and each
    with a synthesis support memo of at most hadamard.MAX_SUPPORT_MEMO
    entries plus one call's.  Filled past that bound by random circuits
    over its letters, a memo held 1.8 MB at q = 61 and 1.9 MB at
    q = 241; 65,536 memoised pairs alone would hold 11 MB (tracemalloc).
    """
    if n < 1:
        raise ValueError(f"alphabet size must be positive, got {n}")
    if d < 1:
        raise ValueError(f"depth must be positive, got {d}")
    variables = chain_variables(n, d)
    num_states = one_shot_state_count(n, d)
    # One middle transition per block, one per non-root tree state.
    num_trans = variables + num_states - 1
    if num_states > max_states:
        raise BudgetError(f"decoder needs {num_states} states, "
                          f"budget is {max_states}")
    if num_trans > max_transitions:
        raise BudgetError(f"decoder needs {num_trans} transitions, "
                          f"budget is {max_transitions}")
    return _build(n, d, modulus)


@functools.lru_cache(maxsize=DECODER_CACHE_SIZE)
def _build(n: int, d: int, modulus: int) -> WeightedAutomaton:
    """build_decoder's construction, after its checks have passed."""
    half = (3 ** d - 1) // 2
    layer = [n ** j for j in range(half + 1)]
    side = sum(layer[1:])

    # pre[k] = id of the first length-k prefix state, suf[k] the same
    # for suffixes; the empty word (k = 0) is the merged state 0 in both.
    pre = [0, 1]
    for k in range(2, half + 1):
        pre.append(pre[-1] + layer[k - 1])
    suf = [0] + [first + side for first in pre[1:]]

    y = Alphabet("Y", n)
    x = Alphabet("X", n ** (3 ** d))
    one = Weight(1)
    trans: list[Transition] = []
    for k in range(1, half + 1):
        for value in range(layer[k]):
            src = pre[k - 1] + value // n
            trans.append(Transition(src, value % n, pre[k] + value, one))
    width = layer[half]
    targets = range(suf[half], suf[half] + width)
    for prefix in range(width):
        src = pre[half] + prefix
        for b in range(n):
            var = (prefix * n + b) * width
            for tgt in targets:
                trans.append(Transition(src, b, tgt, Weight(1, var)))
                var += 1
    for k in range(1, half + 1):
        for value in range(layer[k]):
            first, rest = divmod(value, layer[k - 1])
            tgt = suf[k - 1] + rest
            trans.append(Transition(suf[k] + value, first, tgt, one))
    return WeightedAutomaton(y, x, modulus, 1 + 2 * side, 0, 0, tuple(trans))


# One builder under both names: one-shot decoding is build_decoder(n, d).
build_one_shot_decoder = build_decoder


# ---------------------------------------------------------------------------
# Text format (shared rules at polynomials.read_text): one trans line per
# transition, sorted by (source, letter, target).  The x alphabet keeps
# no name on disk and parses back as "X".
#
#   automaton over Y letters 2 states 5 start 0 accept 0 xvars 8 modulus 7
#   trans 0 y0 1 scalar 1
#   trans 1 y1 3 term 1 x2

def format_automaton(a: WeightedAutomaton) -> str:
    lines = [f"automaton over {a.y_alphabet.name} "
             f"letters {a.y_alphabet.size} states {a.num_states} "
             f"start {a.start} accept {a.accept} "
             f"xvars {a.x_alphabet.size} modulus {a.modulus}"]
    for t in a.transitions:
        w = t.weight
        tail = (f"scalar {w.coeff}" if w.var is None
                else f"term {w.coeff} x{w.var}")
        lines.append(f"trans {t.source} y{t.letter} {t.target} {tail}")
    return "\n".join(lines) + "\n"


def parse_automaton(text: str) -> WeightedAutomaton:
    values, body = read_text(text, ("automaton", "over", str, "letters", int,
                                    "states", int, "start", int, "accept",
                                    int, "xvars", int, "modulus", int))
    yname, letters, num_states, start, accept, xvars, modulus = values
    try:
        y = Alphabet(yname, letters)
        x = Alphabet("X", xvars)
        require_prime_modulus(modulus)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc

    trans: list[Transition] = []
    for lineno, toks, _ in body:
        if toks[0] != "trans" or len(toks) not in (6, 7):
            raise FormatError(f"line {lineno}: expected a trans line")
        try:
            source = read_int(toks[1], lineno)
            target = read_int(toks[3], lineno)
        except ValueError as exc:
            raise FormatError(f"line {lineno}: bad state id") from exc
        letter = read_index(toks[2], "y", y.size, lineno)
        try:
            coeff = read_int(toks[5], lineno, signed=True) % modulus
        except ValueError as exc:
            raise FormatError(f"line {lineno}: bad coefficient "
                              f"{echo(toks[5])}") from exc
        if toks[4] == "scalar" and len(toks) == 6:
            weight = Weight(coeff)
        elif toks[4] == "term" and len(toks) == 7:
            weight = Weight(coeff, read_index(toks[6], "x", x.size, lineno))
        else:
            raise FormatError(f"line {lineno}: bad weight "
                              f"{echo(toks[4])}")
        trans.append(Transition(source, letter, target, weight))
    try:
        return WeightedAutomaton(y, x, modulus, num_states, start, accept,
                                 tuple(trans))
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
