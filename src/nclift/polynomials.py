"""Words over a finite alphabet and noncommutative polynomials over Z_p.

A polynomial is a finitely supported map from words (tuples of letter
indices) to nonzero residues.  Multiplication concatenates words and
never commutes them; the zero polynomial has degree 0 by convention.

Alphabet names are display labels carried through the text formats.
Compatibility between objects is decided by alphabet *size* and modulus,
so re-labelled but structurally identical objects interoperate.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from itertools import count
from typing import Iterator, Mapping, Sequence

from .errors import FormatError
from .scalars import assigned_residue, require_prime_modulus, residue

Letters = tuple[int, ...]

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.\-]*\Z")


def check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(f"bad identifier {echo(name)}: single token "
                         f"required")
    return name


@dataclass(frozen=True)
class Alphabet:
    """A finite set of noncommuting variables x_0 .. x_{size-1}."""

    name: str
    size: int

    def __post_init__(self) -> None:
        check_name(self.name)
        object.__setattr__(self, "size", operator.index(self.size))
        if self.size < 1:
            raise ValueError(f"alphabet size must be >= 1, got {self.size}")


def length_lex_key(letters: Letters) -> tuple[int, Letters]:
    """Sort key: by length first, ties broken lexicographically."""
    return (len(letters), letters)


@dataclass(frozen=True, eq=False)
class Word:
    """Brute-mode equivalence's witness: letters with their alphabet.
    Everywhere else a word is a plain Letters tuple."""

    alphabet: Alphabet
    letters: Letters

    def __post_init__(self) -> None:
        letters = tuple(map(operator.index, self.letters))
        object.__setattr__(self, "letters", letters)
        n = self.alphabet.size
        for i in letters:
            if not 0 <= i < n:
                raise ValueError(f"letter x{i} outside alphabet of size {n}")

    # Equality ignores the alphabet label; size and letters decide.
    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.alphabet.size == other.alphabet.size
                and self.letters == other.letters)

    def __hash__(self) -> int:
        return hash((self.alphabet.size, self.letters))

    def __str__(self) -> str:
        if not self.letters:
            return "1"
        return " ".join(f"x{i}" for i in self.letters)


# ---------------------------------------------------------------------------
# Raw term-map kernels.  Keys are letter tuples, values nonzero residues;
# add_maps takes any keys, and circuit expansion merges word codes with
# it.  Shared by polynomial operators, circuit expansion, and automaton
# runs.

def add_maps(a: dict, b: dict, p: int) -> dict:
    out = dict(a)
    for w, c in b.items():
        nc = (out.get(w, 0) + c) % p
        if nc:
            out[w] = nc
        else:
            out.pop(w, None)
    return out


def mul_maps(a: dict, b: dict, p: int) -> dict:
    """The product of two term maps, computed one length class at a time.

    Two products u*v and u'*v' with |u| = |u'| land on the same word only
    when u = u' and v = v'.  With p prime and every coefficient in
    1..p-1, the products of one class of a's words (by length) are thus
    distinct words with nonzero coefficients: each class is built with
    no running sum, and only merging the classes (add_maps) sums,
    dropping the words whose coefficients cancel.
    """
    classes: dict[int, list] = {}
    for u, cu in a.items():
        classes.setdefault(len(u), []).append((u, cu))
    out: dict = {}
    for group in classes.values():
        part = {u + v: cu * cv % p for u, cu in group for v, cv in b.items()}
        out = add_maps(out, part, p) if out else part
    return out


def scale_map(a: dict, c: int, p: int) -> dict:
    c %= p
    if c == 0:
        return {}
    if c == 1:
        return dict(a)
    out = {}
    for w, cw in a.items():
        nc = cw * c % p
        if nc:
            out[w] = nc
    return out


def mul_map_term(a: dict, coeff: int, var: int | None, p: int) -> dict:
    """Right-multiply a term map by coeff (* x_var when var is given)."""
    suffix = () if var is None else (var,)
    out = {}
    for w, c in a.items():
        nc = c * coeff % p
        if nc:
            out[w + suffix] = nc
    return out


class NCPolynomial:
    """Finitely supported word -> residue map with exact mod-p arithmetic.

    Coefficients are ints, reduced mod p when the polynomial is built,
    and letters are ints; both pass through operator.index, so a float
    is a TypeError.  Canonical form stores no zero coefficient.  The
    operators +, -, and * implement ring arithmetic; * also accepts an
    int on either side and scales the polynomial.
    """

    __slots__ = ("alphabet", "modulus", "terms")

    def __init__(self, alphabet: Alphabet, modulus: int,
                 terms: Mapping | None = None, *, _trusted: bool = False):
        require_prime_modulus(modulus)
        if terms is None:
            terms = {}
        if not _trusted:
            n = alphabet.size
            canon: dict[Letters, int] = {}
            for word, c in terms.items():
                word = tuple(map(operator.index, word))
                for i in word:
                    if not 0 <= i < n:
                        raise ValueError(
                            f"letter x{i} outside alphabet of size {n}")
                c = residue(c, modulus)
                if c:
                    canon[word] = c
                elif word in canon:
                    del canon[word]
            terms = canon
        self.alphabet = alphabet
        self.modulus = modulus
        self.terms = terms

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, alphabet: Alphabet, modulus: int) -> "NCPolynomial":
        return cls(alphabet, modulus, {}, _trusted=True)

    @classmethod
    def constant(cls, c, alphabet: Alphabet, modulus: int) -> "NCPolynomial":
        return cls(alphabet, modulus, {(): c})

    @classmethod
    def variable(cls, i: int, alphabet: Alphabet,
                 modulus: int) -> "NCPolynomial":
        return cls(alphabet, modulus, {(i,): 1})

    @classmethod
    def monomial(cls, word, c, alphabet: Alphabet,
                 modulus: int) -> "NCPolynomial":
        return cls(alphabet, modulus, {word: c})

    # -- queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self) -> int:
        """Length of the longest word in the support; 0 for the zero poly."""
        if not self.terms:
            return 0
        return max(len(w) for w in self.terms)

    def coeff(self, word: Sequence[int]) -> int:
        """The residue coefficient of a word, 0 off the support."""
        return self.terms.get(tuple(word), 0)

    def support(self) -> list[Letters]:
        """The words with a nonzero coefficient, in length-lex order."""
        return sorted(self.terms, key=length_lex_key)

    def leading_word(self) -> Letters | None:
        """Length-lex maximal word of the support, None for zero."""
        if not self.terms:
            return None
        return max(self.terms, key=length_lex_key)

    def evaluate(self, assignment) -> int:
        """The residue value at a point; assignment is a sequence or map
        var -> int."""
        p = self.modulus
        total = 0
        for w, c in self.terms.items():
            v = c
            for i in w:
                v = v * assigned_residue(assignment, i, p) % p
            total = (total + v) % p
        return total

    # -- ring operations ------------------------------------------------

    def _check_compat(self, other: "NCPolynomial") -> None:
        if self.alphabet.size != other.alphabet.size:
            raise ValueError(f"alphabet size mismatch: "
                             f"{self.alphabet.size} vs {other.alphabet.size}")
        if self.modulus != other.modulus:
            raise ValueError(
                f"modulus mismatch: {self.modulus} vs {other.modulus}")

    def __add__(self, other) -> "NCPolynomial":
        if not isinstance(other, NCPolynomial):
            return NotImplemented
        self._check_compat(other)
        return NCPolynomial(self.alphabet, self.modulus,
                            add_maps(self.terms, other.terms, self.modulus),
                            _trusted=True)

    def __sub__(self, other) -> "NCPolynomial":
        if not isinstance(other, NCPolynomial):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "NCPolynomial":
        p = self.modulus
        return NCPolynomial(self.alphabet, p,
                            {w: p - c for w, c in self.terms.items()},
                            _trusted=True)

    def __mul__(self, other) -> "NCPolynomial":
        if isinstance(other, int):
            return self.scale(other)
        if not isinstance(other, NCPolynomial):
            return NotImplemented
        self._check_compat(other)
        return NCPolynomial(self.alphabet, self.modulus,
                            mul_maps(self.terms, other.terms, self.modulus),
                            _trusted=True)

    def __rmul__(self, other) -> "NCPolynomial":
        if isinstance(other, int):
            return self.scale(other)
        return NotImplemented

    def scale(self, c: int) -> "NCPolynomial":
        p = self.modulus
        return NCPolynomial(self.alphabet, p,
                            scale_map(self.terms, residue(c, p), p),
                            _trusted=True)

    # -- comparison and display ------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, NCPolynomial):
            return NotImplemented
        return (self.alphabet.size == other.alphabet.size
                and self.modulus == other.modulus
                and self.terms == other.terms)

    __hash__ = None  # mutable term dict inside

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for w in sorted(self.terms, key=length_lex_key):
            c = self.terms[w]
            mono = "*".join(f"x{i}" for i in w) if w else "1"
            parts.append(mono if c == 1 and w else f"{c}*{mono}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return (f"NCPolynomial({self.alphabet.name}, mod {self.modulus}, "
                f"{len(self.terms)} terms)")


# ---------------------------------------------------------------------------
# Text formats.  Poly, circuit and automaton files share these rules:
#
# - The header is the first line: keywords alternating with values.  A
#   wrong keyword or count gives "bad <kind> header: <line>".
# - After the header, '#' starts a comment that runs to the end of its
#   line, and blank lines are skipped.  The printers emit neither.
# - A number is ASCII digits 0-9 (is_digits); coefficients and
#   constants may also carry one leading '-'.  Other Unicode digits are
#   refused, since the printers would write them back as ASCII.  A
#   number longer than int() converts (sys.get_int_max_str_digits(),
#   4300 digits by default) is refused by line (too_long).
#
# A poly file has one term per line, in length-lex order; the empty
# word is written as the token 1:
#
#   poly over X vars 8 modulus 7
#   1 : 1
#   2 : x0 x1
#
# Serializing and reparsing a canonical file is byte-identical.

def is_digits(tok: str) -> bool:
    """True when tok is one or more ASCII digits."""
    return tok.isascii() and tok.isdecimal()


def too_long(lineno: int, toks: Sequence[str]) -> FormatError:
    """The error for a line holding a number too long for int()."""
    return FormatError(f"line {lineno}: number too long "
                       f"({max(map(len, toks))} characters)")


# The most characters of a token or line an error message repeats.
ECHO_CHARS = 40


def echo(text: str, *, quote: bool = True) -> str:
    """text as an error message shows it: its repr (or text itself when
    quote is false), and past ECHO_CHARS characters only the first
    ECHO_CHARS of them followed by the full length."""
    if len(text) <= ECHO_CHARS:
        return repr(text) if quote else text
    head = text[:ECHO_CHARS]
    return (f"{head!r}" if quote else head) + f"... ({len(text)} characters)"


def read_text(text: str, keys: Sequence) -> tuple[list, Iterator]:
    """A file's header values and its body lines.

    keys lays the header out: a string is a keyword, str marks a name
    and int a count.  Values come back in order, counts as ints.  The
    body is an iterator of (line number, tokens, text) triples, one per
    line that is not blank once its comment is cut off; tokens is the
    text split at whitespace, so a parser that reads tokens splits no
    line again.  Comments are cut only when the text holds a '#', and
    the body is built from C iterators, so a parser's own loop is the
    one Python loop over the lines.
    """
    kind = keys[0]
    lines = text.splitlines()
    if not lines:
        raise FormatError(f"empty {kind} file")
    toks = lines[0].split()
    values = []
    if len(toks) == len(keys):
        for tok, key in zip(toks, keys):
            if key is str:
                values.append(tok)
            elif key is int and is_digits(tok):
                try:
                    values.append(int(tok))
                except ValueError:
                    raise too_long(1, toks) from None
            elif key != tok:
                break
        else:
            body = lines[1:]
            if "#" in text:
                body = [line.split("#", 1)[0] for line in body]
            return values, filter(operator.itemgetter(1), zip(
                count(2), map(str.split, body), body))
    raise FormatError(f"bad {kind} header: {echo(lines[0])}")


def read_int(tok: str, lineno: int, *, signed: bool = False) -> int:
    """tok as an int: ASCII digits, after one '-' when signed.  Raises
    ValueError for any other token, too_long for one int() refuses."""
    if not is_digits(tok.removeprefix("-") if signed else tok):
        raise ValueError(f"not a number: {tok!r}")
    try:
        return int(tok)
    except ValueError:
        raise too_long(lineno, (tok,)) from None


def read_index(tok: str, prefix: str, size: int, lineno: int) -> int:
    """i from a letter token <prefix><i>, checked against the size."""
    if tok[:1] != prefix or not is_digits(tok[1:]):
        raise FormatError(f"line {lineno}: expected {prefix}<index>, "
                          f"got {echo(tok)}")
    try:
        i = int(tok[1:])
    except ValueError:
        raise too_long(lineno, (tok,)) from None
    if i >= size:
        raise FormatError(f"line {lineno}: {echo(tok, quote=False)} "
                          f"outside alphabet of size {size}")
    return i


def format_poly(f: NCPolynomial) -> str:
    lines = [f"poly over {f.alphabet.name} vars {f.alphabet.size} "
             f"modulus {f.modulus}"]
    for w in sorted(f.terms, key=length_lex_key):
        mono = " ".join(f"x{i}" for i in w) if w else "1"
        lines.append(f"{f.terms[w]} : {mono}")
    return "\n".join(lines) + "\n"


def parse_poly(text: str) -> NCPolynomial:
    (name, size, modulus), body = read_text(
        text, ("poly", "over", str, "vars", int, "modulus", int))
    try:
        alphabet = Alphabet(name, size)
        require_prime_modulus(modulus)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
    terms: dict[Letters, int] = {}
    for lineno, _, line in body:
        head, sep, tail = line.partition(":")
        if not sep:
            raise FormatError(f"line {lineno}: expected '<coeff> : <word>'")
        try:
            c = read_int(head.strip(), lineno, signed=True)
        except ValueError as exc:
            raise FormatError(f"line {lineno}: bad coefficient "
                              f"{echo(head.strip())}") from exc
        toks = tail.split()
        word = () if toks == ["1"] else tuple(
            read_index(t, "x", size, lineno) for t in toks)
        if word in terms:
            raise FormatError(f"line {lineno}: duplicate word")
        terms[word] = c % modulus
    return NCPolynomial(alphabet, modulus, terms)
