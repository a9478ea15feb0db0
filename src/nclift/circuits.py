"""Arithmetic circuits over free noncommuting variables.

A circuit is an immutable DAG: a tuple of fan-in <= 2 nodes with dense
ids 0..len-1, children strictly below parents, and one designated
output, all checked when the circuit is built.  A node is a plain
triple (op, a, b): a gate is (ADD or MUL, lhs, rhs), a leaf is
(VAR, index, 0) or (CONST, residue, 0), and each op is the text
format's keyword for it.  Multiplication children are ordered;
nothing ever commutes them.  Gate counts (add/mul) are reported
separately from leaf counts (input/const) so size bounds can be
asserted against gates alone.

Expansion keys each word by one int, its code (decode_word): a
product concatenates two words with one shift and one add, and the
codes of one alphabet sort in length-lex order.  expand decodes the
codes into letter tuples once, at the end.
"""

from __future__ import annotations

import operator
import struct
from collections import Counter
from dataclasses import KW_ONLY, InitVar, dataclass
from itertools import compress
from typing import Callable, Mapping, Sequence

from .errors import BudgetError, FormatError
from .polynomials import (Alphabet, Letters, NCPolynomial, add_maps,
                          check_name, echo, is_digits, length_lex_key,
                          read_text, too_long)
from .scalars import assigned_residue, require_prime_modulus

DEFAULT_MAX_DEGREE = 64
DEFAULT_MAX_TERMS = 200_000

# Cost guard for a single convolution inside expand(); the result budget
# alone can't stop a product whose intermediate pair count explodes.
_MAX_PRODUCT_PAIRS = 5_000_000


VAR = "var"
CONST = "const"
ADD = "add"
MUL = "mul"

Node = tuple[str, int, int]
Matrix = Sequence[Sequence[int]]


@dataclass(frozen=True)
class SizeReport:
    adds: int
    muls: int
    inputs: int
    consts: int

    @property
    def gates(self) -> int:
        return self.adds + self.muls

    @property
    def total(self) -> int:
        return self.adds + self.muls + self.inputs + self.consts


@dataclass(frozen=True)
class Circuit:
    """A checked circuit.  Circuit(...) checks the name, the modulus and
    every node, and raises ValueError naming the first fault.

    _trusted=True, by keyword only, skips every check.  It is for the
    package's own builders whose nodes are already known to be good:
    parse_circuit and CircuitBuilder check each node as it is read or
    appended, encode_circuit and difference_circuit rebuild checked
    circuits, and each passes the nodes as a tuple.
    """

    name: str
    alphabet: Alphabet
    modulus: int
    nodes: tuple[Node, ...]
    output: int
    _: KW_ONLY
    _trusted: InitVar[bool] = False

    def __post_init__(self, _trusted: bool) -> None:
        if _trusted:
            return
        check_name(self.name)
        p = require_prime_modulus(self.modulus)
        nodes = tuple(self.nodes)
        object.__setattr__(self, "nodes", nodes)
        n = self.alphabet.size
        for i, node in enumerate(nodes):
            fault = _node_fault(i, node, n, p)
            if fault is not None:
                raise ValueError(fault)
        _check_output(self.output, len(nodes))

    def size_report(self) -> SizeReport:
        n = Counter(map(operator.itemgetter(0), self.nodes))
        return SizeReport(n[ADD], n[MUL], n[VAR], n[CONST])

    def degree_bound(self) -> int:
        """Syntactic degree: input 1, const 0, add max, mul sum."""
        return replay(self, lambda v: 1, lambda c: 0, max,
                      lambda a, b: a + b)

    def used_vars(self) -> set[int]:
        return {a for op, a, _ in self.nodes if op == VAR}


def _check_output(output, count: int) -> None:
    """Refuse a circuit of count nodes, none of them bad, that has no
    nodes or whose output is not one of its node ids."""
    if not count:
        raise ValueError("circuit has no nodes")
    if type(output) is not int or not 0 <= output < count:
        raise ValueError(f"output {output!r} is not a node id")


def _node_fault(i: int, node, n: int, p: int) -> str | None:
    """Why node i breaks the node rules of a circuit over n letters
    mod p, or None when it keeps them."""
    if type(node) is not tuple or len(node) != 3:
        return f"node {i}: {node!r} is not an (op, a, b) triple"
    op, a, b = node
    if type(a) is not int or type(b) is not int:
        field = b if type(a) is int else a
        return f"node {i}: field {field!r} is not an int"
    if op == ADD or op == MUL:
        if not (0 <= a < i and 0 <= b < i):
            child = b if 0 <= a < i else a
            return f"node {i}: child {child} is not strictly below its parent"
        return None
    if op == VAR:
        if not 0 <= a < n:
            return f"node {i}: variable x{a} outside alphabet of size {n}"
    elif op == CONST:
        if not 0 <= a < p:
            return f"node {i}: constant {a} not a reduced residue mod {p}"
    else:
        return f"node {i}: unknown node kind {op!r}"
    if b != 0:
        return f"node {i}: {op} leaf has third field {b}, not 0"
    return None


class CircuitBuilder:
    """Mutable construction buffer; finish() freezes to a Circuit.

    Constants and input nodes are deduplicated so synthesized circuits
    share leaves.  Gate nodes are appended as given, once their
    children are checked: add and mul refuse a child that is not an
    int id of an earlier node, with the message Circuit gives.  So
    every node in the buffer is good when it lands, and finish checks
    only the name and the output.
    """

    def __init__(self, alphabet: Alphabet, modulus: int, name: str = "c"):
        require_prime_modulus(modulus)
        self.alphabet = alphabet
        self.modulus = modulus
        self.name = name
        self.nodes: list[Node] = []
        self._const_ids: dict[int, int] = {}
        self._var_ids: dict[int, int] = {}
        self._const_vals: dict[int, int] = {}

    def _push(self, node: Node) -> int:
        self.nodes.append(node)
        return len(self.nodes) - 1

    def const(self, value: int) -> int:
        # scalars.residue, inlined: synthesis calls this per constant.
        value = operator.index(value) % self.modulus
        nid = self._const_ids.get(value)
        if nid is None:
            nid = self._push((CONST, value, 0))
            self._const_ids[value] = nid
            self._const_vals[nid] = value
        return nid

    def var(self, i: int) -> int:
        i = operator.index(i)
        if not 0 <= i < self.alphabet.size:
            raise ValueError(f"variable x{i} outside alphabet of size "
                             f"{self.alphabet.size}")
        nid = self._var_ids.get(i)
        if nid is None:
            nid = self._push((VAR, i, 0))
            self._var_ids[i] = nid
        return nid

    def _gate(self, node: Node) -> int:
        nodes = self.nodes
        i = len(nodes)
        _, lhs, rhs = node
        if not (type(lhs) is int and type(rhs) is int and 0 <= lhs < i
                and 0 <= rhs < i):
            raise ValueError(_node_fault(i, node, self.alphabet.size,
                                         self.modulus))
        nodes.append(node)
        return i

    def add(self, lhs: int, rhs: int) -> int:
        return self._gate((ADD, lhs, rhs))

    def mul(self, lhs: int, rhs: int) -> int:
        return self._gate((MUL, lhs, rhs))

    def const_value(self, nid: int) -> int | None:
        """The residue a node is a constant for, else None."""
        return self._const_vals.get(nid)

    def finish(self, output: int, *, prune: bool = False) -> Circuit:
        """Freeze the nodes into a Circuit.

        The nodes were checked as they were appended, so only the name
        and the output are checked here, with Circuit's messages.  With
        prune, nodes the output does not reach are dropped first,
        keeping the others in order, so one Circuit is built either way.
        """
        check_name(self.name)
        nodes = self.nodes
        _check_output(output, len(nodes))
        if prune:
            nodes, output = _reachable(nodes, output)
        return Circuit(self.name, self.alphabet, self.modulus, tuple(nodes),
                       output, _trusted=True)


def _reachable(nodes: list[Node], output: int) -> tuple[list[Node], int]:
    """The nodes output reaches, in order and renumbered, and its new id;
    the list itself when output reaches every node.

    Children sit below their parents, so one sweep down from output
    marks every node it reaches before visiting it.  A sweep that meets
    an id breaking the node rules returns the list as given.  finish
    never hands it one: the builder checks each gate as it is appended,
    and finish checks the output first.
    """
    if type(output) is not int or not 0 <= output < len(nodes):
        return nodes, output
    live = bytearray(output + 1)
    live[output] = 1
    for i in range(output, -1, -1):
        if live[i]:
            op, a, b = nodes[i]
            if op == ADD or op == MUL:
                if not (type(a) is type(b) is int and 0 <= a < i
                        and 0 <= b < i):
                    return nodes, output
                live[a] = live[b] = 1
    if len(live) == len(nodes) and 0 not in live:
        return nodes, output
    remap = [0] * len(live)
    kept: list[Node] = []
    for i in compress(range(len(live)), live):
        op, a, b = node = nodes[i]
        if op == ADD or op == MUL:
            node = (op, remap[a], remap[b])
        remap[i] = len(kept)
        kept.append(node)
    return kept, remap[output]


# ---------------------------------------------------------------------------
# Evaluation and expansion.

def replay(circuit: Circuit, var: Callable, const: Callable,
           add: Callable, mul: Callable):
    """Evaluate a circuit gate by gate in any algebra; return the output.

    Each node's value is var(index) for an input, const(value) for a
    constant, and add(lhs, rhs) or mul(lhs, rhs) of its children's
    values for a gate, operands always in gate order.  A BudgetError a
    callback raises is re-raised as `node <i>: <message>`.
    """
    vals: list = []
    push = vals.append
    try:
        for i, (op, a, b) in enumerate(circuit.nodes):
            if op == MUL:
                push(mul(vals[a], vals[b]))
            elif op == ADD:
                push(add(vals[a], vals[b]))
            elif op == VAR:
                push(var(a))
            else:
                push(const(a))
    except BudgetError as exc:
        raise BudgetError(f"node {i}: {exc}") from exc
    return vals[circuit.output]


def eval_scalar(circuit: Circuit, assignment) -> int:
    """The residue value at a point; assignment is a sequence or map
    var -> int."""
    p = circuit.modulus
    return replay(circuit, lambda v: assigned_residue(assignment, v, p),
                  lambda c: c % p, lambda a, b: (a + b) % p,
                  lambda a, b: a * b % p)


def slot_width(dim: int, p: int) -> int:
    """Bits per residue in eval_matrix_residues' packed matrices: the
    least multiple of 64 that holds dim*(p-1)^2, the largest sum a
    cell of a product gathers."""
    return 64 * max(1, -(-(dim * (p - 1) ** 2).bit_length() // 64))


def eval_matrix_residues(circuit: Circuit,
                         points: Sequence[Mapping[int, Matrix]],
                         dim: int) -> list[list[list[int]]]:
    """Evaluate at each of several points mod p = circuit.modulus;
    return one rows list per point.  A point maps each variable to a
    dim x dim integer matrix, and every matrix of every point must be
    dim x dim.

    The circuit is replayed once for all k = len(points) points.  Each
    value is one int that packs the k points' dim*dim residues side by
    side, in slots of W bits: cell (i, j) of point t is slot
    t*dim*dim + i*dim + j, bits W*slot up to W*(slot + 1).  Every slot
    of every value holds a reduced residue, 0 <= r < p, so no bound is
    tracked from gate to gate.

    W = slot_width(dim, p), the least multiple of 64 with
    dim*(p-1)^2 < 2^W: the largest sum a product cell gathers before it
    is reduced (64 bits for p = 10^9+7 up to dim 18).  A sum is a few
    big-int operations on the packed values.  Its slot sums are below
    2p; adding 2^(W-1) - p to every slot sets a slot's top bit exactly
    where its sum is at least p, and p is subtracted from those slots.

    A product with a scalar operand, one equal to c times the identity
    at every point (c read from slot 0), is the other operand scaled
    by c: each residue times c, mod p.  A constant node's value is
    such an operand, since it is the same scalar at every point.  Any
    other product unpacks the left factor's entries and slices the
    right factor's packed rows out of its bytes: output row i of point
    t is sum_k a_t[i][k] * (row k of b_t), whose slots stay below 2^W.
    The output rows' bytes are joined, their cells reduced mod p, and
    all k points packed again at once, so a product costs time linear
    in k.  Packing goes through little-endian bytes, so the layout does
    not depend on the host's byte order.

    One call holds k*dim*dim slots for each node value it keeps, and
    every node's value is kept until the replay ends, so the caller
    bounds k.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if not points:
        return []
    p = circuit.modulus
    cells = dim * dim * len(points)
    width = slot_width(dim, p)
    slot = width // 8    # bytes per cell
    size = slot * cells
    row_size = slot * dim
    row_offsets = range(0, size, row_size)
    # Per output row of every point: where the point's rows start among
    # the right factor's, and where the row's left entries start.
    rows = [(r - r % dim, r * dim) for r in range(dim * len(points))]
    if width == 64:
        layout = struct.Struct(f"<{cells}Q")
        cells_of = layout.unpack

        def pack(residues) -> int:
            return int.from_bytes(layout.pack(*residues), "little")
    else:
        offsets = range(0, size, slot)

        def cells_of(raw: bytes) -> list[int]:
            return [int.from_bytes(raw[k:k + slot], "little")
                    for k in offsets]

        def pack(residues) -> int:
            return int.from_bytes(b"".join([r.to_bytes(slot, "little")
                                            for r in residues]), "little")

    def unpack(x: int):
        return cells_of(x.to_bytes(size, "little"))

    one = (1).to_bytes(slot, "little")
    ones = int.from_bytes(one * cells, "little")
    # A one and dim zero slots, dim - 1 times, then a one: the diagonal
    # of one point, repeated for each point.
    identity = int.from_bytes(
        ((one + bytes(slot * dim)) * (dim - 1) + one) * len(points), "little")
    slot_mask = (1 << width) - 1
    top = width - 1
    flip = ((1 << top) - p) * ones
    for mats in points:
        for v, m in mats.items():
            if len(m) != dim or any(map(dim.__ne__, map(len, m))):
                raise ValueError(f"variable x{v} has a matrix that is not "
                                 f"{dim}x{dim}")
    packed = {}

    def var(v: int) -> int:
        value = packed.get(v)
        if value is None:
            if not all(v in mats for mats in points):
                raise ValueError(f"variable x{v} has no assigned matrix")
            value = packed[v] = pack([x % p for mats in points
                                      for row in mats[v] for x in row])
        return value

    def const(c: int) -> int:
        return c % p * identity

    def add(a: int, b: int) -> int:
        s = a + b
        return s - ((s + flip) >> top & ones) * p

    def mul(a: int, b: int) -> int:
        c = a & slot_mask
        if a == c * identity:
            return pack([x * c % p for x in unpack(b)])
        c = b & slot_mask
        if b == c * identity:
            return pack([x * c % p for x in unpack(a)])
        left = unpack(a)
        raw = b.to_bytes(size, "little")
        right = [int.from_bytes(raw[k:k + row_size], "little")
                 for k in row_offsets]
        out = b"".join([
            sum(map(operator.mul, left[i:i + dim], right[t:t + dim]))
            .to_bytes(row_size, "little") for t, i in rows])
        return pack([c % p for c in cells_of(out)])

    value = unpack(replay(circuit, var, const, add, mul))
    starts = range(0, dim * dim, dim)
    return [[list(value[t + i:t + i + dim]) for i in starts]
            for t in range(0, cells, dim * dim)]


def letter_bits(size: int) -> int:
    """Bits per letter in the word codes of an alphabet of size letters."""
    return max(1, (size - 1).bit_length())


def decode_word(code: int, bits: int) -> Letters:
    """The letters of a word code with bits bits per letter.

    A word w is coded as 1 << (bits * |w|) plus its letters packed
    first letter highest, so the empty word is 1.  Concatenation is
    ((u - 1) << (bits * |v|)) + v, a word's length is
    (code.bit_length() - 1) // bits, and numeric order on the codes of
    one alphabet is length-lex order on the words.
    """
    mask = (1 << bits) - 1
    top = code.bit_length() - 1 - bits
    return tuple([code >> s & mask for s in range(top, -1, -bits)])


def expand_codes(circuit: Circuit, max_degree: int = DEFAULT_MAX_DEGREE,
                 max_terms: int = DEFAULT_MAX_TERMS) -> dict[int, int]:
    """The exact polynomial a circuit computes, keyed by word code.

    Codes are decode_word's, at letter_bits of the circuit's alphabet.
    Hard budgets, not truncation: any intermediate polynomial whose
    degree exceeds max_degree or support exceeds max_terms aborts with
    BudgetError naming the node.  The circuit checked its nodes when it
    was built, so none is checked again here.

    A product groups the right factor's words by length.  Two products
    u*v and u'*v' with |v| = |v'| land on the same word only when u = u'
    and v = v', so with p prime each group's products are distinct
    words with nonzero coefficients, one comprehension with no running
    sum; only merging the groups (add_maps) sums and drops the words
    whose coefficients cancel.
    """
    p = circuit.modulus
    bits = letter_bits(circuit.alphabet.size)

    def checked(t: dict) -> dict:
        if t:
            deg = (max(t).bit_length() - 1) // bits
            if deg > max_degree:
                raise BudgetError(f"degree {deg} exceeds budget "
                                  f"{max_degree}")
        if len(t) > max_terms:
            raise BudgetError(f"{len(t)} terms exceed budget {max_terms}")
        return t

    def const(c: int) -> dict:
        c %= p
        return checked({1: c} if c else {})

    def mul(a: dict, b: dict) -> dict:
        if len(a) * len(b) > _MAX_PRODUCT_PAIRS:
            raise BudgetError(f"product of {len(a)} x {len(b)} terms "
                              f"exceeds the convolution budget")
        groups: dict[int, list] = {}
        for v, cv in b.items():
            groups.setdefault(v.bit_length() - 1, []).append((v, cv))
        out: dict = {}
        for shift, group in groups.items():
            heads = [((u - 1) << shift, cu) for u, cu in a.items()]
            part = {h + v: cu * cv % p for h, cu in heads for v, cv in group}
            out = add_maps(out, part, p) if out else part
        return checked(out)

    one = 1 << bits
    return replay(circuit, lambda v: checked({one + v: 1}), const,
                  lambda a, b: checked(add_maps(a, b, p)), mul)


def expand(circuit: Circuit, max_degree: int = DEFAULT_MAX_DEGREE,
           max_terms: int = DEFAULT_MAX_TERMS) -> NCPolynomial:
    """The exact polynomial a circuit computes: expand_codes, under the
    same budgets, with each word decoded to its letters.  A word is its
    prefix's letters, decoded once per distinct prefix, and its last
    letter."""
    bits = letter_bits(circuit.alphabet.size)
    mask = (1 << bits) - 1
    prefixes: dict[int, Letters] = {}
    terms: dict[Letters, int] = {}
    for code, c in expand_codes(circuit, max_degree, max_terms).items():
        if code == 1:
            terms[()] = c
            continue
        head = code >> bits
        prefix = prefixes.get(head)
        if prefix is None:
            prefix = prefixes[head] = decode_word(head, bits)
        terms[prefix + (code & mask,)] = c
    return NCPolynomial(circuit.alphabet, circuit.modulus, terms,
                        _trusted=True)


def circuit_from_poly(f: NCPolynomial, name: str = "c") -> Circuit:
    """A straightforward sum-of-term-chains circuit for a polynomial."""
    b = CircuitBuilder(f.alphabet, f.modulus, name=name)
    term_ids = []
    for w in sorted(f.terms, key=length_lex_key):
        c = f.terms[w]
        if not w:
            term_ids.append(b.const(c))
            continue
        chain = b.var(w[0])
        for letter in w[1:]:
            chain = b.mul(chain, b.var(letter))
        term_ids.append(chain if c == 1 else b.mul(b.const(c), chain))
    if not term_ids:
        return b.finish(b.const(0))
    acc = term_ids[0]
    for t in term_ids[1:]:
        acc = b.add(acc, t)
    return b.finish(acc)


# ---------------------------------------------------------------------------
# Text format (shared rules at polynomials.read_text): nodes with dense
# ascending ids, then the output line.
#
#   circuit lhs over X vars 8 modulus 7
#   node 0 var 5
#   node 1 const 3
#   node 2 mul 0 1
#   output 2

def format_circuit(c: Circuit) -> str:
    lines = [f"circuit {c.name} over {c.alphabet.name} "
             f"vars {c.alphabet.size} modulus {c.modulus}"]
    for i, (op, a, b) in enumerate(c.nodes):
        if op == ADD or op == MUL:
            lines.append(f"node {i} {op} {a} {b}")
        else:
            lines.append(f"node {i} {op} {a}")
    lines.append(f"output {c.output}")
    return "\n".join(lines) + "\n"


# Each node keyword's op and the token count of its line.
_NODE_LINES = {ADD: (ADD, 5), MUL: (MUL, 5), VAR: (VAR, 4), CONST: (CONST, 4)}


def parse_circuit(text: str) -> Circuit:
    """The circuit a text describes, checked as it is read.

    Each node is checked on its line, but a fault found there is
    reported only once the text has parsed, in Circuit's order: a line
    that does not parse, a missing output line, the name, no nodes, the
    first bad node, then the output.  Every refusal is a FormatError
    with Circuit's message.
    """
    (name, aname, size, modulus), body = read_text(
        text, ("circuit", str, "over", str, "vars", int, "modulus", int))
    try:
        alphabet = Alphabet(aname, size)
        require_prime_modulus(modulus)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc

    # In ASCII text, str.isdecimal is is_digits without its ASCII test.
    digits = str.isdecimal if text.isascii() else is_digits
    node_lines = _NODE_LINES
    nodes: list[Node] = []
    push = nodes.append
    output: int | None = None
    bad: str | None = None    # why the first bad node is bad
    # Only int() raises ValueError here, for a number past its digit limit.
    try:
        for lineno, toks, _ in body:
            if toks[0] != "node":
                if toks[0] != "output":
                    raise FormatError(f"line {lineno}: expected a node line")
                if output is not None:
                    raise FormatError(f"line {lineno}: duplicate output line")
                if len(toks) != 2 or not digits(toks[1]):
                    raise FormatError(f"line {lineno}: bad output line")
                output = int(toks[1])
                continue
            if len(toks) < 4 or not digits(toks[1]):
                raise FormatError(f"line {lineno}: expected a node line")
            nid = int(toks[1])
            if nid != len(nodes):
                raise FormatError(f"line {lineno}: node ids must be dense "
                                  f"and ascending (expected {len(nodes)}, "
                                  f"got {nid})")
            kind = node_lines.get(toks[2])
            if kind is None:
                raise FormatError(f"line {lineno}: bad node kind "
                                  f"{echo(toks[2])}")
            op, width = kind
            if len(toks) != width:
                raise FormatError(f"line {lineno}: bad node arguments")
            a = toks[3]
            if width == 5:
                b = toks[4]
                if digits(a) and digits(b):
                    a, b = int(a), int(b)
                    if (a >= nid or b >= nid) and bad is None:
                        bad = _node_fault(nid, (op, a, b), size, modulus)
                    push((op, a, b))
                    continue
            elif op == VAR:
                if digits(a):
                    a = int(a)
                    if a >= size and bad is None:
                        bad = _node_fault(nid, (VAR, a, 0), size, modulus)
                    push((VAR, a, 0))
                    continue
            elif digits(a.removeprefix("-")):
                push((CONST, int(a) % modulus, 0))
                continue
            raise FormatError(f"line {lineno}: bad node arguments")
    except ValueError:
        raise too_long(lineno, toks) from None
    if output is None:
        raise FormatError("missing output line")
    try:
        check_name(name)
        if bad is not None:
            raise ValueError(bad)
        _check_output(output, len(nodes))
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
    return Circuit(name, alphabet, modulus, tuple(nodes), output,
                   _trusted=True)
