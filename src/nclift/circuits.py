"""Arithmetic circuits over free noncommuting variables.

A circuit is an immutable DAG: a tuple of fan-in <= 2 nodes with dense
ids 0..len-1, children strictly below parents, and one designated
output, all checked when the circuit is built.  Multiplication
children are ordered; nothing ever commutes them.  Gate counts
(add/mul) are reported separately from leaf counts (input/const) so
size bounds can be asserted against gates alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from .errors import BudgetError, FormatError
from .matrices import SquareMatrix
from .polynomials import (Alphabet, NCPolynomial, add_maps, check_name,
                          length_lex_key, mul_maps)
from .scalars import (Scalar, assigned_residue, require_prime_modulus,
                      residue)

DEFAULT_MAX_DEGREE = 64
DEFAULT_MAX_TERMS = 200_000

# Cost guard for a single convolution inside expand(); the result budget
# alone can't stop a product whose intermediate pair count explodes.
_MAX_PRODUCT_PAIRS = 5_000_000


@dataclass(frozen=True)
class InputNode:
    var: int


@dataclass(frozen=True)
class ConstNode:
    value: int


@dataclass(frozen=True)
class AddNode:
    lhs: int
    rhs: int


@dataclass(frozen=True)
class MulNode:
    lhs: int
    rhs: int


Node = InputNode | ConstNode | AddNode | MulNode


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
    name: str
    alphabet: Alphabet
    modulus: int
    nodes: tuple[Node, ...]
    output: int

    def __post_init__(self) -> None:
        """Check every node; raise ValueError naming the first bad one."""
        check_name(self.name)
        p = require_prime_modulus(self.modulus)
        nodes = tuple(self.nodes)
        object.__setattr__(self, "nodes", nodes)
        n = self.alphabet.size
        if not nodes:
            raise ValueError("circuit has no nodes")
        for i, node in enumerate(nodes):
            if isinstance(node, InputNode):
                if not 0 <= node.var < n:
                    raise ValueError(f"node {i}: variable x{node.var} "
                                     f"outside alphabet of size {n}")
            elif isinstance(node, ConstNode):
                if not 0 <= node.value < p:
                    raise ValueError(f"node {i}: constant {node.value} "
                                     f"not a reduced residue mod {p}")
            elif isinstance(node, (AddNode, MulNode)):
                for child in (node.lhs, node.rhs):
                    if not 0 <= child < i:
                        raise ValueError(f"node {i}: child {child} is not "
                                         f"strictly below its parent")
            else:
                raise ValueError(f"node {i}: unknown node kind {node!r}")
        if not 0 <= self.output < len(nodes):
            raise ValueError(f"output {self.output} is not a node id")

    def size_report(self) -> SizeReport:
        adds = muls = inputs = consts = 0
        for node in self.nodes:
            if isinstance(node, AddNode):
                adds += 1
            elif isinstance(node, MulNode):
                muls += 1
            elif isinstance(node, InputNode):
                inputs += 1
            else:
                consts += 1
        return SizeReport(adds, muls, inputs, consts)

    def degree_bound(self) -> int:
        """Syntactic degree: input 1, const 0, add max, mul sum."""
        return replay(self, lambda v: 1, lambda c: 0, max,
                      lambda a, b: a + b)

    def used_vars(self) -> set[int]:
        return {node.var for node in self.nodes
                if isinstance(node, InputNode)}


class CircuitBuilder:
    """Mutable construction buffer; finish() freezes to a Circuit.

    Constants and input nodes are deduplicated so synthesized circuits
    share leaves.  Gate nodes are appended verbatim.
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

    def const(self, value) -> int:
        if isinstance(value, Scalar):
            value = value.value
        value %= self.modulus
        nid = self._const_ids.get(value)
        if nid is None:
            nid = self._push(ConstNode(value))
            self._const_ids[value] = nid
            self._const_vals[nid] = value
        return nid

    def var(self, i: int) -> int:
        if not 0 <= i < self.alphabet.size:
            raise ValueError(f"variable x{i} outside alphabet of size "
                             f"{self.alphabet.size}")
        nid = self._var_ids.get(i)
        if nid is None:
            nid = self._push(InputNode(i))
            self._var_ids[i] = nid
        return nid

    def add(self, lhs: int, rhs: int) -> int:
        return self._push(AddNode(lhs, rhs))

    def mul(self, lhs: int, rhs: int) -> int:
        return self._push(MulNode(lhs, rhs))

    def const_value(self, nid: int) -> int | None:
        """The residue a node is a constant for, else None."""
        return self._const_vals.get(nid)

    def finish(self, output: int, *, prune: bool = False) -> Circuit:
        """Freeze the nodes into a Circuit, which checks them.

        With prune, nodes the output does not reach are dropped first,
        keeping the others in order, so one Circuit is built either way.
        """
        nodes = self.nodes
        if prune:
            nodes, output = _reachable(nodes, output)
        return Circuit(self.name, self.alphabet, self.modulus, tuple(nodes),
                       output)


def _reachable(nodes: list[Node], output: int) -> tuple[list[Node], int]:
    """The nodes output reaches, in order and renumbered, and its new id.

    A walk that meets an id breaking the node rules returns the list as
    given, for the Circuit to refuse by name.
    """
    if not 0 <= output < len(nodes):
        return nodes, output
    keep = set()
    stack = [output]
    while stack:
        i = stack.pop()
        if i in keep:
            continue
        keep.add(i)
        node = nodes[i]
        if isinstance(node, (AddNode, MulNode)):
            if not (0 <= node.lhs < i and 0 <= node.rhs < i):
                return nodes, output
            stack.append(node.lhs)
            stack.append(node.rhs)
    remap: dict[int, int] = {}
    kept: list[Node] = []
    for i in sorted(keep):
        node = nodes[i]
        if isinstance(node, AddNode):
            node = AddNode(remap[node.lhs], remap[node.rhs])
        elif isinstance(node, MulNode):
            node = MulNode(remap[node.lhs], remap[node.rhs])
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
        for i, node in enumerate(circuit.nodes):
            if isinstance(node, InputNode):
                push(var(node.var))
            elif isinstance(node, ConstNode):
                push(const(node.value))
            elif isinstance(node, AddNode):
                push(add(vals[node.lhs], vals[node.rhs]))
            else:
                push(mul(vals[node.lhs], vals[node.rhs]))
    except BudgetError as exc:
        raise BudgetError(f"node {i}: {exc}") from exc
    return vals[circuit.output]


def eval_scalar(circuit: Circuit, assignment) -> Scalar:
    """Evaluate at scalars; assignment is a sequence or map var -> value."""
    p = circuit.modulus
    value = replay(circuit, lambda v: assigned_residue(assignment, v, p),
                   lambda c: c % p, lambda a, b: (a + b) % p,
                   lambda a, b: a * b % p)
    return Scalar(value, p)


def eval_matrix_residues(circuit: Circuit,
                         mats: Mapping[int, Sequence[Sequence[int]]],
                         dim: int, p: int) -> list[list[int]]:
    """Fast kernel: evaluate at integer matrices mod p, naive cubic muls."""
    rng = range(dim)

    def var(v: int) -> list[list[int]]:
        if v not in mats:
            raise ValueError(f"variable x{v} has no assigned matrix")
        m = mats[v]
        return [[m[i][j] % p for j in rng] for i in rng]

    def const(c: int) -> list[list[int]]:
        c %= p
        return [[c if i == j else 0 for j in rng] for i in rng]

    def add(a, b) -> list[list[int]]:
        return [[(a[i][j] + b[i][j]) % p for j in rng] for i in rng]

    def mul(a, b) -> list[list[int]]:
        out = [[0] * dim for _ in rng]
        for i in rng:
            arow = a[i]
            orow = out[i]
            for k in rng:
                aik = arow[k]
                if aik:
                    brow = b[k]
                    for j in rng:
                        orow[j] = (orow[j] + aik * brow[j]) % p
        return out

    return replay(circuit, var, const, add, mul)


def eval_matrix(circuit: Circuit, point: Mapping[int, SquareMatrix],
                *, dim: int | None = None) -> SquareMatrix:
    """Evaluate at Scalar matrices; products keep the gate's operand order.

    Constants become c * I.  All matrices must share one dimension and
    hold Scalar entries mod the circuit's modulus.  For a circuit with
    no inputs pass dim explicitly.
    """
    p = circuit.modulus
    raw = {}
    for v, m in point.items():
        if dim is None:
            dim = m.dim
        elif m.dim != dim:
            raise ValueError(f"dimension mismatch: {dim} vs {m.dim}")
        if not all(isinstance(e, Scalar) for row in m.rows for e in row):
            raise ValueError(f"matrix for x{v} has non-Scalar entries")
        raw[v] = [[residue(e, p) for e in row] for row in m.rows]
    if dim is None:
        raise ValueError("dim is required when no matrices are given")
    rows = eval_matrix_residues(circuit, raw, dim, p)
    return SquareMatrix([[Scalar(e, p) for e in row] for row in rows])


def expand(circuit: Circuit, max_degree: int = DEFAULT_MAX_DEGREE,
           max_terms: int = DEFAULT_MAX_TERMS) -> NCPolynomial:
    """The exact polynomial a circuit computes.

    Hard budgets, not truncation: any intermediate polynomial whose
    degree exceeds max_degree or support exceeds max_terms aborts with
    BudgetError naming the node.  The circuit checked its nodes when it
    was built, so none is checked again here.
    """
    p = circuit.modulus

    def checked(t: dict) -> dict:
        if t:
            deg = max(map(len, t))
            if deg > max_degree:
                raise BudgetError(f"degree {deg} exceeds budget "
                                  f"{max_degree}")
        if len(t) > max_terms:
            raise BudgetError(f"{len(t)} terms exceed budget {max_terms}")
        return t

    def const(c: int) -> dict:
        c %= p
        return checked({(): c} if c else {})

    def mul(a: dict, b: dict) -> dict:
        if len(a) * len(b) > _MAX_PRODUCT_PAIRS:
            raise BudgetError(f"product of {len(a)} x {len(b)} terms "
                              f"exceeds the convolution budget")
        return checked(mul_maps(a, b, p))

    terms = replay(circuit, lambda v: checked({(v,): 1}), const,
                   lambda a, b: checked(add_maps(a, b, p)), mul)
    return NCPolynomial(circuit.alphabet, p, terms, _trusted=True)


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
# Text format:
#
#   circuit lhs over X vars 8 modulus 7
#   node 0 var 5
#   node 1 const 3
#   node 2 mul 0 1
#   output 2
#
# The header must be the first line.  After it, the parser accepts blank
# lines and '#' comments; the canonical printer emits neither.  Node ids
# must be dense and ascending.

def format_circuit(c: Circuit) -> str:
    lines = [f"circuit {c.name} over {c.alphabet.name} "
             f"vars {c.alphabet.size} modulus {c.modulus}"]
    for i, node in enumerate(c.nodes):
        if isinstance(node, InputNode):
            lines.append(f"node {i} var {node.var}")
        elif isinstance(node, ConstNode):
            lines.append(f"node {i} const {node.value}")
        elif isinstance(node, AddNode):
            lines.append(f"node {i} add {node.lhs} {node.rhs}")
        else:
            lines.append(f"node {i} mul {node.lhs} {node.rhs}")
    lines.append(f"output {c.output}")
    return "\n".join(lines) + "\n"


def parse_circuit(text: str) -> Circuit:
    lines = text.splitlines()
    if not lines:
        raise FormatError("empty circuit file")
    name, aname, vars_s, mod_s = _split_circuit_header(lines[0])
    try:
        alphabet = Alphabet(aname, int(vars_s))
        modulus = require_prime_modulus(int(mod_s))
    except ValueError as exc:
        raise FormatError(str(exc)) from exc

    nodes: list[Node] = []
    output: int | None = None
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        if toks[0] == "output":
            if output is not None:
                raise FormatError(f"line {lineno}: duplicate output line")
            if len(toks) != 2 or not toks[1].isdecimal():
                raise FormatError(f"line {lineno}: bad output line")
            output = int(toks[1])
            continue
        if toks[0] != "node" or len(toks) < 4 or not toks[1].isdecimal():
            raise FormatError(f"line {lineno}: expected a node line")
        nid = int(toks[1])
        if nid != len(nodes):
            raise FormatError(f"line {lineno}: node ids must be dense and "
                              f"ascending (expected {len(nodes)}, got {nid})")
        kind, args = toks[2], toks[3:]
        try:
            if kind == "var" and len(args) == 1:
                nodes.append(InputNode(int(args[0])))
            elif kind == "const" and len(args) == 1:
                nodes.append(ConstNode(int(args[0]) % modulus))
            elif kind == "add" and len(args) == 2:
                nodes.append(AddNode(int(args[0]), int(args[1])))
            elif kind == "mul" and len(args) == 2:
                nodes.append(MulNode(int(args[0]), int(args[1])))
            else:
                raise FormatError(f"line {lineno}: bad node kind {kind!r}")
        except ValueError as exc:
            raise FormatError(f"line {lineno}: bad node arguments") from exc
    if output is None:
        raise FormatError("missing output line")
    try:
        return Circuit(name, alphabet, modulus, tuple(nodes), output)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def _split_circuit_header(line: str) -> tuple[str, str, str, str]:
    toks = line.split()
    if (len(toks) != 8 or toks[0] != "circuit" or toks[2] != "over"
            or toks[4] != "vars" or toks[6] != "modulus"):
        raise FormatError(f"bad circuit header: {line!r}")
    return toks[1], toks[3], toks[5], toks[7]
