"""Hadamard product of a circuit-computed polynomial with an automaton.

For a polynomial f over the y letters and an automaton whose series S
sends each y-word to an x-polynomial, the product is

    f (.) S  =  sum_w  [w]f * S(w),

an x-polynomial.  Three routes with one answer:

  * hadamard_poly     expands nothing but f: literal sum over support,
    the reference oracle;
  * hadamard_eval     evaluates f's circuit at the automaton's q x q
    transition matrices, held as rows of their nonzero cells, no x
    specialised, and reads one entry;
  * hadamard_circuit  synthesises an x-circuit by replaying f's gates
    on sparse q x q blocks of node ids, one block per gate.  A boolean
    support pass and a reverse demand pass come first, so each block
    builds only the cells that the (start, accept) output reads.  The
    support pass interns the distinct supports and the demand pass
    keeps only demanded rows, so planning costs follow the cells read,
    not q.

What depends on the automaton alone is built once per automaton, on
first use, and kept with it (WeightedAutomaton.derived), so the
decoders build_decoder shares carry their tables to every call: where
each source's moves and each constant's and variable's first
transition sit (_positions), and the unscaled letter matrices as
sparse rows of term maps (_term_rows).  The support pass keeps its
intern table and its sum and product memos with the automaton too
(_SupportMemo), so a synthesis works out only the supports and pairs
no earlier one with that automaton met; this memo grows across calls
and is reset past MAX_SUPPORT_MEMO entries.  Per call remain the
replay of the circuit against that memo, the demand and emission
passes, the walk over the transitions read, and a point's scaling.

The synthesis costs at most 2 q^3 nodes per gate of f plus q^2 per leaf
before constant folding.  hadamard_witness works that accounting out
from gate counts alone; it is a formula, not a measurement of any
synthesised circuit.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .automata import WeightedAutomaton
from .circuits import (AddNode, Circuit, CircuitBuilder, InputNode, MulNode,
                       replay)
from .errors import BudgetError
from .polynomials import NCPolynomial, add_maps, scale_map
from .scalars import assigned_residue


def _check_compatible(circuit: Circuit, automaton: WeightedAutomaton) -> None:
    if circuit.alphabet.size != automaton.y_alphabet.size:
        raise ValueError(f"circuit reads {circuit.alphabet.size} letters, "
                         f"automaton has {automaton.y_alphabet.size}")
    if circuit.modulus != automaton.modulus:
        raise ValueError(f"modulus mismatch: {circuit.modulus} vs "
                         f"{automaton.modulus}")


def hadamard_poly(f: NCPolynomial,
                  automaton: WeightedAutomaton) -> NCPolynomial:
    """Reference oracle: sum [w]f * S(w) over the support of f."""
    if f.alphabet.size != automaton.y_alphabet.size:
        raise ValueError(f"polynomial has {f.alphabet.size} letters, "
                         f"automaton has {automaton.y_alphabet.size}")
    if f.modulus != automaton.modulus:
        raise ValueError(f"modulus mismatch: {f.modulus} vs "
                         f"{automaton.modulus}")
    acc = NCPolynomial.zero(automaton.x_alphabet, f.modulus)
    for w in f.support():
        acc = acc + automaton.coeff_of_word(w).scale(f.coeff(w))
    return acc


def hadamard_eval(circuit: Circuit, automaton: WeightedAutomaton,
                  point=None) -> NCPolynomial:
    """Evaluate the product by matrix substitution.

    Each letter y_b becomes point[b] times the automaton's transition
    matrix for b (entries are x-polynomials); the circuit is evaluated
    over those q x q matrices and the (start, accept) entry is the
    product, scaled coefficient-wise by the point.  point None means
    all ones, giving the plain Hadamard product.

    A matrix is q rows {column: term map} that hold only nonzero
    cells, so sums and products walk the cells there are, not q^2
    pairs.  The unscaled letter matrices are built once per automaton
    (_term_rows) and shared by every call; a point scales copies of
    them.  Per call there remain the point's scaling and the replay of
    the circuit.  No row or cell is written once it is built, so
    values share them freely.
    """
    _check_compatible(circuit, automaton)
    p = circuit.modulus
    q = automaton.num_states
    mats = automaton.derived(_term_rows)
    if point is not None:
        mats = tuple(_scaled(mat, assigned_residue(point, letter, p,
                                                   "letter y"), p)
                     for letter, mat in enumerate(mats))
    zero = ({},) * q

    def const(c: int) -> tuple:
        c %= p
        return tuple({i: {(): c}} for i in range(q)) if c else zero

    def add(a: tuple, b: tuple) -> tuple:
        out = []
        for arow, brow in zip(a, b):
            if not (arow and brow):
                out.append(arow or brow)
                continue
            row = dict(arow)
            for j, cell in brow.items():
                cur = row.get(j)
                if cur is None:
                    row[j] = cell
                else:
                    cell = add_maps(cur, cell, p)
                    if cell:
                        row[j] = cell
                    else:
                        del row[j]
            out.append(row)
        return tuple(out)

    def mul(a: tuple, b: tuple) -> tuple:
        out = []
        for arow in a:
            acc: dict = {}
            for k, left in arow.items():
                for j, right in b[k].items():
                    cell = acc.get(j)
                    if cell is None:
                        cell = acc[j] = {}
                    get = cell.get
                    for u, cu in left.items():
                        for v, cv in right.items():
                            w = u + v
                            cell[w] = (get(w, 0) + cu * cv) % p
            row = {}
            for j, cell in acc.items():
                if 0 in cell.values():
                    cell = {w: c for w, c in cell.items() if c}
                if cell:
                    row[j] = cell
            out.append(row)
        return tuple(out)

    value = replay(circuit, mats.__getitem__, const, add, mul)
    terms = value[automaton.start].get(automaton.accept, {})
    return NCPolynomial(automaton.x_alphabet, p, dict(terms), _trusted=True)


def _scaled(mat: tuple, c: int, p: int) -> tuple:
    """A copy of a sparse-row matrix times the residue c; mat itself
    when c is 1.  p is prime, so only c = 0 empties a cell, and then
    every row is left empty."""
    if c == 1:
        return mat
    if c == 0:
        return ({},) * len(mat)
    return tuple({j: scale_map(cell, c, p) for j, cell in row.items()}
                 for row in mat)


# ---------------------------------------------------------------------------
# Tables of one automaton.  Each depends on the automaton alone, so it is
# built on first use through WeightedAutomaton.derived and kept with the
# automaton: a cached decoder builds it once for every synthesis and
# evaluation that uses it.  Nothing writes to a table once it is built;
# the support memo (_SupportMemo, below) is kept the same way but grows.

def _term_rows(automaton: WeightedAutomaton) -> tuple:
    """Per letter, its q x q transition matrix as q rows {target: term
    map}, one cell per transition; canonical transitions give each
    cell one weight."""
    out = []
    for letter in range(automaton.y_alphabet.size):
        rows: tuple[dict, ...] = tuple({} for _ in
                                       range(automaton.num_states))
        for src, tgt, coeff, var in automaton.steps(letter):
            rows[src][tgt] = {() if var is None else (var,): coeff}
        out.append(rows)
    return tuple(out)


class _Positions(NamedTuple):
    """Where each transition sits in the automaton's canonical order,
    letter by letter, which _letter_rows follows.

    Moves on one letter are sorted by source, so the moves from s are
    steps(a)[offsets[a][s]:offsets[a][s + 1]], and starts[a] is the
    position of steps(a)[0].  consts holds (position, c), ascending,
    for the first transition whose weight needs the constant c: a
    scalar c, or a term c * x_i with c != 1.  repeats maps each x
    variable on more than one transition to its first position; any
    other variable's first position is that of its one transition.
    """

    starts: tuple[int, ...]
    offsets: tuple[tuple[int, ...], ...]
    consts: tuple[tuple[int, int], ...]
    repeats: Mapping[int, int]


def _positions(automaton: WeightedAutomaton) -> _Positions:
    q = automaton.num_states
    starts, offsets = [], []
    consts: dict[int, int] = {}
    first: dict[int, int] = {}
    repeats: dict[int, int] = {}
    pos = 0
    for letter in range(automaton.y_alphabet.size):
        moves = automaton.steps(letter)
        starts.append(pos)
        counts = [0] * (q + 1)
        for src, tgt, coeff, var in moves:
            counts[src + 1] += 1
            if var is None or coeff != 1:
                consts.setdefault(coeff, pos)
            if var is not None:
                at = first.setdefault(var, pos)
                if at != pos:
                    repeats.setdefault(var, at)
            pos += 1
        offsets.append(tuple(accumulate(counts)))
    return _Positions(tuple(starts), tuple(offsets),
                      tuple(sorted((at, c) for c, at in consts.items())),
                      MappingProxyType(repeats))


# ---------------------------------------------------------------------------
# Circuit synthesis.  Blocks are sparse: {(i, j): node id}, absent = 0.

def _node_sum(b: CircuitBuilder, lhs: int, rhs: int) -> int | None:
    """Add two entry nodes; folded constants may cancel to None (zero)."""
    ca, cb = b.const_value(lhs), b.const_value(rhs)
    if ca is not None and cb is not None:
        c = (ca + cb) % b.modulus
        return b.const(c) if c else None
    return b.add(lhs, rhs)


_MISS = object()


def _node_product(b: CircuitBuilder, lhs: int, rhs: int,
                  cache: dict) -> int | None:
    """Multiply two entry nodes, folding constants and reusing repeats.

    Identical operand pairs recur across block cells (shared path
    segments), so products are memoised per synthesis.
    """
    key = (lhs, rhs)
    hit = cache.get(key, _MISS)
    if hit is not _MISS:
        return hit
    ca, cb = b.const_value(lhs), b.const_value(rhs)
    if ca == 0 or cb == 0:
        out = None
    elif ca is not None and cb is not None:
        out = b.const(ca * cb % b.modulus)
    elif ca == 1:
        out = rhs
    elif cb == 1:
        out = lhs
    else:
        out = b.mul(lhs, rhs)
    cache[key] = out
    return out


def _block_add(b: CircuitBuilder, x: dict, y: dict) -> dict:
    out = dict(x)
    for key, nid in y.items():
        cur = out.get(key)
        if cur is None:
            out[key] = nid
        else:
            s = _node_sum(b, cur, nid)
            if s is None:
                del out[key]
            else:
                out[key] = s
    return out


def _block_mul(b: CircuitBuilder, x: dict, y: dict, cache: dict,
               want: dict) -> dict:
    """The cells of x y that `want` asks for: {row: column bitmask},
    an absent row asking for nothing."""
    rows: dict[int, list[tuple[int, int]]] = {}
    for (k, j), nid in y.items():
        rows.setdefault(k, []).append((j, nid))
    out: dict = {}
    for (i, k), left in x.items():
        row = rows.get(k)
        cols = want.get(i, 0)
        if not row or not cols:
            continue
        for j, right in row:
            if not cols >> j & 1:
                continue
            prod = _node_product(b, left, right, cache)
            if prod is None:
                continue
            key = (i, j)
            cur = out.get(key)
            if cur is None:
                out[key] = prod
            else:
                s = _node_sum(b, cur, prod)
                if s is None:
                    del out[key]
                else:
                    out[key] = s
    return out


def _restrict(block: dict, want: dict) -> dict:
    return {key: nid for key, nid in block.items()
            if want.get(key[0], 0) >> key[1] & 1}


# Rows (supports times q) plus memoised sums and products that one
# automaton's support memo may hold before a synthesis starts it afresh.
# Two passes of each benchmark chain workload leave the one-shot decoder
# (q = 61) at about 30,000 and the others far below.
MAX_SUPPORT_MEMO = 65_536


class _SupportMemo:
    """The support pass's intern table and memos for one automaton.

    table holds the distinct supports, each a q-tuple of row bitmasks,
    and index the position of each in table.  letters, ident and zero
    are the positions of each letter's transition pattern, the identity
    and the zero block, interned first.  sums and products map a pair
    of positions to the position of their sum or boolean product.
    Syntheses with one automaton share its memo (through
    WeightedAutomaton.derived), so each support and pair is worked out
    once for all of them; reset forgets everything after the first
    entries.
    """

    __slots__ = ("q", "table", "index", "letters", "ident", "zero",
                 "base", "sums", "products")

    def __init__(self, automaton: WeightedAutomaton):
        q = self.q = automaton.num_states
        self.table: list[tuple] = []
        self.index: dict[tuple, int] = {}
        self.sums: dict[tuple[int, int], int] = {}
        self.products: dict[tuple[int, int], int] = {}
        letters = []
        for letter in range(automaton.y_alphabet.size):
            rows = [0] * q
            for src, tgt, _, _ in automaton.steps(letter):
                rows[src] |= 1 << tgt
            letters.append(self.intern(tuple(rows)))
        self.letters = letters
        self.ident = self.intern(tuple(1 << i for i in range(q)))
        self.zero = self.intern((0,) * q)
        self.base = len(self.table)

    def intern(self, rows: tuple) -> int:
        k = self.index.get(rows)
        if k is None:
            k = self.index[rows] = len(self.table)
            self.table.append(rows)
        return k

    def entries(self) -> int:
        """Interned rows plus memoised pairs, what MAX_SUPPORT_MEMO
        bounds: counting rows, not supports, caps about as many bytes
        at any q."""
        return len(self.table) * self.q + len(self.sums) + len(self.products)

    def reset(self) -> None:
        for rows in self.table[self.base:]:
            del self.index[rows]
        del self.table[self.base:]
        self.sums.clear()
        self.products.clear()


def _supports(circuit: Circuit,
              automaton: WeightedAutomaton) -> tuple[list, list]:
    """Per node, the block cells that may be nonzero.

    Returns the automaton's table of distinct supports, each a q-tuple
    of row bitmasks, and per node the index of its support in that
    table.  Letters give their transition pattern and a nonzero
    constant gives the identity.  Add ORs rows and mul takes the
    boolean row product.  A circuit has far fewer distinct supports
    than nodes, so add and mul are memoised on index pairs, and the
    table and memos are the automaton's _SupportMemo: a synthesis
    replays its circuit against what earlier ones with the same
    automaton worked out, and adds what they did not.  A call that
    finds the memo past MAX_SUPPORT_MEMO entries resets it first.  A
    product that misses the memo reads empty and one-bit left rows
    straight from the right support, and computes each other distinct
    left row once (decoder states on one tree level share their rows).
    A cell can be absent from the synthesised block (its constants
    cancelled) but never present outside its support.
    """
    memo = automaton.derived(_SupportMemo)
    if memo.entries() > MAX_SUPPORT_MEMO:
        memo.reset()
    p = circuit.modulus
    table, intern = memo.table, memo.intern
    letters, ident, zero = memo.letters, memo.ident, memo.zero
    sums, products = memo.sums, memo.products

    def add(a: int, b: int) -> int:
        out = sums.get((a, b))
        if out is None:
            out = sums[a, b] = intern(tuple(
                x | y for x, y in zip(table[a], table[b])))
        return out

    def mul(a: int, b: int) -> int:
        out = products.get((a, b))
        if out is None:
            right = table[b]
            shared: dict[int, int] = {}
            acc = []
            for ks in table[a]:
                if not ks & (ks - 1):       # zero or one bit
                    row = right[ks.bit_length() - 1] if ks else 0
                else:
                    row = shared.get(ks)
                    if row is None:
                        row = 0
                        bits = ks
                        while bits:
                            low = bits & -bits
                            row |= right[low.bit_length() - 1]
                            bits ^= low
                        shared[ks] = row
                acc.append(row)
            out = products[a, b] = intern(tuple(acc))
        return out

    sups: list[int] = []

    def keep(k: int) -> int:
        sups.append(k)
        return k

    replay(circuit, lambda v: keep(letters[v]),
           lambda c: keep(ident if c % p else zero),
           lambda a, b: keep(add(a, b)), lambda a, b: keep(mul(a, b)))
    return table, sups


def _demands(circuit: Circuit, table: list, sups: list,
             cell: tuple[int, int]) -> tuple[list, list]:
    """Per node, the cells its parents read as {row: column bitmask}
    with no zero rows, None if none; and per letter, the union of those
    over the letter's input nodes, as q row bitmasks.

    Walks parents before children from the output's `cell`.  An add
    passes its demand to both children within their supports (`table`
    and `sups` as _supports returns them); a mul that wants (i, j)
    wants (i, k) of its left child and (k, j) of its right child for
    every k their supports connect.  Each child gets a dict of its
    own, which later parents OR their rows into, so the work per node
    follows its demanded rows, not q.
    """
    nodes = circuit.nodes
    q = len(table[0])
    dem: list = [None] * len(nodes)
    read = [[0] * q for _ in range(circuit.alphabet.size)]

    def merge(child: int, rows: dict) -> None:
        if rows:
            cur = dem[child]
            if cur is None:
                dem[child] = rows
            else:
                for r, cols in rows.items():
                    cur[r] = cur.get(r, 0) | cols

    i, j = cell
    root = table[sups[circuit.output]][i] & 1 << j
    if root:
        dem[circuit.output] = {i: root}
    for v in range(len(nodes) - 1, -1, -1):
        want = dem[v]
        if want is None:
            continue
        node = nodes[v]
        if isinstance(node, AddNode):
            for child in (node.lhs, node.rhs):
                sup = table[sups[child]]
                rows = {}
                for r, cols in want.items():
                    hit = cols & sup[r]
                    if hit:
                        rows[r] = hit
                merge(child, rows)
        elif isinstance(node, MulNode):
            left, right = table[sups[node.lhs]], table[sups[node.rhs]]
            lwant: dict = {}
            rwant: dict = {}
            for r, cols in want.items():
                ks = left[r]
                lrow = 0
                while ks:
                    low = ks & -ks
                    k = low.bit_length() - 1
                    ks ^= low
                    hit = right[k] & cols
                    if hit:
                        lrow |= low
                        rwant[k] = rwant.get(k, 0) | hit
                lwant[r] = lrow     # nonzero: demand lies in the support
            merge(node.lhs, lwant)
            merge(node.rhs, rwant)
        elif isinstance(node, InputNode):
            rows = read[node.var]
            for r, cols in want.items():
                rows[r] |= cols
    return dem, read


def _letter_rows(b: CircuitBuilder, automaton: WeightedAutomaton,
                 read: list) -> list:
    """Per letter, {source state: [(target, node), ...]} for the
    weights read.

    A transition is read when its cell is in its letter's `read` rows
    (see _demands).  The builder is asked for nodes in the order a walk
    over every transition would ask for them: at each position in the
    automaton's canonical order, the variable if some read transition
    uses it and this is its first position, then the constant if this
    is the first transition needing it, then the c * x_i product if
    the transition is read.  The builder shares constants with the rest
    of the synthesis, so where one is first made fixes its place in the
    output; every constant is therefore made, and no variable that no
    read transition uses.

    Per call, only the read transitions are walked, through the slices
    of _positions; the first positions of constants and variables come
    from the same table, built once per automaton.
    """
    starts, offsets, consts, repeats = automaton.derived(_positions)
    used: dict[int, int] = {}
    reads: list[tuple] = []
    for letter, want in enumerate(read):
        moves = automaton.steps(letter)
        offs = offsets[letter]
        base = starts[letter]
        for src, cols in enumerate(want):
            if not cols:
                continue
            for k in range(offs[src], offs[src + 1]):
                _, tgt, coeff, var = moves[k]
                if cols >> tgt & 1:
                    pos = base + k
                    reads.append((pos, 2, letter, src, tgt, coeff, var))
                    if var is not None and var not in used:
                        used[var] = repeats.get(var, pos)
    # Sorting keys (position, kind) are distinct, and kinds 0, 1, 2 put
    # a variable before a constant before a product at one position.
    events: list[tuple] = [(pos, 0, var) for var, pos in used.items()]
    events += [(pos, 1, c) for pos, c in consts]
    events += reads
    events.sort()
    xs: dict[int, int] = {}
    cs: dict[int, int] = {}
    out: list[dict] = [{} for _ in read]
    for event in events:
        kind = event[1]
        if kind == 0:
            xs[event[2]] = b.var(event[2])
        elif kind == 1:
            cs[event[2]] = b.const(event[2])
        else:
            _, _, letter, src, tgt, coeff, var = event
            x = None if var is None else xs[var]
            c = cs[coeff] if var is None or coeff != 1 else None
            nid = c if x is None else x if c is None else b.mul(c, x)
            out[letter].setdefault(src, []).append((tgt, nid))
    return out


# Nodes one synthesis may emit.  Synthesis holds about 1 KB per emitted
# node, so this stops it near 2 GB; the benchmark workloads emit at most
# a few thousand.
MAX_NODES = 2_000_000


def hadamard_circuit(circuit: Circuit, automaton: WeightedAutomaton, *,
                     name: str | None = None) -> Circuit:
    """Synthesise an x-circuit computing the Hadamard product.

    Every gate of the source circuit is replayed on q x q blocks whose
    cells are node ids in the output circuit: letters load their
    transition-matrix block, constants load c times the identity, adds
    union cells, muls take block products.  The output is the block
    cell (start, accept), and only the cells it reads are built, in
    three passes:

      * support (forward): the cells of each block that may be
        nonzero, as boolean matrices interned in the automaton's
        support table, so a sum or product that this or an earlier
        synthesis with the automaton met is one lookup on two table
        indices;
      * demand (reverse): from (start, accept) at the output, the
        cells each node's parents read, within its support, as
        {row: column bitmask} holding only the demanded rows;
      * emission (forward): the letter weights those cells read, then
        the blocks, restricted to demanded cells; a node nothing reads
        builds nothing.

    Cells multiply through shared constant nodes, so paths of weight 1
    cost nothing after folding.  Cells whose constants cancel leave
    nodes no one reads, so the result is pruned to what the output
    reaches.  Once more than MAX_NODES nodes are emitted, the add or
    mul gate being replayed raises BudgetError.
    """
    _check_compatible(circuit, automaton)
    p = circuit.modulus
    b = CircuitBuilder(automaton.x_alphabet, p,
                       name=name or f"{circuit.name}.had")
    demands, read = _demands(circuit, *_supports(circuit, automaton),
                             (automaton.start, automaton.accept))
    letter_rows = _letter_rows(b, automaton, read)
    demand = iter(demands)
    cache: dict = {}
    nodes = b.nodes
    max_nodes = MAX_NODES

    def over_budget() -> BudgetError:
        return BudgetError(f"synthesis emitted {len(nodes)} nodes, "
                           f"budget is {max_nodes}")

    def var(letter: int) -> dict:
        want = next(demand)
        if not want:
            return {}
        rows = letter_rows[letter]
        return {(i, j): nid for i, cols in sorted(want.items())
                for j, nid in rows[i] if cols >> j & 1}

    def const(c: int) -> dict:
        want = next(demand)
        c %= p
        if not (want and c):
            return {}
        nid = b.const(c)    # demand lies within the support: diagonal
        return {(i, i): nid for i in sorted(want)}

    def add(x: dict, y: dict) -> dict:
        want = next(demand)
        if not want:
            return {}
        block = _block_add(b, _restrict(x, want), _restrict(y, want))
        if len(nodes) > max_nodes:
            raise over_budget()
        return block

    def mul(x: dict, y: dict) -> dict:
        want = next(demand)
        if not want:
            return {}
        block = _block_mul(b, x, y, cache, want)
        if len(nodes) > max_nodes:
            raise over_budget()
        return block

    value = replay(circuit, var, const, add, mul)
    out = value.get((automaton.start, automaton.accept))
    if out is None:
        out = b.const(0)
    return b.finish(out, prune=True)


@dataclass(frozen=True)
class HadamardWitness:
    """Size accounting for one synthesis, before constant folding.

    A mul gate costs q^3 cell products and q^2 (q - 1) cell sums, an
    add gate q^2 cell sums, a leaf q^2 cells; out_gates totals these.
    bound is 2 q^3 per gate plus q^2 per leaf, which always dominates,
    so ok is always True.  Real syntheses emit far fewer nodes: they
    fold constants and build only the cells the output reads.
    """

    q: int
    in_gates: int
    out_gates: int
    bound: int
    ok: bool

    def line(self) -> str:
        return (f"hadamard q={self.q} in_gates={self.in_gates} "
                f"out_gates={self.out_gates} bound={self.bound} "
                f"ok={int(self.ok)}")


def hadamard_bound(q: int, gates: int, leaves: int) -> int:
    """Prefold node budget of a synthesis on q states: 2q^3 per gate of
    the source circuit plus q^2 per leaf."""
    return 2 * q ** 3 * gates + q * q * leaves


def hadamard_witness(circuit: Circuit,
                     automaton: WeightedAutomaton) -> HadamardWitness:
    """The prefold accounting of a synthesis on `automaton`, from the
    gate counts of `circuit` alone.

    Nothing is synthesised or measured: out_gates is the formula in
    HadamardWitness, and it is at most bound for every q, so ok is
    always True and a check on it cannot fail.
    """
    _check_compatible(circuit, automaton)
    q = automaton.num_states
    r = circuit.size_report()
    leaves = r.inputs + r.consts
    pre = (q ** 3 * r.muls + q * q * (q - 1) * r.muls + q * q * r.adds
           + q * q * leaves)
    bound = hadamard_bound(q, r.gates, leaves)
    return HadamardWitness(q, r.gates, pre, bound, pre <= bound)
