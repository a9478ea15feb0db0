"""Hadamard product of a circuit-computed polynomial with an automaton.

For a polynomial f over the y letters and an automaton whose series S
sends each y-word to an x-polynomial, the product is

    f (.) S  =  sum_w  [w]f * S(w),

an x-polynomial.  Three routes with one answer:

  * hadamard_poly     expands nothing but f: literal sum over support,
    the reference oracle;
  * hadamard_eval     evaluates f's circuit at the automaton's q x q
    transition matrices, no x specialised, and reads one entry;
  * hadamard_circuit  synthesises an x-circuit by replaying f's gates
    on sparse q x q blocks of node ids, one block per gate.  A boolean
    support pass and a reverse demand pass come first, so each block
    builds only the cells that the (start, accept) output reads.  The
    support pass interns the distinct supports and the demand pass
    keeps only demanded rows, so planning costs follow the cells read,
    not q.

The synthesis costs at most 2 q^3 nodes per gate of f plus q^2 per leaf
before constant folding.  hadamard_witness works that accounting out
from gate counts alone; it is a formula, not a measurement of any
synthesised circuit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .automata import WeightedAutomaton
from .circuits import (AddNode, Circuit, CircuitBuilder, InputNode, MulNode,
                       replay)
from .errors import BudgetError
from .polynomials import NCPolynomial, add_maps, mul_maps
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
    """
    _check_compatible(circuit, automaton)
    p = circuit.modulus
    q = automaton.num_states
    empty: dict = {}
    mats: dict[int, list[list[dict]]] = {}
    for letter in range(circuit.alphabet.size):
        scale = (1 if point is None
                 else assigned_residue(point, letter, p, "letter y"))
        rows = [[empty] * q for _ in range(q)]
        if scale:
            for src, tgt, coeff, var in automaton.steps(letter):
                c = coeff * scale % p
                if c:
                    key = () if var is None else (var,)
                    cur = rows[src][tgt]
                    rows[src][tgt] = (add_maps(cur, {key: c}, p)
                                      if cur else {key: c})
        mats[letter] = rows

    rng = range(q)

    def const(c: int) -> list[list[dict]]:
        c %= p
        return [[({(): c} if c and i == j else empty) for j in rng]
                for i in rng]

    def add(a, b) -> list[list[dict]]:
        return [[add_maps(a[i][j], b[i][j], p) for j in rng] for i in rng]

    def mul(a, b) -> list[list[dict]]:
        out = [[empty] * q for _ in rng]
        for i in rng:
            arow = a[i]
            orow = out[i]
            for k in rng:
                aik = arow[k]
                if aik:
                    brow = b[k]
                    for j in rng:
                        bkj = brow[j]
                        if bkj:
                            orow[j] = add_maps(orow[j],
                                               mul_maps(aik, bkj, p), p)
        return out

    value = replay(circuit, mats.__getitem__, const, add, mul)
    terms = value[automaton.start][automaton.accept]
    return NCPolynomial(automaton.x_alphabet, p, dict(terms), _trusted=True)


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


def _supports(circuit: Circuit,
              automaton: WeightedAutomaton) -> tuple[list, list]:
    """Per node, the block cells that may be nonzero.

    Returns the distinct supports, each a q-tuple of row bitmasks, and
    per node the index of its support in that table.  Letters give
    their transition pattern, a nonzero constant the identity; add ORs
    rows and mul takes the boolean row product.  A circuit has far
    fewer distinct supports than nodes, so add and mul are memoised on
    index pairs.  A cell can be absent from the synthesised block (its
    constants cancelled) but never present outside its support.
    """
    q = automaton.num_states
    p = circuit.modulus
    table: list[tuple] = []
    index: dict[tuple, int] = {}

    def intern(rows: tuple) -> int:
        k = index.get(rows)
        if k is None:
            k = index[rows] = len(table)
            table.append(rows)
        return k

    letters = []
    for letter in range(circuit.alphabet.size):
        rows = [0] * q
        for src, tgt, _, _ in automaton.steps(letter):
            rows[src] |= 1 << tgt
        letters.append(intern(tuple(rows)))
    ident = intern(tuple(1 << i for i in range(q)))
    zero = intern((0,) * q)
    sums: dict = {}
    products: dict = {}

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
            acc = []
            for ks in table[a]:
                row = 0
                while ks:
                    low = ks & -ks
                    row |= right[low.bit_length() - 1]
                    ks ^= low
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
    """Per letter, per source state, the (target, node) weights read.

    A transition is read when its cell is in its letter's `read` rows
    (see _demands).  Transitions are walked in order, and each asks the
    builder for its constant (the builder shares constants with the
    rest of the synthesis, so where one is first made fixes its place
    in the output), for its variable if some read transition uses that
    variable, and for its c * x_i product only if it is read itself.
    So every node the output reaches is made in the same order as if
    every weight were emitted, and no variable is made that no read
    transition uses.
    """
    q = automaton.num_states
    used = {var for letter, want in enumerate(read)
            for src, tgt, _, var in automaton.steps(letter)
            if var is not None and want[src] >> tgt & 1}
    out = []
    for letter, want in enumerate(read):
        rows: list[list] = [[] for _ in range(q)]
        for src, tgt, coeff, var in automaton.steps(letter):
            x = b.var(var) if var in used else None
            c = b.const(coeff) if var is None or coeff != 1 else None
            if want[src] >> tgt & 1:
                nid = c if x is None else x if c is None else b.mul(c, x)
                rows[src].append((tgt, nid))
        out.append(rows)
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
        nonzero, as boolean matrices interned in one table, so a
        repeated sum or product is one lookup on two table indices;
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
