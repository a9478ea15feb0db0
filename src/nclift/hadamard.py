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
    on sparse q x q blocks of node ids, one block per gate.

The synthesis costs at most 2 q^3 nodes per gate of f plus q^2 per leaf
before constant folding; hadamard_witness records that accounting.
"""

from __future__ import annotations

from dataclasses import dataclass

from .automata import WeightedAutomaton
from .circuits import Circuit, CircuitBuilder, replay
from .polynomials import NCPolynomial, add_maps, mul_maps
from .scalars import Scalar


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


def _point_residue(point, letter: int, p: int) -> int:
    if point is None:
        return 1
    try:
        a = point[letter]
    except (KeyError, IndexError) as exc:
        raise ValueError(f"letter y{letter} has no assigned value") from exc
    if isinstance(a, Scalar):
        if a.modulus != p:
            raise ValueError(f"modulus mismatch: {p} vs {a.modulus}")
        a = a.value
    return a % p


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
        scale = _point_residue(point, letter, p)
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

def _weight_node(b: CircuitBuilder, coeff: int, var: int | None) -> int:
    if var is None:
        return b.const(coeff)
    x = b.var(var)
    return x if coeff == 1 else b.mul(b.const(coeff), x)


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


def _block_mul(b: CircuitBuilder, x: dict, y: dict, cache: dict) -> dict:
    rows: dict[int, list[tuple[int, int]]] = {}
    for (k, j), nid in y.items():
        rows.setdefault(k, []).append((j, nid))
    out: dict = {}
    for (i, k), left in x.items():
        row = rows.get(k)
        if not row:
            continue
        for j, right in row:
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


def hadamard_circuit(circuit: Circuit, automaton: WeightedAutomaton, *,
                     name: str | None = None) -> Circuit:
    """Synthesise an x-circuit computing the Hadamard product.

    Every gate of the source circuit is replayed on q x q blocks whose
    cells are node ids in the output circuit: letters load their
    transition-matrix block, constants load c times the identity, adds
    union cells, muls take block products.  The output is the block
    cell (start, accept).  Cells multiply through shared constant
    nodes, so paths of weight 1 cost nothing after folding; the result
    is pruned to what the output reaches.
    """
    _check_compatible(circuit, automaton)
    p = circuit.modulus
    b = CircuitBuilder(automaton.x_alphabet, p,
                       name=name or f"{circuit.name}.had")
    letter_blocks: dict[int, dict] = {}
    for letter in range(circuit.alphabet.size):
        block: dict = {}
        for src, tgt, coeff, var in automaton.steps(letter):
            block[(src, tgt)] = _weight_node(b, coeff, var)
        letter_blocks[letter] = block

    def const(c: int) -> dict:
        c %= p
        if not c:
            return {}
        nid = b.const(c)
        return {(i, i): nid for i in range(automaton.num_states)}

    cache: dict = {}
    value = replay(circuit, letter_blocks.__getitem__, const,
                   lambda x, y: _block_add(b, x, y),
                   lambda x, y: _block_mul(b, x, y, cache))
    out = value.get((automaton.start, automaton.accept))
    if out is None:
        out = b.const(0)
    return b.finish(out, prune=True)


@dataclass(frozen=True)
class HadamardWitness:
    """Size accounting for one synthesis, before constant folding.

    A mul gate costs q^3 cell products and q^2 (q - 1) cell sums, an
    add gate q^2 cell sums, a leaf q^2 cells; out_gates totals these.
    bound is 2 q^3 per gate plus q^2 per leaf, which always dominates.
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
    _check_compatible(circuit, automaton)
    q = automaton.num_states
    r = circuit.size_report()
    leaves = r.inputs + r.consts
    pre = (q ** 3 * r.muls + q * q * (q - 1) * r.muls + q * q * r.adds
           + q * q * leaves)
    bound = hadamard_bound(q, r.gates, leaves)
    return HadamardWitness(q, r.gates, pre, bound, pre <= bound)
